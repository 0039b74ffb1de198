//! `polinv` — command-line front end for the Patterns-of-Life inventory.
//!
//! ```text
//! polinv build --out inv.pol [--vessels 150] [--days 14] [--res 6] [--seed 42]
//!              [--executor fused|staged] [--timings]
//! polinv info <inv.pol>
//! polinv verify <inv.pol>
//! polinv query <inv.pol> <lat> <lon> [--segment container|tanker|...]
//! polinv top-dest <inv.pol> <LOCODE>
//! polinv migrate <inv.pol> <inv.pol3>
//! polinv serve <inv.pol> [--addr 127.0.0.1:0] [--workers 8]
//! ```
//!
//! Every reading subcommand sniffs the snapshot format: POLINV2
//! (row-oriented), POLINV3 (columnar, `migrate`'s output), and POLMAN1
//! delta-chain manifests (`pol-stream`'s output — loaded base plus
//! deltas, merged) are accepted everywhere a `<inv.pol>` appears.
//! `verify` on a manifest audits the whole chain file by file. `serve`
//! memory-maps a POLINV3 file zero-copy instead of deserializing it;
//! POLINV2 and POLMAN1 inputs are decoded and re-encoded to the same
//! columnar image in memory.
//!
//! While `serve` is running, its stdin is a tiny control channel: a
//! `reload <file>` line hot-swaps the snapshot (validated first — a
//! corrupt file is rejected and the old snapshot keeps serving), and
//! EOF shuts the server down.

use pol_ais::types::MarketSegment;
use pol_bench::alloc::{self, CountingAlloc};
use pol_bench::{build_inventory_on, BuildExecutor};
use pol_core::{codec, Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::WORLD_PORTS;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  polinv build --out <file> [--vessels N] [--days D] [--res R] [--seed S] \
         [--executor fused|staged] [--timings]\n  \
         polinv info <file>\n  \
         polinv verify <file>\n  \
         polinv query <file> <lat> <lon> [--segment <name>]\n  \
         polinv top-dest <file> <LOCODE>\n  \
         polinv migrate <in.pol> <out.pol3>\n  \
         polinv serve <file> [--addr HOST:PORT] [--workers N]"
    );
    ExitCode::from(2)
}

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn segment_by_name(name: &str) -> Option<MarketSegment> {
    MarketSegment::ALL.into_iter().find(|s| s.name() == name)
}

fn load(path: &str) -> Result<Inventory, ExitCode> {
    codec::load_any(Path::new(path)).map_err(|e| {
        eprintln!("error: cannot load {path}: {e}");
        ExitCode::FAILURE
    })
}

fn cmd_build(args: &[String]) -> ExitCode {
    let Some(out_path) = parse_flag(args, "--out") else {
        return usage();
    };
    let vessels = parse_flag(args, "--vessels")
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);
    let days = parse_flag(args, "--days")
        .and_then(|v| v.parse().ok())
        .unwrap_or(14);
    let res = parse_flag(args, "--res")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6u8);
    let seed = parse_flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let Some(resolution) = Resolution::new(res) else {
        eprintln!("error: resolution {res} out of 0..=15");
        return ExitCode::FAILURE;
    };
    let scenario = ScenarioConfig {
        seed,
        n_vessels: vessels,
        duration_days: days,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let executor = match parse_flag(args, "--executor") {
        None => BuildExecutor::Fused,
        Some(name) => match BuildExecutor::from_name(&name) {
            Some(e) => e,
            None => {
                eprintln!("error: unknown executor {name} (expected fused|staged)");
                return ExitCode::FAILURE;
            }
        },
    };
    let timings = args.iter().any(|a| a == "--timings");
    let cfg = PipelineConfig::default().with_resolution(resolution);
    eprintln!("simulating {vessels} vessels over {days} days (seed {seed})...");
    let ds = generate(&scenario);
    let engine = Engine::with_available_parallelism();
    let before = alloc::snapshot();
    let out = build_inventory_on(&engine, &ds, &cfg, executor);
    let delta = alloc::snapshot().since(before);
    engine.metrics().add_counter("alloc.calls", delta.allocs);
    engine.metrics().add_counter("alloc.bytes", delta.bytes);
    eprintln!(
        "pipeline: {} raw -> {} trip records -> {} entries",
        ds.total_reports(),
        out.counts.with_trips,
        out.counts.group_entries
    );
    if timings {
        eprint!("{}", engine.metrics().render());
    }
    if let Err(e) = codec::save(&out.inventory, Path::new(&out_path)) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    let cov = out.inventory.coverage();
    println!(
        "wrote {out_path}: res {}, {} cells, compression {:.2}%",
        cov.resolution,
        cov.occupied_cells,
        cov.compression * 100.0
    );
    ExitCode::SUCCESS
}

fn cmd_info(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let inv = match load(path) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let cov = inv.coverage();
    println!("inventory {path}");
    println!("  resolution        {}", cov.resolution);
    println!("  records           {}", cov.total_records);
    println!("  occupied cells    {}", cov.occupied_cells);
    println!("  compression       {:.2}%", cov.compression * 100.0);
    println!("  grid utilization  {:.4}%", cov.utilization * 100.0);
    use pol_core::features::GroupingSet::*;
    for (gs, name) in [
        (Cell, "(cell)"),
        (CellType, "(cell, type)"),
        (CellRoute, "(cell, o, d, type)"),
    ] {
        println!("  entries {:<20} {}", name, inv.len_of(gs));
    }
    ExitCode::SUCCESS
}

fn cmd_verify(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let format = match codec::sniff_file(Path::new(path)) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{path}: CORRUPT: inventory io error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if matches!(format, Some(codec::SnapshotFormat::Manifest)) {
        // A POLMAN1 delta chain: walk base + every delta, re-verifying
        // each file's recorded length + CRC and the merge itself.
        return match codec::manifest::verify_chain(Path::new(path)) {
            Ok(report) => {
                println!("{path}: OK (POLMAN1 delta chain)");
                println!("  newest generation {}", report.generation);
                println!("  chain length      {} files", report.files.len());
                println!("  merged entries    {}", report.merged_entries);
                for f in &report.files {
                    println!(
                        "  gen {:>5}  {:<24} {:>10} bytes  crc64 {:016x}  {:>8} entries",
                        f.generation, f.name, f.file_len, f.crc, f.entries
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: CORRUPT: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if matches!(format, Some(codec::SnapshotFormat::V3)) {
        return match codec::columnar::verify(Path::new(path)) {
            Ok(report) => {
                println!("{path}: OK (POLINV3 columnar)");
                println!("  file length       {} bytes", report.file_len);
                println!("  resolution        {}", report.resolution);
                println!("  records           {}", report.total_records);
                println!("  entries           {}", report.entries);
                for s in &report.sections {
                    println!(
                        "  section {:<10} {:>8} entries  crc64 {:016x}",
                        s.name, s.entries, s.crc
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: CORRUPT: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match codec::verify(Path::new(path)) {
        Ok(report) => {
            println!("{path}: OK");
            println!("  file length       {} bytes", report.file_len);
            println!("  header crc64      {:016x}", report.header_crc);
            println!("  entries crc64     {:016x}", report.entries_crc);
            println!("  resolution        {}", report.resolution);
            println!("  records           {}", report.total_records);
            println!("  entries           {}", report.entries);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: CORRUPT: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_migrate(args: &[String]) -> ExitCode {
    let (Some(input), Some(output)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let bytes = match std::fs::read(input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The byte-level migration keeps every stats blob verbatim (both
    // formats share the canonical encoding), so queries against the
    // migrated file are bit-identical to the original.
    let v3 = match codec::columnar::migrate_v2_bytes(&bytes) {
        Ok(v3) => v3,
        Err(e) => {
            eprintln!("error: cannot migrate {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = codec::save_bytes(&v3, Path::new(output)) {
        eprintln!("error: cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    match codec::columnar::verify(Path::new(output)) {
        Ok(report) => {
            println!(
                "migrated {input} -> {output}: {} entries, {} -> {} bytes",
                report.entries,
                bytes.len(),
                v3.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: migrated file failed verification: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_query(args: &[String]) -> ExitCode {
    let (Some(path), Some(lat), Some(lon)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    let (Ok(lat), Ok(lon)) = (lat.parse::<f64>(), lon.parse::<f64>()) else {
        eprintln!("error: lat/lon must be numbers");
        return ExitCode::FAILURE;
    };
    let Some(pos) = LatLon::new(lat, lon) else {
        eprintln!("error: coordinates out of range");
        return ExitCode::FAILURE;
    };
    let inv = match load(path) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let segment = parse_flag(args, "--segment").and_then(|s| segment_by_name(&s));
    let cell = cell_at(pos, inv.resolution());
    let stats = match segment {
        Some(seg) => inv.summary_for(cell, seg),
        None => inv.summary(cell),
    };
    println!(
        "cell {cell} at ({lat}, {lon}){}",
        match segment {
            Some(s) => format!(" [{s}]"),
            None => String::new(),
        }
    );
    let Some(stats) = stats else {
        println!("  no traffic recorded");
        return ExitCode::SUCCESS;
    };
    println!("  records          {}", stats.records);
    println!("  distinct ships   {}", stats.ships.estimate());
    println!("  distinct trips   {}", stats.trips.estimate());
    if let (Some(m), Some(s)) = (stats.speed.mean(), stats.speed.std_dev()) {
        let mut q = stats.speed_q.clone();
        println!(
            "  speed            {m:.1} ± {s:.1} kn (p10 {:.1} / p50 {:.1} / p90 {:.1})",
            q.quantile(0.1).unwrap_or(0.0),
            q.quantile(0.5).unwrap_or(0.0),
            q.quantile(0.9).unwrap_or(0.0)
        );
    }
    if let (Some(c), Some(r)) = (stats.course.mean_deg(), stats.course.resultant_length()) {
        println!("  course           {c:.0}° (alignment {r:.2})");
    }
    if let Some(ata) = stats.ata.mean() {
        println!("  mean time-to-dest {:.1} h", ata / 3600.0);
    }
    for (port, n) in stats.top_destinations(3) {
        let name = WORLD_PORTS
            .get(port as usize)
            .map(|p| p.name)
            .unwrap_or("?");
        println!("  top destination  {name} ({n} records)");
    }
    for (next, n) in stats.top_transitions(3) {
        println!("  transition       -> {next} ({n}x)");
    }
    ExitCode::SUCCESS
}

fn cmd_top_dest(args: &[String]) -> ExitCode {
    let (Some(path), Some(locode)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some((pid, port)) = pol_fleetsim::ports::port_by_locode(locode) else {
        eprintln!("error: unknown LOCODE {locode}");
        return ExitCode::FAILURE;
    };
    let inv = match load(path) {
        Ok(i) => i,
        Err(e) => return e,
    };
    let cells = inv.cells_with_top_destination(pid.0, None);
    println!(
        "{} cells have {} ({locode}) as their most frequent destination",
        cells.len(),
        port.name
    );
    for c in cells.iter().take(10) {
        let p = pol_hexgrid::cell_center(*c);
        println!("  {c}  ({:.3}, {:.3})", p.lat(), p.lon());
    }
    if cells.len() > 10 {
        println!("  ... and {} more", cells.len() - 10);
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let addr = parse_flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
    let config = pol_serve::ServerConfig {
        worker_threads: parse_flag(args, "--workers")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
        ..pol_serve::ServerConfig::default()
    };
    // start_snapshot sniffs the format: a POLINV3 file is memory-mapped
    // zero-copy (validated, not deserialized), POLINV2 takes the full
    // decode + columnar re-encode path.
    let started = std::time::Instant::now();
    let mut server = match pol_serve::Server::start_snapshot(Path::new(path), addr.as_str(), config)
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot serve {path} on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "cold start (load-to-ready): {:.1} ms",
        started.elapsed().as_secs_f64() * 1e3
    );
    // The bound address goes to stdout so scripts (ci.sh) can pick up an
    // ephemeral port; everything else is stderr chatter.
    println!("listening on {}", server.local_addr());
    use std::io::{BufRead, Write};
    std::io::stdout().flush().ok();
    eprintln!("serving {path}; `reload <file>` to hot-swap, close stdin (Ctrl-D) to stop");
    // std has no portable signal handling: stdin EOF is the shutdown
    // control signal (ci.sh holds a fifo open and closes it to stop us).
    // A `reload <file>` line hot-swaps the snapshot without dropping
    // connections; a corrupt file is rejected and the old one serves on.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if let Some(new_path) = line.trim().strip_prefix("reload ") {
            let new_path = new_path.trim();
            match server.reload_from(Path::new(new_path)) {
                Ok(()) => eprintln!(
                    "reloaded {new_path} (generation {})",
                    server.metrics().generation()
                ),
                Err(e) => eprintln!("reload rejected, keeping old snapshot: {e}"),
            }
        } else if !line.trim().is_empty() {
            eprintln!("unknown control command (only `reload <file>` is understood)");
        }
    }
    let stats = server.metrics().snapshot();
    server.shutdown();
    eprintln!(
        "shut down after {} requests over {} connections ({} busy, {} malformed)",
        stats.total_requests, stats.connections, stats.busy_rejections, stats.malformed_frames
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("top-dest") => cmd_top_dest(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        _ => usage(),
    }
}
