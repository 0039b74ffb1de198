//! `polload` — load generator for the `pol-serve` query server.
//!
//! ```text
//! polload [--addr HOST:PORT] [--threads 8] [--requests 20000]
//!         [--vessels 150] [--days 14] [--seed 42] [--workers 8]
//!         [--batch N] [--min-rps X] [--out figures/BENCH_serve.json]
//! polload --connections 10000 [--idle-frac 0.95] [--addr HOST:PORT] ...
//! polload --conn-sweep [--threads 8] [--requests 20000] ...
//! polload --chaos [--threads 4] [--requests 2000] [--vessels N] ...
//! ```
//!
//! Without `--addr`, polload builds a res-6 fleetsim inventory in
//! process, saves it as both a POLINV2 and a POLINV3 snapshot, measures
//! the cold start (load-to-READY) of each format (POLINV2 is decoded and
//! re-encoded columnar in memory, POLINV3 is memory-mapped), serves the
//! POLINV3 file on an ephemeral loopback port, drives it, and shuts it
//! down — the self-contained form the CI smoke test runs. With `--addr`
//! it drives an already-running server (`polinv serve`).
//!
//! `--batch N` adds batch phases (`N` sub-requests per
//! frame); their `rps` counts sub-requests, their latency quantiles are
//! per *frame*. `--min-rps X` exits non-zero unless the gate phase
//! (`route_summary_batch` when batching, else `point_summary`) reached
//! `X` requests per second. Results print alongside a comparison with
//! whatever `--out` file the previous run committed.
//!
//! `--connections N` switches to the open-connection scalability bench:
//! N sockets are held open against the server (`--idle-frac` of them
//! silent, the rest driven in rotation by `--threads` driver threads)
//! and point-summary throughput is measured *while* the readiness table
//! carries all N. Without `--addr` the server runs in a spawned child
//! process (`--serve-only`, an internal mode) so the 10k+ descriptor
//! budget is split across two processes. `--conn-sweep` runs the
//! {100, 1k, 10k}-connection matrix after the normal endpoint phases and
//! records it under `"open_connections"` in the JSON; rows of the
//! deleted thread-per-connection core found in the previous `--out` file
//! are carried forward under `"threaded_core_baseline"`, and so are
//! committed before/after records (one-line keys ending in `_pair`).
//! With `--connections`, `--min-rps` gates on the connection phase's
//! throughput instead.
//!
//! `--chaos` (needs a build with `--features pol-bench/chaos`) runs the
//! fault-injection self-test instead: failpoints kill connection workers
//! and delay reads while a retrying client fleet checks every answer
//! against a reference inventory. The run fails if chaos ever produced a
//! wrong answer, if the surfaced-error rate exceeded 10%, or if the
//! server did not recover fully once the faults were disarmed.
//!
//! Each endpoint gets its own burst phase over N concurrent connections
//! (one per thread); client-side latency is measured per request and
//! quantiles are exact (sorted), not sketched. Results go to stdout and
//! to `BENCH_serve.json`.

use pol_ais::types::MarketSegment;
use pol_bench::build_inventory;
use pol_core::PipelineConfig;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::ScenarioConfig;
use pol_hexgrid::{cell_center, CellIndex, Resolution};
use pol_serve::{Client, ClientError, Server, ServerConfig};
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::thread;
use std::time::{Duration, Instant};

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_or<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    parse_flag(args, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One endpoint phase's aggregate result. `requests` counts
/// sub-requests (`frames * batch`); the latency quantiles are per wire
/// frame, so a batch phase's p50 is the whole-frame round trip.
struct PhaseResult {
    name: &'static str,
    requests: u64,
    batch: usize,
    wall_secs: f64,
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    max_us: f64,
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives one endpoint with `threads` concurrent connections issuing
/// `per_thread` frames each; returns exact aggregate latency stats.
/// `batch` is the number of sub-requests each frame carries (1 for the
/// plain phases) — it scales the reported request count and rps, while
/// latency stays per frame.
fn run_phase<F>(
    addr: SocketAddr,
    name: &'static str,
    threads: usize,
    per_thread: usize,
    batch: usize,
    f: F,
) -> Result<PhaseResult, ClientError>
where
    F: Fn(&mut Client, usize, usize) -> Result<(), ClientError> + Sync,
{
    let started = Instant::now();
    let f = &f;
    let lats: Vec<Vec<f64>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                s.spawn(move || -> Result<Vec<f64>, ClientError> {
                    let mut client = Client::connect(addr)?;
                    let mut lats = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let t = Instant::now();
                        f(&mut client, tid, i)?;
                        lats.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_secs = started.elapsed().as_secs_f64();
    let mut all: Vec<f64> = lats.into_iter().flatten().collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    let requests = (all.len() * batch.max(1)) as u64;
    Ok(PhaseResult {
        name,
        requests,
        batch: batch.max(1),
        wall_secs,
        rps: requests as f64 / wall_secs.max(1e-9),
        p50_us: quantile(&all, 0.50),
        p95_us: quantile(&all, 0.95),
        p99_us: quantile(&all, 0.99),
        max_us: all.last().copied().unwrap_or(0.0),
    })
}

/// Fetches the occupied-cell centres to use as the query-position pool
/// (works against any server, external or in-process).
fn position_pool(addr: SocketAddr) -> Result<Vec<(f64, f64)>, ClientError> {
    let mut client = Client::connect(addr)?;
    let cells = client.bbox_scan(-89.9, -179.9, 89.9, 179.9)?;
    let mut pool: Vec<(f64, f64)> = cells
        .iter()
        .filter_map(|raw| CellIndex::from_raw(*raw).ok())
        .map(|c| {
            let p = cell_center(c);
            (p.lat(), p.lon())
        })
        .collect();
    if pool.is_empty() {
        // Empty inventory: fall back to port positions so every phase
        // still exercises the wire (responses are just all-None).
        pool = pol_fleetsim::WORLD_PORTS
            .iter()
            .map(|p| (p.pos().lat(), p.pos().lon()))
            .collect();
    }
    Ok(pool)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Cold-start (load-to-READY) measurement for both snapshot formats.
struct ColdStart {
    v2_heap_ms: f64,
    v3_mmap_ms: f64,
}

/// One open-connection scalability measurement: point-summary load
/// driven while `connections` sockets (mostly idle) are held open.
struct ConnRow {
    connections: usize,
    idle: usize,
    requests: u64,
    busy: u64,
    wall_secs: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    peak_open: u64,
    shed_at_loop: u64,
}

fn write_bench_json(
    path: &std::path::Path,
    threads: usize,
    store: &str,
    phases: &[PhaseResult],
    conn_rows: &[ConnRow],
    cold: Option<&ColdStart>,
    top_dest_before_rps: Option<f64>,
) -> std::io::Result<()> {
    let previous = std::fs::read_to_string(path).unwrap_or_default();
    let historical = threaded_baseline(&previous);
    let pairs = committed_pairs(&previous);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"pol-serve loopback load\",")?;
    writeln!(f, "  \"threads\": {threads},")?;
    writeln!(f, "  \"store\": \"{}\",", json_escape(store))?;
    // The before/after record for the precomputed top-K destination
    // section: "before" is what the previously committed file measured
    // (the linear-scan cliff when it predates the section).
    if let Some(before) = top_dest_before_rps {
        writeln!(f, "  \"top_destination_cells_before_rps\": {before:.1},")?;
    }
    if let Some(c) = cold {
        writeln!(
            f,
            "  \"cold_start\": {{\"v2_heap_ms\": {:.2}, \"v3_mmap_ms\": {:.2}}},",
            c.v2_heap_ms, c.v3_mmap_ms
        )?;
    }
    if !conn_rows.is_empty() {
        // The scalability matrix: throughput with N sockets held open.
        // `shed_at_loop` / `peak_open` come from the server's own STATS
        // counters, not client bookkeeping.
        writeln!(f, "  \"open_connections\": [")?;
        for (i, r) in conn_rows.iter().enumerate() {
            let comma = if i + 1 < conn_rows.len() { "," } else { "" };
            writeln!(
                f,
                "    {{\"core\": \"reactor\", \"connections\": {}, \"idle\": {}, \
                 \"requests\": {}, \"busy\": {}, \"wall_secs\": {:.4}, \
                 \"rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
                 \"peak_open\": {}, \"shed_at_loop\": {}}}{comma}",
                r.connections,
                r.idle,
                r.requests,
                r.busy,
                r.wall_secs,
                r.rps,
                r.p50_us,
                r.p99_us,
                r.peak_open,
                r.shed_at_loop
            )?;
        }
        writeln!(f, "  ],")?;
    }
    if !historical.is_empty() {
        writeln!(
            f,
            "  \"threaded_core_baseline_note\": \"historical: the thread-per-connection \
             core, since deleted; measured before the reactor became the only core\","
        )?;
        writeln!(f, "  \"threaded_core_baseline\": [")?;
        writeln!(f, "    {}", historical.join(",\n    "))?;
        writeln!(f, "  ],")?;
    }
    for pair in &pairs {
        writeln!(f, "  {pair},")?;
    }
    writeln!(f, "  \"endpoints\": [")?;
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"endpoint\": \"{}\", \"requests\": {}, \"batch\": {}, \
             \"wall_secs\": {:.4}, \"rps\": {:.1}, \"p50_us\": {:.1}, \
             \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}}}{comma}",
            json_escape(p.name),
            p.requests,
            p.batch,
            p.wall_secs,
            p.rps,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.max_us
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    f.flush()
}

/// Rows of the deleted thread-per-connection core in a previously
/// written `BENCH_serve.json`, verbatim — the labelled historical
/// baseline for the `open_connections` matrix.
fn threaded_baseline(previous: &str) -> Vec<String> {
    previous
        .lines()
        .filter(|l| l.contains("\"core\": \"threaded\""))
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .collect()
}

/// Committed before/after records in a previously written
/// `BENCH_serve.json`, verbatim: each is one top-level line whose key
/// ends in `_pair` (e.g. `"inline_execution_pair": {...}`). They are
/// measured by hand across two builds, so a fresh run carries them
/// forward instead of dropping them.
fn committed_pairs(previous: &str) -> Vec<String> {
    previous
        .lines()
        .filter(|l| l.starts_with("  \"") && l.contains("_pair\": {"))
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .collect()
}

/// Internal child mode for the two-process connection bench: serve one
/// snapshot on an ephemeral port, announce it on stdout, hold until
/// stdin closes. The parent (this same binary) spawns it so the
/// 10k-socket runs split their descriptor budget across two processes
/// (the container's fd ceiling could not hold both ends in one).
fn run_serve_only(args: &[String]) -> ExitCode {
    let Some(snap) = parse_flag(args, "--serve-only") else {
        eprintln!("error: --serve-only needs a snapshot path");
        return ExitCode::FAILURE;
    };
    let config = ServerConfig {
        worker_threads: parse_or(args, "--workers", 8),
        max_pending: parse_or(args, "--max-pending", ServerConfig::default().max_pending),
        ..ServerConfig::default()
    };
    let mut server =
        match Server::start_snapshot(std::path::Path::new(&snap), "127.0.0.1:0", config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot serve {snap}: {e}");
                return ExitCode::FAILURE;
            }
        };
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    // Parent closing our stdin is the shutdown signal, mirroring
    // `polinv serve`.
    let mut sink = String::new();
    let _ = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut sink);
    let stats = server.metrics().snapshot();
    server.shutdown();
    eprintln!("{}", stats.render());
    ExitCode::SUCCESS
}

/// A serve-only child process and the address it bound.
struct ServeChild {
    child: std::process::Child,
    addr: SocketAddr,
}

impl ServeChild {
    fn spawn(
        snapshot: &std::path::Path,
        workers: usize,
        max_pending: usize,
    ) -> Result<ServeChild, String> {
        use std::io::BufRead;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .arg("--serve-only")
            .arg(snapshot)
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--max-pending")
            .arg(max_pending.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn serve child: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            return Err("serve child stdout not captured".into());
        };
        let mut line = String::new();
        if std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .is_err()
            || line.is_empty()
        {
            let _ = child.kill();
            let _ = child.wait();
            return Err("serve child exited before announcing its address".into());
        }
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("serve child announced garbage: {line:?}"));
        };
        Ok(ServeChild { child, addr })
    }

    /// Closes the child's stdin (its drain signal) and reaps it.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// Holds `connections` sockets open against `addr` — `idle_frac` of
/// them silent, the rest rotated through by `threads` driver threads
/// issuing point-summary queries — and measures throughput while the
/// server's readiness table carries the full set.
fn run_connection_phase(
    addr: SocketAddr,
    connections: usize,
    idle_frac: f64,
    threads: usize,
    requests: usize,
) -> Result<ConnRow, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    let connections = connections.max(2);
    let idle = ((connections as f64 * idle_frac).round() as usize).min(connections - 1);
    let active = connections - idle;
    let threads = threads.clamp(1, active);
    eprintln!("[conn] opening {idle} idle + {active} active connections against {addr}...");
    let mut idle_socks = Vec::with_capacity(idle);
    for i in 0..idle {
        match std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
            Ok(s) => idle_socks.push(s),
            Err(e) => return Err(format!("[conn] idle connect {}/{idle}: {e}", i + 1)),
        }
        if (i + 1) % 2500 == 0 {
            eprintln!("[conn]   {} idle sockets open", i + 1);
        }
    }
    let pool = position_pool(addr).map_err(|e| format!("[conn] position pool: {e}"))?;
    let pool = &pool;
    let per_thread = (requests / threads).max(1);
    let busy = AtomicU64::new(0);
    let started = Instant::now();
    let lats: Vec<Vec<f64>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let busy = &busy;
                s.spawn(move || -> Result<Vec<f64>, String> {
                    // This driver owns every `threads`-th active socket
                    // and rotates its requests across them so all
                    // `active` sockets stay in play, not just one per
                    // driver.
                    let owned = (active - tid).div_ceil(threads);
                    let mut clients = Vec::with_capacity(owned);
                    for _ in 0..owned {
                        clients.push(
                            Client::connect(addr)
                                .map_err(|e| format!("[conn] active connect: {e}"))?,
                        );
                    }
                    let mut lats = Vec::with_capacity(per_thread);
                    for i in 0..per_thread {
                        let (lat, lon) = pool[(tid + i * 31) % pool.len()];
                        let slot = i % clients.len();
                        let t = Instant::now();
                        match clients[slot].point_summary(lat, lon) {
                            Ok(_) => lats.push(t.elapsed().as_secs_f64() * 1e6),
                            // Load shedding is an expected answer under
                            // overload: count it, keep the socket.
                            Err(ClientError::ServerBusy) => {
                                busy.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => return Err(format!("[conn] query failed: {e}")),
                        }
                    }
                    Ok(lats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection driver panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_secs = started.elapsed().as_secs_f64();
    let mut all: Vec<f64> = lats.into_iter().flatten().collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    // The server's own view: peak table size and loop-level sheds. Read
    // while the idle fleet is still connected so peak_open reflects it.
    let report = Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("[conn] stats fetch: {e}"))?;
    drop(idle_socks);
    let requests = all.len() as u64;
    Ok(ConnRow {
        connections,
        idle,
        requests,
        busy: busy.load(Ordering::Relaxed),
        wall_secs,
        rps: requests as f64 / wall_secs.max(1e-9),
        p50_us: quantile(&all, 0.50),
        p99_us: quantile(&all, 0.99),
        peak_open: report.peak_connections,
        shed_at_loop: report.shed_at_loop,
    })
}

fn print_conn_rows(rows: &[ConnRow]) {
    println!(
        "\n{:>11} {:>6} {:>9} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "connections", "idle", "requests", "busy", "rps", "p50_us", "p99_us", "peak_open", "shed"
    );
    for r in rows {
        println!(
            "{:>11} {:>6} {:>9} {:>6} {:>10.0} {:>10.1} {:>10.1} {:>10} {:>8}",
            r.connections,
            r.idle,
            r.requests,
            r.busy,
            r.rps,
            r.p50_us,
            r.p99_us,
            r.peak_open,
            r.shed_at_loop
        );
    }
}

/// Pulls `(endpoint, rps)` pairs out of a previously written
/// `BENCH_serve.json` — a narrow hand-rolled scan (no JSON dependency)
/// that tolerates both the old and new field layouts.
fn parse_baseline_rps(text: &str) -> Vec<(String, f64)> {
    let mut pairs = Vec::new();
    for seg in text.split("\"endpoint\": \"").skip(1) {
        let Some(name_end) = seg.find('"') else {
            continue;
        };
        let name = seg[..name_end].to_string();
        let Some(rps_at) = seg.find("\"rps\": ") else {
            continue;
        };
        let digits: String = seg[rps_at + 7..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(rps) = digits.parse::<f64>() {
            pairs.push((name, rps));
        }
    }
    pairs
}

/// Prints this run's throughput next to the committed baseline file's
/// (the `--out` target as it stood before we overwrote it).
fn print_baseline_comparison(baseline: &[(String, f64)], phases: &[PhaseResult]) {
    if baseline.is_empty() {
        return;
    }
    println!(
        "\nvs committed baseline:\n{:<22} {:>12} {:>12} {:>8}",
        "endpoint", "baseline_rps", "now_rps", "delta"
    );
    for p in phases {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == p.name) else {
            println!("{:<22} {:>12} {:>12.0} {:>8}", p.name, "-", p.rps, "new");
            continue;
        };
        let delta = if *base > 0.0 {
            format!("{:+.1}%", (p.rps / base - 1.0) * 100.0)
        } else {
            "n/a".to_string()
        };
        println!("{:<22} {:>12.0} {:>12.0} {:>8}", p.name, base, p.rps, delta);
    }
}

/// Builds the scenario the self-contained modes simulate.
fn scenario_from(args: &[String]) -> ScenarioConfig {
    ScenarioConfig {
        seed: parse_or(args, "--seed", 42),
        n_vessels: parse_or(args, "--vessels", 150),
        duration_days: parse_or(args, "--days", 14),
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// The chaos self-test: a fault-injected server must never return a
/// wrong answer, must keep the surfaced-error rate bounded, and must
/// recover fully once the failpoints are disarmed.
fn run_chaos(args: &[String]) -> ExitCode {
    use pol_chaos::{configure, reset, stats, FaultAction, Trigger};
    use pol_core::codec;
    use pol_geo::LatLon;
    use pol_hexgrid::cell_at;
    use pol_serve::{ClientConfig, ProtoError, RetryPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    if !pol_chaos::compiled_in() {
        eprintln!(
            "error: fault injection is not compiled into this binary;\n\
             rebuild with: cargo run -p pol-bench --features chaos --bin polload -- --chaos"
        );
        return ExitCode::FAILURE;
    }
    if parse_flag(args, "--addr").is_some() {
        eprintln!(
            "error: --chaos drives an in-process server (failpoints are per-process); drop --addr"
        );
        return ExitCode::FAILURE;
    }
    let threads: usize = parse_or(args, "--threads", 4).max(1);
    let requests: usize = parse_or(args, "--requests", 2_000).max(threads);
    let workers: usize = parse_or(args, "--workers", 4);

    let scenario = scenario_from(args);
    let resolution = Resolution::new(6).expect("res 6 valid");
    let cfg = PipelineConfig::default().with_resolution(resolution);
    eprintln!(
        "chaos: building res-6 inventory ({} vessels, {} days, seed {})...",
        scenario.n_vessels, scenario.duration_days, scenario.seed
    );
    let (_, out) = build_inventory(&scenario, &cfg);
    // Reference copy for answer checking (the original moves into the
    // server); a codec round trip is the cheapest faithful clone.
    let reference = codec::from_bytes(&codec::to_bytes(&out.inventory)).expect("codec round trip");

    let server = Server::start(
        out.inventory,
        "127.0.0.1:0",
        ServerConfig {
            worker_threads: workers,
            read_timeout: Duration::from_millis(25),
            drain_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr();
    let mut server = server;

    let pool = position_pool(addr).expect("position pool");
    let pool = &pool;
    let expected = |lat: f64, lon: f64| -> Option<Vec<u8>> {
        let pos = LatLon::new(lat, lon).expect("pool positions valid");
        reference
            .summary(cell_at(pos, reference.resolution()))
            .map(|s| {
                let mut buf = Vec::new();
                codec::encode_cell_stats(s, &mut buf);
                buf
            })
    };
    let client_config = |seed: u64| ClientConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_secs(2)),
        retry: RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
            deadline: Duration::from_secs(20),
            jitter_seed: seed,
        },
        ..ClientConfig::default()
    };

    // Injected kills are deliberate panics (contained by the worker
    // pool); keep their backtraces out of the run log so real panics
    // stay visible.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("chaos: failpoint"));
        if !injected {
            default_hook(info);
        }
    }));

    // Deterministic fault schedule: every 50th served frame dies mid
    // flight, ~2% of reads stall briefly.
    reset();
    configure(
        "serve.worker.kill",
        Trigger::EveryNth {
            n: 50,
            action: FaultAction::Kill,
        },
    );
    configure(
        "serve.conn.read_delay",
        Trigger::Prob {
            p: 0.02,
            seed: 0xC0FFEE,
            action: FaultAction::Delay(Duration::from_millis(2)),
        },
    );

    eprintln!(
        "chaos: driving {addr} with {threads} threads x {} requests",
        requests / threads
    );
    let wrong = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let per_thread = requests / threads;
    thread::scope(|s| {
        for tid in 0..threads {
            let (wrong, errors, expected) = (&wrong, &errors, &expected);
            s.spawn(move || {
                let mut client =
                    Client::connect_with(addr, client_config(1000 + tid as u64)).expect("connect");
                for i in 0..per_thread {
                    let (lat, lon) = pool[(tid + i * 31) % pool.len()];
                    match client.point_summary(lat, lon) {
                        Ok(got) => {
                            let got = got.map(|s| {
                                let mut buf = Vec::new();
                                codec::encode_cell_stats(&s, &mut buf);
                                buf
                            });
                            if got != expected(lat, lon) {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(
                            pol_serve::ClientError::ServerBusy
                            | pol_serve::ClientError::Proto(ProtoError::Io(_))
                            | pol_serve::ClientError::Proto(ProtoError::ConnectionClosed),
                        ) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("chaos surfaced a non-retryable error: {e}"),
                    }
                }
            });
        }
    });

    let kills = stats("serve.worker.kill");
    let delays = stats("serve.conn.read_delay");
    let wrong = wrong.load(Ordering::Relaxed);
    let errors = errors.load(Ordering::Relaxed);
    let total = (per_thread * threads) as u64;

    // Recovery: with the faults disarmed, the next client must see a
    // healthy, ready server that still answers from the right snapshot.
    reset();
    let mut probe = Client::connect_with(addr, client_config(7)).expect("recovery connect");
    let mut recovered = probe.ping().is_ok();
    recovered &= probe
        .health()
        .map(|h| h.healthy && !h.draining)
        .unwrap_or(false);
    recovered &= probe.ready().unwrap_or(false);
    for i in 0..50usize {
        let (lat, lon) = pool[i % pool.len()];
        let got = probe.point_summary(lat, lon).expect("post-recovery query");
        let got = got.map(|s| {
            let mut buf = Vec::new();
            codec::encode_cell_stats(&s, &mut buf);
            buf
        });
        recovered &= got == expected(lat, lon);
    }
    server.shutdown();

    println!("chaos self-test: {total} requests over {threads} threads");
    println!(
        "  worker kills     {} fired / {} hits",
        kills.fired, kills.hits
    );
    println!(
        "  read delays      {} fired / {} hits",
        delays.fired, delays.hits
    );
    println!("  wrong answers    {wrong}");
    println!(
        "  surfaced errors  {errors} ({:.2}%)",
        errors as f64 * 100.0 / total as f64
    );
    println!("  recovered        {recovered}");

    let error_budget = total / 10;
    if wrong == 0 && errors <= error_budget && kills.fired >= 1 && recovered {
        println!("chaos self-test PASSED");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "chaos self-test FAILED (wrong={wrong}, errors={errors}/{error_budget} budget, \
             kills fired={}, recovered={recovered})",
            kills.fired
        );
        ExitCode::FAILURE
    }
}

/// `--connections N` entry point: one open-connection scalability row,
/// either against an external `--addr` server or (self-contained) a
/// spawned serve-only child over a freshly built snapshot. `--min-rps`
/// gates on this row's throughput.
fn run_connection_bench(args: &[String]) -> ExitCode {
    let connections: usize = parse_or(args, "--connections", 0);
    let idle_frac: f64 = parse_or(args, "--idle-frac", 0.95_f64).clamp(0.0, 0.999);
    let threads: usize = parse_or(args, "--threads", 8).max(1);
    let requests: usize = parse_or(args, "--requests", 20_000).max(1);
    let workers: usize = parse_or(args, "--workers", 8);
    let min_rps: Option<f64> = parse_flag(args, "--min-rps").and_then(|v| v.parse().ok());
    let out_path = parse_flag(args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| pol_bench::figures_dir().join("BENCH_serve.json"));

    let mut snap_dir: Option<std::path::PathBuf> = None;
    let result = match parse_flag(args, "--addr") {
        Some(a) => match a.parse() {
            Ok(addr) => run_connection_phase(addr, connections, idle_frac, threads, requests),
            Err(_) => {
                eprintln!("error: cannot parse --addr {a}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use pol_core::codec;
            let scenario = scenario_from(args);
            let resolution = Resolution::new(6).expect("res 6 valid");
            let cfg = PipelineConfig::default().with_resolution(resolution);
            eprintln!(
                "building res-6 inventory ({} vessels, {} days, seed {})...",
                scenario.n_vessels, scenario.duration_days, scenario.seed
            );
            let (_, out) = build_inventory(&scenario, &cfg);
            let dir = std::env::temp_dir().join(format!("polload-conn-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create snapshot dir");
            let v3_path = dir.join("inv.pol3");
            codec::columnar::save(&out.inventory, &v3_path).expect("save POLINV3 snapshot");
            snap_dir = Some(dir);
            drop(out);
            match ServeChild::spawn(&v3_path, workers, ServerConfig::default().max_pending) {
                Ok(child) => {
                    let row =
                        run_connection_phase(child.addr, connections, idle_frac, threads, requests);
                    child.stop();
                    row
                }
                Err(e) => Err(e),
            }
        }
    };
    if let Some(dir) = snap_dir.take() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let row = match result {
        Ok(row) => row,
        Err(e) => {
            eprintln!("error: connection phase failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = [row];
    print_conn_rows(&rows);
    if let Err(e) = write_bench_json(&out_path, threads, "conn-bench", &[], &rows, None, None) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());
    if let Some(min) = min_rps {
        let r = &rows[0];
        if r.rps < min {
            eprintln!(
                "FAILED --min-rps gate: {} connections sustained {:.0} < {min:.0} rps",
                r.connections, r.rps
            );
            return ExitCode::FAILURE;
        }
        println!(
            "--min-rps gate passed: {} connections sustained {:.0} >= {min:.0} rps",
            r.connections, r.rps
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: polload [--addr HOST:PORT] [--threads N] [--requests N] \
             [--vessels N] [--days D] [--seed S] [--workers N] \
             [--batch N] [--min-rps X] [--out FILE]\n       \
             polload --connections N [--idle-frac F] [--addr HOST:PORT] [--min-rps X] ...\n       \
             polload --conn-sweep [--threads N] [--requests N] ...\n       \
             polload --chaos [--threads N] [--requests N] [--vessels N] [--days D] [--seed S]"
        );
        return ExitCode::from(2);
    }
    if parse_flag(&args, "--serve-only").is_some() {
        return run_serve_only(&args);
    }
    if args.iter().any(|a| a == "--chaos") {
        return run_chaos(&args);
    }
    let conn_sweep = args.iter().any(|a| a == "--conn-sweep");
    if parse_or::<usize>(&args, "--connections", 0) > 0 && !conn_sweep {
        return run_connection_bench(&args);
    }
    if conn_sweep && parse_flag(&args, "--addr").is_some() {
        eprintln!("error: --conn-sweep spawns its own servers; drop --addr");
        return ExitCode::FAILURE;
    }
    let threads: usize = parse_or(&args, "--threads", 8).max(1);
    let requests: usize = parse_or(&args, "--requests", 20_000).max(1);
    let batch: usize = parse_or(&args, "--batch", 0).min(pol_serve::MAX_BATCH);
    let min_rps: Option<f64> = parse_flag(&args, "--min-rps").and_then(|v| v.parse().ok());
    let out_path = parse_flag(&args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| pol_bench::figures_dir().join("BENCH_serve.json"));
    // Snapshot the committed results before we overwrite them so the
    // end-of-run comparison has something to compare against.
    let baseline = std::fs::read_to_string(&out_path)
        .map(|t| parse_baseline_rps(&t))
        .unwrap_or_default();

    // Either an external server or a self-contained build-and-serve.
    let mut own_server: Option<Server> = None;
    let mut cold_start: Option<ColdStart> = None;
    let mut snap_dir: Option<std::path::PathBuf> = None;
    let mut store_label = "external".to_string();
    let addr: SocketAddr = match parse_flag(&args, "--addr") {
        Some(a) => match a.parse() {
            Ok(addr) => addr,
            Err(_) => {
                eprintln!("error: cannot parse --addr {a}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            use pol_core::codec;
            let workers: usize = parse_or(&args, "--workers", 8);
            let scenario = scenario_from(&args);
            let resolution = Resolution::new(6).expect("res 6 valid");
            let cfg = PipelineConfig::default().with_resolution(resolution);
            eprintln!(
                "building res-6 inventory ({} vessels, {} days, seed {})...",
                scenario.n_vessels, scenario.duration_days, scenario.seed
            );
            let (_, out) = build_inventory(&scenario, &cfg);
            eprintln!(
                "inventory: {} entries over {} records",
                out.inventory.len(),
                out.inventory.total_records()
            );
            // Write both snapshot formats so cold start can be compared
            // and the POLINV3 file served, exactly like production
            // `polinv migrate` + `polinv serve`.
            let dir = std::env::temp_dir().join(format!("polload-snap-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create snapshot dir");
            let v2_path = dir.join("inv.pol");
            let v3_path = dir.join("inv.pol3");
            codec::save(&out.inventory, &v2_path).expect("save POLINV2 snapshot");
            codec::columnar::save(&out.inventory, &v3_path).expect("save POLINV3 snapshot");
            snap_dir = Some(dir);
            drop(out);

            let server_config = || ServerConfig {
                worker_threads: workers,
                ..ServerConfig::default()
            };
            // Cold start = open snapshot to accepting-connections READY.
            let t = Instant::now();
            let mut v2_server = Server::start_snapshot(&v2_path, "127.0.0.1:0", server_config())
                .expect("POLINV2 server start");
            let v2_heap_ms = t.elapsed().as_secs_f64() * 1e3;
            v2_server.shutdown();
            let t = Instant::now();
            let mmap_server = Server::start_snapshot(&v3_path, "127.0.0.1:0", server_config())
                .expect("mmap server start");
            let v3_mmap_ms = t.elapsed().as_secs_f64() * 1e3;
            eprintln!(
                "cold start (load-to-READY): POLINV2 decode+encode {v2_heap_ms:.1} ms, \
                 POLINV3 mmap {v3_mmap_ms:.1} ms ({:.1}x)",
                v2_heap_ms / v3_mmap_ms.max(1e-9)
            );
            cold_start = Some(ColdStart {
                v2_heap_ms,
                v3_mmap_ms,
            });
            store_label = "mmap".to_string();
            let addr = mmap_server.local_addr();
            own_server = Some(mmap_server);
            addr
        }
    };
    eprintln!(
        "driving {addr} ({store_label} store) with {threads} threads x \
         {requests} point-summary requests"
    );

    let pool = position_pool(addr).expect("position pool");
    let pool = &pool;
    let pick = |tid: usize, i: usize| pool[(tid + i * 31) % pool.len()];

    let mixed = (requests / 10).max(50);
    let mut phases: Vec<PhaseResult> = [
        run_phase(addr, "ping", threads, mixed, 1, |c, _, _| c.ping()),
        // The headline phase: the ≥50k req/s aggregate target.
        run_phase(addr, "point_summary", threads, requests, 1, |c, tid, i| {
            let (lat, lon) = pick(tid, i);
            c.point_summary(lat, lon).map(|_| ())
        }),
        run_phase(addr, "segment_summary", threads, mixed, 1, |c, tid, i| {
            let (lat, lon) = pick(tid, i);
            let seg = MarketSegment::ALL[i % MarketSegment::ALL.len()];
            c.segment_summary(lat, lon, seg).map(|_| ())
        }),
        run_phase(addr, "route_summary", threads, mixed, 1, |c, tid, i| {
            let (lat, lon) = pick(tid, i);
            let seg = MarketSegment::ALL[i % MarketSegment::ALL.len()];
            c.route_summary(lat, lon, (i % 23) as u16, (i % 31) as u16, seg)
                .map(|_| ())
        }),
        run_phase(addr, "bbox_scan", threads, mixed, 1, |c, tid, i| {
            let (lat, lon) = pick(tid, i);
            c.bbox_scan(
                (lat - 1.5).max(-89.9),
                (lon - 1.5).max(-179.9),
                (lat + 1.5).min(89.9),
                (lon + 1.5).min(179.9),
            )
            .map(|_| ())
        }),
        run_phase(
            addr,
            "top_destination_cells",
            threads,
            mixed,
            1,
            |c, _, i| c.top_destination_cells((i % 40) as u16, None).map(|_| ()),
        ),
        run_phase(addr, "eta", threads, mixed, 1, |c, tid, i| {
            let (lat, lon) = pick(tid, i);
            c.eta(lat, lon, None, None).map(|_| ())
        }),
        run_phase(
            addr,
            "predict_destination",
            threads,
            mixed,
            1,
            |c, tid, i| {
                let track: Vec<(f64, f64)> = (0..4).map(|k| pick(tid, i + k)).collect();
                c.predict_destination(None, 3, track).map(|_| ())
            },
        ),
        run_phase(addr, "stats", threads, mixed, 1, |c, _, _| {
            c.stats().map(|_| ())
        }),
    ]
    .into_iter()
    .collect::<Result<_, _>>()
    .expect("load phase failed");

    if batch >= 2 {
        // Batch phases: one frame carries `batch`
        // sub-requests, amortising the per-frame syscall + framing cost.
        // rps counts sub-requests so it is comparable with the
        // single-frame phases above.
        let batched = [
            run_phase(
                addr,
                "point_summary_batch",
                threads,
                (requests / batch).max(50),
                batch,
                |c, tid, i| {
                    let positions: Vec<(f64, f64)> =
                        (0..batch).map(|k| pick(tid, i * batch + k)).collect();
                    c.point_summaries(&positions).map(|_| ())
                },
            ),
            run_phase(
                addr,
                "route_summary_batch",
                threads,
                (requests / batch).max(50),
                batch,
                |c, tid, i| {
                    let positions: Vec<(f64, f64)> =
                        (0..batch).map(|k| pick(tid, i * batch + k)).collect();
                    let seg = MarketSegment::ALL[i % MarketSegment::ALL.len()];
                    c.route_summaries((i % 23) as u16, (i % 31) as u16, seg, &positions)
                        .map(|_| ())
                },
            ),
        ]
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("batch phase failed");
        phases.extend(batched);
    }

    println!(
        "{:<22} {:>9} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "endpoint", "requests", "batch", "rps", "p50_us", "p95_us", "p99_us", "max_us"
    );
    for p in &phases {
        println!(
            "{:<22} {:>9} {:>6} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            p.name, p.requests, p.batch, p.rps, p.p50_us, p.p95_us, p.p99_us, p.max_us
        );
    }
    let point = phases
        .iter()
        .find(|p| p.name == "point_summary")
        .expect("point phase ran");
    println!(
        "aggregate point_summary RPS: {:.0} ({} threads; target >= 50000)",
        point.rps, threads
    );
    print_baseline_comparison(&baseline, &phases);

    // Ask over the wire so the report carries the store name,
    // mapped-store counters, and the streaming-freshness fields
    // (delta_generation / chain_len / since_reload_secs) the service
    // fills in — external servers included, so a post-reload run shows
    // the chain lineage it was answered from.
    let report = Client::connect(addr).and_then(|mut c| c.stats()).ok();
    if let Some(mut server) = own_server.take() {
        let report = report
            .clone()
            .unwrap_or_else(|| server.metrics().snapshot());
        server.shutdown();
        eprintln!("{}", report.render());
    } else if let Some(report) = report {
        eprintln!("{}", report.render());
    }

    // --conn-sweep: with the endpoint server gone (freeing its
    // descriptors), run the open-connection matrix — each cell a fresh
    // serve-only child over the snapshot written above, so the 10k rows
    // split their fd budget across two processes.
    let mut conn_rows: Vec<ConnRow> = Vec::new();
    if conn_sweep {
        let Some(dir) = snap_dir.as_ref() else {
            eprintln!("error: --conn-sweep needs the self-contained mode's snapshot");
            return ExitCode::FAILURE;
        };
        let v3_path = dir.join("inv.pol3");
        let workers: usize = parse_or(&args, "--workers", 8);
        let idle_frac: f64 = parse_or(&args, "--idle-frac", 0.95_f64).clamp(0.0, 0.999);
        for n in [100usize, 1_000, 10_000] {
            let spawned = ServeChild::spawn(&v3_path, workers, ServerConfig::default().max_pending);
            let row = match spawned {
                Ok(child) => {
                    let row = run_connection_phase(child.addr, n, idle_frac, threads, requests);
                    child.stop();
                    row
                }
                Err(e) => Err(e),
            };
            match row {
                Ok(r) => conn_rows.push(r),
                Err(e) => {
                    eprintln!("error: sweep cell {n} failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        print_conn_rows(&conn_rows);
    }
    if let Some(dir) = snap_dir.take() {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Carry the committed top_destination_cells throughput forward as
    // the "before" so the lookup-table speedup stays on record; once a
    // run with the precomputed section is committed, later runs inherit
    // its own "before" field if present.
    let top_dest_before = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|t| {
            let field = "\"top_destination_cells_before_rps\": ";
            t.find(field).map(|at| {
                t[at + field.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect::<String>()
            })
        })
        .and_then(|digits| digits.parse::<f64>().ok())
        .or_else(|| {
            baseline
                .iter()
                .find(|(n, _)| n == "top_destination_cells")
                .map(|(_, rps)| *rps)
        });
    if let Err(e) = write_bench_json(
        &out_path,
        threads,
        &store_label,
        &phases,
        &conn_rows,
        cold_start.as_ref(),
        top_dest_before,
    ) {
        eprintln!("error: cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());

    if let Some(min) = min_rps {
        let gate_name = if batch >= 2 {
            "route_summary_batch"
        } else {
            "point_summary"
        };
        let gate = phases
            .iter()
            .find(|p| p.name == gate_name)
            .expect("gate phase ran");
        if gate.rps < min {
            eprintln!(
                "FAILED --min-rps gate: {gate_name} {:.0} < {min:.0} rps",
                gate.rps
            );
            return ExitCode::FAILURE;
        }
        println!(
            "--min-rps gate passed: {gate_name} {:.0} >= {min:.0} rps",
            gate.rps
        );
    }
    ExitCode::SUCCESS
}
