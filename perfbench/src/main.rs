//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload build|ingest|serve_lookup
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates its inputs with `fleetsim` from the seed, runs one workload
//! through the program's public API for about `S` seconds, checks every
//! output against an oracle, and prints each metric by name with its
//! unit and sample count. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` is the traced run and
//! reports the per-layer metrics. A failed check exits with code 1 and
//! prints no result line. See `perfbench/README.md`.

#[global_allocator]
static ALLOC: heap::PeakAlloc = heap::PeakAlloc;

mod build;
mod check;
mod heap;
mod ingest;
mod report;
mod serve;
mod stats;
mod trace;

use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::ScenarioConfig;
use report::Metrics;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Scratch space for journals, snapshots and span dumps, relative to the
/// checkout the benchmark runs from.
const WORK_DIR: &str = "perfbench/work";

/// The per-layer metrics every traced run reports, with units. A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.radix_merge_ms", "ms"),
    ("engine.shuffled_records", "count"),
    ("engine.task_skew", "ratio"),
    ("core.scan_enrich_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.aggregate_ms", "ms"),
    ("core.allocs", "count"),
    ("core.alloc_bytes", "bytes"),
    ("codec.save_ms", "ms"),
    ("codec.snapshot_bytes", "bytes"),
    ("stream.push_p50_us", "us"),
    ("stream.push_tail_us", "us"),
    ("stream.apply_p50_us", "us"),
    ("stream.apply_tail_us", "us"),
    ("stream.nowal_records_per_s", "1/s"),
    ("stream.checkpoint_ms", "ms"),
    ("stream.checkpoints", "count"),
    ("stream.checkpoint_bytes", "bytes"),
    ("stream.checkpoint_gap_share", "fraction"),
    ("stream.wal_bytes_per_record", "bytes"),
    ("stream.window_fold_ms", "ms"),
    ("stream.publish_ms", "ms"),
    ("stream.close_ms", "ms"),
    ("stream.freshness_ms", "ms"),
    ("stream.recover_ms", "ms"),
    ("stream.records_replayed", "count"),
    ("stream.segments_read", "count"),
    ("stream.buffered_peak", "count"),
    ("serve.rtt_us.point_summary", "us"),
    ("serve.rtt_us.segment_summary", "us"),
    ("serve.rtt_us.route_summary", "us"),
    ("serve.rtt_us.eta", "us"),
    ("serve.rtt_us.predict_destination", "us"),
    ("serve.execute_us.point_summary", "us"),
    ("serve.execute_us.segment_summary", "us"),
    ("serve.execute_us.route_summary", "us"),
    ("serve.execute_us.eta", "us"),
    ("serve.execute_us.predict_destination", "us"),
    ("serve.rtt_p50_us", "us"),
    ("serve.latency_tail_us", "us"),
    ("serve.execute_p50_us", "us"),
    ("serve.proto_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.ready_events_per_req", "ratio"),
    ("serve.wakeups_per_req", "ratio"),
    ("serve.busy_frac", "fraction"),
    ("serve.mapped_lookups_per_req", "ratio"),
    ("serve.open_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("gen.achieved_rps", "1/s"),
    ("trace.overhead_pct", "%"),
    ("coverage.attributed_share", "fraction"),
    ("layer.bench.self_ms", "ms"),
    ("layer.engine.self_ms", "ms"),
    ("layer.core.self_ms", "ms"),
    ("layer.codec.self_ms", "ms"),
    ("layer.stream.self_ms", "ms"),
    ("layer.serve.self_ms", "ms"),
    ("layer.apps.self_ms", "ms"),
];

/// Everything a workload needs from the command line and the machine.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Usable cores: the ceiling on load threads and connections.
    pub nproc: usize,
    /// This run's scratch directory.
    pub dir: PathBuf,
    /// Environment facts the workload adds to the result.
    pub env: BTreeMap<&'static str, String>,
}

impl Ctx {
    /// Refuses a load of more threads or connections than `nproc`.
    pub fn guard_load(&self, what: &str, n: usize) -> Result<usize, String> {
        guard_load(what, n, self.nproc)
    }

    /// Records an environment fact.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.env.insert(key, value.to_string());
    }
}

/// The scenario of a run: `vessels` vessels over `days` days at the
/// standard experiment density. The fleet and its voyage plan are fixed
/// (drawn from `pol_bench::TRAIN_SEED`); the run's seed draws the
/// emission noise around them — GPS error and report dropout — so two
/// seeds give different reports that hold the same amount of work. A
/// seed-drawn fleet changes the inventory's size, and with it every
/// timing, by more than a run-to-run bound can absorb.
pub fn scenario(seed: u64, vessels: usize, days: u32) -> ScenarioConfig {
    let base = pol_bench::experiment_scenario(pol_bench::TRAIN_SEED);
    let mut rng = pol_fleetsim::Rng::new(seed);
    ScenarioConfig {
        n_vessels: vessels,
        duration_days: days,
        emission: EmissionConfig {
            gps_noise_m: rng.range(15.0, 45.0),
            dropout: rng.range(0.03, 0.07),
            ..base.emission
        },
        ..base
    }
}

/// The load ceiling check behind [`Ctx::guard_load`].
pub fn guard_load(what: &str, n: usize, nproc: usize) -> Result<usize, String> {
    if n == 0 || n > nproc {
        return Err(format!(
            "refusing a load of {n} {what}: this machine has {nproc} cores"
        ));
    }
    Ok(n)
}

/// What a workload hands back: its metrics and operation counts.
pub struct Outcome {
    /// Metrics, end-to-end or per-layer depending on the run.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).cloned()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload").unwrap_or_default();
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    let seconds = flag(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
    let trace = flag(&args, "--trace").unwrap_or_else(|| "0".into());
    let (Some(seed), Some(seconds)) = (seed, seconds) else {
        eprintln!(
            "usage: perfbench --workload build|ingest|serve_lookup --seed N --seconds S --trace 0|1"
        );
        return ExitCode::from(2);
    };
    if !(trace == "0" || trace == "1") || !(seconds > 0.0 && seconds <= 600.0) {
        eprintln!("error: --trace takes 0 or 1 and --seconds a number in (0, 600]");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        traced: trace == "1",
        nproc,
        dir: dir.clone(),
        env: BTreeMap::new(),
    };
    ctx.note("workload", &workload);
    ctx.note("seed", seed);
    ctx.note("seconds", seconds);
    ctx.note("traced", ctx.traced);
    ctx.note("nproc", nproc);
    ctx.note("kernel", report::kernel());
    ctx.note("work_dir_fs", report::fs_type(&dir));
    ctx.note("commit", report::commit());

    let result = match workload.as_str() {
        "build" => build::run(&mut ctx),
        "ingest" => ingest::run(&mut ctx),
        "serve_lookup" => serve::run(&mut ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    std::fs::remove_dir_all(&dir).ok();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("FAILED [{workload}]: {e}");
            return ExitCode::FAILURE;
        }
    };

    let env: Vec<String> = ctx
        .env
        .iter()
        .map(|(k, v)| format!("{}: {}", report::json_str(k), report::json_str(v)))
        .collect();
    println!("env {{{}}}", env.join(", "));
    let mut metrics = Metrics::default();
    let names: Vec<(&str, &str)> = if ctx.traced {
        PER_LAYER.to_vec()
    } else {
        report::END_TO_END.to_vec()
    };
    for (name, unit) in names {
        let (value, n) = outcome
            .metrics
            .get(name)
            .map_or((0.0, 0), |m| (m.value, m.n));
        if !ctx.traced && (value <= 0.0 || value.is_nan()) {
            eprintln!("FAILED [{workload}]: end-to-end metric {name} was not measured");
            return ExitCode::FAILURE;
        }
        println!("metric {name} = {value} {unit} (n={n})");
        metrics.set(name, value, unit, n);
    }
    println!(
        "{}",
        report::result_line(true, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_beyond_nproc_are_refused() {
        assert_eq!(guard_load("connections", 2, 2), Ok(2));
        assert!(guard_load("connections", 3, 2).is_err());
        assert!(guard_load("threads", 0, 2).is_err());
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
