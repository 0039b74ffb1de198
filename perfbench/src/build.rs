//! `build`: the paper's batch pipeline. A scenario at the standard
//! experiment density goes through `pol_core::run_fused` on an engine of
//! `nproc` threads, then `codec::columnar::save`. Exercises `engine`,
//! `core` and `codec`; none of `stream` or `serve`.

use crate::check::same_bytes;
use crate::heap;
use crate::report::Metrics;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use pol_bench::alloc;
use pol_core::codec::columnar;
use pol_core::{run_fused, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::scenario::generate;
use std::time::{Duration, Instant};

/// Scenario size: the standard experiment density, fewer vessels and
/// days so one build takes a fraction of a second and a run holds many.
pub const VESSELS: usize = 60;
/// Simulated days.
pub const DAYS: u32 = 7;
/// Engine creations timed for `setup_s` before the first build and again
/// before every later one. One takes tens of microseconds, so its median
/// is taken over many, spread across the run rather than bunched at its
/// start, so that one moment of host interference does not set it.
const SETUP_REPEATS: usize = 25;
/// Builds every run makes, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 5;

/// One timed build.
struct Iteration {
    wall: Duration,
    save: Duration,
    stages: Vec<(String, Duration, u64)>,
    task_skew: f64,
    allocs: alloc::AllocSnapshot,
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let threads = ctx.guard_load("engine threads", ctx.nproc)?;
    let ds = generate(&crate::scenario(ctx.seed, VESSELS, DAYS));
    let raw = ds.total_reports() as u64;
    let cfg = PipelineConfig::default();
    let ports = pol_bench::port_sites(cfg.port_radius_km);
    ctx.note(
        "scenario",
        format!("{VESSELS} vessels x {DAYS} days, {raw} reports"),
    );
    ctx.note("engine_threads", threads);

    // The staged executor is the byte-identity oracle; it runs on its own
    // engine, outside the timed region.
    let oracle = {
        let engine = Engine::new(threads);
        let out = pol_core::run(&engine, ds.positions.clone(), &ds.statics, &ports, &cfg)
            .map_err(|e| format!("staged oracle failed: {e}"))?;
        columnar::to_bytes(&out.inventory)
    };

    let heap_base = heap::reset_peak();
    let mut setups = Vec::new();
    let time_setups = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let e = Engine::new(threads);
            setups.push(t.elapsed().as_secs_f64());
            drop(e);
        }
    };
    time_setups(&mut setups);
    let engine = Engine::new(threads);

    let path = ctx.dir.join("inventory.polinv3");
    let tracer = Tracer::new();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let deadline = Instant::now() + ctx.seconds;
    let mut i = 0u64;
    while (i as usize) < MIN_ITERATIONS || Instant::now() < deadline {
        // The traced run alternates plain and traced builds, so the
        // tracing overhead is measured within one process.
        let trace_this = ctx.traced && i % 2 == 1;
        if i > 0 {
            time_setups(&mut setups);
        }
        let input = ds.positions.clone();
        engine.metrics().clear();
        let root = if trace_this {
            tracer.open(0, "bench", "build")
        } else {
            0
        };
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let out = run_fused(&engine, input, &ds.statics, &ports, &cfg)
            .map_err(|e| format!("run_fused failed: {e}"))?;
        let t1 = Instant::now();
        let a1 = alloc::snapshot();
        columnar::save(&out.inventory, &path).map_err(|e| format!("save failed: {e}"))?;
        let t2 = Instant::now();
        drop(out);
        let mut it = Iteration {
            wall: t2 - t0,
            save: t2 - t1,
            stages: Vec::new(),
            task_skew: 0.0,
            allocs: a1.since(a0),
        };
        if trace_this {
            let fused = tracer.record(root, "core", "run_fused", i, t0, t1);
            tracer.record(root, "codec", "columnar::save", i, t1, t2);
            it.stages = engine
                .metrics()
                .report()
                .into_iter()
                .map(|s| (s.name, s.wall, s.shuffled_records))
                .collect();
            it.task_skew = task_skew(&engine, "fused:build");
            // The engine reports stage durations, not timestamps: its
            // radix merge is laid at the end of the aggregate stage,
            // which closes run_fused.
            if let Some((_, merge, _)) = it.stages.iter().find(|s| s.0.ends_with(":radix-merge")) {
                tracer.record(fused, "engine", "radix-merge", i, t1 - *merge, t1);
            }
            tracer.close(root);
        }
        let written = std::fs::read(&path).map_err(|e| format!("read back: {e}"))?;
        same_bytes("saved inventory", &oracle, &written)?;
        if trace_this {
            traced.push(it);
        } else {
            plain.push(it);
        }
        i += 1;
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let walls_ms: Vec<f64> = plain.iter().map(|it| ms(it.wall)).collect();
    let wall = Summary::of(&walls_ms).ok_or("no builds")?;
    // Best of N: the host's stolen time only ever lengthens a build, so
    // the fastest build of a run is the steadiest figure of its cost.
    let best_ms = walls_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let records_per_s = raw as f64 / (best_ms / 1e3);
    let setup = Summary::of(&setups).ok_or("no setups")?;
    println!(
        "build: {raw} reports, {} builds byte-identical to the staged oracle",
        plain.len() + traced.len()
    );
    println!(
        "  records_per_s  {records_per_s:.0} rec/s, best of {} builds",
        wall.n
    );
    println!(
        "  build wall     best {best_ms:.2} ms, p50 {:.2} ms, p{:.0} {:.2} ms (n={})",
        wall.p50, wall.tail_pct, wall.tail, wall.n
    );
    println!(
        "  setup_s        {:.6} s median engine creation (n={})",
        setup.p50, setup.n
    );

    let mut m = Metrics::default();
    let attempted = i;
    if !ctx.traced {
        m.set("setup_s", setup.p50, "s", setup.n);
        m.set("peak_heap_mb", heap::peak_mb() - heap_base, "MB", 1);
        m.set("throughput_per_s", records_per_s, "1/s", wall.n);
        m.set("latency_ms", best_ms, "ms", wall.n);
        return Ok(Outcome {
            metrics: m,
            attempted,
            failed: 0,
        });
    }

    let n = traced.len();
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        median(&traced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let stage_ms = |it: &Iteration, suffix: &str| {
        it.stages
            .iter()
            .find(|s| s.0 == suffix)
            .map_or(0.0, |s| ms(s.1))
    };
    let scan = med(&|it| stage_ms(it, "fused:scan-enrich"));
    let buildm = med(&|it| stage_ms(it, "fused:build"));
    let agg = med(&|it| stage_ms(it, "fused:aggregate"));
    let merge = med(&|it| stage_ms(it, "fused:aggregate:radix-merge"));
    let save = med(&|it| ms(it.save));
    let traced_wall = med(&|it| ms(it.wall));
    let plain_wall = wall.p50;
    m.set("engine.radix_merge_ms", merge, "ms", n);
    m.set(
        "engine.shuffled_records",
        med(&|it| it.stages.iter().map(|s| s.2 as f64).sum()),
        "count",
        n,
    );
    m.set("engine.task_skew", med(&|it| it.task_skew), "ratio", n);
    m.set("core.scan_enrich_ms", scan, "ms", n);
    m.set("core.build_ms", buildm, "ms", n);
    m.set("core.aggregate_ms", agg, "ms", n);
    m.set(
        "core.allocs",
        med(&|it| it.allocs.allocs as f64),
        "count",
        n,
    );
    m.set(
        "core.alloc_bytes",
        med(&|it| it.allocs.bytes as f64),
        "bytes",
        n,
    );
    m.set("codec.save_ms", save, "ms", n);
    m.set("codec.snapshot_bytes", oracle.len() as f64, "bytes", 1);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_wall - plain_wall) / plain_wall,
        "%",
        n,
    );
    let staged_sum = scan + buildm + agg + save;
    m.set(
        "coverage.attributed_share",
        staged_sum / traced_wall,
        "fraction",
        n,
    );
    for (layer, total) in tracer.self_times_ms() {
        m.set(format!("layer.{layer}.self_ms"), total / n as f64, "ms", n);
    }
    println!(
        "  coverage build: scan-enrich {scan:.2} + build {buildm:.2} + aggregate {agg:.2} \
         (radix-merge {merge:.2}) + save {save:.2} = {staged_sum:.2} ms of {traced_wall:.2} ms \
         wall ({:.1}%)",
        100.0 * staged_sum / traced_wall
    );
    println!(
        "  tracing overhead: traced build p50 {traced_wall:.2} ms vs untraced {plain_wall:.2} ms"
    );
    if let Err(e) = tracer.write_jsonl(&ctx.dir.with_file_name("trace-build.jsonl")) {
        eprintln!("warning: cannot write spans: {e}");
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed: 0,
    })
}

/// Max over mean task wall time within one engine stage.
fn task_skew(engine: &Engine, stage: &str) -> f64 {
    let walls: Vec<f64> = engine
        .metrics()
        .task_profiles()
        .into_iter()
        .filter(|t| t.stage == stage)
        .map(|t| t.wall.as_secs_f64())
        .collect();
    let mean = walls.iter().sum::<f64>() / walls.len().max(1) as f64;
    let max = walls.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}
