//! `serve_lookup`: an open loop at a fixed offered rate against an
//! in-process `Server` started from a POLINV3 file with
//! `ServerConfig::default()` (reactor core) and `worker_threads = nproc`.
//! It sends point, segment and route summaries at positions drawn from
//! occupied cells, skewed toward busy ones, plus one request in eight to
//! the `apps` estimators. Execution is O(1), so the reactor, `proto` and
//! the pool hop dominate.
//!
//! Each run: set-up (`setup_s`), an untimed warm-up, the fixed-rate
//! phase (`latency_ms`, `peak_heap_mb`), a pipelined closed loop
//! (`throughput_per_s`) and the ladder (`max_rps_at_slo`, printed) — or,
//! in the traced run, a traced fixed-rate phase and the in-process
//! attribution passes. Every response is compared
//! byte for byte with the in-process reference answer
//! (`InventoryService::execute` over the same file).

use crate::check::{self, Verdict};
use crate::heap;
use crate::report::Metrics;
use crate::stats::{median, open_loop, quantile, OpenLoopRun, Shot, Summary};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use pol_ais::types::MarketSegment;
use pol_core::codec::columnar;
use pol_core::features::GroupKey;
use pol_core::{run_fused, Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::scenario::generate;
use pol_fleetsim::Rng;
use pol_hexgrid::grid::cell_center;
use pol_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use pol_serve::{Client, InventoryService, Request, Server, ServerConfig, ServerMetrics};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inventory scenario size (standard experiment density).
pub const VESSELS: usize = 120;
/// Simulated days.
pub const DAYS: u32 = 7;
/// Distinct requests generated per run; the schedule cycles through them.
const POOL: usize = 4096;
/// Positions in a destination-prediction track.
const TRACK: usize = 24;
/// Requests each connection keeps in flight in the pipelined loop; the
/// server's admission queue (64) holds those of every connection.
const PIPELINE_DEPTH: usize = 8;
/// Server starts timed for `setup_s`.
const SETUP_REPEATS: usize = 7;
/// Offered rate of the fixed-rate phase, requests per second.
const FIXED_RATE: f64 = 4000.0;
/// p99 latency limit for `max_rps_at_slo`, microseconds.
pub const SLO_US: f64 = 5_000.0;
/// Window of the fixed-rate phase over which each tail is taken; the
/// reported tail is the median over windows. Each window holds 1000
/// requests.
const WINDOW: Duration = Duration::from_millis(250);
/// The lowest ladder rung, requests per second.
const LADDER_BASE: f64 = 500.0;
/// Ladder rungs grow by this factor.
const LADDER_STEP: f64 = 1.07;
/// Rungs on the ladder.
const LADDER_RUNGS: u32 = 72;
/// Endpoints the mix sends.
const ENDPOINTS: [&str; 5] = [
    "point_summary",
    "segment_summary",
    "route_summary",
    "eta",
    "predict_destination",
];

/// The generated requests with their wire frames and reference answers.
struct Pool {
    requests: Vec<Request>,
    frames: Vec<Vec<u8>>,
    want: Vec<Vec<u8>>,
}

impl Pool {
    fn index(&self, seq: u64) -> usize {
        (seq % self.requests.len() as u64) as usize
    }
}

/// Shared state of one load phase.
struct Phase<'a> {
    pool: &'a Pool,
    addr: SocketAddr,
    wrong: AtomicU64,
    tracer: Option<&'a Tracer>,
}

impl Phase<'_> {
    /// One request on a lane's connection: send, read, check.
    fn send(&self, conn: &mut TcpStream, seq: u64) -> bool {
        let idx = self.pool.index(seq);
        let sent = Instant::now();
        let reply = conn
            .write_all(&self.pool.frames[idx])
            .map_err(|_| ())
            .and_then(|()| read_frame(conn, usize::MAX >> 1).map_err(|_| ()));
        let done = Instant::now();
        if let Some(tr) = self.tracer {
            tr.record(0, "serve", "rtt", seq, sent, done);
        }
        reply.is_ok_and(|payload| self.check(seq, &payload))
    }

    /// Checks the reply to request `seq`; counts a wrong answer.
    fn check(&self, seq: u64, payload: &[u8]) -> bool {
        match check::response(&self.pool.want[self.pool.index(seq)], payload) {
            Verdict::Correct => true,
            Verdict::Refused => false,
            Verdict::Wrong => {
                self.wrong.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let lanes = ctx.guard_load("connections", ctx.nproc)?;
    let config = ServerConfig {
        worker_threads: ctx.nproc,
        ..ServerConfig::default()
    };
    ctx.note("server_config", format!("{config:?}"));
    ctx.note("connections", lanes);
    ctx.note("fixed_rate_rps", FIXED_RATE);
    ctx.note("slo_p99_us", SLO_US);

    // Inputs: the inventory as a POLINV3 file, and the request pool with
    // its reference answers.
    let inventory = build_inventory(ctx)?;
    let v3 = ctx.dir.join("inventory.polinv3");
    columnar::save(&inventory, &v3).map_err(|e| format!("save snapshot: {e}"))?;
    let reference = InventoryService::open_snapshot(&v3, &config, Arc::new(ServerMetrics::new()))
        .map_err(|e| format!("open reference: {e}"))?;
    let pool = make_pool(&inventory, ctx.seed, &reference);
    drop(inventory);

    let secs = ctx.seconds.as_secs_f64();
    let fixed_n = (FIXED_RATE * secs * 0.4) as u64;
    let warm_n = (FIXED_RATE * secs * 0.05) as u64;
    // The generator's request log exists before the heap peak starts, so
    // `peak_heap_mb` counts the server and not the benchmark's bookkeeping.
    let log: Vec<Shot> = Vec::with_capacity(fixed_n.max(warm_n) as usize);

    let heap_base = heap::reset_peak();
    // setup_s: start_snapshot to READY, repeatedly; the last one serves.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut s) = server.take() {
            Server::shutdown(&mut s);
        }
        let t = Instant::now();
        let s = Server::start_snapshot(&v3, "127.0.0.1:0", config)
            .map_err(|e| format!("start server: {e}"))?;
        wait_ready(s.local_addr())?;
        setups.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let mut server = server.ok_or("no server")?;
    let addr = server.local_addr();
    let setup = Summary::of(&setups).ok_or("no setups")?;

    let mut m = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut wrong = 0u64;
    let mut tally = |run: &OpenLoopRun, w: u64| {
        attempted += run.shots.len() as u64;
        failed += run.failed() as u64;
        wrong += w;
    };

    // Warm-up, untimed: fault in the mapped snapshot.
    let (warm, w) = phase(&pool, addr, lanes, FIXED_RATE, warm_n, log, None)?;
    tally(&warm, w);
    let (fixed, w) = phase(&pool, addr, lanes, FIXED_RATE, fixed_n, warm.shots, None)?;
    // Before any analysis allocates: the peak covers set-up, warm-up and
    // the fixed-rate phase.
    let heap_peak = heap::peak_mb() - heap_base;
    tally(&fixed, w);
    let lat = Summary::of(&fixed.latencies_us()).ok_or("no successful requests")?;
    // The latency reported is the lower quartile of the windows' medians:
    // a burst of time stolen by the host lifts the windows it hits, and up
    // to three quarters of them may be hit without moving the figure.
    let window_p50s: Vec<f64> = fixed.windows(WINDOW).iter().map(|w| w.p50).collect();
    let p50_us = quantile(&window_p50s, 0.25).ok_or("no successful requests")?;
    let tail_us = fixed
        .windowed_tail_us(WINDOW)
        .ok_or("no successful requests")?;
    let late = Summary::of(&fixed.lateness_us()).ok_or("no requests")?;
    println!(
        "serve_lookup: {} requests at {FIXED_RATE:.0} rps offered over {lanes} connections, \
         every answer checked",
        fixed.shots.len(),
    );
    println!(
        "  p50_us {p50_us:.1} (lower quartile of {} windows of {} ms; {:.1} over all)  \
         p{:.1}_us {:.1}  windowed tail {tail_us:.1} us  (n={}, from due time)",
        window_p50s.len(),
        WINDOW.as_millis(),
        lat.p50,
        lat.tail_pct,
        lat.tail,
        lat.n
    );
    println!(
        "  error_rate {:.6} ({} of {})",
        fixed.failed() as f64 / fixed.shots.len().max(1) as f64,
        fixed.failed(),
        fixed.shots.len()
    );
    println!(
        "  generator: achieved {:.0} rps, lateness p50 {:.1} us p{:.1} {:.1} us",
        fixed.achieved_rps(),
        late.p50,
        late.tail_pct,
        late.tail
    );
    println!(
        "  setup_s {:.6} s median start_snapshot to READY (n={})",
        setup.p50, setup.n
    );
    println!("  peak_heap_mb {heap_peak:.4} MB above the pre-server heap");
    let log = fixed.shots;

    if !ctx.traced {
        // Throughput: a pipelined closed loop over the same number of
        // connections, the upper quartile of its windows' rates for the
        // same reason.
        let state = Phase {
            pool: &pool,
            addr,
            wrong: AtomicU64::new(0),
            tracer: None,
        };
        let closed = pipelined_loop(&state, lanes, Duration::from_secs_f64(secs * 0.2))?;
        tally(&closed, state.wrong.load(Ordering::Relaxed));
        let rates = closed.window_rates(WINDOW);
        let rps = quantile(&rates, 0.75).ok_or("closed loop shorter than a window")?;
        println!(
            "  closed loop: {} requests over {lanes} connections, {rps:.0} rps (upper quartile of \
             {} windows of {} ms; median {:.0})",
            closed.shots.len(),
            rates.len(),
            WINDOW.as_millis(),
            median(&rates).unwrap_or(0.0),
        );
        let max_rps = ladder(&pool, addr, lanes, secs * 0.25 / 8.0, log, &mut tally)?;
        match max_rps {
            Some((rung, rps)) => {
                println!("  max_rps_at_slo {rps:.0} req/s (rung {rung}, p99 <= {SLO_US} us)")
            }
            None => println!("  max_rps_at_slo: no rung met p99 <= {SLO_US} us"),
        }
        server.shutdown();
        verdict(wrong)?;
        m.set("setup_s", setup.p50, "s", setup.n);
        m.set("peak_heap_mb", heap_peak, "MB", 1);
        m.set("throughput_per_s", rps, "1/s", rates.len());
        m.set("latency_ms", p50_us / 1e3, "ms", lat.n);
        return Ok(Outcome {
            metrics: m,
            attempted,
            failed,
        });
    }

    // Traced run: a second fixed-rate phase with live spans, then the
    // in-process passes over the requests it sent.
    let tracer = Tracer::new();
    let before = server.metrics().snapshot();
    let (traced, w) = phase(&pool, addr, lanes, FIXED_RATE, fixed_n, log, Some(&tracer))?;
    tally(&traced, w);
    let after = server.metrics().snapshot();
    server.shutdown();
    verdict(wrong)?;
    let traced_lat = Summary::of(&traced.latencies_us()).ok_or("no traced requests")?;

    let t_open = Instant::now();
    let service = InventoryService::open_snapshot(&v3, &config, Arc::new(ServerMetrics::new()))
        .map_err(|e| format!("open snapshot: {e}"))?;
    let open_ms = t_open.elapsed().as_secs_f64() * 1e3;
    let mapped0 = service.store().mapped_counters().unwrap_or_default();
    let rtt_spans = tracer.spans();
    let mut per_ep: std::collections::BTreeMap<&str, (Vec<f64>, Vec<f64>)> = Default::default();
    let (mut rtt_all, mut exec_all, mut proto_all) = (Vec::new(), Vec::new(), Vec::new());
    for span in &rtt_spans {
        let req = &pool.requests[pool.index(span.request)];
        let rtt_us = (span.end_ns - span.start_ns) as f64 / 1e3;
        // Execute, then the four codec calls of one exchange, each
        // timed in-process and placed inside the request's RTT span.
        let t0 = Instant::now();
        let resp = service.execute(req);
        let t1 = Instant::now();
        let payload = encode_request(req);
        let decoded = decode_request(&payload).map_err(|e| format!("decode_request: {e}"))?;
        let bytes = encode_response(&resp);
        let back = decode_response(&bytes).map_err(|e| format!("decode_response: {e}"))?;
        let t2 = Instant::now();
        std::hint::black_box((decoded, back));
        let ep = req.endpoint();
        let layer = if matches!(ep.name(), "eta" | "predict_destination") {
            "apps"
        } else {
            "serve"
        };
        let exec_ns = (t1 - t0).as_nanos() as u64;
        let proto_ns = (t2 - t1).as_nanos() as u64;
        let s0 = span.start_ns;
        tracer.record_ns(span.id, layer, "execute", span.request, s0, s0 + exec_ns);
        let s1 = s0 + exec_ns;
        tracer.record_ns(span.id, "serve", "proto", span.request, s1, s1 + proto_ns);
        let exec_us = (t1 - t0).as_secs_f64() * 1e6;
        let e = per_ep.entry(ep.name()).or_default();
        e.0.push(rtt_us);
        e.1.push(exec_us);
        rtt_all.push(rtt_us);
        exec_all.push(exec_us);
        proto_all.push((t2 - t1).as_secs_f64() * 1e6);
    }
    let mapped1 = service.store().mapped_counters().unwrap_or_default();
    let n = rtt_all.len().max(1);
    let rtt = Summary::of(&rtt_all).ok_or("no spans")?;
    let exec = Summary::of(&exec_all).ok_or("no spans")?;
    let proto = Summary::of(&proto_all).ok_or("no spans")?;
    let unattributed = rtt.p50 - exec.p50 - proto.p50;
    for ep in ENDPOINTS {
        if let Some((r, e)) = per_ep.get(ep) {
            let (r, e) = (Summary::of(r), Summary::of(e));
            if let (Some(r), Some(e)) = (r, e) {
                m.set(format!("serve.rtt_us.{ep}"), r.p50, "us", r.n);
                m.set(format!("serve.execute_us.{ep}"), e.p50, "us", e.n);
                println!(
                    "  {ep:<22} rtt p50 {:.1} us p{:.1} {:.1} us, execute p50 {:.2} us (n={})",
                    r.p50, r.tail_pct, r.tail, e.p50, r.n
                );
            }
        }
    }
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let served = d(after.total_requests, before.total_requests).max(1.0);
    m.set("serve.rtt_p50_us", rtt.p50, "us", rtt.n);
    m.set(
        "serve.latency_tail_us",
        traced.windowed_tail_us(WINDOW).unwrap_or(0.0),
        "us",
        traced_lat.n,
    );
    m.set("serve.execute_p50_us", exec.p50, "us", exec.n);
    m.set("serve.proto_us", proto.p50, "us", proto.n);
    m.set("serve.unattributed_us", unattributed, "us", rtt.n);
    m.set(
        "serve.ready_events_per_req",
        d(after.ready_events, before.ready_events) / served,
        "ratio",
        served as usize,
    );
    m.set(
        "serve.wakeups_per_req",
        d(after.wakeups, before.wakeups) / served,
        "ratio",
        served as usize,
    );
    m.set(
        "serve.busy_frac",
        traced.failed() as f64 / traced.shots.len().max(1) as f64,
        "fraction",
        traced.shots.len(),
    );
    m.set(
        "serve.mapped_lookups_per_req",
        d(mapped1.lookups, mapped0.lookups) / n as f64,
        "ratio",
        n,
    );
    m.set("serve.open_ms", open_ms, "ms", 1);
    let tlate = Summary::of(&traced.lateness_us()).ok_or("no requests")?;
    m.set("gen.late_p99_us", tlate.tail, "us", tlate.n);
    m.set(
        "gen.achieved_rps",
        traced.achieved_rps(),
        "1/s",
        traced.shots.len(),
    );
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_lat.p50 - lat.p50) / lat.p50,
        "%",
        traced_lat.n,
    );
    m.set(
        "coverage.attributed_share",
        (exec.p50 + proto.p50) / rtt.p50,
        "fraction",
        rtt.n,
    );
    for (layer, total) in tracer.self_times_ms() {
        m.set(format!("layer.{layer}.self_ms"), total / n as f64, "ms", n);
    }
    println!(
        "  coverage serve_lookup: proto {:.2} + execute {:.2} + unattributed {:.2} = rtt p50 \
         {:.2} us (attributed {:.1}%)",
        proto.p50,
        exec.p50,
        unattributed,
        rtt.p50,
        100.0 * (exec.p50 + proto.p50) / rtt.p50
    );
    println!(
        "  tracing overhead: traced p50 {:.1} us vs untraced {:.1} us",
        traced_lat.p50, lat.p50
    );
    if let Err(e) = tracer.write_jsonl(&ctx.dir.with_file_name("trace-serve_lookup.jsonl")) {
        eprintln!("warning: cannot write spans: {e}");
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// The ladder: the highest rung whose p99 stays under [`SLO_US`] without
/// a growing backlog, found by bisection over the rungs, each probed for
/// `probe_secs`. A rung that misses is probed once more before it counts
/// as missed, so one burst of interference does not end the climb.
/// Returns the rung and its achieved rate, or `None` when no rung met the
/// limit.
fn ladder(
    pool: &Pool,
    addr: SocketAddr,
    lanes: usize,
    probe_secs: f64,
    mut log: Vec<Shot>,
    tally: &mut impl FnMut(&OpenLoopRun, u64),
) -> Result<Option<(u32, f64)>, String> {
    let window = Duration::from_secs_f64(probe_secs / 3.0);
    let mut lo = None;
    let (mut a, mut b) = (0u32, LADDER_RUNGS);
    while a < b {
        let k = (a + b) / 2;
        let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
        let n = ((rate * probe_secs) as u64).max(400);
        let mut met = None;
        for _ in 0..2 {
            let (run, w) = phase(pool, addr, lanes, rate, n, log, None)?;
            tally(&run, w);
            let tail = run.windowed_tail_us(window).unwrap_or(f64::INFINITY);
            let backlog = run.backlog_grew(window, SLO_US);
            let pass = run.failed() == 0 && tail <= SLO_US && !backlog;
            println!(
                "  ladder rung {k} ({rate:.0} rps offered): achieved {:.0} rps, windowed tail \
                 {tail:.0} us{}, {}",
                run.achieved_rps(),
                if backlog { ", backlog growing" } else { "" },
                if pass {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            let achieved = run.achieved_rps();
            log = run.shots;
            if pass {
                met = Some(achieved);
                break;
            }
        }
        match met {
            Some(achieved) => {
                lo = Some((k, achieved));
                a = k + 1;
            }
            None => b = k,
        }
    }
    Ok(lo)
}

/// A closed loop with [`PIPELINE_DEPTH`] requests in flight on each of
/// `lanes` connections: a lane sends until that many await replies, then
/// reads one and sends the next, until `duration` has passed. The server,
/// not the round trip, sets the pace. Shots are in lane order, timed from
/// their send.
fn pipelined_loop(state: &Phase, lanes: usize, duration: Duration) -> Result<OpenLoopRun, String> {
    let mut conns = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        conns.push(connect(state.addr)?);
    }
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let per_lane: Vec<Vec<Shot>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, mut conn)| {
                scope.spawn(move || {
                    let mut shots = Vec::new();
                    let mut in_flight = std::collections::VecDeque::new();
                    let mut seq = lane as u64;
                    loop {
                        let open = start.elapsed() < duration;
                        while open && in_flight.len() < PIPELINE_DEPTH {
                            let frame = &state.pool.frames[state.pool.index(seq)];
                            if conn.write_all(frame).is_err() {
                                break;
                            }
                            in_flight.push_back((seq, ns(Instant::now())));
                            seq += lanes as u64;
                        }
                        let Some((s, sent_ns)) = in_flight.pop_front() else {
                            return shots;
                        };
                        let reply = read_frame(&mut conn, usize::MAX >> 1);
                        let done_ns = ns(Instant::now());
                        shots.push(Shot {
                            seq: s,
                            due_ns: sent_ns,
                            sent_ns,
                            done_ns,
                            ok: reply.as_ref().is_ok_and(|p| state.check(s, p)),
                        });
                        if reply.is_err() {
                            // The connection is gone, and with it every
                            // reply still owed on it.
                            shots.extend(in_flight.drain(..).map(|(seq, sent_ns)| Shot {
                                seq,
                                due_ns: sent_ns,
                                sent_ns,
                                done_ns,
                                ok: false,
                            }));
                            return shots;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let shots: Vec<Shot> = per_lane.into_iter().flatten().collect();
    let last_done = shots.iter().map(|s| s.done_ns).max().unwrap_or(0);
    Ok(OpenLoopRun {
        shots,
        wall: Duration::from_nanos(last_done),
    })
}

/// Fails the run on any wrong answer.
fn verdict(wrong: u64) -> Result<(), String> {
    if wrong > 0 {
        return Err(format!(
            "{wrong} responses differ from the in-process reference answer"
        ));
    }
    Ok(())
}

/// One open-loop phase over `lanes` fresh connections, logged into
/// `log`. Returns the run and the number of wrong answers.
fn phase(
    pool: &Pool,
    addr: SocketAddr,
    lanes: usize,
    rate: f64,
    requests: u64,
    log: Vec<Shot>,
    tracer: Option<&Tracer>,
) -> Result<(OpenLoopRun, u64), String> {
    let state = Phase {
        pool,
        addr,
        wrong: AtomicU64::new(0),
        tracer,
    };
    let run = open_loop(
        rate,
        requests,
        lanes,
        log,
        |_| connect(state.addr),
        |conn, seq| state.send(conn, seq),
    )?;
    Ok((run, state.wrong.load(Ordering::Relaxed)))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    Ok(s)
}

/// Waits until the server answers READY.
fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    while Instant::now() < deadline {
        if client.ready().unwrap_or(false) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    Err("server never became READY".into())
}

/// The served inventory: the fused batch build of the scenario.
fn build_inventory(ctx: &mut Ctx) -> Result<Inventory, String> {
    let ds = generate(&crate::scenario(ctx.seed, VESSELS, DAYS));
    ctx.note(
        "scenario",
        format!(
            "{VESSELS} vessels x {DAYS} days, {} reports",
            ds.total_reports()
        ),
    );
    let cfg = PipelineConfig::default();
    let ports = pol_bench::port_sites(cfg.port_radius_km);
    let engine = Engine::new(ctx.nproc);
    let out = run_fused(&engine, ds.positions, &ds.statics, &ports, &cfg)
        .map_err(|e| format!("build inventory: {e}"))?;
    Ok(out.inventory)
}

/// Draws a rank in `0..n` skewed toward 0: log-uniform over ranks, so
/// the busiest keys come up most often and every key can.
fn skewed(rng: &mut Rng, n: usize) -> usize {
    let r = (n as f64).powf(rng.f64()) as usize;
    r.saturating_sub(1).min(n.saturating_sub(1))
}

fn centre(cell: pol_hexgrid::CellIndex) -> (f64, f64) {
    let p = cell_center(cell);
    (p.lat(), p.lon())
}

/// Generates the request pool from the inventory's own keys,
/// with frames and reference answers.
fn make_pool(inv: &Inventory, seed: u64, reference: &InventoryService) -> Pool {
    let mut cells: Vec<(u64, pol_hexgrid::CellIndex)> = Vec::new();
    let mut types: Vec<(u64, pol_hexgrid::CellIndex, MarketSegment)> = Vec::new();
    let mut routes: Vec<(u64, pol_hexgrid::CellIndex, u16, u16, MarketSegment)> = Vec::new();
    for (key, stats) in inv.iter() {
        match *key {
            GroupKey::Cell(c) => cells.push((stats.records, c)),
            GroupKey::CellType(c, s) => types.push((stats.records, c, s)),
            GroupKey::CellRoute(c, o, d, s) => routes.push((stats.records, c, o, d, s)),
        }
    }
    // Busiest first; ties broken by key so the order is deterministic.
    cells.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.raw().cmp(&b.1.raw())));
    types.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then((a.1.raw(), a.2.id()).cmp(&(b.1.raw(), b.2.id())))
    });
    routes.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then((a.1.raw(), a.2, a.3, a.4.id()).cmp(&(b.1.raw(), b.2, b.3, b.4.id())))
    });
    let mut rng = Rng::new(seed ^ 0x5e7e_b00c);
    let mut requests = Vec::with_capacity(POOL);
    for i in 0..POOL {
        // One request in eight goes to the `apps` estimators — an ETA at
        // a cell of a known route, or a destination prediction over a
        // stretch of one — so that layer is measured while the median
        // request stays an O(1) lookup.
        let req = match i % 16 {
            14 => {
                let (_, c, o, d, s) = routes[skewed(&mut rng, routes.len())];
                let (lat, lon) = centre(c);
                Request::Eta {
                    lat,
                    lon,
                    segment: Some(s),
                    route: Some((o, d)),
                }
            }
            15 => {
                let (_, _, o, d, s) = routes[skewed(&mut rng, routes.len())];
                let mut track: Vec<(f64, f64)> =
                    inv.route_cells(o, d, s).into_iter().map(centre).collect();
                track.sort_by(|a, b| a.1.total_cmp(&b.1));
                let start = rng.below(track.len().saturating_sub(TRACK).max(1));
                track = track.into_iter().skip(start).take(TRACK).collect();
                Request::PredictDestination {
                    segment: Some(s),
                    top_n: 3,
                    track,
                }
            }
            k if k % 3 == 0 => {
                let (lat, lon) = centre(cells[skewed(&mut rng, cells.len())].1);
                Request::PointSummary { lat, lon }
            }
            k if k % 3 == 1 => {
                let (_, c, segment) = types[skewed(&mut rng, types.len())];
                let (lat, lon) = centre(c);
                Request::SegmentSummary { lat, lon, segment }
            }
            _ => {
                let (_, c, origin, dest, segment) = routes[skewed(&mut rng, routes.len())];
                let (lat, lon) = centre(c);
                Request::RouteSummary {
                    lat,
                    lon,
                    origin,
                    dest,
                    segment,
                }
            }
        };
        requests.push(req);
    }
    let frames = requests
        .iter()
        .map(|r| {
            let mut framed = Vec::new();
            // Writing into a Vec cannot fail.
            let _ = write_frame(&mut framed, &encode_request(r));
            framed
        })
        .collect();
    let want = requests
        .iter()
        .map(|r| encode_response(&reference.execute(r)))
        .collect();
    Pool {
        requests,
        frames,
        want,
    }
}
