//! Chaos harness (run with `cargo test -p pol-serve --features chaos
//! --test chaos`): a client fleet drives a live server while failpoints
//! kill connection workers and delay reads, and a corrupted snapshot
//! reload is attempted mid-run. The assertions are the ISSUE's
//! acceptance bar: **zero** client-visible wrong answers, only typed
//! retryable errors at a bounded rate, rejected reloads leave the old
//! snapshot serving, and the server recovers fully once the faults are
//! disarmed.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_chaos::{configure, reset, stats, FaultAction, Trigger};
use pol_core::codec;
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::Inventory;
use pol_geo::LatLon;
use pol_hexgrid::{cell_at, Resolution};
use pol_serve::proto::{decode_response, read_frame, write_frame, Request, Response};
use pol_serve::{Client, ClientConfig, ClientError, ProtoError, RetryPolicy, Server, ServerConfig};
use pol_sketch::hash::FxHashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The failpoint registry is process-global, so two tests arming or
/// `reset()`ing it at once would disarm each other's faults. Every test
/// holds this lock for its whole run (a failed test poisons it; the
/// next one carries on).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn res() -> Resolution {
    Resolution::new(6).unwrap()
}

fn sample_inventory(n: usize) -> Inventory {
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let pos = LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
        let cell = cell_at(pos, res());
        let cp = CellPoint {
            point: TripPoint {
                mmsi: Mmsi(1 + (i % 9) as u32),
                timestamp: i as i64 * 60,
                pos,
                sog_knots: Some(8.0 + (i % 14) as f64),
                cog_deg: Some((i * 37 % 360) as f64),
                heading_deg: Some((i * 41 % 360) as f64),
                segment: MarketSegment::from_id((i % 7) as u8).unwrap(),
                trip_id: (i % 13) as u64,
                origin: (i % 6) as u16,
                dest: (i % 8) as u16,
                eto_secs: i as i64 * 45,
                ata_secs: (n - i) as i64 * 45,
            },
            cell,
            next_cell: None,
        };
        for key in [
            GroupKey::Cell(cell),
            GroupKey::CellType(cell, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res(), entries, n as u64)
}

fn stats_bytes(stats: Option<&CellStats>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        codec::encode_cell_stats(s, &mut out);
        out
    })
}

fn chaos_client_config(seed: u64) -> ClientConfig {
    ClientConfig {
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
    }
}

/// Is this one of the errors chaos is *allowed* to surface (transport
/// died / server shed load), as opposed to a wrong answer or a protocol
/// violation?
fn is_retryable_kind(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::ServerBusy
            | ClientError::Proto(ProtoError::Io(_))
            | ClientError::Proto(ProtoError::ConnectionClosed)
    )
}

/// A cheap pool-class request (`Request::runs_inline` is false for
/// scans): the admission, shedding and worker-kill tests need a request
/// that actually takes the pool hop, which `Ping` no longer does.
const POOL_BBOX: [f64; 4] = [-10.0, -10.0, 10.0, 10.0];

fn pool_request() -> Request {
    let [min_lat, min_lon, max_lat, max_lon] = POOL_BBOX;
    Request::BboxScan {
        min_lat,
        min_lon,
        max_lat,
        max_lon,
    }
}

fn framed(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &pol_serve::proto::encode_request(req)).unwrap();
    out
}

fn bbox_scan(client: &mut Client) -> Result<Vec<u64>, ClientError> {
    let [min_lat, min_lon, max_lat, max_lon] = POOL_BBOX;
    client.bbox_scan(min_lat, min_lon, max_lat, max_lon)
}

#[test]
fn fleet_survives_kills_delays_and_corrupt_reload() {
    let _serial = serial();
    const N: usize = 400;
    const FLEET: usize = 4;
    const QUERIES: usize = 60;

    let reference = Arc::new(sample_inventory(N));
    let config = ServerConfig {
        worker_threads: 4,
        read_timeout: Duration::from_millis(25),
        drain_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Arm the chaos: every 40th served frame kills its worker job
    // (contained panic, connection dies without a reply), and reads are
    // randomly delayed. Seeds fixed for a deterministic fault schedule.
    reset();
    configure(
        "serve.worker.kill",
        Trigger::EveryNth {
            n: 40,
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

    // Mid-run reload attempts happen concurrently with the fleet: a
    // corrupted snapshot file must be rejected (old snapshot keeps
    // serving, so answers never change), then a clean reload of the
    // *same* inventory must land (generation bumps, answers still equal).
    let wrong_answers = Arc::new(AtomicUsize::new(0));
    let surfaced_errors = Arc::new(AtomicUsize::new(0));
    let dir = std::env::temp_dir().join("pol-serve-chaos-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    std::thread::scope(|s| {
        for tid in 0..FLEET {
            let reference = Arc::clone(&reference);
            let wrong_answers = Arc::clone(&wrong_answers);
            let surfaced_errors = Arc::clone(&surfaced_errors);
            s.spawn(move || {
                let mut client =
                    Client::connect_with(addr, chaos_client_config(100 + tid as u64)).unwrap();
                for j in 0..QUERIES {
                    let i = tid * QUERIES + j;
                    let pos =
                        LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
                    let cell = cell_at(pos, res());
                    match client.point_summary(pos.lat(), pos.lon()) {
                        Ok(got) => {
                            if stats_bytes(got.as_ref()) != stats_bytes(reference.summary(cell)) {
                                wrong_answers.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            assert!(is_retryable_kind(&e), "non-retryable error surfaced: {e}");
                            surfaced_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // The reloader runs while the fleet is querying.
        let corrupt_path = dir.join("corrupt.pol");
        let mut bytes = codec::to_bytes(&sample_inventory(N));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&corrupt_path, &bytes).unwrap();
        let before = server.metrics().generation();
        assert!(
            server.reload_from(&corrupt_path).is_err(),
            "corrupt snapshot must be rejected"
        );
        assert_eq!(
            server.metrics().generation(),
            before,
            "rejected reload must not advance the generation"
        );

        let clean_path = dir.join("clean.pol");
        codec::save(&sample_inventory(N), &clean_path).unwrap();
        server.reload_from(&clean_path).unwrap();
        assert_eq!(server.metrics().generation(), before + 1);
    });

    // Acceptance: not one wrong answer, and the error budget holds (the
    // client retries absorb almost every injected fault).
    let total = FLEET * QUERIES;
    let errors = surfaced_errors.load(Ordering::Relaxed);
    assert_eq!(
        wrong_answers.load(Ordering::Relaxed),
        0,
        "chaos must never cause a wrong answer"
    );
    assert!(
        errors <= total / 10,
        "error rate too high under chaos: {errors}/{total}"
    );

    // The faults actually happened (this test is not vacuous).
    assert!(
        stats("serve.worker.kill").fired >= 1,
        "kill failpoint never fired: {}",
        stats("serve.worker.kill")
    );
    assert!(stats("serve.conn.read_delay").hits > 0);

    // Full recovery: disarm everything, a fresh client sees every
    // endpoint healthy and the reload accounting in STATS.
    reset();
    let mut client = Client::connect_with(addr, chaos_client_config(999)).unwrap();
    client.ping().unwrap();
    let health = client.health().unwrap();
    assert!(health.healthy && !health.draining);
    assert!(client.ready().unwrap());
    let report = client.stats().unwrap();
    assert_eq!(report.reloads_ok, 1);
    assert_eq!(report.reloads_failed, 1);
    for i in 0..20usize {
        let pos = LatLon::new(-50.0 + (i % 101) as f64, -160.0 + (i % 320) as f64).unwrap();
        let cell = cell_at(pos, res());
        let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
        assert_eq!(
            stats_bytes(got.as_ref()),
            stats_bytes(reference.summary(cell)),
            "post-recovery answer {i}"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The reactor sheds load per *request*, not per connection: while the
/// only worker slot is pinned (a chaos-delayed pool request), a second
/// connection's pool request is answered with an immediate typed `Busy`
/// — and that connection stays open and is served normally once the
/// slot frees. An inline request on a third connection is answered
/// meanwhile: it never takes a slot. The `shed_at_loop` counter
/// attributes the rejection to the event loop.
#[test]
fn reactor_sheds_at_the_loop_and_keeps_the_connection() {
    let _serial = serial();
    let config = ServerConfig {
        worker_threads: 1,
        max_pending: 0,
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    reset();
    // The first request to reach the kill point (the pinner's pool
    // request) sleeps 600 ms, pinning the single admission slot for a
    // deterministic window.
    configure(
        "serve.worker.kill",
        Trigger::NthHit {
            n: 1,
            action: FaultAction::Delay(Duration::from_millis(600)),
        },
    );
    let pinner = std::thread::spawn(move || {
        let mut client = Client::connect_with(addr, chaos_client_config(7)).unwrap();
        bbox_scan(&mut client).unwrap(); // delayed, then answered
    });
    std::thread::sleep(Duration::from_millis(150)); // slot is pinned now

    // A raw second connection (no client-side Busy retry) sees the shed.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let framed = framed(&pool_request());
    use std::io::Write;
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(decode_response(&reply).unwrap(), Response::Busy),
        "pinned slot must shed the request with Busy"
    );

    // An inline request needs no slot: a third connection is answered
    // while the pool is still pinned.
    let mut inline = Client::connect_with(addr, chaos_client_config(8)).unwrap();
    match inline.request_once(&Request::Ping).unwrap() {
        Response::Pong => {}
        other => panic!("inline Ping must be answered while the pool is pinned, got {other:?}"),
    }

    // The shed connection survives: once the slot frees, the very same
    // socket is served.
    pinner.join().unwrap();
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        decode_response(&reply).unwrap(),
        Response::Cells(_)
    ));

    let snap = server.metrics().snapshot();
    assert!(snap.shed_at_loop >= 1, "shed_at_loop never counted");
    assert!(snap.busy_rejections >= 1);
    reset();
    server.shutdown();
}

/// A shed must never strand a *pipelined* connection's queue: when a
/// completion pops the next pending frame and admission sheds it, the
/// rest of the pending queue has no in-flight marker left to pop it — so
/// the loop must keep draining, answering every queued frame with Busy,
/// instead of leaving the connection wedged (no response, not idle, not
/// stalled) until the peer gives up. The `serve.worker.slot_hold` fault
/// pins the admission slot *after* the first completion posts, which is
/// exactly the interleaving where the pop-path shed fires.
#[test]
fn shed_at_pop_answers_every_pipelined_frame() {
    let _serial = serial();
    let config = ServerConfig {
        worker_threads: 1,
        max_pending: 0, // admission cap of exactly one slot
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    reset();
    // After the first request's completion is posted, its worker keeps
    // the only admission slot pinned for 600 ms: the loop pops the
    // pipelined follow-ups into a full cap.
    configure(
        "serve.worker.slot_hold",
        Trigger::NthHit {
            n: 1,
            action: FaultAction::Delay(Duration::from_millis(600)),
        },
    );

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let framed = framed(&pool_request());
    // Four pool requests in one burst: the first dispatches, the other
    // three queue behind it in the connection's pending queue.
    let mut burst = Vec::new();
    for _ in 0..4 {
        burst.extend_from_slice(&framed);
    }
    use std::io::Write;
    stream.write_all(&burst).unwrap();

    // Every request gets a response, in order: the served first frame,
    // then one typed Busy per shed follow-up — none goes unanswered.
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(
        matches!(decode_response(&reply).unwrap(), Response::Cells(_)),
        "first pipelined request must be served"
    );
    for i in 1..4 {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert!(
            matches!(decode_response(&reply).unwrap(), Response::Busy),
            "pipelined frame {i} must be shed with Busy, not stranded"
        );
    }

    // The connection is not wedged: once the slot frees, the very same
    // socket is served again.
    std::thread::sleep(Duration::from_millis(700));
    stream.write_all(&framed).unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        decode_response(&reply).unwrap(),
        Response::Cells(_)
    ));

    let snap = server.metrics().snapshot();
    assert!(snap.shed_at_loop >= 3, "pop-path sheds must be counted");
    reset();
    server.shutdown();
}

/// An over-cap frame header pipelined behind a pool request is answered
/// in its turn: the scan's `Cells` first, then the cap's `Error`, then
/// EOF. Answering the header at once would put the `Error` where the
/// client expects the scan's reply.
#[test]
fn oversized_frame_behind_a_pool_request_is_answered_in_order() {
    let _serial = serial();
    let config = ServerConfig {
        worker_threads: 1,
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    reset();
    // Hold the scan on its worker, so the oversized header arrives while
    // the scan is in flight.
    configure(
        "serve.worker.kill",
        Trigger::NthHit {
            n: 1,
            action: FaultAction::Delay(Duration::from_millis(300)),
        },
    );
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut burst = framed(&pool_request());
    burst.extend_from_slice(&(1u32 << 30).to_le_bytes());
    use std::io::Write;
    stream.write_all(&burst).unwrap();

    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match decode_response(&reply).unwrap() {
        Response::Cells(_) => {}
        other => panic!("the scan must be answered first, got {other:?}"),
    }
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("exceeds cap"), "{msg}"),
        other => panic!("the oversized frame must get its Error second, got {other:?}"),
    }
    match read_frame(&mut stream, 1 << 20) {
        Err(ProtoError::ConnectionClosed) => {}
        other => panic!("the connection must close after the Error, got {other:?}"),
    }
    assert_eq!(stats("serve.worker.kill").fired, 1);
    assert!(server.metrics().snapshot().malformed_frames >= 1);
    reset();
    server.shutdown();
}

/// A kill fault must not leak its admission slot: after many kills, the
/// server still admits new connections (the `AdmitGuard` contract).
#[test]
fn killed_workers_do_not_leak_admission_slots() {
    let _serial = serial();
    let config = ServerConfig {
        worker_threads: 2,
        max_pending: 1,
        read_timeout: Duration::from_millis(25),
        drain_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    reset();
    configure("serve.worker.kill", Trigger::Always(FaultAction::Kill));
    // Every pool request meets a kill; with retries exhausted each
    // attempt fails with a transport error. The slots must all be
    // released.
    for seed in 0..6u64 {
        let mut cfg = chaos_client_config(seed);
        cfg.retry.max_attempts = 2;
        cfg.retry.deadline = Duration::from_secs(3);
        let mut client = Client::connect_with(addr, cfg).unwrap();
        let err = bbox_scan(&mut client).unwrap_err();
        assert!(is_retryable_kind(&err), "unexpected error: {err}");
    }
    assert!(stats("serve.worker.kill").fired >= 6);

    // Disarmed: the very next connection is admitted and served.
    reset();
    let mut client = Client::connect_with(addr, chaos_client_config(42)).unwrap();
    bbox_scan(&mut client).unwrap();
    assert_eq!(
        server.metrics().snapshot().busy_rejections,
        0,
        "kills leaked admission slots into Busy shedding"
    );
    server.shutdown();
}

/// The inline path keeps the worker-kill isolation: a `Kill` fault on an
/// inline `PointSummary` unwinds only as far as the loop's
/// `catch_unwind`, closes that one socket without a reply, and the loop
/// thread keeps serving every other connection — without shedding
/// anything.
#[test]
fn killed_inline_request_closes_only_its_connection() {
    let _serial = serial();
    let reference = sample_inventory(50);
    let config = ServerConfig {
        worker_threads: 1,
        max_pending: 0,
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let pos = LatLon::new(-45.0, -155.0).unwrap();
    let point = Request::PointSummary {
        lat: pos.lat(),
        lon: pos.lon(),
    };
    assert!(point.runs_inline());

    // A bystander connected before the fault, left idle across it.
    let mut bystander = Client::connect_with(addr, chaos_client_config(3)).unwrap();
    bystander.ping().unwrap();

    reset();
    configure("serve.worker.kill", Trigger::OneShot(FaultAction::Kill));
    let mut victim = std::net::TcpStream::connect(addr).unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    use std::io::Write;
    victim.write_all(&framed(&point)).unwrap();
    match read_frame(&mut victim, 1 << 20) {
        Err(ProtoError::ConnectionClosed) | Err(ProtoError::Io(_)) => {}
        other => panic!("killed inline request must close without a reply, got {other:?}"),
    }
    assert_eq!(stats("serve.worker.kill").fired, 1);

    // The loop survived: the bystander and a fresh connection are both
    // served, with the right answer.
    let want = stats_bytes(reference.summary(cell_at(pos, res())));
    let got = bystander.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(stats_bytes(got.as_ref()), want);
    let mut fresh = Client::connect_with(addr, chaos_client_config(4)).unwrap();
    let got = fresh.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(stats_bytes(got.as_ref()), want);
    bbox_scan(&mut fresh).unwrap();
    assert_eq!(
        server.metrics().snapshot().busy_rejections,
        0,
        "an inline kill must not shed anything"
    );
    reset();
    server.shutdown();
}
