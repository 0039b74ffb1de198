//! End-to-end loopback tests: a real server on an ephemeral port, driven
//! by concurrent clients, with every response checked against the answer
//! computed directly on the unsharded `Inventory`. Also covers the
//! operational contracts: backpressure (`Busy`), malformed-frame
//! rejection, frame-size caps, and clean shutdown with clients attached.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::EtaEstimator;
use pol_core::codec::encode_cell_stats;
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::Inventory;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex, Resolution};
use pol_serve::proto::{read_frame, write_frame, ProtoError, Request, Response, PROTO_VERSION};
use pol_serve::{Client, ClientError, InventoryService, Server, ServerConfig, ServerMetrics};
use pol_sketch::hash::FxHashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn res() -> Resolution {
    Resolution::new(6).unwrap()
}

/// A deterministic inventory with traffic in all three grouping sets.
fn sample_inventory(n: usize) -> Inventory {
    let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
    for i in 0..n {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
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
            GroupKey::CellRoute(cell, cp.point.origin, cp.point.dest, cp.point.segment),
        ] {
            entries
                .entry(key)
                .or_insert_with(|| CellStats::new(0.02, 8))
                .observe(&cp);
        }
    }
    Inventory::from_entries(res(), entries, n as u64)
}

/// CellStats has no `PartialEq`; its canonical encoding is deterministic,
/// so equality-by-encoded-bytes is exact.
fn stats_bytes(stats: Option<&CellStats>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        encode_cell_stats(s, &mut out);
        out
    })
}

fn test_config() -> ServerConfig {
    ServerConfig {
        worker_threads: 6,
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    }
}

/// Every request type, from 4 concurrent client threads, each answer
/// compared against the direct `Inventory` computation.
#[test]
fn concurrent_responses_equal_direct_inventory_queries() {
    const N: usize = 600;
    let reference = Arc::new(sample_inventory(N));
    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();

    std::thread::scope(|s| {
        for tid in 0..4usize {
            let reference = Arc::clone(&reference);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                for j in 0..40usize {
                    let i = tid * 40 + j;
                    let pos =
                        LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
                    let cell = cell_at(pos, res());
                    let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
                    let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);

                    let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
                    assert_eq!(
                        stats_bytes(got.as_ref()),
                        stats_bytes(reference.summary(cell)),
                        "point {i}"
                    );

                    let got = client.segment_summary(pos.lat(), pos.lon(), seg).unwrap();
                    assert_eq!(
                        stats_bytes(got.as_ref()),
                        stats_bytes(reference.summary_for(cell, seg)),
                        "segment {i}"
                    );

                    let got = client
                        .route_summary(pos.lat(), pos.lon(), origin, dest, seg)
                        .unwrap();
                    assert_eq!(
                        stats_bytes(got.as_ref()),
                        stats_bytes(reference.summary_route(cell, origin, dest, seg)),
                        "route {i}"
                    );

                    let (lo_lat, lo_lon) = (pos.lat() - 4.0, pos.lon().max(-175.0) - 4.0);
                    let bbox = BBox::new(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0).unwrap();
                    let got = client
                        .bbox_scan(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0)
                        .unwrap();
                    let mut want: Vec<u64> =
                        reference.cells_in(&bbox).iter().map(|c| c.raw()).collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "bbox {i}");

                    let got = client.top_destination_cells(dest, Some(seg)).unwrap();
                    let mut want: Vec<u64> = reference
                        .cells_with_top_destination(dest, Some(seg))
                        .iter()
                        .map(|c| c.raw())
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "top-dest {i}");

                    let got = client
                        .eta(pos.lat(), pos.lon(), Some(seg), Some((origin, dest)))
                        .unwrap();
                    let want = EtaEstimator::new(reference.as_ref()).estimate(
                        pos,
                        Some(seg),
                        Some((origin, dest)),
                    );
                    assert_eq!(got, want, "eta {i}");

                    let track: Vec<(f64, f64)> = (0..5)
                        .map(|k| {
                            let p = LatLon::new(
                                -55.0 + ((i + k) % 111) as f64,
                                -170.0 + ((i + k) % 340) as f64,
                            )
                            .unwrap();
                            (p.lat(), p.lon())
                        })
                        .collect();
                    let got = client.predict_destination(None, 3, track.clone()).unwrap();
                    let mut predictor = DestinationPredictor::new(reference.as_ref(), None);
                    for (lat, lon) in &track {
                        predictor.observe(LatLon::new(*lat, *lon).unwrap());
                    }
                    assert_eq!(got, predictor.top(3), "predict {i}");
                }
            });
        }
    });

    let stats = server.metrics().snapshot();
    assert!(
        stats.total_requests >= 4 * 40 * 7,
        "{}",
        stats.total_requests
    );
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.malformed_frames, 0);
    server.shutdown();
}

/// The `STATS` endpoint reflects traffic and the columnar-encode stage.
#[test]
fn stats_endpoint_reports_counters_and_stages() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    client.point_summary(10.0, 10.0).unwrap();
    let report = client.stats().unwrap();
    assert!(report.total_requests >= 2);
    assert_eq!(report.connections, 1);
    assert!(report.stages.contains("columnar-encode"));
    assert!(report
        .endpoints
        .iter()
        .any(|e| e.endpoint == pol_serve::Endpoint::PointSummary && e.count == 1));
    server.shutdown();
}

/// Sockets beyond `max_connections` are turned away at accept with a
/// typed `Busy` frame instead of being registered. (Per-request
/// shedding at the admission cap is covered by the chaos suite's
/// `reactor_sheds_at_the_loop_and_keeps_the_connection`.)
#[test]
fn overload_is_rejected_with_busy() {
    let config = ServerConfig {
        max_connections: 1,
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    first.ping().unwrap(); // guarantees the connection is registered
    let mut second = Client::connect(addr).unwrap();
    match second.ping() {
        Err(ClientError::ServerBusy) => {}
        other => panic!("expected ServerBusy, got {other:?}"),
    }
    // The client retries Busy on fresh connections before giving up, so
    // every attempt lands one rejection.
    assert!(server.metrics().snapshot().busy_rejections >= 1);

    // Releasing the first connection frees its socket for a new client.
    drop(first);
    std::thread::sleep(Duration::from_millis(150));
    let mut third = Client::connect(addr).unwrap();
    third.ping().unwrap();
    server.shutdown();
}

/// A frame that fails to decode gets one typed error and the socket.
#[test]
fn malformed_frame_answered_then_disconnected() {
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut stream, &[PROTO_VERSION, 250]).unwrap(); // unknown tag
    stream.flush().unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match pol_serve::proto::decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("tag"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The server closes after a malformed frame.
    match read_frame(&mut stream, 1 << 20) {
        Err(ProtoError::ConnectionClosed) | Err(ProtoError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    assert_eq!(server.metrics().snapshot().malformed_frames, 1);
    server.shutdown();
}

/// A declared frame length over the cap is rejected without allocating it.
#[test]
fn oversized_frame_rejected() {
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let huge = (1u32 << 30).to_le_bytes();
    stream.write_all(&huge).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match pol_serve::proto::decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("exceeds"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    server.shutdown();
}

/// Shutdown drains cleanly with a client still attached, and the port
/// stops answering.
#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut server = Server::start(sample_inventory(20), "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    server.shutdown();
    server.shutdown(); // idempotent
                       // The attached client's next request fails: connection drained.
    client
        .set_read_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    assert!(client.ping().is_err());
}

/// Requests round-trip through a real socket even when split into
/// byte-sized writes (exercises the server's frame accumulator).
#[test]
fn fragmented_request_is_reassembled() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let payload = pol_serve::proto::encode_request(&Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    for b in framed {
        stream.write_all(&[b]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        pol_serve::proto::decode_response(&reply).unwrap(),
        Response::Pong
    ));
    server.shutdown();
}

/// A request whose bytes were accepted before shutdown gets its answer:
/// the draining server serves the in-flight frame instead of resetting
/// the connection.
#[test]
fn shutdown_drains_in_flight_requests() {
    let config = ServerConfig {
        worker_threads: 2,
        read_timeout: Duration::from_millis(25),
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    // Deliver the first half of a Ping frame, so shutdown finds this
    // connection mid-request.
    let payload = pol_serve::proto::encode_request(&Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    let split = framed.len() / 2;
    stream.write_all(&framed[..split]).unwrap();
    stream.flush().unwrap();

    let finisher = std::thread::spawn(move || {
        // Let shutdown begin, then complete the frame and collect the
        // answer the drain owes us.
        std::thread::sleep(Duration::from_millis(150));
        stream.write_all(&framed[split..]).unwrap();
        stream.flush().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        let reply = read_frame(&mut stream, 1 << 20).expect("drained request must be answered");
        assert!(matches!(
            pol_serve::proto::decode_response(&reply).unwrap(),
            Response::Pong
        ));
    });
    std::thread::sleep(Duration::from_millis(50)); // frame half-delivered
    server.shutdown();
    finisher.join().unwrap();
}

/// `HEALTH` and `READY` report the live generation and flip on reload.
#[test]
fn health_ready_and_hot_reload() {
    let reference = Arc::new(sample_inventory(300));
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let health = client.health().unwrap();
    assert!(health.healthy && !health.draining);
    assert_eq!(health.generation, 1);
    assert!(client.ready().unwrap());

    // Hot-swap to a bigger snapshot; the attached client sees the new
    // data on its very next request, same connection.
    server.reload(sample_inventory(300)).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.generation, 2);
    let pos = LatLon::new(-50.0, -160.0).unwrap();
    let cell = cell_at(pos, res());
    let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(
        stats_bytes(got.as_ref()),
        stats_bytes(reference.summary(cell)),
        "post-reload answers must come from the new snapshot"
    );
    let report = client.stats().unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.reloads_ok, 1);
    assert_eq!(report.reloads_failed, 0);
    server.shutdown();
}

/// `reload_from` on a corrupt file keeps the old snapshot serving.
#[test]
fn corrupt_reload_is_rejected_and_old_snapshot_survives() {
    use pol_core::codec;
    let dir = std::env::temp_dir().join("pol-serve-reload-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let reference = Arc::new(sample_inventory(50));
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut bytes = codec::to_bytes(&sample_inventory(300));
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01; // bit rot
    let path = dir.join("corrupt.pol");
    std::fs::write(&path, &bytes).unwrap();
    assert!(server.reload_from(&path).is_err());

    // Old snapshot still answers, generation unmoved, failure accounted.
    let pos = LatLon::new(-50.0, -160.0).unwrap();
    let cell = cell_at(pos, res());
    let got = client.point_summary(pos.lat(), pos.lon()).unwrap();
    assert_eq!(
        stats_bytes(got.as_ref()),
        stats_bytes(reference.summary(cell))
    );
    let report = client.stats().unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.reloads_failed, 1);

    // A clean file lands.
    let clean = dir.join("clean.pol");
    codec::save(&sample_inventory(300), &clean).unwrap();
    server.reload_from(&clean).unwrap();
    assert_eq!(client.stats().unwrap().generation, 2);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server started from a migrated POLINV3 snapshot (zero-copy mapped
/// file) answers every endpoint exactly like the server started from the
/// in-process inventory (encoded in memory), and `STATS` names each
/// store.
#[test]
fn mmap_snapshot_server_equals_heap_server() {
    use pol_core::codec::{self, columnar};
    const N: usize = 400;
    let dir = std::env::temp_dir().join(format!("pol-serve-mmap-loop-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let v3_path = dir.join("inv.pol3");
    let v3 = columnar::migrate_v2_bytes(&codec::to_bytes(&sample_inventory(N))).unwrap();
    std::fs::write(&v3_path, &v3).unwrap();

    let mut heap_server = Server::start(sample_inventory(N), "127.0.0.1:0", test_config()).unwrap();
    let mut mmap_server = Server::start_snapshot(&v3_path, "127.0.0.1:0", test_config()).unwrap();
    let mut on_heap = Client::connect(heap_server.local_addr()).unwrap();
    let mut on_mmap = Client::connect(mmap_server.local_addr()).unwrap();

    for i in 0..60usize {
        let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
        let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
        let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);

        let a = on_mmap.point_summary(pos.lat(), pos.lon()).unwrap();
        let b = on_heap.point_summary(pos.lat(), pos.lon()).unwrap();
        assert_eq!(
            stats_bytes(a.as_ref()),
            stats_bytes(b.as_ref()),
            "point {i}"
        );

        let a = on_mmap
            .route_summary(pos.lat(), pos.lon(), origin, dest, seg)
            .unwrap();
        let b = on_heap
            .route_summary(pos.lat(), pos.lon(), origin, dest, seg)
            .unwrap();
        assert_eq!(
            stats_bytes(a.as_ref()),
            stats_bytes(b.as_ref()),
            "route {i}"
        );

        let (lo_lat, lo_lon) = (pos.lat() - 4.0, pos.lon().max(-175.0) - 4.0);
        let a = on_mmap
            .bbox_scan(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0)
            .unwrap();
        let b = on_heap
            .bbox_scan(lo_lat, lo_lon, lo_lat + 8.0, lo_lon + 8.0)
            .unwrap();
        assert_eq!(a, b, "bbox {i}");

        let a = on_mmap.top_destination_cells(dest, Some(seg)).unwrap();
        let b = on_heap.top_destination_cells(dest, Some(seg)).unwrap();
        assert_eq!(a, b, "top-dest {i}");

        let a = on_mmap
            .eta(pos.lat(), pos.lon(), Some(seg), Some((origin, dest)))
            .unwrap();
        let b = on_heap
            .eta(pos.lat(), pos.lon(), Some(seg), Some((origin, dest)))
            .unwrap();
        assert_eq!(a, b, "eta {i}");
    }

    // Each store identifies itself and counts its work.
    let report = on_mmap.stats().unwrap();
    assert_eq!(report.store, "mapped-columnar");
    assert!(report.mapped_lookups > 0);
    assert!(report.mapped_scan_entries > 0);
    assert!(report.stages.contains("mmap-open"));
    let report = on_heap.stats().unwrap();
    assert_eq!(report.store, "heap-columnar");
    assert!(report.mapped_lookups > 0);

    heap_server.shutdown();
    mmap_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A protocol-v3 batch frame answers exactly like the same requests sent
/// one frame at a time, children are accounted separately from frames,
/// and oversized batches are refused client-side.
#[test]
fn batched_requests_equal_single_requests() {
    use pol_serve::proto::Request as Req;
    let reference = Arc::new(sample_inventory(300));
    let mut server = Server::start(sample_inventory(300), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Mixed batch via the raw API: each child answer must match the
    // direct inventory computation.
    let positions: Vec<(f64, f64)> = (0..20usize)
        .map(|i| {
            let p = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
            (p.lat(), p.lon())
        })
        .collect();
    let batch: Vec<Req> = positions
        .iter()
        .map(|(lat, lon)| Req::PointSummary {
            lat: *lat,
            lon: *lon,
        })
        .chain([Req::Ping])
        .collect();
    let replies = client.batch(&batch).unwrap();
    assert_eq!(replies.len(), positions.len() + 1);
    assert!(matches!(replies.first(), Some(Response::Summary(_))));
    assert!(matches!(replies.last(), Some(Response::Pong)));

    // Typed helper: batched point summaries == singles, byte for byte.
    let batched = client.point_summaries(&positions).unwrap();
    for (i, (lat, lon)) in positions.iter().enumerate() {
        let single = client.point_summary(*lat, *lon).unwrap();
        assert_eq!(
            stats_bytes(batched[i].as_ref()),
            stats_bytes(single.as_ref()),
            "batched point {i}"
        );
        let cell = cell_at(LatLon::new(*lat, *lon).unwrap(), res());
        assert_eq!(
            stats_bytes(batched[i].as_ref()),
            stats_bytes(reference.summary(cell)),
            "batched point vs direct {i}"
        );
    }

    // Typed helper: batched route summaries == singles.
    let seg = MarketSegment::from_id(3).unwrap();
    let routed = client.route_summaries(2, 5, seg, &positions).unwrap();
    for (i, (lat, lon)) in positions.iter().enumerate() {
        let single = client.route_summary(*lat, *lon, 2, 5, seg).unwrap();
        assert_eq!(
            stats_bytes(routed[i].as_ref()),
            stats_bytes(single.as_ref()),
            "batched route {i}"
        );
    }

    // Accounting: one Batch frame per call, children under
    // batched_requests (never double-counted per endpoint).
    let report = client.stats().unwrap();
    assert!(report.batched_requests >= (positions.len() + 1) as u64 + 2 * positions.len() as u64);
    assert!(report
        .endpoints
        .iter()
        .any(|e| e.endpoint == pol_serve::Endpoint::Batch && e.count >= 3));

    // An over-long batch is refused before touching the wire.
    let oversized = vec![Req::Ping; pol_serve::MAX_BATCH + 1];
    assert!(matches!(
        client.batch(&oversized),
        Err(ClientError::Unexpected(_))
    ));
    // The connection is still healthy afterwards.
    client.ping().unwrap();
    server.shutdown();
}

/// The reactor's event-loop counters are live: an attached connection
/// shows in the gauge, readiness events and eventfd wakeups accumulate
/// under traffic, and the gauge returns to zero when the peer leaves.
/// `Ping` runs inline on the loop and rings no eventfd, so one
/// pool-class scan goes first: its completion is the wakeup counted.
/// `STATS` is pool-class too, so its snapshot can be taken before the
/// loop has consumed the scan's eventfd; the report is re-read until
/// the wakeup shows, within a deadline.
#[test]
fn reactor_core_event_counters_are_live() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for _ in 0..10 {
        client.ping().unwrap();
    }
    client.bbox_scan(-10.0, -10.0, 10.0, 10.0).unwrap();
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut report = client.stats().unwrap();
    while report.wakeups == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        report = client.stats().unwrap();
    }
    assert_eq!(report.open_connections, 1);
    assert!(report.peak_connections >= 1);
    assert!(report.ready_events > 0, "no readiness events recorded");
    assert!(report.wakeups > 0, "no eventfd wakeups recorded");
    assert_eq!(report.shed_at_loop, 0);
    drop(client);
    let metrics = server.metrics();
    let deadline = Instant::now() + Duration::from_secs(3);
    while metrics.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        metrics.open_connections(),
        0,
        "gauge must return to zero after the peer disconnects"
    );
    server.shutdown();
}

/// Inline requests keep their place in a connection's order: pipelined
/// in one write, inline lookups queued behind an in-flight pool request
/// wait for it, and every reply arrives in request order, byte-equal to
/// [`InventoryService::execute`] on the same inventory.
#[test]
fn pipelined_inline_and_pool_requests_answer_in_order() {
    const N: usize = 300;
    let direct =
        InventoryService::new(sample_inventory(N), Arc::new(ServerMetrics::new())).unwrap();
    let mut server = Server::start(sample_inventory(N), "127.0.0.1:0", test_config()).unwrap();
    let i = 17usize;
    let (lat, lon) = (-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64);
    let segment = MarketSegment::from_id((i % 7) as u8).unwrap();
    let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);
    let track: Vec<(f64, f64)> = (0..6)
        .map(|k| {
            (
                -55.0 + ((i + k) % 111) as f64,
                -170.0 + ((i + k) % 340) as f64,
            )
        })
        .collect();
    let requests = [
        Request::PredictDestination {
            segment: None,
            top_n: 3,
            track,
        },
        Request::PointSummary { lat, lon },
        Request::BboxScan {
            min_lat: lat - 4.0,
            min_lon: lon - 4.0,
            max_lat: lat + 4.0,
            max_lon: lon + 4.0,
        },
        Request::Eta {
            lat,
            lon,
            segment: Some(segment),
            route: Some((origin, dest)),
        },
        Request::Ping,
        Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        },
    ];
    let inline: Vec<bool> = requests.iter().map(Request::runs_inline).collect();
    assert_eq!(inline, [false, true, false, true, true, true]);

    let mut burst = Vec::new();
    for req in &requests {
        write_frame(&mut burst, &pol_serve::proto::encode_request(req)).unwrap();
    }
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    for (k, req) in requests.iter().enumerate() {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        let want = pol_serve::proto::encode_response(&direct.execute(req));
        assert_eq!(
            reply,
            want,
            "reply {k} ({:?}) out of order or wrong",
            req.endpoint()
        );
    }
    server.shutdown();
}

/// A malformed frame queued behind a pool request keeps its place: the
/// pool reply comes first, then the typed `Error`, then the close —
/// frames after it are never answered.
#[test]
fn malformed_frame_behind_a_pool_request_is_answered_in_order() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let scan = Request::BboxScan {
        min_lat: -30.0,
        min_lon: -160.0,
        max_lat: 0.0,
        max_lon: -120.0,
    };
    let mut burst = Vec::new();
    write_frame(&mut burst, &pol_serve::proto::encode_request(&scan)).unwrap();
    write_frame(&mut burst, &[PROTO_VERSION, 250]).unwrap(); // unknown tag
    write_frame(
        &mut burst,
        &pol_serve::proto::encode_request(&Request::Ping),
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    assert!(matches!(
        pol_serve::proto::decode_response(&reply).unwrap(),
        Response::Cells(_)
    ));
    let reply = read_frame(&mut stream, 1 << 20).unwrap();
    match pol_serve::proto::decode_response(&reply).unwrap() {
        Response::Error(msg) => assert!(msg.contains("tag"), "{msg}"),
        other => panic!("expected Error, got {other:?}"),
    }
    match read_frame(&mut stream, 1 << 20) {
        Err(ProtoError::ConnectionClosed) | Err(ProtoError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
    assert_eq!(server.metrics().snapshot().malformed_frames, 1);
    server.shutdown();
}

/// A client that pipelines a burst of requests and only starts reading
/// later gets every response, intact and in order: the reactor buffers
/// responses per connection and re-arms `EPOLLOUT` until they drain.
#[test]
fn pipelined_responses_survive_a_lazy_reader() {
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", test_config()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let payload = pol_serve::proto::encode_request(&Request::Ping);
    let mut framed = Vec::new();
    write_frame(&mut framed, &payload).unwrap();
    const BURST: usize = 16;
    for _ in 0..BURST {
        stream.write_all(&framed).unwrap();
    }
    stream.flush().unwrap();
    // Stay lazy: let the responses pile up server-side before reading.
    std::thread::sleep(Duration::from_millis(300));
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .unwrap();
    for i in 0..BURST {
        let reply = read_frame(&mut stream, 1 << 20).unwrap();
        assert!(
            matches!(
                pol_serve::proto::decode_response(&reply).unwrap(),
                Response::Pong
            ),
            "pipelined reply {i}"
        );
    }
    server.shutdown();
}

/// A slow-loris peer — one that declares a frame and then drips bytes
/// forever — is cut off by the frame-assembly deadline (anchored to the
/// frame's first byte, so the drip cannot keep resetting it) without
/// ever stalling the other clients.
#[test]
fn slow_loris_is_cut_off_without_stalling_others() {
    let config = ServerConfig {
        stall_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut server = Server::start(sample_inventory(50), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // The loris declares a 100-byte frame, then feeds it one byte at
    // a time — each drip inside the read timeout, the whole frame
    // far beyond the stall deadline.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.set_nodelay(true).unwrap();
    loris.write_all(&(100u32).to_le_bytes()).unwrap();
    loris.flush().unwrap();

    let mut healthy = Client::connect(addr).unwrap();
    let started = Instant::now();
    let mut cut_off = false;
    while started.elapsed() < Duration::from_secs(5) {
        // Other clients are served the whole time.
        healthy.ping().unwrap();
        if loris.write_all(&[0]).and_then(|()| loris.flush()).is_err() {
            cut_off = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    assert!(cut_off, "slow-loris connection evaded the stall deadline");
    healthy.ping().unwrap();
    server.shutdown();
}

/// `CellIndex::from_raw` accepts every index a bbox scan returns (the
/// wire sends raw u64s; clients must be able to reconstruct them).
#[test]
fn scanned_cells_reconstruct_as_valid_indices() {
    let mut server = Server::start(sample_inventory(200), "127.0.0.1:0", test_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cells = client.bbox_scan(-89.0, -179.0, 89.0, 179.0).unwrap();
    assert!(!cells.is_empty());
    for raw in cells {
        CellIndex::from_raw(raw).unwrap();
    }
    server.shutdown();
}

/// The streaming-ingestion serving contract: reloading a POLMAN1 delta
/// chain under sustained concurrent load drops no in-flight query and
/// never returns a wrong answer — every response matches either the
/// pre-reload chain or the post-reload one, and once `reload_from`
/// returns, fresh requests see the extended chain with its lineage in
/// the `STATS` freshness fields.
#[test]
fn delta_chain_hot_reload_under_load_loses_no_query() {
    use pol_core::codec::manifest::{Manifest, ManifestEntry};
    use pol_core::codec::{self, columnar, save_bytes};
    use pol_sketch::crc64::crc64;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let dir = std::env::temp_dir().join("pol-serve-chain-reload");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let base = sample_inventory(400);
    let delta = sample_inventory(150); // overlaps the base: real merges
    let merged = {
        // Inventory has no Clone; a codec round trip is a faithful copy.
        let mut m = codec::from_bytes(&codec::to_bytes(&base)).unwrap();
        m.merge(&delta);
        m
    };

    let entry_for = |name: &str, inv: &Inventory| {
        let bytes = columnar::to_bytes(inv);
        save_bytes(&bytes, &dir.join(name)).unwrap();
        (bytes.len() as u64, crc64(&bytes))
    };
    let (base_len, base_crc) = entry_for("base.pol3", &base);
    let manifest_path = dir.join("inventory.polman");
    let base_entry = ManifestEntry {
        generation: 0,
        file_len: base_len,
        crc: base_crc,
        name: "base.pol3".into(),
    };
    pol_core::codec::manifest::save(
        &Manifest {
            entries: vec![base_entry.clone()],
        },
        &manifest_path,
    )
    .unwrap();

    let mut server = Server::start_snapshot(&manifest_path, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut probe = Client::connect(addr).unwrap();
    let before = probe.stats().unwrap();
    assert_eq!(before.delta_generation, 0);
    assert_eq!(before.chain_len, 1);

    // Query positions that hit occupied cells of the base inventory.
    let pool: Vec<(f64, f64)> = (0..400usize)
        .step_by(7)
        .map(|i| (-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64))
        .collect();

    let stop = AtomicBool::new(false);
    let reloaded = AtomicBool::new(false);
    let wrong = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let served = AtomicU64::new(0);
    let post_reload_new = AtomicU64::new(0);

    std::thread::scope(|s| {
        for tid in 0..3usize {
            let (base, merged, pool) = (&base, &merged, &pool);
            let (stop, reloaded, wrong, errors, served, post_reload_new) =
                (&stop, &reloaded, &wrong, &errors, &served, &post_reload_new);
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut i = tid;
                while !stop.load(Ordering::Relaxed) {
                    let (lat, lon) = pool[i % pool.len()];
                    i += 1;
                    let cell = cell_at(LatLon::new(lat, lon).unwrap(), res());
                    // Mark *before* issuing: if the answer comes back
                    // new-chain after this point, the swap is proven to
                    // have happened without dropping the request.
                    let was_reloaded = reloaded.load(Ordering::Relaxed);
                    match client.point_summary(lat, lon) {
                        Ok(got) => {
                            served.fetch_add(1, Ordering::Relaxed);
                            let got = stats_bytes(got.as_ref());
                            let old = stats_bytes(base.summary(cell));
                            let new = stats_bytes(merged.summary(cell));
                            if got != old && got != new {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                            if was_reloaded && got == new && new != old {
                                post_reload_new.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // Let the load establish itself, then extend the chain on disk
        // (delta file first, manifest second) and hot-swap it.
        while served.load(Ordering::Relaxed) < 300 {
            std::thread::yield_now();
        }
        let (delta_len, delta_crc) = entry_for("delta-00001.pol3", &delta);
        pol_core::codec::manifest::save(
            &Manifest {
                entries: vec![
                    base_entry,
                    ManifestEntry {
                        generation: 1,
                        file_len: delta_len,
                        crc: delta_crc,
                        name: "delta-00001.pol3".into(),
                    },
                ],
            },
            &manifest_path,
        )
        .unwrap();
        server.reload_from(&manifest_path).unwrap();
        reloaded.store(true, Ordering::Relaxed);

        // Keep the load running across the swap, then stop.
        let after_swap = served.load(Ordering::Relaxed);
        while served.load(Ordering::Relaxed) < after_swap + 300 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        wrong.load(Ordering::Relaxed),
        0,
        "wrong answers under reload"
    );
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "dropped in-flight queries"
    );
    assert!(
        post_reload_new.load(Ordering::Relaxed) > 0,
        "post-reload answers never surfaced the extended chain"
    );

    // A fresh request sees the new chain and its lineage.
    let report = probe.stats().unwrap();
    assert_eq!(report.delta_generation, 1);
    assert_eq!(report.chain_len, 2);
    assert_eq!(report.reloads_ok, 1);
    assert_eq!(report.reloads_failed, 0);
    let (lat, lon) = pool[0];
    let cell = cell_at(LatLon::new(lat, lon).unwrap(), res());
    assert_eq!(
        stats_bytes(probe.point_summary(lat, lon).unwrap().as_ref()),
        stats_bytes(merged.summary(cell)),
        "fresh post-reload answers must come from the merged chain"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash-recovery serving contract: an ingester journals the wire,
/// publishes a few window deltas, and dies mid-run (no seal, no close).
/// `pol-serve` keeps answering from the surviving chain; a second
/// ingester life recovers from the journal + checkpoint, resumes the
/// wire exactly-once, extends the chain, and a single hot reload brings
/// the server to the recovered lineage — with every answer byte-equal
/// to the chain merged directly from disk.
#[test]
fn ingester_crash_recovery_extends_the_served_chain() {
    use pol_core::codec::manifest;
    use pol_core::records::PortSite;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    use pol_fleetsim::stream::interleave;
    use pol_fleetsim::WORLD_PORTS;
    use pol_stream::{
        recover, DeltaPublisher, JournaledEngine, StreamConfig, StreamEngine, WalConfig, WindowSpec,
    };

    let dir = std::env::temp_dir().join("pol-serve-crash-recovery");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let ds = generate(&ScenarioConfig::tiny());
    let stream_cfg = StreamConfig::default();
    let resolution = stream_cfg.pipeline.resolution;
    let ports: Vec<PortSite> = WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km: stream_cfg.pipeline.port_radius_km,
        })
        .collect();
    let wire: Vec<_> = interleave(ds.positions).collect();
    let spec = WindowSpec {
        start_ts: ds.config.start,
        window_secs: 86_400,
    };
    let engine = pol_engine::Engine::new(2);

    // Life 1: journal + publish until two generations are durable, then
    // abandon everything mid-run — the in-process equivalent of a kill.
    let se = StreamEngine::new(&ds.statics, &ports, stream_cfg.clone());
    let mut je = JournaledEngine::create(&dir, se, WalConfig::default(), 1_000).unwrap();
    let mut publisher = DeltaPublisher::create(&dir);
    let mut killed_at = 0usize;
    for (i, r) in wire.iter().enumerate() {
        je.push(r.clone()).unwrap();
        while je.watermark() >= spec.cut_at(je.window_cuts()) {
            let generation = je.window_cuts();
            let delta = je.take_window_delta(&engine).unwrap();
            publisher.publish_at(generation, &delta).unwrap();
        }
        if je.window_cuts() >= 2 {
            killed_at = i + 1;
            break;
        }
    }
    assert!(killed_at > 0, "wire too short to publish two windows");
    let cuts_at_kill = je.window_cuts();
    drop(je);
    drop(publisher);

    // The survivors serve immediately.
    let manifest_path = dir.join(pol_stream::MANIFEST_NAME);
    let mut server = Server::start_snapshot(&manifest_path, "127.0.0.1:0", test_config()).unwrap();
    let addr = server.local_addr();
    let mut probe = Client::connect(addr).unwrap();
    let before = probe.stats().unwrap();
    assert_eq!(before.chain_len, cuts_at_kill);
    assert_eq!(before.delta_generation, cuts_at_kill - 1);

    // Life 2: recover from journal + checkpoint, resume the wire where
    // the durable journal ends, publish the remaining windows, close.
    let (mut publisher, swept) = DeltaPublisher::open(&dir).unwrap();
    assert!(swept.removed.is_empty(), "no orphans were planted");
    let (mut je, report) = recover(
        &dir,
        &engine,
        &ds.statics,
        &ports,
        stream_cfg.clone(),
        WalConfig::default(),
        1_000,
        Some((&mut publisher, spec)),
    )
    .unwrap();
    assert_eq!(report.deltas_published, 0, "recovery must not re-publish");
    let resume_at = usize::try_from(je.counters().ingested).unwrap();
    assert!(resume_at <= killed_at, "recovery overshot the wire");
    for r in wire.iter().skip(resume_at).cloned() {
        je.push(r).unwrap();
        while je.watermark() >= spec.cut_at(je.window_cuts()) {
            let generation = je.window_cuts();
            let delta = je.take_window_delta(&engine).unwrap();
            publisher.publish_at(generation, &delta).unwrap();
        }
    }
    let final_cuts = je.window_cuts();
    assert!(final_cuts > cuts_at_kill, "the resumed wire grew no window");
    let out = je.close(&engine).unwrap();
    assert_eq!(out.counters.late_dropped, 0);
    assert_eq!(out.counters.ingested, wire.len() as u64);

    // One hot reload brings the server to the recovered lineage.
    server.reload_from(&manifest_path).unwrap();
    let after = probe.stats().unwrap();
    assert_eq!(after.chain_len, final_cuts);
    assert_eq!(after.delta_generation, final_cuts - 1);
    assert_eq!(after.reloads_ok, 1);
    assert_eq!(after.reloads_failed, 0);

    // Every served answer must match the chain merged straight from
    // disk — the recovered generations included.
    let (merged, info) = manifest::load_chain(&manifest_path).unwrap();
    assert_eq!(info.chain_len, final_cuts);
    manifest::verify_chain(&manifest_path).unwrap();
    // Probe the cells the server itself reports occupied (retained trip
    // points are cleaned wire records, so wire positions land in them),
    // plus a spread of arbitrary wire positions for the `None` side.
    let served_cells: std::collections::HashSet<u64> = probe
        .bbox_scan(-89.0, -179.0, 89.0, 179.0)
        .unwrap()
        .into_iter()
        .collect();
    assert!(!served_cells.is_empty(), "recovered chain serves no cells");
    let mut probed_cells = std::collections::HashSet::new();
    let mut occupied = 0usize;
    let stride = (wire.len() / 64).max(1);
    let hits = wire
        .iter()
        .filter(|r| served_cells.contains(&cell_at(r.pos, resolution).raw()))
        .take(512);
    for r in hits.chain(wire.iter().step_by(stride)) {
        let cell = cell_at(r.pos, resolution);
        if !probed_cells.insert(cell.raw()) {
            continue;
        }
        let got = probe.point_summary(r.pos.lat(), r.pos.lon()).unwrap();
        assert_eq!(
            stats_bytes(got.as_ref()),
            stats_bytes(merged.summary(cell)),
            "served answer diverged from the recovered chain"
        );
        occupied += usize::from(merged.summary(cell).is_some());
    }
    assert!(occupied > 0, "probe set never hit an occupied cell");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
