//! Property tests for the wire protocol: every request/response encoding
//! round-trips, and corrupted or truncated payloads fail typed — never
//! panic, never over-allocate (mirrors the `core::codec` round-trip
//! suite).

use pol_ais::types::MarketSegment;
use pol_apps::eta::EtaEstimate;
use pol_serve::metrics::{Endpoint, EndpointStats, HealthReport, StatsReport};
use pol_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use proptest::prelude::*;

fn arb_segment() -> impl Strategy<Value = MarketSegment> {
    (0u8..7).prop_map(|id| MarketSegment::from_id(id).expect("id in range"))
}

fn arb_simple_request() -> impl Strategy<Value = Request> {
    (
        0u8..11,
        (-90.0f64..90.0, -180.0f64..180.0),
        arb_segment(),
        (0u16..500, 0u16..500),
        prop::option::of(arb_segment()),
        prop::collection::vec((-90.0f64..90.0, -180.0f64..180.0), 0..16),
        0u8..8,
    )
        .prop_map(
            |(variant, (lat, lon), segment, (origin, dest), opt_seg, track, top_n)| match variant {
                0 => Request::Ping,
                1 => Request::PointSummary { lat, lon },
                2 => Request::SegmentSummary { lat, lon, segment },
                3 => Request::RouteSummary {
                    lat,
                    lon,
                    origin,
                    dest,
                    segment,
                },
                4 => Request::BboxScan {
                    min_lat: lat,
                    min_lon: lon,
                    max_lat: (lat + 1.0).min(90.0),
                    max_lon: (lon + 1.0).min(180.0),
                },
                5 => Request::TopDestinationCells {
                    dest,
                    segment: opt_seg,
                },
                6 => Request::Eta {
                    lat,
                    lon,
                    segment: opt_seg,
                    route: (origin % 2 == 0).then_some((origin, dest)),
                },
                7 => Request::PredictDestination {
                    segment: opt_seg,
                    top_n,
                    track,
                },
                8 => Request::Stats,
                9 => Request::Health,
                _ => Request::Ready,
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    // Protocol v3: one frame in five carries several simple requests
    // (nesting is forbidden at the wire level, so children are always
    // simple).
    (
        0u8..5,
        arb_simple_request(),
        prop::collection::vec(arb_simple_request(), 0..5),
    )
        .prop_map(|(sel, simple, children)| {
            if sel == 0 {
                Request::Batch(children)
            } else {
                simple
            }
        })
}

fn arb_eta() -> impl Strategy<Value = EtaEstimate> {
    (
        (0.0f64..1e7, 0.0f64..1e7, 0.0f64..1e7, 0.0f64..1e7),
        0u64..1_000_000,
        0u32..8,
    )
        .prop_map(|((mean, p10, p50, p90), samples, widened)| EtaEstimate {
            mean_secs: mean,
            p10_secs: p10,
            p50_secs: p50,
            p90_secs: p90,
            samples,
            widened,
        })
}

fn arb_stats_report() -> impl Strategy<Value = StatsReport> {
    (
        (0u64..1 << 40, 0u64..1000, 0u64..1000, 0u64..10_000),
        (1u64..1 << 20, 0u64..500, 0u64..500),
        (0u64..1 << 30, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 30, 0u64..1 << 16, 0u64..1 << 24),
        (
            (0u64..20_000, 0u64..20_000),
            (0u64..1 << 40, 0u64..1 << 40),
            (0u64..1 << 30, 0u64..1 << 30),
        ),
        prop::collection::vec(32u8..127, 0..32),
        prop::collection::vec(
            (
                0u8..12,
                0u64..1 << 40,
                (0.0f64..1e4, 0.0f64..1e4, 0.0f64..1e4, 0.0f64..1e5),
            ),
            0..12,
        ),
        prop::collection::vec(32u8..127, 0..200),
    )
        .prop_map(
            |(
                (total, busy, malformed, conns),
                (generation, reloads_ok, reloads_failed),
                (batched, mapped_lookups, mapped_scan_entries),
                (delta_generation, chain_len, since_reload_secs),
                ((open_conns, peak_conns), (ready_events, wakeups), (shed, high_water)),
                store_bytes,
                eps,
                stage_bytes,
            )| StatsReport {
                total_requests: total,
                busy_rejections: busy,
                malformed_frames: malformed,
                connections: conns,
                generation,
                reloads_ok,
                reloads_failed,
                batched_requests: batched,
                mapped_lookups,
                mapped_scan_entries,
                delta_generation,
                chain_len,
                since_reload_secs,
                open_connections: open_conns,
                peak_connections: peak_conns,
                ready_events,
                wakeups,
                shed_at_loop: shed,
                write_buffer_high_water: high_water,
                store: String::from_utf8(store_bytes).expect("ascii"),
                endpoints: eps
                    .into_iter()
                    .map(|(id, count, (p50, p95, p99, max))| EndpointStats {
                        endpoint: Endpoint::from_id(id).expect("id in range"),
                        count,
                        p50_us: p50,
                        p95_us: p95,
                        p99_us: p99,
                        max_us: max,
                    })
                    .collect(),
                stages: String::from_utf8(stage_bytes).expect("ascii"),
            },
        )
}

fn arb_simple_response() -> impl Strategy<Value = Response> {
    (
        0u8..8,
        prop::collection::vec(0u64..u64::MAX, 0..64),
        prop::option::of(arb_eta()),
        prop::collection::vec((0u16..1000, 0.0f64..1.0), 0..12),
        arb_stats_report(),
        prop::collection::vec(32u8..127, 0..600),
        (1u64..1 << 20, 0u8..4),
    )
        .prop_map(
            |(variant, cells, eta, ranked, report, msg, (generation, flags))| match variant {
                0 => Response::Pong,
                1 => Response::Cells(cells),
                2 => Response::Eta(eta),
                3 => Response::Destinations(ranked),
                4 => Response::Stats(report),
                5 => Response::Health(HealthReport {
                    healthy: flags & 1 != 0,
                    generation,
                    draining: flags & 2 != 0,
                }),
                6 => Response::Ready(flags & 1 != 0),
                _ => Response::Error(String::from_utf8(msg).expect("ascii")),
            },
        )
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..5,
        arb_simple_response(),
        prop::collection::vec(arb_simple_response(), 0..4),
    )
        .prop_map(|(sel, simple, children)| {
            if sel == 0 {
                Response::Batch(children)
            } else {
                simple
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request decodes back to itself.
    #[test]
    fn request_encoding_round_trips(req in arb_request()) {
        let bytes = encode_request(&req);
        prop_assert_eq!(decode_request(&bytes).expect("decodes"), req);
    }

    /// Every response re-encodes to identical bytes after a decode
    /// (`Response` holds `CellStats`-adjacent types without `PartialEq`,
    /// so equality is by canonical encoding — same convention as the
    /// inventory codec tests).
    #[test]
    fn response_encoding_round_trips(resp in arb_response()) {
        let bytes = encode_response(&resp);
        let back = decode_response(&bytes).expect("decodes");
        prop_assert_eq!(encode_response(&back), bytes);
    }

    /// No strict prefix of a valid request is itself a valid request:
    /// truncation is always a typed error, never a silent partial decode
    /// (and never a panic or oversized allocation).
    #[test]
    fn truncated_requests_fail_typed(req in arb_request(), cut in 0usize..4096) {
        let bytes = encode_request(&req);
        if bytes.len() > 1 {
            let cut = cut % (bytes.len() - 1);
            prop_assert!(decode_request(&bytes[..cut]).is_err());
        }
    }

    /// Single-byte corruption anywhere in a request payload either decodes
    /// to some request or fails typed — it must never panic.
    #[test]
    fn corrupted_requests_never_panic(req in arb_request(), pos in 0usize..4096, flip in 1u8..255) {
        let mut bytes = encode_request(&req);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let _ = decode_request(&bytes); // must return, Ok or Err
    }

    /// Same for responses, which carry nested variable-length structures.
    #[test]
    fn corrupted_responses_never_panic(resp in arb_response(), pos in 0usize..4096, flip in 1u8..255) {
        let mut bytes = encode_response(&resp);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let _ = decode_response(&bytes);
    }
}

/// Pins every wire tag byte to its named opcode constant: a reordered
/// or reused tag is a silent protocol break that round-trip tests alone
/// cannot see (both sides would shift together). Each encoded payload is
/// `[version, tag, ...body]`, and each constant must also survive a
/// decode of a frame built from it — the coverage `xtask`'s
/// `wire_exhaustive` rule demands.
#[test]
fn every_opcode_constant_is_pinned_to_its_frame_tag() {
    use pol_serve::proto::{
        PROTO_VERSION, REQ_BATCH, REQ_BBOX, REQ_ETA, REQ_HEALTH, REQ_PING, REQ_POINT, REQ_PREDICT,
        REQ_READY, REQ_ROUTE, REQ_SEGMENT, REQ_STATS, REQ_TOP_DEST, RESP_BATCH, RESP_BUSY,
        RESP_CELLS, RESP_DESTINATIONS, RESP_ERROR, RESP_ETA, RESP_HEALTH, RESP_PONG, RESP_READY,
        RESP_STATS, RESP_SUMMARY,
    };

    let seg = MarketSegment::from_id(0).expect("segment 0 exists");
    let requests: Vec<(Request, u8)> = vec![
        (Request::Ping, REQ_PING),
        (Request::PointSummary { lat: 1.0, lon: 2.0 }, REQ_POINT),
        (
            Request::SegmentSummary {
                lat: 1.0,
                lon: 2.0,
                segment: seg,
            },
            REQ_SEGMENT,
        ),
        (
            Request::RouteSummary {
                lat: 1.0,
                lon: 2.0,
                origin: 3,
                dest: 4,
                segment: seg,
            },
            REQ_ROUTE,
        ),
        (
            Request::BboxScan {
                min_lat: -1.0,
                min_lon: -2.0,
                max_lat: 1.0,
                max_lon: 2.0,
            },
            REQ_BBOX,
        ),
        (
            Request::TopDestinationCells {
                dest: 7,
                segment: None,
            },
            REQ_TOP_DEST,
        ),
        (
            Request::Eta {
                lat: 1.0,
                lon: 2.0,
                segment: None,
                route: None,
            },
            REQ_ETA,
        ),
        (
            Request::PredictDestination {
                segment: None,
                top_n: 3,
                track: vec![(1.0, 2.0)],
            },
            REQ_PREDICT,
        ),
        (Request::Stats, REQ_STATS),
        (Request::Health, REQ_HEALTH),
        (Request::Ready, REQ_READY),
        (Request::Batch(vec![Request::Ping]), REQ_BATCH),
    ];
    for (req, tag) in requests {
        let payload = encode_request(&req);
        assert_eq!(payload[0], PROTO_VERSION);
        assert_eq!(payload[1], tag, "request tag drifted for {req:?}");
        let back = decode_request(&payload).expect("pinned payload decodes");
        assert_eq!(back, req);
    }

    let responses: Vec<(Response, u8)> = vec![
        (Response::Pong, RESP_PONG),
        (Response::Summary(None), RESP_SUMMARY),
        (Response::Cells(vec![5, 6]), RESP_CELLS),
        (Response::Eta(None), RESP_ETA),
        (Response::Destinations(vec![(1, 0.5)]), RESP_DESTINATIONS),
        (
            Response::Stats(StatsReport {
                total_requests: 1,
                busy_rejections: 0,
                malformed_frames: 0,
                connections: 1,
                generation: 1,
                reloads_ok: 0,
                reloads_failed: 0,
                batched_requests: 0,
                mapped_lookups: 0,
                mapped_scan_entries: 0,
                delta_generation: 0,
                chain_len: 1,
                since_reload_secs: 0,
                open_connections: 2,
                peak_connections: 3,
                ready_events: 10,
                wakeups: 4,
                shed_at_loop: 1,
                write_buffer_high_water: 256,
                store: "heap".to_string(),
                endpoints: Vec::new(),
                stages: String::new(),
            }),
            RESP_STATS,
        ),
        (Response::Busy, RESP_BUSY),
        (Response::Error("nope".to_string()), RESP_ERROR),
        (
            Response::Health(HealthReport {
                healthy: true,
                generation: 1,
                draining: false,
            }),
            RESP_HEALTH,
        ),
        (Response::Ready(true), RESP_READY),
        (Response::Batch(vec![Response::Pong]), RESP_BATCH),
    ];
    for (resp, tag) in responses {
        let payload = encode_response(&resp);
        assert_eq!(payload[0], PROTO_VERSION);
        assert_eq!(payload[1], tag, "response tag drifted for {resp:?}");
        assert!(decode_response(&payload).is_ok());
    }
}

/// The wire survives a deliberately hostile transport: frames written
/// through the reactor's [`pol_serve::conn::WriteBuffer`] over a sink
/// that fragments, interrupts, and blocks, then read back one byte at a
/// time through a `FrameAccumulator`, must decode to the original
/// requests in order.
#[test]
fn frames_round_trip_over_a_fragmenting_transport() {
    use pol_serve::conn::WriteBuffer;
    use pol_serve::proto::FrameAccumulator;
    use std::io::{self, Read, Write};

    struct Fragmenting {
        sink: Vec<u8>,
        calls: usize,
    }
    impl Write for Fragmenting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 3 == 0 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if self.calls % 7 == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "eagain"));
            }
            let n = buf.len().min(3);
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    struct Drip<'a> {
        data: &'a [u8],
        pos: usize,
    }
    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
            }
            let n = buf.len().min(1);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    let requests = vec![
        Request::Ping,
        Request::PointSummary {
            lat: 42.0,
            lon: -7.5,
        },
        Request::TopDestinationCells {
            dest: 9,
            segment: None,
        },
        Request::Stats,
    ];
    let mut wb = WriteBuffer::new();
    for req in &requests {
        wb.push_frame(&encode_request(req));
    }
    let mut t = Fragmenting {
        sink: Vec::new(),
        calls: 0,
    };
    let mut spins = 0;
    while !wb.is_empty() {
        wb.flush_to(&mut t)
            .expect("fragmenting writes must succeed");
        spins += 1;
        assert!(spins < 10_000, "flush did not converge");
    }

    let mut r = Drip {
        data: &t.sink,
        pos: 0,
    };
    let mut acc = FrameAccumulator::new();
    let mut decoded = Vec::new();
    loop {
        match acc.poll(&mut r, 1 << 20) {
            Ok(Some(payload)) => decoded.push(decode_request(&payload).expect("valid frame")),
            Ok(None) => {}
            Err(e) => {
                assert!(decoded.len() == requests.len(), "stream ended early: {e}");
                break;
            }
        }
    }
    assert_eq!(
        decoded, requests,
        "round-trip must preserve order and content"
    );
}
