//! The TCP query server: one [`InventoryService`] behind an epoll
//! event loop.
//!
//! [`Server::start`] (an in-process [`Inventory`]) and
//! [`Server::start_snapshot`] (a POLINV3, POLINV2 or POLMAN1 file) both
//! end in the same place: a [`MappedStore`] over a validated POLINV3
//! image, pinned per request behind an `RwLock<Arc<_>>` so a hot reload
//! swaps it between requests and never under one. The
//! [`crate::reactor`] event loop owns every socket and decodes every
//! frame. Bounded-cost lookups ([`Request::runs_inline`]: ping, health,
//! ready, point/segment/route summaries, eta) are executed on the loop
//! thread itself; scans, destination prediction, stats and batches go
//! to a bounded worker pool. Only pool-class requests take an admission
//! slot: beyond `worker_threads + max_pending` of them a request is shed
//! with a typed [`Response::Busy`], and sockets beyond `max_connections`
//! are turned away with one.
//!
//! The event loop is built before `start*` returns, so an
//! `epoll_create1`/`eventfd` failure is that call's `io::Error`. Serving
//! needs epoll, so it runs on Linux; elsewhere `start*` returns
//! [`io::ErrorKind::Unsupported`].
//!
//! Graceful shutdown: [`Server::shutdown`] flips `READY` to false, raises
//! the stop flag and joins the loop, which stops accepting, answers
//! in-flight and already-buffered requests, and closes connections as
//! they go idle — bounded by `drain_timeout`.

use crate::mapped::MappedStore;
use crate::metrics::ServerMetrics;
use crate::proto::{Request, Response, DEFAULT_MAX_FRAME_BYTES};
use parking_lot::RwLock;
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::EtaEstimator;
use pol_core::codec::{columnar, CodecError, SnapshotFormat};
use pol_core::{Inventory, InventoryQuery};
use pol_engine::metrics::StageReport;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex};
use std::borrow::Cow;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing pool-class requests (those for which
    /// [`Request::runs_inline`] is false: scans, destination prediction,
    /// stats, batches). Inline lookups run on the event-loop thread and
    /// do not use the pool.
    pub worker_threads: usize,
    /// Pool-class requests admitted beyond the busy workers before new
    /// ones are shed with [`Response::Busy`]. Inline requests take no
    /// admission slot and are never shed.
    pub max_pending: usize,
    /// Event-loop tick: the shutdown and stall poll interval (capped at
    /// 100 ms).
    pub read_timeout: Duration,
    /// How long a connection may owe bytes without the peer reading
    /// any before it is closed as stalled.
    pub write_timeout: Duration,
    /// Per-frame size cap, both directions.
    pub max_frame_bytes: usize,
    /// How long a draining connection keeps serving after shutdown is
    /// requested. In-flight and already-buffered requests are answered
    /// until the connection goes idle at a frame boundary or this
    /// deadline passes — whichever comes first.
    pub drain_timeout: Duration,
    /// Open-socket ceiling. Arrivals beyond it get a typed
    /// [`Response::Busy`] and a close.
    pub max_connections: usize,
    /// How long a frame may sit partially assembled before the
    /// connection is closed as stalled. The clock anchors to the frame's
    /// *first* byte, so a slow-loris peer dripping one byte per interval
    /// cannot keep resetting it.
    pub stall_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            worker_threads: 8,
            max_pending: 64,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            drain_timeout: Duration::from_secs(2),
            max_connections: 50_000,
            stall_timeout: Duration::from_secs(30),
        }
    }
}

/// The query-execution core: the store and the metrics sink. Shared by
/// every pool worker; also usable directly (without sockets) for
/// in-process querying and tests.
pub struct InventoryService {
    store: MappedStore,
    metrics: Arc<ServerMetrics>,
}

impl InventoryService {
    /// Builds the service over an in-process inventory: encodes it to a
    /// POLINV3 image ([`columnar::to_bytes`]) and serves that from the
    /// heap, recording the encode as a `columnar-encode` `StageReport`.
    pub fn new(inventory: Inventory, metrics: Arc<ServerMetrics>) -> Result<Self, CodecError> {
        let started = Instant::now();
        let store = MappedStore::from_bytes(columnar::to_bytes(&inventory))?;
        metrics.record_stage(StageReport {
            name: "columnar-encode".into(),
            input_records: inventory.total_records(),
            output_records: store.len() as u64,
            shuffled_records: 0,
            wall: started.elapsed(),
        });
        Ok(InventoryService { store, metrics })
    }

    /// Opens a snapshot file, sniffing its format: a POLINV3 file is
    /// memory-mapped zero-copy (validated, not deserialized — the cold
    /// start win); a POLMAN1 delta-chain manifest is loaded
    /// base-plus-deltas (recording the chain lineage for the `STATS`
    /// freshness fields) and a POLINV2 file decoded, each then encoded
    /// like [`InventoryService::new`]. Every path records its startup
    /// cost as a `StageReport`. `_config` is unused: nothing in
    /// [`ServerConfig`] shapes the store.
    pub fn open_snapshot(
        path: &Path,
        _config: &ServerConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Result<Self, CodecError> {
        let started = Instant::now();
        let inventory = match pol_core::codec::sniff_file(path)? {
            Some(SnapshotFormat::V3) => {
                let store = MappedStore::open(path)?;
                metrics.record_stage(StageReport {
                    name: "mmap-open".into(),
                    input_records: store.total_records(),
                    output_records: store.len() as u64,
                    shuffled_records: 0,
                    wall: started.elapsed(),
                });
                metrics.set_chain(0, 1);
                return Ok(InventoryService { store, metrics });
            }
            Some(SnapshotFormat::Manifest) => {
                let (inventory, info) = pol_core::codec::manifest::load_chain(path)?;
                metrics.record_stage(StageReport {
                    name: "chain-load".into(),
                    input_records: info.chain_len,
                    output_records: inventory.len() as u64,
                    shuffled_records: 0,
                    wall: started.elapsed(),
                });
                metrics.set_chain(info.generation, info.chain_len);
                inventory
            }
            _ => {
                let inventory = pol_core::codec::load(path)?;
                metrics.record_stage(StageReport {
                    name: "snapshot-load".into(),
                    input_records: inventory.total_records(),
                    output_records: inventory.len() as u64,
                    shuffled_records: 0,
                    wall: started.elapsed(),
                });
                metrics.set_chain(0, 1);
                inventory
            }
        };
        InventoryService::new(inventory, metrics)
    }

    /// The read store. Always the columnar [`MappedStore`].
    pub fn store(&self) -> &MappedStore {
        &self.store
    }

    /// Executes one request. Invalid arguments (out-of-range coordinates,
    /// inverted boxes) yield [`Response::Error`], never a transport
    /// failure.
    pub fn execute(&self, req: &Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::PointSummary { lat, lon } => match LatLon::new(*lat, *lon) {
                Some(pos) => {
                    let cell = cell_at(pos, self.store.resolution());
                    Response::Summary(self.store.summary(cell).map(Cow::into_owned))
                }
                None => Response::Error("coordinates out of range".into()),
            },
            Request::SegmentSummary { lat, lon, segment } => match LatLon::new(*lat, *lon) {
                Some(pos) => {
                    let cell = cell_at(pos, self.store.resolution());
                    Response::Summary(self.store.summary_for(cell, *segment).map(Cow::into_owned))
                }
                None => Response::Error("coordinates out of range".into()),
            },
            Request::RouteSummary {
                lat,
                lon,
                origin,
                dest,
                segment,
            } => match LatLon::new(*lat, *lon) {
                Some(pos) => {
                    let cell = cell_at(pos, self.store.resolution());
                    Response::Summary(
                        self.store
                            .summary_route(cell, *origin, *dest, *segment)
                            .map(Cow::into_owned),
                    )
                }
                None => Response::Error("coordinates out of range".into()),
            },
            Request::BboxScan {
                min_lat,
                min_lon,
                max_lat,
                max_lon,
            } => match BBox::new(*min_lat, *min_lon, *max_lat, *max_lon) {
                Some(bbox) => Response::Cells(raw(self.store.cells_in(&bbox))),
                None => Response::Error("invalid bounding box".into()),
            },
            Request::TopDestinationCells { dest, segment } => {
                Response::Cells(raw(self.store.cells_with_top_destination(*dest, *segment)))
            }
            Request::Eta {
                lat,
                lon,
                segment,
                route,
            } => match LatLon::new(*lat, *lon) {
                Some(pos) => {
                    let estimator = EtaEstimator::new(&self.store);
                    Response::Eta(estimator.estimate(pos, *segment, *route))
                }
                None => Response::Error("coordinates out of range".into()),
            },
            Request::PredictDestination {
                segment,
                top_n,
                track,
            } => {
                let mut predictor = DestinationPredictor::new(&self.store, *segment);
                for (lat, lon) in track {
                    match LatLon::new(*lat, *lon) {
                        Some(pos) => {
                            predictor.observe(pos);
                        }
                        None => return Response::Error("track coordinate out of range".into()),
                    }
                }
                Response::Destinations(predictor.top(*top_n as usize))
            }
            Request::Stats => {
                // The metrics snapshot knows nothing about the store;
                // fill in its identity and read counters.
                let mut report = self.metrics.snapshot();
                report.store = self.store.name().to_string();
                let counters = self.store.mapped_counters().unwrap_or_default();
                report.mapped_lookups = counters.lookups;
                report.mapped_scan_entries = counters.scan_entries;
                Response::Stats(report)
            }
            Request::Health => Response::Health(self.metrics.health()),
            Request::Ready => Response::Ready(!self.metrics.is_draining()),
            Request::Batch(children) => {
                // One BATCH frame = one Endpoint::Batch latency sample
                // (recorded by the caller); the children are accounted in
                // the batched_requests counter, not double-counted under
                // their own endpoints.
                self.metrics.add_batched(children.len() as u64);
                Response::Batch(children.iter().map(|child| self.execute(child)).collect())
            }
        }
    }
}

fn raw(cells: Vec<CellIndex>) -> Vec<u64> {
    cells.into_iter().map(|c| c.raw()).collect()
}

/// A running server. Dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    loop_handle: Option<JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
    service: Arc<RwLock<Arc<InventoryService>>>,
}

impl Server {
    /// Encodes `inventory` into an in-memory store and starts serving on
    /// `addr` (use port 0 for an ephemeral port; the bound address is
    /// available from [`Server::local_addr`]).
    pub fn start<A: ToSocketAddrs>(
        inventory: Inventory,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let metrics = Arc::new(ServerMetrics::new());
        let service =
            InventoryService::new(inventory, Arc::clone(&metrics)).map_err(invalid_data)?;
        Server::start_with_service(service, metrics, addr, config)
    }

    /// Starts serving straight off a snapshot file, sniffing its format
    /// like [`InventoryService::open_snapshot`]: POLINV3 is memory-mapped
    /// zero-copy (validate, don't deserialize) — the fast cold-start
    /// path `polinv serve` uses.
    pub fn start_snapshot<A: ToSocketAddrs>(
        path: &Path,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let metrics = Arc::new(ServerMetrics::new());
        let service = InventoryService::open_snapshot(path, &config, Arc::clone(&metrics))
            .map_err(invalid_data)?;
        Server::start_with_service(service, metrics, addr, config)
    }

    fn start_with_service<A: ToSocketAddrs>(
        service: InventoryService,
        metrics: Arc<ServerMetrics>,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let service = Arc::new(RwLock::new(Arc::new(service)));
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_handle = spawn_event_loop(
            listener,
            Arc::clone(&service),
            config,
            Arc::clone(&stop),
            Arc::clone(&metrics),
        )?;
        Ok(Server {
            addr: local,
            stop,
            loop_handle: Some(loop_handle),
            metrics,
            service,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Hot-swaps the served snapshot for `inventory` without dropping a
    /// single connection: the new inventory is encoded off to the side,
    /// then an atomic `Arc` swap makes it the live snapshot. Requests
    /// already executing finish on the old snapshot (their clone keeps
    /// it alive); every frame decoded after the swap sees the new one.
    /// The generation counter in `STATS`/`HEALTH` advances. An encoding
    /// that fails validation is returned as an error, `reloads_failed`
    /// advances, and the previous snapshot keeps serving.
    pub fn reload(&self, inventory: Inventory) -> Result<(), CodecError> {
        self.swap_in(InventoryService::new(inventory, Arc::clone(&self.metrics)))
            .map(|()| self.metrics.set_chain(0, 1))
    }

    /// Hot-reloads the snapshot from an inventory file, sniffing its
    /// format like [`Server::start_snapshot`] (a POLMAN1 manifest merges
    /// its base + delta chain and records the lineage in the `STATS`
    /// freshness fields). A corrupt, truncated, or unreadable file —
    /// anywhere in a chain — is rejected by the codec's checksums
    /// *before* anything is swapped: the error is returned,
    /// `reloads_failed` advances, and the previous snapshot keeps
    /// serving untouched.
    pub fn reload_from(&self, path: &Path) -> Result<(), CodecError> {
        self.swap_in(InventoryService::open_snapshot(
            path,
            &ServerConfig::default(),
            Arc::clone(&self.metrics),
        ))
    }

    fn swap_in(&self, fresh: Result<InventoryService, CodecError>) -> Result<(), CodecError> {
        match fresh {
            Ok(service) => {
                *self.service.write() = Arc::new(service);
                self.metrics.reload_succeeded();
                Ok(())
            }
            Err(e) => {
                self.metrics.reload_failed();
                Err(e)
            }
        }
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            // Mark the server draining first so READY flips before the
            // listener goes away, then poke the listener so the loop
            // wakes now rather than at its next tick.
            self.metrics.set_draining();
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn invalid_data(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Builds the event loop on the caller's thread — so an `epoll_create1`
/// or `eventfd` failure is the caller's error — then runs it on its own.
#[cfg(target_os = "linux")]
fn spawn_event_loop(
    listener: TcpListener,
    service: Arc<RwLock<Arc<InventoryService>>>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
) -> io::Result<JoinHandle<()>> {
    let event_loop = crate::reactor::EventLoop::new(listener, service, config, stop, metrics)?;
    std::thread::Builder::new()
        .name("pol-serve-reactor".into())
        .spawn(move || event_loop.run())
}

/// Serving needs epoll; without it there is nothing to start.
#[cfg(not(target_os = "linux"))]
fn spawn_event_loop(
    _listener: TcpListener,
    _service: Arc<RwLock<Arc<InventoryService>>>,
    _config: ServerConfig,
    _stop: Arc<AtomicBool>,
    _metrics: Arc<ServerMetrics>,
) -> io::Result<JoinHandle<()>> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "pol-serve serves through epoll and runs on Linux only",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pol_core::features::{CellStats, GroupKey};
    use pol_sketch::hash::FxHashMap;

    fn empty_inventory() -> Inventory {
        let entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        Inventory::from_entries(pol_hexgrid::Resolution::new(6).unwrap(), entries, 0)
    }

    #[test]
    fn invalid_arguments_yield_typed_errors() {
        let svc = InventoryService::new(empty_inventory(), Arc::new(ServerMetrics::new())).unwrap();
        for req in [
            Request::PointSummary {
                lat: 95.0,
                lon: 0.0,
            },
            Request::BboxScan {
                min_lat: 10.0,
                min_lon: 0.0,
                max_lat: -10.0,
                max_lon: 5.0,
            },
            Request::Eta {
                lat: 0.0,
                lon: 999.0,
                segment: None,
                route: None,
            },
            Request::PredictDestination {
                segment: None,
                top_n: 1,
                track: vec![(200.0, 0.0)],
            },
        ] {
            assert!(
                matches!(svc.execute(&req), Response::Error(_)),
                "{req:?} should be rejected"
            );
        }
    }

    #[test]
    fn stats_request_reports_stage_accounting() {
        let metrics = Arc::new(ServerMetrics::new());
        let svc = InventoryService::new(empty_inventory(), Arc::clone(&metrics)).unwrap();
        match svc.execute(&Request::Stats) {
            Response::Stats(report) => assert!(report.stages.contains("columnar-encode")),
            other => panic!("expected stats, got {other:?}"),
        }
    }
}
