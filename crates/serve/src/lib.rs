//! `pol-serve` — a TCP query server over a loaded inventory.
//!
//! The paper's inventory is an offline artefact; this crate puts it
//! online with one of each: one store, one server loop, one wire
//! version.
//!
//! * **Store.** A [`mapped::MappedStore`] over a validated POLINV3
//!   columnar image answers point/route/bbox/top-destination queries
//!   plus the `pol-apps` ETA and destination-prediction endpoints by
//!   binary search, decoding only the summaries it returns. A POLINV3
//!   file is memory-mapped zero-copy ([`mmap::MappedFile`]); an
//!   in-process [`pol_core::Inventory`], a POLINV2 file or a POLMAN1
//!   delta chain is encoded to the same image in memory.
//! * **Loop.** A [`server::Server`] runs the epoll [`reactor`]: one
//!   event loop owning every nonblocking socket, per-connection frame
//!   state machines ([`conn::ConnState`]), and a bounded worker pool
//!   reduced to pure request execution, so tens of thousands of
//!   mostly-idle connections cost no threads. Serving runs on Linux.
//! * **Wire.** A length-prefixed binary protocol ([`proto`]) whose
//!   decoders accept exactly [`proto::PROTO_VERSION`], with request
//!   batching ([`proto::Request::Batch`]) so one frame can carry many
//!   lookups. Every request is accounted in per-endpoint latency
//!   histograms ([`metrics`]).
//!
//! Operational posture: typed [`proto::Response::Busy`] backpressure
//! per *request* at the event loop instead of unbounded queueing,
//! per-frame size caps, write-stall timeouts, a slow-loris
//! frame-assembly deadline anchored to each frame's first byte,
//! hostile-input-safe decoding, and a draining shutdown. The matching
//! [`client::Client`] and the `polload` load generator in `pol-bench`
//! drive it.

#![deny(missing_docs)]

pub mod client;
pub mod conn;
pub mod mapped;
pub mod metrics;
pub mod mmap;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;

pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use mapped::{MappedCounters, MappedStore};
pub use metrics::{Endpoint, EndpointStats, HealthReport, ServerMetrics, StatsReport};
pub use mmap::MappedFile;
pub use proto::{ProtoError, Request, Response, MAX_BATCH, PROTO_VERSION};
pub use server::{InventoryService, Server, ServerConfig};
