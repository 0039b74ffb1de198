//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message travels as a *frame*: a little-endian `u32` payload
//! length followed by the payload. A payload opens with the protocol
//! version byte and a message tag, then the tag-specific body encoded
//! with the same primitives as the inventory file format (`pol-sketch`'s
//! varint/f64 wire helpers and `pol-core::codec`'s key/stats codecs), so
//! a summary travels over the network in exactly its on-disk encoding.
//!
//! Decoding is hostile-input safe: declared lengths and counts are
//! validated against the bytes that actually remain before any
//! allocation, and every failure is a typed [`ProtoError`] — the server
//! never trusts a frame further than its bytes go. Round-trips are
//! property-tested (`tests/proto_roundtrip.rs`).

use crate::metrics::{Endpoint, EndpointStats, HealthReport, StatsReport};
use pol_ais::types::MarketSegment;
use pol_apps::eta::EtaEstimate;
use pol_core::codec::{decode_cell_stats, encode_cell_stats};
use pol_core::CellStats;
use pol_sketch::wire::{get_f64, get_varint, put_f64, put_varint, WireError};
use std::fmt;
use std::io::{self, Read, Write};

/// Wire protocol version carried in every payload. Decoders accept
/// exactly this version, so a peer speaking any other one gets a typed
/// [`ProtoError::BadVersion`] instead of a misparse. Version 6 dropped
/// the aggregate-cache counters from `STATS`; its body is otherwise
/// version 5's.
pub const PROTO_VERSION: u8 = 6;

/// Upper bound on sub-requests in one `BATCH` frame.
pub const MAX_BATCH: usize = 256;

/// Default per-frame size cap (requests *and* responses).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Upper bound on positions in one destination-prediction request.
pub const MAX_TRACK_POINTS: usize = 4096;

/// Upper bound on an error message carried in a response.
pub const MAX_ERROR_BYTES: usize = 512;

/// Everything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure.
    Io(io::Error),
    /// Structurally invalid payload.
    Wire(WireError),
    /// Peer declared a frame larger than the negotiated cap.
    FrameTooLarge(usize),
    /// Unknown protocol version byte.
    BadVersion(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// The peer closed the connection at a frame boundary.
    ConnectionClosed,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "protocol io error: {e}"),
            Self::Wire(e) => write!(f, "protocol decode error: {e}"),
            Self::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            Self::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::BadTag(t) => write!(f, "unknown message tag {t}"),
            Self::ConnectionClosed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A query against the served inventory.
///
/// The variants cover the full existing `Inventory` query surface plus
/// the two `pol-apps` delegating endpoints (ETA, streaming destination
/// prediction) and the server's own `STATS` introspection endpoint.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// All-traffic summary of the cell containing a position.
    PointSummary {
        /// Latitude, degrees.
        lat: f64,
        /// Longitude, degrees.
        lon: f64,
    },
    /// Per-vessel-type summary of the cell containing a position.
    SegmentSummary {
        /// Latitude, degrees.
        lat: f64,
        /// Longitude, degrees.
        lon: f64,
        /// Market segment to narrow to.
        segment: MarketSegment,
    },
    /// Per-route summary of the cell containing a position.
    RouteSummary {
        /// Latitude, degrees.
        lat: f64,
        /// Longitude, degrees.
        lon: f64,
        /// Origin port id.
        origin: u16,
        /// Destination port id.
        dest: u16,
        /// Market segment of the route key.
        segment: MarketSegment,
    },
    /// All occupied cells whose centre falls inside a bounding box.
    BboxScan {
        /// Southern edge, degrees.
        min_lat: f64,
        /// Western edge, degrees.
        min_lon: f64,
        /// Northern edge, degrees.
        max_lat: f64,
        /// Eastern edge, degrees.
        max_lon: f64,
    },
    /// Occupied cells whose most frequent destination is `dest`.
    TopDestinationCells {
        /// Destination port id to filter on.
        dest: u16,
        /// Optional per-segment narrowing.
        segment: Option<MarketSegment>,
    },
    /// ETA estimate for a vessel at a position (delegates to `pol-apps`).
    Eta {
        /// Latitude, degrees.
        lat: f64,
        /// Longitude, degrees.
        lon: f64,
        /// Optional vessel segment.
        segment: Option<MarketSegment>,
        /// Optional `(origin, dest)` route narrowing.
        route: Option<(u16, u16)>,
    },
    /// Streaming destination prediction over a positional track
    /// (delegates to `pol-apps`).
    PredictDestination {
        /// Optional vessel segment.
        segment: Option<MarketSegment>,
        /// How many ranked destinations to return.
        top_n: u8,
        /// The track, oldest first, as `(lat, lon)` degrees.
        track: Vec<(f64, f64)>,
    },
    /// Server counters and latency histograms.
    Stats,
    /// Liveness/health probe: snapshot generation and drain state.
    Health,
    /// Readiness probe: is the server accepting and serving traffic.
    Ready,
    /// Up to [`MAX_BATCH`] sub-requests answered in one
    /// [`Response::Batch`] frame, in order. Batches do not nest.
    Batch(Vec<Request>),
}

impl Request {
    /// The metrics endpoint this request is accounted under.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Request::Ping => Endpoint::Ping,
            Request::PointSummary { .. } => Endpoint::PointSummary,
            Request::SegmentSummary { .. } => Endpoint::SegmentSummary,
            Request::RouteSummary { .. } => Endpoint::RouteSummary,
            Request::BboxScan { .. } => Endpoint::BboxScan,
            Request::TopDestinationCells { .. } => Endpoint::TopDestinationCells,
            Request::Eta { .. } => Endpoint::Eta,
            Request::PredictDestination { .. } => Endpoint::PredictDestination,
            Request::Stats => Endpoint::Stats,
            Request::Health => Endpoint::Health,
            Request::Ready => Endpoint::Ready,
            Request::Batch(_) => Endpoint::Batch,
        }
    }

    /// Whether retrying this request after a transport failure can be
    /// observed by anyone (the client's automatic-retry gate).
    ///
    /// Every current endpoint is a pure read over an immutable snapshot,
    /// so all are idempotent — but the match is exhaustive on purpose:
    /// adding a mutating endpoint forces the author to decide its retry
    /// semantics here, not inherit "retryable" silently.
    pub fn is_idempotent(&self) -> bool {
        match self {
            Request::Ping
            | Request::PointSummary { .. }
            | Request::SegmentSummary { .. }
            | Request::RouteSummary { .. }
            | Request::BboxScan { .. }
            | Request::TopDestinationCells { .. }
            | Request::Eta { .. }
            | Request::PredictDestination { .. }
            | Request::Stats
            | Request::Health
            | Request::Ready => true,
            // A batch is retryable exactly when every child is.
            Request::Batch(children) => children.iter().all(Request::is_idempotent),
        }
    }
}

/// A reply to one [`Request`].
#[derive(Clone, Debug)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A cell summary (in its canonical `pol-core::codec` encoding on the
    /// wire), or `None` when the cell has no entry at the queried key.
    Summary(Option<CellStats>),
    /// Raw 64-bit cell indices, sorted ascending.
    Cells(Vec<u64>),
    /// An ETA estimate, or `None` when no nearby history exists.
    Eta(Option<EtaEstimate>),
    /// Ranked `(port id, normalised score)` destination predictions.
    Destinations(Vec<(u16, f64)>),
    /// Server counters and latency summaries.
    Stats(StatsReport),
    /// The server is at capacity; retry later. Sent instead of queueing
    /// unboundedly (the backpressure contract).
    Busy,
    /// The request was understood to be invalid, or could not be decoded.
    Error(String),
    /// Reply to [`Request::Health`].
    Health(HealthReport),
    /// Reply to [`Request::Ready`]: `true` when serving, `false` while
    /// draining for shutdown.
    Ready(bool),
    /// Reply to [`Request::Batch`]: one response per sub-request, in the
    /// same order. Batches do not nest.
    Batch(Vec<Response>),
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Incremental frame reader that survives short reads and read timeouts.
///
/// Sockets under a read timeout can deliver a frame in pieces with
/// `WouldBlock`/`TimedOut` errors in between; `std`'s `read_exact` cannot
/// resume after such an error. The accumulator keeps its partial state
/// across [`FrameAccumulator::poll`] calls, so the caller can interleave
/// timeout handling (e.g. a shutdown-flag check) with frame assembly.
#[derive(Default)]
pub struct FrameAccumulator {
    header: [u8; 4],
    filled: usize,
    body: Vec<u8>,
    body_len: Option<usize>,
}

impl FrameAccumulator {
    /// A fresh accumulator with no partial frame.
    pub fn new() -> FrameAccumulator {
        FrameAccumulator::default()
    }

    /// Whether a frame is partially assembled. A draining server uses
    /// this to distinguish "idle at a frame boundary, safe to close"
    /// from "mid-frame, the peer deserves its answer first".
    pub fn is_partial(&self) -> bool {
        self.filled > 0 || self.body_len.is_some()
    }

    /// Feeds at most one `read` call into the pending frame. Returns
    /// `Ok(Some(payload))` when a frame completed, `Ok(None)` when more
    /// bytes are needed. Timeouts surface as `Err(ProtoError::Io)` with
    /// kind `WouldBlock`/`TimedOut` and do **not** lose partial state.
    pub fn poll<R: Read>(
        &mut self,
        r: &mut R,
        max_bytes: usize,
    ) -> Result<Option<Vec<u8>>, ProtoError> {
        match self.body_len {
            None => {
                let n = r.read(&mut self.header[self.filled..])?;
                if n == 0 {
                    return Err(ProtoError::ConnectionClosed);
                }
                self.filled += n;
                if self.filled == 4 {
                    let len = u32::from_le_bytes(self.header) as usize;
                    if len == 0 || len > max_bytes {
                        return Err(ProtoError::FrameTooLarge(len));
                    }
                    self.body = vec![0; len];
                    self.body_len = Some(len);
                    self.filled = 0;
                }
                Ok(None)
            }
            Some(len) => {
                let n = r.read(&mut self.body[self.filled..])?;
                if n == 0 {
                    return Err(ProtoError::ConnectionClosed);
                }
                self.filled += n;
                if self.filled == len {
                    self.filled = 0;
                    self.body_len = None;
                    Ok(Some(std::mem::take(&mut self.body)))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Blocking convenience: reads one full frame (clients; no timeouts).
pub fn read_frame<R: Read>(r: &mut R, max_bytes: usize) -> Result<Vec<u8>, ProtoError> {
    let mut acc = FrameAccumulator::new();
    loop {
        if let Some(payload) = acc.poll(r, max_bytes)? {
            return Ok(payload);
        }
    }
}

// ---------------------------------------------------------------------
// Primitive helpers
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    put_varint(out, v as u64);
}

fn get_u16(input: &mut &[u8]) -> Result<u16, WireError> {
    let v = get_varint(input)?;
    u16::try_from(v).map_err(|_| WireError("port id out of range"))
}

fn put_opt_segment(out: &mut Vec<u8>, seg: Option<MarketSegment>) {
    match seg {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            out.push(s.id());
        }
    }
}

fn get_byte(input: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = input.split_first().ok_or(WireError("payload truncated"))?;
    *input = rest;
    Ok(b)
}

fn get_bool(input: &mut &[u8]) -> Result<bool, WireError> {
    match get_byte(input)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError("bad bool byte")),
    }
}

fn get_segment(input: &mut &[u8]) -> Result<MarketSegment, WireError> {
    MarketSegment::from_id(get_byte(input)?).ok_or(WireError("bad segment id"))
}

fn get_opt_segment(input: &mut &[u8]) -> Result<Option<MarketSegment>, WireError> {
    match get_byte(input)? {
        0 => Ok(None),
        1 => Ok(Some(get_segment(input)?)),
        _ => Err(WireError("bad option tag")),
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let take = bytes.len().min(MAX_ERROR_BYTES);
    // Truncate on a char boundary so the decode side stays valid UTF-8.
    let mut end = take;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    put_varint(out, end as u64);
    out.extend_from_slice(&bytes[..end]);
}

fn get_string(input: &mut &[u8], max: usize) -> Result<String, WireError> {
    let len = get_varint(input)? as usize;
    if len > max || len > input.len() {
        return Err(WireError("string exceeds buffer"));
    }
    let (bytes, rest) = input.split_at(len);
    *input = rest;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError("string not utf-8"))
}

// ---------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------

/// Tag byte of [`Request::Ping`].
pub const REQ_PING: u8 = 0;
/// Tag byte of [`Request::PointSummary`].
pub const REQ_POINT: u8 = 1;
/// Tag byte of [`Request::SegmentSummary`].
pub const REQ_SEGMENT: u8 = 2;
/// Tag byte of [`Request::RouteSummary`].
pub const REQ_ROUTE: u8 = 3;
/// Tag byte of [`Request::BboxScan`].
pub const REQ_BBOX: u8 = 4;
/// Tag byte of [`Request::TopDestinationCells`].
pub const REQ_TOP_DEST: u8 = 5;
/// Tag byte of [`Request::Eta`].
pub const REQ_ETA: u8 = 6;
/// Tag byte of [`Request::PredictDestination`].
pub const REQ_PREDICT: u8 = 7;
/// Tag byte of [`Request::Stats`].
pub const REQ_STATS: u8 = 8;
/// Tag byte of [`Request::Health`].
pub const REQ_HEALTH: u8 = 9;
/// Tag byte of [`Request::Ready`].
pub const REQ_READY: u8 = 10;
/// Tag byte of [`Request::Batch`].
pub const REQ_BATCH: u8 = 11;

/// Serializes a request payload (version byte + tag + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    encode_request_body(req, &mut out);
    out
}

/// Writes a request's tag + body (no version byte) — shared between the
/// top-level payload codec and the per-child encoding inside a batch.
fn encode_request_body(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Ping => out.push(REQ_PING),
        Request::PointSummary { lat, lon } => {
            out.push(REQ_POINT);
            put_f64(out, *lat);
            put_f64(out, *lon);
        }
        Request::SegmentSummary { lat, lon, segment } => {
            out.push(REQ_SEGMENT);
            put_f64(out, *lat);
            put_f64(out, *lon);
            out.push(segment.id());
        }
        Request::RouteSummary {
            lat,
            lon,
            origin,
            dest,
            segment,
        } => {
            out.push(REQ_ROUTE);
            put_f64(out, *lat);
            put_f64(out, *lon);
            put_u16(out, *origin);
            put_u16(out, *dest);
            out.push(segment.id());
        }
        Request::BboxScan {
            min_lat,
            min_lon,
            max_lat,
            max_lon,
        } => {
            out.push(REQ_BBOX);
            for v in [min_lat, min_lon, max_lat, max_lon] {
                put_f64(out, *v);
            }
        }
        Request::TopDestinationCells { dest, segment } => {
            out.push(REQ_TOP_DEST);
            put_u16(out, *dest);
            put_opt_segment(out, *segment);
        }
        Request::Eta {
            lat,
            lon,
            segment,
            route,
        } => {
            out.push(REQ_ETA);
            put_f64(out, *lat);
            put_f64(out, *lon);
            put_opt_segment(out, *segment);
            match route {
                None => out.push(0),
                Some((o, d)) => {
                    out.push(1);
                    put_u16(out, *o);
                    put_u16(out, *d);
                }
            }
        }
        Request::PredictDestination {
            segment,
            top_n,
            track,
        } => {
            out.push(REQ_PREDICT);
            put_opt_segment(out, *segment);
            out.push(*top_n);
            put_varint(out, track.len() as u64);
            for (lat, lon) in track {
                put_f64(out, *lat);
                put_f64(out, *lon);
            }
        }
        Request::Stats => out.push(REQ_STATS),
        Request::Health => out.push(REQ_HEALTH),
        Request::Ready => out.push(REQ_READY),
        Request::Batch(children) => {
            out.push(REQ_BATCH);
            put_varint(out, children.len() as u64);
            for child in children {
                let mut body = Vec::new();
                encode_request_body(child, &mut body);
                put_varint(out, body.len() as u64);
                out.extend_from_slice(&body);
            }
        }
    }
}

/// Consumes the version byte, rejecting anything but [`PROTO_VERSION`].
fn check_version(input: &mut &[u8]) -> Result<(), ProtoError> {
    match get_byte(input)? {
        PROTO_VERSION => Ok(()),
        other => Err(ProtoError::BadVersion(other)),
    }
}

/// Deserializes a request payload. Rejects unknown versions/tags, counts
/// that cannot fit the remaining bytes, and trailing garbage.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut input = payload;
    check_version(&mut input)?;
    let req = decode_request_body(&mut input, true)?;
    if !input.is_empty() {
        return Err(ProtoError::Wire(WireError("trailing bytes")));
    }
    Ok(req)
}

/// Reads a request's tag + body (no version byte). `allow_batch` is
/// false inside a batch child, so batches cannot nest.
fn decode_request_body(input: &mut &[u8], allow_batch: bool) -> Result<Request, ProtoError> {
    let tag = get_byte(input)?;
    let req = match tag {
        REQ_PING => Request::Ping,
        REQ_POINT => Request::PointSummary {
            lat: get_f64(input)?,
            lon: get_f64(input)?,
        },
        REQ_SEGMENT => Request::SegmentSummary {
            lat: get_f64(input)?,
            lon: get_f64(input)?,
            segment: get_segment(input)?,
        },
        REQ_ROUTE => Request::RouteSummary {
            lat: get_f64(input)?,
            lon: get_f64(input)?,
            origin: get_u16(input)?,
            dest: get_u16(input)?,
            segment: get_segment(input)?,
        },
        REQ_BBOX => Request::BboxScan {
            min_lat: get_f64(input)?,
            min_lon: get_f64(input)?,
            max_lat: get_f64(input)?,
            max_lon: get_f64(input)?,
        },
        REQ_TOP_DEST => Request::TopDestinationCells {
            dest: get_u16(input)?,
            segment: get_opt_segment(input)?,
        },
        REQ_ETA => {
            let lat = get_f64(input)?;
            let lon = get_f64(input)?;
            let segment = get_opt_segment(input)?;
            let route = match get_byte(input)? {
                0 => None,
                1 => Some((get_u16(input)?, get_u16(input)?)),
                _ => return Err(ProtoError::Wire(WireError("bad option tag"))),
            };
            Request::Eta {
                lat,
                lon,
                segment,
                route,
            }
        }
        REQ_PREDICT => {
            let segment = get_opt_segment(input)?;
            let top_n = get_byte(input)?;
            let len = get_varint(input)? as usize;
            // Each track point is exactly 16 bytes; a count that cannot
            // fit the remaining payload is rejected before allocating.
            if len > MAX_TRACK_POINTS || len * 16 > input.len() {
                return Err(ProtoError::Wire(WireError("track exceeds buffer")));
            }
            let mut track = Vec::with_capacity(len);
            for _ in 0..len {
                track.push((get_f64(input)?, get_f64(input)?));
            }
            Request::PredictDestination {
                segment,
                top_n,
                track,
            }
        }
        REQ_STATS => Request::Stats,
        REQ_HEALTH => Request::Health,
        REQ_READY => Request::Ready,
        REQ_BATCH if allow_batch => Request::Batch(decode_batch(input, decode_request_body)?),
        other => return Err(ProtoError::BadTag(other)),
    };
    Ok(req)
}

/// Reads a batch body: a child count, then per-child length-prefixed
/// tag+body blobs decoded with `decode_child` (batching disallowed, so
/// batches cannot nest). The count is validated against the bytes that
/// actually remain — every child costs at least two bytes (length prefix
/// + tag) — before any allocation.
fn decode_batch<T>(
    input: &mut &[u8],
    decode_child: impl Fn(&mut &[u8], bool) -> Result<T, ProtoError>,
) -> Result<Vec<T>, ProtoError> {
    let len = get_varint(input)? as usize;
    if len > MAX_BATCH || len * 2 > input.len() {
        return Err(ProtoError::Wire(WireError("batch exceeds buffer")));
    }
    let mut children = Vec::with_capacity(len);
    for _ in 0..len {
        let child_len = get_varint(input)? as usize;
        if child_len > input.len() {
            return Err(ProtoError::Wire(WireError("batch child exceeds buffer")));
        }
        let (child_bytes, rest) = input.split_at(child_len);
        *input = rest;
        let mut child_input = child_bytes;
        let child = decode_child(&mut child_input, false)?;
        if !child_input.is_empty() {
            return Err(ProtoError::Wire(WireError("trailing bytes in batch child")));
        }
        children.push(child);
    }
    Ok(children)
}

// ---------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------

/// Tag byte of [`Response::Pong`].
pub const RESP_PONG: u8 = 0;
/// Tag byte of [`Response::Summary`].
pub const RESP_SUMMARY: u8 = 1;
/// Tag byte of [`Response::Cells`].
pub const RESP_CELLS: u8 = 2;
/// Tag byte of [`Response::Eta`].
pub const RESP_ETA: u8 = 3;
/// Tag byte of [`Response::Destinations`].
pub const RESP_DESTINATIONS: u8 = 4;
/// Tag byte of [`Response::Stats`].
pub const RESP_STATS: u8 = 5;
/// Tag byte of [`Response::Busy`].
pub const RESP_BUSY: u8 = 6;
/// Tag byte of [`Response::Error`].
pub const RESP_ERROR: u8 = 7;
/// Tag byte of [`Response::Health`].
pub const RESP_HEALTH: u8 = 8;
/// Tag byte of [`Response::Ready`].
pub const RESP_READY: u8 = 9;
/// Tag byte of [`Response::Batch`].
pub const RESP_BATCH: u8 = 10;

/// Serializes a response payload (version byte + tag + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    encode_response_body(resp, &mut out);
    out
}

/// Writes a response's tag + body (no version byte) — shared between the
/// top-level payload codec and the per-child encoding inside a batch.
fn encode_response_body(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Pong => out.push(RESP_PONG),
        Response::Summary(stats) => {
            out.push(RESP_SUMMARY);
            match stats {
                None => out.push(0),
                Some(s) => {
                    out.push(1);
                    encode_cell_stats(s, out);
                }
            }
        }
        Response::Cells(cells) => {
            out.push(RESP_CELLS);
            put_varint(out, cells.len() as u64);
            for c in cells {
                put_varint(out, *c);
            }
        }
        Response::Eta(est) => {
            out.push(RESP_ETA);
            match est {
                None => out.push(0),
                Some(e) => {
                    out.push(1);
                    put_f64(out, e.mean_secs);
                    put_f64(out, e.p10_secs);
                    put_f64(out, e.p50_secs);
                    put_f64(out, e.p90_secs);
                    put_varint(out, e.samples);
                    put_varint(out, e.widened as u64);
                }
            }
        }
        Response::Destinations(ranked) => {
            out.push(RESP_DESTINATIONS);
            put_varint(out, ranked.len() as u64);
            for (port, score) in ranked {
                put_u16(out, *port);
                put_f64(out, *score);
            }
        }
        Response::Stats(report) => {
            out.push(RESP_STATS);
            encode_stats_report(report, out);
        }
        Response::Busy => out.push(RESP_BUSY),
        Response::Error(msg) => {
            out.push(RESP_ERROR);
            put_string(out, msg);
        }
        Response::Health(h) => {
            out.push(RESP_HEALTH);
            out.push(h.healthy as u8);
            put_varint(out, h.generation);
            out.push(h.draining as u8);
        }
        Response::Ready(ready) => {
            out.push(RESP_READY);
            out.push(*ready as u8);
        }
        Response::Batch(children) => {
            out.push(RESP_BATCH);
            put_varint(out, children.len() as u64);
            for child in children {
                let mut body = Vec::new();
                encode_response_body(child, &mut body);
                put_varint(out, body.len() as u64);
                out.extend_from_slice(&body);
            }
        }
    }
}

/// Deserializes a response payload with the same hostile-input guards as
/// [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut input = payload;
    check_version(&mut input)?;
    let resp = decode_response_body(&mut input, true)?;
    if !input.is_empty() {
        return Err(ProtoError::Wire(WireError("trailing bytes")));
    }
    Ok(resp)
}

/// Reads a response's tag + body (no version byte). `allow_batch` is
/// false inside a batch child, so batches cannot nest.
fn decode_response_body(input: &mut &[u8], allow_batch: bool) -> Result<Response, ProtoError> {
    let tag = get_byte(input)?;
    let resp = match tag {
        RESP_PONG => Response::Pong,
        RESP_SUMMARY => match get_byte(input)? {
            0 => Response::Summary(None),
            1 => Response::Summary(Some(decode_cell_stats(input)?)),
            _ => return Err(ProtoError::Wire(WireError("bad option tag"))),
        },
        RESP_CELLS => {
            let len = get_varint(input)? as usize;
            // Each cell index is at least one varint byte.
            if len > input.len() {
                return Err(ProtoError::Wire(WireError("cell count exceeds buffer")));
            }
            let mut cells = Vec::with_capacity(len);
            for _ in 0..len {
                cells.push(get_varint(input)?);
            }
            Response::Cells(cells)
        }
        RESP_ETA => match get_byte(input)? {
            0 => Response::Eta(None),
            1 => {
                let mean_secs = get_f64(input)?;
                let p10_secs = get_f64(input)?;
                let p50_secs = get_f64(input)?;
                let p90_secs = get_f64(input)?;
                let samples = get_varint(input)?;
                let widened = u32::try_from(get_varint(input)?)
                    .map_err(|_| WireError("widened out of range"))?;
                Response::Eta(Some(EtaEstimate {
                    mean_secs,
                    p10_secs,
                    p50_secs,
                    p90_secs,
                    samples,
                    widened,
                }))
            }
            _ => return Err(ProtoError::Wire(WireError("bad option tag"))),
        },
        RESP_DESTINATIONS => {
            let len = get_varint(input)? as usize;
            // Each ranked entry is at least 9 bytes (varint port + f64).
            if len > input.len() / 9 {
                return Err(ProtoError::Wire(WireError("ranking exceeds buffer")));
            }
            let mut ranked = Vec::with_capacity(len);
            for _ in 0..len {
                let port = get_u16(input)?;
                let score = get_f64(input)?;
                ranked.push((port, score));
            }
            Response::Destinations(ranked)
        }
        RESP_STATS => Response::Stats(decode_stats_report(input)?),
        RESP_BUSY => Response::Busy,
        RESP_ERROR => Response::Error(get_string(input, MAX_ERROR_BYTES)?),
        RESP_HEALTH => {
            let healthy = get_bool(input)?;
            let generation = get_varint(input)?;
            let draining = get_bool(input)?;
            Response::Health(HealthReport {
                healthy,
                generation,
                draining,
            })
        }
        RESP_READY => Response::Ready(get_bool(input)?),
        RESP_BATCH if allow_batch => Response::Batch(decode_batch(input, decode_response_body)?),
        other => return Err(ProtoError::BadTag(other)),
    };
    Ok(resp)
}

fn encode_stats_report(report: &StatsReport, out: &mut Vec<u8>) {
    put_varint(out, report.total_requests);
    put_varint(out, report.busy_rejections);
    put_varint(out, report.malformed_frames);
    put_varint(out, report.connections);
    put_varint(out, report.generation);
    put_varint(out, report.reloads_ok);
    put_varint(out, report.reloads_failed);
    put_varint(out, report.batched_requests);
    put_varint(out, report.mapped_lookups);
    put_varint(out, report.mapped_scan_entries);
    put_varint(out, report.delta_generation);
    put_varint(out, report.chain_len);
    put_varint(out, report.since_reload_secs);
    put_varint(out, report.open_connections);
    put_varint(out, report.peak_connections);
    put_varint(out, report.ready_events);
    put_varint(out, report.wakeups);
    put_varint(out, report.shed_at_loop);
    put_varint(out, report.write_buffer_high_water);
    put_string(out, &report.store);
    put_varint(out, report.endpoints.len() as u64);
    for ep in &report.endpoints {
        out.push(ep.endpoint.id());
        put_varint(out, ep.count);
        put_f64(out, ep.p50_us);
        put_f64(out, ep.p95_us);
        put_f64(out, ep.p99_us);
        put_f64(out, ep.max_us);
    }
    let bytes = report.stages.as_bytes();
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn decode_stats_report(input: &mut &[u8]) -> Result<StatsReport, ProtoError> {
    let total_requests = get_varint(input)?;
    let busy_rejections = get_varint(input)?;
    let malformed_frames = get_varint(input)?;
    let connections = get_varint(input)?;
    let generation = get_varint(input)?;
    let reloads_ok = get_varint(input)?;
    let reloads_failed = get_varint(input)?;
    let batched_requests = get_varint(input)?;
    let mapped_lookups = get_varint(input)?;
    let mapped_scan_entries = get_varint(input)?;
    let delta_generation = get_varint(input)?;
    let chain_len = get_varint(input)?;
    let since_reload_secs = get_varint(input)?;
    let open_connections = get_varint(input)?;
    let peak_connections = get_varint(input)?;
    let ready_events = get_varint(input)?;
    let wakeups = get_varint(input)?;
    let shed_at_loop = get_varint(input)?;
    let write_buffer_high_water = get_varint(input)?;
    let store = get_string(input, MAX_ERROR_BYTES)?;
    let len = get_varint(input)? as usize;
    // Each endpoint entry is at least 34 bytes (id + count + four f64s).
    if len > input.len() / 34 {
        return Err(ProtoError::Wire(WireError("endpoint count exceeds buffer")));
    }
    let mut endpoints = Vec::with_capacity(len);
    for _ in 0..len {
        let endpoint =
            Endpoint::from_id(get_byte(input)?).ok_or(WireError("unknown endpoint id"))?;
        endpoints.push(EndpointStats {
            endpoint,
            count: get_varint(input)?,
            p50_us: get_f64(input)?,
            p95_us: get_f64(input)?,
            p99_us: get_f64(input)?,
            max_us: get_f64(input)?,
        });
    }
    let stages_len = get_varint(input)? as usize;
    if stages_len > input.len() {
        return Err(ProtoError::Wire(WireError("stage text exceeds buffer")));
    }
    let (bytes, rest) = input.split_at(stages_len);
    *input = rest;
    let stages =
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError("stage text not utf-8"))?;
    Ok(StatsReport {
        total_requests,
        busy_rejections,
        malformed_frames,
        connections,
        generation,
        reloads_ok,
        reloads_failed,
        batched_requests,
        mapped_lookups,
        mapped_scan_entries,
        delta_generation,
        chain_len,
        since_reload_secs,
        open_connections,
        peak_connections,
        ready_events,
        wakeups,
        shed_at_loop,
        write_buffer_high_water,
        store,
        endpoints,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"hello");
    }

    #[test]
    fn frame_cap_enforced() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, 50),
            Err(ProtoError::FrameTooLarge(100))
        ));
    }

    #[test]
    fn zero_length_frame_rejected() {
        let buf = 0u32.to_le_bytes();
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(ProtoError::FrameTooLarge(0))
        ));
    }

    #[test]
    fn accumulator_survives_byte_at_a_time_delivery() {
        let mut framed = Vec::new();
        write_frame(&mut framed, b"stream me").unwrap();
        let mut acc = FrameAccumulator::new();
        let mut got = None;
        for b in &framed {
            let mut one = std::slice::from_ref(b);
            if let Some(p) = acc.poll(&mut one, 1024).unwrap() {
                got = Some(p);
            }
        }
        assert_eq!(got.as_deref(), Some(&b"stream me"[..]));
    }

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Ping,
            Request::PointSummary {
                lat: 51.5,
                lon: -0.1,
            },
            Request::SegmentSummary {
                lat: -33.0,
                lon: 151.0,
                segment: MarketSegment::Tanker,
            },
            Request::RouteSummary {
                lat: 1.0,
                lon: 103.0,
                origin: 4,
                dest: 77,
                segment: MarketSegment::Container,
            },
            Request::BboxScan {
                min_lat: -10.0,
                min_lon: -20.0,
                max_lat: 10.0,
                max_lon: 20.0,
            },
            Request::TopDestinationCells {
                dest: 9,
                segment: None,
            },
            Request::TopDestinationCells {
                dest: 9,
                segment: Some(MarketSegment::Gas),
            },
            Request::Eta {
                lat: 30.0,
                lon: -40.0,
                segment: Some(MarketSegment::DryBulk),
                route: Some((2, 9)),
            },
            Request::PredictDestination {
                segment: None,
                top_n: 3,
                track: vec![(10.0, 10.0), (10.0, 10.5)],
            },
            Request::Stats,
            Request::Health,
            Request::Ready,
            Request::Batch(vec![]),
            Request::Batch(vec![
                Request::Ping,
                Request::RouteSummary {
                    lat: 1.0,
                    lon: 103.0,
                    origin: 4,
                    dest: 77,
                    segment: MarketSegment::Container,
                },
                Request::Eta {
                    lat: 30.0,
                    lon: -40.0,
                    segment: None,
                    route: None,
                },
            ]),
        ];
        for req in reqs {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn nested_batches_rejected() {
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Ping])]);
        let bytes = encode_request(&nested);
        assert!(matches!(
            decode_request(&bytes),
            Err(ProtoError::BadTag(REQ_BATCH))
        ));
        let nested = Response::Batch(vec![Response::Batch(vec![Response::Pong])]);
        let bytes = encode_response(&nested);
        assert!(matches!(
            decode_response(&bytes),
            Err(ProtoError::BadTag(RESP_BATCH))
        ));
    }

    #[test]
    fn hostile_batch_counts_rejected() {
        // Declared child count far beyond the remaining bytes.
        let mut bytes = vec![PROTO_VERSION, REQ_BATCH];
        put_varint(&mut bytes, 1 << 30);
        assert!(decode_request(&bytes).is_err());
        // Count over the batch cap, even with bytes to match.
        let mut bytes = vec![PROTO_VERSION, REQ_BATCH];
        put_varint(&mut bytes, (MAX_BATCH + 1) as u64);
        bytes.extend(
            std::iter::repeat([1u8, REQ_PING])
                .take(MAX_BATCH + 1)
                .flatten(),
        );
        assert!(decode_request(&bytes).is_err());
        // Child length prefix overrunning the payload.
        let mut bytes = vec![PROTO_VERSION, REQ_BATCH];
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, 1000);
        bytes.push(REQ_PING);
        assert!(decode_request(&bytes).is_err());
        // Trailing garbage inside a child blob.
        let mut bytes = vec![PROTO_VERSION, REQ_BATCH];
        put_varint(&mut bytes, 1);
        put_varint(&mut bytes, 2);
        bytes.push(REQ_PING);
        bytes.push(0xEE);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn request_rejects_bad_version_tag_and_trailing() {
        let mut bytes = encode_request(&Request::Ping);
        bytes[0] = 99;
        assert!(matches!(
            decode_request(&bytes),
            Err(ProtoError::BadVersion(99))
        ));
        // A v5 peer's STATS body has the cache counters v6 dropped: it
        // must be refused, not misparsed.
        let mut bytes = encode_response(&Response::Stats(StatsReport::default()));
        bytes[0] = 5;
        assert!(matches!(
            decode_response(&bytes),
            Err(ProtoError::BadVersion(5))
        ));
        let bytes = [PROTO_VERSION, 200];
        assert!(matches!(
            decode_request(&bytes),
            Err(ProtoError::BadTag(200))
        ));
        let mut bytes = encode_request(&Request::Ping);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn hostile_track_count_rejected() {
        let mut bytes = vec![PROTO_VERSION, REQ_PREDICT, 0, 5];
        put_varint(&mut bytes, 1 << 40); // declared points
        bytes.extend_from_slice(&[0; 16]); // one point's worth of bytes
        assert!(decode_request(&bytes).is_err());
    }

    #[test]
    fn hostile_cell_count_rejected() {
        let mut bytes = vec![PROTO_VERSION, RESP_CELLS];
        put_varint(&mut bytes, 1 << 50);
        assert!(decode_response(&bytes).is_err());
    }

    #[test]
    fn simple_responses_round_trip() {
        for resp in [
            Response::Pong,
            Response::Busy,
            Response::Summary(None),
            Response::Eta(None),
            Response::Cells(vec![1, 5, 1 << 60]),
            Response::Destinations(vec![(9, 0.75), (3, 0.25)]),
            Response::Error("coordinates out of range".into()),
            Response::Health(HealthReport {
                healthy: true,
                generation: 7,
                draining: false,
            }),
            Response::Ready(true),
            Response::Ready(false),
            Response::Batch(vec![]),
            Response::Batch(vec![
                Response::Pong,
                Response::Summary(None),
                Response::Cells(vec![3, 9]),
                Response::Error("bad child".into()),
            ]),
        ] {
            let bytes = encode_response(&resp);
            let back = decode_response(&bytes).unwrap();
            assert_eq!(encode_response(&back), bytes, "{resp:?}");
        }
    }

    #[test]
    fn error_message_truncated_on_char_boundary() {
        let long = "é".repeat(MAX_ERROR_BYTES); // 2 bytes per char
        let bytes = encode_response(&Response::Error(long));
        match decode_response(&bytes).unwrap() {
            Response::Error(msg) => assert!(msg.len() <= MAX_ERROR_BYTES),
            other => panic!("expected error, got {other:?}"),
        }
    }
}
