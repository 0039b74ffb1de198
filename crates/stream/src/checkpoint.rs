//! POLCKP1 — atomic snapshots of the full streaming-engine state.
//!
//! A checkpoint bounds recovery: instead of replaying the journal from
//! record zero, recovery restores the newest checkpoint and replays
//! only the WAL suffix past [`EngineState::wal_seq`]. For that to
//! reconverge **byte-identically**, the checkpoint must capture every
//! bit of engine state the remaining records' processing depends on:
//!
//! * per vessel — the reorder buffer (with arrival sequence numbers,
//!   so release tie-breaking is preserved), the released frontier, the
//!   cleaner's last surviving report, the trip tracker's port/sequence/
//!   open-passage state, every retained cell point, and the delta
//!   window mark into them;
//! * engine-wide — the arrival counter, the maximum event timestamp,
//!   all ingestion counters, and the delta-window cut count.
//!
//! The format follows the house discipline: magic, one length-framed
//! CRC-64-guarded body, POLSEAL footer, written via
//! [`pol_core::codec::save_bytes`]'s temp-sibling + fsync + atomic
//! rename (so a crash mid-checkpoint leaves the previous checkpoint
//! intact — and the `codec.save.*` chaos failpoints cover this path
//! for free). Loads never trust a byte before the seal and body CRC
//! pass, and never panic on hostile input (`tests/recovery.rs`).

use pol_ais::types::{MarketSegment, Mmsi, NavStatus};
use pol_core::codec::{save_bytes, CodecError, FOOTER_MAGIC};
use pol_core::records::{CellPoint, EnrichedReport, TripPoint};
use pol_geo::LatLon;
use pol_hexgrid::CellIndex;
use pol_sketch::crc64::crc64;
use pol_sketch::wire::{get_f64, get_varint, put_f64, put_varint, WireError};
use std::io;
use std::path::Path;

/// Checkpoint file magic.
pub const MAGIC_CKP: &[u8; 8] = b"POLCKP1\0";

/// File name of the checkpoint inside a journal directory.
pub const CHECKPOINT_NAME: &str = "checkpoint.polckp";

/// One vessel session's checkpointed state.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionState {
    /// Vessel identity (the session key).
    pub mmsi: u32,
    /// Maximum released timestamp.
    pub frontier: i64,
    /// Start of the current delta window within `retained`.
    pub window_mark: u64,
    /// The cleaner's last surviving report.
    pub cleaner_last: Option<EnrichedReport>,
    /// The trip tracker's last port sighting.
    pub last_port: Option<u16>,
    /// The trip tracker's emitted-trip sequence counter.
    pub trip_seq: u32,
    /// The trip tracker's open (unemitted) passage.
    pub open_passage: Vec<EnrichedReport>,
    /// Every projected cell point retained for the close-time fold.
    pub retained: Vec<CellPoint>,
    /// The reorder buffer: `(timestamp, arrival_seq, report)` in key
    /// order.
    pub buffer: Vec<(i64, u64, EnrichedReport)>,
}

/// The complete checkpointed engine state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineState {
    /// Grid resolution echo — restore refuses a config mismatch.
    pub resolution: u8,
    /// Reorder bound echo — restore refuses a config mismatch.
    pub reorder_bound_secs: i64,
    /// WAL batches fully applied to this state: recovery replays
    /// batches with sequence numbers `>= wal_seq`.
    pub wal_seq: u64,
    /// Delta windows cut so far (the next cut publishes generation
    /// `window_cuts`).
    pub window_cuts: u64,
    /// The engine's arrival sequence counter.
    pub arrival_seq: u64,
    /// Maximum event timestamp seen (`i64::MIN` before any record).
    pub max_event_ts: i64,
    /// Ingestion counters, in `IngestCounters` field order.
    pub counters: [u64; 7],
    /// Per-vessel session states, sorted by MMSI (canonical encoding).
    pub sessions: Vec<SessionState>,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

fn get_i64(input: &mut &[u8]) -> Result<i64, WireError> {
    Ok(unzigzag(get_varint(input)?))
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
        None => out.push(0),
    }
}

fn get_u8(input: &mut &[u8]) -> Result<u8, WireError> {
    let (&b, rest) = input.split_first().ok_or(WireError("byte truncated"))?;
    *input = rest;
    Ok(b)
}

fn get_opt_f64(input: &mut &[u8]) -> Result<Option<f64>, WireError> {
    match get_u8(input)? {
        0 => Ok(None),
        1 => get_f64(input).map(Some),
        _ => Err(WireError("bad option tag")),
    }
}

fn put_enriched(out: &mut Vec<u8>, r: &EnrichedReport) {
    put_varint(out, r.mmsi.0 as u64);
    put_i64(out, r.timestamp);
    put_f64(out, r.pos.lat());
    put_f64(out, r.pos.lon());
    put_opt_f64(out, r.sog_knots);
    put_opt_f64(out, r.cog_deg);
    put_opt_f64(out, r.heading_deg);
    out.push(r.nav_status.raw());
    out.push(r.segment.id());
}

fn get_enriched(input: &mut &[u8]) -> Result<EnrichedReport, WireError> {
    let mmsi = u32::try_from(get_varint(input)?)
        .ok()
        .and_then(Mmsi::new)
        .ok_or(WireError("bad mmsi"))?;
    let timestamp = get_i64(input)?;
    let lat = get_f64(input)?;
    let lon = get_f64(input)?;
    let pos = LatLon::new(lat, lon).ok_or(WireError("bad position"))?;
    let sog_knots = get_opt_f64(input)?;
    let cog_deg = get_opt_f64(input)?;
    let heading_deg = get_opt_f64(input)?;
    let nav_status = NavStatus::from_raw(get_u8(input)?);
    let segment = MarketSegment::from_id(get_u8(input)?).ok_or(WireError("bad segment id"))?;
    Ok(EnrichedReport {
        mmsi,
        timestamp,
        pos,
        sog_knots,
        cog_deg,
        heading_deg,
        nav_status,
        segment,
    })
}

fn put_cell_point(out: &mut Vec<u8>, cp: &CellPoint) {
    let p = &cp.point;
    put_varint(out, p.mmsi.0 as u64);
    put_i64(out, p.timestamp);
    put_f64(out, p.pos.lat());
    put_f64(out, p.pos.lon());
    put_opt_f64(out, p.sog_knots);
    put_opt_f64(out, p.cog_deg);
    put_opt_f64(out, p.heading_deg);
    out.push(p.segment.id());
    put_varint(out, p.trip_id);
    put_varint(out, p.origin as u64);
    put_varint(out, p.dest as u64);
    put_i64(out, p.eto_secs);
    put_i64(out, p.ata_secs);
    put_varint(out, cp.cell.raw());
    match cp.next_cell {
        Some(c) => {
            out.push(1);
            put_varint(out, c.raw());
        }
        None => out.push(0),
    }
}

fn get_cell(input: &mut &[u8]) -> Result<CellIndex, WireError> {
    CellIndex::from_raw(get_varint(input)?).map_err(|_| WireError("bad cell index"))
}

fn get_cell_point(input: &mut &[u8]) -> Result<CellPoint, WireError> {
    let mmsi = u32::try_from(get_varint(input)?)
        .ok()
        .and_then(Mmsi::new)
        .ok_or(WireError("bad mmsi"))?;
    let timestamp = get_i64(input)?;
    let lat = get_f64(input)?;
    let lon = get_f64(input)?;
    let pos = LatLon::new(lat, lon).ok_or(WireError("bad position"))?;
    let sog_knots = get_opt_f64(input)?;
    let cog_deg = get_opt_f64(input)?;
    let heading_deg = get_opt_f64(input)?;
    let segment = MarketSegment::from_id(get_u8(input)?).ok_or(WireError("bad segment id"))?;
    let trip_id = get_varint(input)?;
    let origin = u16::try_from(get_varint(input)?).map_err(|_| WireError("bad origin"))?;
    let dest = u16::try_from(get_varint(input)?).map_err(|_| WireError("bad dest"))?;
    let eto_secs = get_i64(input)?;
    let ata_secs = get_i64(input)?;
    let cell = get_cell(input)?;
    let next_cell = match get_u8(input)? {
        0 => None,
        1 => Some(get_cell(input)?),
        _ => return Err(WireError("bad option tag")),
    };
    Ok(CellPoint {
        point: TripPoint {
            mmsi,
            timestamp,
            pos,
            sog_knots,
            cog_deg,
            heading_deg,
            segment,
            trip_id,
            origin,
            dest,
            eto_secs,
            ata_secs,
        },
        cell,
        next_cell,
    })
}

fn put_session(out: &mut Vec<u8>, s: &SessionState) {
    put_varint(out, s.mmsi as u64);
    put_i64(out, s.frontier);
    put_varint(out, s.window_mark);
    match &s.cleaner_last {
        Some(r) => {
            out.push(1);
            put_enriched(out, r);
        }
        None => out.push(0),
    }
    match s.last_port {
        Some(p) => {
            out.push(1);
            put_varint(out, p as u64);
        }
        None => out.push(0),
    }
    put_varint(out, s.trip_seq as u64);
    put_varint(out, s.open_passage.len() as u64);
    for r in &s.open_passage {
        put_enriched(out, r);
    }
    put_varint(out, s.retained.len() as u64);
    for cp in &s.retained {
        put_cell_point(out, cp);
    }
    put_varint(out, s.buffer.len() as u64);
    for (ts, seq, r) in &s.buffer {
        put_i64(out, *ts);
        put_varint(out, *seq);
        put_enriched(out, r);
    }
}

fn get_session(input: &mut &[u8]) -> Result<SessionState, WireError> {
    let mmsi = u32::try_from(get_varint(input)?).map_err(|_| WireError("bad mmsi"))?;
    let frontier = get_i64(input)?;
    let window_mark = get_varint(input)?;
    let cleaner_last = match get_u8(input)? {
        0 => None,
        1 => Some(get_enriched(input)?),
        _ => return Err(WireError("bad option tag")),
    };
    let last_port = match get_u8(input)? {
        0 => None,
        1 => Some(u16::try_from(get_varint(input)?).map_err(|_| WireError("bad port"))?),
        _ => return Err(WireError("bad option tag")),
    };
    let trip_seq = u32::try_from(get_varint(input)?).map_err(|_| WireError("bad trip seq"))?;
    // Counts are decoded without count-based reserves: a hostile count
    // simply runs the decoder into a typed truncation error instead of
    // reserving unbounded memory first.
    let n = get_varint(input)?;
    let mut open_passage = Vec::new();
    for _ in 0..n {
        open_passage.push(get_enriched(input)?);
    }
    let n = get_varint(input)?;
    let mut retained = Vec::new();
    for _ in 0..n {
        retained.push(get_cell_point(input)?);
    }
    let n = get_varint(input)?;
    let mut buffer = Vec::new();
    for _ in 0..n {
        let ts = get_i64(input)?;
        let seq = get_varint(input)?;
        buffer.push((ts, seq, get_enriched(input)?));
    }
    if window_mark > retained.len() as u64 {
        return Err(WireError("window mark past retained points"));
    }
    Ok(SessionState {
        mmsi,
        frontier,
        window_mark,
        cleaner_last,
        last_port,
        trip_seq,
        open_passage,
        retained,
        buffer,
    })
}

/// Serializes a checkpoint to its complete file image (magic through
/// sealed footer). Sessions are sorted by MMSI first, making the
/// encoding canonical: equal states produce identical bytes.
pub fn to_bytes(state: &EngineState) -> Vec<u8> {
    // The body is encoded in place behind its fixed-width length, which
    // is filled in once the body is complete.
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC_CKP);
    let len_at = out.len();
    out.extend_from_slice(&[0; 8]);
    let body_at = out.len();
    out.push(state.resolution);
    put_i64(&mut out, state.reorder_bound_secs);
    put_varint(&mut out, state.wal_seq);
    put_varint(&mut out, state.window_cuts);
    put_varint(&mut out, state.arrival_seq);
    put_i64(&mut out, state.max_event_ts);
    for c in state.counters {
        put_varint(&mut out, c);
    }
    let mut sessions: Vec<&SessionState> = state.sessions.iter().collect();
    sessions.sort_by_key(|s| s.mmsi);
    put_varint(&mut out, sessions.len() as u64);
    for s in sessions {
        put_session(&mut out, s);
    }
    let body_len = (out.len() - body_at) as u64;
    out[len_at..body_at].copy_from_slice(&body_len.to_le_bytes());
    let body_crc = crc64(&out[body_at..]);
    out.extend_from_slice(&body_crc.to_le_bytes());
    let file_len = out.len() as u64 + 16;
    out.extend_from_slice(&file_len.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// Deserializes a checkpoint from a complete file image, proving the
/// footer seal and body CRC before trusting a byte.
pub fn from_bytes(bytes: &[u8]) -> Result<EngineState, CodecError> {
    if bytes.len() < MAGIC_CKP.len() || &bytes[..MAGIC_CKP.len()] != MAGIC_CKP {
        return Err(CodecError::BadHeader);
    }
    if bytes.len() < MAGIC_CKP.len() + 32 {
        return Err(CodecError::Unsealed);
    }
    let seal_at = bytes.len() - FOOTER_MAGIC.len();
    if &bytes[seal_at..] != FOOTER_MAGIC {
        return Err(CodecError::Unsealed);
    }
    let len_at = seal_at - 8;
    let recorded = u64::from_le_bytes(
        bytes[len_at..seal_at]
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    if recorded != bytes.len() as u64 {
        return Err(CodecError::Unsealed);
    }
    let body_len = u64::from_le_bytes(
        bytes[MAGIC_CKP.len()..MAGIC_CKP.len() + 8]
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    let body_at = MAGIC_CKP.len() + 8;
    let body_end = body_at
        .checked_add(usize::try_from(body_len).map_err(|_| CodecError::Unsealed)?)
        .ok_or(CodecError::Unsealed)?;
    if body_end + 8 != len_at {
        return Err(CodecError::Unsealed);
    }
    let body = &bytes[body_at..body_end];
    let body_crc = u64::from_le_bytes(
        bytes[body_end..body_end + 8]
            .try_into()
            .map_err(|_| CodecError::Unsealed)?,
    );
    if crc64(body) != body_crc {
        return Err(CodecError::Checksum { section: "body" });
    }

    let mut input = body;
    let resolution = get_u8(&mut input).map_err(CodecError::Wire)?;
    let reorder_bound_secs = get_i64(&mut input).map_err(CodecError::Wire)?;
    let wal_seq = get_varint(&mut input).map_err(CodecError::Wire)?;
    let window_cuts = get_varint(&mut input).map_err(CodecError::Wire)?;
    let arrival_seq = get_varint(&mut input).map_err(CodecError::Wire)?;
    let max_event_ts = get_i64(&mut input).map_err(CodecError::Wire)?;
    let mut counters = [0u64; 7];
    for c in &mut counters {
        *c = get_varint(&mut input).map_err(CodecError::Wire)?;
    }
    let n = get_varint(&mut input).map_err(CodecError::Wire)?;
    let mut sessions = Vec::new();
    for _ in 0..n {
        sessions.push(get_session(&mut input).map_err(CodecError::Wire)?);
    }
    if !input.is_empty() {
        return Err(CodecError::Wire(WireError("trailing checkpoint bytes")));
    }
    Ok(EngineState {
        resolution,
        reorder_bound_secs,
        wal_seq,
        window_cuts,
        arrival_seq,
        max_event_ts,
        counters,
        sessions,
    })
}

/// Atomically writes a checkpoint file (temp sibling + fsync + rename,
/// with the `codec.save.*` failpoints active on the way).
pub fn save(state: &EngineState, path: &Path) -> io::Result<()> {
    save_bytes(&to_bytes(state), path)
}

/// Loads a checkpoint file. `Ok(None)` when no checkpoint exists yet —
/// recovery then replays the journal from record zero.
pub fn load(path: &Path) -> Result<Option<EngineState>, CodecError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CodecError::Io(e)),
    };
    from_bytes(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enriched(ts: i64) -> EnrichedReport {
        EnrichedReport {
            mmsi: Mmsi(200_000_007),
            timestamp: ts,
            pos: LatLon::new(40.0 + (ts % 9) as f64 * 0.1, 3.0).unwrap(),
            sog_knots: (ts % 2 == 0).then_some(11.0),
            cog_deg: Some(180.0),
            heading_deg: None,
            nav_status: NavStatus::from_raw((ts % 5) as u8),
            segment: MarketSegment::from_id((ts % 6) as u8).unwrap(),
        }
    }

    fn cell_point(ts: i64) -> CellPoint {
        let pos = LatLon::new(42.0, 4.0 + (ts % 7) as f64 * 0.2).unwrap();
        let res = pol_hexgrid::Resolution::new(6).unwrap();
        CellPoint {
            point: TripPoint {
                mmsi: Mmsi(200_000_007),
                timestamp: ts,
                pos,
                sog_knots: Some(9.5),
                cog_deg: None,
                heading_deg: Some(15.0),
                segment: MarketSegment::from_id(1).unwrap(),
                trip_id: 77,
                origin: 3,
                dest: 5,
                eto_secs: ts,
                ata_secs: 10_000 - ts,
            },
            cell: pol_hexgrid::cell_at(pos, res),
            next_cell: (ts % 2 == 0)
                .then(|| pol_hexgrid::cell_at(LatLon::new(42.1, 4.1).unwrap(), res)),
        }
    }

    fn sample_state() -> EngineState {
        EngineState {
            resolution: 6,
            reorder_bound_secs: 300,
            wal_seq: 17,
            window_cuts: 3,
            arrival_seq: 912,
            max_event_ts: 5_000_000,
            counters: [900, 3, 5, 800, 0, 12, 450],
            sessions: vec![
                SessionState {
                    mmsi: 200_000_007,
                    frontier: 4_999_000,
                    window_mark: 2,
                    cleaner_last: Some(enriched(4_999_000)),
                    last_port: Some(4),
                    trip_seq: 9,
                    open_passage: (0..5).map(|i| enriched(4_999_100 + i * 10)).collect(),
                    retained: (0..7).map(|i| cell_point(1_000 + i)).collect(),
                    buffer: (0..4)
                        .map(|i| (4_999_500 + i, 900 + i as u64, enriched(4_999_500 + i)))
                        .collect(),
                },
                SessionState {
                    mmsi: 200_000_001,
                    frontier: i64::MIN,
                    window_mark: 0,
                    cleaner_last: None,
                    last_port: None,
                    trip_seq: 0,
                    open_passage: Vec::new(),
                    retained: Vec::new(),
                    buffer: vec![(10, 1, enriched(10))],
                },
            ],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let state = sample_state();
        let bytes = to_bytes(&state);
        let back = from_bytes(&bytes).unwrap();
        // Canonical encoding sorts sessions by MMSI.
        let mut want = state.clone();
        want.sessions.sort_by_key(|s| s.mmsi);
        assert_eq!(back, want);
    }

    #[test]
    fn encoding_is_canonical_under_session_order() {
        let state = sample_state();
        let mut flipped = state.clone();
        flipped.sessions.reverse();
        assert_eq!(to_bytes(&state), to_bytes(&flipped));
    }

    #[test]
    fn truncation_and_bit_flips_are_typed() {
        let bytes = to_bytes(&sample_state());
        for cut in (0..bytes.len()).step_by(7) {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix {cut} loaded");
        }
        for at in (0..bytes.len()).step_by(11) {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x04;
            assert!(from_bytes(&corrupt).is_err(), "flip at {at} loaded");
        }
    }

    #[test]
    fn file_round_trip_and_missing_is_none() {
        let dir = std::env::temp_dir().join("pol-ckp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_NAME);
        std::fs::remove_file(&path).ok();
        assert!(load(&path).unwrap().is_none());
        save(&sample_state(), &path).unwrap();
        let back = load(&path).unwrap().unwrap();
        assert_eq!(back.wal_seq, 17);
        assert_eq!(back.sessions.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_window_mark_rejected() {
        let mut state = sample_state();
        state.sessions[1].window_mark = 10; // past retained.len()
        let bytes = to_bytes(&state);
        assert!(matches!(from_bytes(&bytes), Err(CodecError::Wire(_))));
    }
}
