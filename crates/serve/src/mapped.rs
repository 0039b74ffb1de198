//! The read store: a validated POLINV3 columnar image, queried in place.
//!
//! `MappedStore` holds the columnar bytes in a [`MappedFile`] — a live
//! memory map when opened from a POLINV3 file ([`MappedStore::open`]),
//! a heap buffer when built from an in-process inventory or a legacy
//! POLINV2/POLMAN1 input ([`MappedStore::from_bytes`] over
//! [`pol_core::codec::columnar::to_bytes`]). Either way the layout is
//! validated once ([`Layout::parse`] — CRCs, seal, sortedness; no
//! sketch decoding), and then it answers:
//!
//! * point lookups by binary search over the sorted fixed-stride key
//!   column of the right grouping-set section, decoding exactly one
//!   summary from the stats blob;
//! * bbox scans by `partition_point` into the latitude-sorted cell
//!   index, exactly like the heap inventory's band scan;
//! * top-destination scans by binary search into the precomputed
//!   `(dest, segment, cell)` top-dest section — one contiguous run,
//!   no stats decoded.
//!
//! Cold start from a file is the mmap plus one validation pass instead
//! of decoding every sketch of every entry. Every answer is
//! bit-identical to the [`pol_core::Inventory`] it was encoded from —
//! both decode the same canonical stats bytes — which the loopback and
//! `tests/mapped.rs` equivalence tests pin for both backings.
//!
//! The store counts its work (`lookups`, `scan_entries`,
//! `decode_errors`) and surfaces the counters through the STATS
//! endpoint.

use crate::mmap::MappedFile;
use pol_ais::types::MarketSegment;
use pol_core::codec::columnar::{
    cell_key, cell_route_key, cell_type_key, GroupSpan, LatIndexReader, Layout, SectionReader,
    TopDestReader, TOP_DEST_ALL_SEGMENTS,
};
use pol_core::codec::CodecError;
use pol_core::features::CellStats;
use pol_core::InventoryQuery;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{CellIndex, Resolution};
use std::borrow::Cow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing the work a [`MappedStore`] has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MappedCounters {
    /// Point lookups answered by binary search over the mapped file.
    pub lookups: u64,
    /// Section entries / lat-index rows touched by scans.
    pub scan_entries: u64,
    /// Per-entry stats decodes that failed after CRC validation — always
    /// zero unless the encoder is buggy.
    pub decode_errors: u64,
}

/// A read-only query store over a validated POLINV3 image, memory-mapped
/// or heap-resident.
pub struct MappedStore {
    file: MappedFile,
    layout: Layout,
    lookups: AtomicU64,
    scan_entries: AtomicU64,
    decode_errors: AtomicU64,
}

impl MappedStore {
    /// Maps `path` and validates the POLINV3 layout — seal, every
    /// section CRC, key sortedness — before any query can touch it.
    /// The validation reads the mapped bytes themselves, so there is no
    /// gap between what was checked and what is served.
    pub fn open(path: &Path) -> Result<MappedStore, CodecError> {
        MappedStore::over(MappedFile::open(path)?)
    }

    /// Validates a POLINV3 image already in memory (typically
    /// [`pol_core::codec::columnar::to_bytes`] of an in-process
    /// inventory) and serves it from the heap.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<MappedStore, CodecError> {
        MappedStore::over(MappedFile::from_vec(bytes))
    }

    fn over(file: MappedFile) -> Result<MappedStore, CodecError> {
        let layout = Layout::parse(file.bytes())?;
        Ok(MappedStore {
            file,
            layout,
            lookups: AtomicU64::new(0),
            scan_entries: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
        })
    }

    /// Whether the bytes are served from a live memory map (false for
    /// [`MappedStore::from_bytes`] and the heap fallback on platforms
    /// without mmap).
    pub fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }

    /// A short name for metrics and logs: `mapped-columnar` over a live
    /// memory map, `heap-columnar` otherwise.
    pub fn name(&self) -> &'static str {
        if self.is_mapped() {
            "mapped-columnar"
        } else {
            "heap-columnar"
        }
    }

    /// Total group-identifier entries across the grouping sections.
    pub fn len(&self) -> usize {
        self.layout.cell.count + self.layout.cell_type.count + self.layout.cell_route.count
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records summarised by the underlying inventory.
    pub fn total_records(&self) -> u64 {
        self.layout.total_records
    }

    /// The store's work counters (lookups, scan entries, decode errors).
    /// Always `Some`: the `Option` is kept only so callers written
    /// against the earlier two-store API (`perfbench`'s
    /// `store().mapped_counters().unwrap_or_default()`) still compile.
    pub fn mapped_counters(&self) -> Option<MappedCounters> {
        Some(MappedCounters {
            lookups: self.lookups.load(Ordering::Relaxed),
            scan_entries: self.scan_entries.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        })
    }

    fn reader(&self, span: &GroupSpan) -> Option<SectionReader<'_>> {
        SectionReader::new(self.file.bytes(), span)
    }

    /// One binary-searched point lookup + on-demand stats decode.
    fn lookup(&self, span: &GroupSpan, key: &[u8]) -> Option<CellStats> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let reader = self.reader(span)?;
        let i = reader.find(key)?;
        let stats = reader.decode_stats(i);
        if stats.is_none() {
            // CRC-validated bytes that fail to decode mean an encoder
            // bug, not corruption; count it, never panic.
            self.decode_errors.fetch_add(1, Ordering::Relaxed);
        }
        stats
    }

    /// Occupied cells whose centre falls inside a bounding box, sorted
    /// by raw cell index for a canonical reply.
    pub fn cells_in(&self, bbox: &BBox) -> Vec<CellIndex> {
        let Some(lat) = LatIndexReader::new(self.file.bytes(), &self.layout) else {
            return Vec::new();
        };
        let mut raws: Vec<u64> = Vec::new();
        let mut i = lat.lower_bound_lat(bbox.min_lat);
        let mut touched = 0u64;
        while let Some((la, lo, raw)) = lat.row(i) {
            if la > bbox.max_lat {
                break;
            }
            touched += 1;
            if let Some(center) = LatLon::new(la, lo) {
                if bbox.contains(center) {
                    raws.push(raw);
                }
            }
            i += 1;
        }
        self.scan_entries.fetch_add(touched, Ordering::Relaxed);
        raws.sort_unstable();
        raws.into_iter()
            .filter_map(|r| CellIndex::from_raw(r).ok())
            .collect()
    }

    /// Occupied cells whose most frequent destination is `dest`,
    /// optionally per segment — a binary search to the `(dest, segment)`
    /// prefix of the precomputed top-dest section, then one contiguous
    /// run in ascending cell order. No stats are decoded at query time:
    /// the encoder evaluated the same `top_destinations(1)` predicate
    /// per entry when the snapshot was written.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
    ) -> Vec<CellIndex> {
        let Some(reader) = TopDestReader::new(self.file.bytes(), &self.layout) else {
            return Vec::new();
        };
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let seg_byte = segment.map(|s| s.id()).unwrap_or(TOP_DEST_ALL_SEGMENTS);
        let raws = reader.cells_for(dest, seg_byte);
        self.scan_entries
            .fetch_add(raws.len() as u64, Ordering::Relaxed);
        // The section's rows ascend by (dest, segment, cell), so the run
        // is already in ascending cell order — the canonical reply.
        raws.into_iter()
            .filter_map(|r| CellIndex::from_raw(r).ok())
            .collect()
    }
}

impl InventoryQuery for MappedStore {
    fn resolution(&self) -> Resolution {
        self.layout.resolution
    }

    fn summary(&self, cell: CellIndex) -> Option<Cow<'_, CellStats>> {
        self.lookup(&self.layout.cell, &cell_key(cell))
            .map(Cow::Owned)
    }

    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Cow<'_, CellStats>> {
        self.lookup(&self.layout.cell_type, &cell_type_key(cell, segment))
            .map(Cow::Owned)
    }

    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Cow<'_, CellStats>> {
        self.lookup(
            &self.layout.cell_route,
            &cell_route_key(cell, origin, dest, segment),
        )
        .map(Cow::Owned)
    }
}
