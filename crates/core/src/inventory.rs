//! The global inventory: the compact, queryable data model the paper
//! delivers, with the Table-4 coverage/compression accounting.

use crate::features::{CellStats, GroupKey, GroupingSet};
use pol_ais::types::MarketSegment;
use pol_engine::Dataset;
use pol_geo::BBox;
use pol_hexgrid::{cell_center, num_cells, CellIndex, Resolution};
use pol_sketch::hash::{hash64, FxHashMap};
use pol_sketch::MergeSketch;
use std::borrow::Cow;

/// Coverage and compression figures — one row of the paper's Table 4.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverageReport {
    /// Grid resolution.
    pub resolution: u8,
    /// Cells with at least one record (the `#Cells` column).
    pub occupied_cells: u64,
    /// All grid cells at this resolution globally.
    pub total_cells: u64,
    /// Input records summarised.
    pub total_records: u64,
    /// `1 − cells/records` (the `Compression` column).
    pub compression: f64,
    /// `cells / total cells` (the `H3 Utilization` column).
    pub utilization: f64,
}

/// The point-lookup query surface shared by every inventory-shaped store.
///
/// The §4 use cases (ETA estimation, destination prediction) only need
/// cell-keyed lookups at the three grouping-set levels plus the grid
/// resolution. Abstracting that surface lets the same estimators run
/// against the in-memory [`Inventory`] *and* against serving-side stores
/// (e.g. `pol-serve`'s mmap-backed columnar store).
///
/// Lookups return [`Cow`] so heap stores stay zero-copy
/// (`Cow::Borrowed` straight out of their maps) while zero-*deserialize*
/// stores — which decode a summary on demand from mapped file bytes —
/// can hand back `Cow::Owned` through the same surface.
pub trait InventoryQuery {
    /// The store's grid resolution.
    fn resolution(&self) -> Resolution;
    /// The all-traffic summary of a cell.
    fn summary(&self, cell: CellIndex) -> Option<Cow<'_, CellStats>>;
    /// The per-vessel-type summary of a cell.
    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Cow<'_, CellStats>>;
    /// The per-route summary of a cell.
    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Cow<'_, CellStats>>;
}

impl InventoryQuery for Inventory {
    fn resolution(&self) -> Resolution {
        Inventory::resolution(self)
    }

    fn summary(&self, cell: CellIndex) -> Option<Cow<'_, CellStats>> {
        Inventory::summary(self, cell).map(Cow::Borrowed)
    }

    fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<Cow<'_, CellStats>> {
        Inventory::summary_for(self, cell, segment).map(Cow::Borrowed)
    }

    fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<Cow<'_, CellStats>> {
        Inventory::summary_route(self, cell, origin, dest, segment).map(Cow::Borrowed)
    }
}

/// The queryable global inventory of per-cell statistical summaries.
///
/// The entries live in hash shards: key `k` is in
/// `shards[hash64(k) % shards.len()]`, the rule the engine's
/// `radix_partition` scatters by. A fused build or a stream fold hands
/// over the radix merge's per-shard maps as they are
/// ([`Inventory::from_shards`]), so no 2 KB [`CellStats`] is copied or
/// re-hashed after the merge; a decoded inventory is the one-shard case
/// ([`Inventory::from_entries`]). The shard count is never zero.
pub struct Inventory {
    resolution: Resolution,
    shards: Vec<FxHashMap<GroupKey, CellStats>>,
    total_records: u64,
    /// Occupied `(cell)`-grouping-set cells with their centres, sorted by
    /// centre latitude — built once at construction so bbox queries
    /// binary-search a latitude band instead of scanning every entry.
    cell_index: Vec<(pol_geo::LatLon, CellIndex)>,
}

/// The index of the shard that holds `key` among `shards` shards.
fn shard_index(key: &GroupKey, shards: usize) -> usize {
    (hash64(key) % shards as u64) as usize
}

/// The latitude-sorted cell index backing [`Inventory::cells_in`].
fn build_cell_index<'a>(
    keys: impl Iterator<Item = &'a GroupKey>,
) -> Vec<(pol_geo::LatLon, CellIndex)> {
    let mut index: Vec<(pol_geo::LatLon, CellIndex)> = keys
        .filter_map(|k| match k {
            GroupKey::Cell(c) => Some((cell_center(*c), *c)),
            _ => None,
        })
        .collect();
    index.sort_by(|a, b| {
        a.0.lat()
            .total_cmp(&b.0.lat())
            .then_with(|| a.1.raw().cmp(&b.1.raw()))
    });
    index
}

impl Inventory {
    /// Assembles an inventory from the aggregation output.
    pub fn from_dataset(
        resolution: Resolution,
        stats: Dataset<(GroupKey, CellStats)>,
        total_records: u64,
    ) -> Inventory {
        Inventory::from_entries(
            resolution,
            stats.collect().into_iter().collect(),
            total_records,
        )
    }

    /// Builds directly from a key→stats map (deserialization path): the
    /// one-shard inventory.
    pub fn from_entries(
        resolution: Resolution,
        entries: FxHashMap<GroupKey, CellStats>,
        total_records: u64,
    ) -> Inventory {
        Inventory::from_shards(resolution, vec![entries], total_records)
    }

    /// Adopts hash-sharded maps as the inventory's storage, moving no
    /// entry: the output of `pol_engine::merge_combiner_maps`. Key `k`
    /// must be in `shards[hash64(k) % shards.len()]` (checked in debug
    /// builds); an empty `shards` is one empty shard.
    pub fn from_shards(
        resolution: Resolution,
        mut shards: Vec<FxHashMap<GroupKey, CellStats>>,
        total_records: u64,
    ) -> Inventory {
        if shards.is_empty() {
            shards.push(FxHashMap::default());
        }
        debug_assert!(
            shards
                .iter()
                .enumerate()
                .all(|(i, m)| m.keys().all(|k| shard_index(k, shards.len()) == i)),
            "every key must sit in the shard its hash selects"
        );
        let cell_index = build_cell_index(shards.iter().flat_map(|m| m.keys()));
        Inventory {
            resolution,
            shards,
            total_records,
            cell_index,
        }
    }

    /// The inventory's grid resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Records summarised.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Total group-identifier entries across all grouping sets.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FxHashMap::is_empty)
    }

    /// Entries belonging to one grouping set.
    pub fn len_of(&self, gs: GroupingSet) -> usize {
        self.keys().filter(|k| k.grouping_set() == gs).count()
    }

    /// The all-traffic summary of a cell (GI = `(H3-index)`).
    pub fn summary(&self, cell: CellIndex) -> Option<&CellStats> {
        self.get(&GroupKey::Cell(cell))
    }

    /// The per-vessel-type summary of a cell.
    pub fn summary_for(&self, cell: CellIndex, segment: MarketSegment) -> Option<&CellStats> {
        self.get(&GroupKey::CellType(cell, segment))
    }

    /// The per-route summary of a cell (GI = cell, origin, destination,
    /// vessel-type) — the key the route-forecasting use case queries.
    pub fn summary_route(
        &self,
        cell: CellIndex,
        origin: u16,
        dest: u16,
        segment: MarketSegment,
    ) -> Option<&CellStats> {
        self.get(&GroupKey::CellRoute(cell, origin, dest, segment))
    }

    /// Raw access to an arbitrary group key.
    pub fn get(&self, key: &GroupKey) -> Option<&CellStats> {
        self.shards[shard_index(key, self.shards.len())].get(key)
    }

    /// Iterates all entries, shard by shard.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupKey, &CellStats)> {
        self.shards.iter().flat_map(|m| m.iter())
    }

    /// Iterates all keys, shard by shard.
    fn keys(&self) -> impl Iterator<Item = &GroupKey> {
        self.shards.iter().flat_map(|m| m.keys())
    }

    /// All occupied cells (the `(H3-index)` grouping set's key space).
    pub fn cells(&self) -> impl Iterator<Item = CellIndex> + '_ {
        self.keys().filter_map(|k| match k {
            GroupKey::Cell(c) => Some(*c),
            _ => None,
        })
    }

    /// All cells whose `(cell, origin, dest, segment)` entry exists — the
    /// full set of transition locations for a route key (§4.1.3's route
    /// forecasting retrieves exactly this).
    pub fn route_cells(&self, origin: u16, dest: u16, segment: MarketSegment) -> Vec<CellIndex> {
        self.keys()
            .filter_map(|k| match k {
                GroupKey::CellRoute(c, o, d, s) if *o == origin && *d == dest && *s == segment => {
                    Some(*c)
                }
                _ => None,
            })
            .collect()
    }

    /// Occupied cells whose most frequent destination is `dest`
    /// (the paper's Figure 6 filter), optionally per segment.
    pub fn cells_with_top_destination(
        &self,
        dest: u16,
        segment: Option<MarketSegment>,
    ) -> Vec<CellIndex> {
        self.iter()
            .filter_map(|(k, stats)| {
                let cell = match (k, segment) {
                    (GroupKey::Cell(c), None) => *c,
                    (GroupKey::CellType(c, s), Some(want)) if *s == want => *c,
                    _ => return None,
                };
                let top = stats.top_destinations(1);
                (top.first().map(|(d, _)| *d) == Some(dest)).then_some(cell)
            })
            .collect()
    }

    /// Occupied cells whose centre falls inside a bounding box — the
    /// regional views of Figure 4. Binary-searches the latitude-sorted
    /// cell index to scan only the `[min_lat, max_lat]` band instead of
    /// every occupied cell. Results come back in index (latitude) order.
    pub fn cells_in(&self, bbox: &BBox) -> Vec<CellIndex> {
        let lo = self
            .cell_index
            .partition_point(|(center, _)| center.lat() < bbox.min_lat);
        self.cell_index[lo..]
            .iter()
            .take_while(|(center, _)| center.lat() <= bbox.max_lat)
            .filter(|(center, _)| bbox.contains(*center))
            .map(|(_, cell)| *cell)
            .collect()
    }

    /// The Table-4 row for this inventory.
    pub fn coverage(&self) -> CoverageReport {
        let occupied = self.len_of(GroupingSet::Cell) as u64;
        let total_cells = num_cells(self.resolution);
        let compression = if self.total_records > 0 {
            1.0 - occupied as f64 / self.total_records as f64
        } else {
            0.0
        };
        CoverageReport {
            resolution: self.resolution.level(),
            occupied_cells: occupied,
            total_cells,
            total_records: self.total_records,
            compression: compression.max(0.0),
            utilization: occupied as f64 / total_cells as f64,
        }
    }

    /// Merges another inventory (same resolution) into this one — e.g.
    /// month-by-month builds folded into the year.
    ///
    /// # Panics
    /// When resolutions differ.
    pub fn merge(&mut self, other: &Inventory) {
        assert_eq!(
            self.resolution, other.resolution,
            "cannot merge inventories at different resolutions"
        );
        self.total_records += other.total_records;
        let shards = self.shards.len();
        for (k, v) in other.iter() {
            let shard = &mut self.shards[shard_index(k, shards)];
            match shard.get_mut(k) {
                Some(mine) => mine.merge(v),
                None => {
                    shard.insert(*k, v.clone());
                }
            }
        }
        // New cells may have appeared: rebuild the bbox-query index.
        self.cell_index = build_cell_index(self.keys());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{CellPoint, TripPoint};
    use pol_ais::types::Mmsi;
    use pol_geo::LatLon;
    use pol_hexgrid::cell_at;

    fn res() -> Resolution {
        Resolution::new(6).unwrap()
    }

    fn point_at(lat: f64, lon: f64, dest: u16, segment: MarketSegment) -> CellPoint {
        let pos = LatLon::new(lat, lon).unwrap();
        CellPoint {
            point: TripPoint {
                mmsi: Mmsi(5),
                timestamp: 0,
                pos,
                sog_knots: Some(10.0),
                cog_deg: Some(45.0),
                heading_deg: Some(45.0),
                segment,
                trip_id: 1,
                origin: 0,
                dest,
                eto_secs: 100,
                ata_secs: 200,
            },
            cell: cell_at(pos, res()),
            next_cell: None,
        }
    }

    fn build(points: &[CellPoint]) -> Inventory {
        let mut entries: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
        for cp in points {
            for key in [
                GroupKey::Cell(cp.cell),
                GroupKey::CellType(cp.cell, cp.point.segment),
                GroupKey::CellRoute(cp.cell, cp.point.origin, cp.point.dest, cp.point.segment),
            ] {
                entries
                    .entry(key)
                    .or_insert_with(|| CellStats::new(0.02, 8))
                    .observe(cp);
            }
        }
        Inventory::from_entries(res(), entries, points.len() as u64)
    }

    #[test]
    fn query_paths() {
        let seg = MarketSegment::Container;
        let points = vec![
            point_at(50.0, -10.0, 3, seg),
            point_at(50.0, -10.0, 3, seg),
            point_at(20.0, 60.0, 4, MarketSegment::Tanker),
        ];
        let inv = build(&points);
        let cell = points[0].cell;
        assert_eq!(inv.summary(cell).unwrap().records, 2);
        assert_eq!(inv.summary_for(cell, seg).unwrap().records, 2);
        assert!(inv.summary_for(cell, MarketSegment::Gas).is_none());
        assert_eq!(inv.summary_route(cell, 0, 3, seg).unwrap().records, 2);
        assert!(inv.summary_route(cell, 0, 9, seg).is_none());
        assert_eq!(inv.len_of(GroupingSet::Cell), 2);
        assert_eq!(inv.route_cells(0, 3, seg), vec![cell]);
    }

    #[test]
    fn top_destination_filter() {
        let seg = MarketSegment::Container;
        let points = vec![
            point_at(50.0, -10.0, 3, seg),
            point_at(50.0, -10.0, 3, seg),
            point_at(50.0, -10.0, 7, seg),
            point_at(20.0, 60.0, 7, seg),
        ];
        let inv = build(&points);
        let to3 = inv.cells_with_top_destination(3, None);
        assert_eq!(to3, vec![points[0].cell]);
        let to7 = inv.cells_with_top_destination(7, None);
        assert_eq!(to7, vec![points[3].cell]);
        let to7_seg = inv.cells_with_top_destination(7, Some(seg));
        assert_eq!(to7_seg, vec![points[3].cell]);
    }

    #[test]
    fn regional_filter() {
        let points = vec![
            point_at(60.0, 20.0, 1, MarketSegment::Tanker), // Baltic
            point_at(-30.0, -40.0, 1, MarketSegment::Tanker), // South Atlantic
        ];
        let inv = build(&points);
        let baltic = inv.cells_in(&BBox::baltic());
        assert_eq!(baltic, vec![points[0].cell]);
    }

    #[test]
    fn cells_in_matches_full_scan_and_survives_merge() {
        let seg = MarketSegment::Tanker;
        // A latitude ladder spanning the Baltic box boundary plus cells
        // inside the latitude band but outside the longitude range.
        let points: Vec<_> = (0..20)
            .map(|i| point_at(40.0 + i as f64, 20.0, 1, seg))
            .chain((0..5).map(|i| point_at(56.0 + i as f64, -40.0, 1, seg)))
            .collect();
        let mut inv = build(&points);
        let bbox = BBox::baltic();
        let brute: std::collections::BTreeSet<CellIndex> = inv
            .cells()
            .filter(|c| bbox.contains(cell_center(*c)))
            .collect();
        assert!(!brute.is_empty());
        let indexed: std::collections::BTreeSet<CellIndex> =
            inv.cells_in(&bbox).into_iter().collect();
        assert_eq!(indexed, brute);
        // Latitude ordering from the index.
        let lats: Vec<f64> = inv
            .cells_in(&bbox)
            .iter()
            .map(|c| cell_center(*c).lat())
            .collect();
        assert!(lats.windows(2).all(|w| w[0] <= w[1]));
        // Merging in new cells must refresh the index.
        let far = build(&[point_at(58.0, 21.0, 2, seg)]);
        inv.merge(&far);
        let brute2: std::collections::BTreeSet<CellIndex> = inv
            .cells()
            .filter(|c| bbox.contains(cell_center(*c)))
            .collect();
        let indexed2: std::collections::BTreeSet<CellIndex> =
            inv.cells_in(&bbox).into_iter().collect();
        assert_eq!(indexed2, brute2);
        assert!(brute2.len() >= brute.len());
    }

    #[test]
    fn coverage_report_arithmetic() {
        let points: Vec<_> = (0..100)
            .map(|i| point_at(50.0 + (i % 10) as f64, -10.0, 1, MarketSegment::DryBulk))
            .collect();
        let inv = build(&points);
        let cov = inv.coverage();
        assert_eq!(cov.resolution, 6);
        assert_eq!(cov.total_records, 100);
        assert_eq!(cov.occupied_cells, 10);
        assert!((cov.compression - 0.9).abs() < 1e-9);
        assert!(cov.utilization > 0.0 && cov.utilization < 1e-4);
        assert_eq!(cov.total_cells, num_cells(res()));
    }

    #[test]
    fn empty_inventory() {
        let inv = Inventory::from_entries(res(), FxHashMap::default(), 0);
        assert!(inv.is_empty());
        let cov = inv.coverage();
        assert_eq!(cov.compression, 0.0);
        assert_eq!(cov.utilization, 0.0);
    }

    #[test]
    fn merge_folds_entries() {
        let seg = MarketSegment::Container;
        let a = build(&[point_at(50.0, -10.0, 3, seg)]);
        let b = build(&[point_at(50.0, -10.0, 3, seg), point_at(20.0, 60.0, 4, seg)]);
        let mut m = build(&[point_at(50.0, -10.0, 3, seg)]);
        m.merge(&b);
        assert_eq!(m.total_records, a.total_records + b.total_records);
        let cell = cell_at(LatLon::new(50.0, -10.0).unwrap(), res());
        assert_eq!(m.summary(cell).unwrap().records, 2);
        assert_eq!(m.len_of(GroupingSet::Cell), 2);
    }

    #[test]
    #[should_panic(expected = "different resolutions")]
    fn merge_rejects_resolution_mismatch() {
        let mut a = Inventory::from_entries(res(), FxHashMap::default(), 0);
        let b = Inventory::from_entries(Resolution::new(7).unwrap(), FxHashMap::default(), 0);
        a.merge(&b);
    }
}
