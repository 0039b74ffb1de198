//! Store equivalence tests: a [`MappedStore`] — over a migrated POLINV3
//! file, and over the same image encoded in memory — must answer every
//! query — all three summary levels, bbox scans, top-destination scans,
//! and the `pol-apps` estimators built on top — exactly like the heap
//! [`Inventory`] the snapshot came from, while corrupt files are
//! rejected at open time.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_apps::destination::DestinationPredictor;
use pol_apps::eta::EtaEstimator;
use pol_core::codec::{self, columnar, encode_cell_stats};
use pol_core::features::{CellStats, GroupKey};
use pol_core::records::{CellPoint, TripPoint};
use pol_core::{Inventory, InventoryQuery};
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex, Resolution};
use pol_serve::MappedStore;
use pol_sketch::hash::FxHashMap;
use std::path::PathBuf;

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

/// Writes the inventory through the production migration path
/// (POLINV2 bytes → `migrate_v2_bytes` → POLINV3 file) and maps it.
fn migrate_and_map(inv: &Inventory, tag: &str) -> (MappedStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pol-serve-mapped-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let v3 = columnar::migrate_v2_bytes(&codec::to_bytes(inv)).unwrap();
    let path = dir.join("inv.pol3");
    std::fs::write(&path, &v3).unwrap();
    (MappedStore::open(&path).unwrap(), dir)
}

/// The same image served from the heap — `MappedStore::from_bytes` over
/// `columnar::to_bytes`, the path an in-process inventory takes into
/// `Server::start`.
fn in_memory(inv: &Inventory) -> MappedStore {
    let store = MappedStore::from_bytes(columnar::to_bytes(inv)).unwrap();
    assert!(!store.is_mapped());
    store
}

/// CellStats equality is by canonical encoding (no `PartialEq`).
fn stats_bytes(stats: Option<std::borrow::Cow<'_, CellStats>>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        encode_cell_stats(&s, &mut out);
        out
    })
}

fn sorted(mut cells: Vec<CellIndex>) -> Vec<CellIndex> {
    cells.sort_unstable_by_key(|c| c.raw());
    cells
}

/// The core bit-identity claim: every point lookup at every grouping
/// level answers byte-identically from the mapped file and the heap map.
#[test]
fn mapped_store_equals_heap_inventory_on_every_lookup() {
    const N: usize = 700;
    let heap = sample_inventory(N);
    let (mapped, dir) = migrate_and_map(&heap, "lookups");
    assert!(mapped.is_mapped() || cfg!(not(unix)));

    for mapped in [mapped, in_memory(&heap)] {
        assert_eq!(mapped.resolution(), InventoryQuery::resolution(&heap));
        assert_eq!(mapped.len(), heap.len());
        assert_eq!(mapped.total_records(), heap.total_records());

        for i in 0..N {
            let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
            let cell = cell_at(pos, res());
            let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
            let (origin, dest) = ((i % 6) as u16, (i % 8) as u16);
            // The heap inventory's inherent methods return `&CellStats`;
            // qualify through the trait so both sides answer as `Cow`.
            assert_eq!(
                stats_bytes(mapped.summary(cell)),
                stats_bytes(InventoryQuery::summary(&heap, cell)),
                "cell {i}"
            );
            assert_eq!(
                stats_bytes(mapped.summary_for(cell, seg)),
                stats_bytes(InventoryQuery::summary_for(&heap, cell, seg)),
                "cell-type {i}"
            );
            assert_eq!(
                stats_bytes(mapped.summary_route(cell, origin, dest, seg)),
                stats_bytes(InventoryQuery::summary_route(
                    &heap, cell, origin, dest, seg
                )),
                "cell-route {i}"
            );
            // Absent keys answer None from both stores.
            assert!(mapped.summary_route(cell, 400, 401, seg).is_none());
        }
        assert!(mapped.mapped_counters().unwrap().lookups > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Scans agree: bbox queries walk the latitude index, top-destination
/// queries decode every section entry — both must reproduce the heap
/// answers as sets (the wire sorts before replying).
#[test]
fn mapped_store_equals_heap_inventory_on_scans() {
    let heap = sample_inventory(500);
    let (mapped, dir) = migrate_and_map(&heap, "scans");

    for mapped in [mapped, in_memory(&heap)] {
        for i in 0..24usize {
            let lo_lat = -60.0 + (i * 5) as f64;
            let lo_lon = -170.0 + (i * 12) as f64;
            let bbox = BBox::new(lo_lat, lo_lon, lo_lat + 9.0, lo_lon + 15.0).unwrap();
            assert_eq!(
                sorted(mapped.cells_in(&bbox)),
                sorted(heap.cells_in(&bbox)),
                "bbox {i}"
            );
        }
        for dest in 0..8u16 {
            for segment in [None, Some(MarketSegment::from_id(2).unwrap())] {
                assert_eq!(
                    sorted(mapped.cells_with_top_destination(dest, segment)),
                    sorted(heap.cells_with_top_destination(dest, segment)),
                    "top-dest {dest} {segment:?}"
                );
            }
        }
        assert!(mapped.mapped_counters().unwrap().scan_entries > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The estimators are generic over [`InventoryQuery`]; running them
/// against the mapped store must reproduce the heap answers exactly.
#[test]
fn estimators_agree_across_backends() {
    let heap = sample_inventory(600);
    let (mapped, dir) = migrate_and_map(&heap, "estimators");

    for mapped in [mapped, in_memory(&heap)] {
        for i in 0..80usize {
            let pos = LatLon::new(-55.0 + (i % 111) as f64, -170.0 + (i % 340) as f64).unwrap();
            let seg = MarketSegment::from_id((i % 7) as u8).unwrap();
            let route = (i % 2 == 0).then_some(((i % 6) as u16, (i % 8) as u16));
            assert_eq!(
                EtaEstimator::new(&mapped).estimate(pos, Some(seg), route),
                EtaEstimator::new(&heap).estimate(pos, Some(seg), route),
                "eta {i}"
            );

            let track: Vec<LatLon> = (0..5)
                .map(|k| {
                    LatLon::new(
                        -55.0 + ((i + k) % 111) as f64,
                        -170.0 + ((i + k) % 340) as f64,
                    )
                    .unwrap()
                })
                .collect();
            let mut from_mapped = DestinationPredictor::new(&mapped, None);
            let mut from_heap = DestinationPredictor::new(&heap, None);
            for p in &track {
                from_mapped.observe(*p);
                from_heap.observe(*p);
            }
            assert_eq!(from_mapped.top(3), from_heap.top(3), "predict {i}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Corruption is caught at `open` — a mapped store never serves from a
/// damaged file (validation happens before any query runs).
#[test]
fn corrupt_snapshot_is_rejected_at_open() {
    let dir = std::env::temp_dir().join(format!("pol-serve-mapped-bad-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let v3 = columnar::to_bytes(&sample_inventory(200));
    for (name, mutate) in [
        (
            "truncated",
            Box::new(|b: &mut Vec<u8>| b.truncate(b.len() / 2)) as Box<dyn Fn(&mut Vec<u8>)>,
        ),
        (
            "bitflip",
            Box::new(|b: &mut Vec<u8>| {
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
            }),
        ),
        ("empty", Box::new(|b: &mut Vec<u8>| b.clear())),
    ] {
        let mut bytes = v3.clone();
        mutate(&mut bytes);
        let path = dir.join(format!("{name}.pol3"));
        std::fs::write(&path, &bytes).unwrap();
        assert!(MappedStore::open(&path).is_err(), "{name} must not open");
    }
    // A POLINV2 file is not a POLINV3 file.
    let v2path = dir.join("v2.pol");
    codec::save(&sample_inventory(200), &v2path).unwrap();
    assert!(MappedStore::open(&v2path).is_err());

    std::fs::remove_dir_all(&dir).ok();
}
