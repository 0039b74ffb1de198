//! The sharded inventory answers exactly like the one-map inventory.
//!
//! `run_fused` and `fold_projected` keep the radix merge's per-shard maps
//! as the inventory's storage (`Inventory::from_shards`); the decoders
//! build the one-shard `Inventory::from_entries`. Over the same entries
//! both must answer every query identically, merge into each other in
//! either direction, and encode to the same POLINV2 and POLINV3 bytes.

use pol_ais::types::{MarketSegment, Mmsi};
use pol_core::codec::{self, columnar};
use pol_core::features::{CellStats, GroupKey, GroupingSet};
use pol_core::fused::fold_projected;
use pol_core::records::{CellPoint, PortSite, TripPoint};
use pol_core::{run_fused, Inventory, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use pol_fleetsim::WORLD_PORTS;
use pol_geo::{BBox, LatLon};
use pol_hexgrid::{cell_at, CellIndex};
use std::collections::BTreeSet;

fn port_sites(radius_km: f64) -> Vec<PortSite> {
    WORLD_PORTS
        .iter()
        .enumerate()
        .map(|(i, p)| PortSite {
            id: i as u16,
            name: p.name.to_string(),
            pos: p.pos(),
            radius_km,
        })
        .collect()
}

/// A fused build of the tiny scenario.
fn fused_inventory() -> Inventory {
    let ds = generate(&ScenarioConfig::tiny());
    let cfg = PipelineConfig::default();
    let ports = port_sites(cfg.port_radius_km);
    run_fused(&Engine::new(2), ds.positions, &ds.statics, &ports, &cfg)
        .unwrap()
        .inventory
}

/// A stream-style fold of synthetic tracks: twelve vessels on four
/// routes, overlapping in space so cells carry several types and routes.
fn folded_inventory() -> Inventory {
    let cfg = PipelineConfig::default();
    let mut per_vessel: Vec<(u32, Vec<CellPoint>)> = Vec::new();
    let mut total = 0u64;
    for v in 0..12u32 {
        let mmsi = 900 + v;
        let segment = MarketSegment::from_id((v % 5) as u8).unwrap();
        let (origin, dest) = ((v % 4) as u16, (v % 4 + 3) as u16);
        let mut points = Vec::new();
        for i in 0..60 {
            let pos = LatLon::new(
                40.0 + i as f64 * 0.2,
                -20.0 + v as f64 * 0.5 + i as f64 * 0.1,
            )
            .unwrap();
            points.push(CellPoint {
                point: TripPoint {
                    mmsi: Mmsi(mmsi),
                    timestamp: i64::from(i) * 600,
                    pos,
                    sog_knots: Some(8.0 + f64::from(v)),
                    cog_deg: Some(f64::from(i * 7 % 360)),
                    heading_deg: Some(f64::from(i * 11 % 360)),
                    segment,
                    trip_id: TripPoint::make_trip_id(Mmsi(mmsi), 1),
                    origin,
                    dest,
                    eto_secs: i64::from(i) * 600,
                    ata_secs: i64::from(60 - i) * 600,
                },
                cell: cell_at(pos, cfg.resolution),
                next_cell: None,
            });
        }
        total += points.len() as u64;
        per_vessel.push((mmsi, points));
    }
    fold_projected(&Engine::new(2), &cfg, per_vessel, total).unwrap()
}

/// The one-shard inventory over the same entries.
fn one_map(inv: &Inventory) -> Inventory {
    let entries = inv.iter().map(|(k, v)| (*k, v.clone())).collect();
    Inventory::from_entries(inv.resolution(), entries, inv.total_records())
}

fn stats_bytes(stats: Option<&CellStats>) -> Option<Vec<u8>> {
    stats.map(|s| {
        let mut out = Vec::new();
        codec::encode_cell_stats(s, &mut out);
        out
    })
}

fn sorted(cells: impl IntoIterator<Item = CellIndex>) -> Vec<u64> {
    let mut raw: Vec<u64> = cells.into_iter().map(|c| c.raw()).collect();
    raw.sort_unstable();
    raw
}

/// Every query `a` answers, `b` answers the same way.
fn assert_same_answers(a: &Inventory, b: &Inventory) {
    assert!(!a.is_empty());
    assert_eq!(a.is_empty(), b.is_empty());
    assert_eq!(a.len(), b.len());
    assert_eq!(a.resolution(), b.resolution());
    assert_eq!(a.total_records(), b.total_records());
    for gs in GroupingSet::ALL {
        assert_eq!(a.len_of(gs), b.len_of(gs), "len_of({gs:?})");
    }
    assert_eq!(a.coverage(), b.coverage());

    let mut routes = BTreeSet::new();
    let mut dests = BTreeSet::new();
    for (key, stats) in b.iter() {
        let want = stats_bytes(Some(stats));
        assert_eq!(stats_bytes(a.get(key)), want, "get({key:?})");
        let typed = match *key {
            GroupKey::Cell(c) => a.summary(c),
            GroupKey::CellType(c, s) => a.summary_for(c, s),
            GroupKey::CellRoute(c, o, d, s) => {
                routes.insert((o, d, s.id()));
                a.summary_route(c, o, d, s)
            }
        };
        assert_eq!(stats_bytes(typed), want, "typed summary of {key:?}");
        for (d, _) in stats.top_destinations(1) {
            dests.insert(d);
        }
    }
    // Keys neither holds answer `None` from both.
    for cell in b.cells() {
        let absent = GroupKey::CellRoute(cell, u16::MAX, u16::MAX, MarketSegment::Container);
        assert!(a.get(&absent).is_none() && b.get(&absent).is_none());
    }

    assert_eq!(sorted(a.cells()), sorted(b.cells()));
    let boxes = [
        BBox::baltic(),
        BBox::english_channel(),
        BBox::new(-90.0, -180.0, 90.0, 180.0).unwrap(),
        BBox::new(35.0, -30.0, 55.0, 10.0).unwrap(),
    ];
    for bbox in &boxes {
        // The index is sorted by latitude, then raw id: same order too.
        assert_eq!(a.cells_in(bbox), b.cells_in(bbox), "cells_in({bbox:?})");
    }
    assert!(!routes.is_empty());
    for &(o, d, s) in &routes {
        let seg = MarketSegment::from_id(s).unwrap();
        assert_eq!(
            sorted(a.route_cells(o, d, seg)),
            sorted(b.route_cells(o, d, seg)),
            "route_cells({o}, {d}, {seg:?})"
        );
    }
    for &dest in &dests {
        for segment in [
            None,
            Some(MarketSegment::Container),
            Some(MarketSegment::Tanker),
        ] {
            assert_eq!(
                sorted(a.cells_with_top_destination(dest, segment)),
                sorted(b.cells_with_top_destination(dest, segment)),
                "cells_with_top_destination({dest}, {segment:?})"
            );
        }
    }

    assert_eq!(codec::to_bytes(a), codec::to_bytes(b), "POLINV2 bytes");
    assert_eq!(
        columnar::to_bytes(a),
        columnar::to_bytes(b),
        "POLINV3 bytes"
    );
}

#[test]
fn fused_inventory_answers_like_one_map() {
    let sharded = fused_inventory();
    assert_same_answers(&sharded, &one_map(&sharded));
}

#[test]
fn folded_inventory_answers_like_one_map() {
    let sharded = folded_inventory();
    assert_same_answers(&sharded, &one_map(&sharded));
}

#[test]
fn decoded_inventory_answers_like_the_sharded_build() {
    let sharded = fused_inventory();
    let v2 = codec::from_bytes(&codec::to_bytes(&sharded)).unwrap();
    assert_same_answers(&sharded, &v2);
    let v3 = columnar::from_bytes(&columnar::to_bytes(&sharded)).unwrap();
    assert_same_answers(&sharded, &v3);
}

#[test]
fn merge_across_layouts_in_both_directions() {
    let (fused, folded) = (fused_inventory(), folded_inventory());
    // The reference: both one-map.
    let mut reference = one_map(&fused);
    reference.merge(&one_map(&folded));

    // Sharded into one-map.
    let mut into_single = one_map(&fused);
    into_single.merge(&folded);
    assert_same_answers(&into_single, &reference);

    // One-map into sharded.
    let mut into_sharded = fused_inventory();
    into_sharded.merge(&one_map(&folded));
    assert_same_answers(&into_sharded, &reference);

    // Sharded into sharded.
    let mut both = fused_inventory();
    both.merge(&folded);
    assert_same_answers(&both, &reference);
}
