//! The fused morsel-driven build executor.
//!
//! [`crate::pipeline::run`] materializes a full `Dataset` between every
//! stage: clean → trips → project → group-keys are four barrier-separated
//! passes, each allocating a complete intermediate copy of the data. At
//! paper scale (§3.3, 2.7 B reports) those intermediates dominate the
//! build. [`run_fused`] executes the same methodology as **one pass per
//! vessel partition**: after a single scan-enrich-shuffle, each partition
//! task walks its vessels as morsels — clean, trip-extract, project and
//! fold into the per-key accumulators with scratch buffers reused across
//! morsels — then hands radix-partitioned combiners to the engine's
//! parallel shard merge.
//!
//! ## Bit-identity with the staged path
//!
//! The fused executor is not "approximately" the staged pipeline — it
//! produces a byte-identical inventory (tested in
//! `tests/pipeline_properties.rs` and in `crate::pipeline`'s
//! thread-invariance test). That holds because every ordering decision
//! the staged path makes is replicated:
//!
//! * records scatter to `engine.default_partitions()` buckets by
//!   `hash64(mmsi) % num` — the same hash, count and input-partition
//!   concatenation order as `partition_by_key`. The scatter is two-pass
//!   (count, then write into exactly-sized per-worker buckets) and the
//!   driver moves whole chunk vectors, never records, so workers share
//!   nothing;
//! * within a partition, one unstable sort over `(mmsi, timestamp,
//!   arrival index)` replaces per-vessel grouping + per-vessel stable
//!   timestamp sort: the arrival index makes the key total (no equal
//!   keys), so the order is exactly ascending-MMSI vessels, each stably
//!   time-sorted — what [`crate::clean::order_and_filter_vessel`]
//!   produces vessel by vessel;
//! * the per-vessel machinery is literally shared: cleaning folds the
//!   same [`crate::clean::VesselCleaner`] state machine, trip extraction
//!   folds the same [`crate::trips::TripTracker`] (via
//!   [`crate::trips::extract_for_vessel_with`], reusing one tracker
//!   across morsels), projection is [`crate::project::project_trip`];
//! * trip ids are monotone in (mmsi, seq), so per-vessel emission order
//!   equals the staged path's whole-partition sort by trip id;
//! * group keys fan out `[Cell, CellType, CellRoute]` per record, giving
//!   identical accumulator insertion order, and the reduce half is the
//!   same per-shard merge the staged `aggregate_by_key` uses
//!   ([`pol_engine::merge_combiner_maps`], which
//!   [`pol_engine::merge_combiner_shards`] wraps).
//!
//! ## The merge output is the inventory
//!
//! The staged path flattens its merge output into a `Dataset` and
//! re-hashes it into a one-map [`Inventory`]. The fused path does
//! neither: [`pol_engine::merge_combiner_maps`] hands back the merge
//! tasks' own maps, one per radix shard, and [`Inventory::from_shards`]
//! adopts them as its storage. Each [`CellStats`] accumulator (about
//! 2 KB, its sketches inline) is moved once into its shard's map, which
//! is sized before the merge starts, and never again: no rehash, no
//! flattened `Vec`, no second map. Keys stay where `radix_partition` put
//! them (`hash64(key) % shards`), so lookups find their shard by the
//! same rule, and the encoders sort entries by key, so the bytes are
//! those of the staged build.

use crate::clean::{enrich_one, segment_lookup, CleanReport, VesselCleaner};
use crate::config::PipelineConfig;
use crate::error::PipelineError;
use crate::features::{CellStats, GroupKey};
use crate::inventory::Inventory;
use crate::pipeline::{PipelineOutput, StageCounts};
use crate::project::project_trip;
use crate::records::{CellPoint, EnrichedReport, PortSite, TripPoint};
use crate::trips::{extract_for_vessel_with, Geofence, TripTracker};
use pol_ais::{PositionReport, StaticReport};
use pol_engine::{merge_combiner_maps, radix_partition, Engine, StageReport};
use pol_hexgrid::CellIndex;
use pol_sketch::hash::{hash64, FxHashMap};
use pol_sketch::MergeSketch;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

/// Per-worker scratch for the fused build phase, held in a `thread_local`
/// so each pool worker allocates its large transient buffers once and
/// reuses them for every task it runs. This matters beyond the allocation
/// *count*: the buffers are hundreds of KB each, which the system
/// allocator services with `mmap`/`munmap` — and concurrent unmapping
/// serializes workers on the process memory-map lock. Reuse only changes
/// where the bytes live, never what they are, so bit-identity is
/// untouched.
#[derive(Default)]
struct BuildScratch {
    /// Concatenated shuffle chunks for the current bucket.
    records: Vec<EnrichedReport>,
    /// `(mmsi, timestamp, arrival index)` sort keys over `records`.
    keys: Vec<(u32, i64, u32)>,
    /// Per-vessel cleaned reports.
    cleaned: Vec<EnrichedReport>,
    /// Per-vessel trip points.
    trips: Vec<TripPoint>,
    /// Per-trip projected cell points.
    cells: Vec<CellPoint>,
    /// `project_trip`'s cell-index working set.
    cell_scratch: Vec<CellIndex>,
    /// The shared trip state machine (its in-progress buffer grows to the
    /// largest vessel, so it is worth keeping warm too). `None` until the
    /// worker's first task; `TripTracker::reset` re-arms it per morsel.
    tracker: Option<TripTracker>,
}

thread_local! {
    static BUILD_SCRATCH: RefCell<BuildScratch> = RefCell::new(BuildScratch::default());
    /// Scan-phase scratch: the enrich pass's survivor buffer.
    static SCAN_SCRATCH: RefCell<Vec<EnrichedReport>> = const { RefCell::new(Vec::new()) };
}

/// Per-task output of the scan-enrich phase.
struct ScanOut {
    /// Enriched records, bucketed by `hash64(mmsi) % num`.
    buckets: Vec<Vec<EnrichedReport>>,
    raw: u64,
    out_of_range: u64,
}

/// Per-task output of the fused build phase.
struct BuildOut {
    /// Radix-partitioned per-key combiners for the parallel shard merge.
    shards: Vec<Vec<(GroupKey, CellStats)>>,
    cleaned: u64,
    with_trips: u64,
    morsels: u64,
}

/// Runs the full methodology as a fused single pass per vessel partition.
/// Same inputs, same outputs — bit-identical inventory, [`StageCounts`]
/// and [`CleanReport`] — as [`crate::pipeline::run`], with two parallel
/// phases instead of six barrier-separated stages.
pub fn run_fused(
    engine: &Engine,
    positions: Vec<Vec<PositionReport>>,
    statics: &[StaticReport],
    ports: &[PortSite],
    cfg: &PipelineConfig,
) -> Result<PipelineOutput, PipelineError> {
    let num = engine.default_partitions();

    // Phase 1: scan + range-check + enrich + scatter by vessel, one task
    // per input partition. Replicates `clean:ranges` → `clean:enrich` →
    // `clean:shuffle-by-mmsi` of the staged path in a single pass.
    let started = Instant::now();
    let lookup = Arc::new(segment_lookup(statics));
    let commercial_only = cfg.commercial_only;
    let scanned: Vec<ScanOut> =
        engine.run_tasks("fused:scan-enrich", positions, move |_, part| {
            let raw = part.len() as u64;
            let mut out_of_range = 0u64;
            SCAN_SCRATCH.with(|scratch| {
                // Pass 1: enrich into the worker's reusable buffer,
                // counting each survivor's destination bucket.
                let mut enriched = scratch.borrow_mut();
                enriched.clear();
                enriched.reserve(part.len());
                let mut counts = vec![0usize; num];
                for r in part {
                    if !r.in_protocol_ranges() {
                        out_of_range += 1;
                        continue;
                    }
                    if let Some(e) = enrich_one(&lookup, commercial_only, r) {
                        // Same scatter as `partition_by_key` keyed by mmsi.
                        counts[(hash64(&e.mmsi.0) % num as u64) as usize] += 1;
                        enriched.push(e);
                    }
                }
                // Pass 2: scatter into exactly-sized worker-local buckets —
                // same record order, no growth reallocation, nothing shared
                // across workers.
                let mut buckets: Vec<Vec<EnrichedReport>> =
                    counts.iter().map(|&c| Vec::with_capacity(c)).collect();
                for e in enriched.drain(..) {
                    let b = (hash64(&e.mmsi.0) % num as u64) as usize;
                    buckets[b].push(e);
                }
                ScanOut {
                    buckets,
                    raw,
                    out_of_range,
                }
            })
        })?;
    let raw_count: u64 = scanned.iter().map(|s| s.raw).sum();
    let out_of_range: u64 = scanned.iter().map(|s| s.out_of_range).sum();

    // Driver-side transpose: gather bucket b of every task in input order
    // — the shuffle's reduce side. The driver moves chunk *vectors*, never
    // records; each build task concatenates its own chunks, so the copy
    // work parallelizes instead of serializing on the driver.
    let tasks = scanned.len();
    let mut partitions: Vec<Vec<Vec<EnrichedReport>>> =
        (0..num).map(|_| Vec::with_capacity(tasks)).collect();
    for scan in scanned {
        for (b, bucket) in scan.buckets.into_iter().enumerate() {
            partitions[b].push(bucket);
        }
    }
    let enriched_count: u64 = partitions
        .iter()
        .flat_map(|p| p.iter())
        .map(|c| c.len() as u64)
        .sum();
    engine.metrics().record(StageReport {
        name: "fused:scan-enrich".to_string(),
        input_records: raw_count,
        output_records: enriched_count,
        shuffled_records: enriched_count,
        wall: started.elapsed(),
    });

    // Phase 2: the fused morsel loop — clean, trip-extract, project and
    // fold into per-key combiners, one task per vessel partition, scratch
    // buffers reused across morsels.
    let started = Instant::now();
    let geofence = Arc::new(Geofence::build(ports, cfg.resolution));
    let max_kn = cfg.max_feasible_speed_kn;
    let min_points = cfg.min_trip_points;
    let res = cfg.resolution;
    let eps = cfg.quantile_epsilon;
    let cap = cfg.top_n_capacity;
    let built: Vec<BuildOut> = engine.run_tasks("fused:build", partitions, move |_, chunks| {
        BUILD_SCRATCH.with(|scratch| {
            let s = &mut *scratch.borrow_mut();
            // Concatenate the shuffle chunks once (task order = the staged
            // shuffle's input-partition concatenation order) into the
            // worker's reusable buffer.
            let total: usize = chunks.iter().map(Vec::len).sum();
            let records = &mut s.records;
            records.clear();
            records.reserve(total);
            for chunk in chunks {
                records.extend(chunk);
            }
            // One unstable sort over (mmsi, timestamp, arrival index)
            // replaces the per-vessel hash grouping + per-vessel stable
            // timestamp sort: the arrival index makes the key total (no
            // equal keys, so instability is unobservable), and within a
            // vessel (timestamp, arrival) order is exactly the stable time
            // sort of its arrival-ordered records — what
            // `order_and_filter_vessel` feeds the cleaner vessel by vessel.
            let keys = &mut s.keys;
            keys.clear();
            keys.extend(
                records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r.mmsi.0, r.timestamp, i as u32)),
            );
            keys.sort_unstable();
            let mut acc: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
            let cleaned_buf = &mut s.cleaned;
            let trip_buf = &mut s.trips;
            let cell_buf = &mut s.cells;
            let cell_scratch = &mut s.cell_scratch;
            let tracker = s
                .tracker
                .get_or_insert_with(|| TripTracker::new(min_points));
            let mut counts = BuildOut {
                shards: Vec::new(),
                cleaned: 0,
                with_trips: 0,
                morsels: 0,
            };
            // Walk vessels as runs of equal MMSI — ascending-MMSI morsel
            // order, every scratch buffer reused across morsels.
            let mut i = 0;
            while i < keys.len() {
                let mmsi = keys[i].0;
                let mut j = i + 1;
                while j < keys.len() && keys[j].0 == mmsi {
                    j += 1;
                }
                counts.morsels += 1;
                cleaned_buf.clear();
                trip_buf.clear();
                // Clean: fold the shared VesselCleaner state machine over
                // the time-sorted run (identical to
                // `order_and_filter_vessel`).
                let mut cleaner = VesselCleaner::new(max_kn);
                for k in &keys[i..j] {
                    if let Some(kept) = cleaner.push(records[k.2 as usize]) {
                        cleaned_buf.push(kept);
                    }
                }
                counts.cleaned += cleaned_buf.len() as u64;
                tracker.reset(min_points);
                extract_for_vessel_with(tracker, &geofence, cleaned_buf, trip_buf);
                counts.with_trips += trip_buf.len() as u64;
                // Trips emit contiguously in (mmsi, seq) order: project one
                // trip run at a time and fold straight into the combiners.
                let mut ti = 0;
                while ti < trip_buf.len() {
                    let mut tj = ti + 1;
                    while tj < trip_buf.len() && trip_buf[tj].trip_id == trip_buf[ti].trip_id {
                        tj += 1;
                    }
                    cell_buf.clear();
                    project_trip(&trip_buf[ti..tj], res, cell_scratch, cell_buf);
                    for cp in cell_buf.iter() {
                        let p = &cp.point;
                        // Same fan-out order as the staged `features` stage.
                        for key in [
                            GroupKey::Cell(cp.cell),
                            GroupKey::CellType(cp.cell, p.segment),
                            GroupKey::CellRoute(cp.cell, p.origin, p.dest, p.segment),
                        ] {
                            acc.entry(key)
                                .or_insert_with(|| CellStats::new(eps, cap))
                                .observe(cp);
                        }
                    }
                    ti = tj;
                }
                i = j;
            }
            counts.shards = radix_partition(acc, num);
            counts
        })
    })?;
    let cleaned_count: u64 = built.iter().map(|b| b.cleaned).sum();
    let with_trips: u64 = built.iter().map(|b| b.with_trips).sum();
    let morsels: u64 = built.iter().map(|b| b.morsels).sum();
    let projected_count = with_trips; // projection is total
    engine.metrics().record(StageReport {
        name: "fused:build".to_string(),
        input_records: enriched_count,
        output_records: projected_count,
        shuffled_records: 0,
        wall: started.elapsed(),
    });
    engine.metrics().add_counter("fused.morsels", morsels);

    // Phase 3: parallel radix shard merge — the same reduce half the
    // staged `aggregate_by_key` uses, so per-key merge order matches.
    let started = Instant::now();
    let sharded: Vec<Vec<Vec<(GroupKey, CellStats)>>> =
        built.into_iter().map(|b| b.shards).collect();
    let combiner_entries: u64 = sharded
        .iter()
        .flat_map(|w| w.iter())
        .map(|s| s.len() as u64)
        .sum();
    let stats = merge_combiner_maps(
        engine,
        "fused:aggregate",
        sharded,
        |a: &mut CellStats, o| a.merge(&o),
    )?;
    let group_entries = stats.iter().map(|m| m.len() as u64).sum();
    engine.metrics().record(StageReport {
        name: "fused:aggregate".to_string(),
        input_records: projected_count * 3,
        output_records: group_entries,
        shuffled_records: combiner_entries,
        wall: started.elapsed(),
    });

    // The merge tasks' maps become the inventory as they are.
    let inventory = Inventory::from_shards(cfg.resolution, stats, projected_count);
    let output = cleaned_count;
    Ok(PipelineOutput {
        inventory,
        counts: StageCounts {
            raw: raw_count,
            cleaned: cleaned_count,
            with_trips,
            projected: projected_count,
            group_entries,
        },
        clean_report: CleanReport {
            input: raw_count,
            out_of_range,
            duplicates: 0,
            // Same accounting as the staged path: the per-vessel pass
            // removes both defect classes in one sweep, reported under
            // `infeasible`.
            infeasible: enriched_count - output,
            non_commercial: raw_count - out_of_range - enriched_count,
            output,
        },
    })
}

/// Folds per-vessel projected cell points into an [`Inventory`], replaying
/// the fused executor's phase 2–3 ordering exactly: vessels scatter to
/// `engine.default_partitions()` buckets by `hash64(mmsi) % num`, each
/// bucket observes its vessels in ascending-MMSI order with the same
/// `[Cell, CellType, CellRoute]` fan-out per point, and the reduce half is
/// the same [`pol_engine::merge_combiner_maps`] radix merge, whose
/// per-shard maps become the inventory as they are.
///
/// This is the streaming session layer's (pol-stream) close path: sessions
/// clean/extract/project incrementally, retain each vessel's cell points
/// in emission order, and hand them here — producing an inventory
/// byte-identical to [`run_fused`] over the same records (pinned by
/// `fold_projected_matches_run_fused` below). `projected_count` is the
/// total cell-point count recorded as the inventory's record total.
pub fn fold_projected(
    engine: &Engine,
    cfg: &PipelineConfig,
    per_vessel: Vec<(u32, Vec<CellPoint>)>,
    projected_count: u64,
) -> Result<Inventory, PipelineError> {
    let num = engine.default_partitions();
    // Same scatter as `run_fused` phase 1: a vessel's bucket depends only
    // on its MMSI hash, so bucket composition matches the batch shuffle.
    let mut partitions: Vec<Vec<(u32, Vec<CellPoint>)>> = (0..num).map(|_| Vec::new()).collect();
    for (mmsi, points) in per_vessel {
        let b = (hash64(&mmsi) % num as u64) as usize;
        partitions[b].push((mmsi, points));
    }
    let eps = cfg.quantile_epsilon;
    let cap = cfg.top_n_capacity;
    let started = Instant::now();
    let sharded: Vec<Vec<Vec<(GroupKey, CellStats)>>> =
        engine.run_tasks("stream:fold", partitions, move |_, mut part| {
            // Deterministic morsel order, as in the fused build phase.
            part.sort_by_key(|(m, _)| *m);
            let mut acc: FxHashMap<GroupKey, CellStats> = FxHashMap::default();
            for (_, points) in part {
                for cp in &points {
                    let p = &cp.point;
                    // Same fan-out order as the staged `features` stage.
                    for key in [
                        GroupKey::Cell(cp.cell),
                        GroupKey::CellType(cp.cell, p.segment),
                        GroupKey::CellRoute(cp.cell, p.origin, p.dest, p.segment),
                    ] {
                        acc.entry(key)
                            .or_insert_with(|| CellStats::new(eps, cap))
                            .observe(cp);
                    }
                }
            }
            radix_partition(acc, num)
        })?;
    let combiner_entries: u64 = sharded
        .iter()
        .flat_map(|w| w.iter())
        .map(|s| s.len() as u64)
        .sum();
    let stats = merge_combiner_maps(
        engine,
        "stream:aggregate",
        sharded,
        |a: &mut CellStats, o| a.merge(&o),
    )?;
    engine.metrics().record(StageReport {
        name: "stream:fold".to_string(),
        input_records: projected_count,
        output_records: stats.iter().map(|m| m.len() as u64).sum(),
        shuffled_records: combiner_entries,
        wall: started.elapsed(),
    });
    Ok(Inventory::from_shards(
        cfg.resolution,
        stats,
        projected_count,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::order_and_filter_vessel;
    use crate::codec;
    use crate::pipeline::run;
    use crate::trips::extract_for_vessel;
    use pol_fleetsim::scenario::{generate, ScenarioConfig};
    use pol_fleetsim::WORLD_PORTS;

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

    #[test]
    fn fused_matches_staged_on_tiny_scenario() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let staged = run(
            &Engine::new(2),
            ds.positions.clone(),
            &ds.statics,
            &ports,
            &cfg,
        )
        .unwrap();
        let fused = run_fused(&Engine::new(2), ds.positions, &ds.statics, &ports, &cfg).unwrap();
        assert_eq!(staged.counts, fused.counts);
        assert_eq!(staged.clean_report, fused.clean_report);
        assert_eq!(
            codec::to_bytes(&staged.inventory),
            codec::to_bytes(&fused.inventory),
            "fused inventory must be byte-identical to staged"
        );
    }

    #[test]
    fn fused_records_radix_merge_stage_and_morsel_counter() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let engine = Engine::new(2);
        let out = run_fused(&engine, ds.positions, &ds.statics, &ports, &cfg).unwrap();
        assert!(!out.inventory.is_empty());
        let stages = engine.metrics().report();
        for name in ["fused:scan-enrich", "fused:build", "fused:aggregate"] {
            assert!(stages.iter().any(|s| s.name == name), "{name} missing");
        }
        assert!(
            stages
                .iter()
                .any(|s| s.name == "fused:aggregate:radix-merge"),
            "parallel shard merge must be visible in stage timings"
        );
        assert!(engine.metrics().counter("fused.morsels") > 0);
    }

    /// The contract pol-stream's close path rests on: collecting each
    /// vessel's projected cell points (via the shared incremental helpers,
    /// in batch order) and handing them to `fold_projected` reproduces the
    /// fused build byte-for-byte.
    #[test]
    fn fold_projected_matches_run_fused() {
        let ds = generate(&ScenarioConfig::tiny());
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let fused = run_fused(
            &Engine::new(2),
            ds.positions.clone(),
            &ds.statics,
            &ports,
            &cfg,
        )
        .unwrap();

        // Collect per-vessel cell points exactly as a streaming session
        // would retain them: per-vessel input order, clean → extract →
        // project per contiguous trip run.
        let lookup = segment_lookup(&ds.statics);
        let mut per_vessel_reports: FxHashMap<u32, Vec<EnrichedReport>> = FxHashMap::default();
        let mut vessel_order: Vec<u32> = Vec::new();
        for part in &ds.positions {
            for r in part {
                if !r.in_protocol_ranges() {
                    continue;
                }
                if let Some(e) = enrich_one(&lookup, cfg.commercial_only, r.clone()) {
                    per_vessel_reports
                        .entry(e.mmsi.0)
                        .or_insert_with(|| {
                            vessel_order.push(e.mmsi.0);
                            Vec::new()
                        })
                        .push(e);
                }
            }
        }
        let geofence = Geofence::build(&ports, cfg.resolution);
        let mut per_vessel: Vec<(u32, Vec<CellPoint>)> = Vec::new();
        let mut projected_count = 0u64;
        for mmsi in vessel_order {
            let reports = per_vessel_reports.remove(&mmsi).unwrap();
            let mut cleaned = Vec::new();
            order_and_filter_vessel(reports, cfg.max_feasible_speed_kn, &mut cleaned);
            let mut trips = Vec::new();
            extract_for_vessel(&geofence, &cleaned, cfg.min_trip_points, &mut trips);
            let mut cells = Vec::new();
            let mut scratch = Vec::new();
            let mut i = 0;
            while i < trips.len() {
                let mut j = i + 1;
                while j < trips.len() && trips[j].trip_id == trips[i].trip_id {
                    j += 1;
                }
                project_trip(&trips[i..j], cfg.resolution, &mut scratch, &mut cells);
                i = j;
            }
            projected_count += trips.len() as u64;
            per_vessel.push((mmsi, cells));
        }
        assert_eq!(projected_count, fused.counts.projected);

        let folded = fold_projected(&Engine::new(1), &cfg, per_vessel, projected_count).unwrap();
        assert_eq!(
            codec::to_bytes(&fused.inventory),
            codec::to_bytes(&folded),
            "fold_projected must reproduce the fused build byte-for-byte"
        );
    }

    #[test]
    fn fused_empty_input_matches_staged() {
        let cfg = PipelineConfig::default();
        let ports = port_sites(cfg.port_radius_km);
        let staged = run(&Engine::new(2), vec![], &[], &ports, &cfg).unwrap();
        let fused = run_fused(&Engine::new(2), vec![], &[], &ports, &cfg).unwrap();
        assert_eq!(staged.counts, fused.counts);
        assert_eq!(staged.clean_report, fused.clean_report);
        assert_eq!(
            codec::to_bytes(&staged.inventory),
            codec::to_bytes(&fused.inventory)
        );
        assert!(fused.inventory.is_empty());
    }
}
