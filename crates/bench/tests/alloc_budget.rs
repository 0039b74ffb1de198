//! Allocation-budget regression gate for the fused build path.
//!
//! Installs [`pol_bench::alloc::CountingAlloc`] as the test binary's
//! global allocator, warms a fused engine once (first run pays for the
//! per-worker scratch, thread-local buffers and sketch spill vectors),
//! then pins the *steady-state* allocation count of a full fused build.
//! The committed baseline before the scratch-arena rewrite was 401,610
//! allocations for the default `polbuild` workload; the budget here is
//! more than an order of magnitude below that, scaled to the smaller
//! test workload — a regression that reintroduces per-vessel or
//! per-record allocation blows through it immediately.

use pol_bench::alloc::{snapshot, CountingAlloc};
use pol_bench::{build_inventory_on, BuildExecutor};
use pol_core::{codec, PipelineConfig};
use pol_engine::Engine;
use pol_fleetsim::emit::EmissionConfig;
use pol_fleetsim::scenario::{generate, ScenarioConfig};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global, so a test running beside
/// another would count the other's allocations too. Every test holds
/// this lock for its whole run (a failed test poisons it; the next one
/// carries on).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The CI smoke workload (matches `ci.sh`'s polbuild invocation scale).
fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        seed: 42,
        n_vessels: 10,
        duration_days: 3,
        emission: EmissionConfig {
            interval_scale: 10.0,
            ..EmissionConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

#[test]
fn fused_steady_state_allocations_stay_pinned() {
    let _serial = serial();
    let ds = generate(&scenario());
    let raw: u64 = ds.positions.iter().map(|p| p.len() as u64).sum();
    assert!(raw > 10_000, "workload too small to be meaningful: {raw}");
    let cfg = PipelineConfig::default();

    let engine = Engine::new(2);
    // Warm-up: first run allocates the per-worker scratch arenas.
    let warm = build_inventory_on(&engine, &ds, &cfg, BuildExecutor::Fused);

    // Steady state: same engine, warm scratch.
    let before = snapshot();
    let steady = build_inventory_on(&engine, &ds, &cfg, BuildExecutor::Fused);
    let delta = snapshot().since(before);

    // Same bytes both times — the reuse must not leak state across runs.
    assert_eq!(
        codec::to_bytes(&warm.inventory),
        codec::to_bytes(&steady.inventory),
        "scratch reuse changed the inventory"
    );

    // The budget: the pre-rewrite fused path spent ~401k allocations on a
    // workload ~5x this size (~28k scaled); steady state now runs in the
    // low thousands. 2x headroom over the measured count keeps the gate
    // insensitive to hash-map growth jitter without letting per-record
    // allocation creep back in.
    eprintln!(
        "fused steady-state: {} allocs for {raw} records",
        delta.allocs
    );
    assert!(
        delta.allocs < 5_000,
        "fused steady-state allocation budget exceeded: {} allocs for {raw} records",
        delta.allocs
    );
}

/// The staged `features` stage was the other allocation hot spot named in
/// the profiling work (it builds one combiner per (key, partition) with
/// eight sketches each). The inline small-storage rewrite of those
/// sketches must keep the whole staged pipeline — features included —
/// well under the old fused baseline too.
#[test]
fn staged_pipeline_allocations_stay_reduced() {
    let _serial = serial();
    let ds = generate(&scenario());
    let cfg = PipelineConfig::default();
    let engine = Engine::new(2);
    let _ = build_inventory_on(&engine, &ds, &cfg, BuildExecutor::Staged);
    let before = snapshot();
    let _ = build_inventory_on(&engine, &ds, &cfg, BuildExecutor::Staged);
    let delta = snapshot().since(before);
    eprintln!("staged steady-state: {} allocs", delta.allocs);
    assert!(
        delta.allocs < 8_000,
        "staged steady-state allocation count regressed: {}",
        delta.allocs
    );
}
