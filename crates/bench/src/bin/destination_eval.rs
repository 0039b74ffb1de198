//! Evaluates **§4.1.3a** — streaming destination prediction: feed a
//! held-out voyage's reports to the predictor in order and measure top-1 /
//! top-3 accuracy as the voyage progresses (the paper describes the
//! mechanism; this binary quantifies it).
//!
//! Exits 1 when the verdict is `[MISS]`, so `ci.sh claims` fails on a
//! regression of the claim.

use pol_apps::DestinationPredictor;
use pol_bench::{
    banner, build_inventory, experiment_scenario, reports_for_voyage, TEST_SEED, TRAIN_SEED,
};
use pol_core::PipelineConfig;
use pol_fleetsim::scenario::generate;

fn main() {
    banner(
        "§4.1.3 — streaming destination prediction",
        "paper §4.1.3, Figure 6",
    );
    let (_, out) = build_inventory(&experiment_scenario(TRAIN_SEED), &PipelineConfig::default());

    let mut test_cfg = experiment_scenario(TEST_SEED);
    test_cfg.n_vessels = 60;
    let test = generate(&test_cfg);

    let checkpoints = [0.25, 0.5, 0.75, 0.9];
    let mut top1 = vec![0u64; checkpoints.len()];
    let mut top3 = vec![0u64; checkpoints.len()];
    let mut total = vec![0u64; checkpoints.len()];

    let mut voyages = 0;
    for v in &test.truth {
        let reports = reports_for_voyage(&test, v);
        if reports.len() < 20 {
            continue;
        }
        voyages += 1;
        let seg = test
            .fleet
            .iter()
            .find(|f| f.mmsi == v.mmsi)
            .map(|f| f.segment);
        let mut predictor = DestinationPredictor::new(&out.inventory, seg);
        let duration = (v.arrival - v.departure) as f64;
        let mut ci = 0;
        for r in &reports {
            predictor.observe(r.pos);
            let progress = (r.timestamp - v.departure) as f64 / duration;
            while ci < checkpoints.len() && progress >= checkpoints[ci] {
                total[ci] += 1;
                let ranked = predictor.top(3);
                if ranked.first().map(|(d, _)| *d) == Some(v.dest.0) {
                    top1[ci] += 1;
                }
                if ranked.iter().any(|(d, _)| *d == v.dest.0) {
                    top3[ci] += 1;
                }
                ci += 1;
            }
        }
    }

    println!();
    println!("evaluated voyages: {voyages}");
    println!(
        "{:<18} {:>10} {:>12} {:>12}",
        "voyage progress", "samples", "top-1 acc", "top-3 acc"
    );
    for (i, c) in checkpoints.iter().enumerate() {
        println!(
            "{:<18} {:>10} {:>11.1}% {:>11.1}%",
            format!("{:.0}%", c * 100.0),
            total[i],
            100.0 * top1[i] as f64 / total[i].max(1) as f64,
            100.0 * top3[i] as f64 / total[i].max(1) as f64
        );
    }
    let improves = top1.last().copied().unwrap_or(0) as f64
        / total.last().copied().unwrap_or(1).max(1) as f64
        > top1[0] as f64 / total[0].max(1) as f64;
    println!();
    println!(
        "random-guess baselines over {} ports: top-1 {:.1}%, top-3 {:.1}%",
        pol_fleetsim::WORLD_PORTS.len(),
        100.0 / pol_fleetsim::WORLD_PORTS.len() as f64,
        300.0 / pol_fleetsim::WORLD_PORTS.len() as f64
    );
    println!(
        "[{}] accuracy grows as the voyage proceeds (the paper's 'keep track of \
         this list as the stream of AIS messages proceeds') and ends well above \
         the random baseline",
        if improves { "ok" } else { "MISS" }
    );
    println!(
        "(the training fleet covers a fraction of the 126×125 port pairs; the \
         paper's year of 60 000 vessels saturates them — accuracy here is \
         bounded by that scale gap, the *shape* is the reproduced claim)"
    );
    if !improves {
        // `ci.sh claims` gates on this: a MISS is a failed claim.
        std::process::exit(1);
    }
}
