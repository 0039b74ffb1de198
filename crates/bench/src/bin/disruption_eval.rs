//! Evaluates the **normalcy model** motivation of §1/§2: an inventory
//! built on a normal year detects the COVID-style port closure and the
//! Suez-style canal blockage as anomaly-rate shifts.
//!
//! * Suez blockage: rerouted Asia–Europe voyages cross Cape-route cells
//!   their `(origin, dest)` flows never used → off-lane/odd-course rates
//!   rise relative to the held-out normal fleet.
//! * Port closure: calls at the closed port vanish → its approach cells go
//!   quiet (traffic-volume shift).
//!
//! Exits 1 when either verdict is `[MISS]`, so `ci.sh claims` fails on a
//! regression of either claim.

use pol_apps::AnomalyDetector;
use pol_bench::{banner, build_inventory, experiment_scenario, port_id, TEST_SEED, TRAIN_SEED};
use pol_core::PipelineConfig;
use pol_fleetsim::scenario::{generate, Disruption};
use pol_fleetsim::WORLD_PORTS;
use pol_geo::haversine_km;

fn anomaly_rate(det: &AnomalyDetector, ds: &pol_fleetsim::scenario::Dataset) -> f64 {
    let stream = ds.positions.iter().enumerate().flat_map(|(vi, part)| {
        let seg = ds.fleet[vi].segment;
        part.iter()
            .map(move |r| (r.pos, r.sog_knots, r.cog_deg, Some(seg)))
    });
    det.anomaly_rate(stream)
}

fn main() {
    banner(
        "Disruption detection — the model of normalcy (COVID / Suez)",
        "paper §1, §2, §5",
    );
    let (_, out) = build_inventory(&experiment_scenario(TRAIN_SEED), &PipelineConfig::default());
    let det = AnomalyDetector::new(&out.inventory);

    // Held-out normal traffic.
    let mut normal_cfg = experiment_scenario(TEST_SEED);
    normal_cfg.n_vessels = 60;
    let normal = generate(&normal_cfg);

    // Suez blockage for the whole test window.
    let mut suez_cfg = normal_cfg.clone();
    suez_cfg.disruption = Some(Disruption::SuezBlockage {
        from: suez_cfg.start,
        to: suez_cfg.end(),
    });
    let suez = generate(&suez_cfg);

    // COVID-style closure of Shanghai. Port-call counts need a bigger
    // fleet than the anomaly-rate comparison (a 60-vessel window yields
    // only a handful of calls at any one port).
    let sha = port_id("CNSHA");
    let mut calls_cfg = normal_cfg.clone();
    calls_cfg.n_vessels = 250;
    let normal_big = generate(&calls_cfg);
    let mut covid_cfg = calls_cfg.clone();
    covid_cfg.disruption = Some(Disruption::PortClosure {
        port: pol_fleetsim::PortId(sha),
        from: covid_cfg.start,
        to: covid_cfg.end(),
    });
    let covid = generate(&covid_cfg);

    let r_normal = anomaly_rate(&det, &normal);
    let r_suez = anomaly_rate(&det, &suez);

    println!();
    println!("anomaly rate vs the normal-year inventory:");
    println!("  held-out normal fleet:     {:>6.2}%", r_normal * 100.0);
    println!("  Suez-blockage fleet:       {:>6.2}%", r_suez * 100.0);
    let suez_ok = r_suez > r_normal;
    println!(
        "  [{}] blockage raises the anomaly rate ({}x)",
        if suez_ok { "ok" } else { "MISS" },
        if r_normal > 0.0 {
            format!("{:.1}", r_suez / r_normal)
        } else {
            "∞".into()
        }
    );

    // Port-closure signal: arrivals at the port collapse (reports *near*
    // the port are dominated by the coastal through-lane and barely move;
    // the operational signal is port calls, which the trip semantics give
    // us directly).
    let sha_pos = WORLD_PORTS[sha as usize].pos();
    let calls_in_window = |ds: &pol_fleetsim::scenario::Dataset| -> u64 {
        ds.truth
            .iter()
            .filter(|v| v.dest.0 == sha && v.departure >= normal_cfg.start)
            .count() as u64
    };
    let moored_reports = |ds: &pol_fleetsim::scenario::Dataset| -> u64 {
        ds.positions
            .iter()
            .flatten()
            .filter(|r| r.nav_status.is_stationary() && haversine_km(r.pos, sha_pos) < 25.0)
            .count() as u64
    };
    let (c_normal, c_covid) = (calls_in_window(&normal_big), calls_in_window(&covid));
    let (m_normal, m_covid) = (moored_reports(&normal_big), moored_reports(&covid));
    println!();
    println!("Shanghai during the closure window:");
    println!("  port calls planned:   normal {c_normal:>5}   closure {c_covid:>5}");
    println!("  moored reports <25km: normal {m_normal:>5}   closure {m_covid:>5}");
    // No normal-window calls means nothing could collapse: that is a
    // miss, not a vacuous pass.
    let closure_ok = c_normal > 0 && c_covid * 2 < c_normal;
    println!(
        "  [{}] the closure is visible as a port-call collapse ({:.0}% of normal)",
        if closure_ok { "ok" } else { "MISS" },
        100.0 * c_covid as f64 / c_normal.max(1) as f64
    );
    println!();
    println!(
        "Paper: 'we build a model of normalcy that can then be used to identify \
         any outliers from this e.g. Covid-19 or Suez Canal' — both events are \
         recovered here from the inventory alone."
    );
    if !(suez_ok && closure_ok) {
        // `ci.sh claims` gates on this: a MISS is a failed claim.
        std::process::exit(1);
    }
}
