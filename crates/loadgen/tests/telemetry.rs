//! Telemetry determinism: the `venice-telemetry-v2` artifact is a pure
//! function of (scenario, config) — identical across rayon widths,
//! across probe re-runs, and invisible to the run it observes.
//!
//! This file owns all `RAYON_NUM_THREADS` mutation for the telemetry
//! suite (env vars are process-global; integration-test files run as
//! separate processes, so the width test here cannot race the one in
//! `storm.rs`).

use proptest::prelude::*;
use venice_loadgen::{
    elastic_v2, engine, scenarios, ArrivalProcess, LoadReport, LoadgenConfig, TenantMix,
};
use venice_sim::Time;
use venice_telemetry::RecordingProbe;

/// Builder shorthand used throughout this file: run `config` recording
/// and render its artifact named `scenario`.
fn artifact_run(
    scenario: &str,
    config: &LoadgenConfig,
    tick: Time,
    cap: usize,
) -> (String, LoadReport) {
    let out = engine::Run::new(config)
        .probe(RecordingProbe::new(tick, cap))
        .execute();
    (out.artifact_jsonl(scenario), out.report)
}

/// The elastic-v2 predictive scenario at test scale: grows, revokes,
/// quota denials, and sublease traffic all light up, so the artifact
/// exercises every line kind (samples, all three span phases, denial
/// counters).
fn predictive_small() -> LoadgenConfig {
    let mut config = elastic_v2::predictive_config(elastic_v2::V2_SEED);
    config.requests = 8_000;
    config
}

#[test]
fn artifact_is_identical_at_any_rayon_width() {
    let storm = {
        let mut c = scenarios::storm_configs(scenarios::SCENARIO_SEED).swap_remove(0);
        c.requests = 8_000;
        c
    };
    let predictive = predictive_small();
    let tick = Time::from_ms(5);

    // All env mutation lives inside this single test (see the file
    // comment): the workspace's rayon shim re-reads RAYON_NUM_THREADS
    // on every parallel call, so each set_var really changes the
    // fan-out width of the next run.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let (storm_one, report_one) = artifact_run("storm", &storm, tick, 256);
    let (pred_one, _) = artifact_run("predictive", &predictive, tick, 256);
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let (storm_eight, report_eight) = artifact_run("storm", &storm, tick, 256);
    let (pred_eight, _) = artifact_run("predictive", &predictive, tick, 256);
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(storm_one, storm_eight, "storm artifact depends on width");
    assert_eq!(pred_one, pred_eight, "predictive artifact depends on width");
    assert_eq!(report_one, report_eight);
    // The artifacts really carried signal, not empty sections.
    assert!(storm_one.lines().any(|l| l.contains("\"kind\":\"sample\"")));
    assert!(pred_one.lines().any(|l| l.contains("\"kind\":\"span\"")));
}

#[test]
fn probing_the_predictive_run_does_not_perturb_it() {
    let config = predictive_small();
    let plain = engine::Run::new(&config).execute().report;
    let out = engine::Run::new(&config)
        .probe(RecordingProbe::new(Time::from_ms(5), 256))
        .execute();
    let probe: RecordingProbe = out.probe;
    assert_eq!(plain, out.report, "probe perturbed the elastic run");
    // Lease activity produced spans, and some leases outlive the run.
    assert!(!probe.spans().closed().is_empty(), "no closed spans");
    assert!(probe.spans().open_len() > 0, "no still-open spans");
}

proptest! {
    /// Probed runs report exactly what no-op runs report, and the
    /// artifact re-exports byte-identically, for arbitrary seeds and
    /// traffic levels.
    #[test]
    fn artifact_is_reproducible_for_arbitrary_seeds(
        seed in 0u64..10_000,
        rate in 1_000.0f64..300_000.0,
        requests in 50u64..1_500,
        mix_idx in 0usize..3,
    ) {
        let mix = TenantMix::presets().swap_remove(mix_idx);
        let config = LoadgenConfig {
            arrival: ArrivalProcess::OpenPoisson { rate_rps: rate },
            requests,
            ..LoadgenConfig::new(seed, mix)
        };
        let plain = engine::Run::new(&config).execute().report;
        let (a, report_a) = artifact_run("prop", &config, Time::from_ms(2), 64);
        let (b, report_b) = artifact_run("prop", &config, Time::from_ms(2), 64);
        prop_assert_eq!(&a, &b, "artifact differed across re-runs");
        prop_assert_eq!(&report_a, &plain, "probe perturbed the run");
        prop_assert_eq!(&report_b, &plain);
        prop_assert!(a.starts_with("{\"kind\":\"header\""));
        prop_assert!(a.lines().last().unwrap().starts_with("{\"kind\":\"end\""));
    }
}
