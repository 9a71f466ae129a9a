//! Latency-attribution determinism and the exact-sum invariant.
//!
//! Every completion that reaches an `AttribFold` passes an unconditional
//! assert that its seven stages sum exactly to its end-to-end latency —
//! so simply *running* a probed configuration property-checks the
//! telescoping decomposition over its full request stream. This file
//! drives that gate over arbitrary seeds/rates/mixes, reconciles the
//! fold against the report's completion ledger, and pins the
//! `venice-attrib-v1` artifact byte-identical across rayon widths.
//!
//! This file owns all `RAYON_NUM_THREADS` mutation for the attribution
//! suite (env vars are process-global; integration-test files run as
//! separate processes, so the width test here cannot race the ones in
//! `telemetry.rs` or `storm.rs`).

use proptest::prelude::*;
use venice_loadgen::{
    elastic, elastic_v2, engine, ArrivalProcess, LoadReport, LoadgenConfig, RemoteStack, TenantMix,
};
use venice_sim::Time;
use venice_telemetry::{export_attrib_jsonl, AttribFold, AttribProbe};

/// Builder shorthand used throughout this file: run `config` with the
/// attribution probe and return the report alongside the fold.
fn attrib_run(config: &LoadgenConfig, tick: Time, cap: usize) -> (LoadReport, AttribFold) {
    let out = engine::Run::new(config)
        .probe(AttribProbe::new(tick, cap))
        .execute();
    (out.report, out.probe.attrib().clone())
}

fn attrib_artifact(requests: u64) -> String {
    let base = {
        let mut c = elastic::static_config(elastic_v2::V2_SEED, RemoteStack::VeniceCrma);
        c.requests = requests;
        c
    };
    let cand = {
        let mut c = elastic_v2::predictive_config(elastic_v2::V2_SEED);
        c.requests = requests;
        c
    };
    let labels: Vec<&str> = base.mix.classes.iter().map(|c| c.name.as_str()).collect();
    let tick = Time::from_ms(5);
    let (_, base_fold) = attrib_run(&base, tick, 256);
    let (_, cand_fold) = attrib_run(&cand, tick, 256);
    export_attrib_jsonl(
        "static-vs-predictive",
        elastic_v2::V2_SEED,
        &[("static", &base_fold), ("predictive", &cand_fold)],
        &labels,
    )
}

#[test]
fn attrib_artifact_is_identical_at_any_rayon_width() {
    // All env mutation lives inside this single test (see the file
    // comment): the workspace's rayon shim re-reads RAYON_NUM_THREADS
    // on every parallel call.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one = attrib_artifact(6_000);
    std::env::set_var("RAYON_NUM_THREADS", "8");
    let eight = attrib_artifact(6_000);
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(one, eight, "attrib artifact depends on rayon width");
    // The artifact carried real signal: both runs' cells, tail
    // summaries, and the cross-run differential.
    assert!(one.starts_with("{\"kind\":\"header\",\"schema\":\"venice-attrib-v1\""));
    assert!(one
        .lines()
        .any(|l| l.starts_with("{\"kind\":\"cell\",\"run\":\"static\"")));
    assert!(one
        .lines()
        .any(|l| l.starts_with("{\"kind\":\"tenant\",\"run\":\"predictive\"")));
    assert!(one.lines().any(|l| l.starts_with("{\"kind\":\"diff\"")));
    assert!(one.lines().last().unwrap().starts_with("{\"kind\":\"end\""));
}

#[test]
fn establish_stalls_surface_in_the_predictive_run() {
    // The elastic run grows mid-run; its attribution must land every
    // completion (exact-sum assert) and reconcile with the report.
    let mut config = elastic_v2::predictive_config(elastic_v2::V2_SEED);
    config.requests = 8_000;
    let (report, fold) = attrib_run(&config, Time::from_ms(5), 256);
    assert_eq!(fold.requests(), report.completed);
    let summaries = fold.tenant_summaries();
    assert!(!summaries.is_empty());
    for s in &summaries {
        assert!(s.tail_count > 0, "tenant {} has an empty tail", s.tenant);
        assert!(s.p99 >= s.p50);
    }
}

proptest! {
    /// The exact-sum gate holds (the run does not panic) and the fold
    /// reconciles with the completion ledger for arbitrary seeds,
    /// rates, and mixes — and attribution never perturbs the run.
    #[test]
    fn stage_sums_are_exact_for_arbitrary_traffic(
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
        let (report, fold) = attrib_run(&config, Time::from_ms(2), 64);
        prop_assert_eq!(&report, &plain, "attribution perturbed the run");
        prop_assert_eq!(fold.requests(), report.completed);
        // Spot-check the aggregate identity the per-request assert
        // already guarantees: cell stage totals sum to cell latency
        // totals.
        for (_, _, cell) in fold.cells() {
            let stage_sum: u64 = cell.stage_ps.iter().sum();
            prop_assert_eq!(stage_sum, cell.total_ps);
        }
    }
}
