//! CI gate: the thread-count-independence claim, made diffable.
//!
//! ```text
//! determinism [--out PATH]
//! ```
//!
//! Emits, in order:
//!
//! 1. one report line per row of every comparison family in
//!    [`venice_bench::FAMILIES`] (those with `gate_requests`: elastic,
//!    elastic-v2, economy, congestion, failover), run through the shared
//!    rayon row runner, lease timelines included;
//! 2. a storm slice across the three canonical tenant mixes;
//! 3. a small rate sweep (a rayon grid) rendered as figure JSON;
//! 4. a traced elastic-v2 predictive run: its report, then the
//!    per-request JSONL trace.
//!
//! CI runs this binary twice, once with `RAYON_NUM_THREADS=1` and once
//! with `RAYON_NUM_THREADS=8`, and diffs the two artifacts **byte for
//! byte**: "bit-identical at any thread count" is a merge gate, not
//! just a test-local assertion. (The workspace's rayon shim re-reads
//! `RAYON_NUM_THREADS` on every parallel call, so the variable genuinely
//! changes the fan-out width.)
//!
//! Request counts are scaled down from the published figures — rayon
//! determinism does not depend on run length — so the gate costs
//! seconds, not minutes.

use std::fmt::Write as _;
use std::process::ExitCode;

use venice_loadgen::scenarios::{self, run_rows};
use venice_loadgen::sweep::{self, SweepSpec};
use venice_loadgen::{elastic_v2, engine, LoadReport, RemoteStack, TenantMix};

/// Seed for the gate's runs (distinct from every published figure seed,
/// so the gate can never mask a figure regression by caching).
const GATE_SEED: u64 = 0xD17E;

/// Requests of the traced elastic-v2 run.
const TRACED_REQUESTS: u64 = 6_000;

/// A report as one line of JSON.
fn json(report: &LoadReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

fn main() -> ExitCode {
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next();
            if out_path.is_none() {
                eprintln!("determinism: --out requires a path");
                return ExitCode::FAILURE;
            }
        } else if let Some(p) = arg.strip_prefix("--out=") {
            out_path = Some(p.to_string());
        } else {
            eprintln!("usage: determinism [--out PATH]");
            return ExitCode::FAILURE;
        }
    }

    let mut artifact = String::new();

    // 1. Every comparison family's rows, at the family's gate scale.
    for family in venice_bench::FAMILIES {
        let Some(requests) = family.gate_requests else {
            continue;
        };
        for (label, report, _) in run_rows((family.rows)(GATE_SEED), Some(requests), false) {
            writeln!(artifact, "{} {label} {}", family.name, json(&report)).unwrap();
        }
    }

    // 2. A storm slice across the three canonical mixes (scaled down).
    let storm_reports: Vec<_> = scenarios::storm_configs(GATE_SEED)
        .into_iter()
        .map(|mut config| {
            config.requests = 25_000;
            engine::Run::new(&config).execute().report
        })
        .collect();
    for report in &storm_reports {
        writeln!(artifact, "storm {} {}", report.mix, json(report)).unwrap();
    }

    // 3. The rate sweep (rayon grid) rendered as figure JSON.
    let spec = SweepSpec {
        seed: GATE_SEED,
        meshes: vec![(2, 2, 1)],
        mixes: vec![TenantMix::web_frontend(), TenantMix::messaging()],
        rates_rps: vec![10_000.0, 60_000.0],
        stacks: vec![RemoteStack::VeniceCrma, RemoteStack::Sonuma],
        requests_per_point: 1_500,
    };
    writeln!(
        artifact,
        "sweep {}",
        venice_bench::to_json(&sweep::figures(&spec))
    )
    .unwrap();

    // 4. A traced elastic run: the per-request JSONL trace itself.
    let mut config = elastic_v2::predictive_config(GATE_SEED);
    config.requests = TRACED_REQUESTS;
    let out = engine::Run::new(&config).traced().execute();
    let report = out.report;
    let trace = out.trace.expect("traced run captures a trace");
    writeln!(artifact, "traced {}", json(&report)).unwrap();
    artifact.push_str(&trace.to_jsonl());

    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &artifact) {
                eprintln!("determinism: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "determinism: wrote {} bytes ({} lines) to {path}",
                artifact.len(),
                artifact.lines().count()
            );
        }
        None => print!("{artifact}"),
    }
    ExitCode::SUCCESS
}
