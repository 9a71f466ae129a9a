//! Hot-path profiles and the `venice-telemetry-v2` artifact.
//!
//! ```text
//! profile [--out PATH] [--requests N] [--iters K] [--gate-overhead PCT]
//! ```
//!
//! Runs the storm scenarios (three tenant mixes), the elastic-v2
//! predictive controller, the economy quota-market scenario, and the
//! failover chaos scenario (a mid-run node crash, so the artifact
//! carries fault and failover spans) with a
//! [`venice_telemetry::RecordingProbe`] threaded through the engine,
//! then:
//!
//! * prints each scenario's text profile (top event kinds by count and
//!   attributed sim time, queue traffic, per-node utilization, lease
//!   span summary);
//! * **gates** every probed run against a no-op-probe run of the same
//!   configuration — the two `LoadReport`s must serialize to
//!   byte-identical JSON, or observing the run perturbed it and the run
//!   fails;
//! * concatenates the per-scenario `venice-telemetry-v2` JSONL blocks
//!   into `BENCH_telemetry.jsonl` (CI regenerates a reduced-count copy
//!   at rayon widths 1 and 8 and byte-compares them).
//!
//! With `--gate-overhead PCT`, the no-op and probed runs are also timed
//! in interleaved best-of-`--iters` pairs and the run fails if the
//! probed engine's best wall time exceeds the no-op best by more than
//! `PCT` percent — the "cheap enough to leave on" claim, measured.
//!
//! Sampling cadence is [`venice_bench::PROBE_TICK`] (sim time) with a
//! ring retaining the last [`venice_bench::PROBE_RING_CAP`] rows per
//! scenario, so artifact size is bounded no matter the request count.
//! Unlike `BENCH_figures.json`, the committed artifact is regenerated
//! manually (`cargo run --release -p venice-bench --bin profile`), not
//! freshness-diffed: its byte content is machine-independent, but
//! regeneration is only meaningful when the engine's event flow
//! changes.

use std::process::ExitCode;

use venice_bench::{time_once, PROBE_RING_CAP, PROBE_TICK};
use venice_loadgen::telemetry::EVENT_KIND_LABELS;
use venice_loadgen::{economy, elastic_v2, engine, failover, scenarios, FaultPlan, LoadgenConfig};
use venice_telemetry::export_jsonl;

/// Default timing iterations for the overhead gate (best-of is kept).
const DEFAULT_ITERS: u32 = 3;

struct Args {
    out: Option<String>,
    requests: Option<u64>,
    iters: u32,
    gate_overhead_pct: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: None,
        requests: None,
        iters: DEFAULT_ITERS,
        gate_overhead_pct: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--out" => args.out = Some(take("--out")?),
            "--requests" => {
                args.requests = Some(
                    take("--requests")?
                        .parse()
                        .map_err(|e| format!("--requests: {e}"))?,
                )
            }
            "--iters" => {
                args.iters = take("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if args.iters == 0 {
                    return Err("--iters must be at least 1".to_string());
                }
            }
            "--gate-overhead" => {
                args.gate_overhead_pct = Some(
                    take("--gate-overhead")?
                        .parse()
                        .map_err(|e| format!("--gate-overhead: {e}"))?,
                )
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\n\
                     usage: profile [--out PATH] [--requests N] [--iters K] \
                     [--gate-overhead PCT]"
                ))
            }
        }
    }
    Ok(args)
}

/// The scenario grid: every control path the probe can light up —
/// static storms (pure event-core traffic), the predictive lease
/// controller (grow/establish/shrink spans), the quota market
/// (denials, subleases, teardowns), and the failover chaos run
/// (fault and failover spans through a mid-run node crash).
fn grid() -> Vec<(String, LoadgenConfig, Option<FaultPlan>)> {
    let mut out = Vec::new();
    for config in scenarios::storm_configs(scenarios::SCENARIO_SEED) {
        out.push((format!("storm-{}", config.mix.name), config, None));
    }
    let mut predictive = elastic_v2::predictive_config(elastic_v2::V2_SEED);
    predictive.requests = 400_000;
    out.push(("elastic-v2-predictive".to_string(), predictive, None));
    out.push((
        "economy-market".to_string(),
        economy::market_config(economy::ECONOMY_SEED),
        None,
    ));
    out.push((
        "failover-crash".to_string(),
        failover::elastic_config(failover::FAILOVER_SEED),
        Some(failover::crash_plan()),
    ));
    out
}

/// Starts a run with the scenario's fault plan (if any) armed — both
/// sides of the perturbation gate carry the same chaos.
fn start_run<'c>(config: &'c LoadgenConfig, plan: &Option<FaultPlan>) -> engine::Run<'c, 'static> {
    let mut run = engine::Run::new(config);
    if let Some(plan) = plan {
        run = run.faults(plan.clone());
    }
    run
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("profile: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut artifact = String::new();
    let mut worst_overhead_pct = f64::NEG_INFINITY;
    for (scenario, mut config, plan) in grid() {
        if let Some(n) = args.requests {
            config.requests = n;
        }
        let start = |config| start_run(config, &plan);

        // Timing iterations are interleaved (no-op, probed, no-op,
        // probed, …), each side keeping its best wall time, so shared-
        // machine noise degrades both sides of a pair instead of
        // skewing whichever ran in the noisy window. The reports come
        // from the final iteration; every iteration is bit-identical.
        let iters = if args.gate_overhead_pct.is_some() {
            args.iters
        } else {
            1
        };
        let mut noop_wall_ms = f64::INFINITY;
        let mut probed_wall_ms = f64::INFINITY;
        let mut noop_report = None;
        let mut probed = None;
        for _ in 0..iters {
            let (wall, r) = time_once(|| start(&config).execute().report);
            noop_wall_ms = noop_wall_ms.min(wall);
            noop_report = Some(r);
            let (wall, out) = time_once(|| {
                start(&config)
                    .recording(PROBE_TICK, PROBE_RING_CAP)
                    .execute()
            });
            probed_wall_ms = probed_wall_ms.min(wall);
            probed = Some((out.profile_text(&scenario), out.report, out.probe));
        }
        let noop_report = noop_report.expect("iters >= 1");
        let (text, probed_report, probe) = probed.expect("iters >= 1");

        // The perturbation gate: a probed run must report *exactly*
        // what a no-op run reports, byte for byte.
        let noop_json = serde_json::to_string(&noop_report).expect("report serializes");
        let probed_json = serde_json::to_string(&probed_report).expect("report serializes");
        if noop_json != probed_json {
            eprintln!(
                "profile: {scenario}: probed run diverged from the no-op run \
                 (no-op {} bytes, probed {} bytes)",
                noop_json.len(),
                probed_json.len()
            );
            return ExitCode::FAILURE;
        }

        print!("{text}");
        println!(
            "gate: probed report matches the no-op report byte for byte ({} bytes)",
            noop_json.len()
        );
        if args.gate_overhead_pct.is_some() {
            let overhead_pct = (probed_wall_ms / noop_wall_ms - 1.0) * 100.0;
            worst_overhead_pct = worst_overhead_pct.max(overhead_pct);
            println!(
                "timing: no-op {noop_wall_ms:.1} ms, probed {probed_wall_ms:.1} ms \
                 (overhead {overhead_pct:+.1}%, best of {iters})"
            );
        }
        println!();

        // Export from the probe we already have rather than re-running
        // through `RunOutput::artifact_jsonl` — same rendering path,
        // identical bytes (the loadgen tests pin that equivalence).
        artifact.push_str(&export_jsonl(
            &scenario,
            config.seed,
            &probe,
            &EVENT_KIND_LABELS,
        ));
    }

    if let Some(limit) = args.gate_overhead_pct {
        if worst_overhead_pct > limit {
            eprintln!(
                "profile: probe overhead gate FAILED: worst {worst_overhead_pct:+.1}% \
                 exceeds the {limit}% budget"
            );
            return ExitCode::FAILURE;
        }
        println!("overhead gate: worst {worst_overhead_pct:+.1}% within the {limit}% budget");
    }

    let path = args
        .out
        .unwrap_or_else(|| "BENCH_telemetry.jsonl".to_string());
    if let Err(e) = std::fs::write(&path, &artifact) {
        eprintln!("profile: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path} ({} lines)", artifact.lines().count());
    ExitCode::SUCCESS
}
