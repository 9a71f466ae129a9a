//! The probed-run bin: hot-path profiles, latency attribution, and both
//! probe artifacts.
//!
//! ```text
//! profile [--gate-overhead PCT]
//! ```
//!
//! Runs one scenario table with a probe threaded through the engine:
//!
//! * six [`RecordingProbe`] scenarios — the three storm mixes, the
//!   elastic-v2 predictive controller, the economy quota market, and the
//!   failover chaos run (a mid-run node crash, so the artifact carries
//!   fault and failover spans). Each prints its text profile (top event
//!   kinds by count and attributed sim time, queue traffic, per-node
//!   utilization, lease span summary) and adds one `venice-telemetry-v2`
//!   block to `BENCH_telemetry.jsonl`;
//! * the static-vs-predictive pair under [`AttribProbe`] — the same mix,
//!   seed, and traffic through static full provisioning and through the
//!   elastic-v2 predictive controller. Each prints its per-tenant
//!   critical path (which of the seven lifecycle stages dominates its
//!   p99 tail); the pair prints the differential explain report and
//!   becomes `BENCH_attrib.jsonl`.
//!
//! Every probed run is **gated** against a no-op-probe run of the same
//! configuration: the two `LoadReport`s must serialize to byte-identical
//! JSON, or observing the run perturbed it and the bin fails. Both
//! artifacts are re-validated line by line and written to the repo root
//! whatever the invocation CWD. Their bytes are machine-independent, so
//! CI regenerates them at rayon widths 1 and 8 and `git diff`s them
//! against the committed files: a diff means the engine's event flow
//! changed.
//!
//! With `--gate-overhead PCT`, each recording scenario is also timed over
//! [`PAIRS`] interleaved no-op/probed pairs, and the bin fails if the
//! worst scenario's median probed/no-op wall-time ratio exceeds the
//! budget — the "cheap enough to leave on" claim, measured. An A/A
//! control (no-op on both sides, same pairing) is printed next to each
//! reading and the verdict, so the noise floor the verdict stands on is
//! visible.
//!
//! Sampling cadence is [`venice_bench::PROBE_TICK`] (sim time) with a
//! ring retaining the last [`venice_bench::PROBE_RING_CAP`] rows per
//! scenario, so artifact size is bounded no matter the request count.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use venice_bench::{validate_attrib, validate_telemetry, PROBE_RING_CAP, PROBE_TICK};
use venice_loadgen::{
    economy, elastic, elastic_v2, engine, failover, scenarios, FaultPlan, LoadgenConfig,
    RemoteStack, RunOutput,
};
use venice_telemetry::attrib::STAGE_LABELS;
use venice_telemetry::{
    export_attrib_jsonl, render_explain, AttribProbe, NoopProbe, Probe, RecordingProbe,
};

/// Interleaved no-op/probed pairs per scenario behind each overhead
/// reading (and as many no-op/no-op pairs behind its A/A control).
const PAIRS: usize = 15;

/// Requests per elastic-v2 run: the figure scale, so the artifacts
/// describe the same runs the figures plot.
const V2_REQUESTS: u64 = 400_000;

/// Name of the attribution pair in `BENCH_attrib.jsonl`.
const ATTRIB_SCENARIO: &str = "static-vs-predictive";

/// Which probe a scenario runs under, and so which artifact it feeds.
enum Probed {
    /// [`RecordingProbe`]: a text profile, a `BENCH_telemetry.jsonl`
    /// block, and (under `--gate-overhead`) an overhead reading.
    Recording,
    /// [`AttribProbe`]: one side of the `BENCH_attrib.jsonl`
    /// differential.
    Attrib,
}

/// One row of the scenario table.
struct Scenario {
    name: String,
    config: LoadgenConfig,
    plan: Option<FaultPlan>,
    probed: Probed,
}

impl Scenario {
    /// Executes the scenario under `probe`, with its fault plan (if any)
    /// armed — both sides of every gate carry the same chaos.
    fn run<P: Probe>(&self, probe: P) -> RunOutput<P> {
        let mut run = engine::Run::new(&self.config).probe(probe);
        if let Some(plan) = &self.plan {
            run = run.faults(plan.clone());
        }
        run.execute()
    }
}

/// The scenario table: every control path the probes can light up —
/// static storms (pure event-core traffic), the predictive lease
/// controller (grow/establish/shrink spans), the quota market (denials,
/// subleases, teardowns), the failover chaos run (fault and failover
/// spans) — then the attribution pair, base first.
fn scenario_table() -> Vec<Scenario> {
    let v2 = |mut config: LoadgenConfig| {
        config.requests = V2_REQUESTS;
        config
    };
    let recording = |name: &str, config, plan| Scenario {
        name: name.to_string(),
        config,
        plan,
        probed: Probed::Recording,
    };
    let attrib = |name: &str, config| Scenario {
        name: name.to_string(),
        config: v2(config),
        plan: None,
        probed: Probed::Attrib,
    };
    let mut table: Vec<Scenario> = scenarios::storm_configs(scenarios::SCENARIO_SEED)
        .into_iter()
        .map(|config| recording(&format!("storm-{}", config.mix.name), config, None))
        .collect();
    table.extend([
        recording(
            "elastic-v2-predictive",
            v2(elastic_v2::predictive_config(elastic_v2::V2_SEED)),
            None,
        ),
        recording(
            "economy-market",
            economy::market_config(economy::ECONOMY_SEED),
            None,
        ),
        recording(
            "failover-crash",
            failover::elastic_config(failover::FAILOVER_SEED),
            Some(failover::crash_plan()),
        ),
        attrib(
            "static",
            elastic::static_config(elastic_v2::V2_SEED, RemoteStack::VeniceCrma),
        ),
        attrib(
            "predictive",
            elastic_v2::predictive_config(elastic_v2::V2_SEED),
        ),
    ]);
    table
}

/// The perturbation gate: runs `s` under `probe` and under the no-op
/// probe, and returns the probed output only if the two reports
/// serialize to the same bytes.
fn gated<P: Probe>(s: &Scenario, probe: P) -> Result<RunOutput<P>, String> {
    let noop = serde_json::to_string(&s.run(NoopProbe).report).expect("report serializes");
    let out = s.run(probe);
    let probed = serde_json::to_string(&out.report).expect("report serializes");
    if noop != probed {
        return Err(format!(
            "{}: probed run diverged from the no-op run (no-op {} bytes, probed {} bytes)",
            s.name,
            noop.len(),
            probed.len()
        ));
    }
    println!(
        "gate: {} probed report matches the no-op report byte for byte ({} bytes)",
        s.name,
        noop.len()
    );
    Ok(out)
}

/// Median over [`PAIRS`] interleaved pairs of `b`'s wall time relative
/// to `a`'s, in percent. Each pair runs back to back, so shared-machine
/// noise hits both sides of a ratio alike; the order within a pair
/// alternates, so neither side always runs first; and the median drops
/// the pairs a burst of noise landed on.
fn median_ratio_pct<A, B>(mut a: impl FnMut() -> A, mut b: impl FnMut() -> B) -> f64 {
    fn ms<T>(f: &mut impl FnMut() -> T) -> f64 {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(out);
        ms
    }
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = ms(&mut a);
                (ta, ms(&mut b))
            } else {
                let tb = ms(&mut b);
                (ms(&mut a), tb)
            };
            tb / ta
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[PAIRS / 2] - 1.0) * 100.0
}

fn parse_args() -> Result<Option<f64>, String> {
    let mut budget = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate-overhead" => {
                let pct = it.next().ok_or("--gate-overhead requires a value")?;
                budget = Some(pct.parse().map_err(|e| format!("--gate-overhead: {e}"))?);
            }
            other => {
                return Err(format!(
                    "unknown argument `{other}`\nusage: profile [--gate-overhead PCT]"
                ))
            }
        }
    }
    Ok(budget)
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profile: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(budget_pct: Option<f64>) -> Result<(), String> {
    let table = scenario_table();
    let mut telemetry = String::new();
    let mut attributed = Vec::new();
    // (worst overhead, its scenario), and the widest A/A reading.
    let mut worst = (f64::NEG_INFINITY, "");
    let mut widest_control = 0.0f64;
    for s in &table {
        match s.probed {
            Probed::Recording => {
                let probe = || RecordingProbe::new(PROBE_TICK, PROBE_RING_CAP);
                let out = gated(s, probe())?;
                print!("{}", out.profile_text(&s.name));
                telemetry.push_str(&out.artifact_jsonl(&s.name));
                if budget_pct.is_some() {
                    let overhead = median_ratio_pct(|| s.run(NoopProbe), || s.run(probe()));
                    let control = median_ratio_pct(|| s.run(NoopProbe), || s.run(NoopProbe));
                    println!(
                        "timing: probed overhead {overhead:+.1}%, A/A control {control:+.1}% \
                         (medians of {PAIRS} interleaved pairs)"
                    );
                    if overhead > worst.0 {
                        worst = (overhead, s.name.as_str());
                    }
                    widest_control = widest_control.max(control.abs());
                }
            }
            Probed::Attrib => {
                attributed.push((s, gated(s, AttribProbe::new(PROBE_TICK, PROBE_RING_CAP))?));
            }
        }
        println!();
    }

    // Per-run critical paths, then the differential. Both runs drive the
    // same mix, so one label list names both.
    let [(base, base_out), (cand, cand_out)] = &attributed[..] else {
        panic!("the scenario table holds one attribution pair");
    };
    let labels: Vec<&str> = base
        .config
        .mix
        .classes
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    for (s, out) in &attributed {
        println!("== critical path: {} ==", s.name);
        for t in out.probe.attrib().tenant_summaries() {
            let share = t.dominant_share_pm();
            println!(
                "tenant {}: p99 {} us over {} requests; tail dominated by {} \
                 ({}.{}% of tail time)",
                labels.get(t.tenant as usize).copied().unwrap_or("?"),
                t.p99.as_ps() / 1_000_000,
                t.count,
                STAGE_LABELS[t.dominant_tail_stage],
                share / 10,
                share % 10,
            );
        }
        println!();
    }
    let (base_fold, cand_fold) = (base_out.probe.attrib(), cand_out.probe.attrib());
    print!(
        "{}",
        render_explain(
            ATTRIB_SCENARIO,
            &base.name,
            &cand.name,
            base_fold,
            cand_fold,
            &labels
        )
    );
    println!();
    let attrib = export_attrib_jsonl(
        ATTRIB_SCENARIO,
        base.config.seed,
        &[(&base.name, base_fold), (&cand.name, cand_fold)],
        &labels,
    );

    if let Some(budget) = budget_pct {
        let (overhead, scenario) = worst;
        let verdict = format!(
            "worst {overhead:+.1}% ({scenario}) against the {budget}% budget; \
             A/A control within ±{widest_control:.1}%"
        );
        if overhead > budget {
            return Err(format!("probe overhead gate FAILED: {verdict}"));
        }
        println!("overhead gate: passed, {verdict}");
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let artifacts = [
        (
            "BENCH_telemetry.jsonl",
            validate_telemetry(&telemetry),
            telemetry,
        ),
        ("BENCH_attrib.jsonl", validate_attrib(&attrib), attrib),
    ];
    for (name, problems, _) in &artifacts {
        if !problems.is_empty() {
            return Err(format!("{name}: {}", problems.join("; ")));
        }
    }
    for (name, _, jsonl) in artifacts {
        let path = root.join(name);
        std::fs::write(&path, &jsonl)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {} ({} lines)", path.display(), jsonl.lines().count());
    }
    Ok(())
}
