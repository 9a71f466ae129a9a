//! The benchmark's workloads, how one engine execution is run and
//! timed, and the correctness checks applied to every report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use venice_loadgen::{
    congestion, failover, scenarios, EngineMetrics, FaultPlan, LoadReport, LoadgenConfig, Run,
};
use venice_telemetry::Probe;

use crate::heap;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["storm", "storm-sharded", "congestion", "failover"];

/// Requests per congestion row. The published rows issue 1.5 M each;
/// 300 k still spans fifteen 500 ms burst cycles (about 7.6 s of
/// simulated time) and keeps one pass inside a run's time budget.
pub const CONGESTION_REQUESTS: u64 = 300_000;

/// One configuration of a workload: a published row, unchanged except
/// for its request count.
#[derive(Debug, Clone)]
pub struct Job {
    /// The row's label in its figure family.
    pub label: String,
    /// The engine configuration.
    pub config: LoadgenConfig,
    /// The row's fault plan, if it has one.
    pub faults: Option<FaultPlan>,
}

/// A named set of jobs and the way the engine runs them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// Figure family whose recorded digests the reports must match;
    /// `storm-sharded` shares `storm`'s, since its bytes must equal them.
    pub family: &'static str,
    /// Seed handed to the family's config constructors.
    pub seed: u64,
    /// The jobs, in figure order.
    pub jobs: Vec<Job>,
    /// Whether every execution captures the per-request trace.
    pub traced: bool,
    /// Shard count of the timed executions (1 = sequential engine).
    pub shards: usize,
}

/// The family's published seed for workload `name`.
pub fn published_seed(name: &str) -> Option<u64> {
    match name {
        "storm" | "storm-sharded" => Some(scenarios::SCENARIO_SEED),
        "congestion" => Some(congestion::CONGESTION_SEED),
        "failover" => Some(failover::FAILOVER_SEED),
        _ => None,
    }
}

/// Builds workload `name` at `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let plain = |(label, config): (String, LoadgenConfig)| Job {
        label,
        config,
        faults: None,
    };
    let storm = || {
        scenarios::storm_configs(seed)
            .into_iter()
            .map(|c| plain((c.mix.name.clone(), c)))
            .collect::<Vec<_>>()
    };
    let (name, family, jobs, traced, shards) = match name {
        "storm" => ("storm", "storm", storm(), false, 1),
        "storm-sharded" => ("storm-sharded", "storm", storm(), false, 2),
        "congestion" => {
            let jobs = congestion::configs(seed)
                .into_iter()
                .map(|(label, mut config)| {
                    config.requests = CONGESTION_REQUESTS;
                    plain((label, config))
                })
                .collect();
            ("congestion", "congestion", jobs, true, 1)
        }
        "failover" => {
            let jobs = failover::comparison_configs(seed)
                .into_iter()
                .map(|(label, config, faults)| Job {
                    label,
                    config,
                    faults,
                })
                .collect();
            ("failover", "failover", jobs, false, 1)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        family,
        seed,
        jobs,
        traced,
        shards,
    })
}

impl Workload {
    /// The same workload with every job at `requests` requests.
    #[cfg(test)]
    pub fn scaled(mut self, requests: u64) -> Self {
        for job in &mut self.jobs {
            job.config.requests = requests;
        }
        self
    }

    /// Total requests one pass over the jobs issues.
    pub fn requests_per_pass(&self) -> u64 {
        self.jobs.iter().map(|j| j.config.requests).sum()
    }
}

/// What one engine execution produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's report.
    pub report: LoadReport,
    /// Kernel loop counters.
    pub metrics: EngineMetrics,
    /// Per-request records captured (0 unless traced).
    pub trace_records: usize,
    /// Host wall time of the execution, in seconds.
    pub wall_s: f64,
    /// Peak heap bytes the execution held above what was live before it.
    pub peak_heap: usize,
}

/// Runs `job` once with the given arms and times it. A panic inside
/// the engine is caught and returned as an error, so one bad execution
/// is counted instead of ending the benchmark.
pub fn execute<P: Probe>(
    job: &Job,
    config: &LoadgenConfig,
    traced: bool,
    shards: usize,
    probe: P,
) -> Result<(Outcome, P), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let base = heap::mark();
        let start = Instant::now();
        let mut run = Run::new(config).probe(probe).shards(shards);
        if traced {
            run = run.traced();
        }
        if let Some(plan) = &job.faults {
            run = run.faults(plan.clone());
        }
        let out = run.execute();
        let wall_s = start.elapsed().as_secs_f64();
        let peak_heap = heap::peak_since(base);
        let outcome = Outcome {
            trace_records: out.trace.as_ref().map_or(0, |t| t.len()),
            report: out.report,
            metrics: out.metrics,
            wall_s,
            peak_heap,
        };
        (outcome, out.probe)
    }))
    .map_err(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("{}: engine panicked: {msg}", job.label)
    })
}

/// Checks request conservation on one report: every issued request
/// either completed or was shed for exactly one reason, and the
/// per-tenant rows cover every completion.
pub fn check_conservation(job: &Job, config: &LoadgenConfig, r: &LoadReport) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", job.label));
    if r.issued != config.requests {
        return fail(format!("issued {} of {}", r.issued, config.requests));
    }
    if r.issued != r.completed + r.shed_total() {
        return fail(format!(
            "issued {} != completed {} + shed {}",
            r.issued,
            r.completed,
            r.shed_total()
        ));
    }
    let tenants: u64 = r.tenants.iter().map(|t| t.completed).sum();
    if tenants != r.completed || r.total.completed != r.completed {
        return fail(format!(
            "completed {} but tenant rows sum to {tenants} and the total row to {}",
            r.completed, r.total.completed
        ));
    }
    Ok(())
}

/// The report's serialized bytes: what determinism, sharded-equals-
/// sequential and the recorded digests compare.
pub fn report_bytes(r: &LoadReport) -> String {
    serde_json::to_string(r).expect("reports serialize")
}

/// 64-bit FNV-1a digest of a serialized report.
pub fn digest(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Report digests recorded by `record-digests`, one per line:
/// `family seed requests label digest`.
const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of `job`'s report in `family` at `seed`, if one
/// was recorded for this seed and request count.
pub fn recorded_digest(family: &str, seed: u64, job: &Job) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [fam, s, req, label, d] = f[..] else {
            return None;
        };
        (fam == family
            && s.parse() == Ok(seed)
            && req.parse() == Ok(job.config.requests)
            && label == job.label)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_telemetry::NoopProbe;

    /// A seed used by no recorded digest and by nothing else while the
    /// benchmark was written.
    const FRESH_SEED: u64 = 0x5EED_2B1D;

    #[test]
    fn every_workload_conserves_and_sharded_matches_sequential() {
        for name in NAMES {
            let wl = build(name, FRESH_SEED)
                .expect("known workload")
                .scaled(4_000);
            for job in &wl.jobs {
                let run = |shards| {
                    execute(job, &job.config, wl.traced, shards, NoopProbe)
                        .expect("engine runs")
                        .0
                        .report
                };
                let seq = run(1);
                check_conservation(job, &job.config, &seq).expect("conserves");
                let timed = run(wl.shards);
                assert_eq!(
                    report_bytes(&seq),
                    report_bytes(&timed),
                    "{name}/{}: {} shards differ from sequential",
                    job.label,
                    wl.shards
                );
            }
        }
    }

    #[test]
    fn digest_table_parses_and_names_known_families() {
        let mut rows = 0;
        for line in DIGESTS.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 5, "bad digest line `{line}`");
            assert!(["storm", "congestion", "failover"].contains(&f[0]));
            assert!(f[1].parse::<u64>().is_ok() && f[2].parse::<u64>().is_ok());
            assert!(u64::from_str_radix(f[4], 16).is_ok());
            rows += 1;
        }
        assert!(rows > 0, "no digests recorded");
    }
}
