//! Host-cost benchmark of the Venice traffic engine.
//!
//! ```text
//! venice-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! venice-perfbench record-digests --out PATH [--seeds N,N,...]
//! ```
//!
//! One run builds workload `NAME` (see `LAYERS.md` next to this
//! package), checks every engine report it produces, and prints as its
//! last stdout line one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! timed with tracing off; with `--trace 1` a separate run prints the
//! per-layer metrics. Earlier stdout lines carry the machine manifest
//! and, for every timed metric, its median, quartiles and sample count.
//!
//! `--seed` is the seed handed to the family's config constructors; it
//! defaults to the family's published seed. `record-digests` rewrites
//! the digest table the correctness check compares reports against.

mod heap;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use venice_loadgen::LoadgenConfig;
use venice_telemetry::{NoopProbe, Probe};

use layers::{SelfTimeProbe, ENGINE_KINDS, FUSED_SLOT};
use stats::{block_times, manifest, to_reference, ReferenceKernel, Spread, BLOCK};
use workload::{Job, Outcome, Workload};

/// Timed passes a run makes at the least, however short `--seconds`.
const MIN_PASSES: usize = 2 * BLOCK;
/// Repetitions of the one-request setup pass behind `setup_s`.
const SETUP_REPS: usize = 16 * BLOCK;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if out.seconds.is_nan() || out.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workload::NAMES.join(", ")
        ));
    }
    Ok(out)
}

/// Executions attempted and failed, with the first failures' messages,
/// and the largest heap peak of any execution.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    peak_heap: usize,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Runs `job` once and checks its report: conservation always, and
    /// byte equality with `reference` when given. Returns the outcome
    /// and probe when the execution completed, even if a check failed.
    fn run<P: Probe>(
        &mut self,
        job: &Job,
        config: &LoadgenConfig,
        wl: &Workload,
        shards: usize,
        probe: P,
        reference: Option<&str>,
    ) -> Option<(Outcome, P)> {
        self.attempted += 1;
        let (out, probe) = match workload::execute(job, config, wl.traced, shards, probe) {
            Ok(done) => done,
            Err(e) => {
                self.fail(e);
                return None;
            }
        };
        self.peak_heap = self.peak_heap.max(out.peak_heap);
        let mut check = workload::check_conservation(job, config, &out.report);
        if let (Ok(()), Some(reference)) = (&check, reference) {
            if workload::report_bytes(&out.report) != reference {
                check = Err(format!(
                    "{}: report differs from the sequential reference ({shards} shards)",
                    job.label
                ));
            }
        }
        if let Err(e) = check {
            self.fail(e);
        }
        Some((out, probe))
    }

    /// One pass over every job with `shards` shards, starting at job
    /// `first` so passes rotate which job runs first; each report is
    /// compared with the reference. Results come back in job order;
    /// `None` if any execution panicked.
    fn pass<P: Probe + Clone>(
        &mut self,
        wl: &Workload,
        refs: &[String],
        shards: usize,
        probe: &P,
        first: usize,
    ) -> Option<Vec<(Outcome, P)>> {
        let n = wl.jobs.len();
        let mut out: Vec<Option<(Outcome, P)>> = (0..n).map(|_| None).collect();
        for i in (0..n).map(|k| (first + k) % n) {
            let job = &wl.jobs[i];
            out[i] = Some(self.run(job, &job.config, wl, shards, probe.clone(), Some(&refs[i]))?);
        }
        out.into_iter().collect()
    }
}

/// Per-job wall times of one pass, in job order.
fn walls(pass: &[(Outcome, impl Sized)]) -> Vec<f64> {
    pass.iter().map(|(o, _)| o.wall_s).collect()
}

/// The reference pass: every job once on the sequential engine, each
/// report checked for conservation and against its recorded digest.
/// Returns the serialized reports and outcomes in job order.
fn reference_pass(wl: &Workload, tally: &mut Tally) -> Option<(Vec<String>, Vec<Outcome>)> {
    let mut refs = Vec::new();
    let mut outs = Vec::new();
    let mut checked = 0;
    for job in &wl.jobs {
        let (out, _) = tally.run(job, &job.config, wl, 1, NoopProbe, None)?;
        let bytes = workload::report_bytes(&out.report);
        if let Some(want) = workload::recorded_digest(wl.family, wl.seed, job) {
            checked += 1;
            let got = workload::digest(&bytes);
            if got != want {
                tally.fail(format!(
                    "{}: report digest {got:016x} != recorded {want:016x}",
                    job.label
                ));
            }
        }
        refs.push(bytes);
        outs.push(out);
    }
    println!(
        "reference: {} reports, {checked} checked against recorded digests",
        refs.len()
    );
    Some((refs, outs))
}

/// Block times of repetitions of `rep` (per-job wall seconds), raw
/// and scaled to the reference host, with the reference kernel timed
/// after every repetition. Repeats while `more(repetitions so far)`.
fn timed_blocks(
    kernel: &mut ReferenceKernel,
    more: impl Fn(usize) -> bool,
    mut rep: impl FnMut(usize) -> Option<Vec<f64>>,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let mut walls = Vec::new();
    let mut kernel_s = Vec::new();
    while more(walls.len()) {
        walls.push(rep(walls.len())?);
        kernel_s.push(kernel.time());
    }
    let raw = block_times(&walls);
    let scaled = to_reference(&raw, &kernel_s);
    Some((raw, scaled))
}

fn end_to_end(
    wl: &Workload,
    args: &Args,
    tally: &mut Tally,
    summary: &mut Vec<(String, Spread)>,
) -> Vec<(String, &'static str, f64)> {
    let Some((refs, outs)) = reference_pass(wl, tally) else {
        return Vec::new();
    };
    let mut kernel = ReferenceKernel::new();

    // Set-up: every job at one request on the sequential engine. That
    // builds the same cluster, paths, slabs and managers the sharded
    // engine does; at one request the sharded engine's own fixed cost
    // is mostly the wait for the second core to wake, which on a shared
    // virtual machine varies two-fold from run to run.
    let one: Vec<LoadgenConfig> = wl
        .jobs
        .iter()
        .map(|j| LoadgenConfig {
            requests: 1,
            ..j.config.clone()
        })
        .collect();
    let setup = timed_blocks(
        &mut kernel,
        |n| n < SETUP_REPS,
        |_| {
            let walls = wl.jobs.iter().zip(&one).map(|(job, config)| {
                tally
                    .run(job, config, wl, 1, NoopProbe, None)
                    .map(|(o, _)| o.wall_s)
            });
            walls.collect()
        },
    );
    let Some((setup_raw, setup)) = setup else {
        return Vec::new();
    };

    // Every pass repeats the reference reports byte for byte, so the
    // work per pass is the reference pass's.
    let events: u64 = outs.iter().map(|o| o.metrics.events).sum();
    let issued: u64 = outs.iter().map(|o| o.report.issued).sum();
    let start = Instant::now();
    let more = |n: usize| {
        n < MIN_PASSES || !n.is_multiple_of(BLOCK) || start.elapsed().as_secs_f64() < args.seconds
    };
    let passes = timed_blocks(&mut kernel, more, |n| {
        tally
            .pass(wl, &refs, wl.shards, &NoopProbe, n)
            .map(|p| walls(&p))
    });
    let Some((raw, times)) = passes else {
        return Vec::new();
    };
    let rate = |work: u64, t: &[f64]| Spread::of(t.iter().map(|t| work as f64 / t).collect());
    let events_per_s = rate(events, &times);
    let requests_per_s = rate(issued, &times);
    let completed: u64 = outs.iter().map(|o| o.report.completed).sum();
    let p99 = outs
        .iter()
        .map(|o| o.report.total.p99_us)
        .fold(0.0, f64::max);
    let out = vec![
        ("events_per_s".into(), "1/s", events_per_s.median),
        ("requests_per_s".into(), "1/s", requests_per_s.median),
        ("setup_s".into(), "s", Spread::of(setup.clone()).median),
        (
            "peak_heap_mb".into(),
            "MB",
            tally.peak_heap as f64 / f64::from(1 << 20),
        ),
        ("sim_p99_us".into(), "us", p99),
        (
            "sim_completed_frac".into(),
            "frac",
            completed as f64 / issued as f64,
        ),
        (
            "correct_frac".into(),
            "frac",
            1.0 - tally.failed as f64 / tally.attempted as f64,
        ),
    ];
    summary.push(("events_per_s".into(), events_per_s));
    summary.push(("requests_per_s".into(), requests_per_s));
    summary.push(("setup_s".into(), Spread::of(setup)));
    summary.push(("events_per_host_s".into(), rate(events, &raw)));
    summary.push(("setup_host_s".into(), Spread::of(setup_raw)));
    out
}

/// Per-layer metrics `(name, unit, value)` of the traced run.
fn per_layer(
    wl: &Workload,
    args: &Args,
    tally: &mut Tally,
    summary: &mut Vec<(String, Spread)>,
) -> Vec<(String, &'static str, f64)> {
    let Some((refs, outs)) = reference_pass(wl, tally) else {
        return Vec::new();
    };
    let start = Instant::now();
    let budget = |share: f64| start.elapsed().as_secs_f64() < args.seconds * share;

    // Untraced and probed passes, interleaved, on the sequential path
    // (any probe forces it).
    let mut plain = Vec::new();
    let mut probed = Vec::new();
    let mut engine = SelfTimeProbe::default();
    while plain.len() < BLOCK || budget(0.5) {
        let first = plain.len();
        let Some(p) = tally.pass(wl, &refs, 1, &NoopProbe, first) else {
            return Vec::new();
        };
        let Some(q) = tally.pass(wl, &refs, 1, &SelfTimeProbe::default(), first) else {
            return Vec::new();
        };
        plain.push(walls(&p));
        probed.push(walls(&q));
        for (_, probe) in &q {
            engine.absorb(probe);
        }
    }
    let passes = probed.len() as u64;
    let plain = Spread::of(block_times(&plain));
    let probed = Spread::of(block_times(&probed));

    // Width 1 against width 2, interleaved with alternating order.
    let mut seq = Vec::new();
    let mut par = Vec::new();
    while seq.len() < BLOCK || budget(0.75) {
        let k = seq.len();
        let order = if k % 2 == 0 { [1, 2] } else { [2, 1] };
        for shards in order {
            let Some(p) = tally.pass(wl, &refs, shards, &NoopProbe, k) else {
                return Vec::new();
            };
            if shards == 1 {
                seq.push(walls(&p));
            } else {
                par.push(walls(&p));
            }
        }
    }
    let seq = Spread::of(block_times(&seq));
    let par = Spread::of(block_times(&par));

    let peak_depth = outs
        .iter()
        .map(|o| o.metrics.peak_queue_depth)
        .max()
        .unwrap_or(1);
    let costs = layers::measure(&wl.jobs, peak_depth, wl.seed);

    let sum = |f: &dyn Fn(&Outcome) -> u64| outs.iter().map(f).sum::<u64>();
    let pushes = sum(&|o| o.metrics.queue.pushes());
    let pops = sum(&|o| o.metrics.queue.pops());
    let near = sum(&|o| o.metrics.queue.near_hits);
    let issued = sum(&|o| o.report.issued);
    let completed = sum(&|o| o.report.completed);
    let grows = sum(&|o| o.report.lease.grows);
    let denials = sum(&|o| o.report.lease.denials);
    let charges: u64 = wl
        .jobs
        .iter()
        .zip(&outs)
        .filter(|(j, _)| {
            matches!(
                j.config.remote_model,
                venice_loadgen::RemoteModelCfg::Congested(_)
            )
        })
        .map(|(_, o)| o.report.completed)
        .sum();
    let per_pass = |slot: usize| engine.count[slot] / passes;
    let lease_ticks = per_pass(4);
    let fault_ticks = per_pass(7);
    let transitions: u64 = wl
        .jobs
        .iter()
        .zip(&outs)
        .filter_map(|(j, o)| {
            j.faults
                .as_ref()
                .map(|p| transitions_within(p, o.report.duration))
        })
        .sum();
    let draw_ns = costs.gap_ns + costs.user_ns + costs.class_ns + costs.service_ns;
    let accounted_ns = costs.queue_push_pop_ns * pops as f64
        + (draw_ns + costs.admission_ns) * issued as f64
        + (costs.qpair_ns + costs.stats_record_ns) * completed as f64
        + costs.remote_charge_ns * charges as f64
        + costs.lease_tick_ns * lease_ticks as f64
        + costs.fault_pop_due_ns * fault_ticks as f64;

    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m: Vec<(String, &'static str, f64)> = vec![
        (
            "sim.queue.push_pop_ns".into(),
            "ns",
            costs.queue_push_pop_ns,
        ),
        ("sim.queue.pushes".into(), "count", pushes as f64),
        (
            "sim.queue.sifts".into(),
            "count",
            sum(&|o| o.metrics.queue.sifts()) as f64,
        ),
        (
            "sim.queue.near_hit_ratio".into(),
            "ratio",
            ratio(near, pushes),
        ),
        ("sim.queue.peak_depth".into(), "count", peak_depth as f64),
        ("sim.stats.record_ns".into(), "ns", costs.stats_record_ns),
        ("loadgen.arrival.gap_ns".into(), "ns", costs.gap_ns),
        ("loadgen.tenants.user_ns".into(), "ns", costs.user_ns),
        ("loadgen.tenants.class_ns".into(), "ns", costs.class_ns),
        ("loadgen.tenants.service_ns".into(), "ns", costs.service_ns),
        ("loadgen.arrival.draw_ns_per_request".into(), "ns", draw_ns),
        (
            "loadgen.admission.decide_ns".into(),
            "ns",
            costs.admission_ns,
        ),
        (
            "loadgen.admission.shed_rate".into(),
            "count",
            sum(&|o| o.report.shed_rate) as f64,
        ),
        (
            "loadgen.admission.shed_overload".into(),
            "count",
            sum(&|o| o.report.shed_overload) as f64,
        ),
        (
            "loadgen.admission.shed_backpressure".into(),
            "count",
            sum(&|o| o.report.shed_backpressure) as f64,
        ),
        (
            "loadgen.admission.shed_crash".into(),
            "count",
            sum(&|o| o.report.shed_crash) as f64,
        ),
        ("transport.qpair.post_drain_ns".into(), "ns", costs.qpair_ns),
        (
            "transport.qpair.credit_waits".into(),
            "count",
            sum(&|o| o.report.credit_waits) as f64,
        ),
        (
            "loadgen.remote.charge_ns".into(),
            "ns",
            costs.remote_charge_ns,
        ),
        (
            "loadgen.remote.donor_ok_ns".into(),
            "ns",
            costs.remote_donor_ok_ns,
        ),
        ("loadgen.remote.charges".into(), "count", charges as f64),
        ("lease.tick_ns".into(), "ns", costs.lease_tick_ns),
        ("lease.ticks".into(), "count", lease_ticks as f64),
        ("lease.grows".into(), "count", grows as f64),
        (
            "lease.revokes".into(),
            "count",
            sum(&|o| o.report.lease.revokes) as f64,
        ),
        (
            "lease.failovers".into(),
            "count",
            sum(&|o| o.report.lease.failovers) as f64,
        ),
        (
            "lease.grow_success_ratio".into(),
            "ratio",
            ratio(grows, grows + denials),
        ),
        (
            "loadgen.faults.pop_due_ns".into(),
            "ns",
            costs.fault_pop_due_ns,
        ),
        (
            "loadgen.faults.transitions".into(),
            "count",
            transitions as f64,
        ),
        (
            "loadgen.sharded.speedup_vs_seq".into(),
            "x",
            seq.median / par.median,
        ),
        (
            "loadgen.trace.records".into(),
            "count",
            outs.iter().map(|o| o.trace_records as u64).sum::<u64>() as f64,
        ),
        ("core.cluster.mesh_s".into(), "s", costs.cluster_mesh_s),
        ("fabric.paths_compile_s".into(), "s", costs.paths_compile_s),
    ];
    for (kind, slot) in ENGINE_KINDS {
        let ns = ratio(engine.ns[slot], engine.count[slot]);
        m.push((format!("loadgen.engine.{kind}.self_ns"), "ns", ns));
        m.push((
            format!("loadgen.engine.{kind}.count"),
            "count",
            per_pass(slot) as f64,
        ));
    }
    m.push((
        "loadgen.engine.fused_ratio".into(),
        "ratio",
        ratio(
            sum(&|o| o.metrics.fused_arrivals),
            per_pass(0) + per_pass(FUSED_SLOT),
        ),
    ));
    m.push((
        "trace.overhead_frac".into(),
        "frac",
        probed.median / plain.median - 1.0,
    ));
    m.push((
        "ledger.accounted_frac".into(),
        "frac",
        accounted_ns / (plain.median * 1e9),
    ));
    summary.push(("untraced_pass_s".into(), plain));
    summary.push(("probed_pass_s".into(), probed));
    summary.push(("width1_pass_s".into(), seq));
    summary.push(("width2_pass_s".into(), par));
    m
}

/// Fault-plan transitions (a crash and its recovery count as two) due
/// at or before `end`.
fn transitions_within(plan: &venice_loadgen::FaultPlan, end: venice_sim::Time) -> u64 {
    use venice_loadgen::FaultEvent;
    plan.events()
        .iter()
        .map(|e| match *e {
            FaultEvent::NodeCrash { at, recover_at, .. } => {
                (at <= end) as u64 + (recover_at <= end) as u64
            }
            FaultEvent::LinkFlap { at, duration, .. } => {
                (at <= end) as u64 + (at + duration <= end) as u64
            }
            FaultEvent::PacketLoss { at, .. } => (at <= end) as u64,
        })
        .sum()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn benchmark(args: &Args) -> Result<bool, String> {
    let unknown = || {
        format!(
            "unknown workload `{}` (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    };
    let seed = args
        .seed
        .or_else(|| workload::published_seed(&args.workload))
        .ok_or_else(unknown)?;
    let wl = workload::build(&args.workload, seed).ok_or_else(unknown)?;
    println!("{}", manifest(&wl, args.trace));
    let mut tally = Tally::default();
    let mut summary = Vec::new();
    let metrics = if args.trace {
        per_layer(&wl, args, &mut tally, &mut summary)
    } else {
        end_to_end(&wl, args, &mut tally, &mut summary)
    };
    for e in &tally.errors {
        println!("error: {e}");
    }
    let mut line = String::from("{\"summary\": {");
    for (i, (name, s)) in summary.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"n\": {}}}",
            json_num(s.min),
            json_num(s.q1),
            json_num(s.median),
            json_num(s.q3),
            json_num(s.max),
            s.n
        );
    }
    line.push_str("}}");
    println!("{line}");

    let correct = tally.failed == 0 && !metrics.is_empty() && tally.attempted > 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        );
    }
    out.push_str("}}");
    println!("{out}");
    Ok(correct)
}

/// Writes one digest line per (family, seed, job) for the published
/// seeds plus `seeds`.
fn record_digests(args: &[String]) -> Result<(), String> {
    let mut out_path = None;
    let mut seeds: Vec<u64> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--out" => out_path = Some(value.clone()),
            "--seeds" => {
                seeds = value
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let out_path = out_path.ok_or("--out is required")?;
    let mut text = String::new();
    for name in ["storm", "congestion", "failover"] {
        let published = workload::published_seed(name).expect("known workload");
        for seed in std::iter::once(published).chain(seeds.iter().copied()) {
            let wl = workload::build(name, seed).expect("known workload");
            let mut tally = Tally::default();
            let (refs, _) = reference_pass(&wl, &mut tally).ok_or("engine panicked")?;
            if let Some(e) = tally.errors.first() {
                return Err(e.clone());
            }
            for (job, bytes) in wl.jobs.iter().zip(&refs) {
                let _ = writeln!(
                    text,
                    "{} {seed} {} {} {:016x}",
                    wl.family,
                    job.config.requests,
                    job.label,
                    workload::digest(bytes)
                );
            }
        }
    }
    std::fs::write(&out_path, text).map_err(|e| format!("{out_path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("record-digests") {
        record_digests(&argv[1..]).map(|()| true)
    } else {
        parse_args(&argv).and_then(|args| benchmark(&args))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("venice-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` in `BENCHMARK.json`, in file order.
    fn declared_names() -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        text.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    #[test]
    fn printed_metrics_match_the_declared_ones() {
        let wl = workload::build("storm", 3)
            .expect("known workload")
            .scaled(2_000);
        let args = Args {
            workload: "storm".into(),
            seed: Some(3),
            seconds: 0.01,
            trace: false,
        };
        let mut tally = Tally::default();
        let mut summary = Vec::new();
        let e2e: Vec<String> = end_to_end(&wl, &args, &mut tally, &mut summary)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        let layers: Vec<String> = per_layer(&wl, &args, &mut tally, &mut summary)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(tally.failed, 0, "{:?}", tally.errors);
        let printed: Vec<String> = workload::NAMES
            .iter()
            .map(|n| n.to_string())
            .chain(e2e)
            .chain(layers)
            .collect();
        assert_eq!(printed, declared_names());
    }
}
