#![warn(missing_docs)]

//! Benchmark and figure-regeneration support for the Venice reproduction.
//!
//! The `figures` binary prints every reproduced table/figure (measured
//! next to the paper's published values) and can emit the same data as
//! JSON for EXPERIMENTS.md. The Criterion benches under `benches/` time
//! the scenario generators and the hot substrate paths.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use venice::Figure;
use venice_loadgen::scenarios::{self, fault_free, Row, RowRun};
use venice_loadgen::sweep;
use venice_loadgen::{congestion, economy, elastic, elastic_v2, failover};
use venice_sim::Time;

/// Schema tag stamped into `BENCH_perf.json` so the validator can
/// reject artifacts written by an incompatible harness version.
pub const PERF_SCHEMA: &str = "venice-perf-v1";

/// The v2 schema tag: identical to v1 plus a `scaling` section holding
/// the sharded kernel's 1/2/4/8-shard curve on the storm family. The
/// validator accepts both tags, but a v2 artifact must carry a
/// complete curve (see [`SCALING_WIDTHS`]).
pub const PERF_SCHEMA_V2: &str = "venice-perf-v2";

/// Shard widths a v2 artifact's scaling curve must cover.
pub const SCALING_WIDTHS: &[u32] = &[1, 2, 4, 8];

/// Scenario families the wall-clock perf trajectory must cover. The
/// `throughput` bin times each family on both event cores; a
/// `BENCH_perf.json` missing a family fails validation, so the
/// trajectory can never silently lose coverage.
pub const PERF_FAMILIES: &[&str] = &["storm", "elastic-v2"];

/// One timed scenario in `BENCH_perf.json`: the same configuration run
/// through the typed event core and the boxed-closure baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Scenario family (one of [`PERF_FAMILIES`]).
    pub family: String,
    /// Scenario label within the family (tenant mix or controller row).
    pub label: String,
    /// Requests issued by the run.
    pub requests: u64,
    /// Kernel events executed (identical across the two cores — their
    /// event streams are bit-identical, which the bin gates on).
    pub events: u64,
    /// Peak event-queue depth over the run.
    pub peak_queue_depth: u64,
    /// Best wall time of the typed event core, milliseconds.
    pub typed_wall_ms: f64,
    /// Typed-core events per wall-clock second.
    pub typed_events_per_sec: f64,
    /// Typed-core requests per wall-clock second.
    pub typed_requests_per_sec: f64,
    /// Best wall time of the boxed-closure baseline, milliseconds.
    pub boxed_wall_ms: f64,
    /// Baseline events per wall-clock second.
    pub boxed_events_per_sec: f64,
    /// Baseline requests per wall-clock second.
    pub boxed_requests_per_sec: f64,
    /// `boxed_wall_ms / typed_wall_ms` — how much faster the typed core
    /// ran this scenario.
    pub speedup: f64,
}

/// One point of the sharded kernel's scaling curve: the same storm
/// configuration run through `Run::shards(n)` at one width. Every
/// width's report is byte-diffed against the single-shard report
/// before timing counts, so the curve can only measure runs that are
/// bit-identical in output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingEntry {
    /// Scenario family the curve was measured on (`storm`).
    pub family: String,
    /// Scenario label within the family (tenant mix).
    pub label: String,
    /// Shard width of this point (1 = the sequential engine).
    pub shards: u32,
    /// Best wall time at this width, milliseconds.
    pub wall_ms: f64,
    /// Logical events per wall-clock second at this width.
    pub events_per_sec: f64,
    /// `wall_ms(1 shard) / wall_ms(this width)` — wall-clock speedup
    /// over the sequential engine (1.0 by definition at width 1).
    pub speedup_vs_single: f64,
}

/// The whole `BENCH_perf.json` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// [`PERF_SCHEMA`] or [`PERF_SCHEMA_V2`].
    pub schema: String,
    /// Timing iterations per scenario (best-of-N wall time is kept).
    pub iters: u32,
    /// Per-run request override used for reduced smoke runs; `null` in
    /// the committed full-scale artifact.
    pub requests_override: Option<u64>,
    /// One row per timed scenario.
    pub entries: Vec<PerfEntry>,
    /// Sharded-kernel scaling curve (v2; must be empty under v1).
    pub scaling: Vec<ScalingEntry>,
    /// Worker threads available to the recorder (`RAYON_NUM_THREADS`
    /// if set, else the machine's available parallelism; v2). The
    /// scaling curve is only expected to show wall-clock speedup when
    /// this is ≥ 2 — a single-core recorder runs the shards
    /// back-to-back and can only measure the sharding overhead.
    pub threads: u32,
}

/// Validates a perf artifact: schema tag, every family of
/// [`PERF_FAMILIES`] present, and every row internally sane (positive
/// finite times and rates, speedup consistent with the recorded walls).
/// Returns human-readable problems (empty = valid). Deliberately does
/// **not** enforce a speedup floor: smoke runs on loaded CI machines
/// time whatever they time — the floor is asserted on the committed
/// full-scale artifact by the test suite instead.
pub fn validate_perf(report: &PerfReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.schema != PERF_SCHEMA && report.schema != PERF_SCHEMA_V2 {
        problems.push(format!(
            "schema `{}` is neither `{PERF_SCHEMA}` nor `{PERF_SCHEMA_V2}`",
            report.schema
        ));
    }
    if report.schema == PERF_SCHEMA && !report.scaling.is_empty() {
        problems.push("v1 artifact carries a scaling section (stamp v2)".to_string());
    }
    if report.schema == PERF_SCHEMA_V2 {
        for &width in SCALING_WIDTHS {
            if !report
                .scaling
                .iter()
                .any(|s| s.family == "storm" && s.shards == width)
            {
                problems.push(format!("scaling curve missing storm width {width}"));
            }
        }
        for s in &report.scaling {
            let tag = format!("scaling {}/{} @{}", s.family, s.label, s.shards);
            if s.shards == 0 {
                problems.push(format!("{tag}: zero shard width"));
            }
            for (name, x) in [
                ("wall_ms", s.wall_ms),
                ("events_per_sec", s.events_per_sec),
                ("speedup_vs_single", s.speedup_vs_single),
            ] {
                if !(x.is_finite() && x > 0.0) {
                    problems.push(format!("{tag}: {name} = {x} is not positive finite"));
                }
            }
            // No speedup floor here for the same reason as the typed/
            // boxed speedup: smoke runs on loaded machines time
            // whatever they time. The committed artifact's floor is
            // asserted by the test suite.
            if s.shards == 1 && (s.speedup_vs_single - 1.0).abs() > 1e-9 {
                problems.push(format!(
                    "{tag}: width 1 must define speedup 1.0, got {}",
                    s.speedup_vs_single
                ));
            }
        }
    }
    if report.iters == 0 {
        problems.push("iters is zero".to_string());
    }
    if report.threads == 0 {
        problems.push("threads is zero (record the worker count)".to_string());
    }
    for &family in PERF_FAMILIES {
        if !report.entries.iter().any(|e| e.family == family) {
            problems.push(format!("missing scenario family `{family}`"));
        }
    }
    for e in &report.entries {
        let tag = format!("{}/{}", e.family, e.label);
        if !PERF_FAMILIES.contains(&e.family.as_str()) {
            problems.push(format!("{tag}: unregistered family"));
        }
        if e.requests == 0 || e.events == 0 {
            problems.push(format!("{tag}: empty run"));
        }
        for (name, x) in [
            ("typed_wall_ms", e.typed_wall_ms),
            ("typed_events_per_sec", e.typed_events_per_sec),
            ("typed_requests_per_sec", e.typed_requests_per_sec),
            ("boxed_wall_ms", e.boxed_wall_ms),
            ("boxed_events_per_sec", e.boxed_events_per_sec),
            ("boxed_requests_per_sec", e.boxed_requests_per_sec),
            ("speedup", e.speedup),
        ] {
            if !(x.is_finite() && x > 0.0) {
                problems.push(format!("{tag}: {name} = {x} is not positive finite"));
            }
        }
        let implied = e.boxed_wall_ms / e.typed_wall_ms;
        if e.speedup > 0.0 && (implied - e.speedup).abs() > 0.01 * e.speedup.max(1.0) {
            problems.push(format!(
                "{tag}: speedup {:.3} inconsistent with walls ({implied:.3})",
                e.speedup
            ));
        }
    }
    problems
}

/// Renders figures as text, one after another.
pub fn render_all(figures: &[Figure]) -> String {
    figures.iter().map(|f| f.render() + "\n").collect()
}

/// Serializes figures to pretty JSON.
///
/// # Panics
///
/// Panics if serialization fails (plain data; cannot fail in practice).
pub fn to_json(figures: &[Figure]) -> String {
    serde_json::to_string_pretty(figures).expect("figures serialize")
}

/// One figure family: the single registration the `figures`,
/// `check-figures` and `determinism` bins all read. Adding a family
/// means adding one [`FAMILIES`] row.
pub struct Family {
    /// Short name; tags the family's lines in the `determinism` artifact.
    pub name: &'static str,
    /// Every figure id the builder emits, in emission order.
    pub ids: &'static [&'static str],
    /// Seed of the published figures.
    pub seed: u64,
    /// The family's loadgen rows at a seed (none for the paper family,
    /// whose figures come from the analytical models).
    pub rows: fn(u64) -> Vec<Row>,
    /// Whether the builder reads per-request traces.
    pub traced: bool,
    /// Requests per row when the `determinism` gate diffs the family's
    /// reports; `None` for families that are not comparison rows.
    pub gate_requests: Option<u64>,
    /// Builds the figures from the rows' run outputs (in row order).
    pub build: fn(&[RowRun]) -> Vec<Figure>,
}

/// Request count of the `determinism` gate's comparison rows.
const GATE_REQUESTS: u64 = 6_000;

/// Every figure family, in emission order: the paper's evaluation
/// first, then the loadgen families. The `check-figures` binary gates
/// CI on the ids here against the committed `BENCH_figures.json`, in
/// **both** directions: a family silently dropped from the generators
/// fails, and an emitted figure missing from this table fails too — so
/// the perf trajectory can never lose coverage unnoticed.
pub const FAMILIES: &[Family] = &[
    Family {
        name: "paper",
        ids: &[
            "fig3",
            "fig5",
            "fig6",
            "fig14",
            "fig15",
            "fig16a",
            "fig16b",
            "fig17",
            "fig18",
            "table1",
            "cost",
            "validation",
            "ablation_policy",
            "ablation_mshrs",
            "ablation_credit_window",
            "ablation_tltlb",
            "ablation_contention",
            "ablation_double_buffering",
        ],
        seed: 0,
        rows: |_| Vec::new(),
        traced: false,
        gate_requests: None,
        build: |_| venice::scenarios::all(),
    },
    Family {
        name: "sweep",
        ids: &[
            "loadgen-p99-8n",
            "loadgen-tput-8n",
            "loadgen-p99-16n",
            "loadgen-tput-16n",
        ],
        seed: scenarios::SCENARIO_SEED,
        rows: |seed| scenarios::default_sweep(seed).rows(),
        traced: false,
        gate_requests: None,
        build: |runs| sweep::render(&scenarios::default_sweep(scenarios::SCENARIO_SEED), runs),
    },
    Family {
        name: "elastic",
        ids: &["loadgen-elastic-8n", "loadgen-elastic-timeline-8n"],
        seed: elastic::ELASTIC_SEED,
        rows: |seed| fault_free(elastic::comparison_configs(seed)),
        traced: false,
        gate_requests: Some(GATE_REQUESTS),
        build: elastic::figures,
    },
    Family {
        name: "elastic-v2",
        ids: &["loadgen-elastic-v2-8n", "loadgen-donor-pressure-8n"],
        seed: elastic_v2::V2_SEED,
        rows: |seed| fault_free(elastic_v2::comparison_configs(seed)),
        traced: false,
        gate_requests: Some(GATE_REQUESTS),
        build: elastic_v2::figures,
    },
    Family {
        name: "economy",
        ids: &["loadgen-donor-benefit-8n", "loadgen-quota-market-8n"],
        seed: economy::ECONOMY_SEED,
        rows: |seed| fault_free(economy::comparison_configs(seed)),
        traced: true,
        gate_requests: Some(GATE_REQUESTS),
        build: economy::figures,
    },
    Family {
        name: "congestion",
        ids: &["loadgen-congestion-8n"],
        seed: congestion::CONGESTION_SEED,
        rows: |seed| fault_free(congestion::configs(seed)),
        traced: true,
        gate_requests: Some(GATE_REQUESTS),
        build: congestion::figures,
    },
    Family {
        name: "failover",
        ids: &["loadgen-failover-8n"],
        seed: failover::FAILOVER_SEED,
        rows: failover::comparison_configs,
        traced: false,
        // Enough traffic that the 3.1 s crash lands mid-run: the diff
        // must cover the chaos suffix, not just the fault-free prefix.
        gate_requests: Some(150_000),
        build: failover::figures,
    },
];

/// Every registered figure id, in emission order.
pub fn figure_ids() -> impl Iterator<Item = &'static str> {
    FAMILIES.iter().flat_map(|f| f.ids.iter().copied())
}

/// The families owning at least one of `ids` (matched case-insensitively);
/// every family when `ids` is empty.
pub fn select_families(ids: &[String]) -> Vec<&'static Family> {
    let wanted = |own: &&str| ids.iter().any(|id| id.eq_ignore_ascii_case(own));
    let owns = |f: &&Family| ids.is_empty() || f.ids.iter().any(wanted);
    FAMILIES.iter().filter(owns).collect()
}

/// Validates a committed figure artifact against the [`FAMILIES`] ids:
/// every expected figure present with at least one measured series
/// (each with at least one value), and no unregistered figures. Returns
/// the list of human-readable problems (empty = valid).
pub fn validate_figures(figures: &[Figure]) -> Vec<String> {
    let mut problems = Vec::new();
    for id in figure_ids() {
        match figures.iter().find(|f| f.id == id) {
            None => problems.push(format!("missing figure family `{id}`")),
            Some(f) if f.measured.is_empty() => {
                problems.push(format!("figure `{id}` has no measured series"))
            }
            Some(f) => {
                for s in &f.measured {
                    if s.values.is_empty() {
                        problems.push(format!("figure `{id}` series `{}` is empty", s.label));
                    }
                }
            }
        }
    }
    for f in figures {
        if !figure_ids().any(|id| id == f.id) {
            problems.push(format!(
                "figure `{}` is not registered in the FAMILIES table \
                 (add it so it cannot be silently dropped later)",
                f.id
            ));
        }
    }
    problems
}

/// Schema tag of each block in `BENCH_telemetry.jsonl`.
pub const TELEMETRY_SCHEMA: &str = "venice-telemetry-v2";

/// Sim-time sampling tick of the probes the `profile` and `explain`
/// bins thread through their runs.
pub const PROBE_TICK: Time = Time::from_ms(25);

/// Sample rows the probe ring retains per scenario, so artifact size is
/// bounded no matter the request count.
pub const PROBE_RING_CAP: usize = 48;

/// One timed call of `f`: its wall time in milliseconds and its result.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64() * 1e3, r)
}

/// Extracts the bare integer value of `"key":<digits>` from a
/// hand-formatted JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the integer array value of `"key":[..]` from a
/// hand-formatted JSONL line.
fn field_u64s(line: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let body = &rest[..rest.find(']')?];
    if body.is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|x| x.parse().ok()).collect()
}

/// The `"kind"` discriminant of a hand-formatted JSONL line.
fn line_kind(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"kind\":\"")?;
    Some(&rest[..rest.find('"')?])
}

/// Extracts the string value of `"key":"<value>"` from a hand-formatted
/// JSONL line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The span-label vocabulary of `venice-telemetry-v2`: the three lease
/// lifecycle phases plus the fault-injection pair (outage windows and
/// lease failovers).
pub const SPAN_LABELS: [&str; 5] = ["establish", "active", "teardown", "fault", "failover"];

/// Validates a `BENCH_telemetry.jsonl` artifact: one or more
/// `venice-telemetry-v2` blocks (the `profile` bin concatenates one per
/// scenario), each opening with a schema-tagged header, carrying exactly
/// one counters line, and closing with an end line whose sample/span
/// totals match the lines actually present. Span lines must use the
/// [`SPAN_LABELS`] vocabulary (v2 adds `fault` and `failover`), and a
/// fault span — an injected outage window — must carry its node and
/// start instant so the failover story is reconstructible from the
/// artifact alone. Returns human-readable problems (empty = valid).
pub fn validate_telemetry(jsonl: &str) -> Vec<String> {
    let mut problems = Vec::new();
    // (header line no, samples seen, spans seen, counters seen) of the
    // currently open block.
    let mut open: Option<(usize, u64, u64, u64)> = None;
    for (no, line) in jsonl.lines().enumerate() {
        let lineno = no + 1;
        let Some(kind) = line_kind(line) else {
            problems.push(format!("line {lineno}: not a kind-tagged object"));
            continue;
        };
        if !line.ends_with('}') {
            problems.push(format!("line {lineno}: unterminated object"));
        }
        match (kind, &mut open) {
            ("header", Some(_)) => {
                problems.push(format!("line {lineno}: header inside an open block"));
                open = Some((lineno, 0, 0, 0));
            }
            ("header", None) => {
                if !line.contains(&format!("\"schema\":\"{TELEMETRY_SCHEMA}\"")) {
                    problems.push(format!(
                        "line {lineno}: header schema is not {TELEMETRY_SCHEMA}"
                    ));
                }
                open = Some((lineno, 0, 0, 0));
            }
            (_, None) => {
                problems.push(format!("line {lineno}: {kind} line outside any block"));
            }
            ("counters", Some((_, _, _, counters))) => *counters += 1,
            ("sample", Some((_, samples, _, _))) => *samples += 1,
            ("span", Some((_, _, spans, _))) => {
                *spans += 1;
                match field_str(line, "span") {
                    Some(label) if SPAN_LABELS.contains(&label) => {
                        if matches!(label, "fault" | "failover")
                            && (field_u64(line, "node").is_none()
                                || field_u64(line, "start_ps").is_none())
                        {
                            problems.push(format!(
                                "line {lineno}: {label} span is missing node/start_ps"
                            ));
                        }
                    }
                    Some(label) => {
                        problems.push(format!("line {lineno}: unknown span label `{label}`"));
                    }
                    None => problems.push(format!("line {lineno}: span line has no label")),
                }
            }
            ("end", Some((header, samples, spans, counters))) => {
                if *counters != 1 {
                    problems.push(format!(
                        "block at line {header}: {counters} counters lines (want 1)"
                    ));
                }
                if field_u64(line, "samples") != Some(*samples) {
                    problems.push(format!(
                        "line {lineno}: end.samples disagrees with {samples} sample line(s)"
                    ));
                }
                let span_total = field_u64(line, "spans_closed")
                    .zip(field_u64(line, "spans_open"))
                    .map(|(c, o)| c + o);
                if span_total != Some(*spans) {
                    problems.push(format!(
                        "line {lineno}: end span counts disagree with {spans} span line(s)"
                    ));
                }
                open = None;
            }
            (other, Some(_)) => {
                problems.push(format!("line {lineno}: unknown kind `{other}`"));
            }
        }
    }
    if let Some((header, ..)) = open {
        problems.push(format!("block at line {header} is never closed"));
    }
    if jsonl.lines().next().is_none() {
        problems.push("artifact is empty".to_string());
    }
    problems
}

/// Validates a `BENCH_attrib.jsonl` artifact (`venice-attrib-v1`): a
/// single block whose header carries the schema tag and the stage
/// vocabulary, whose end line's run/cell/tenant counts match the lines
/// actually present — and whose every cell and tenant line satisfies the
/// exact-sum invariant (stage picoseconds summing to the recorded
/// total), re-checked here at the artifact level so a corrupted or
/// hand-edited artifact cannot pass. Returns human-readable problems
/// (empty = valid).
pub fn validate_attrib(jsonl: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut lines = jsonl.lines().enumerate();
    let header = lines.next();
    match header {
        None => {
            problems.push("artifact is empty".to_string());
            return problems;
        }
        Some((_, line)) => {
            if line_kind(line) != Some("header") {
                problems.push("line 1: artifact must open with a header".to_string());
            }
            if !line.contains(&format!(
                "\"schema\":\"{}\"",
                venice_telemetry::ATTRIB_SCHEMA
            )) {
                problems.push(format!(
                    "line 1: header schema is not {}",
                    venice_telemetry::ATTRIB_SCHEMA
                ));
            }
            // The stages array must name the full stage vocabulary.
            for label in venice_telemetry::STAGE_LABELS {
                if !line.contains(&format!("\"{label}\"")) {
                    problems.push(format!("line 1: header is missing stage `{label}`"));
                }
            }
        }
    }
    let (mut cells, mut tenants, mut ended) = (0u64, 0u64, false);
    for (no, line) in lines {
        let lineno = no + 1;
        if ended {
            problems.push(format!("line {lineno}: content after the end line"));
            break;
        }
        match line_kind(line) {
            Some("cell") => {
                cells += 1;
                match (field_u64s(line, "stage_ps"), field_u64(line, "total_ps")) {
                    (Some(stages), Some(total)) => {
                        if stages.iter().sum::<u64>() != total {
                            problems.push(format!(
                                "line {lineno}: cell stage_ps do not sum to total_ps"
                            ));
                        }
                        if stages.len() != venice_telemetry::STAGES {
                            problems
                                .push(format!("line {lineno}: cell has {} stages", stages.len()));
                        }
                    }
                    _ => problems.push(format!("line {lineno}: cell is missing stage fields")),
                }
            }
            Some("tenant") => {
                tenants += 1;
                if field_u64s(line, "tail_stage_ps")
                    .map(|v| v.len() != venice_telemetry::STAGES)
                    .unwrap_or(true)
                {
                    problems.push(format!("line {lineno}: tenant tail_stage_ps malformed"));
                }
            }
            Some("shed") | Some("diff") => {}
            Some("end") => {
                if field_u64(line, "cells") != Some(cells) {
                    problems.push(format!(
                        "line {lineno}: end.cells disagrees with {cells} cell line(s)"
                    ));
                }
                if field_u64(line, "tenants") != Some(tenants) {
                    problems.push(format!(
                        "line {lineno}: end.tenants disagrees with {tenants} tenant line(s)"
                    ));
                }
                ended = true;
            }
            Some("header") => problems.push(format!("line {lineno}: second header")),
            _ => problems.push(format!("line {lineno}: unknown or malformed line")),
        }
    }
    if !ended {
        problems.push("artifact has no end line".to_string());
    }
    problems
}

/// Selects figures by id; empty filter means all.
pub fn select(figures: Vec<Figure>, ids: &[String]) -> Vec<Figure> {
    if ids.is_empty() {
        return figures;
    }
    figures
        .into_iter()
        .filter(|f| ids.iter().any(|id| id.eq_ignore_ascii_case(&f.id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use venice_loadgen::scenarios::run_rows;

    #[test]
    fn render_and_json_cover_all_scenarios() {
        let figs = venice::scenarios::all();
        let text = render_all(&figs);
        for f in &figs {
            assert!(text.contains(&f.id), "missing {}", f.id);
        }
        let json = to_json(&figs);
        let back: Vec<Figure> = serde_json::from_str(&json).unwrap();
        assert_eq!(figs.len(), back.len());
    }

    #[test]
    fn loadgen_figures_render_and_round_trip() {
        let spec = venice_loadgen::SweepSpec {
            seed: 17,
            meshes: vec![(2, 1, 1)],
            mixes: vec![venice_loadgen::TenantMix::messaging()],
            rates_rps: vec![20_000.0],
            stacks: vec![venice_loadgen::RemoteStack::VeniceCrma],
            requests_per_point: 500,
        };
        let figs = venice_loadgen::sweep::figures(&spec);
        let text = render_all(&figs);
        for f in &figs {
            assert!(text.contains(&f.id), "missing {}", f.id);
        }
        let back: Vec<Figure> = serde_json::from_str(&to_json(&figs)).unwrap();
        assert_eq!(figs, back);
    }

    #[test]
    fn telemetry_validator_accepts_real_blocks_and_rejects_corruption() {
        // A real artifact from a real probed run, concatenated twice —
        // the shape the profile bin writes.
        let config = venice_loadgen::LoadgenConfig {
            requests: 1_500,
            ..venice_loadgen::LoadgenConfig::new(7, venice_loadgen::TenantMix::messaging())
        };
        let block = venice_loadgen::engine::Run::new(&config)
            .recording(venice_sim::Time::from_ms(2), 64)
            .execute()
            .artifact_jsonl("unit");
        let artifact = format!("{block}{block}");
        assert_eq!(validate_telemetry(&artifact), Vec::<String>::new());
        // Truncating the final end line leaves a dangling block.
        let truncated: String = artifact
            .lines()
            .take(artifact.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_telemetry(&truncated)
            .iter()
            .any(|p| p.contains("never closed")));
        // A doctored sample count must be caught.
        let doctored = artifact.replacen("\"kind\":\"sample\"", "\"kind\":\"sampleX\"", 1);
        assert!(!validate_telemetry(&doctored).is_empty());
        assert!(!validate_telemetry("").is_empty());
    }

    #[test]
    fn attrib_validator_enforces_the_exact_sum_at_the_artifact_level() {
        let config = venice_loadgen::LoadgenConfig {
            requests: 1_500,
            ..venice_loadgen::LoadgenConfig::new(7, venice_loadgen::TenantMix::messaging())
        };
        let labels = venice_loadgen::telemetry::tenant_labels(&config);
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let fold = venice_loadgen::engine::Run::new(&config)
            .attrib(venice_sim::Time::from_ms(2), 64)
            .execute()
            .attrib_fold();
        let artifact = venice_telemetry::export_attrib_jsonl(
            "unit",
            7,
            &[("a", &fold), ("b", &fold)],
            &labels,
        );
        assert_eq!(validate_attrib(&artifact), Vec::<String>::new());
        // Corrupt one cell's total: the artifact-level exact-sum check
        // must fire even though the in-process fold was consistent.
        let cell_line = artifact
            .lines()
            .find(|l| l.starts_with("{\"kind\":\"cell\""))
            .unwrap();
        let total = cell_line.split("\"total_ps\":").nth(1).unwrap();
        let total = &total[..total.find('}').unwrap()];
        let doctored = artifact.replacen(
            &format!("\"total_ps\":{total}}}"),
            &format!("\"total_ps\":{}}}", total.parse::<u64>().unwrap() + 1),
            1,
        );
        assert!(validate_attrib(&doctored)
            .iter()
            .any(|p| p.contains("do not sum")));
        // Dropping the end line, or a tenant line, must be caught.
        let no_end: String = artifact
            .lines()
            .filter(|l| !l.starts_with("{\"kind\":\"end\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(validate_attrib(&no_end)
            .iter()
            .any(|p| p.contains("no end line")));
        let no_tenant = artifact.replacen("\"kind\":\"tenant\"", "\"kind\":\"tenantX\"", 1);
        assert!(!validate_attrib(&no_tenant).is_empty());
    }

    #[test]
    fn expected_figure_ids_are_distinct_and_validated() {
        let expected: Vec<&str> = figure_ids().collect();
        let mut ids = expected.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), expected.len(), "duplicate ids across families");
        // A synthetic artifact covering every family passes; dropping a
        // family, emptying one, or adding an unregistered one fails.
        let mut figs: Vec<Figure> = expected
            .iter()
            .map(|id| {
                let mut f = Figure::new(*id, "t", "m");
                f.add_measured(venice::Series::new("s", vec![1.0]));
                f
            })
            .collect();
        assert!(validate_figures(&figs).is_empty());
        let dropped = figs[1..].to_vec();
        assert!(validate_figures(&dropped)
            .iter()
            .any(|p| p.contains("missing")));
        figs[0].measured.clear();
        assert!(validate_figures(&figs)
            .iter()
            .any(|p| p.contains("no measured series")));
        figs[0].add_measured(venice::Series::new("s", vec![1.0]));
        figs.push(Figure::new("rogue", "t", "m"));
        assert!(validate_figures(&figs)
            .iter()
            .any(|p| p.contains("not registered")));
    }

    fn perf_entry(family: &str, label: &str) -> PerfEntry {
        PerfEntry {
            family: family.to_string(),
            label: label.to_string(),
            requests: 1_000,
            events: 2_500,
            peak_queue_depth: 40,
            typed_wall_ms: 10.0,
            typed_events_per_sec: 250_000.0,
            typed_requests_per_sec: 100_000.0,
            boxed_wall_ms: 16.0,
            boxed_events_per_sec: 156_250.0,
            boxed_requests_per_sec: 62_500.0,
            speedup: 1.6,
        }
    }

    fn scaling_entry(shards: u32) -> ScalingEntry {
        ScalingEntry {
            family: "storm".to_string(),
            label: "web-frontend".to_string(),
            shards,
            wall_ms: 100.0 / shards as f64,
            events_per_sec: 250_000.0 * shards as f64,
            speedup_vs_single: shards as f64,
        }
    }

    #[test]
    fn perf_validation_accepts_a_sane_artifact_and_round_trips() {
        let report = PerfReport {
            schema: PERF_SCHEMA.to_string(),
            iters: 3,
            requests_override: None,
            entries: vec![
                perf_entry("storm", "web-frontend"),
                perf_entry("elastic-v2", "venice-predictive"),
            ],
            scaling: Vec::new(),
            threads: 8,
        };
        assert!(validate_perf(&report).is_empty());
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(validate_perf(&back).is_empty());
    }

    #[test]
    fn perf_validation_accepts_a_v2_artifact_with_a_full_curve() {
        let report = PerfReport {
            schema: PERF_SCHEMA_V2.to_string(),
            iters: 3,
            requests_override: None,
            entries: vec![
                perf_entry("storm", "web-frontend"),
                perf_entry("elastic-v2", "venice-predictive"),
            ],
            scaling: SCALING_WIDTHS.iter().map(|&w| scaling_entry(w)).collect(),
            threads: 8,
        };
        assert_eq!(validate_perf(&report), Vec::<String>::new());
        // A v2 artifact round-trips through JSON with its curve intact.
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn perf_validation_catches_scaling_curve_problems() {
        let good = PerfReport {
            schema: PERF_SCHEMA_V2.to_string(),
            iters: 3,
            requests_override: None,
            entries: vec![
                perf_entry("storm", "web-frontend"),
                perf_entry("elastic-v2", "venice-predictive"),
            ],
            scaling: SCALING_WIDTHS.iter().map(|&w| scaling_entry(w)).collect(),
            threads: 8,
        };
        assert!(validate_perf(&good).is_empty());
        // Dropping a width from the curve fails.
        let mut short = good.clone();
        short.scaling.retain(|s| s.shards != 4);
        assert!(validate_perf(&short)
            .iter()
            .any(|p| p.contains("missing storm width 4")));
        // A v1 artifact must not carry a curve.
        let mut v1 = good.clone();
        v1.schema = PERF_SCHEMA.to_string();
        assert!(validate_perf(&v1).iter().any(|p| p.contains("stamp v2")));
        // Non-positive wall time fails.
        let mut wall = good.clone();
        wall.scaling[1].wall_ms = 0.0;
        assert!(validate_perf(&wall)
            .iter()
            .any(|p| p.contains("wall_ms") && p.contains("@2")));
        // Width 1 must define speedup exactly 1.0.
        let mut base = good;
        base.scaling[0].speedup_vs_single = 1.2;
        assert!(validate_perf(&base)
            .iter()
            .any(|p| p.contains("width 1 must define speedup 1.0")));
    }

    #[test]
    fn perf_validation_catches_coverage_and_sanity_problems() {
        let good = PerfReport {
            schema: PERF_SCHEMA.to_string(),
            iters: 3,
            requests_override: None,
            entries: vec![
                perf_entry("storm", "web-frontend"),
                perf_entry("elastic-v2", "venice-predictive"),
            ],
            scaling: Vec::new(),
            threads: 8,
        };
        // Dropping a family fails.
        let mut dropped = good.clone();
        dropped.entries.retain(|e| e.family != "elastic-v2");
        assert!(validate_perf(&dropped)
            .iter()
            .any(|p| p.contains("missing scenario family `elastic-v2`")));
        // A wrong schema tag fails.
        let mut schema = good.clone();
        schema.schema = "venice-perf-v0".to_string();
        assert!(!validate_perf(&schema).is_empty());
        // A non-positive wall time fails.
        let mut wall = good.clone();
        wall.entries[0].typed_wall_ms = 0.0;
        assert!(validate_perf(&wall)
            .iter()
            .any(|p| p.contains("typed_wall_ms")));
        // A speedup inconsistent with the recorded walls fails.
        let mut skewed = good.clone();
        skewed.entries[0].speedup = 9.0;
        assert!(validate_perf(&skewed)
            .iter()
            .any(|p| p.contains("inconsistent")));
        // An unregistered family fails.
        let mut rogue = good;
        rogue.entries.push(perf_entry("warmup", "x"));
        assert!(validate_perf(&rogue)
            .iter()
            .any(|p| p.contains("unregistered family")));
    }

    #[test]
    fn committed_perf_artifact_is_valid_and_clears_the_storm_bar() {
        // BENCH_perf.json is the recorded wall-clock trajectory; unlike
        // BENCH_figures.json it cannot be freshness-diffed (wall times
        // are machine-dependent), so this test pins the *committed*
        // numbers instead: the artifact must parse, validate, and show
        // the typed event core >= 1.5x the boxed-closure baseline on
        // every storm entry. A refresh that regresses below the bar
        // fails here and needs investigating, not committing.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
        let text = std::fs::read_to_string(path).expect("BENCH_perf.json is committed");
        let report: PerfReport = serde_json::from_str(&text).expect("artifact parses");
        assert_eq!(validate_perf(&report), Vec::<String>::new());
        assert_eq!(
            report.requests_override, None,
            "committed artifact must be full-scale"
        );
        let storm: Vec<&PerfEntry> = report
            .entries
            .iter()
            .filter(|e| e.family == "storm")
            .collect();
        assert!(storm.len() >= 3, "all three storm mixes recorded");
        let total: u64 = storm.iter().map(|e| e.requests).sum();
        assert!(total >= 1_000_000, "storm below production scale: {total}");
        for e in &storm {
            assert!(
                e.speedup >= 1.5,
                "storm/{} speedup {:.2} below the 1.5x bar",
                e.label,
                e.speedup
            );
            assert!(e.typed_events_per_sec >= 1.5 * e.boxed_events_per_sec);
        }
        // The committed artifact is v2: it must carry the sharded
        // kernel's full scaling curve. When the recording machine had
        // ≥ 2 worker threads, every parallel width must actually beat
        // the sequential engine; a single-core recorder runs the shard
        // workers back-to-back, so there the curve can only pin the
        // overhead bound — the two-phase split must stay within 25% of
        // sequential (byte-identity is gated unconditionally, in the
        // bin and in the conformance suites).
        assert_eq!(report.schema, PERF_SCHEMA_V2, "committed artifact is v2");
        for &width in SCALING_WIDTHS {
            let point = report
                .scaling
                .iter()
                .find(|s| s.family == "storm" && s.shards == width)
                .unwrap_or_else(|| panic!("scaling curve has storm width {width}"));
            if width < 2 {
                continue;
            }
            if report.threads >= 2 {
                assert!(
                    point.speedup_vs_single > 1.0,
                    "storm @{} shards: speedup {:.2} does not beat sequential \
                     on a {}-thread recorder",
                    width,
                    point.speedup_vs_single,
                    report.threads
                );
            } else {
                assert!(
                    point.speedup_vs_single > 0.75,
                    "storm @{} shards: {:.2}x on a single-core recorder — the \
                     sharding overhead exceeded the 25% bound",
                    width,
                    point.speedup_vs_single
                );
            }
        }
    }

    #[test]
    fn architecture_doc_covers_every_crate() {
        // The in-tree mirror of the CI docs guard: ARCHITECTURE.md's
        // workspace map must mention every directory under crates/ (and
        // the shims), so the contributor map can never silently rot as
        // the workspace grows.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let doc = std::fs::read_to_string(format!("{root}/ARCHITECTURE.md"))
            .expect("ARCHITECTURE.md is committed at the repo root");
        let mut missing = Vec::new();
        for entry in std::fs::read_dir(format!("{root}/crates")).expect("crates/ exists") {
            let entry = entry.expect("readable dir entry");
            if entry.file_type().expect("file type").is_dir() {
                let name = entry.file_name().into_string().expect("utf-8 crate name");
                // Anchored in backticks (the workspace-map cell format),
                // so a crate whose name merely prefixes another cannot
                // satisfy the guard.
                if !doc.contains(&format!("`crates/{name}`")) {
                    missing.push(name);
                }
            }
        }
        assert!(
            missing.is_empty(),
            "ARCHITECTURE.md does not mention crates/{{{}}} — add the new crate(s) \
             to the workspace map",
            missing.join(", ")
        );
        assert!(doc.contains("shims/"), "the shims story is part of the map");
    }

    #[test]
    fn only_the_bench_crate_depends_on_the_oracles() {
        // The in-tree mirror of the CI oracle-boundary guard: the frozen
        // oracles are for gates, so no crate but venice-bench may list
        // venice-oracle under [dependencies] (a dev-dependency is fine).
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut offenders = Vec::new();
        for entry in std::fs::read_dir(format!("{root}/crates")).expect("crates/ exists") {
            let dir = entry.expect("readable dir entry").path();
            let name = dir.file_name().expect("crate dir name").to_owned();
            if name == "bench" {
                continue;
            }
            let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                continue;
            };
            let mut in_deps = false;
            for line in toml.lines() {
                if line.starts_with('[') {
                    in_deps = line == "[dependencies]";
                }
                if line.starts_with("[dependencies.venice-oracle]")
                    || (in_deps && line.starts_with("venice-oracle"))
                {
                    offenders.push(name.to_string_lossy().into_owned());
                }
            }
        }
        assert!(
            offenders.is_empty(),
            "crates/{{{}}} list venice-oracle under [dependencies]; only venice-bench may",
            offenders.join(", ")
        );
    }

    #[test]
    fn family_selection_builds_only_the_owners_of_a_requested_id() {
        let names = |ids: &[&str]| -> Vec<&str> {
            let ids: Vec<String> = ids.iter().map(|id| id.to_string()).collect();
            select_families(&ids).iter().map(|f| f.name).collect()
        };
        assert!(names(&["no-such-figure"]).is_empty());
        assert_eq!(names(&["fig3"]), ["paper"]);
        assert_eq!(names(&["loadgen-donor-pressure-8n"]), ["elastic-v2"]);
        assert_eq!(names(&[]).len(), FAMILIES.len());
    }

    #[test]
    fn every_family_builder_emits_exactly_its_declared_ids() {
        // Each family's rows at a small request count, fed to its
        // builder: a builder/table mismatch fails here instead of only
        // in a full `figures` run plus `check-figures`.
        for family in FAMILIES {
            let runs = run_rows((family.rows)(family.seed), Some(2_000), family.traced);
            let figs = (family.build)(&runs);
            let ids: Vec<&str> = figs.iter().map(|f| f.id.as_str()).collect();
            assert_eq!(ids, family.ids, "{} emits the wrong ids", family.name);
            for f in &figs {
                assert!(!f.measured.is_empty(), "{}: no measured series", f.id);
                for s in &f.measured {
                    assert!(!s.values.is_empty(), "{}: series `{}` empty", f.id, s.label);
                }
            }
        }
    }

    #[test]
    fn select_filters_case_insensitively() {
        let figs = venice::scenarios::all();
        let total = figs.len();
        let picked = select(figs.clone(), &["FIG5".to_string()]);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].id, "fig5");
        assert_eq!(select(figs, &[]).len(), total);
    }
}
