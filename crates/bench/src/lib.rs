#![warn(missing_docs)]

//! Benchmark and figure-regeneration support for the Venice reproduction.
//!
//! The `figures` binary prints every reproduced table/figure (measured
//! next to the paper's published values) and can emit the same data as
//! JSON for EXPERIMENTS.md. The Criterion benches under `benches/` time
//! the scenario generators and the hot substrate paths.

use venice::Figure;
use venice_loadgen::scenarios::{self, fault_free, Row, RowRun};
use venice_loadgen::sweep;
use venice_loadgen::{congestion, economy, elastic, elastic_v2, failover};
use venice_sim::Time;

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

/// Sim-time sampling tick of the probes the `profile` bin threads
/// through its runs.
pub const PROBE_TICK: Time = Time::from_ms(25);

/// Sample rows the probe ring retains per scenario, so artifact size is
/// bounded no matter the request count.
pub const PROBE_RING_CAP: usize = 48;

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
    use venice_telemetry::{AttribProbe, RecordingProbe};

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
            .probe(RecordingProbe::new(venice_sim::Time::from_ms(2), 64))
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
        let labels: Vec<&str> = config.mix.classes.iter().map(|c| c.name.as_str()).collect();
        let out = venice_loadgen::engine::Run::new(&config)
            .probe(AttribProbe::new(venice_sim::Time::from_ms(2), 64))
            .execute();
        let fold = out.probe.attrib();
        let artifact =
            venice_telemetry::export_attrib_jsonl("unit", 7, &[("a", fold), ("b", fold)], &labels);
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
    fn the_oracles_are_dev_dependencies_only() {
        // The in-tree mirror of the CI oracle-boundary guard: the frozen
        // oracles are for tests, so no crate may list venice-oracle
        // under [dependencies] (a dev-dependency is fine).
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut offenders = Vec::new();
        for entry in std::fs::read_dir(format!("{root}/crates")).expect("crates/ exists") {
            let dir = entry.expect("readable dir entry").path();
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
                    let name = dir.file_name().expect("crate dir name");
                    offenders.push(name.to_string_lossy().into_owned());
                }
            }
        }
        assert!(
            offenders.is_empty(),
            "crates/{{{}}} list venice-oracle under [dependencies]; \
             only [dev-dependencies] may",
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
