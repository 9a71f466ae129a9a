//! The `venice-attrib-v1` JSONL artifact and the differential explain
//! report.
//!
//! Like `venice-telemetry-v2` ([`crate::export_jsonl`]), the artifact
//! is hand-formatted with fixed key order and integer-only values, so
//! identical folds render byte-identically at any thread count. Line
//! kinds, in emission order:
//!
//! 1. `header` — schema id, scenario, seed, the stage-label vector,
//!    and the run labels in emission order.
//! 2. Per run: `cell`* (tenant × node stage totals), `tenant`* (tail
//!    summary + dominant stage), `shed`* (per-reason shed counts).
//! 3. `diff`* — when exactly two runs are given, the per-tenant p99
//!    delta attributed to stages (tail-mean deltas, base → cand).
//! 4. `end` — run/cell/tenant line counts.
//!
//! [`render_explain`] renders the same diff as a text report naming,
//! per tenant, the stage that accounts for the majority of the p99
//! movement.

use std::fmt::Write as _;

use crate::attrib::{AttribFold, TenantSummary, SHED_LABELS, STAGES, STAGE_LABELS};
use crate::{pct, permille};

/// Schema identifier of the attribution artifact.
pub const ATTRIB_SCHEMA: &str = "venice-attrib-v1";

/// Per-tenant differential attribution between two folds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantDiff {
    /// Tenant (mix class) index, present in both runs.
    pub tenant: u16,
    /// The base run's p99, picoseconds.
    pub base_p99_ps: u64,
    /// The candidate run's p99, picoseconds.
    pub cand_p99_ps: u64,
    /// `cand − base` per-stage **tail means** (mean picoseconds per
    /// tail request), signed: where the tail got slower or faster.
    pub tail_mean_delta_ps: [i64; STAGES],
    /// The stage moving the most in the p99's direction (largest
    /// same-sign tail-mean delta; ties to the lowest index).
    pub dominant_stage: usize,
    /// Per-mille share of the dominant stage among all same-sign
    /// stage deltas (how much of the movement one stage explains).
    pub dominant_share_pm: u64,
}

impl TenantDiff {
    /// Signed p99 delta (`cand − base`), picoseconds.
    pub fn p99_delta_ps(&self) -> i64 {
        self.cand_p99_ps as i64 - self.base_p99_ps as i64
    }
}

/// Mean per-stage tail picoseconds of a summary (zero when the tail is
/// empty).
fn tail_means(s: &TenantSummary) -> [u64; STAGES] {
    let mut out = [0u64; STAGES];
    if s.tail_count == 0 {
        return out;
    }
    for (m, &ps) in out.iter_mut().zip(&s.tail_stage_ps) {
        *m = ps / s.tail_count;
    }
    out
}

/// Computes per-tenant diffs for tenants present (with completions) in
/// both folds, in tenant order.
pub fn diff_tenants(base: &AttribFold, cand: &AttribFold) -> Vec<TenantDiff> {
    let tenants = base.tenant_len().max(cand.tenant_len());
    let mut out = Vec::new();
    for t in 0..tenants as u16 {
        let (Some(b), Some(c)) = (base.tenant_summary(t), cand.tenant_summary(t)) else {
            continue;
        };
        let bm = tail_means(&b);
        let cm = tail_means(&c);
        let mut delta = [0i64; STAGES];
        for i in 0..STAGES {
            delta[i] = cm[i] as i64 - bm[i] as i64;
        }
        // Attribute the p99 movement to the stages moving the same way:
        // if the candidate's p99 improved, the explanation is the
        // stages whose tail mean shrank, ranked by how much.
        let p99_delta = c.p99.as_ps() as i64 - b.p99.as_ps() as i64;
        let sign: i64 = if p99_delta != 0 {
            p99_delta.signum()
        } else if delta.iter().sum::<i64>() >= 0 {
            1
        } else {
            -1
        };
        let signed = |d: i64| (d * sign).max(0) as u64;
        let same_sign_total: u64 = delta.iter().map(|&d| signed(d)).sum();
        let dominant_stage = delta
            .iter()
            .enumerate()
            .max_by_key(|&(i, &d)| (signed(d), std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("STAGES > 0");
        let dominant_share_pm = permille(signed(delta[dominant_stage]), same_sign_total);
        out.push(TenantDiff {
            tenant: t,
            base_p99_ps: b.p99.as_ps(),
            cand_p99_ps: c.p99.as_ps(),
            tail_mean_delta_ps: delta,
            dominant_stage,
            dominant_share_pm,
        });
    }
    out
}

/// Label for tenant `t`: the mix class name when provided, else the
/// index.
fn tenant_label(labels: &[&str], t: u16) -> String {
    labels
        .get(t as usize)
        .map(|s| s.to_string())
        .unwrap_or_else(|| t.to_string())
}

/// Asserts `s` needs no JSON escaping (artifact labels are plain
/// identifiers by construction).
fn assert_plain(s: &str) {
    assert!(
        s.chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'),
        "label must not need JSON escaping: {s:?}"
    );
}

/// Renders one or more labeled folds (plus, for exactly two, their
/// differential) into the `venice-attrib-v1` JSONL artifact.
///
/// `tenant_labels` names the mix classes; indices past its end render
/// as bare numbers.
///
/// # Panics
///
/// Panics if `scenario`, a run label, or a tenant label needs JSON
/// escaping, or if `runs` is empty.
pub fn export_attrib_jsonl(
    scenario: &str,
    seed: u64,
    runs: &[(&str, &AttribFold)],
    tenant_labels: &[&str],
) -> String {
    assert!(!runs.is_empty(), "need at least one run");
    assert_plain(scenario);
    for (label, _) in runs {
        assert_plain(label);
    }
    for label in tenant_labels {
        assert_plain(label);
    }
    let mut out = String::new();
    let stages = STAGE_LABELS
        .iter()
        .map(|l| format!("\"{l}\""))
        .collect::<Vec<_>>()
        .join(",");
    let run_names = runs
        .iter()
        .map(|(l, _)| format!("\"{l}\""))
        .collect::<Vec<_>>()
        .join(",");
    writeln!(
        out,
        "{{\"kind\":\"header\",\"schema\":\"{ATTRIB_SCHEMA}\",\"scenario\":\"{scenario}\",\"seed\":{seed},\"stages\":[{stages}],\"runs\":[{run_names}]}}"
    )
    .unwrap();

    let fmt_u64s = |xs: &[u64]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut cell_lines = 0usize;
    let mut tenant_lines = 0usize;
    for (label, fold) in runs {
        for (t, node, cell) in fold.cells() {
            writeln!(
                out,
                "{{\"kind\":\"cell\",\"run\":\"{label}\",\"tenant\":\"{}\",\"node\":{node},\"count\":{},\"stage_ps\":[{}],\"total_ps\":{}}}",
                tenant_label(tenant_labels, t),
                cell.count,
                fmt_u64s(&cell.stage_ps),
                cell.total_ps
            )
            .unwrap();
            cell_lines += 1;
        }
        for s in fold.tenant_summaries() {
            writeln!(
                out,
                "{{\"kind\":\"tenant\",\"run\":\"{label}\",\"tenant\":\"{}\",\"count\":{},\"p50_ps\":{},\"p99_ps\":{},\"tail_count\":{},\"tail_stage_ps\":[{}],\"dominant\":\"{}\",\"dominant_share_pm\":{}}}",
                tenant_label(tenant_labels, s.tenant),
                s.count,
                s.p50.as_ps(),
                s.p99.as_ps(),
                s.tail_count,
                fmt_u64s(&s.tail_stage_ps),
                STAGE_LABELS[s.dominant_tail_stage],
                s.dominant_share_pm()
            )
            .unwrap();
            tenant_lines += 1;
        }
        for t in 0..fold.tenant_len() as u16 {
            let sheds = fold.sheds(t);
            if sheds.iter().all(|&s| s == 0) {
                continue;
            }
            let mut reasons = String::new();
            for (label, count) in SHED_LABELS.iter().zip(sheds) {
                write!(reasons, ",\"{label}\":{count}").unwrap();
            }
            writeln!(
                out,
                "{{\"kind\":\"shed\",\"run\":\"{label}\",\"tenant\":\"{}\"{}}}",
                tenant_label(tenant_labels, t),
                reasons
            )
            .unwrap();
        }
    }

    if let [(base_label, base), (cand_label, cand)] = runs {
        for d in diff_tenants(base, cand) {
            let deltas = d
                .tail_mean_delta_ps
                .iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",");
            writeln!(
                out,
                "{{\"kind\":\"diff\",\"base\":\"{base_label}\",\"cand\":\"{cand_label}\",\"tenant\":\"{}\",\"base_p99_ps\":{},\"cand_p99_ps\":{},\"p99_delta_ps\":{},\"tail_mean_delta_ps\":[{}],\"dominant\":\"{}\",\"dominant_share_pm\":{}}}",
                tenant_label(tenant_labels, d.tenant),
                d.base_p99_ps,
                d.cand_p99_ps,
                d.p99_delta_ps(),
                deltas,
                STAGE_LABELS[d.dominant_stage],
                d.dominant_share_pm
            )
            .unwrap();
        }
    }

    writeln!(
        out,
        "{{\"kind\":\"end\",\"runs\":{},\"cells\":{cell_lines},\"tenants\":{tenant_lines}}}",
        runs.len()
    )
    .unwrap();
    out
}

/// Renders the differential attribution of `cand` against `base` as a
/// text report: per tenant, the p99 movement, the per-stage tail-mean
/// deltas, and the stage that explains the majority of the movement.
pub fn render_explain(
    scenario: &str,
    base_label: &str,
    cand_label: &str,
    base: &AttribFold,
    cand: &AttribFold,
    tenant_labels: &[&str],
) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== explain: {scenario} ({base_label} -> {cand_label}) =="
    )
    .unwrap();
    let diffs = diff_tenants(base, cand);
    if diffs.is_empty() {
        writeln!(out, "no tenant completed requests in both runs").unwrap();
        return out;
    }
    for d in &diffs {
        let label = tenant_label(tenant_labels, d.tenant);
        let delta = d.p99_delta_ps();
        let direction = if delta < 0 {
            "improvement"
        } else {
            "regression"
        };
        writeln!(
            out,
            "tenant {label}: p99 {} us -> {} us ({direction} {} us)",
            d.base_p99_ps / 1_000_000,
            d.cand_p99_ps / 1_000_000,
            delta.unsigned_abs() / 1_000_000
        )
        .unwrap();
        writeln!(
            out,
            "  {:<16} {:>16} {:>7}",
            "stage", "tail-mean \u{0394}(us)", "share"
        )
        .unwrap();
        let sign: i64 = if delta < 0 { -1 } else { 1 };
        let mut rows: Vec<(usize, i64)> = d
            .tail_mean_delta_ps
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| v != 0)
            .collect();
        rows.sort_by_key(|&(i, v)| (std::cmp::Reverse(v * sign), i));
        let same_sign_total: u64 = rows.iter().map(|&(_, v)| (v * sign).max(0) as u64).sum();
        for (i, v) in &rows {
            let share = permille((v * sign).max(0) as u64, same_sign_total);
            writeln!(
                out,
                "  {:<16} {:>16} {:>7}",
                STAGE_LABELS[*i],
                v / 1_000_000,
                if v * sign > 0 {
                    pct(share)
                } else {
                    "-".to_string()
                }
            )
            .unwrap();
        }
        let majority = if d.dominant_share_pm > 500 {
            "the majority"
        } else {
            "the largest share"
        };
        writeln!(
            out,
            "  -> {} accounts for {majority} of the p99 {direction} ({})",
            STAGE_LABELS[d.dominant_stage],
            pct(d.dominant_share_pm)
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrib::{StageBreakdown, STAGE_SERVICE_REMOTE, STAGE_TRANSPORT};

    fn fold_with(stage: usize, ps: u64, n: u64) -> AttribFold {
        let mut fold = AttribFold::new();
        for _ in 0..n {
            let mut stages = [0u64; STAGES];
            stages[stage] = ps;
            stages[STAGE_TRANSPORT] += 500;
            fold.record(
                0,
                1,
                StageBreakdown {
                    stage_ps: stages,
                    total_ps: stages.iter().sum(),
                },
            );
        }
        fold
    }

    #[test]
    fn diff_names_the_stage_that_moved() {
        // Base: remote service dominates the tail. Candidate: the same
        // tail with the remote share collapsed — the improvement is
        // (almost) entirely service_remote.
        let base = fold_with(STAGE_SERVICE_REMOTE, 2_000_000, 50);
        let cand = fold_with(STAGE_SERVICE_REMOTE, 10_000, 50);
        let diffs = diff_tenants(&base, &cand);
        assert_eq!(diffs.len(), 1);
        let d = &diffs[0];
        assert!(d.p99_delta_ps() < 0, "candidate improved");
        assert_eq!(d.dominant_stage, STAGE_SERVICE_REMOTE);
        assert_eq!(d.dominant_share_pm, 1000, "one stage moved");
        let text = render_explain("unit", "base", "cand", &base, &cand, &["kv"]);
        assert!(text.contains("tenant kv"));
        assert!(text.contains("improvement"));
        assert!(text.contains("service_remote accounts for the majority"));
        // Deterministic render.
        assert_eq!(
            text,
            render_explain("unit", "base", "cand", &base, &cand, &["kv"])
        );
    }

    #[test]
    fn artifact_shape_is_stable() {
        let base = fold_with(STAGE_SERVICE_REMOTE, 1_000_000, 10);
        let mut cand = fold_with(STAGE_TRANSPORT, 900_000, 10);
        cand.on_shed(0, 1);
        let jsonl = export_attrib_jsonl("unit", 7, &[("base", &base), ("cand", &cand)], &["kv"]);
        let lines: Vec<&str> = jsonl.lines().collect();
        // header, 2×(cell + tenant), 1 shed, 1 diff, end.
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains("\"schema\":\"venice-attrib-v1\""));
        assert!(lines[0].contains("\"runs\":[\"base\",\"cand\"]"));
        assert!(lines[1].starts_with("{\"kind\":\"cell\",\"run\":\"base\""));
        assert!(lines[2].starts_with("{\"kind\":\"tenant\",\"run\":\"base\""));
        assert!(lines[5].starts_with("{\"kind\":\"shed\",\"run\":\"cand\""));
        assert!(lines[6].starts_with("{\"kind\":\"diff\""));
        assert!(lines[7].starts_with("{\"kind\":\"end\",\"runs\":2,\"cells\":2,\"tenants\":2"));
        // Byte-identical on re-export: pure function of the folds.
        assert_eq!(
            jsonl,
            export_attrib_jsonl("unit", 7, &[("base", &base), ("cand", &cand)], &["kv"])
        );
    }

    #[test]
    fn single_run_artifact_has_no_diff() {
        let fold = fold_with(STAGE_TRANSPORT, 1_000, 3);
        let jsonl = export_attrib_jsonl("unit", 1, &[("only", &fold)], &[]);
        assert!(!jsonl.contains("\"kind\":\"diff\""));
        // Unlabeled tenants render as indices.
        assert!(jsonl.contains("\"tenant\":\"0\""));
    }
}
