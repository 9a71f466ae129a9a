//! Text profile reports: a run rendered for humans.
//!
//! [`render_profile`] turns a [`RecordingProbe`] into the report the
//! `venice-bench` `profile` bin prints: top event kinds by count and
//! attributed sim time, kernel-queue traffic, a per-node utilization
//! table folded over the sample series, and a per-(kind, node)
//! span-duration percentile table from the span log. All arithmetic is
//! integer (fixed-point tenths for percentages), so the report is as
//! deterministic as the artifact.

use std::fmt::Write as _;

use crate::probe::RecordingProbe;
use crate::spans::SpanKind;
use crate::{pct, permille};

/// Renders `probe` as a multi-section text report. `labels` names the
/// engine's event-kind slots, as for [`crate::export_jsonl`].
pub fn render_profile(scenario: &str, probe: &RecordingProbe, labels: &[&str]) -> String {
    let mut out = String::new();
    writeln!(out, "== profile: {scenario} ==").unwrap();

    // Top event kinds by count, with attributed sim time.
    let total_events = probe.total_events();
    let total_time: u64 = probe.time_by_kind_ps().iter().sum();
    let mut kinds: Vec<(usize, u64, u64)> = probe
        .events_by_kind()
        .iter()
        .zip(probe.time_by_kind_ps())
        .enumerate()
        .filter(|&(_, (&c, _))| c > 0)
        .map(|(slot, (&c, &t))| (slot, c, t))
        .collect();
    kinds.sort_by_key(|&(slot, c, _)| (std::cmp::Reverse(c), slot));
    writeln!(
        out,
        "events: {} fired + {} fused arrivals",
        total_events,
        probe.fused()
    )
    .unwrap();
    writeln!(
        out,
        "  {:<18} {:>12} {:>7} {:>14} {:>7}",
        "kind", "count", "cnt%", "sim-time(us)", "time%"
    )
    .unwrap();
    for (slot, count, time_ps) in &kinds {
        let label = labels.get(*slot).copied().unwrap_or("other");
        writeln!(
            out,
            "  {:<18} {:>12} {:>7} {:>14} {:>7}",
            label,
            count,
            pct(permille(*count, total_events)),
            time_ps / 1_000_000,
            pct(permille(*time_ps, total_time)),
        )
        .unwrap();
    }

    // Kernel queue traffic.
    let q = probe.queue_stats();
    let (slab_live, slab_cap) = probe.slab();
    writeln!(
        out,
        "queue: {} near-hits ({} of pushes), {} sifts ({} spills, {} heap pushes, {} heap pops), peak depth {}, slab {}/{} live",
        q.near_hits,
        pct(permille(q.near_hits, q.near_hits + q.heap_pushes)),
        q.sifts(),
        q.near_spills,
        q.heap_pushes,
        q.heap_pops,
        probe.peak_depth(),
        slab_live,
        slab_cap
    )
    .unwrap();

    // Per-node utilization folded over the sample series.
    let series = probe.series();
    let n_nodes = series.rows().next().map_or(0, |(_, r)| r.nodes.len());
    writeln!(
        out,
        "samples: {} kept ({} dropped), tick {} us",
        series.len(),
        series.dropped(),
        series.tick().as_ps() / 1_000_000
    )
    .unwrap();
    if n_nodes > 0 {
        writeln!(
            out,
            "  {:<5} {:>9} {:>9} {:>10} {:>14} {:>14} {:>14}",
            "node",
            "avg-depth",
            "max-depth",
            "avg-infl",
            "borrowed(MiB)",
            "lent(MiB)",
            "sublsd(MiB)"
        )
        .unwrap();
        let rows = series.len() as u64;
        for node in 0..n_nodes {
            let (mut depth_sum, mut depth_max, mut infl_sum) = (0u64, 0u32, 0u64);
            let (mut borrowed, mut lent, mut subleased) = (0u64, 0u64, 0u64);
            for (_, row) in series.rows() {
                let g = &row.nodes[node];
                depth_sum += u64::from(g.depth);
                depth_max = depth_max.max(g.depth);
                infl_sum += u64::from(g.inflight);
                // Last row wins: report the final byte position.
                borrowed = g.borrowed;
                lent = g.lent;
                subleased = g.subleased;
            }
            writeln!(
                out,
                "  {:<5} {:>9} {:>9} {:>10} {:>14} {:>14} {:>14}",
                node,
                depth_sum / rows,
                depth_max,
                infl_sum / rows,
                borrowed >> 20,
                lent >> 20,
                subleased >> 20
            )
            .unwrap();
        }
    }

    // Span-duration breakdown: per (lifecycle kind, node) percentiles
    // over closed spans, so lease-establish stalls on one hot node are
    // visible instead of averaged away across the cluster.
    let spans = probe.spans();
    writeln!(
        out,
        "lease spans: {} closed, {} still open",
        spans.closed().len(),
        spans.open_len()
    )
    .unwrap();
    const KINDS: [SpanKind; 5] = [
        SpanKind::Establish,
        SpanKind::Active,
        SpanKind::Teardown,
        SpanKind::Fault,
        SpanKind::Failover,
    ];
    let mut durations: std::collections::BTreeMap<(usize, u16), Vec<u64>> =
        std::collections::BTreeMap::new();
    for (_, span) in spans.closed().iter() {
        let kind_idx = KINDS.iter().position(|&k| k == span.kind).unwrap();
        durations
            .entry((kind_idx, span.node))
            .or_default()
            .push(span.duration().map_or(0, |d| d.as_ps()));
    }
    if !durations.is_empty() {
        writeln!(
            out,
            "  {:<10} {:>5} {:>8} {:>10} {:>10} {:>10}",
            "kind", "node", "closed", "p50(us)", "p90(us)", "max(us)"
        )
        .unwrap();
        // Integer nearest-rank percentile over the sorted durations.
        let rank = |sorted: &[u64], q: u64| {
            let idx = (sorted.len() as u64 * q).div_ceil(100).max(1) as usize - 1;
            sorted[idx.min(sorted.len() - 1)]
        };
        for ((kind_idx, node), mut ds) in durations {
            ds.sort_unstable();
            writeln!(
                out,
                "  {:<10} {:>5} {:>8} {:>10} {:>10} {:>10}",
                KINDS[kind_idx].label(),
                node,
                ds.len(),
                rank(&ds, 50) / 1_000_000,
                rank(&ds, 90) / 1_000_000,
                ds.last().unwrap() / 1_000_000
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use venice_sim::Time;

    use super::*;
    use crate::probe::Probe;
    use crate::series::{NodeGauges, SampleRow};

    #[test]
    fn report_renders_all_sections() {
        let mut p = RecordingProbe::new(Time::from_us(10), 4);
        p.on_event(0, Time::from_us(4));
        p.on_event(0, Time::from_us(8));
        p.on_event(2, Time::from_us(12));
        if let Some(at) = p.sample_due(Time::from_us(12)) {
            p.on_sample(
                at,
                SampleRow {
                    nodes: vec![
                        NodeGauges::default(),
                        NodeGauges {
                            depth: 4,
                            ..Default::default()
                        },
                    ],
                    tenants: Vec::new(),
                    slab_live: 0,
                    pending_events: 1,
                    links: Vec::new(),
                },
            );
        }
        p.span_open(SpanKind::Establish, 1, 3, Time::from_us(2));
        p.span_close(SpanKind::Establish, 1, 3, Time::from_us(10));
        p.span_open(SpanKind::Establish, 1, 4, Time::from_us(10));
        p.span_close(SpanKind::Establish, 1, 4, Time::from_us(30));
        p.span_open(SpanKind::Establish, 2, 5, Time::from_us(0));
        p.span_close(SpanKind::Establish, 2, 5, Time::from_us(100));
        let report = render_profile("unit", &p, &["arrival", "next", "finish"]);
        assert!(report.contains("== profile: unit =="));
        assert!(report.contains("arrival"));
        assert!(report.contains("finish"));
        assert!(!report.contains("other"), "unused slots stay unnamed");
        assert!(report.contains("66.6%"), "2 of 3 events are arrivals");
        assert!(report.contains("3 closed"));
        // Per-(kind, node) percentiles: node 1 has {8, 20} us establish
        // spans (p50 = 8, p90 = max = 20); node 2 a lone 100 us span.
        let establish_row = |node: &str| {
            report
                .lines()
                .find(|l| {
                    let mut f = l.split_whitespace();
                    f.next() == Some("establish") && f.next() == Some(node)
                })
                .unwrap_or_else(|| panic!("node-{node} establish row"))
                .split_whitespace()
                .collect::<Vec<_>>()
        };
        // Columns: kind node closed p50 p90 max.
        assert_eq!(establish_row("1")[2..], ["2", "8", "20", "20"]);
        assert_eq!(establish_row("2")[2..], ["1", "100", "100", "100"]);
        // Deterministic: same probe, same bytes.
        assert_eq!(
            report,
            render_profile("unit", &p, &["arrival", "next", "finish"])
        );
    }

    #[test]
    fn long_runs_render_exact_time_shares() {
        // The finish event carries 6 h of simulated time, 2.16e16 ps:
        // `ps * 1000` would overflow u64, so the per-mille math must be
        // exact.
        let mut p = RecordingProbe::new(Time::from_secs(3_600), 4);
        p.on_event(0, Time::from_secs(3_600));
        p.on_event(1, Time::from_secs(7 * 3_600));
        let report = render_profile("long", &p, &["arrival", "finish"]);
        let time_share = |label: &str| {
            report
                .lines()
                .find(|l| l.split_whitespace().next() == Some(label))
                .unwrap_or_else(|| panic!("{label} row"))
                .split_whitespace()
                .last()
                .expect("time% column")
                .to_string()
        };
        assert_eq!(time_share("arrival"), "14.2%");
        assert_eq!(time_share("finish"), "85.7%");
    }
}
