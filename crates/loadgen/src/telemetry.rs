//! Telemetry over engine runs: the engine's event-kind labels and the
//! `venice-telemetry-v2` artifact.
//!
//! The engine's probe hooks ([`Run::probe`](crate::Run::probe)) are
//! generic plumbing; this module binds a [`RecordingProbe`]'s output to
//! the event-kind labels of the engine's event enum, through the
//! [`RunOutput`] renderers for the JSONL artifact and the text profile
//! the `venice-bench` `profile` bin (and the determinism tests) consume.
//! Everything here inherits the engine's determinism: same config, same
//! artifact, byte for byte.

use venice_telemetry::{export_jsonl, render_profile, RecordingProbe};

use crate::engine::RunOutput;

/// Human labels for the engine's probe event-kind slots, indexed by the
/// engine event enum's probe slot (kept in step with
/// `EngineEvent::kind` in the engine).
pub const EVENT_KIND_LABELS: [&str; 8] = [
    "arrival",
    "session-next",
    "replay-next",
    "finish",
    "lease-tick",
    "lease-established",
    "revoke-torndown",
    "fault-tick",
];

impl RunOutput<RecordingProbe> {
    /// Renders the run's `venice-telemetry-v2` JSONL artifact named
    /// `scenario`.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` needs JSON escaping.
    pub fn artifact_jsonl(&self, scenario: &str) -> String {
        export_jsonl(scenario, self.report.seed, &self.probe, &EVENT_KIND_LABELS)
    }

    /// Renders the run's human-readable text profile named `scenario`.
    pub fn profile_text(&self, scenario: &str) -> String {
        render_profile(scenario, &self.probe, &EVENT_KIND_LABELS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LoadgenConfig, Run};
    use crate::tenants::TenantMix;
    use venice_sim::Time;
    use venice_telemetry::AttribProbe;

    fn small(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            requests: 3_000,
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        }
    }

    #[test]
    fn probed_report_matches_the_noop_report() {
        let config = small(19);
        let plain = Run::new(&config).execute().report;
        let probed: RunOutput<RecordingProbe> = Run::new(&config)
            .probe(RecordingProbe::new(Time::from_ms(5), 512))
            .execute();
        assert_eq!(plain, probed.report, "probe perturbed the run");
        assert!(probed.probe.total_events() > 0);
        assert!(
            !probed.probe.series().is_empty(),
            "no samples over a 3k-request run"
        );
        assert!(probed.probe.queue_stats().pops() > 0);
    }

    #[test]
    fn attrib_fold_accounts_for_every_completion() {
        let config = small(19);
        let out = Run::new(&config)
            .probe(AttribProbe::new(Time::from_ms(5), 512))
            .execute();
        let fold = out.probe.attrib();
        assert_eq!(fold.requests(), out.report.completed);
        // Per-tenant counts reconcile with the report's ledger.
        for (t, tenant) in out.report.tenants.iter().enumerate() {
            let count = fold.tenant_summary(t as u16).map(|s| s.count).unwrap_or(0);
            assert_eq!(count, tenant.completed, "{}", tenant.tenant);
        }
    }

    #[test]
    fn artifact_is_stable_across_reruns() {
        let config = small(23);
        let a = Run::new(&config)
            .probe(RecordingProbe::new(Time::from_ms(5), 512))
            .execute()
            .artifact_jsonl("unit");
        let b = Run::new(&config)
            .probe(RecordingProbe::new(Time::from_ms(5), 512))
            .execute()
            .artifact_jsonl("unit");
        assert_eq!(a, b);
        assert!(a.starts_with("{\"kind\":\"header\""));
        assert!(a.lines().last().unwrap().starts_with("{\"kind\":\"end\""));
    }
}
