//! The loadgen scenarios — runs beyond the paper's evaluation — and
//! the one rayon runner every comparison family shares.
//!
//! The paper stops at one-shot workload runs on 8 nodes. These scenarios
//! ask the production questions: how does the tail behave as offered load
//! approaches saturation, what does the cluster actually sustain, and what
//! does doubling the mesh buy — across three tenant mixes and two mesh
//! sizes, all deterministic from one seed. Every figure family states its
//! runs as [`Row`]s and hands them to [`run_rows`].

use rayon::prelude::*;

use crate::engine::{self, LoadgenConfig};
use crate::faults::FaultPlan;
use crate::report::LoadReport;
use crate::stacks::RemoteStack;
use crate::sweep::SweepSpec;
use crate::tenants::TenantMix;
use crate::trace::Trace;
use crate::ArrivalProcess;

/// Base seed of the published loadgen figures.
pub const SCENARIO_SEED: u64 = 0x7EA1CE;

/// One comparison row: a label, its configuration, and the fault plan
/// armed on it (if any).
pub type Row = (String, LoadgenConfig, Option<FaultPlan>);

/// Lifts fault-free `(label, config)` pairs into [`Row`]s.
pub fn fault_free(pairs: Vec<(String, LoadgenConfig)>) -> Vec<Row> {
    pairs.into_iter().map(|(l, c)| (l, c, None)).collect()
}

/// One row's run output: its label, report, and per-request trace
/// (`Some` exactly when the rows ran traced).
pub type RowRun = (String, LoadReport, Option<Trace>);

/// Runs every row in parallel (rayon); results in row order, so the
/// output is identical at any thread count. `requests` overrides each
/// row's request count (the determinism gate and the small tests run
/// scaled down: rayon determinism does not depend on run length), and
/// `traced` captures each row's per-request trace.
pub fn run_rows(rows: Vec<Row>, requests: Option<u64>, traced: bool) -> Vec<RowRun> {
    rows.into_par_iter()
        .map(|(label, mut config, plan)| {
            config.requests = requests.unwrap_or(config.requests);
            let mut run = engine::Run::new(&config);
            if let Some(plan) = plan {
                run = run.faults(plan);
            }
            if traced {
                run = run.traced();
            }
            let out = run.execute();
            (label, out.report, out.trace)
        })
        .collect()
}

/// The canonical sweep at `seed` (published at [`SCENARIO_SEED`]): 8-
/// and 16-node meshes × three tenant mixes × four offered rates spanning
/// comfortable to saturating, on the Venice stack (the baseline stacks
/// appear in the elastic comparison family).
pub fn default_sweep(seed: u64) -> SweepSpec {
    SweepSpec {
        seed,
        meshes: vec![(2, 2, 2), (4, 2, 2)],
        mixes: TenantMix::presets(),
        rates_rps: vec![5_000.0, 20_000.0, 80_000.0, 160_000.0],
        stacks: vec![RemoteStack::VeniceCrma],
        requests_per_point: 20_000,
    }
}

/// The storm configurations backing the headline claim: ≥ 1 M simulated
/// requests across the three canonical tenant mixes on a 16-node mesh.
pub fn storm_configs(seed: u64) -> Vec<LoadgenConfig> {
    TenantMix::presets()
        .into_iter()
        .map(|mix| LoadgenConfig {
            mesh: (4, 2, 2),
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 120_000.0,
            },
            requests: 350_000,
            ..LoadgenConfig::new(seed, mix)
        })
        .collect()
}

/// Runs the full storm (one run per mix) and returns the reports.
pub fn run_storm(seed: u64) -> Vec<LoadReport> {
    storm_configs(seed)
        .iter()
        .map(|c| engine::Run::new(c).execute().report)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_totals_exceed_a_million_requests() {
        let configs = storm_configs(1);
        assert!(configs.len() >= 3);
        let total: u64 = configs.iter().map(|c| c.requests).sum();
        assert!(total >= 1_000_000, "storm issues only {total} requests");
    }

    #[test]
    fn default_sweep_covers_the_advertised_grid() {
        let spec = default_sweep(SCENARIO_SEED);
        assert_eq!(spec.len(), 24);
        assert!(spec.mixes.len() >= 3);
        assert!(spec.meshes.contains(&(2, 2, 2)));
    }
}
