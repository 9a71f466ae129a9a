//! Parallel configuration sweeps.
//!
//! A [`SweepSpec`] spans a grid of (mesh size × tenant mix × arrival
//! rate × remote stack); [`SweepSpec::rows`] hands the grid to the shared
//! rayon runner [`run_rows`], which returns one run per cell. Determinism
//! at any thread count comes from two properties: every point derives
//! its own seed purely
//! from the spec seed and the point's grid index, and results are
//! collected in grid order — never in completion order.

use venice::{Figure, Series};

use crate::engine::LoadgenConfig;
use crate::report::LoadReport;
use crate::scenarios::{run_rows, Row, RowRun};
use crate::stacks::RemoteStack;
use crate::tenants::TenantMix;
use crate::ArrivalProcess;

/// A grid of loadgen configurations.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Base seed; each point derives an independent stream from it.
    pub seed: u64,
    /// Mesh dimensions to sweep.
    pub meshes: Vec<(u16, u16, u16)>,
    /// Tenant mixes to sweep.
    pub mixes: Vec<TenantMix>,
    /// Open-loop arrival rates to sweep (requests per second).
    pub rates_rps: Vec<f64>,
    /// Remote-memory stacks to sweep (Venice vs the `venice-baselines`
    /// comparison systems, under identical traffic).
    pub stacks: Vec<RemoteStack>,
    /// Requests generated per grid point.
    pub requests_per_point: u64,
}

impl SweepSpec {
    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.meshes.len() * self.mixes.len() * self.rates_rps.len() * self.stacks.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into per-point configurations, in grid order
    /// (mesh-major, then mix, then rate, then stack). Every stack in one
    /// (mesh, mix, rate) cell shares that cell's seed, so stack-vs-stack
    /// series really do run the identical arrival stream — the seed is
    /// derived from the *traffic* cell, never the stack dimension.
    pub fn configs(&self) -> Vec<LoadgenConfig> {
        let mut out = Vec::with_capacity(self.len());
        let mut cell = 0u64;
        for &mesh in &self.meshes {
            for mix in &self.mixes {
                for &rate_rps in &self.rates_rps {
                    let seed = point_seed(self.seed, cell);
                    cell += 1;
                    for &stack in &self.stacks {
                        out.push(LoadgenConfig {
                            mesh,
                            arrival: ArrivalProcess::OpenPoisson { rate_rps },
                            requests: self.requests_per_point,
                            stack,
                            ..LoadgenConfig::new(seed, mix.clone())
                        });
                    }
                }
            }
        }
        out
    }

    /// The grid as labelled [`Row`]s, in grid order.
    pub fn rows(&self) -> Vec<Row> {
        let label = |c: &LoadgenConfig| {
            format!(
                "{:?} {} {:.0} rps {}",
                c.mesh,
                c.mix.name,
                rate_of(c),
                c.stack.label()
            )
        };
        self.configs()
            .into_iter()
            .map(|c| (label(&c), c, None))
            .collect()
    }
}

/// SplitMix64-style derivation of a point seed from the spec seed and the
/// point's grid index — independent of execution order.
fn point_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        ^ index
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0xD1B54A32D192ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The open-loop rate of a sweep configuration.
fn rate_of(config: &LoadgenConfig) -> f64 {
    let ArrivalProcess::OpenPoisson { rate_rps } = config.arrival else {
        unreachable!("sweep configs are open-loop");
    };
    rate_rps
}

/// Runs the sweep and renders it as `Figure`s (see [`render`]).
pub fn figures(spec: &SweepSpec) -> Vec<Figure> {
    render(spec, &run_rows(spec.rows(), None, false))
}

/// Renders `runs` — the outputs of `spec.rows()`, in grid order — as
/// `Figure`s: for every mesh size, a p99 figure and a goodput figure
/// over the rate axis, one series per (mix × stack) combination (the
/// stack suffix is dropped when the sweep covers only one stack).
pub fn render(spec: &SweepSpec, runs: &[RowRun]) -> Vec<Figure> {
    let cells: Vec<(LoadgenConfig, &LoadReport)> = spec
        .configs()
        .into_iter()
        .zip(runs.iter().map(|(_, r, _)| r))
        .collect();
    let columns: Vec<String> = spec
        .rates_rps
        .iter()
        .map(|r| format!("{:.0}k rps", r / 1_000.0))
        .collect();
    let label = |mix: &TenantMix, stack: RemoteStack| {
        if spec.stacks.len() == 1 {
            mix.name.clone()
        } else {
            format!("{} ({})", mix.name, stack.label())
        }
    };
    let mut out = Vec::new();
    for &mesh in &spec.meshes {
        let n = mesh.0 as u32 * mesh.1 as u32 * mesh.2 as u32;
        let mut p99 = Figure::new(
            format!("loadgen-p99-{n}n"),
            format!("Tail latency under sustained load, {n}-node mesh"),
            "p99 end-to-end latency (ms) vs offered open-loop rate",
        )
        .with_columns(columns.clone());
        let mut tput = Figure::new(
            format!("loadgen-tput-{n}n"),
            format!("Achieved throughput, {n}-node mesh"),
            "completed requests per second vs offered open-loop rate",
        )
        .with_columns(columns.clone());
        for mix in &spec.mixes {
            for &stack in &spec.stacks {
                let rows: Vec<&LoadReport> = cells
                    .iter()
                    .filter(|(c, _)| c.mesh == mesh && c.mix.name == mix.name && c.stack == stack)
                    .map(|&(_, r)| r)
                    .collect();
                p99.add_measured(Series::new(
                    label(mix, stack),
                    rows.iter().map(|r| r.total.p99_us / 1_000.0).collect(),
                ));
                tput.add_measured(Series::new(
                    label(mix, stack),
                    rows.iter().map(|r| r.total.throughput_rps).collect(),
                ));
            }
        }
        p99.notes = "loadgen scenario family: beyond the paper's figures (no published reference)"
            .to_string();
        tput.notes = p99.notes.clone();
        out.push(p99);
        out.push(tput);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            seed: 99,
            meshes: vec![(2, 2, 1)],
            mixes: vec![TenantMix::web_frontend(), TenantMix::messaging()],
            rates_rps: vec![5_000.0, 50_000.0],
            stacks: vec![RemoteStack::VeniceCrma],
            requests_per_point: 800,
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let a = run_rows(tiny_spec().rows(), None, false);
        let b = run_rows(tiny_spec().rows(), None, false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn point_seeds_are_index_stable() {
        // Reordering the grid must not change a given cell's result: the
        // seed depends only on (spec seed, index).
        assert_ne!(point_seed(1, 0), point_seed(1, 1));
        assert_eq!(point_seed(7, 3), point_seed(7, 3));
    }

    #[test]
    fn figures_have_grid_shape() {
        let figs = figures(&tiny_spec());
        assert_eq!(figs.len(), 2); // p99 + tput for the single mesh
        for f in &figs {
            assert_eq!(f.columns.len(), 2);
            assert_eq!(f.measured.len(), 2);
            for s in &f.measured {
                assert!(s.values.iter().all(|v| v.is_finite() && *v >= 0.0));
            }
        }
    }

    #[test]
    fn multi_stack_sweeps_label_series_per_stack() {
        let spec = SweepSpec {
            mixes: vec![TenantMix::messaging()],
            rates_rps: vec![10_000.0],
            stacks: vec![RemoteStack::VeniceCrma, RemoteStack::SwapEthernet],
            requests_per_point: 400,
            ..tiny_spec()
        };
        assert_eq!(spec.len(), 2);
        // Both stacks of one traffic cell share the cell seed, so they
        // run the identical arrival stream.
        let configs = spec.configs();
        assert_eq!(configs[0].seed, configs[1].seed);
        let runs = run_rows(spec.rows(), None, false);
        assert_eq!(runs[0].1.issued, runs[1].1.issued);
        let figs = figures(&spec);
        let labels: Vec<&str> = figs[0].measured.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["messaging (venice)", "messaging (swap-eth)"]);
    }
}
