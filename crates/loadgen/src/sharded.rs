//! The sharded parallel driver: the sequential engine's own world, run
//! once per node group on rayon workers over a pre-drawn slice of the
//! arrival stream.
//!
//! # How a run shards
//!
//! Nodes interact with one another only through a handful of
//! mechanisms: elastic lease ticks (grants move bytes between arbitrary
//! donor/recipient pairs), the modeled congested fabric (every dispatch
//! reads shared per-link utilization windows), fault re-routing (a
//! crashed node's sessions bounce to survivors), and closed-loop /
//! replay arrival processes (one global arrival cursor). Probes observe
//! the global event stream. A configuration that arms **none** of them
//! has node groups that are provably independent for the whole run —
//! exactly the committed `storm` benchmark family (open-loop arrivals,
//! static provisioning, scalar remote model, no faults).
//!
//! For such a run the driver splits the work in two phases:
//!
//! 1. **Front-end (sequential):** one engine world takes the arrival
//!    stream from the engine's own open-loop drawer — the one the
//!    sequential engine issues from, drawing ahead in chunks of
//!    [`AHEAD`](crate::engine::AHEAD) — and adds only each request's
//!    service draw from the insulated service stream. Each request is
//!    binned to the shard owning its home node (`user % nodes`, the
//!    static-scalar routing rule).
//! 2. **Workers (parallel):** each shard runs the engine's `World` over
//!    its slice — the engine's own admission, dispatch and finish
//!    handlers and its arrival fusion, with the slice as the arrival
//!    source. Per-node state (admission, QPair credits, service slots,
//!    backlog) lives wholly inside one shard, so every per-node event
//!    sequence is identical to the sequential run's.
//!
//! The merge is deterministic by construction: each worker's servers
//! fold back in node order, per-class stats merge through commutative
//! histogram and counter sums, the trace concatenates and re-sorts by
//! sequence number, and the report is summarized by the same engine
//! code as a sequential run's. The result is **byte-identical** to the
//! single-shard run at any shard count and any thread count.
//!
//! # When the optimism fails
//!
//! Two events falsify the independence argument mid-run, and either one
//! aborts the parallel attempt (a flag every worker polls) and re-runs
//! the whole configuration sequentially:
//!
//! * **An admission shed.** The front-end pre-draws service times under
//!   an all-admitted assumption; the sequential engine skips the
//!   service draw for a shed request, so one shed desynchronizes every
//!   later draw. Because admission state is per-node and deterministic
//!   in that node's arrival/completion sequence, a worker reproduces
//!   the sequential engine's *first* shed exactly — there are no
//!   spurious aborts, and the committed benchmark families shed
//!   nothing. (Backlog-overflow drops happen after the service draw and
//!   are *not* violations.)
//! * **A same-node arrival/finish timestamp tie.** The sequential
//!   engine breaks the tie by global insertion order, which a shard
//!   cannot reconstruct; per-node stamps detect the tie in either
//!   firing order.
//!

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

use rayon::prelude::*;
use venice_sim::{partition, Time};
use venice_telemetry::{NoopProbe, Probe};

use crate::arrival::ArrivalProcess;
use crate::engine::{
    build_world, run_full, run_world, summarize, DrawnArrival, EngineMetrics, LoadgenConfig, World,
};
use crate::faults::{FaultPlan, NoFaults};
use crate::remote::{RemoteModelCfg, ScalarCrma};
use crate::report::LoadReport;
use crate::trace::Trace;

/// One pre-drawn arrival, produced by the sequential front-end and
/// consumed by the shard owning its node. The slices hold nearly all of
/// a sharded run's heap, so the record stays at 40 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreRequest {
    pub(crate) seq: u64,
    pub(crate) at: Time,
    pub(crate) class: u32,
    pub(crate) user: u64,
    pub(crate) node: u16,
    /// Service time pre-drawn from the insulated service stream under
    /// the all-admitted assumption (any admission shed aborts the run).
    pub(crate) service: Time,
}

const _: () = assert!(std::mem::size_of::<PreRequest>() == 40);

/// A shard worker's part of the run, installed on the engine's world
/// with [`World::attach_shard`]: its pre-drawn arrivals and their
/// cursor, per-node tie stamps, and the abort flag every worker shares.
pub(crate) struct ShardSlice<'a> {
    /// This shard's arrivals, ascending by `seq` (and therefore time).
    pre: Vec<PreRequest>,
    /// Cursor into `pre`.
    next: usize,
    /// Per-node instant of the latest arrival and the latest finish
    /// (indexed by global node id), to catch a same-instant tie in
    /// either firing order.
    last_arrival: Vec<Option<Time>>,
    last_finish: Vec<Option<Time>>,
    abort: &'a AtomicBool,
}

impl ShardSlice<'_> {
    /// Takes the next pre-drawn arrival; `None` once the attempt is
    /// aborted — already, or now, because a finish on the same node
    /// shares its instant (the sequential engine orders that tie by
    /// global insertion history, which no shard can reconstruct).
    pub(crate) fn arrive(&mut self) -> Option<PreRequest> {
        if self.abort.load(Ordering::Relaxed) {
            return None;
        }
        let pr = self.pre[self.next];
        self.next += 1;
        let node = pr.node as usize;
        if self.last_finish[node] == Some(pr.at) {
            self.abort();
            return None;
        }
        self.last_arrival[node] = Some(pr.at);
        Some(pr)
    }

    /// The instant of the next pre-drawn arrival, if any remain.
    pub(crate) fn next_at(&self) -> Option<Time> {
        self.pre.get(self.next).map(|pr| pr.at)
    }

    /// Stamps a finish on `node` at `now`; `false` once the attempt is
    /// aborted — already, or now, because an arrival on the same node
    /// shares the instant.
    pub(crate) fn finish(&mut self, node: u16, now: Time) -> bool {
        let node = node as usize;
        if self.abort.load(Ordering::Relaxed) || self.last_arrival[node] == Some(now) {
            self.abort();
            return false;
        }
        self.last_finish[node] = Some(now);
        true
    }

    /// Aborts the parallel attempt on every worker.
    pub(crate) fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }
}

/// Whether a run's node groups are independent: open-loop arrivals over
/// the scalar remote model, with no lease, fault plan, probe or replay.
fn eligible<P: Probe>(config: &LoadgenConfig, replay: bool, faults: bool) -> bool {
    matches!(
        config.arrival,
        ArrivalProcess::OpenPoisson { .. } | ArrivalProcess::Bursty { .. }
    ) && config.remote_model == RemoteModelCfg::Scalar
        && config.lease.is_none()
        && !faults
        && !P::ENABLED
        && !replay
}

/// Entry point behind [`Run::shards`](crate::engine::Run::shards):
/// attempts the parallel driver when the configuration admits it, and
/// otherwise (or on a mid-run violation) produces the output through
/// the sequential engine — so the builder's output is byte-identical
/// either way.
pub(crate) fn run_sharded_or_sequential<P: Probe>(
    config: &LoadgenConfig,
    replay_trace: Option<&Trace>,
    capture: bool,
    probe: P,
    faults: Option<FaultPlan>,
    shards: usize,
) -> (LoadReport, Option<Trace>, EngineMetrics, P) {
    if shards > 1 && eligible::<P>(config, replay_trace.is_some(), faults.is_some()) {
        if let Some((report, trace, metrics)) = run_sharded(config, capture, shards) {
            return (report, trace, metrics, probe);
        }
    }
    run_full(config, replay_trace, capture, probe, faults)
}

/// Runs the parallel driver proper on an eligible configuration.
/// Returns `None` when the run cannot be (or could not stay) parallel:
/// a single-node mesh, or a mid-run violation (admission shed /
/// same-node timestamp tie) — the caller then re-runs sequentially.
pub(crate) fn run_sharded(
    config: &LoadgenConfig,
    capture: bool,
    shards: usize,
) -> Option<(LoadReport, Option<Trace>, EngineMetrics)> {
    let ranges = partition(config.nodes(), shards);
    if ranges.len() < 2 {
        return None;
    }
    let abort = AtomicBool::new(false);
    // One engine world per shard, each built exactly as a sequential
    // run builds its own, sharing one user sampler.
    let zipf = config.mix.user_sampler();
    let mut worlds: Vec<_> = ranges
        .iter()
        .map(|_| {
            build_world(
                config,
                zipf.clone(),
                None,
                capture,
                NoopProbe,
                ScalarCrma,
                NoFaults,
            )
        })
        .collect();

    // Phase A — the sequential front-end, drawn by the first world.
    let slices = front_end(&mut worlds[0], &ranges);

    // Phase B — parallel workers over their slices.
    let nodes = config.nodes() as usize;
    for (world, pre) in worlds.iter_mut().zip(slices) {
        world.attach_shard(ShardSlice {
            pre,
            next: 0,
            last_arrival: vec![None; nodes],
            last_finish: vec![None; nodes],
            abort: &abort,
        });
    }
    let done: Vec<_> = worlds.into_par_iter().map(run_world).collect();
    if abort.load(Ordering::Relaxed) {
        return None;
    }

    // Deterministic merge, in fixed shard (= node range) order.
    let mut done = done.into_iter().zip(ranges);
    let ((mut world, mut metrics), _) = done.next().expect("at least two shards");
    for ((shard, m), nodes) in done {
        world.absorb_shard(shard, nodes);
        metrics.events += m.events;
        metrics.fused_arrivals += m.fused_arrivals;
        metrics.peak_queue_depth = metrics.peak_queue_depth.max(m.peak_queue_depth);
        metrics.queue.absorb(m.queue);
        metrics.slab.0 += m.slab.0;
        metrics.slab.1 += m.slab.1;
    }
    let (report, trace, NoopProbe) = summarize(config, world);
    Some((report, trace, metrics))
}

/// Phase A: takes every arrival from `w`'s open-loop drawer (the one
/// the sequential engine issues from), draws its service time from the
/// service stream, and bins it to the shard owning its home node.
fn front_end(
    w: &mut World<'_, NoopProbe, ScalarCrma, NoFaults>,
    ranges: &[Range<u16>],
) -> Vec<Vec<PreRequest>> {
    let shard_of: Vec<usize> = (0..ranges.len())
        .flat_map(|i| ranges[i].clone().map(move |_| i))
        .collect();
    let mut slices = vec![Vec::new(); ranges.len()];
    let mut seq = 0;
    while let Some(DrawnArrival { at, class, user }) = w.pop_arrival() {
        // Static scalar routing: always the home node.
        let node = (user % shard_of.len() as u64) as usize;
        let (service, _) = w.draw_service(node, class);
        slices[shard_of[node]].push(PreRequest {
            seq,
            at,
            class: class as u32,
            user,
            node: node as u16,
            service,
        });
        seq += 1;
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::engine::Run;
    use crate::tenants::TenantMix;

    // The storm family's shape (16-node mesh, 120 krps open loop) at a
    // test-sized request count: enough headroom that admission never
    // sheds, so the optimistic parallel path actually runs.
    fn storm_like(seed: u64, requests: u64) -> LoadgenConfig {
        LoadgenConfig {
            mesh: (4, 2, 2),
            arrival: ArrivalProcess::OpenPoisson {
                rate_rps: 120_000.0,
            },
            requests,
            ..LoadgenConfig::new(seed, TenantMix::web_frontend())
        }
    }

    fn bytes(report: &LoadReport, trace: &Option<Trace>) -> (String, String) {
        (
            serde_json::to_string(report).expect("report serializes"),
            trace.as_ref().map(Trace::to_jsonl).unwrap_or_default(),
        )
    }

    #[test]
    fn sharded_run_is_byte_identical_to_sequential() {
        let config = storm_like(0x51AB, 6_000);
        let seq = Run::new(&config).traced().execute();
        for shards in [2usize, 4, 8] {
            assert!(
                run_sharded(&config, false, shards).is_some(),
                "the parallel path must actually run, not fall back"
            );
            let out = Run::new(&config).traced().shards(shards).execute();
            assert_eq!(
                bytes(&out.report, &out.trace),
                bytes(&seq.report, &seq.trace),
                "{shards} shards diverged"
            );
            assert_eq!(
                out.metrics.events, seq.metrics.events,
                "merged event count must equal the sequential count"
            );
        }
    }

    #[test]
    fn admission_pressure_falls_back_to_sequential_identically() {
        // A tiny in-flight cap forces admission sheds, which violate
        // the front-end's all-admitted assumption: the builder must
        // fall back to the sequential engine and still match it byte
        // for byte.
        let config = LoadgenConfig {
            admission: AdmissionConfig {
                max_inflight: 8,
                ..AdmissionConfig::default()
            },
            ..storm_like(0xFA11, 4_000)
        };
        assert!(
            run_sharded(&config, false, 4).is_none(),
            "sheds must abort the optimistic parallel attempt"
        );
        let seq = Run::new(&config).traced().execute();
        assert!(seq.report.shed_overload > 0, "config must actually shed");
        let out = Run::new(&config).traced().shards(4).execute();
        assert_eq!(
            bytes(&out.report, &out.trace),
            bytes(&seq.report, &seq.trace)
        );
    }

    #[test]
    fn ineligible_configs_run_sequentially_through_the_builder() {
        // Elastic leases, a modeled fabric and closed-loop sessions each
        // couple the node groups: the builder collapses to the
        // sequential engine and output is unchanged.
        let base = storm_like(0xE1A5, 3_000);
        assert!(eligible::<NoopProbe>(&base, false, false));
        assert!(!eligible::<NoopProbe>(&base, true, false), "replay");
        assert!(!eligible::<NoopProbe>(&base, false, true), "faults");
        assert!(
            !eligible::<venice_telemetry::RecordingProbe>(&base, false, false),
            "probe"
        );
        let configs = [
            LoadgenConfig {
                lease: Some(venice_lease::LeaseConfig::default()),
                ..base.clone()
            },
            LoadgenConfig {
                remote_model: RemoteModelCfg::Congested(crate::remote::FabricParams::infinite()),
                ..base.clone()
            },
            LoadgenConfig {
                arrival: ArrivalProcess::ClosedLoop {
                    sessions: 32,
                    think: Time::from_us(200),
                },
                ..base.clone()
            },
        ];
        for config in configs {
            assert!(!eligible::<NoopProbe>(&config, false, false));
            let seq = Run::new(&config).traced().execute();
            let out = Run::new(&config).traced().shards(8).execute();
            assert_eq!(
                bytes(&out.report, &out.trace),
                bytes(&seq.report, &seq.trace)
            );
        }
    }

    #[test]
    fn shards_clamp_to_the_mesh() {
        // A 1-node mesh cannot split; the builder quietly runs the
        // sequential engine.
        let config = LoadgenConfig {
            mesh: (1, 1, 1),
            ..storm_like(0xC1A3, 2_000)
        };
        let seq = Run::new(&config).execute();
        let out = Run::new(&config).shards(8).execute();
        assert_eq!(
            serde_json::to_string(&out.report).unwrap(),
            serde_json::to_string(&seq.report).unwrap()
        );
    }
}
