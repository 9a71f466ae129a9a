//! Per-layer host cost: a self-time probe over the engine's event
//! handlers, and timed calls into each layer's public functions with
//! inputs built from the workload's own configuration.
//!
//! All timing lives here, outside the simulator: the probe only reads
//! the host clock inside hooks the engine already exposes, and the
//! microbenchmarks drive fresh instances of each layer, never the
//! instances inside a run.

use std::hint::black_box;
use std::time::Instant;

use venice::cluster::Cluster;
use venice_fabric::{Mesh3d, NodeId, PathTable};
use venice_lease::{LeaseManager, NodeSignal};
use venice_loadgen::admission::{AdmissionControl, Decision};
use venice_loadgen::arrival::exponential;
use venice_loadgen::faults::FaultModel;
use venice_loadgen::remote::{CongestedFabric, RemoteModel, RemoteModelCfg, ScalarCrma};
use venice_loadgen::tenants::{CompiledService, NodeModel};
use venice_loadgen::{FaultEvent, LoadgenConfig};
use venice_sim::{EventQueue, LogHistogram, SimRng, Time};
use venice_telemetry::probe::EVENT_KIND_SLOTS;
use venice_telemetry::Probe;
use venice_transport::{QpairConfig, QueuePair};

use crate::workload::Job;

/// Probe slot that fused arrivals are charged to (the engine's own
/// kinds use the low slots).
pub const FUSED_SLOT: usize = EVENT_KIND_SLOTS - 1;

/// Engine event kinds reported per layer: `(metric name, probe slot)`.
/// Slots follow `venice_loadgen::telemetry::EVENT_KIND_LABELS`.
pub const ENGINE_KINDS: [(&str, usize); 7] = [
    ("arrival", 0),
    ("fused-arrival", FUSED_SLOT),
    ("finish", 3),
    ("lease-tick", 4),
    ("lease-established", 5),
    ("revoke-torndown", 6),
    ("fault-tick", 7),
];

/// Host self time per engine event kind. Each hook stamps the host
/// clock and charges the time since the previous stamp to the previous
/// event's kind, so a kind's total is the time its handler ran. Time
/// before the first event (setup) and after the last (report assembly)
/// is not charged.
#[derive(Debug, Clone, Default)]
pub struct SelfTimeProbe {
    last: Option<(usize, Instant)>,
    /// Nanoseconds charged per kind slot.
    pub ns: [u64; EVENT_KIND_SLOTS],
    /// Events seen per kind slot.
    pub count: [u64; EVENT_KIND_SLOTS],
}

impl SelfTimeProbe {
    fn stamp(&mut self, slot: usize) {
        let now = Instant::now();
        if let Some((prev, at)) = self.last {
            self.ns[prev] += (now - at).as_nanos() as u64;
        }
        self.count[slot] += 1;
        self.last = Some((slot, now));
    }

    /// Folds another run's totals into this one.
    pub fn absorb(&mut self, other: &SelfTimeProbe) {
        for slot in 0..EVENT_KIND_SLOTS {
            self.ns[slot] += other.ns[slot];
            self.count[slot] += other.count[slot];
        }
    }
}

impl Probe for SelfTimeProbe {
    const ENABLED: bool = true;

    fn on_event(&mut self, kind: u8, _now: Time) {
        self.stamp(kind as usize);
    }

    fn on_fused_arrival(&mut self, _now: Time) {
        self.stamp(FUSED_SLOT);
    }
}

/// Host cost of one call into each layer, in nanoseconds per operation
/// (setup costs in seconds), summed or averaged over a workload's jobs
/// as each field states.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// Event-queue push plus pop at the workload's peak depth.
    pub queue_push_pop_ns: f64,
    /// Interarrival gap draw.
    pub gap_ns: f64,
    /// Zipf user draw.
    pub user_ns: f64,
    /// Weighted tenant-class draw.
    pub class_ns: f64,
    /// Compiled service-time draw.
    pub service_ns: f64,
    /// Per-node admission decision (with the matching completion).
    pub admission_ns: f64,
    /// QPair post, drain and credit return.
    pub qpair_ns: f64,
    /// Latency histogram record.
    pub stats_record_ns: f64,
    /// Remote-model dispatch charge under the workload's remote model.
    pub remote_charge_ns: f64,
    /// Placement check under the workload's remote model.
    pub remote_donor_ok_ns: f64,
    /// Lease-manager control tick (0 on workloads without leases).
    pub lease_tick_ns: f64,
    /// Fault-model `pop_due` poll (0 on workloads without fault plans).
    pub fault_pop_due_ns: f64,
    /// `Cluster::mesh` construction, summed over the jobs, seconds.
    pub cluster_mesh_s: f64,
    /// Fabric path-table compilation, summed over the jobs, seconds.
    pub paths_compile_s: f64,
}

/// Operations per timed batch.
const BATCH: usize = 4_096;
/// Timed batches per layer; the median batch is reported.
const BATCHES: usize = 25;
/// Repetitions of the setup-cost timings; the median is reported.
const SETUP_REPS: usize = 9;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median nanoseconds per operation of `op` over [`BATCHES`] batches of
/// [`BATCH`] calls, after one untimed warm-up batch. `op` receives the
/// call index.
fn ns_per_op(mut op: impl FnMut(usize)) -> f64 {
    for i in 0..BATCH {
        op(i);
    }
    let samples = (0..BATCHES)
        .map(|b| {
            let start = Instant::now();
            for i in 0..BATCH {
                op(b * BATCH + i);
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(samples)
}

/// Median wall seconds of `f` over [`SETUP_REPS`] calls.
fn setup_seconds<T>(mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..SETUP_REPS)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// The node model a configuration's static tier compiles services
/// against: the engine's 100 ns local miss, the full remote tier held,
/// at a representative measured CRMA latency.
fn node_model(config: &LoadgenConfig) -> NodeModel {
    NodeModel {
        remote_miss: Time::from_ns(700),
        remote_bytes: config.remote_memory_per_node,
        full_bytes: config.remote_memory_per_node,
        ..NodeModel::local_only(Time::from_ns(100))
    }
}

/// A cycle of `n` precomputed values, so timed loops do not also time
/// the generator.
fn table<T>(n: usize, f: impl FnMut(usize) -> T) -> Vec<T> {
    (0..n).map(f).collect()
}

/// Times every layer's public functions with inputs built from `jobs`'
/// configurations. Per-operation costs are averaged over the jobs
/// (each job weighted equally); setup costs are summed, matching how
/// the end-to-end `setup_s` sums them. `peak_depth` sizes the event
/// queue benchmark.
pub fn measure(jobs: &[Job], peak_depth: usize, seed: u64) -> LayerCosts {
    let mut acc = LayerCosts::default();
    for job in jobs {
        let c = measure_job(job, peak_depth, seed);
        acc.queue_push_pop_ns += c.queue_push_pop_ns;
        acc.gap_ns += c.gap_ns;
        acc.user_ns += c.user_ns;
        acc.class_ns += c.class_ns;
        acc.service_ns += c.service_ns;
        acc.admission_ns += c.admission_ns;
        acc.qpair_ns += c.qpair_ns;
        acc.stats_record_ns += c.stats_record_ns;
        acc.remote_charge_ns += c.remote_charge_ns;
        acc.remote_donor_ok_ns += c.remote_donor_ok_ns;
        acc.lease_tick_ns += c.lease_tick_ns;
        acc.fault_pop_due_ns += c.fault_pop_due_ns;
        acc.cluster_mesh_s += c.cluster_mesh_s;
        acc.paths_compile_s += c.paths_compile_s;
    }
    let n = jobs.len() as f64;
    for v in [
        &mut acc.queue_push_pop_ns,
        &mut acc.gap_ns,
        &mut acc.user_ns,
        &mut acc.class_ns,
        &mut acc.service_ns,
        &mut acc.admission_ns,
        &mut acc.qpair_ns,
        &mut acc.stats_record_ns,
        &mut acc.remote_charge_ns,
        &mut acc.remote_donor_ok_ns,
        &mut acc.lease_tick_ns,
        &mut acc.fault_pop_due_ns,
    ] {
        *v /= n;
    }
    acc
}

fn measure_job(job: &Job, peak_depth: usize, seed: u64) -> LayerCosts {
    let config = &job.config;
    let mut rng = SimRng::seed(seed ^ 0xB00C_4A5E);
    let classes = &config.mix.classes;
    let model = node_model(config);
    let services: Vec<CompiledService> =
        classes.iter().map(|c| c.profile.compile(&model)).collect();
    let weights = config.mix.weights();
    let weight_total: f64 = weights.iter().sum();
    let zipf = config.mix.user_sampler();
    let rate = config
        .arrival
        .rate_at(Time::ZERO)
        .expect("benchmark workloads are open-loop");
    let gap_mean = Time::from_secs_f64(1.0 / rate);
    let nodes = config.nodes();
    let (dx, dy, dz) = config.mesh;

    // Inputs shared by several layers: service times (queue offsets,
    // histogram samples), classes and gaps, cycled from tables.
    let service_table = table(BATCH, |i| services[i % services.len()].sample(&mut rng));
    let class_table = table(BATCH, |_| {
        rng.weighted_index_with_total(&weights, weight_total)
    });
    let gap_table = table(BATCH, |_| exponential(&mut rng, gap_mean));
    let cycle = |i: usize| i % BATCH;

    let mut c = LayerCosts::default();

    // sim: event-queue push + pop at the run's peak depth, offsets drawn
    // from the workload's service distribution.
    let mut queue = EventQueue::new();
    let mut now = Time::ZERO;
    for i in 0..peak_depth.max(1) {
        queue.push(service_table[cycle(i)], i as u32);
    }
    c.queue_push_pop_ns = ns_per_op(|i| {
        let (at, ev) = queue.pop().expect("queue stays at depth");
        now = at;
        queue.push(now + service_table[cycle(i)], black_box(ev));
    });

    // loadgen.arrival / loadgen.tenants: the four per-request draws.
    c.gap_ns = ns_per_op(|_| {
        black_box(exponential(&mut rng, gap_mean));
    });
    c.user_ns = ns_per_op(|_| {
        black_box(zipf.sample(&mut rng));
    });
    c.class_ns = ns_per_op(|_| {
        black_box(rng.weighted_index_with_total(&weights, weight_total));
    });
    c.service_ns = ns_per_op(|i| {
        black_box(services[class_table[cycle(i)]].sample(&mut rng));
    });

    // loadgen.admission: one node's controller, each admit closed by a
    // completion so the in-flight count stays at its steady level.
    let mut admission = AdmissionControl::per_node(config.admission, nodes as u32);
    let mut at = Time::ZERO;
    c.admission_ns = ns_per_op(|i| {
        at += gap_table[cycle(i)];
        let class = class_table[cycle(i)];
        if admission.on_arrival(at, classes[class].priority, false) == Decision::Admit {
            admission.on_completion();
        }
    });

    // transport.qpair: gateway-to-node post, drain and credit return.
    let mut qp = QueuePair::new(NodeId(0), NodeId(1), QpairConfig::on_chip());
    let req_bytes: Vec<u64> = classes.iter().map(|c| c.profile.request_bytes()).collect();
    c.qpair_ns = ns_per_op(|i| {
        let ok = qp.post_send(req_bytes[class_table[cycle(i)]]).is_ok();
        if ok {
            black_box(qp.drain_one());
            qp.credit_update(1);
        }
    });

    // sim.stats: one latency sample into the log histogram.
    let mut hist = LogHistogram::new();
    c.stats_record_ns = ns_per_op(|i| hist.record(service_table[cycle(i)]));
    black_box(hist.count());

    // loadgen.remote + fabric: the workload's own remote model.
    match &config.remote_model {
        RemoteModelCfg::Congested(params) => {
            let wire = classes
                .iter()
                .map(|c| c.profile.remote_wire_bytes())
                .collect();
            let mut fabric = CongestedFabric::new(params.clone(), config.mesh, wire);
            for node in 0..nodes as usize {
                fabric.set_route(node, Some(((node + 1) % nodes as usize) as u16));
            }
            let (charge, donor_ok) = time_remote(&mut fabric, nodes, &gap_table, &class_table);
            c.remote_charge_ns = charge;
            c.remote_donor_ok_ns = donor_ok;
        }
        RemoteModelCfg::Scalar => {
            let (charge, donor_ok) = time_remote(&mut ScalarCrma, nodes, &gap_table, &class_table);
            c.remote_charge_ns = charge;
            c.remote_donor_ok_ns = donor_ok;
        }
    }

    // lease: the manager's control tick over per-node depth signals
    // sweeping through its watermark band. Actions are not confirmed,
    // so the manager's chunk state stays at the bootstrap level.
    if let Some(lease) = config.lease {
        let mut manager = LeaseManager::with_quotas(lease, nodes, config.mix.quotas());
        let span = (lease.high_watermark * 2).max(2);
        let depths = table(BATCH, |_| rng.gen_range(0..span));
        let mut signals = vec![NodeSignal::depth(0); nodes as usize];
        let mut tick_at = Time::ZERO;
        c.lease_tick_ns = ns_per_op(|i| {
            for (n, s) in signals.iter_mut().enumerate() {
                s.depth = depths[cycle(i * 7 + n)];
            }
            tick_at += lease.tick_interval;
            black_box(manager.tick(tick_at, &signals));
        });
    }

    // loadgen.faults: polls of the plan's transition timeline at
    // instants sweeping past every transition, re-armed each pass.
    if let Some(plan) = &job.faults {
        let horizon = plan
            .events()
            .iter()
            .map(|e| match *e {
                FaultEvent::NodeCrash { recover_at, .. } => recover_at,
                FaultEvent::LinkFlap { at, duration, .. } => at + duration,
                FaultEvent::PacketLoss { at, .. } => at,
            })
            .max()
            .unwrap_or(Time::ZERO)
            + Time::from_ms(1);
        const POLLS: u64 = 64;
        let mut model = plan.clone();
        model.init(nodes);
        c.fault_pop_due_ns = ns_per_op(|i| {
            let k = i as u64 % POLLS;
            if k == 0 {
                model.init(nodes);
            }
            black_box(model.pop_due(horizon / POLLS * k));
        });
    }

    // core.cluster / fabric: the fixed per-run setup costs.
    c.cluster_mesh_s = setup_seconds(|| Cluster::mesh(dx, dy, dz, 1 << 30, 512 << 20));
    c.paths_compile_s = setup_seconds(|| PathTable::compile(&Mesh3d::new(dx, dy, dz)));
    c
}

/// Times `charge` and `donor_ok` on `model` over every node, with the
/// clock advancing by the workload's own interarrival gaps.
fn time_remote<M: RemoteModel>(
    model: &mut M,
    nodes: u16,
    gaps: &[Time],
    classes: &[usize],
) -> (f64, f64) {
    let n = nodes as usize;
    let mut now = Time::ZERO;
    let charge = ns_per_op(|i| {
        now += gaps[i % gaps.len()];
        black_box(model.charge(now, i % n, classes[i % classes.len()]));
    });
    let donor_ok = ns_per_op(|i| {
        black_box(model.donor_ok(now, (i % n) as u16, ((i / n + 1 + i) % n) as u16));
    });
    (charge, donor_ok)
}
