//! Per-request latency attribution: the flight-recorder fold.
//!
//! The engine stamps each completed request's lifecycle as a
//! [`StageBreakdown`] — a telescoping decomposition of its end-to-end
//! latency into disjoint stages whose picosecond sums are **exactly**
//! the recorded latency, by construction (each stage is a difference of
//! two event timestamps the engine actually scheduled, so no picosecond
//! is counted twice or dropped). [`AttribFold`] folds those breakdowns
//! into per-tenant × per-node cells and per-tenant tail tables (binned
//! by the same [`LogHistogram`] buckets the report's quantiles use),
//! asserting the exact-sum invariant on every record. The critical-path
//! summarizer ([`AttribFold::tenant_summaries`]) then ranks which stage
//! dominates each tenant's p99 — the "why is the tail what it is"
//! answer the aggregate report cannot give.
//!
//! Everything here is integer arithmetic over picosecond counts; folds
//! of the same request stream are identical byte-for-byte no matter the
//! thread count, exactly like the rest of the probe.

use venice_sim::{LogHistogram, Time};

/// Number of lifecycle stages in a [`StageBreakdown`].
pub const STAGES: usize = 7;

/// Stable stage labels, indexed by the `STAGE_*` constants; the
/// `venice-attrib-v1` artifact and the explain report both use these.
pub const STAGE_LABELS: [&str; STAGES] = [
    "queue_wait",
    "establish_stall",
    "transport",
    "detour",
    "slot_wait",
    "service_local",
    "service_remote",
];

/// Admission-to-dispatch wait in the node's credit backlog (no lease
/// establishment was pending on the node when the request parked).
pub const STAGE_QUEUE_WAIT: usize = 0;
/// The same backlog wait, classified separately when a lease-establish
/// flow was in flight on the serving node while the request parked —
/// latency the tenant paid for elastic memory not being ready yet.
pub const STAGE_ESTABLISH_STALL: usize = 1;
/// Gateway→node QPair message flight time, served on the home node.
pub const STAGE_TRANSPORT: usize = 2;
/// The same message flight time when the request was routed off its
/// home node (locality routing followed a lease; sublease-market and
/// neighbor detours land here).
pub const STAGE_DETOUR: usize = 3;
/// Delivered-to-service wait for a free service slot on the node.
pub const STAGE_SLOT_WAIT: usize = 4;
/// Service time minus the remote-CRMA share: CPU plus local-tier
/// misses (and, for KV, backend-miss queries).
pub const STAGE_SERVICE_LOCAL: usize = 5;
/// The remote-CRMA share of service time: the integer per-mille of the
/// sampled service the compiled model attributes to remote-tier
/// accesses (`CompiledAttrib` in `venice-loadgen`).
pub const STAGE_SERVICE_REMOTE: usize = 6;

/// Admission-shed reason slots for [`AttribFold::on_shed`].
pub const SHED_REASONS: usize = 4;

/// Stable shed-reason labels, indexed by the `SHED_*` constants.
pub const SHED_LABELS: [&str; SHED_REASONS] = ["rate", "overload", "backpressure", "crash"];

/// Shed by the rate policer: the token bucket was empty.
pub const SHED_RATE: u8 = 0;
/// Shed by the (priority-scaled) in-flight cap.
pub const SHED_OVERLOAD: u8 = 1;
/// Dropped because the node's credit backlog overflowed.
pub const SHED_BACKPRESSURE: u8 = 2;
/// Lost to a node crash: the node was down at arrival, or the request
/// sat in its backlog or service slots when it fail-stopped.
pub const SHED_CRASH: u8 = 3;

/// One completed request's latency, decomposed into stages.
///
/// The engine constructs this from event timestamps such that
/// `stage_ps` sums telescope to `total_ps` exactly; [`AttribFold`]
/// asserts that on every record, so a stamping bug fails the run
/// instead of skewing a figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Picoseconds attributed to each stage, indexed by the `STAGE_*`
    /// constants.
    pub stage_ps: [u64; STAGES],
    /// The request's end-to-end latency (completion − arrival), in
    /// picoseconds.
    pub total_ps: u64,
}

impl StageBreakdown {
    /// Sum of the per-stage picoseconds.
    pub fn sum_ps(&self) -> u64 {
        self.stage_ps.iter().sum()
    }

    /// Whether the stages sum exactly to the end-to-end latency.
    pub fn is_exact(&self) -> bool {
        self.sum_ps() == self.total_ps
    }
}

/// Accumulated breakdowns of one (tenant, node) pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttribCell {
    /// Completed requests folded into this cell.
    pub count: u64,
    /// Per-stage picosecond totals.
    pub stage_ps: [u64; STAGES],
    /// Total end-to-end latency picoseconds (equals the stage sum).
    pub total_ps: u64,
}

/// Per-tenant tail table: the tenant's end-to-end histogram plus a
/// per-bucket stage matrix aligned with the histogram's own binning
/// ([`LogHistogram::bucket_of`]), so "the stage composition of requests
/// at or beyond the p99 bucket" is one suffix fold.
#[derive(Debug, Clone)]
struct TenantFold {
    hist: LogHistogram,
    count_by_bucket: Vec<u64>,
    stages_by_bucket: Vec<[u64; STAGES]>,
}

impl TenantFold {
    fn new() -> Self {
        let hist = LogHistogram::new();
        let buckets = hist.bucket_len();
        TenantFold {
            hist,
            count_by_bucket: vec![0; buckets],
            stages_by_bucket: vec![[0; STAGES]; buckets],
        }
    }

    fn record(&mut self, b: &StageBreakdown) {
        let total = Time::from_ps(b.total_ps);
        let idx = self.hist.bucket_of(total);
        self.hist.record(total);
        self.count_by_bucket[idx] += 1;
        for (acc, &ps) in self.stages_by_bucket[idx].iter_mut().zip(&b.stage_ps) {
            *acc += ps;
        }
    }
}

/// Critical-path summary of one tenant: where its p99 comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSummary {
    /// Tenant (mix class) index.
    pub tenant: u16,
    /// Completed requests.
    pub count: u64,
    /// Median end-to-end latency.
    pub p50: Time,
    /// 99th-percentile end-to-end latency.
    pub p99: Time,
    /// Per-stage picosecond totals over all completions.
    pub stage_ps: [u64; STAGES],
    /// Total end-to-end picoseconds over all completions.
    pub total_ps: u64,
    /// Requests in the tail (latency bucket ≥ the p99 bucket).
    pub tail_count: u64,
    /// Per-stage picosecond totals over the tail requests only.
    pub tail_stage_ps: [u64; STAGES],
    /// Sheds by reason (rate, overload, backpressure).
    pub sheds: [u64; SHED_REASONS],
    /// The stage contributing the most time to the tail (index into
    /// [`STAGE_LABELS`]; ties break to the lowest index).
    pub dominant_tail_stage: usize,
}

impl TenantSummary {
    /// Per-mille share of the tail spent in the dominant stage.
    pub fn dominant_share_pm(&self) -> u64 {
        let total: u64 = self.tail_stage_ps.iter().sum();
        crate::permille(self.tail_stage_ps[self.dominant_tail_stage], total)
    }
}

/// Folds [`StageBreakdown`]s into per-tenant × per-node cells, per-
/// tenant tail tables, and per-tenant shed counters, asserting the
/// exact-sum invariant on every record.
#[derive(Debug, Clone, Default)]
pub struct AttribFold {
    /// `cells[tenant][node]`, grown on demand.
    cells: Vec<Vec<AttribCell>>,
    tenants: Vec<TenantFold>,
    sheds: Vec<[u64; SHED_REASONS]>,
    requests: u64,
}

impl AttribFold {
    /// Creates an empty fold.
    pub fn new() -> Self {
        AttribFold::default()
    }

    /// Folds one completed request's breakdown into the `(tenant,
    /// node)` cell and the tenant's tail table.
    ///
    /// # Panics
    ///
    /// Panics if the stages do not sum exactly to `total_ps` — the
    /// exact-sum invariant is the module's contract with the engine's
    /// stage stamps, enforced unconditionally (release builds too).
    pub fn record(&mut self, tenant: u16, node: u16, b: StageBreakdown) {
        assert!(
            b.is_exact(),
            "stage attribution must sum exactly to end-to-end latency: \
             tenant {tenant} node {node} stages {} ps != total {} ps",
            b.sum_ps(),
            b.total_ps
        );
        let t = tenant as usize;
        if self.cells.len() <= t {
            self.cells.resize_with(t + 1, Vec::new);
        }
        let row = &mut self.cells[t];
        if row.len() <= node as usize {
            row.resize_with(node as usize + 1, AttribCell::default);
        }
        let cell = &mut row[node as usize];
        cell.count += 1;
        cell.total_ps += b.total_ps;
        for (acc, &ps) in cell.stage_ps.iter_mut().zip(&b.stage_ps) {
            *acc += ps;
        }
        if self.tenants.len() <= t {
            self.tenants.resize_with(t + 1, TenantFold::new);
        }
        self.tenants[t].record(&b);
        self.requests += 1;
    }

    /// Counts one shed request (`reason` < [`SHED_REASONS`], saturated
    /// into the last slot otherwise).
    pub fn on_shed(&mut self, tenant: u16, reason: u8) {
        let t = tenant as usize;
        if self.sheds.len() <= t {
            self.sheds.resize(t + 1, [0; SHED_REASONS]);
        }
        self.sheds[t][(reason as usize).min(SHED_REASONS - 1)] += 1;
    }

    /// Completed requests folded.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Tenant indices with at least one folded request or shed.
    pub fn tenant_len(&self) -> usize {
        self.cells.len().max(self.sheds.len())
    }

    /// Non-empty cells as `(tenant, node, cell)`, tenant-major.
    pub fn cells(&self) -> impl Iterator<Item = (u16, u16, &AttribCell)> + '_ {
        self.cells.iter().enumerate().flat_map(|(t, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, c)| c.count > 0)
                .map(move |(n, c)| (t as u16, n as u16, c))
        })
    }

    /// Shed counts of `tenant`, by reason.
    pub fn sheds(&self, tenant: u16) -> [u64; SHED_REASONS] {
        self.sheds
            .get(tenant as usize)
            .copied()
            .unwrap_or([0; SHED_REASONS])
    }

    /// The critical-path summary of `tenant`, or `None` when the tenant
    /// completed no requests.
    ///
    /// The tail is every latency bucket at or beyond the bucket holding
    /// the tenant's p99 — at the histogram's resolution, "the slowest
    /// ≈1% of requests" — and the dominant stage is the one with the
    /// largest picosecond total over that tail.
    pub fn tenant_summary(&self, tenant: u16) -> Option<TenantSummary> {
        let fold = self.tenants.get(tenant as usize)?;
        let p99 = fold.hist.quantile(0.99)?;
        let p50 = fold.hist.quantile(0.50).expect("non-empty histogram");
        let tail_from = fold.hist.bucket_of(p99);
        let mut tail_count = 0u64;
        let mut tail_stage_ps = [0u64; STAGES];
        for idx in tail_from..fold.count_by_bucket.len() {
            tail_count += fold.count_by_bucket[idx];
            for (acc, &ps) in tail_stage_ps.iter_mut().zip(&fold.stages_by_bucket[idx]) {
                *acc += ps;
            }
        }
        let mut stage_ps = [0u64; STAGES];
        let mut total_ps = 0u64;
        let mut count = 0u64;
        if let Some(row) = self.cells.get(tenant as usize) {
            for cell in row {
                count += cell.count;
                total_ps += cell.total_ps;
                for (acc, &ps) in stage_ps.iter_mut().zip(&cell.stage_ps) {
                    *acc += ps;
                }
            }
        }
        let dominant_tail_stage = tail_stage_ps
            .iter()
            .enumerate()
            .max_by_key(|&(i, &ps)| (ps, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("STAGES > 0");
        Some(TenantSummary {
            tenant,
            count,
            p50,
            p99,
            stage_ps,
            total_ps,
            tail_count,
            tail_stage_ps,
            sheds: self.sheds(tenant),
            dominant_tail_stage,
        })
    }

    /// Summaries of every tenant that completed at least one request,
    /// in tenant order.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        (0..self.tenants.len() as u16)
            .filter_map(|t| self.tenant_summary(t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(stages: [u64; STAGES]) -> StageBreakdown {
        StageBreakdown {
            stage_ps: stages,
            total_ps: stages.iter().sum(),
        }
    }

    #[test]
    fn exact_sum_violations_panic() {
        let mut fold = AttribFold::new();
        let bad = StageBreakdown {
            stage_ps: [1, 0, 0, 0, 0, 0, 0],
            total_ps: 2,
        };
        assert!(!bad.is_exact());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fold.record(0, 0, bad);
        }));
        assert!(r.is_err(), "inexact breakdown must be rejected");
    }

    #[test]
    fn cells_accumulate_per_tenant_and_node() {
        let mut fold = AttribFold::new();
        fold.record(0, 2, breakdown([10, 0, 5, 0, 0, 85, 0]));
        fold.record(0, 2, breakdown([0, 20, 0, 5, 10, 50, 15]));
        fold.record(1, 0, breakdown([0, 0, 1, 0, 0, 1, 0]));
        fold.on_shed(1, 2);
        assert_eq!(fold.requests(), 3);
        let cells: Vec<_> = fold.cells().collect();
        assert_eq!(cells.len(), 2);
        let (t, n, c) = cells[0];
        assert_eq!((t, n, c.count), (0, 2, 2));
        assert_eq!(c.stage_ps[STAGE_QUEUE_WAIT], 10);
        assert_eq!(c.stage_ps[STAGE_ESTABLISH_STALL], 20);
        assert_eq!(c.total_ps, 200);
        assert_eq!(c.stage_ps.iter().sum::<u64>(), c.total_ps);
        assert_eq!(fold.sheds(1), [0, 0, 1, 0]);
        assert_eq!(fold.sheds(7), [0, 0, 0, 0]);
    }

    #[test]
    fn tail_summary_ranks_the_dominant_stage() {
        let mut fold = AttribFold::new();
        // One fast transport-dominated request, 99 slow remote-dominated
        // ones: the p99 bucket sits in the slow cohort, so the tail fold
        // sees only remote-heavy requests.
        fold.record(0, 0, breakdown([0, 0, 800, 0, 0, 200, 0]));
        for _ in 0..99 {
            fold.record(0, 0, breakdown([0, 0, 0, 0, 0, 200, 1_000_000]));
        }
        let s = fold.tenant_summary(0).expect("tenant 0 completed");
        assert_eq!(s.count, 100);
        assert_eq!(s.tail_count, 99, "tail starts at the p99 bucket");
        assert_eq!(s.dominant_tail_stage, STAGE_SERVICE_REMOTE);
        assert!(s.dominant_share_pm() > 990, "tail is ~100% remote");
        assert_eq!(s.total_ps, 1_000 + 99 * 1_000_200);
        // Aggregate stage totals keep both cohorts' signal.
        assert_eq!(s.stage_ps[STAGE_TRANSPORT], 800);
        assert_eq!(s.stage_ps[STAGE_SERVICE_REMOTE], 99 * 1_000_000);
        assert!(s.p50 >= Time::from_ps(1_000_000));
        assert!(s.p99 >= s.p50);
        assert_eq!(fold.tenant_summaries().len(), 1);
    }

    #[test]
    fn summary_is_none_without_completions() {
        let mut fold = AttribFold::new();
        fold.on_shed(0, 0);
        assert!(fold.tenant_summary(0).is_none());
        assert!(fold.tenant_summaries().is_empty());
    }
}
