//! Deterministic fault injection: the chaos analog of
//! [`crate::remote::RemoteModel`].
//!
//! The engine is generic over a [`FaultModel`] exactly like it is over
//! [`venice_telemetry::Probe`] and [`RemoteModel`]: [`NoFaults`] has
//! `ENABLED = false` and empty hook bodies, so every fault guard
//! monomorphizes away and the default entry points stay
//! instruction-for-instruction identical to the pre-chaos engine — the
//! frozen baseline holds by construction, which the `no_faults_identity`
//! property test pins down. [`FaultPlan`] arms the chaos path: an
//! explicit, validated schedule of [`FaultEvent`]s compiled into a
//! sorted timeline of atomic [`FaultTransition`]s that the engine
//! drains through its `FaultTick` event. The plan carries no RNG of its
//! own — a plan is plain data, so the same plan against the same seed
//! replays the same run bit for bit, and property tests can *generate*
//! plans from a proptest seed and still get deterministic replay.
//!
//! [`RemoteModel`]: crate::remote::RemoteModel

use venice_sim::Time;

/// One injected fault, as the experimenter writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// `node` fail-stops at `at` and reboots empty at `recover_at`:
    /// its backlog and in-service requests are shed, its leases fail
    /// over, and routing steers around it for the whole outage.
    NodeCrash {
        /// The node that fail-stops.
        node: u16,
        /// Crash instant.
        at: Time,
        /// Reboot instant (must be after `at`).
        recover_at: Time,
    },
    /// The `a`↔`b` cable drops at `at` and carries nothing for
    /// `duration`: the congested fabric recompiles paths around it
    /// (both directions) and restores the original routes when it
    /// comes back.
    LinkFlap {
        /// One cable endpoint.
        a: u16,
        /// The other endpoint (must be a mesh neighbor of `a`).
        b: u16,
        /// Flap instant.
        at: Time,
        /// Outage length (must be positive).
        duration: Time,
    },
    /// From `at` on, the `a`↔`b` cable drops `per_mille`/1000 of its
    /// frames in each direction: the congested fabric charges go-back-N
    /// retransmit serialization for every byte crossing it. A later
    /// `PacketLoss` on the same cable replaces the rate; rate 0 heals
    /// the link.
    PacketLoss {
        /// One cable endpoint.
        a: u16,
        /// The other endpoint (must be a mesh neighbor of `a`).
        b: u16,
        /// Onset instant.
        at: Time,
        /// Loss rate in per-mille (0..=1000).
        per_mille: u16,
    },
}

/// One atomic state change compiled from a [`FaultEvent`] — what the
/// engine's `FaultTick` actually applies. A `NodeCrash` compiles to a
/// `NodeDown`/`NodeUp` pair, a `LinkFlap` to `LinkDown`/`LinkUp`, a
/// `PacketLoss` to a single `Loss` edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTransition {
    /// `node` fail-stops now.
    NodeDown(u16),
    /// `node` reboots (empty) now.
    NodeUp(u16),
    /// The `a`↔`b` cable goes dark (both directions).
    LinkDown(u16, u16),
    /// The `a`↔`b` cable comes back.
    LinkUp(u16, u16),
    /// The `a`↔`b` cable starts dropping `per_mille`/1000 of frames.
    Loss(u16, u16, u16),
}

impl FaultTransition {
    /// The instant-ordering tiebreak rank: at one instant, recoveries
    /// land before failures so a zero-gap recover/re-crash of the same
    /// node nets to "down", and link healing precedes link cutting for
    /// the same reason.
    fn rank(self) -> u8 {
        match self {
            FaultTransition::NodeUp(_) | FaultTransition::LinkUp(..) => 0,
            FaultTransition::Loss(..) => 1,
            FaultTransition::NodeDown(_) | FaultTransition::LinkDown(..) => 2,
        }
    }
}

/// Engine hook surface for fault injection, mirroring
/// [`crate::remote::RemoteModel`]: `ENABLED = false` compiles every
/// guard away; the enabled implementation is a drained transition
/// timeline plus live node-liveness state.
pub trait FaultModel {
    /// Whether faults participate at all. `false` removes every hook
    /// site at monomorphization time.
    const ENABLED: bool;

    /// Sizes liveness state and validates node ids against the mesh.
    /// Called once at engine setup, before any event fires.
    fn init(&mut self, nodes: u16) {
        let _ = nodes;
    }

    /// Whether `node` is currently serving (routing, admission, and
    /// donor placement all consult this).
    fn node_up(&self, node: u16) -> bool {
        let _ = node;
        true
    }

    /// The instant of the next unapplied transition, if any — where the
    /// engine schedules its next `FaultTick`.
    fn next_at(&self) -> Option<Time> {
        None
    }

    /// Pops the next transition due at or before `now`, updating the
    /// model's liveness state; `None` once everything due has been
    /// drained.
    fn pop_due(&mut self, now: Time) -> Option<FaultTransition> {
        let _ = now;
        None
    }

    /// Total transitions in the schedule (each fires at most one
    /// `FaultTick`), for the engine's runaway guard.
    fn transitions(&self) -> u64 {
        0
    }
}

/// The no-chaos model: every hook is a no-op and `ENABLED` is `false`,
/// so the engine monomorphizes to exactly its pre-fault hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    const ENABLED: bool = false;
}

/// A validated, compiled fault schedule — plain data, fully determined
/// by its events, so a `(seed, plan)` pair replays bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The schedule as written (kept for display and round-tripping).
    events: Vec<FaultEvent>,
    /// The compiled transition timeline, sorted by `(time, rank,
    /// input order)`.
    transitions: Vec<(Time, FaultTransition)>,
    /// Drain cursor into `transitions`.
    cursor: usize,
    /// Per-node liveness, sized by [`FaultModel::init`].
    down: Vec<bool>,
}

impl FaultPlan {
    /// Compiles `events` into a transition timeline.
    ///
    /// # Panics
    ///
    /// Panics if a crash recovers at or before its onset, a flap has
    /// zero duration, a loss rate exceeds 1000 ‰, or a link names the
    /// same node twice.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        let mut transitions = Vec::with_capacity(events.len() * 2);
        for &event in &events {
            match event {
                FaultEvent::NodeCrash {
                    node,
                    at,
                    recover_at,
                } => {
                    assert!(
                        recover_at > at,
                        "node {node} must recover strictly after it crashes"
                    );
                    transitions.push((at, FaultTransition::NodeDown(node)));
                    transitions.push((recover_at, FaultTransition::NodeUp(node)));
                }
                FaultEvent::LinkFlap { a, b, at, duration } => {
                    assert!(a != b, "a link joins two distinct nodes");
                    assert!(duration > Time::ZERO, "a flap must have positive duration");
                    transitions.push((at, FaultTransition::LinkDown(a, b)));
                    transitions.push((at + duration, FaultTransition::LinkUp(a, b)));
                }
                FaultEvent::PacketLoss {
                    a,
                    b,
                    at,
                    per_mille,
                } => {
                    assert!(a != b, "a link joins two distinct nodes");
                    assert!(per_mille <= 1000, "loss rate is at most 1000 per mille");
                    transitions.push((at, FaultTransition::Loss(a, b, per_mille)));
                }
            }
        }
        // Stable sort: same-instant transitions keep input order within
        // one rank, so a plan is its own tiebreak authority.
        transitions.sort_by_key(|&(at, tr)| (at, tr.rank()));
        FaultPlan {
            events,
            transitions,
            cursor: 0,
            down: Vec::new(),
        }
    }

    /// The schedule as written.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Total crashes in the plan (the fault-span budget).
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FaultEvent::NodeCrash { .. }))
            .count()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }
}

impl FaultModel for FaultPlan {
    const ENABLED: bool = true;

    fn init(&mut self, nodes: u16) {
        let check = |id: u16| {
            assert!(
                id < nodes,
                "fault plan names node {id} but the mesh has {nodes} nodes"
            );
        };
        for &(_, tr) in &self.transitions {
            match tr {
                FaultTransition::NodeDown(n) | FaultTransition::NodeUp(n) => check(n),
                FaultTransition::LinkDown(a, b)
                | FaultTransition::LinkUp(a, b)
                | FaultTransition::Loss(a, b, _) => {
                    check(a);
                    check(b);
                }
            }
        }
        self.down = vec![false; nodes as usize];
        self.cursor = 0;
    }

    fn node_up(&self, node: u16) -> bool {
        !self.down.get(node as usize).copied().unwrap_or(false)
    }

    fn next_at(&self) -> Option<Time> {
        self.transitions.get(self.cursor).map(|&(at, _)| at)
    }

    fn pop_due(&mut self, now: Time) -> Option<FaultTransition> {
        let &(at, tr) = self.transitions.get(self.cursor)?;
        if at > now {
            return None;
        }
        self.cursor += 1;
        match tr {
            FaultTransition::NodeDown(n) => self.down[n as usize] = true,
            FaultTransition::NodeUp(n) => self.down[n as usize] = false,
            _ => {}
        }
        Some(tr)
    }

    fn transitions(&self) -> u64 {
        self.transitions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_crash_compiles_to_an_ordered_down_up_pair() {
        let mut plan = FaultPlan::new(vec![FaultEvent::NodeCrash {
            node: 3,
            at: Time::from_ms(10),
            recover_at: Time::from_ms(30),
        }]);
        plan.init(8);
        assert!(plan.node_up(3));
        assert_eq!(plan.next_at(), Some(Time::from_ms(10)));
        assert_eq!(
            plan.pop_due(Time::from_ms(10)),
            Some(FaultTransition::NodeDown(3))
        );
        assert!(!plan.node_up(3));
        // The recovery is scheduled but not yet due.
        assert_eq!(plan.pop_due(Time::from_ms(10)), None);
        assert_eq!(plan.next_at(), Some(Time::from_ms(30)));
        assert_eq!(
            plan.pop_due(Time::from_ms(30)),
            Some(FaultTransition::NodeUp(3))
        );
        assert!(plan.node_up(3));
        assert_eq!(plan.next_at(), None);
    }

    #[test]
    fn same_instant_recovery_lands_before_the_next_crash() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent::NodeCrash {
                node: 1,
                at: Time::from_ms(5),
                recover_at: Time::from_ms(20),
            },
            FaultEvent::NodeCrash {
                node: 1,
                at: Time::from_ms(20),
                recover_at: Time::from_ms(40),
            },
        ]);
        plan.init(4);
        assert_eq!(
            plan.pop_due(Time::from_ms(20)),
            Some(FaultTransition::NodeDown(1))
        );
        // At t=20 the Up (rank 0) drains before the second Down (rank 2),
        // so the node nets to down.
        assert_eq!(
            plan.pop_due(Time::from_ms(20)),
            Some(FaultTransition::NodeUp(1))
        );
        assert_eq!(
            plan.pop_due(Time::from_ms(20)),
            Some(FaultTransition::NodeDown(1))
        );
        assert!(!plan.node_up(1));
    }

    #[test]
    fn flaps_and_loss_compile_and_validate() {
        let plan = FaultPlan::new(vec![
            FaultEvent::LinkFlap {
                a: 0,
                b: 1,
                at: Time::from_ms(1),
                duration: Time::from_ms(4),
            },
            FaultEvent::PacketLoss {
                a: 2,
                b: 3,
                at: Time::from_ms(2),
                per_mille: 50,
            },
        ]);
        assert_eq!(plan.crash_count(), 0);
        assert!(!plan.is_empty());
        assert_eq!(plan.events().len(), 2);
    }

    #[test]
    #[should_panic(expected = "recover strictly after")]
    fn a_crash_that_never_recovers_later_is_rejected() {
        FaultPlan::new(vec![FaultEvent::NodeCrash {
            node: 0,
            at: Time::from_ms(5),
            recover_at: Time::from_ms(5),
        }]);
    }

    #[test]
    #[should_panic(expected = "names node 9")]
    fn init_rejects_out_of_mesh_nodes() {
        let mut plan = FaultPlan::new(vec![FaultEvent::NodeCrash {
            node: 9,
            at: Time::from_ms(1),
            recover_at: Time::from_ms(2),
        }]);
        plan.init(8);
    }
}
