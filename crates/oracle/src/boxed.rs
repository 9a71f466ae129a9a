//! The original boxed-closure event core, preserved as the measured
//! performance baseline.
//!
//! This module is the PR 1–3 kernel and queue, frozen: events are
//! heap-allocated `Box<dyn FnOnce>` closures and the queue is a
//! `BinaryHeap` whose sifts shuffle fat `(Time, seq, Box)` entries. The
//! typed event core in [`venice_sim::kernel`]/[`venice_sim::queue`] replaced it on
//! every hot path, but it stays in-tree for two jobs:
//!
//! * **Perf baseline.** The `loadgen_storm_legacy` Criterion bench in
//!   `venice-bench` drives the legacy loadgen engine on this kernel next
//!   to `loadgen_storm_typed` on the same storm configuration, so the
//!   typed core's speedup is measured against the real predecessor, not
//!   a strawman.
//! * **Differential oracle.** The typed engine must produce bit-identical
//!   traces and reports to the engine running on this module (property
//!   tested and gated in CI); any behavioral drift in the rewrite shows
//!   up as a diff against code that has not changed.
//!
//! Do not build new simulations on this module — implement
//! [`venice_sim::SimEvent`] instead.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use venice_sim::Time;

/// A scheduled closure event.
pub type Event<S> = Box<dyn FnOnce(&mut S, &mut Scheduler<S>)>;

/// Clock plus pending-event queue; handed to every event so it can
/// schedule follow-ups.
pub struct Scheduler<S> {
    now: Time,
    queue: EventQueue<Event<S>>,
    executed: u64,
    /// Hard cap on executed events; guards against runaway models.
    event_limit: u64,
    /// Stop the run loop once the clock passes this point.
    horizon: Time,
}

impl<S> Scheduler<S> {
    fn new() -> Self {
        Scheduler {
            now: Time::ZERO,
            queue: EventQueue::new(),
            executed: 0,
            event_limit: u64::MAX,
            horizon: Time::MAX,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: Time, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        let at = self
            .now
            .checked_add(delay)
            .expect("simulated time overflow");
        self.queue.push(at, Box::new(f));
    }

    /// Schedules `f` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (events may not run
    /// in the past).
    pub fn schedule_at<F>(&mut self, at: Time, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, Box::new(f));
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<S> std::fmt::Debug for Scheduler<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("boxed::Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

/// The boxed-closure discrete-event simulation: user state plus the
/// event loop.
///
/// # Example
///
/// ```
/// use venice_oracle::boxed::Kernel;
/// use venice_sim::Time;
/// let mut k = Kernel::new(0u32);
/// k.schedule(Time::from_ns(1), |n: &mut u32, _| *n += 1);
/// k.run();
/// assert_eq!(*k.state(), 1);
/// ```
pub struct Kernel<S> {
    state: S,
    sched: Scheduler<S>,
}

impl<S> Kernel<S> {
    /// Creates a kernel at time zero over `state`.
    pub fn new(state: S) -> Self {
        Kernel {
            state,
            sched: Scheduler::new(),
        }
    }

    /// Caps the number of events a `run` may execute. Exceeding the cap
    /// panics, which turns accidental event storms into loud failures.
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.sched.event_limit = limit;
        self
    }

    /// Stops the run loop once the clock would pass `horizon`; pending
    /// later events are left in the queue.
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.sched.horizon = horizon;
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Shared access to the user state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the user state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the kernel, returning the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules `f` to run `delay` after the current time.
    pub fn schedule<F>(&mut self, delay: Time, f: F)
    where
        F: FnOnce(&mut S, &mut Scheduler<S>) + 'static,
    {
        self.sched.schedule_in(delay, f);
    }

    /// Runs until the queue is empty (or the horizon/event limit is hit).
    /// Returns the final simulated time.
    ///
    /// # Panics
    ///
    /// Panics if the configured event limit is exceeded.
    pub fn run(&mut self) -> Time {
        while self.step() {}
        self.sched.now
    }

    /// Executes a single event. Returns `false` when the queue is empty or
    /// the next event lies beyond the horizon.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.peek_time() {
            None => false,
            Some(at) if at > self.sched.horizon => false,
            Some(_) => {
                let (at, event) = self.sched.queue.pop().expect("peeked entry vanished");
                self.sched.now = at;
                self.sched.executed += 1;
                assert!(
                    self.sched.executed <= self.sched.event_limit,
                    "event limit exceeded at {at}: runaway simulation?"
                );
                event(&mut self.state, &mut self.sched);
                true
            }
        }
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.sched.executed()
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for Kernel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("boxed::Kernel")
            .field("now", &self.sched.now)
            .field("pending", &self.sched.pending())
            .field("state", &self.state)
            .finish()
    }
}

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest
        // sequence number) entry is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original fat-entry event queue: a `BinaryHeap` whose entries carry
/// the event payload inline, paired with a sequence number for insertion
/// stability.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Inserts `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, breaking timestamp ties in
    /// insertion order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("boxed::EventQueue")
            .field("len", &self.heap.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order_with_stable_ties() {
        let mut k = Kernel::new(Vec::new());
        k.schedule(Time::from_ns(30), |v: &mut Vec<u32>, _| v.push(3));
        k.schedule(Time::from_ns(10), |v: &mut Vec<u32>, _| v.push(1));
        k.schedule(Time::from_ns(10), |v: &mut Vec<u32>, _| v.push(2));
        let end = k.run();
        assert_eq!(k.state(), &vec![1, 2, 3]);
        assert_eq!(end, Time::from_ns(30));
        assert_eq!(k.executed(), 3);
    }

    #[test]
    fn queue_ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_runaways() {
        let mut k = Kernel::new(()).with_event_limit(100);
        fn forever(_: &mut (), s: &mut Scheduler<()>) {
            s.schedule_in(Time::from_ns(1), forever);
        }
        k.schedule(Time::ZERO, forever);
        k.run();
    }
}
