//! Indexed, insertion-stable priority queue of timestamped events.
//!
//! Four representation choices keep the hot path allocation-free and
//! cache-friendly:
//!
//! * **Stability.** `std::collections::BinaryHeap` is not stable for
//!   equal keys, but a deterministic simulator must pop same-timestamp
//!   events in insertion order — otherwise two runs with the same seed
//!   can diverge. Every entry carries a monotonically increasing
//!   sequence number that breaks ties, making `(at, seq)` a *total*
//!   order: any correct heap pops the exact same sequence.
//! * **Indexing.** Events live in a slab (a `Vec` with a LIFO free
//!   list) and never move after insertion; the heap itself is an
//!   implicit **4-ary heap of small fixed-size keys**. Sifts shuffle
//!   keys instead of fat event payloads, and freed slots are reused so
//!   a steady-state simulation stops allocating entirely.
//! * **Packed comparisons.** The `(at, seq)` pair is packed into one
//!   `u128` (`at` picoseconds in the high half, `seq` in the low), so a
//!   sift comparison is a single integer compare, and the sift-down
//!   picks the minimum of a full 4-child group with a pairwise
//!   min-tree (three data-independent compares) instead of a serial
//!   dependent scan. Measured on the loadgen storm's queue depths this
//!   is what makes the 4-ary shape actually pay: the naive serial scan
//!   was slower than a binary `BinaryHeap`, the pairwise variant is
//!   ~25% faster.
//! * **A near buffer.** The soonest few entries live outside the heap
//!   in a tiny insertion-sorted buffer, so short-horizon event chains
//!   (open-loop arrivals, sub-gap completions) circulate without ever
//!   paying a sift — see the block comment on the struct.
//!
//! The queue also tracks its high-water mark ([`EventQueue::peak_len`])
//! so a benchmark can report peak event-queue depth without sampling.

use crate::time::Time;

/// Heap arity: each node has up to four children, selected pairwise.
const ARITY: usize = 4;

/// Everything a sift comparison or a pop needs, kept small so heap
/// operations never touch the event slab.
#[derive(Clone, Copy)]
struct Key {
    /// `(at_ps << 64) | seq`: one compare orders by time, then
    /// insertion.
    packed: u128,
    /// Index of the event in the slab.
    slot: u32,
}

impl Key {
    #[inline]
    fn pack(at: Time, seq: u64) -> u128 {
        ((at.as_ps() as u128) << 64) | seq as u128
    }

    #[inline]
    fn at(&self) -> Time {
        Time::from_ps((self.packed >> 64) as u64)
    }
}

/// Capacity of the near buffer: big enough to absorb the engine's
/// "next few microseconds" of traffic (an arrival plus the short
/// completions racing it), small enough that an insertion shift is a
/// single cache line's worth of moves.
const NEAR_CAP: usize = 16;

/// Passive work counters of one [`EventQueue`], exposed for telemetry.
///
/// These are cheap whole-operation counters (one increment per push or
/// pop, the same cost class as the existing peak-depth tracking), **not**
/// per-sift-step instrumentation — the queue's hot loops are untouched.
/// They answer the profile questions the near-buffer design raises: how
/// much traffic circulates sift-free through the buffer versus paying a
/// real heap sift, and how often the buffer spills.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes absorbed by the near buffer (no heap sift on entry).
    pub near_hits: u64,
    /// Pushes that went straight into the heap (one sift-up each).
    pub heap_pushes: u64,
    /// Near-buffer overflows: the buffer's largest entry was spilled
    /// into the heap (one sift-up each, on top of `heap_pushes`).
    pub near_spills: u64,
    /// Pops served from the near buffer (no sift).
    pub near_pops: u64,
    /// Pops served from the heap (one sift-down each).
    pub heap_pops: u64,
}

impl QueueStats {
    /// Total sift operations performed (heap pushes + spills + heap
    /// pops) — the work the near buffer exists to avoid.
    pub fn sifts(&self) -> u64 {
        self.heap_pushes + self.near_spills + self.heap_pops
    }

    /// Total pops served.
    pub fn pops(&self) -> u64 {
        self.near_pops + self.heap_pops
    }

    /// Total pushes accepted (near-buffer entries + direct heap
    /// entries). Equal to [`pops`](Self::pops) once a queue drains.
    pub fn pushes(&self) -> u64 {
        self.near_hits + self.heap_pushes
    }

    /// Folds another queue's counters into this one, field by field.
    ///
    /// This is how a sharded run reports queue traffic: each sub-kernel
    /// owns a private [`EventQueue`], and the per-shard counters are
    /// plain sums, so merging them preserves every conservation law the
    /// single-queue counters satisfy (`pushes == pops` on drained
    /// queues, `near_spills <= near_hits`). The merge is commutative
    /// and associative — the merged totals cannot depend on shard
    /// count or merge order.
    pub fn absorb(&mut self, other: QueueStats) {
        self.near_hits += other.near_hits;
        self.heap_pushes += other.heap_pushes;
        self.near_spills += other.near_spills;
        self.near_pops += other.near_pops;
        self.heap_pops += other.heap_pops;
    }
}

/// A time-ordered, insertion-stable event queue.
///
/// # Example
///
/// ```
/// use venice_sim::{EventQueue, Time};
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(10), "b");
/// q.push(Time::from_ns(5), "a");
/// q.push(Time::from_ns(10), "c");
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "a")));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "b")));
/// assert_eq!(q.pop(), Some((Time::from_ns(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// The soonest few entries, kept sorted (descending, minimum last)
    /// outside the heap — see below.
    near: Vec<(Key, E)>,
    /// Implicit 4-ary min-heap of keys (root at index 0).
    heap: Vec<Key>,
    /// Event storage; keys point into this and events never move.
    slab: Vec<Option<E>>,
    /// Freed slab indices, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
    peak: usize,
    stats: QueueStats,
}

// # The near buffer
//
// `near` is a tiny insertion-sorted buffer holding up to [`NEAR_CAP`]
// entries; a push that beats the buffer's largest key slots in with a
// short shift (spilling the largest into the heap if full), and a pop
// takes the buffer's minimum or the heap root, whichever is smaller.
// Correctness is immediate — every comparison uses the same total-order
// packed key, so the pop sequence is identical to a plain heap's — but
// the work changes shape: event chains that schedule into the next few
// microseconds (the loadgen arrival process, and short service
// completions racing it) circulate entirely through the buffer, and the
// full sift-down a plain heap would run on every such pop disappears.
// Only far-future events (long service tails, lease flows) pay heap
// sifts, and those are a minority of the traffic.

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            near: Vec::with_capacity(NEAR_CAP + 1),
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            peak: 0,
            stats: QueueStats::default(),
        }
    }

    /// Inserts `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the queue would exceed `u32::MAX - 1` pending events.
    pub fn push(&mut self, at: Time, event: E) {
        let packed = Key::pack(at, self.next_seq);
        self.next_seq += 1;
        let key = Key {
            packed,
            slot: u32::MAX,
        };
        // Only an event that beats the buffer's current maximum may
        // enter it (or any event while it is empty): the buffer
        // converges on the genuinely-soonest entries instead of echoing
        // far-future completions through an insert-then-spill cycle.
        if self.near.is_empty() || packed < self.near[0].0.packed {
            // Into the sorted buffer (descending; minimum at the end).
            let pos = self.near.partition_point(|(k, _)| k.packed > packed);
            self.near.insert(pos, (key, event));
            self.stats.near_hits += 1;
            if self.near.len() > NEAR_CAP {
                // Spill the buffer's largest into the heap.
                let (k, e) = self.near.remove(0);
                self.heap_push(k.packed, e);
                self.stats.near_spills += 1;
            }
        } else {
            self.heap_push(packed, event);
            self.stats.heap_pushes += 1;
        }
        let pending = self.heap.len() + self.near.len();
        if pending > self.peak {
            self.peak = pending;
        }
    }

    /// Pushes an entry into the heap proper (slab + sift).
    fn heap_push(&mut self, packed: u128, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event queue slab overflow");
                self.slab.push(Some(event));
                slot
            }
        };
        self.heap.push(Key { packed, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, breaking timestamp ties in
    /// insertion order.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match (self.near.last(), self.heap.first()) {
            (Some((nk, _)), Some(root)) if root.packed < nk.packed => {
                self.stats.heap_pops += 1;
                self.heap_pop()
            }
            (Some(_), _) => {
                let (key, event) = self.near.pop().expect("checked occupied");
                self.stats.near_pops += 1;
                Some((key.at(), event))
            }
            (None, Some(_)) => {
                self.stats.heap_pops += 1;
                self.heap_pop()
            }
            (None, None) => None,
        }
    }

    /// Pops the heap's root entry.
    fn heap_pop(&mut self) -> Option<(Time, E)> {
        let root = *self.heap.first()?;
        let last = self.heap.pop().expect("peeked entry vanished");
        if !self.heap.is_empty() {
            self.sift_down_from_root(last);
        }
        let event = self.slab[root.slot as usize]
            .take()
            .expect("heap key points at a free slot");
        self.free.push(root.slot);
        Some((root.at(), event))
    }

    /// The packed key of the earliest entry.
    #[inline]
    fn min_packed(&self) -> Option<u128> {
        match (self.near.last(), self.heap.first()) {
            (Some((nk, _)), Some(root)) => Some(nk.packed.min(root.packed)),
            (Some((nk, _)), None) => Some(nk.packed),
            (None, Some(root)) => Some(root.packed),
            (None, None) => None,
        }
    }

    /// Removes and returns the earliest event **iff** its timestamp does
    /// not exceed `horizon`. One key access serves both the horizon
    /// check and the pop — the kernel's hot loop, fused.
    pub fn pop_at_or_before(&mut self, horizon: Time) -> Option<(Time, E)> {
        if (self.min_packed()? >> 64) as u64 > horizon.as_ps() {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.min_packed()
            .map(|packed| Time::from_ps((packed >> 64) as u64))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.near.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.heap.is_empty()
    }

    /// High-water mark of [`len`](Self::len) over the queue's lifetime
    /// (peak event-queue depth; not reset by [`clear`](Self::clear)).
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Work counters accumulated over the queue's lifetime (near-buffer
    /// hits, heap sifts, spills; not reset by [`clear`](Self::clear)).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Live slab occupancy as `(live, capacity)`: events currently
    /// resident in the heap slab, and the slab's high-water footprint
    /// (allocated entries, free or live).
    pub fn slab_occupancy(&self) -> (usize, usize) {
        (self.slab.len() - self.free.len(), self.slab.len())
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.near.clear();
        self.heap.clear();
        self.slab.clear();
        self.free.clear();
    }

    /// Restores the heap property upward from `i` after a push.
    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key.packed < self.heap[parent].packed {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = key;
    }

    /// Re-sinks `key` from the root after a pop (hole technique: the
    /// displaced key is written exactly once, at its final position).
    /// Full 4-child groups — the overwhelmingly common case away from
    /// the heap's last level — pick their minimum with a pairwise
    /// min-tree of three data-independent compares.
    #[inline]
    fn sift_down_from_root(&mut self, key: Key) {
        let len = self.heap.len();
        let mut i = 0usize;
        loop {
            let first = i * ARITY + 1;
            if first + ARITY <= len {
                let c = &self.heap[first..first + ARITY];
                let (a, ka) = if c[0].packed < c[1].packed {
                    (first, c[0].packed)
                } else {
                    (first + 1, c[1].packed)
                };
                let (b, kb) = if c[2].packed < c[3].packed {
                    (first + 2, c[2].packed)
                } else {
                    (first + 3, c[3].packed)
                };
                let (best, best_k) = if ka < kb { (a, ka) } else { (b, kb) };
                if best_k < key.packed {
                    self.heap[i] = self.heap[best];
                    i = best;
                    continue;
                }
                break;
            }
            if first >= len {
                break;
            }
            // Partial last group: serial scan over what exists.
            let mut best = first;
            let mut best_k = self.heap[first].packed;
            for child in first + 1..len {
                let k = self.heap[child].packed;
                if k < best_k {
                    best = child;
                    best_k = k;
                }
            }
            if best_k < key.packed {
                self.heap[i] = self.heap[best];
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = key;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("peak", &self.peak)
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), 3);
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_ns(5), ());
        q.push(Time::from_ns(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(10), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(Time::from_ns(10), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.push(Time::from_ns(round * 100 + i), round * 8 + i);
            }
            for i in 0..8u64 {
                assert_eq!(q.pop().unwrap().1, round * 8 + i);
            }
        }
        // Steady-state churn never grows the slab past its high-water
        // occupancy.
        assert!(q.slab.len() <= 8, "slab grew to {}", q.slab.len());
        assert_eq!(q.peak_len(), 8);
    }

    #[test]
    fn matches_reference_model_on_random_interleaving() {
        // A deterministic xorshift drives a random push/pop interleaving
        // with dense timestamp ties; every pop must return exactly what a
        // naive min-by-(time, insertion-index) reference model returns.
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q = EventQueue::new();
        let mut pending: Vec<(u64, u64)> = Vec::new(); // (at_ns, seq)
        let mut seq = 0u64;
        let pop_and_check = |q: &mut EventQueue<u64>, pending: &mut Vec<(u64, u64)>| {
            let (at, got) = q.pop().unwrap();
            let min = pending
                .iter()
                .enumerate()
                .min_by_key(|&(_, p)| p)
                .map(|(i, _)| i)
                .unwrap();
            let expect = pending.remove(min);
            assert_eq!((at.as_ns(), got), expect);
        };
        for _ in 0..4_000 {
            if step() % 3 != 0 || pending.is_empty() {
                let at = step() % 64;
                q.push(Time::from_ns(at), seq);
                pending.push((at, seq));
                seq += 1;
            } else {
                pop_and_check(&mut q, &mut pending);
            }
        }
        while !pending.is_empty() {
            pop_and_check(&mut q, &mut pending);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Time::from_ns(i), i);
        }
        for _ in 0..10 {
            q.pop();
        }
        q.push(Time::from_ns(1), 1);
        assert_eq!(q.peak_len(), 10);
    }

    #[test]
    fn stats_split_near_buffer_and_heap_traffic() {
        let mut q = EventQueue::new();
        // Descending pushes each beat the buffer's max, so a short chain
        // circulates entirely through the near buffer.
        for i in (0..8u64).rev() {
            q.push(Time::from_ns(i), i);
        }
        for _ in 0..8 {
            q.pop();
        }
        let s = q.stats();
        assert_eq!(s.near_hits, 8);
        assert_eq!(s.near_pops, 8);
        assert_eq!(s.heap_pushes, 0);
        assert_eq!(s.heap_pops, 0);
        assert_eq!(s.sifts(), 0, "short chains must be sift-free");
        assert_eq!(s.pops(), 8);

        // Push far-future events behind a near-buffer occupant: they go
        // straight to the heap and pop through it.
        q.push(Time::from_ns(10), 0);
        for i in 0..4u64 {
            q.push(Time::from_ns(1_000 + i), i);
        }
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.heap_pushes, 4);
        assert_eq!(s.heap_pops, 4);
        assert_eq!(s.pops(), 13);
    }

    #[test]
    fn stats_count_near_spills() {
        let mut q = EventQueue::new();
        // Descending pushes all enter the near buffer; once it is full,
        // every further push spills the buffer's largest into the heap.
        for i in (0..NEAR_CAP as u64 + 5).rev() {
            q.push(Time::from_ns(i), i);
        }
        let s = q.stats();
        assert_eq!(s.near_hits, NEAR_CAP as u64 + 5);
        assert_eq!(s.near_spills, 5);
        // Everything still pops in time order.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..NEAR_CAP as u64 + 5).collect::<Vec<_>>());
    }

    #[test]
    fn slab_occupancy_tracks_live_heap_entries() {
        let mut q = EventQueue::new();
        assert_eq!(q.slab_occupancy(), (0, 0));
        q.push(Time::from_ns(1), 1u64); // near buffer: no slab entry
        assert_eq!(q.slab_occupancy(), (0, 0));
        q.push(Time::from_ns(100), 2);
        q.push(Time::from_ns(200), 3);
        assert_eq!(q.slab_occupancy(), (2, 2));
        q.pop();
        q.pop();
        // One live heap entry; the freed slot stays allocated.
        assert_eq!(q.slab_occupancy(), (1, 2));
    }

    #[test]
    fn max_time_events_survive_packing() {
        // Time::MAX in the packed key's high half must not collide with
        // or overflow earlier keys.
        let mut q = EventQueue::new();
        q.push(Time::MAX, "late");
        q.push(Time::ZERO, "early");
        q.push(Time::MAX, "later");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    /// Drives `q` with a deterministic workload over `events` pushes,
    /// interleaving pops, and returns the drained pop sequence.
    fn drive(q: &mut EventQueue<u64>, items: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (i, &(at, v)) in items.iter().enumerate() {
            q.push(Time::from_ns(at), v);
            // Interleave pops so the near buffer and heap both see
            // mid-stream traffic, not just a bulk drain.
            if i % 3 == 2 {
                out.extend(q.pop().map(|(t, v)| (t.as_ns(), v)));
            }
        }
        while let Some((t, v)) = q.pop() {
            out.push((t.as_ns(), v));
        }
        out
    }

    #[test]
    fn partitioned_queues_merge_into_consistent_stats() {
        // The sharded-kernel shape: one logical workload split across
        // two sub-kernel queues by node parity. The merged QueueStats
        // must satisfy exactly the conservation laws a single queue
        // satisfies, and the merge must be order-independent.
        let items: Vec<(u64, u64)> = (0..200u64)
            .map(|i| ((i * 37) % 512 + (i % 7) * 900, i))
            .collect();
        let mut whole = EventQueue::new();
        let whole_pops = drive(&mut whole, &items);
        assert_eq!(whole_pops.len(), items.len());

        let left: Vec<(u64, u64)> = items.iter().copied().filter(|(_, v)| v % 2 == 0).collect();
        let right: Vec<(u64, u64)> = items.iter().copied().filter(|(_, v)| v % 2 == 1).collect();
        let (mut qa, mut qb) = (EventQueue::new(), EventQueue::new());
        let pops_a = drive(&mut qa, &left);
        let pops_b = drive(&mut qb, &right);
        assert_eq!(pops_a.len() + pops_b.len(), items.len());

        let mut merged = qa.stats();
        merged.absorb(qb.stats());
        let mut flipped = qb.stats();
        flipped.absorb(qa.stats());
        assert_eq!(merged, flipped, "absorb must be commutative");
        // Conservation: every push is either a near hit or a heap push,
        // every pop near or heap, drained queues pop what they pushed,
        // and spills never exceed near entries — for the merged stats
        // exactly as for the whole-workload queue's.
        for stats in [whole.stats(), merged] {
            assert_eq!(stats.pushes(), items.len() as u64);
            assert_eq!(stats.pops(), items.len() as u64);
            assert_eq!(stats.pushes(), stats.near_hits + stats.heap_pushes);
            assert_eq!(stats.pops(), stats.near_pops + stats.heap_pops);
            assert!(stats.near_spills <= stats.near_hits);
        }
        // Merged slab occupancy: both drained, so zero live entries and
        // a capacity that is the sum of the per-queue footprints.
        let (live_a, cap_a) = qa.slab_occupancy();
        let (live_b, cap_b) = qb.slab_occupancy();
        assert_eq!(live_a + live_b, 0);
        assert!(cap_a + cap_b <= whole.slab_occupancy().1 + items.len());
    }
}
