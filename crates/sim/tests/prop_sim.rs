//! Property tests for the simulation kernel's invariants.

use proptest::prelude::*;
use venice_sim::{EventQueue, Kernel, Scheduler, SimEvent, Time, TokenBucket};

/// Logs its own delay (in ns) when it fires.
struct Logged(u64);

impl SimEvent<Vec<u64>> for Logged {
    fn fire(self, log: &mut Vec<u64>, _: &mut Scheduler<Vec<u64>, Logged>) {
        log.push(self.0);
    }
}

proptest! {
    /// The event queue pops in nondecreasing time order, and equal
    /// timestamps pop in insertion order.
    #[test]
    fn event_queue_is_stable_and_sorted(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_ns(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    /// Running a kernel executes every scheduled event exactly once and
    /// the clock ends at the latest event time.
    #[test]
    fn kernel_executes_everything(delays in prop::collection::vec(1u64..10_000, 1..100)) {
        let mut k: Kernel<Vec<u64>, Logged> = Kernel::new(Vec::new());
        let max = *delays.iter().max().unwrap();
        for &d in &delays {
            k.schedule_event(Time::from_ns(d), Logged(d));
        }
        let end = k.run();
        prop_assert_eq!(k.state().len(), delays.len());
        prop_assert_eq!(end, Time::from_ns(max));
        prop_assert_eq!(k.pending(), 0);
    }

    /// A token bucket never admits traffic faster than its configured
    /// rate over any window starting from a drained state.
    #[test]
    fn token_bucket_enforces_rate(
        rate in 1.0f64..40.0,
        burst in 64u64..4096,
        sizes in prop::collection::vec(1u64..2048, 1..100),
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut now = Time::ZERO;
        let mut sent = 0u64;
        for &s in &sizes {
            now = tb.reserve(now, s);
            sent += s;
        }
        if now > Time::ZERO {
            // Bytes admitted beyond the initial burst must fit the rate.
            let max_bytes = burst as f64 + rate * 0.125e9 * now.as_secs_f64() + 1.0;
            prop_assert!(
                (sent as f64) <= max_bytes + sizes.last().copied().unwrap() as f64,
                "sent {sent} in {now}, cap {max_bytes}"
            );
        }
    }

    /// Time arithmetic round-trips through unit conversions.
    #[test]
    fn time_conversions_consistent(ns in 0u64..u64::MAX / 2_000) {
        let t = Time::from_ns(ns);
        prop_assert_eq!(t.as_ns(), ns);
        prop_assert_eq!(Time::from_ps(t.as_ps()), t);
        prop_assert!(t.as_secs_f64() >= 0.0);
    }

    /// Saturating subtraction never underflows and ordinary addition is
    /// monotone.
    #[test]
    fn time_ordering(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let ta = Time::from_ns(a);
        let tb = Time::from_ns(b);
        prop_assert!(ta + tb >= ta);
        prop_assert!(ta.saturating_sub(tb) <= ta);
        if a >= b {
            prop_assert_eq!(ta.saturating_sub(tb) + tb, ta);
        }
    }
}
