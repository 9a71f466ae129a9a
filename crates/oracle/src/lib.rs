#![warn(missing_docs)]

//! # venice-oracle: frozen reference implementations
//!
//! The workspace's hot paths all run on the typed event core
//! ([`venice_sim::SimEvent`] over [`venice_sim::Kernel`]). This
//! unpublished crate keeps the code that core replaced, unchanged, so
//! tests can differentially test against it and benches can time it:
//!
//! * [`boxed`] — the seed boxed-closure kernel and its `BinaryHeap`
//!   event queue;
//! * [`legacy`] — the seed traffic engine running on [`boxed`].
//!
//! Only tests and benches depend on this crate, and only as a
//! dev-dependency: `venice-loadgen`'s integration tests
//! (`prop_typed_vs_legacy` and the conformance harness's legacy leg)
//! and `venice-bench`'s Criterion pair `loadgen_storm_typed` /
//! `loadgen_storm_legacy`. No crate lists it under `[dependencies]`; CI
//! checks that.

pub mod boxed;
pub mod legacy;

#[cfg(test)]
mod tests {
    use venice_sim::{Kernel, Scheduler, SimEvent, Time};

    /// A chain of `left` unit bumps, `gap` apart.
    struct Chain {
        left: u32,
        gap: Time,
    }

    impl SimEvent<u32> for Chain {
        fn fire(self, n: &mut u32, s: &mut Scheduler<u32, Chain>) {
            *n += 1;
            if self.left > 1 {
                s.schedule_event_in(
                    self.gap,
                    Chain {
                        left: self.left - 1,
                        gap: self.gap,
                    },
                );
            }
        }
    }

    #[test]
    fn typed_and_closure_kernels_agree() {
        // The same chain model through the typed kernel and the frozen
        // boxed-closure kernel lands on identical state, clock, and
        // executed-event counts.
        let mut typed: Kernel<u32, Chain> = Kernel::new(0);
        typed.schedule_event(
            Time::ZERO,
            Chain {
                left: 100,
                gap: Time::from_ns(7),
            },
        );
        typed.run();

        let mut boxed = crate::boxed::Kernel::new(0u32);
        fn chain(n: &mut u32, s: &mut crate::boxed::Scheduler<u32>) {
            *n += 1;
            if *n < 100 {
                s.schedule_in(Time::from_ns(7), chain);
            }
        }
        boxed.schedule(Time::ZERO, chain);
        boxed.run();

        assert_eq!(typed.state(), boxed.state());
        assert_eq!(typed.now(), boxed.now());
        assert_eq!(typed.executed(), boxed.executed());
    }
}
