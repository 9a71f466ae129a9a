//! Deterministic node partitioning for sharded simulation.
//!
//! A sharded run splits the simulated world into per-node-group
//! sub-simulations that execute on worker threads. This module holds the
//! shard-agnostic ingredient every such driver needs — the
//! [`partition`] of node ids into contiguous groups — so work
//! assignment depends only on the node and shard counts, never on
//! thread count or timing.

use std::ops::Range;

/// Splits node ids `0..nodes` into `shards` contiguous, near-even
/// ranges, earlier ranges taking the remainder. The split depends only
/// on `(nodes, shards)` — never on thread count or timing — so a
/// sharded run's work assignment is deterministic by construction.
///
/// `shards` is clamped to `1..=nodes`: asking for more shards than
/// nodes yields one node per shard, and zero shards means one.
///
/// # Panics
///
/// Panics if `nodes` is zero — an empty world cannot be partitioned.
pub fn partition(nodes: u16, shards: usize) -> Vec<Range<u16>> {
    assert!(nodes > 0, "cannot partition an empty node set");
    let shards = shards.clamp(1, nodes as usize) as u16;
    let base = nodes / shards;
    let rem = nodes % shards;
    let mut out = Vec::with_capacity(shards as usize);
    let mut start = 0u16;
    for i in 0..shards {
        let len = base + u16::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, nodes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_exhaustive_and_near_even() {
        for nodes in [1u16, 2, 7, 8, 16, 63] {
            for shards in [1usize, 2, 3, 4, 8, 100] {
                let ranges = partition(nodes, shards);
                assert_eq!(ranges.len(), shards.clamp(1, nodes as usize));
                // Contiguous and exhaustive.
                let mut next = 0u16;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, nodes);
                // Near-even: lengths differ by at most one.
                let lens: Vec<u16> = ranges.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "{nodes} nodes / {shards} shards: {lens:?}");
            }
        }
    }

    #[test]
    fn partition_clamps_degenerate_shard_counts() {
        assert_eq!(partition(4, 0), vec![0..4]);
        assert_eq!(partition(3, 8), vec![0..1, 1..2, 2..3]);
    }
}
