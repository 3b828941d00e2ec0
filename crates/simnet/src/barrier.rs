//! Window barriers for the engine driver's worker threads.
//!
//! The conservative-PDES driver meets one barrier per lookahead
//! window, so barrier latency is a first-order cost once windows get
//! cheap. Two implementations live here:
//!
//! * a flat sense-reversing barrier with an *adaptive* spin budget —
//!   it spins roughly as long as recent inter-barrier gaps were short,
//!   and falls back to `yield_now` otherwise, so it is fast on
//!   dedicated cores yet degrades gracefully when threads
//!   oversubscribe the host (e.g. single-core CI containers);
//! * a combining-tree barrier (arity 4) that turns the O(n) line of
//!   CAS traffic on one cache line into O(n / arity) lines per level,
//!   selected automatically for high thread counts.
//!
//! Neither variant ever reads simulated state: a barrier only affects
//! *when* host threads proceed, never *what* they compute, so the
//! event schedule is bit-identical whichever barrier (or spin budget)
//! is in effect.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Spin budget bounds for the adaptive flat barrier. The budget walks
/// between these in response to whether recent waits resolved within
/// the spin phase (cheap) or had to yield (oversubscribed host).
const SPIN_MIN: u32 = 32;
const SPIN_MAX: u32 = 4096;

/// Thread-count threshold above which the combining tree wins: below
/// it the flat barrier's single-line protocol is cheaper.
const TREE_THRESHOLD: usize = 8;

/// Flat sense-reversing barrier with an adaptive spin budget.
pub(crate) struct FlatBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    /// Current spin budget; adapted by waiters with relaxed stores —
    /// an occasionally-stale budget only mis-tunes the waiting, never
    /// the work.
    spins: AtomicU32,
}

impl FlatBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            spins: AtomicU32::new(128),
        }
    }

    fn wait(&self, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        if self.count.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
            self.count.store(0, Ordering::SeqCst);
            self.sense.store(*local_sense, Ordering::SeqCst);
            return;
        }
        let budget = self.spins.load(Ordering::Relaxed);
        let mut spins = 0u32;
        let mut yielded = false;
        while self.sense.load(Ordering::SeqCst) != *local_sense {
            spins += 1;
            if spins > budget {
                yielded = true;
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Adapt: releases that resolved while spinning earn a bigger
        // budget (windows are short, keep cores hot); releases that
        // had to yield shrink it (oversubscribed, stop burning cycles).
        let next = if yielded {
            (budget / 2).max(SPIN_MIN)
        } else {
            (budget.saturating_mul(2)).min(SPIN_MAX)
        };
        if next != budget {
            self.spins.store(next, Ordering::Relaxed);
        }
    }
}

/// One node of the combining tree: children check in, the last one up
/// propagates, and the release wave rides a per-node sense flag down.
struct TreeNode {
    fan_in: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    parent: Option<usize>,
}

/// Combining-tree sense-reversing barrier (arity 4).
pub(crate) struct TreeBarrier {
    nodes: Vec<TreeNode>,
    /// Leaf node index per participant.
    leaf_of: Vec<usize>,
}

const TREE_ARITY: usize = 4;

impl TreeBarrier {
    fn new(n: usize) -> Self {
        // Build bottom-up: level 0 has ceil(n / arity) nodes fed by
        // the participants, each higher level combines arity nodes of
        // the one below, until a single root remains.
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut level: Vec<usize> = Vec::new(); // node ids of current level
        let mut leaf_of = vec![0usize; n];
        let n_leaves = n.div_ceil(TREE_ARITY);
        for leaf in 0..n_leaves {
            let lo = leaf * TREE_ARITY;
            let hi = ((leaf + 1) * TREE_ARITY).min(n);
            for slot in &mut leaf_of[lo..hi] {
                *slot = nodes.len();
            }
            level.push(nodes.len());
            nodes.push(TreeNode {
                fan_in: hi - lo,
                count: AtomicUsize::new(0),
                sense: AtomicBool::new(false),
                parent: None,
            });
        }
        while level.len() > 1 {
            let mut next: Vec<usize> = Vec::new();
            for chunk in level.chunks(TREE_ARITY) {
                let id = nodes.len();
                for &c in chunk {
                    nodes[c].parent = Some(id);
                }
                next.push(id);
                nodes.push(TreeNode {
                    fan_in: chunk.len(),
                    count: AtomicUsize::new(0),
                    sense: AtomicBool::new(false),
                    parent: None,
                });
            }
            level = next;
        }
        Self { nodes, leaf_of }
    }

    fn wait(&self, tid: usize, local_sense: &mut bool) {
        *local_sense = !*local_sense;
        // Ascend: the last arrival at each node carries the signal up.
        let mut node = self.leaf_of[tid];
        loop {
            let nd = &self.nodes[node];
            if nd.count.fetch_add(1, Ordering::SeqCst) + 1 == nd.fan_in {
                match nd.parent {
                    Some(p) => {
                        node = p;
                        continue;
                    }
                    None => {
                        // Root: release everyone, top-down, by flipping
                        // every node's sense (release wave).
                        for nd in self.nodes.iter().rev() {
                            nd.count.store(0, Ordering::SeqCst);
                            nd.sense.store(*local_sense, Ordering::SeqCst);
                        }
                        return;
                    }
                }
            } else {
                break;
            }
        }
        // Spin on the leaf this participant checked in at.
        let leaf = &self.nodes[self.leaf_of[tid]];
        let mut spins = 0u32;
        while leaf.sense.load(Ordering::SeqCst) != *local_sense {
            spins += 1;
            if spins > 256 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// The driver-facing barrier: flat for small thread counts, combining
/// tree for large ones. Each participant keeps a `bool` sense token
/// across calls (start at `false`).
pub(crate) enum WindowBarrier {
    /// Flat sense-reversing barrier (small `n`).
    Flat(FlatBarrier),
    /// Combining tree (large `n`).
    Tree(TreeBarrier),
}

impl WindowBarrier {
    /// Barrier for `n` participants; picks the cheaper shape for `n`.
    pub(crate) fn new(n: usize) -> Self {
        if n >= TREE_THRESHOLD {
            WindowBarrier::Tree(TreeBarrier::new(n))
        } else {
            WindowBarrier::Flat(FlatBarrier::new(n))
        }
    }

    /// Block until all `n` participants have called `wait`.
    /// `tid` is the caller's stable participant index.
    pub(crate) fn wait(&self, tid: usize, local_sense: &mut bool) {
        match self {
            WindowBarrier::Flat(b) => b.wait(local_sense),
            WindowBarrier::Tree(b) => b.wait(tid, local_sense),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn exercise(n: usize, rounds: u64) {
        let barrier = WindowBarrier::new(n);
        let hits = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for tid in 0..n {
                let barrier = &barrier;
                let hits = &hits;
                scope.spawn(move || {
                    let mut sense = false;
                    for round in 0..rounds {
                        hits.fetch_add(1, Ordering::SeqCst);
                        barrier.wait(tid, &mut sense);
                        // After round k's barrier every thread has
                        // contributed its increment for round k.
                        let seen = hits.load(Ordering::SeqCst);
                        assert!(seen >= (round + 1) * n as u64);
                        assert!(seen < (round + 2) * n as u64);
                        barrier.wait(tid, &mut sense);
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), rounds * n as u64);
    }

    #[test]
    fn flat_barrier_synchronizes() {
        exercise(3, 200);
    }

    #[test]
    fn tree_barrier_synchronizes() {
        exercise(9, 200);
    }

    #[test]
    fn tree_shape_is_used_above_threshold() {
        assert!(matches!(WindowBarrier::new(2), WindowBarrier::Flat(_)));
        assert!(matches!(
            WindowBarrier::new(TREE_THRESHOLD),
            WindowBarrier::Tree(_)
        ));
    }
}
