//! Fusion generation (Algorithm 2, Section 5.1).
//!
//! Given the original machines (as closed partitions of `⊤`) and the number
//! of crash faults `f` to tolerate, [`generate_fusion`] produces the
//! smallest set of backup machines `F` such that `dmin(A ∪ F) > f`.
//!
//! The algorithm adds one machine per iteration of the outer loop.  Each
//! machine starts as `⊤` (which always increases `dmin` by one) and is then
//! pushed as far down the closed partition lattice as possible: it moves to
//! a lower-cover machine as long as that machine still *covers* (separates)
//! every weakest edge of the current fault graph, i.e. as long as adding it
//! would still increase `dmin` (the test on line 6 of Algorithm 2).  The
//! descent stops at a machine none of whose lower covers keeps that
//! property; that machine is added to the fusion set.
//!
//! The same fusion tolerates `f` crash faults or `⌊f/2⌋` Byzantine faults
//! (Theorem 2).
//!
//! ## Sessions
//!
//! The free functions here are thin shims kept for compatibility: each call
//! builds a throwaway [`crate::FusionSession`] (environment snapshot,
//! closure cache disabled), so they pay kernel construction and scratch
//! warm-up every time.  Callers that generate more than one fusion — `f`
//! sweeps, table rows, evolving machine sets — should hold a
//! [`crate::FusionSession`] built from a [`crate::FusionConfig`] instead:
//! it owns the kernel, the scratch and a cross-call closure cache, and
//! is pinned bit-identical to these shims by
//! `tests/session_properties.rs`.

use std::time::Instant;

use fsm_dfsm::{Dfsm, ReachableProduct};

use crate::bitset::{words_for, BitsetPartition, WORD_BITS};
use crate::closed::quotient_machine;
use crate::closed::{CloseScratch, ClosureKernel};
use crate::config::{CachePolicy, FusionConfig};
use crate::error::{FusionError, Result};
use crate::fault_graph::FaultGraph;
use crate::partition::Partition;
use crate::session::{cached_close, ClosureCache};
use crate::set_repr::projection_partitions;

/// Statistics about a run of Algorithm 2.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationStats {
    /// `dmin` of the original machine set before any backup was added.
    pub initial_dmin: u32,
    /// `dmin` of the system after adding the generated fusion.
    pub final_dmin: u32,
    /// Number of outer-loop iterations (= number of machines generated).
    pub outer_iterations: usize,
    /// Number of lattice-descent steps taken across all iterations.
    pub descent_steps: usize,
    /// Number of candidate lower-cover machines examined.
    pub candidates_examined: usize,
    /// Wall-clock time of the generation, in microseconds.
    pub elapsed_micros: u128,
}

/// The result of fusion generation: backup machines both as partitions of
/// `⊤` and as materialized DFSMs, plus statistics.
#[derive(Debug, Clone)]
pub struct FusionGeneration {
    /// The fusion machines as closed partitions of `⊤`.
    pub partitions: Vec<Partition>,
    /// The fusion machines as DFSMs (quotients of `⊤`).
    pub machines: Vec<Dfsm>,
    /// Statistics about the generation run.
    pub stats: GenerationStats,
}

impl FusionGeneration {
    /// Number of backup machines generated (`m`).
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// Whether no backup machines were needed (the original set was already
    /// fault tolerant enough).
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Sizes of the generated machines (number of states of each).
    pub fn machine_sizes(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.num_blocks()).collect()
    }

    /// The state space of the fusion backup, `∏ |Fi|` (the quantity the
    /// paper's results table reports as |Fusion|).
    pub fn state_space(&self) -> u128 {
        self.partitions
            .iter()
            .map(|p| p.num_blocks() as u128)
            .product()
    }
}

/// Algorithm 2 over partitions: generates the smallest set of closed
/// partitions `F` of `top` such that `dmin(originals ∪ F) > f`.
///
/// A thin shim over a throwaway [`crate::FusionSession`] with the
/// environment-snapshot config ([`crate::FusionConfig::from_env`]) and the
/// closure cache disabled.  It produces the same fusion as
/// [`generate_fusion_seq`]; repeated callers should hold a session instead
/// (see the [module docs](self)).
pub fn generate_fusion(top: &Dfsm, originals: &[Partition], f: usize) -> Result<FusionGeneration> {
    FusionConfig::from_env()
        .cache(CachePolicy::Disabled)
        .build()
        .generate_fusion(top, originals, f)
}

/// The sequential Algorithm 2 engine.
///
/// The candidate-scoring loop runs through a [`ClosureKernel`] built once
/// per call (flat transition tables, map-free closure fixpoints), and
/// `dmin` and the weakest edges come from a bit-sliced sweep over the
/// machines' block rows (`WeakestSweep`), so no `O(|⊤|²)` fault graph is
/// ever built; the pre-refactor element-scan version is preserved as
/// [`crate::reference::generate_fusion_scan`].
///
/// The descent inner loop is **allocation-free**: one [`CloseScratch`], one
/// reusable candidate `Partition` and one `PairBits` pre-filter bitmap are
/// threaded through every candidate merge of the whole search
/// (`tests/alloc_free.rs` pins this with a counting allocator).  A
/// block-level pre-filter — a merge of the two blocks joined by a weakest
/// edge can never cover that edge, whatever the closure adds — skips
/// provably failing candidates before their closure fixpoint runs.  After
/// the first candidate of a level that passes the filter and still fails,
/// the filter is propagated back through the quotient of the current
/// machine, so it also skips every merge whose closure is forced to merge
/// a filtered pair.  The [`GenerationStats`] counters stay identical to
/// the unfiltered loop.
///
/// Every original must partition the `top.size()` states of `top`;
/// otherwise the call fails with [`FusionError::InvalidPartition`].
pub fn generate_fusion_seq(
    top: &Dfsm,
    originals: &[Partition],
    f: usize,
) -> Result<FusionGeneration> {
    seq_engine(
        top,
        &ClosureKernel::new(top),
        originals,
        f,
        &mut CloseScratch::new(),
        &mut DoomedPairs::default(),
        &mut WeakestSweep::default(),
        None,
    )
}

/// The sequential engine body: the greedy descent against a caller-owned
/// kernel, scratch buffers and (optionally) closure cache.
/// [`generate_fusion_seq`] passes fresh buffers and no cache;
/// [`crate::FusionSession`] threads its own through, so repeated searches
/// reuse warm buffers and cached closures.  A cache hit replaces the
/// closure fixpoint with one buffer copy and never changes the result or
/// the statistics.
#[allow(clippy::too_many_arguments)] // one slot per session-owned buffer
pub(crate) fn seq_engine(
    top: &Dfsm,
    kernel: &ClosureKernel,
    originals: &[Partition],
    f: usize,
    scratch: &mut CloseScratch,
    doomed: &mut DoomedPairs,
    sweep: &mut WeakestSweep,
    mut cache: Option<&mut ClosureCache>,
) -> Result<FusionGeneration> {
    let start = Instant::now();
    let n = top.size();
    if let Some((i, p)) = originals.iter().enumerate().find(|(_, p)| p.len() != n) {
        return Err(FusionError::InvalidPartition(format!(
            "original {i} partitions {} states, but the top machine has {n}",
            p.len()
        )));
    }
    sweep.clear();
    for p in originals {
        sweep.push(p);
    }
    let mut dmin = sweep.run(n);
    let mut stats = GenerationStats {
        initial_dmin: dmin,
        ..Default::default()
    };
    let mut partitions: Vec<Partition> = Vec::new();
    // Search-lifetime buffer: every candidate closure of every descent of
    // every outer iteration reuses it.
    let mut candidate = Partition::singletons(n);
    let below = |dmin: u32| dmin != u32::MAX && dmin as u128 <= f as u128;

    // Loop invariant: `dmin` is dmin(originals ∪ partitions), and while
    // it is at most `f` the sweep holds that set's weakest edges.  Each
    // iteration adds exactly one machine that covers all of them, so dmin
    // increases by exactly one per iteration and the loop terminates after
    // f + 1 - dmin(originals) iterations (Theorem 4 / Theorem 5; the count
    // is 0 if the originals are already tolerant).  A `⊤` with one state
    // has no edges (dmin = u32::MAX) and needs no backup.
    while below(dmin) {
        let weakest = sweep.weakest_edges();
        debug_assert!(!weakest.is_empty());
        // Start at ⊤ (the singleton partition), which covers every edge, and
        // descend the closed partition lattice.
        //
        // The paper's inner loop moves to a machine of the *lower cover*
        // whenever one still covers all weakest edges.  Computing the whole
        // lower cover (all pairwise block merges, closed, then filtered for
        // maximality) at every step is O(k²·N·|Σ|) even when the very first
        // candidate works, which dominates the running time for large ⊤.
        // Instead we descend to the *first* closed pairwise-merge that still
        // covers the weakest edges.  This is sound because (a) every such
        // candidate is ≤ some lower-cover machine that also covers the
        // edges, so the paper's descent condition holds whenever ours does,
        // and (b) when no pairwise merge covers the edges, no lower-cover
        // machine does either (every lower-cover machine *is* a closed
        // pairwise merge), so both loops stop at the same condition.  The
        // descent may take larger steps but ends at a machine with the same
        // guarantee: none of its lower covers can replace it.
        let mut current = Partition::singletons(n);
        'descend: loop {
            stats.descent_steps += 1;
            let k = current.num_blocks();
            let total_pairs = k * k.saturating_sub(1) / 2;
            // Pre-filter: merging the two blocks joined by a weakest edge
            // leaves that edge unseparated no matter what the closure adds,
            // so the pair is skipped without running the fixpoint.  Once a
            // candidate that passed the filter fails, the filter is widened
            // to every merge whose closure is forced through a filtered one
            // (see `DoomedPairs`); levels whose first candidate succeeds
            // never pay for that.  The examined-candidate counter still
            // counts skipped pairs (they are "examined" at block level), so
            // the statistics are bit-identical to the unfiltered descent.
            doomed.reset(&current, weakest);
            let mut propagated = false;
            // One cache key per level: the merges below are all merges of
            // `current`, so the fingerprint is computed once.
            let level = cache.as_mut().and_then(|c| c.level_key(&current));
            let mut idx = 0usize;
            for b1 in 0..k {
                for b2 in (b1 + 1)..k {
                    idx += 1;
                    if doomed.contains(b1, b2) {
                        continue;
                    }
                    cached_close(
                        kernel,
                        scratch,
                        &mut cache,
                        level,
                        &current,
                        b1,
                        b2,
                        &mut candidate,
                    )?;
                    if FaultGraph::covers_all(&candidate, weakest) {
                        stats.candidates_examined += idx;
                        std::mem::swap(&mut current, &mut candidate);
                        continue 'descend;
                    }
                    if !propagated {
                        propagated = true;
                        doomed.propagate(kernel, &current);
                    }
                }
            }
            stats.candidates_examined += total_pairs;
            break;
        }
        sweep.push(&current);
        partitions.push(current);
        stats.outer_iterations += 1;
        dmin += 1;
        // The next iteration needs the new weakest edges; past `f` only a
        // debug build sweeps again, to check the exact-one step.
        if below(dmin) || cfg!(debug_assertions) {
            let swept = sweep.run(n);
            debug_assert_eq!(swept, dmin, "a covering backup raises dmin by exactly one");
        }
    }

    stats.final_dmin = dmin;
    stats.elapsed_micros = start.elapsed().as_micros();
    let machines: Result<Vec<Dfsm>> = partitions
        .iter()
        .enumerate()
        .map(|(i, p)| quotient_machine(top, p, &format!("F{}", i + 1)))
        .collect();
    Ok(FusionGeneration {
        partitions,
        machines: machines?,
        stats,
    })
}

/// `dmin` and the weakest edges of the fault graph `G(⊤, M)` of a machine
/// set `M`, swept from the machines' bitset block rows without ever
/// materialising the `n(n−1)/2` edge weights — all Algorithm 2 reads of
/// that graph.
///
/// Bit `j` of the block row of state `i`'s block is set iff the machine
/// does *not* separate `i` and `j`, so summing those rows over `M` counts
/// each pair's deficit `|M| − w(i, j)`.  The sweep takes, per state `i`,
/// every machine's row once, and adds them word by word into bit-sliced
/// counters: `planes[k]` holds bit `k` of the 64 lanes' deficits, and
/// `⌈log2(|M| + 1)⌉` planes hold any deficit.  The largest deficit of a
/// word falls out of the planes from the top down; `dmin` is `|M|` minus
/// the largest deficit overall, and the weakest edges are the lanes at it,
/// collected in row-major order as the sweep goes (a larger deficit
/// restarts the list).  Both are bit-identical to [`FaultGraph::dmin`] and
/// [`FaultGraph::weakest_edges`] over the same partitions.
///
/// The buffers live as long as their owner: a [`crate::FusionSession`]
/// keeps one sweep across searches.
#[derive(Debug, Default)]
pub(crate) struct WeakestSweep {
    /// Bitset forms of the machines; the first `live` are the set, the
    /// rest spare buffers for reuse.
    machines: Vec<BitsetPartition>,
    live: usize,
    planes: Vec<u64>,
    weakest: Vec<(usize, usize)>,
}

impl WeakestSweep {
    /// Empties the machine set.
    pub(crate) fn clear(&mut self) {
        self.live = 0;
    }

    /// Adds a machine to the set.
    pub(crate) fn push(&mut self, p: &Partition) {
        match self.machines.get_mut(self.live) {
            Some(bits) => bits.refresh_from_partition(p),
            None => self.machines.push(BitsetPartition::from_partition(p)),
        }
        self.live += 1;
    }

    /// The weakest edges found by the last [`WeakestSweep::run`], in
    /// row-major order.
    pub(crate) fn weakest_edges(&self) -> &[(usize, usize)] {
        &self.weakest
    }

    /// Sweeps the set's fault graph over `n` states (every machine must
    /// partition exactly `n` states): returns `dmin`, `u32::MAX` when there
    /// are no edges, and keeps the weakest edges for
    /// [`WeakestSweep::weakest_edges`].
    pub(crate) fn run(&mut self, n: usize) -> u32 {
        let machines = &self.machines[..self.live];
        let m = machines.len();
        let planes = &mut self.planes;
        planes.clear();
        planes.resize((usize::BITS - m.leading_zeros()) as usize, 0);
        let weakest = &mut self.weakest;
        weakest.clear();
        let words = words_for(n);
        let mut best: Option<usize> = None;
        let mut rows: Vec<&[u64]> = Vec::with_capacity(m);
        for i in 0..n.saturating_sub(1) {
            rows.clear();
            rows.extend(machines.iter().map(|p| p.block_row(p.block_of(i))));
            let start = i + 1;
            for w in start / WORD_BITS..words {
                let mut lanes = !0u64;
                if w == start / WORD_BITS {
                    lanes &= !0u64 << (start % WORD_BITS);
                }
                if w == words - 1 && n % WORD_BITS != 0 {
                    lanes &= (1u64 << (n % WORD_BITS)) - 1;
                }
                planes.fill(0);
                for row in &rows {
                    let mut carry = row[w];
                    for plane in planes.iter_mut() {
                        if carry == 0 {
                            break;
                        }
                        let next = *plane & carry;
                        *plane ^= carry;
                        carry = next;
                    }
                }
                // Narrow the lanes to those at the word's largest deficit,
                // one plane at a time from the top.
                let mut deficit = 0usize;
                for (k, &plane) in planes.iter().enumerate().rev() {
                    if lanes & plane != 0 {
                        lanes &= plane;
                        deficit |= 1 << k;
                    }
                }
                match best {
                    Some(b) if deficit < b => continue,
                    Some(b) if deficit == b => {}
                    _ => {
                        best = Some(deficit);
                        weakest.clear();
                    }
                }
                while lanes != 0 {
                    weakest.push((i, w * WORD_BITS + lanes.trailing_zeros() as usize));
                    lanes &= lanes - 1;
                }
            }
        }
        best.map_or(u32::MAX, |d| (m - d) as u32)
    }
}

/// The block-level pre-filter of one descent level: pairs `(b1, b2)` of
/// `current`'s blocks whose merge provably cannot cover every weakest
/// edge, so their closure fixpoint is never run.
///
/// [`DoomedPairs::reset`] marks the direct case, the two blocks joined by
/// a weakest edge.  [`DoomedPairs::propagate`] extends the marks backwards
/// through the quotient of `current`.  `current` is closed, so its
/// quotient has a transition table `q`, and the closure of merging blocks
/// `(a, b)` also merges `(q(a, e), q(b, e))` for every event `e`: a pair
/// with a marked successor pair is doomed as well.  The marks spread by a
/// backward worklist over a counting-sort predecessor table of `q`, at
/// most O(k²·|Σ|) work per level.
///
/// The buffers live as long as their owner: a [`crate::FusionSession`]
/// keeps one across searches, so a warm descent allocates nothing new.
#[derive(Debug, Default)]
pub(crate) struct DoomedPairs {
    bits: PairBits,
    /// `quotient[e · k + b]`: the block that block `b` moves to on `e`.
    quotient: Vec<u32>,
    /// The blocks moving to block `c` on event `e` are
    /// `preds[e · k..][pred_start[e · (k + 1) + c]..pred_start[e · (k + 1) + c + 1]]`.
    pred_start: Vec<u32>,
    preds: Vec<u32>,
    worklist: Vec<(u32, u32)>,
}

impl DoomedPairs {
    /// Clears the marks and marks the block pair of every weakest edge.
    /// `current` covers every weakest edge, so each pair is two blocks.
    fn reset(&mut self, current: &Partition, weakest: &[(usize, usize)]) {
        self.bits.reset(current.num_blocks());
        for &(i, j) in weakest {
            let (a, b) = (current.block_of(i), current.block_of(j));
            self.bits.insert(a.min(b), a.max(b));
        }
    }

    /// Whether merging blocks `b1 < b2` is known to fail.
    fn contains(&self, b1: usize, b2: usize) -> bool {
        self.bits.get(b1, b2)
    }

    /// Marks every pair of `current`'s blocks from which the quotient's
    /// pair graph `(a, b) → (q(a, e), q(b, e))` reaches a marked pair.
    fn propagate(&mut self, kernel: &ClosureKernel, current: &Partition) {
        let DoomedPairs {
            bits,
            quotient,
            pred_start,
            preds,
            worklist,
        } = self;
        let k = current.num_blocks();
        let events = kernel.num_events();
        kernel.quotient_table_into(current, quotient);
        pred_start.clear();
        pred_start.resize(events * (k + 1), 0);
        preds.clear();
        preds.resize(events * k, 0);
        for e in 0..events {
            let q = &quotient[e * k..(e + 1) * k];
            let start = &mut pred_start[e * (k + 1)..(e + 1) * (k + 1)];
            for &c in q {
                start[c as usize] += 1;
            }
            for c in 1..=k {
                start[c] += start[c - 1];
            }
            let row = &mut preds[e * k..(e + 1) * k];
            for (a, &c) in q.iter().enumerate().rev() {
                start[c as usize] -= 1;
                row[start[c as usize] as usize] = a as u32;
            }
        }

        worklist.clear();
        for b1 in 0..k {
            for b2 in (b1 + 1)..k {
                if bits.get(b1, b2) {
                    worklist.push((b1 as u32, b2 as u32));
                }
            }
        }
        while let Some((c, d)) = worklist.pop() {
            let (c, d) = (c as usize, d as usize);
            for e in 0..events {
                let start = &pred_start[e * (k + 1)..(e + 1) * (k + 1)];
                let row = &preds[e * k..(e + 1) * k];
                // `c != d`, so their predecessor sets are disjoint.
                for &a in &row[start[c] as usize..start[c + 1] as usize] {
                    for &b in &row[start[d] as usize..start[d + 1] as usize] {
                        let (x, y) = (a.min(b), a.max(b));
                        if bits.insert(x as usize, y as usize) {
                            worklist.push((x, y));
                        }
                    }
                }
            }
        }
    }
}

/// Flat upper-triangular bit set over block pairs `(b1, b2)`, `b1 < b2 <
/// k`, reused across descent levels: marking the pairs joined by a weakest
/// edge costs two array reads and a bit-set per edge, far cheaper than the
/// hash set the same filter would otherwise need at `|⊤|`-sized weakest
/// sets.
#[derive(Debug, Default)]
struct PairBits {
    words: Vec<u64>,
    k: usize,
}

impl PairBits {
    /// Clears the map and resizes it for `k` blocks.
    fn reset(&mut self, k: usize) {
        self.k = k;
        let pairs = k * k.saturating_sub(1) / 2;
        self.words.clear();
        self.words.resize(pairs.div_ceil(64), 0);
    }

    /// Index of `(b1, b2)`, `b1 < b2`, in row-major upper-triangular order.
    fn index(&self, b1: usize, b2: usize) -> usize {
        debug_assert!(b1 < b2 && b2 < self.k);
        b1 * self.k - b1 * (b1 + 1) / 2 + (b2 - b1 - 1)
    }

    /// Marks `(b1, b2)`; returns whether it was unmarked before.
    fn insert(&mut self, b1: usize, b2: usize) -> bool {
        let idx = self.index(b1, b2);
        let (word, bit) = (&mut self.words[idx / 64], 1u64 << (idx % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn get(&self, b1: usize, b2: usize) -> bool {
        let idx = self.index(b1, b2);
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }
}

/// Convenience wrapper: builds the reachable cross product of `machines`,
/// derives their projection partitions and runs Algorithm 2.
///
/// Returns the product (so callers can reuse `⊤` and the projections) along
/// with the generated fusion.
pub fn generate_fusion_for_machines(
    machines: &[Dfsm],
    f: usize,
) -> Result<(ReachableProduct, FusionGeneration)> {
    let product = ReachableProduct::new(machines)?;
    let originals = projection_partitions(&product);
    let fusion = generate_fusion(product.top(), &originals, f)?;
    Ok((product, fusion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_repr::set_representation;
    use fsm_dfsm::{are_isomorphic, DfsmBuilder};

    fn counter(name: &str, event: &str, k: usize) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        b.complete_missing_with_self_loops();
        for i in 0..k {
            b.add_state(format!("{name}{i}"));
        }
        b.set_initial(format!("{name}0"));
        for i in 0..k {
            b.add_transition(
                format!("{name}{i}"),
                event,
                format!("{name}{}", (i + 1) % k),
            );
        }
        let other = if event == "0" { "1" } else { "0" };
        b.add_self_loops(other);
        b.build().unwrap()
    }

    /// The (n0 + n1) mod 3 machine of Fig. 1(iv).
    fn sum_counter() -> Dfsm {
        let mut b = DfsmBuilder::new("F1");
        for i in 0..3 {
            b.add_state(format!("f{i}"));
        }
        b.set_initial("f0");
        for i in 0..3 {
            b.add_transition(format!("f{i}"), "0", format!("f{}", (i + 1) % 3));
            b.add_transition(format!("f{i}"), "1", format!("f{}", (i + 1) % 3));
        }
        b.build().unwrap()
    }

    #[test]
    fn fig1_single_fault_fusion_is_a_three_state_machine() {
        // Tolerating one crash fault among the two mod-3 counters requires a
        // single 3-state fusion machine — the paper's {n0 + n1} mod 3 (or an
        // equivalent) — far smaller than the 9-state cross product.
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 1).unwrap();
        assert_eq!(product.size(), 9);
        assert_eq!(fusion.len(), 1);
        assert_eq!(fusion.machine_sizes(), vec![3]);
        assert_eq!(fusion.stats.initial_dmin, 1);
        assert_eq!(fusion.stats.final_dmin, 2);
        // The generated machine is isomorphic to the sum or difference
        // counter of Fig. 1 (both are valid minimal fusions).
        let gen = &fusion.machines[0];
        let sum = sum_counter();
        let sum_part = set_representation(product.top(), &sum).unwrap();
        let diff_part = {
            let mut assignment = Vec::new();
            for t in 0..product.size() {
                let tuple = product.tuple(fsm_dfsm::StateId(t));
                assignment.push(
                    ((tuple[0].index() as i32 - tuple[1].index() as i32).rem_euclid(3)) as usize,
                );
            }
            Partition::from_assignment(&assignment)
        };
        let gen_part = &fusion.partitions[0];
        assert!(
            gen_part == &sum_part || gen_part == &diff_part,
            "generated fusion should be the sum or difference counter, got {gen_part}"
        );
        assert_eq!(gen.size(), 3);
        assert!(are_isomorphic(gen, &sum) || gen.size() == 3);
    }

    #[test]
    fn fig1_two_fault_fusion_needs_two_machines() {
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 2).unwrap();
        assert_eq!(fusion.len(), 2);
        // Verify the resulting system really has dmin > 2.
        let mut all = projection_partitions(&product);
        all.extend(fusion.partitions.clone());
        let g = FaultGraph::from_partitions(product.size(), &all);
        assert!(g.tolerates_crash_faults(2));
        assert!(g.tolerates_byzantine_faults(1));
    }

    #[test]
    fn already_tolerant_system_needs_no_backups() {
        // Three identical counters driven by the same event are perfectly
        // correlated: any one of them determines the others, so dmin is 3
        // and the system already tolerates two crash faults.
        let m1 = counter("x", "0", 3);
        let m2 = counter("y", "0", 3);
        let m3 = counter("z", "0", 3);
        let (_, fusion) = generate_fusion_for_machines(&[m1, m2, m3], 2).unwrap();
        assert!(fusion.is_empty());
        assert_eq!(fusion.stats.outer_iterations, 0);
        assert_eq!(fusion.state_space(), 1);
    }

    #[test]
    fn number_of_machines_matches_theorem5_count() {
        // The number of generated machines is f + 1 - dmin(A) (when
        // positive): each added machine raises dmin by exactly one.
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        for f in 1..=3 {
            let (product, fusion) =
                generate_fusion_for_machines(&[a.clone(), b.clone()], f).unwrap();
            let originals = projection_partitions(&product);
            let dmin = FaultGraph::from_partitions(product.size(), &originals).dmin() as usize;
            let expected = (f + 1).saturating_sub(dmin);
            assert_eq!(fusion.len(), expected, "f = {f}");
            assert_eq!(fusion.stats.final_dmin as usize, f + 1, "f = {f}");
        }
    }

    #[test]
    fn each_generated_machine_covers_the_weakest_edges_of_its_iteration() {
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 3).unwrap();
        // Replay the generation and check the covering property (Lemma 1
        // setting): machine i must cover the weakest edges of the graph
        // containing the originals and machines 0..i.
        let originals = projection_partitions(&product);
        let mut g = FaultGraph::from_partitions(product.size(), &originals);
        for p in &fusion.partitions {
            let weakest = g.weakest_edges();
            assert!(FaultGraph::covers_all(p, &weakest));
            g.add_machine(p);
        }
    }

    #[test]
    fn generated_machines_never_exceed_top_size() {
        let a = counter("a", "0", 4);
        let b = counter("b", "1", 3);
        let (product, fusion) = generate_fusion_for_machines(&[a, b], 2).unwrap();
        for size in fusion.machine_sizes() {
            assert!(size <= product.size());
            assert!(size >= 2);
        }
        assert!(fusion.stats.elapsed_micros > 0);
    }

    /// The 4-state reconstruction of Fig. 2/3 with its machines
    /// A = {t0,t3 | t1 | t2} and B = {t0 | t1 | t2,t3}.
    fn fig2_top_and_machines() -> (Dfsm, Vec<Partition>) {
        let mut bt = DfsmBuilder::new("top");
        bt.add_states(["t0", "t1", "t2", "t3"]);
        bt.set_initial("t0");
        bt.add_transition("t0", "0", "t1");
        bt.add_transition("t1", "0", "t2");
        bt.add_transition("t2", "0", "t1");
        bt.add_transition("t3", "0", "t1");
        bt.add_transition("t0", "1", "t3");
        bt.add_transition("t1", "1", "t2");
        bt.add_transition("t2", "1", "t0");
        bt.add_transition("t3", "1", "t0");
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
        (bt.build().unwrap(), vec![a, b])
    }

    #[test]
    fn generate_fusion_with_explicit_partitions() {
        let (top, originals) = fig2_top_and_machines();
        let fusion = generate_fusion(&top, &originals, 1).unwrap();
        assert_eq!(fusion.len(), 1);
        let mut all = originals;
        all.push(fusion.partitions[0].clone());
        let g = FaultGraph::from_partitions(4, &all);
        assert!(g.tolerates_crash_faults(1));
    }

    /// Originals over the wrong number of states: A and B of Fig. 2/3 with
    /// B's partition shortened or lengthened by one state.
    fn fig2_with_resized_b(n: usize) -> (Dfsm, Vec<Partition>) {
        let (top, mut originals) = fig2_top_and_machines();
        originals[1] = Partition::from_assignment(&(0..n).map(|x| x.min(2)).collect::<Vec<_>>());
        (top, originals)
    }

    fn assert_rejected(top: &Dfsm, originals: &[Partition]) {
        for result in [
            generate_fusion(top, originals, 1),
            FusionConfig::new()
                .build()
                .generate_fusion(top, originals, 1),
        ] {
            assert!(
                matches!(result, Err(FusionError::InvalidPartition(_))),
                "{result:?}"
            );
        }
    }

    #[test]
    fn shorter_original_partition_is_rejected() {
        let (top, originals) = fig2_with_resized_b(3);
        assert_rejected(&top, &originals);
    }

    #[test]
    fn longer_original_partition_is_rejected() {
        let (top, originals) = fig2_with_resized_b(5);
        assert_rejected(&top, &originals);
    }

    /// SplitMix64 step, the random source of the sweep's oracle test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random partition of `n` states into at most `blocks` blocks.
    fn random_partition(n: usize, blocks: u64, rng: &mut u64) -> Partition {
        let assignment: Vec<usize> = (0..n).map(|_| (splitmix(rng) % blocks) as usize).collect();
        Partition::from_assignment(&assignment)
    }

    /// Sweeps `family` with a reused sweep and checks `dmin` and the
    /// weakest edges against the fault graph built from the same family.
    fn assert_sweep_matches_oracle(sweep: &mut WeakestSweep, n: usize, family: &[Partition]) {
        sweep.clear();
        for p in family {
            sweep.push(p);
        }
        let dmin = sweep.run(n);
        let oracle = FaultGraph::from_partitions(n, family);
        let m = family.len();
        assert_eq!(dmin, oracle.dmin(), "dmin, n = {n}, m = {m}");
        assert_eq!(
            sweep.weakest_edges(),
            oracle.weakest_edges(),
            "weakest edges, n = {n}, m = {m}"
        );
    }

    #[test]
    fn weakest_sweep_matches_the_fault_graph_oracle() {
        let mut rng = 0x5EED_u64;
        let mut sweep = WeakestSweep::default();
        // Word boundaries on both sides of 64 and 128; no machines, one
        // machine, then random family sizes and block counts.
        for n in [1, 2, 63, 64, 65, 128, 129] {
            for case in 0..16 {
                let m = match case {
                    0 => 0,
                    1 => 1,
                    _ => 2 + (splitmix(&mut rng) % 10) as usize,
                };
                let family: Vec<Partition> = (0..m)
                    .map(|_| {
                        let blocks = 1 + splitmix(&mut rng) % 8;
                        random_partition(n, blocks, &mut rng)
                    })
                    .collect();
                assert_sweep_matches_oracle(&mut sweep, n, &family);
            }
        }
        // 300 machines: 280 copies of one partition push the deficits of
        // its same-block pairs past 255, into a ninth counter plane.
        let n = 100;
        let repeated = random_partition(n, 3, &mut rng);
        let mut family = vec![repeated; 280];
        family.extend((0..20).map(|_| random_partition(n, 2, &mut rng)));
        assert_sweep_matches_oracle(&mut sweep, n, &family);
    }

    #[test]
    fn pairs_doomed_only_through_a_successor_are_never_closed() {
        // The weakest edges of A ∪ B are (t0,t3) and (t2,t3), so the direct
        // filter leaves four of ⊤'s six merges.  Each of them is doomed only
        // through a successor: on event 1, merging t0,t1 forces (t3,t2) and
        // merging t0,t2 forces (t3,t0); merging t1,t2 or t1,t3 forces
        // (t2,t0), which is doomed one step further.  No merge of ⊤ covers
        // the weakest edges, so the fusion is ⊤ itself.
        let (top, originals) = fig2_top_and_machines();
        let weakest = FaultGraph::from_partitions(4, &originals).weakest_edges();
        assert_eq!(weakest, vec![(0, 3), (2, 3)]);
        let left_by_direct_filter = 6 - weakest.len();

        let mut session = FusionConfig::new().build();
        let mut fast = session.generate_fusion(&top, &originals, 1).unwrap();
        let mut slow = crate::reference::generate_fusion_scan(&top, &originals, 1).unwrap();
        assert_eq!(fast.partitions, vec![Partition::singletons(4)]);
        assert_eq!(fast.partitions, slow.partitions);
        fast.stats.elapsed_micros = 0;
        slow.stats.elapsed_micros = 0;
        assert_eq!(fast.stats, slow.stats);
        assert_eq!(fast.stats.candidates_examined, 6);
        // Only the first unfiltered merge runs its fixpoint; its failure
        // widens the filter to the other three.
        let misses = session.cache_stats().misses;
        assert!(
            misses < left_by_direct_filter as u64,
            "{misses} closures ran"
        );
        assert_eq!(misses, 1);
    }
}
