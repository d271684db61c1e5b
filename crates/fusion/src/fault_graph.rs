//! Fault graphs, distance and `dmin` (Section 3, Definitions 3–4,
//! Theorems 1–2).
//!
//! The fault graph `G(⊤, M)` of a set of machines `M` (each `≤ ⊤`) is the
//! complete weighted graph over the states of `⊤` in which the weight of
//! edge `(ti, tj)` is the number of machines in `M` whose partition places
//! `ti` and `tj` in different blocks.  The minimum edge weight `dmin`
//! determines the fault tolerance of the set:
//!
//! * `f` crash faults can be tolerated iff `dmin > f` (Theorem 1),
//! * `f` Byzantine faults can be tolerated iff `dmin > 2f` (Theorem 2).
//!
//! Algorithm 2 itself reads only `dmin` and the weakest edges, and gets
//! both from a sweep over the machines' block rows without building this
//! graph (see [`crate::generate`]); the graph serves the exhaustive
//! search, the theory checks, recovery and the test oracles.
//!
//! ## Striped incremental `dmin` maintenance (dense representation)
//!
//! The exhaustive search
//! ([`crate::exhaustive_minimum_fusion`]) interleaves machine additions
//! with `dmin` queries at every node of its combination tree.  Rescanning all `n(n-1)/2` edges per query is the
//! dominant query cost at scale, so the dense representation keeps the flat
//! upper-triangular weight matrix and shards its trackers into **column
//! stripes aligned with the u64 bitset block layout** of
//! [`crate::bitset::BlockMatrix`]: stripe `s` owns the edges whose larger
//! endpoint `j` lies in bitset word `s` (`j / 64 == s`).  In the same
//! word-level pass that updates the weights the graph maintains,
//! *per stripe*:
//!
//! * a weight histogram (`hist[s][w]` = number of stripe-`s` edges of
//!   weight `w`), two in-cache array updates per incremented edge — the
//!   histogram row is resolved once per visited word, and words whose
//!   complement mask is zero (clean stripes of the candidate partition) are
//!   skipped entirely,
//! * a cached per-stripe minimum, advanced over emptied histogram slots
//!   (weights only grow); the global `dmin` is the min over the ~`n/64`
//!   stripe minima, so `dmin` stays `O(1)` per query and `O(n/64)` per add.
//!
//! The stripe minima are what make the queries sub-linear in the edge
//! count: [`FaultGraph::weakest_edges`] and [`FaultGraph::speculate`] visit
//! only the stripes whose cached minimum equals `dmin` — typically a
//! handful out of `n/64` — instead of scanning all `E` edges.  Per-weight
//! *edge buckets* (append an edge to `bucket[w]` when its weight reaches
//! `w`) would make those queries `O(|weakest|)`, but the bucket pushes cost
//! more in the add path than the queries save — each added machine
//! costs up to `E` edge increments — so the histogram-stripe design wins end
//! to end.  The pre-refactor full scans are preserved as
//! [`FaultGraph::dmin_scan`] / [`FaultGraph::weakest_edges_scan`] /
//! [`FaultGraph::addition_increases_dmin_scan`] for cross-validation
//! (`tests/fault_graph_repr.rs`) and for
//! the `fault_graph_incremental_*` baselines in `BENCH_fusion.json`.
//!
//! ## Sparse representation
//!
//! Above ~10⁴ states the dense matrix is the memory wall: `n = 59049`
//! means 1.74 × 10⁹ edges ≈ 7 GB of `u32` weights.  The sparse
//! representation ([`WeightRepr::Sparse`]) stores, per state `i`, only the
//! pairs `(i, j)` with a non-zero **deficit** — the number of machines
//! that do *not* separate the pair (`weight = machines − deficit`).  A
//! machine contributes deficit only inside its blocks, so fine partitions
//! (many small blocks — the regime where fusion machines concentrate) stay
//! near-empty: the footprint is `Σ_machines Σ_blocks C(|b|, 2)` entries
//! instead of `n²/2` words.  `dmin = machines − max_deficit` falls out of a
//! deficit histogram whose maximum only grows, and the weakest edges are
//! exactly the stored entries at `max_deficit` (or *all* pairs while
//! `max_deficit == 0`).  [`FaultGraph::from_partitions`] picks the
//! representation automatically from the block-size profile of the input
//! partitions ([`WeightRepr::auto_for`]); both representations answer every
//! query bit-identically (pinned by `tests/fault_graph_repr.rs`).

use crate::bitset::{words_for, BitsetPartition, WORD_BITS};
use crate::partition::Partition;

/// Number of edges in the complete graph over `n` states.
fn edges_in(n: usize) -> usize {
    n.saturating_sub(1) * n / 2
}

/// Index of edge `(i, j)`, `i < j`, in row-major upper-triangular order.
fn edge_index_in(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// How a [`FaultGraph`] stores its edge weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightRepr {
    /// Flat upper-triangular `Vec<u32>` with striped histogram trackers —
    /// the right choice whenever the matrix fits comfortably in RAM.
    Dense,
    /// Per-state sorted deficit rows storing only pairs some machine fails
    /// to separate — the right choice for large `n` with fine partitions.
    Sparse,
}

/// Edge count below which [`WeightRepr::auto_for`] always picks
/// [`WeightRepr::Dense`]: a dense matrix under 4 MiB beats sparse rows on
/// every axis, so sparsity is only worth considering past this floor.
pub const SPARSE_MIN_EDGES: usize = 1 << 20;

/// Density denominator for [`WeightRepr::auto_for`]: sparse is chosen when
/// the estimated stored-entry count is below `edges / SPARSE_DENSITY_DIV`.
/// Each sparse entry is 8 bytes against the dense 4 bytes per edge, so the
/// break-even is `edges / 2`; `edges / 8` leaves headroom for per-row
/// overhead and for deficits accumulating across machines.
pub const SPARSE_DENSITY_DIV: usize = 8;

impl WeightRepr {
    /// The representation [`FaultGraph::from_partitions`] picks for `n`
    /// states and the given machine partitions: sparse iff the graph is
    /// past [`SPARSE_MIN_EDGES`] *and* the union-bound estimate of stored
    /// deficit entries (`Σ_p Σ_blocks C(|b|, 2)`) is below
    /// `edges / `[`SPARSE_DENSITY_DIV`].
    pub fn auto_for(n: usize, partitions: &[Partition]) -> WeightRepr {
        let est: u128 = partitions.iter().map(|p| same_block_pairs(p) as u128).sum();
        Self::auto_for_estimate(edges_in(n), est, SPARSE_MIN_EDGES)
    }

    /// Pure core of [`WeightRepr::auto_for`], with the edge floor
    /// injectable so the crossover is unit-testable at toy sizes.
    pub fn auto_for_estimate(edges: usize, est_stored: u128, min_edges: usize) -> WeightRepr {
        if edges >= min_edges && est_stored * SPARSE_DENSITY_DIV as u128 <= edges as u128 {
            WeightRepr::Sparse
        } else {
            WeightRepr::Dense
        }
    }
}

/// `Σ_blocks C(|b|, 2)` — the number of pairs `p` does *not* separate,
/// i.e. the deficit entries `p` would contribute to a sparse graph.
fn same_block_pairs(p: &Partition) -> usize {
    let mut sizes = vec![0usize; p.num_blocks()];
    for &b in p.assignment() {
        sizes[b] += 1;
    }
    sizes.iter().map(|&s| s * (s - 1) / 2).sum()
}

/// Dense weights: the flat upper-triangular matrix plus per-stripe
/// histogram trackers (see the module docs).
#[derive(Debug)]
struct DenseWeights {
    n: usize,
    /// Upper-triangular weights, indexed by [`edge_index_in`] — the layout
    /// is unchanged from the pre-stripe refactor, so the word-walk of
    /// `add_machine_bitset` writes exactly the same cells.
    weights: Vec<u32>,
    /// `stripe_hist[s][w]` = number of edges `(i, j)` with `j / 64 == s`
    /// and weight exactly `w` (each row has length `machines + 1`).
    stripe_hist: Vec<Vec<usize>>,
    /// Cached per-stripe minimum weight; `u32::MAX` for edge-less stripes.
    stripe_min: Vec<u32>,
    /// Cached global minimum (min over `stripe_min`); `u32::MAX` when the
    /// graph has no edges.
    min_weight: u32,
}

impl Clone for DenseWeights {
    fn clone(&self) -> Self {
        DenseWeights {
            n: self.n,
            weights: self.weights.clone(),
            stripe_hist: self.stripe_hist.clone(),
            stripe_min: self.stripe_min.clone(),
            min_weight: self.min_weight,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.weights.clone_from(&source.weights);
        // Vec<Vec<_>>::clone_from reuses both the outer buffer and each
        // overlapping inner buffer.
        self.stripe_hist.clone_from(&source.stripe_hist);
        self.stripe_min.clone_from(&source.stripe_min);
        self.min_weight = source.min_weight;
    }
}

impl DenseWeights {
    fn new(n: usize) -> Self {
        let edges = edges_in(n);
        let stripes = if n == 0 { 0 } else { words_for(n) };
        let mut stripe_hist = Vec::with_capacity(stripes);
        let mut stripe_min = Vec::with_capacity(stripes);
        for s in 0..stripes {
            let count = Self::stripe_edge_count(n, s);
            stripe_hist.push(vec![count]);
            stripe_min.push(if count == 0 { u32::MAX } else { 0 });
        }
        DenseWeights {
            n,
            weights: vec![0; edges],
            stripe_hist,
            stripe_min,
            min_weight: if edges == 0 { u32::MAX } else { 0 },
        }
    }

    /// Edges owned by stripe `s`: column `j` contributes its `j` incident
    /// rows `i < j`.
    fn stripe_edge_count(n: usize, s: usize) -> usize {
        let lo = s * WORD_BITS;
        let hi = ((s + 1) * WORD_BITS).min(n);
        (lo..hi).sum()
    }

    /// The word-level add pass.  With `track`, the per-stripe histograms
    /// are updated inline (the histogram row is resolved once per visited
    /// word) and the stripe minima advanced afterwards; without, trackers
    /// are left to a later [`DenseWeights::rebuild_trackers`].
    fn add_bitset(&mut self, p: &BitsetPartition, track: bool) {
        let n = self.n;
        let words = words_for(n);
        if track {
            // One more machine: weights may now reach `machines + 1`.
            for sh in &mut self.stripe_hist {
                sh.push(0);
            }
        }
        let DenseWeights {
            weights,
            stripe_hist,
            ..
        } = self;
        let mut base = 0usize;
        for i in 0..n.saturating_sub(1) {
            let row = p.block_row(p.block_of(i));
            let start = i + 1;
            for (w, &word) in row.iter().enumerate().skip(start / WORD_BITS) {
                let mut mask = !word;
                if w == start / WORD_BITS {
                    mask &= !0u64 << (start % WORD_BITS);
                }
                if w == words - 1 && n % WORD_BITS != 0 {
                    mask &= (1u64 << (n % WORD_BITS)) - 1;
                }
                if mask == 0 {
                    // Clean stripe for this row: no weight in word `w`
                    // moves, so its histogram is untouched.
                    continue;
                }
                let sh = &mut stripe_hist[w];
                while mask != 0 {
                    let j = w * WORD_BITS + mask.trailing_zeros() as usize;
                    let idx = base + (j - start);
                    let old = weights[idx];
                    weights[idx] = old + 1;
                    if track {
                        sh[old as usize] -= 1;
                        sh[old as usize + 1] += 1;
                    }
                    mask &= mask - 1;
                }
            }
            base += n - i - 1;
        }
        if track {
            self.advance_mins();
        }
    }

    /// Bumps a single edge (scan path).  Trackers are left stale; callers
    /// finish with [`DenseWeights::rebuild_trackers`].
    fn bump_pair(&mut self, i: usize, j: usize) {
        let idx = edge_index_in(self.n, i, j);
        self.weights[idx] += 1;
    }

    /// Rebuilds every stripe histogram and cached minimum from the raw
    /// weights in one `O(E + stripes·machines)` pass.
    fn rebuild_trackers(&mut self, machines: usize) {
        for sh in &mut self.stripe_hist {
            sh.clear();
            sh.resize(machines + 1, 0);
        }
        let n = self.n;
        let mut idx = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                self.stripe_hist[j / WORD_BITS][self.weights[idx] as usize] += 1;
                idx += 1;
            }
        }
        let mut global = u32::MAX;
        for (s, sh) in self.stripe_hist.iter().enumerate() {
            self.stripe_min[s] = match sh.iter().position(|&c| c > 0) {
                Some(w) => w as u32,
                None => u32::MAX,
            };
            global = global.min(self.stripe_min[s]);
        }
        self.min_weight = global;
    }

    /// Advances every stripe minimum past emptied histogram slots (weights
    /// only grow) and refreshes the global minimum.  Untouched stripes cost
    /// one histogram probe each, so the pass is `O(n / 64)` plus the actual
    /// advances.
    fn advance_mins(&mut self) {
        let mut global = u32::MAX;
        for (sh, m) in self.stripe_hist.iter().zip(self.stripe_min.iter_mut()) {
            if *m != u32::MAX {
                let mut d = *m as usize;
                while sh[d] == 0 {
                    d += 1;
                }
                *m = d as u32;
            }
            global = global.min(*m);
        }
        self.min_weight = global;
    }

    /// The stripes whose cached minimum equals `w`, ascending.
    fn stripes_at(&self, w: u32) -> Vec<usize> {
        self.stripe_min
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m == w)
            .map(|(s, _)| s)
            .collect()
    }

    /// Edges of weight exactly `w` confined to the given (ascending)
    /// stripes, in row-major order.
    fn edges_with_weight_in_stripes(&self, w: u32, stripes: &[usize]) -> Vec<(usize, usize)> {
        let n = self.n;
        let mut out = Vec::new();
        for i in 0..n {
            let base = i * n - i * (i + 1) / 2;
            for &s in stripes {
                let lo = (s * WORD_BITS).max(i + 1);
                let hi = ((s + 1) * WORD_BITS).min(n);
                for j in lo..hi {
                    if self.weights[base + j - i - 1] == w {
                        out.push((i, j));
                    }
                }
            }
        }
        out
    }

    /// Single early-exiting pass over the min-weight edges, confined to the
    /// stripes whose minimum equals the global minimum.
    fn speculate_with(&self, separates: impl Fn(usize, usize) -> bool) -> bool {
        if self.min_weight == u32::MAX {
            return false;
        }
        let d = self.min_weight;
        let stripes = self.stripes_at(d);
        let n = self.n;
        for i in 0..n {
            let base = i * n - i * (i + 1) / 2;
            for &s in &stripes {
                let lo = (s * WORD_BITS).max(i + 1);
                let hi = ((s + 1) * WORD_BITS).min(n);
                for j in lo..hi {
                    if self.weights[base + j - i - 1] == d && !separates(i, j) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn weight_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
        let mut out = std::collections::BTreeMap::new();
        for sh in &self.stripe_hist {
            for (w, &count) in sh.iter().enumerate() {
                if count > 0 {
                    *out.entry(w as u32).or_insert(0) += count;
                }
            }
        }
        out
    }
}

/// Sparse weights: per-state sorted deficit rows (see the module docs).
///
/// `rows[i]` holds `(j, deficit)` for `j > i`, sorted by `j`, storing only
/// pairs with `deficit > 0` — pairs every machine separates are implicit
/// with weight `machines`.  `deficit_hist[d]` counts stored entries at
/// deficit `d ≥ 1`; `max_deficit` only grows, so
/// `dmin = machines − max_deficit` is `O(1)`.
#[derive(Debug)]
struct SparseWeights {
    n: usize,
    edges: usize,
    rows: Vec<Vec<(u32, u32)>>,
    /// Total stored entries across all rows.
    stored: usize,
    /// `deficit_hist[d]` = stored entries with deficit exactly `d`
    /// (`deficit_hist[0]` is unused; implicit pairs are `edges - stored`).
    deficit_hist: Vec<usize>,
    /// Maximum stored deficit (0 when nothing is stored).
    max_deficit: u32,
    /// Scratch for block-member collection, reused across adds.
    scratch: Vec<u32>,
    /// Scratch for row merges, reused across adds.
    merged: Vec<(u32, u32)>,
}

impl Clone for SparseWeights {
    fn clone(&self) -> Self {
        SparseWeights {
            n: self.n,
            edges: self.edges,
            rows: self.rows.clone(),
            stored: self.stored,
            deficit_hist: self.deficit_hist.clone(),
            max_deficit: self.max_deficit,
            scratch: Vec::new(),
            merged: Vec::new(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.edges = source.edges;
        self.rows.clone_from(&source.rows);
        self.stored = source.stored;
        self.deficit_hist.clone_from(&source.deficit_hist);
        self.max_deficit = source.max_deficit;
    }
}

impl SparseWeights {
    fn new(n: usize) -> Self {
        SparseWeights {
            n,
            edges: edges_in(n),
            rows: vec![Vec::new(); n],
            stored: 0,
            deficit_hist: vec![0],
            max_deficit: 0,
            scratch: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Adds a machine: every *same-block* pair gains one unit of deficit.
    /// Each block's members are collected once (ascending), then merged
    /// into the affected rows; rows and the merge buffer are reused.
    fn add_bitset(&mut self, p: &BitsetPartition) {
        for b in 0..p.num_blocks() {
            self.scratch.clear();
            self.scratch.extend(p.block_ones(b).map(|x| x as u32));
            let mut members = std::mem::take(&mut self.scratch);
            for a in 0..members.len().saturating_sub(1) {
                let i = members[a] as usize;
                self.bump_row(i, &members[a + 1..]);
            }
            members.clear();
            self.scratch = members;
        }
    }

    /// Merges `incoming` (sorted, all `> i`) into row `i`, bumping the
    /// deficit of present columns and inserting absent ones at deficit 1.
    fn bump_row(&mut self, i: usize, incoming: &[u32]) {
        let SparseWeights {
            rows,
            stored,
            deficit_hist,
            max_deficit,
            merged,
            ..
        } = self;
        let row = &mut rows[i];
        merged.clear();
        let (mut x, mut y) = (0usize, 0usize);
        while x < row.len() || y < incoming.len() {
            if y == incoming.len() || (x < row.len() && row[x].0 < incoming[y]) {
                merged.push(row[x]);
                x += 1;
            } else if x == row.len() || row[x].0 > incoming[y] {
                merged.push((incoming[y], 1));
                *stored += 1;
                bump_hist(deficit_hist, max_deficit, 1);
                y += 1;
            } else {
                let d = row[x].1 + 1;
                merged.push((row[x].0, d));
                deficit_hist[d as usize - 1] -= 1;
                bump_hist(deficit_hist, max_deficit, d);
                x += 1;
                y += 1;
            }
        }
        std::mem::swap(row, merged);
    }

    /// Bumps a single pair's deficit (scan path).
    fn bump_pair(&mut self, i: usize, j: usize) {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        let col = j as u32;
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&col, |&(c, _)| c) {
            Ok(pos) => {
                let d = row[pos].1 + 1;
                row[pos].1 = d;
                self.deficit_hist[d as usize - 1] -= 1;
                bump_hist(&mut self.deficit_hist, &mut self.max_deficit, d);
            }
            Err(pos) => {
                row.insert(pos, (col, 1));
                self.stored += 1;
                bump_hist(&mut self.deficit_hist, &mut self.max_deficit, 1);
            }
        }
    }

    /// `dmin` given the wrapper's machine count.
    fn dmin(&self, machines: usize) -> u32 {
        if self.edges == 0 {
            return u32::MAX;
        }
        machines as u32 - self.max_deficit
    }

    /// Full-scan `dmin`: the stored deficits are rescanned for the maximum
    /// instead of trusting the cached tracker.
    fn dmin_scan(&self, machines: usize) -> u32 {
        if self.edges == 0 {
            return u32::MAX;
        }
        let max: u32 = self
            .rows
            .iter()
            .flat_map(|r| r.iter().map(|&(_, d)| d))
            .max()
            .unwrap_or(0);
        machines as u32 - max
    }

    /// Edges of weight exactly `w`, row-major.  Weight `machines` means the
    /// *complement* of the stored rows; anything lower is a stored-deficit
    /// filter.
    fn edges_with_weight(&self, machines: usize, w: u32) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        if (w as usize) > machines {
            return out;
        }
        let d = (machines - w as usize) as u32;
        if d == 0 {
            for (i, row) in self.rows.iter().enumerate() {
                let mut next = row.iter().peekable();
                for j in (i + 1)..self.n {
                    match next.peek() {
                        Some(&&(c, _)) if c as usize == j => {
                            next.next();
                        }
                        _ => out.push((i, j)),
                    }
                }
            }
        } else {
            for (i, row) in self.rows.iter().enumerate() {
                for &(c, dd) in row {
                    if dd == d {
                        out.push((i, c as usize));
                    }
                }
            }
        }
        out
    }

    /// Edges of weight at most `w`, row-major: stored entries with deficit
    /// `≥ machines − w`, or every pair when the bound covers weight
    /// `machines`.
    fn edges_with_weight_at_most(&self, machines: usize, w: u32) -> Vec<(usize, usize)> {
        if (w as usize) >= machines {
            let mut out = Vec::with_capacity(self.edges);
            for i in 0..self.n {
                for j in (i + 1)..self.n {
                    out.push((i, j));
                }
            }
            return out;
        }
        let d0 = (machines - w as usize) as u32;
        let mut out = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            for &(c, dd) in row {
                if dd >= d0 {
                    out.push((i, c as usize));
                }
            }
        }
        out
    }

    /// Early-exiting speculate pass: with a positive `max_deficit` only the
    /// stored entries at the maximum are candidates; at zero every pair is
    /// weakest and the candidate must separate them all.
    fn speculate_with(&self, separates: impl Fn(usize, usize) -> bool) -> bool {
        if self.edges == 0 {
            return false;
        }
        if self.max_deficit == 0 {
            for i in 0..self.n {
                for j in (i + 1)..self.n {
                    if !separates(i, j) {
                        return false;
                    }
                }
            }
            return true;
        }
        for (i, row) in self.rows.iter().enumerate() {
            for &(c, d) in row {
                if d == self.max_deficit && !separates(i, c as usize) {
                    return false;
                }
            }
        }
        true
    }

    fn weight_histogram(&self, machines: usize) -> std::collections::BTreeMap<u32, usize> {
        let mut out = std::collections::BTreeMap::new();
        if self.edges > self.stored {
            out.insert(machines as u32, self.edges - self.stored);
        }
        for (d, &count) in self.deficit_hist.iter().enumerate().skip(1) {
            if count > 0 {
                out.insert((machines - d) as u32, count);
            }
        }
        out
    }
}

/// Records a stored entry reaching deficit `d` in the histogram and the
/// cached maximum.
fn bump_hist(hist: &mut Vec<usize>, max_deficit: &mut u32, d: u32) {
    if hist.len() <= d as usize {
        hist.resize(d as usize + 1, 0);
    }
    hist[d as usize] += 1;
    *max_deficit = (*max_deficit).max(d);
}

#[derive(Debug, Clone)]
enum Weights {
    Dense(DenseWeights),
    Sparse(SparseWeights),
}

/// The fault graph `G(⊤, M)` for machines represented as closed partitions
/// of a `⊤` with `n` states.
///
/// Two interchangeable weight representations sit behind this type (see
/// the module docs): the striped dense matrix and the sparse deficit rows,
/// selected by [`FaultGraph::with_representation`] or automatically by
/// [`FaultGraph::from_partitions`].  Machines can be added incrementally,
/// which is what the exhaustive search does as it grows a candidate set; both
/// representations maintain their trackers alongside the weights so
/// [`FaultGraph::dmin`] is `O(1)` and [`FaultGraph::weakest_edges`] /
/// [`FaultGraph::speculate`] touch only the stripes (dense) or stored
/// entries (sparse) that can contain a weakest edge.
#[derive(Debug)]
pub struct FaultGraph {
    n: usize,
    /// Number of machines accumulated so far.
    machines: usize,
    weights: Weights,
}

/// Hand-written so that [`Clone::clone_from`] reuses the destination's
/// weight and histogram buffers: the exhaustive search
/// ([`crate::exhaustive_minimum_fusion`]) refreshes one pre-allocated graph
/// per DFS depth from its parent at every tree node, and the derive's
/// default `clone_from` would reallocate every vector each time.
impl Clone for FaultGraph {
    fn clone(&self) -> Self {
        FaultGraph {
            n: self.n,
            machines: self.machines,
            weights: self.weights.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.machines = source.machines;
        match (&mut self.weights, &source.weights) {
            (Weights::Dense(d), Weights::Dense(s)) => d.clone_from(s),
            (Weights::Sparse(d), Weights::Sparse(s)) => d.clone_from(s),
            (d, s) => *d = s.clone(),
        }
    }
}

impl FaultGraph {
    /// Creates the fault graph over `n` states with no machines (all edge
    /// weights zero), in the dense representation.
    pub fn new(n: usize) -> Self {
        Self::with_representation(n, WeightRepr::Dense)
    }

    /// Creates an empty fault graph in the given representation.
    pub fn with_representation(n: usize, repr: WeightRepr) -> Self {
        let weights = match repr {
            WeightRepr::Dense => Weights::Dense(DenseWeights::new(n)),
            WeightRepr::Sparse => Weights::Sparse(SparseWeights::new(n)),
        };
        FaultGraph {
            n,
            machines: 0,
            weights,
        }
    }

    /// Builds a fault graph from a set of machine partitions, choosing the
    /// representation automatically ([`WeightRepr::auto_for`]).
    ///
    /// Dense bulk path: the per-add tracker maintenance is skipped and the
    /// histograms are rebuilt once at the end, so building from `m`
    /// partitions costs the `m` weight passes plus a single `O(E)` tracker
    /// pass.  The sparse trackers are cheap enough to maintain inline.
    pub fn from_partitions(n: usize, partitions: &[Partition]) -> Self {
        Self::from_partitions_with(n, partitions, WeightRepr::auto_for(n, partitions))
    }

    /// [`FaultGraph::from_partitions`] with an explicit representation.
    pub fn from_partitions_with(n: usize, partitions: &[Partition], repr: WeightRepr) -> Self {
        let mut g = Self::with_representation(n, repr);
        match &mut g.weights {
            Weights::Dense(d) => {
                for p in partitions {
                    d.add_bitset(&BitsetPartition::from_partition(p), false);
                }
                g.machines = partitions.len();
                d.rebuild_trackers(g.machines);
            }
            Weights::Sparse(s) => {
                for p in partitions {
                    s.add_bitset(&BitsetPartition::from_partition(p));
                }
                g.machines = partitions.len();
            }
        }
        g
    }

    /// Which representation this graph stores its weights in.
    pub fn representation(&self) -> WeightRepr {
        match &self.weights {
            Weights::Dense(_) => WeightRepr::Dense,
            Weights::Sparse(_) => WeightRepr::Sparse,
        }
    }

    /// Number of `⊤` states (nodes).
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Number of edges in the complete graph.
    pub fn num_edges(&self) -> usize {
        match &self.weights {
            Weights::Dense(d) => d.weights.len(),
            Weights::Sparse(s) => s.edges,
        }
    }

    /// Number of machines accumulated.
    pub fn num_machines(&self) -> usize {
        self.machines
    }

    /// Adds a machine: every pair of states the partition separates gains
    /// one unit of weight.
    ///
    /// Converts the partition to its bitset-block form and updates weights
    /// word-at-a-time; see [`FaultGraph::add_machine_bitset`].  The original
    /// per-pair element scan is preserved as
    /// [`FaultGraph::add_machine_scan`].
    pub fn add_machine(&mut self, p: &Partition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        self.add_machine_bitset(&BitsetPartition::from_partition(p));
    }

    /// Adds a machine given as a pre-converted [`BitsetPartition`] — the
    /// fast path for scoring loops that add the same candidate partitions to
    /// many graph clones (e.g. [`crate::exhaustive_minimum_fusion`]).
    ///
    /// Dense: for every state `i` the set of states `j > i` that the
    /// machine separates from `i` is the *complement* of `i`'s block row,
    /// so the update walks `!row` word-at-a-time and bumps exactly the
    /// edges whose weight grows; the stripe histograms and cached minima
    /// are maintained in the same pass and words with a zero mask (clean
    /// stripes) are skipped.  Sparse: every *same-block* pair gains one
    /// unit of deficit via sorted row merges.
    pub fn add_machine_bitset(&mut self, p: &BitsetPartition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        match &mut self.weights {
            Weights::Dense(d) => d.add_bitset(p, true),
            Weights::Sparse(s) => s.add_bitset(p),
        }
        self.machines += 1;
    }

    /// The pre-refactor element scan: every `(i, j)` pair tested with
    /// [`Partition::separates`].  Kept for cross-validation (property tests)
    /// and as the `fault_graph_build_scan` baseline in `BENCH_fusion.json`;
    /// use [`FaultGraph::add_machine`] everywhere else.  Faithful to its
    /// pre-refactor behavior, the dense path leaves the incremental
    /// trackers to a full rebuild pass instead of maintaining them inline.
    pub fn add_machine_scan(&mut self, p: &Partition) {
        assert_eq!(p.len(), self.n, "partition over wrong number of states");
        match &mut self.weights {
            Weights::Dense(d) => {
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if p.separates(i, j) {
                            d.bump_pair(i, j);
                        }
                    }
                }
                self.machines += 1;
                d.rebuild_trackers(self.machines);
            }
            Weights::Sparse(s) => {
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if !p.separates(i, j) {
                            s.bump_pair(i, j);
                        }
                    }
                }
                self.machines += 1;
            }
        }
    }

    /// The distance `d(ti, tj)` between two states (Definition 4).
    pub fn weight(&self, i: usize, j: usize) -> u32 {
        if i == j {
            return u32::MAX;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        match &self.weights {
            Weights::Dense(d) => d.weights[edge_index_in(self.n, a, b)],
            Weights::Sparse(s) => {
                let deficit = match s.rows[a].binary_search_by_key(&(b as u32), |&(c, _)| c) {
                    Ok(pos) => s.rows[a][pos].1,
                    Err(_) => 0,
                };
                self.machines as u32 - deficit
            }
        }
    }

    /// The minimum edge weight `dmin`, from the incrementally maintained
    /// trackers — `O(1)`.  For a single-state `⊤` there are no edges and no
    /// pair of states to confuse, so every fault count is tolerated; we
    /// represent that as `u32::MAX`.
    pub fn dmin(&self) -> u32 {
        match &self.weights {
            Weights::Dense(d) => d.min_weight,
            Weights::Sparse(s) => s.dmin(self.machines),
        }
    }

    /// The pre-refactor `dmin`: a full scan over every stored weight.  Kept
    /// for cross-validation and as the `fault_graph_incremental_dmin_scan`
    /// baseline; use [`FaultGraph::dmin`] everywhere else.
    pub fn dmin_scan(&self) -> u32 {
        match &self.weights {
            Weights::Dense(d) => d.weights.iter().copied().min().unwrap_or(u32::MAX),
            Weights::Sparse(s) => s.dmin_scan(self.machines),
        }
    }

    /// All edges whose weight equals `dmin` — the "weakest edges" Algorithm 2
    /// must cover with every machine it adds.  Dense: one filtered pass
    /// confined to the stripes whose cached minimum equals `dmin`; sparse:
    /// the stored entries at `max_deficit`.  The result is in row-major
    /// order, matching the scan.
    pub fn weakest_edges(&self) -> Vec<(usize, usize)> {
        match &self.weights {
            Weights::Dense(d) => {
                if d.min_weight == u32::MAX {
                    return Vec::new();
                }
                d.edges_with_weight_in_stripes(d.min_weight, &d.stripes_at(d.min_weight))
            }
            Weights::Sparse(s) => {
                if s.edges == 0 {
                    return Vec::new();
                }
                s.edges_with_weight(self.machines, s.dmin(self.machines))
            }
        }
    }

    /// The pre-refactor weakest-edge computation: one full scan for `dmin`
    /// and a second for the edges at that weight.  Kept for cross-validation
    /// and as the `fault_graph_incremental_weakest_scan` baseline; use
    /// [`FaultGraph::weakest_edges`] everywhere else.
    pub fn weakest_edges_scan(&self) -> Vec<(usize, usize)> {
        let d = self.dmin_scan();
        if d == u32::MAX {
            return Vec::new();
        }
        self.edges_with_weight(d)
    }

    /// All edges with exactly the given weight.
    pub fn edges_with_weight(&self, w: u32) -> Vec<(usize, usize)> {
        match &self.weights {
            Weights::Dense(d) => {
                let mut out = Vec::new();
                let mut idx = 0usize;
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if d.weights[idx] == w {
                            out.push((i, j));
                        }
                        idx += 1;
                    }
                }
                out
            }
            Weights::Sparse(s) => s.edges_with_weight(self.machines, w),
        }
    }

    /// All edges with weight at most `w`.
    pub fn edges_with_weight_at_most(&self, w: u32) -> Vec<(usize, usize)> {
        match &self.weights {
            Weights::Dense(d) => {
                let mut out = Vec::new();
                let mut idx = 0usize;
                for i in 0..self.n {
                    for j in (i + 1)..self.n {
                        if d.weights[idx] <= w {
                            out.push((i, j));
                        }
                        idx += 1;
                    }
                }
                out
            }
            Weights::Sparse(s) => s.edges_with_weight_at_most(self.machines, w),
        }
    }

    /// Theorem 1: the machine set tolerates `f` crash faults iff
    /// `dmin > f`.
    pub fn tolerates_crash_faults(&self, f: usize) -> bool {
        (self.dmin() as u128) > f as u128
    }

    /// Theorem 2: the machine set tolerates `f` Byzantine faults iff
    /// `dmin > 2f`.
    pub fn tolerates_byzantine_faults(&self, f: usize) -> bool {
        (self.dmin() as u128) > 2 * f as u128
    }

    /// Observation 1: the maximum number of crash faults tolerated,
    /// `dmin − 1`.
    pub fn max_crash_faults(&self) -> usize {
        let d = self.dmin();
        if d == u32::MAX {
            usize::MAX
        } else {
            (d as usize).saturating_sub(1)
        }
    }

    /// Observation 1: the maximum number of Byzantine faults tolerated,
    /// `(dmin − 1) / 2`.
    pub fn max_byzantine_faults(&self) -> usize {
        let d = self.dmin();
        if d == u32::MAX {
            usize::MAX
        } else {
            (d as usize).saturating_sub(1) / 2
        }
    }

    /// Whether a candidate machine separates every one of the given edges.
    /// Adding such a machine increases the weight of each of these edges by
    /// one; when the edges are the weakest edges, this is exactly the
    /// condition under which adding the machine increases `dmin`
    /// (the test on line 6 of Algorithm 2).
    pub fn covers_all(candidate: &Partition, edges: &[(usize, usize)]) -> bool {
        edges.iter().all(|&(i, j)| candidate.separates(i, j))
    }

    /// Would adding `candidate` increase `dmin`?
    ///
    /// Answered from the incremental trackers without materializing a graph
    /// copy: `dmin` grows iff the candidate separates every current weakest
    /// edge (weights move by at most one per added machine), so the check
    /// is one early-exiting pass over the stripes (dense) or stored
    /// entries (sparse) that can hold a weakest edge, instead of the
    /// clone + word-level add + full rescan of
    /// [`FaultGraph::addition_increases_dmin_scan`].
    pub fn speculate(&self, candidate: &Partition) -> bool {
        assert_eq!(
            candidate.len(),
            self.n,
            "partition over wrong number of states"
        );
        self.speculate_with(|i, j| candidate.separates(i, j))
    }

    /// [`FaultGraph::speculate`] for a pre-converted [`BitsetPartition`]
    /// candidate.
    pub fn speculate_bitset(&self, candidate: &BitsetPartition) -> bool {
        assert_eq!(
            candidate.len(),
            self.n,
            "partition over wrong number of states"
        );
        self.speculate_with(|i, j| candidate.separates(i, j))
    }

    fn speculate_with(&self, separates: impl Fn(usize, usize) -> bool) -> bool {
        match &self.weights {
            Weights::Dense(d) => d.speculate_with(separates),
            Weights::Sparse(s) => s.speculate_with(separates),
        }
    }

    /// Would adding `candidate` increase `dmin`?  Tracker-backed; see
    /// [`FaultGraph::speculate`].
    pub fn addition_increases_dmin(&self, candidate: &Partition) -> bool {
        self.speculate(candidate)
    }

    /// The pre-refactor direct check: clone the graph, add the machine,
    /// compare `dmin`.  Kept for cross-validation and as the
    /// `fault_graph_incremental_speculate_scan` baseline; use
    /// [`FaultGraph::speculate`] everywhere else.
    pub fn addition_increases_dmin_scan(&self, candidate: &Partition) -> bool {
        let mut g = self.clone();
        g.add_machine(candidate);
        g.dmin_scan() > self.dmin_scan()
    }

    /// A histogram of edge weights, useful for reports and for reproducing
    /// the paper's Figure 4 numbers.  Read from the incrementally
    /// maintained trackers (`O(stripes · machines)` dense,
    /// `O(max_deficit)` sparse), not a rescan of the weights.
    pub fn weight_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
        match &self.weights {
            Weights::Dense(d) => d.weight_histogram(),
            Weights::Sparse(s) => s.weight_histogram(self.machines),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Partitions for the paper's Fig. 3 machines over ⊤ = {t0,t1,t2,t3}.
    fn fig3_partitions() -> (Partition, Partition, Partition, Partition) {
        let a = Partition::from_blocks(4, &[vec![0, 3], vec![1], vec![2]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![0], vec![1], vec![2, 3]]).unwrap();
        let m1 = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]]).unwrap();
        let m2 = Partition::from_blocks(4, &[vec![0], vec![1, 2], vec![3]]).unwrap();
        (a, b, m1, m2)
    }

    #[test]
    fn fault_graph_of_single_machine_matches_fig4_i() {
        // G({A}): edge (t0,t3) has weight 0, every other edge weight 1.
        let (a, _, _, _) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a]);
        assert_eq!(g.weight(0, 3), 0);
        assert_eq!(g.weight(0, 1), 1);
        assert_eq!(g.weight(1, 2), 1);
        assert_eq!(g.weight(2, 3), 1);
        assert_eq!(g.dmin(), 0);
        assert_eq!(g.max_crash_faults(), 0);
        assert_eq!(g.num_machines(), 1);
    }

    #[test]
    fn fault_graph_of_a_and_b_has_dmin_one() {
        // Fig. 4(ii): dmin({A,B}) = 1, so {A,B} cannot tolerate any fault.
        let (a, b, _, _) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b]);
        assert_eq!(g.dmin(), 1);
        assert!(!g.tolerates_crash_faults(1));
        assert!(g.tolerates_crash_faults(0));
        assert_eq!(g.weight(0, 1), 2);
        // The weakest edges include (t0,t3) (A cannot tell them apart) and
        // (t2,t3) (B cannot tell them apart).
        let weak = g.weakest_edges();
        assert!(weak.contains(&(0, 3)));
        assert!(weak.contains(&(2, 3)));
    }

    #[test]
    fn adding_machines_increases_weights_monotonically() {
        let (a, b, m1, m2) = fig3_partitions();
        let mut g = FaultGraph::from_partitions(4, &[a.clone(), b.clone()]);
        let before = g.dmin();
        g.add_machine(&m1);
        g.add_machine(&m2);
        assert!(g.dmin() >= before);
        assert_eq!(g.num_machines(), 4);
    }

    #[test]
    fn fig4_iii_tolerates_two_crash_and_one_byzantine() {
        // dmin({A,B,M1,M2}) = 3 in the paper.
        let (a, b, m1, m2) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b, m1, m2]);
        assert_eq!(g.dmin(), 3);
        assert!(g.tolerates_crash_faults(2));
        assert!(!g.tolerates_crash_faults(3));
        assert_eq!(g.max_crash_faults(), 2);
        assert_eq!(g.max_byzantine_faults(), 1);
        assert!(g.tolerates_byzantine_faults(1));
        assert!(!g.tolerates_byzantine_faults(2));
    }

    #[test]
    fn covers_all_and_speculate_agree_with_clone_based_check() {
        let (a, b, m1, m2) = fig3_partitions();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(4, &[a.clone(), b.clone()], repr);
            let weak = g.weakest_edges();
            for candidate in [&a, &b, &m1, &m2] {
                let direct = g.addition_increases_dmin_scan(candidate);
                assert_eq!(
                    FaultGraph::covers_all(candidate, &weak),
                    direct,
                    "candidate {candidate}"
                );
                assert_eq!(g.speculate(candidate), direct, "candidate {candidate}");
                assert_eq!(
                    g.speculate_bitset(&candidate.to_bitset()),
                    direct,
                    "candidate {candidate}"
                );
                assert_eq!(
                    g.addition_increases_dmin(candidate),
                    direct,
                    "candidate {candidate}"
                );
            }
        }
    }

    #[test]
    fn empty_machine_set_has_zero_weights() {
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::with_representation(5, repr);
            assert_eq!(g.dmin(), 0);
            assert_eq!(g.num_edges(), 10);
            assert_eq!(g.weakest_edges().len(), 10);
            assert_eq!(g.weight_histogram().get(&0), Some(&10));
        }
    }

    #[test]
    fn single_state_top_tolerates_everything() {
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::with_representation(1, repr);
            assert_eq!(g.dmin(), u32::MAX);
            assert!(g.tolerates_crash_faults(100));
            assert!(g.tolerates_byzantine_faults(100));
            assert!(g.weakest_edges().is_empty());
            // With no edges, dmin is already maximal: speculation is negative.
            assert!(!g.speculate(&Partition::singletons(1)));
        }
    }

    #[test]
    fn weight_is_symmetric_and_diagonal_is_max() {
        let (a, b, _, _) = fig3_partitions();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(4, &[a.clone(), b.clone()], repr);
            for i in 0..4 {
                for j in 0..4 {
                    if i == j {
                        assert_eq!(g.weight(i, j), u32::MAX);
                    } else {
                        assert_eq!(g.weight(i, j), g.weight(j, i));
                    }
                }
            }
        }
    }

    #[test]
    fn edges_with_weight_filters() {
        let (a, _, _, _) = fig3_partitions();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let g = FaultGraph::from_partitions_with(4, std::slice::from_ref(&a), repr);
            assert_eq!(g.edges_with_weight(0), vec![(0, 3)]);
            assert_eq!(g.edges_with_weight(1).len(), 5);
            assert_eq!(g.edges_with_weight_at_most(1).len(), 6);
            let h = g.weight_histogram();
            assert_eq!(h[&0], 1);
            assert_eq!(h[&1], 5);
        }
    }

    #[test]
    fn bitset_add_machine_matches_scan_across_word_boundaries() {
        // 70 states spans two u64 words; mod-3 blocks interleave across the
        // boundary, exercising the first/last-word masking and the stripe
        // split.
        let n = 70;
        let assignment: Vec<usize> = (0..n).map(|x| x % 3).collect();
        let p = Partition::from_assignment(&assignment);
        let singles = Partition::singletons(n);
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let mut word = FaultGraph::with_representation(n, repr);
            word.add_machine(&p);
            word.add_machine_bitset(&singles.to_bitset());
            let mut scan = FaultGraph::with_representation(n, repr);
            scan.add_machine_scan(&p);
            scan.add_machine_scan(&singles);
            assert_eq!(word.num_machines(), scan.num_machines());
            for i in 0..n {
                for j in (i + 1)..n {
                    assert_eq!(word.weight(i, j), scan.weight(i, j), "edge ({i},{j})");
                }
            }
            assert_eq!(word.dmin(), scan.dmin());
            assert_eq!(word.weight_histogram(), scan.weight_histogram());
        }
    }

    #[test]
    fn incremental_trackers_match_full_scans() {
        // Interleave tracked adds and queries; the cached dmin and striped
        // weakest edges must match the full rescans at every step, in both
        // representations.
        let n = 70;
        let machines: Vec<Partition> = (0..4)
            .map(|k| {
                Partition::from_assignment(&(0..n).map(|x| (x + k) % (k + 2)).collect::<Vec<_>>())
            })
            .collect();
        for repr in [WeightRepr::Dense, WeightRepr::Sparse] {
            let mut g = FaultGraph::with_representation(n, repr);
            for p in &machines {
                g.add_machine(p);
                assert_eq!(g.dmin(), g.dmin_scan());
                assert_eq!(g.weakest_edges(), g.weakest_edges_scan());
            }
            // And after a bulk build.
            let bulk = FaultGraph::from_partitions_with(n, &machines, repr);
            assert_eq!(bulk.dmin(), g.dmin());
            assert_eq!(bulk.weakest_edges(), g.weakest_edges());
        }
    }

    #[test]
    fn sparse_and_dense_agree_on_every_observable() {
        let n = 70;
        let machines: Vec<Partition> = (0..5)
            .map(|k| {
                Partition::from_assignment(
                    &(0..n).map(|x| (x * (k + 1)) % (k + 2)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut dense = FaultGraph::with_representation(n, WeightRepr::Dense);
        let mut sparse = FaultGraph::with_representation(n, WeightRepr::Sparse);
        for p in &machines {
            dense.add_machine(p);
            sparse.add_machine(p);
            assert_eq!(dense.dmin(), sparse.dmin());
            assert_eq!(dense.weakest_edges(), sparse.weakest_edges());
            assert_eq!(dense.weight_histogram(), sparse.weight_histogram());
            for w in 0..=dense.num_machines() as u32 {
                assert_eq!(dense.edges_with_weight(w), sparse.edges_with_weight(w));
                assert_eq!(
                    dense.edges_with_weight_at_most(w),
                    sparse.edges_with_weight_at_most(w)
                );
            }
        }
    }

    #[test]
    fn clone_from_across_representations() {
        let (a, b, _, _) = fig3_partitions();
        let dense = FaultGraph::from_partitions_with(4, &[a.clone(), b.clone()], WeightRepr::Dense);
        let sparse = FaultGraph::from_partitions_with(4, &[a, b], WeightRepr::Sparse);
        let mut g = dense.clone();
        g.clone_from(&sparse);
        assert_eq!(g.representation(), WeightRepr::Sparse);
        assert_eq!(g.dmin(), sparse.dmin());
        g.clone_from(&dense);
        assert_eq!(g.representation(), WeightRepr::Dense);
        assert_eq!(g.weakest_edges(), dense.weakest_edges());
    }

    #[test]
    fn auto_repr_crossover() {
        // Fine partitions over a big-enough graph go sparse; coarse ones
        // (big blocks → dense deficits) and small graphs stay dense.
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 10, 100),
            WeightRepr::Sparse
        );
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 999, 100),
            WeightRepr::Dense
        );
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 125, 100),
            WeightRepr::Sparse
        );
        assert_eq!(
            WeightRepr::auto_for_estimate(1000, 126, 100),
            WeightRepr::Dense
        );
        // Below the edge floor the estimate is irrelevant.
        assert_eq!(WeightRepr::auto_for_estimate(99, 0, 100), WeightRepr::Dense);
        // The public selector: singletons separate everything (estimate 0),
        // but 4 states is far below the production floor.
        let fine = vec![Partition::singletons(4)];
        assert_eq!(WeightRepr::auto_for(4, &fine), WeightRepr::Dense);
    }

    #[test]
    fn theorem2_example_from_paper_text() {
        // The paper's Section 3 example: {A,B,M1,M2} has dmin = 3, so it
        // tolerates two crash faults but only one Byzantine fault.
        let (a, b, m1, m2) = fig3_partitions();
        let g = FaultGraph::from_partitions(4, &[a, b, m1, m2]);
        assert_eq!(g.max_crash_faults(), 2);
        assert_eq!(g.max_byzantine_faults(), 1);
    }
}
