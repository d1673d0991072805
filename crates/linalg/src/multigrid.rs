//! Smoothed-aggregation multigrid for the structured finite-volume grids.
//!
//! The FEM reference solvers assemble symmetric positive-definite systems
//! on tensor-product grids — axisymmetric `(r, z)` and Cartesian
//! `(x, y, z)` — whose face conductances are wildly anisotropic (thin
//! device sheets, huge outer-ring areas, 400 : 1.4 conductivity jumps).
//! Coarsening therefore follows the *matrix*, not the index space:
//! aggregates are grown greedily along strong connections
//! (`|a_ij| ≥ θ·max_{k≠i}|a_ik|`, θ = 0.25), which on these grids
//! automatically does semi-coarsening along the stiff direction. Every
//! level's tentative piecewise-constant prolongator is damped by one Jacobi
//! sweep on the strength-filtered operator (`P = (I − ω_P·D⁻¹·A_F)·P_tent`,
//! ω_P = 2/3: smoothed aggregation), restriction is the transpose, and
//! every coarse operator is the Galerkin product `Pᵀ·A·P` — so the whole
//! hierarchy stays SPD. Coarsening stops at 48 unknowns (or 12 levels),
//! where the coarsest operator is factorized densely. Smoothing is one
//! weighted-Jacobi sweep (ω = 0.7) before and one after coarse correction,
//! so one V-cycle stays a symmetric positive-definite operator: a valid
//! [`Preconditioner`] for [`solve_pcg`](crate::solve_pcg) and a convergent
//! standalone iteration (energy-norm contraction).
//!
//! This is the only configuration. The alternatives were measured and
//! retired: a degree-3 Chebyshev smoother cost ≈ 2.4× a Jacobi V-cycle
//! without saving enough PCG iterations on any grid the FEM assembles, and
//! plain (unsmoothed) aggregation needed ≈ 2.5× the PCG iterations of
//! smoothed aggregation on the 32 k-cell box (65 vs 26).
//!
//! # Setup amortization
//!
//! The expensive part of smoothed aggregation is the *pattern* work:
//! strength classification, aggregation, prolongator/Galerkin sparsity
//! discovery, and the transpose adjacency. All of it depends only on the
//! sparsity pattern plus the build-time strength classification, so it
//! lives in a reusable [`MultigridHierarchy`]. When the matrix values
//! change but the pattern does not (Picard re-linearization, parameter
//! sweeps over one mesh), [`MultigridHierarchy::refresh`] re-computes only
//! the numeric content — prolongator weights, Galerkin triple products on
//! the fixed sparsity, Jacobi diagonals, and the coarsest dense
//! factorization — without re-aggregating anything. The triple products
//! themselves run over per-level *flat contraction lists* frozen at the
//! first refresh: every stored value of `T = A·P` and `A_c = Pᵀ·T` carries
//! the flat index pairs into its source value arrays, so a refresh is a
//! set of branch-free multiply-add sweeps (threaded once a list passes
//! 2¹⁶ pairs) instead of hashed scatter accumulation — same bits, a
//! fraction of the time.
//!
//! On the finest level the smoothing sweeps and residual computations are
//! row-chunked across scoped threads once the grid passes 2¹⁶ unknowns;
//! every row is computed by the same arithmetic regardless of the
//! chunking, so threaded and serial V-cycles produce identical results.

use std::cell::RefCell;

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::precond::Preconditioner;
use crate::sparse::CsrMatrix;

/// Maximum hierarchy depth including the coarsest level.
const MAX_LEVELS: usize = 12;
/// Coarsening stops once a level has at most this many unknowns; that
/// level is factorized densely and solved exactly.
const COARSEST_SIZE: usize = 48;
/// Weighted-Jacobi sweeps before restriction and again after prolongation
/// (one count for both keeps the V-cycle symmetric, as CG requires).
const SMOOTHING_SWEEPS: usize = 1;
/// Jacobi damping factor `ω ∈ (0, 1]`.
const JACOBI_WEIGHT: f64 = 0.7;
/// Prolongator damping factor `ω_P` of the smoothed aggregation (2/3 is
/// the classical choice for stencils with `ρ(D⁻¹A) ≈ 2`).
const PROLONGATOR_WEIGHT: f64 = 2.0 / 3.0;
/// Strength-of-connection threshold `θ`: `j` is a strong neighbour of `i`
/// when `|a_ij| ≥ θ·max_{k≠i}|a_ik|`. Relative to the row maximum (not the
/// diagonal), so every non-isolated node keeps at least one strong
/// neighbour and coarsening can never stall.
const STRENGTH_THRESHOLD: f64 = 0.25;
/// Finest-level unknown count (and, for the Galerkin refresh sweeps,
/// contraction pair count) at which sweeps start running on scoped worker
/// threads. Each sweep spawns its own scoped threads, so threading only
/// pays once per-sweep work dwarfs the spawn cost — measured break-even is
/// ≈3·10⁴ unknowns on an 8-core box.
const PARALLEL_THRESHOLD: usize = 65_536;

// ---------------------------------------------------------------------------
// Threaded row-chunk helpers
// ---------------------------------------------------------------------------

/// Worker count for a level of `n` unknowns under `threshold`.
fn thread_count(n: usize, threshold: usize) -> usize {
    if n < threshold.max(1) {
        return 1;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
        .min(n)
}

/// Splits `out` into `threads` contiguous chunks and runs
/// `op(first_row, chunk)` on scoped threads. Each row of `out` is written
/// by exactly the same arithmetic as in the serial case, so the result is
/// identical bit for bit regardless of `threads`.
fn par_rows<F: Fn(usize, &mut [f64]) + Sync>(out: &mut [f64], threads: usize, op: F) {
    if threads <= 1 || out.len() < 2 * threads {
        op(0, out);
        return;
    }
    let chunk = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, part) in out.chunks_mut(chunk).enumerate() {
            let op = &op;
            scope.spawn(move || op(ci * chunk, part));
        }
    });
}

/// `y = A·x`, row-chunked over `threads`.
fn matvec_threaded(a: &CsrMatrix, x: &[f64], y: &mut [f64], threads: usize) {
    par_rows(y, threads, |start, chunk| a.matvec_range(x, chunk, start));
}

// ---------------------------------------------------------------------------
// Sparse setup kernels
// ---------------------------------------------------------------------------

/// A sparse operator stored by row (prolongators and intermediates); the
/// trimmed-down cousin of [`CsrMatrix`] used by the setup kernels.
#[derive(Debug, Clone, Default)]
struct RowMatrix {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
    cols: usize,
}

impl RowMatrix {
    #[inline]
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col[lo..hi]
            .iter()
            .zip(&self.val[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// `rc = selfᵀ·r` (restriction when `self` is the prolongator).
    fn transpose_mul(&self, r: &[f64], rc: &mut [f64]) {
        rc.fill(0.0);
        for i in 0..r.len() {
            let ri = r[i];
            for (c, p) in self.row(i) {
                rc[c] += p * ri;
            }
        }
    }

    /// `z += self·zc` (prolongation).
    fn mul_add(&self, zc: &[f64], z: &mut [f64]) {
        for i in 0..z.len() {
            let mut acc = 0.0;
            for (c, p) in self.row(i) {
                acc += p * zc[c];
            }
            z[i] += acc;
        }
    }
}

/// Scatter accumulator for building sparse rows without sorting the whole
/// entry list: `mark` remembers which columns are live in the current row.
struct Scatter {
    dense: Vec<f64>,
    mark: Vec<u32>,
    stamp: u32,
    cols: Vec<usize>,
}

impl Scatter {
    fn new(n: usize) -> Self {
        Self {
            dense: vec![0.0; n],
            mark: vec![0; n],
            stamp: 0,
            cols: Vec::new(),
        }
    }

    #[inline]
    fn begin_row(&mut self) {
        self.stamp += 1;
        self.cols.clear();
    }

    #[inline]
    fn add(&mut self, col: usize, v: f64) {
        if self.mark[col] != self.stamp {
            self.mark[col] = self.stamp;
            self.dense[col] = v;
            self.cols.push(col);
        } else {
            self.dense[col] += v;
        }
    }

    /// Drains the current row into `(col, val)` pushes, columns sorted.
    fn flush(&mut self, col_out: &mut Vec<usize>, val_out: &mut Vec<f64>) {
        self.cols.sort_unstable();
        for &c in &self.cols {
            col_out.push(c);
            val_out.push(self.dense[c]);
        }
    }
}

/// Largest off-diagonal magnitude per row (the strength reference).
fn row_max_offdiag(a: &CsrMatrix) -> Vec<f64> {
    (0..a.rows())
        .map(|i| {
            a.row_entries(i)
                .filter(|&(j, _)| j != i)
                .fold(0.0f64, |m, (_, v)| m.max(v.abs()))
        })
        .collect()
}

/// Per-stored-entry strength classification: entry `e = (i, j)` is strong
/// when `j ≠ i` and `|a_ij| ≥ θ·max_{k≠i}|a_ik|`. Computed once at build
/// time and reused verbatim by every numeric refresh so the prolongator
/// pattern stays fixed.
fn strong_connections(a: &CsrMatrix, theta: f64) -> Vec<bool> {
    let row_max = row_max_offdiag(a);
    let mut strong = vec![false; a.values().len()];
    for i in 0..a.rows() {
        let (lo, hi) = a.row_range(i);
        for e in lo..hi {
            let j = a.col_indices()[e];
            let v = a.values()[e];
            strong[e] = j != i && row_max[i] > 0.0 && v.abs() >= theta * row_max[i];
        }
    }
    strong
}

/// Greedy strength-based aggregation (the classical smoothed-aggregation
/// three-pass scheme). Returns the aggregate id per unknown and the
/// aggregate count.
fn aggregate(a: &CsrMatrix, strong: &[bool]) -> (Vec<usize>, usize) {
    let n = a.rows();
    let entries = |i: usize| {
        let (lo, hi) = a.row_range(i);
        (lo..hi).map(move |e| (a.col_indices()[e], strong[e], a.values()[e]))
    };

    const UNASSIGNED: usize = usize::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let mut count = 0;

    // Pass 1: a node with no aggregated strong neighbour seeds a new
    // aggregate containing its whole strong neighbourhood.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut blocked = false;
        for (j, s, _) in entries(i) {
            if s && agg[j] != UNASSIGNED {
                blocked = true;
                break;
            }
        }
        if blocked {
            continue;
        }
        agg[i] = count;
        for (j, s, _) in entries(i) {
            if s {
                agg[j] = count;
            }
        }
        count += 1;
    }

    // Pass 2: leftover nodes join the aggregate of their strongest
    // aggregated neighbour.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (j, s, v) in entries(i) {
            if s && agg[j] != UNASSIGNED {
                let w = v.abs();
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, agg[j]));
                }
            }
        }
        if let Some((_, id)) = best {
            agg[i] = id;
        }
    }

    // Pass 2b: nodes still alone (their strong neighbours were also
    // unaggregated) join their largest-magnitude assigned neighbour, strong
    // or not — this bounds the coarsening ratio away from 1.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (j, _, v) in entries(i) {
            if j != i && agg[j] != UNASSIGNED {
                let w = v.abs();
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, agg[j]));
                }
            }
        }
        if let Some((_, id)) = best {
            agg[i] = id;
        }
    }

    // Pass 3: whatever is left (isolated nodes) becomes singletons grown
    // over their still-unassigned strong neighbours.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        agg[i] = count;
        for (j, s, _) in entries(i) {
            if s && agg[j] == UNASSIGNED {
                agg[j] = count;
            }
        }
        count += 1;
    }

    (agg, count)
}

/// Builds the smoothed prolongator `P = (I − ω_P·D⁻¹·A_F)·P_tent`, where
/// `A_F` is the strength-filtered operator (weak off-diagonals lumped onto
/// the diagonal — the standard stabilization for anisotropic problems).
/// [`ProlongatorRefresh::refresh`] reproduces these values bit for bit.
fn build_prolongator(
    a: &CsrMatrix,
    strong: &[bool],
    agg: &[usize],
    n_agg: usize,
    inv_diag: &[f64],
) -> RowMatrix {
    let n = a.rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0);
    let mut scatter = Scatter::new(n_agg);
    for i in 0..n {
        scatter.begin_row();
        // Filtered row: strong entries kept, weak ones lumped onto the
        // diagonal; then one damped Jacobi sweep applied to P_tent.
        let mut lumped_diag = 0.0;
        let (lo, hi) = a.row_range(i);
        for e in lo..hi {
            let (j, v) = (a.col_indices()[e], a.values()[e]);
            if strong[e] {
                scatter.add(agg[j], -PROLONGATOR_WEIGHT * inv_diag[i] * v);
            } else {
                lumped_diag += v; // diagonal and weak off-diagonals
            }
        }
        scatter.add(agg[i], 1.0 - PROLONGATOR_WEIGHT * inv_diag[i] * lumped_diag);
        scatter.flush(&mut col, &mut val);
        row_ptr.push(col.len());
    }
    RowMatrix {
        row_ptr,
        col,
        val,
        cols: n_agg,
    }
}

/// Flat refresh data for the smoothed prolongator, frozen at the first
/// refresh from the build-time pattern: every stored `P` value knows the
/// strong `A`-entry sources that feed it (in row-traversal order), every
/// fine row knows its weak/diagonal sources (the lumped term) and which
/// `P` slot is its `agg[i]` entry — so a refresh is gather–multiply–add
/// sweeps with no scatter row and no per-entry strength branch.
#[derive(Debug, Clone, Default)]
struct ProlongatorRefresh {
    /// `ptr[k]..ptr[k + 1]` bounds P value `k`'s strong-source range.
    ptr: Vec<usize>,
    /// Flat indices into `a.values()`, per strong source.
    src: Vec<u32>,
    /// `lump_ptr[i]..lump_ptr[i + 1]` bounds row `i`'s weak sources
    /// (diagonal and weak off-diagonals, lumped).
    lump_ptr: Vec<usize>,
    /// Flat indices into `a.values()`, per weak source.
    lump_src: Vec<u32>,
    /// Per fine row: flat P index of the `agg[i]` (diagonal-slot) entry.
    diag_slot: Vec<u32>,
}

impl ProlongatorRefresh {
    /// Freezes the source lists from the build-time strength/aggregation
    /// pattern. Every strong connection of row `i` has its destination
    /// `agg[j]` in `P`'s row `i` (that is how [`build_prolongator`] made
    /// the pattern), so each lookup through `pos` hits a live slot.
    fn build(a: &CsrMatrix, strong: &[bool], agg: &[usize], p: &RowMatrix) -> Self {
        let n = a.rows();
        let nnz_p = p.val.len();
        let strong_total = strong.iter().filter(|&&s| s).count();
        let mut ptr = vec![0usize; nnz_p + 1];
        let mut src = vec![0u32; strong_total];
        let mut lump_ptr = vec![0usize; n + 1];
        let mut lump_src = vec![0u32; strong.len() - strong_total];
        let mut pos = vec![usize::MAX; p.cols];
        let mut diag_slot = vec![0u32; n];
        let mut lump_cursor = 0;
        // Row-local two-pass (count, then place) — see
        // `build_t_contraction`.
        for i in 0..n {
            let (plo, phi) = (p.row_ptr[i], p.row_ptr[i + 1]);
            for k in plo..phi {
                pos[p.col[k]] = k;
            }
            diag_slot[i] = contraction_index(pos[agg[i]]);
            let (lo, hi) = a.row_range(i);
            for e in lo..hi {
                if strong[e] {
                    ptr[pos[agg[a.col_indices()[e]]] + 1] += 1;
                }
            }
            for k in plo..phi {
                ptr[k + 1] += ptr[k];
            }
            for e in lo..hi {
                if strong[e] {
                    let dst = pos[agg[a.col_indices()[e]]];
                    src[ptr[dst]] = contraction_index(e);
                    ptr[dst] += 1;
                } else {
                    lump_src[lump_cursor] = contraction_index(e);
                    lump_cursor += 1;
                }
            }
            lump_ptr[i + 1] = lump_cursor;
        }
        for k in (1..=nnz_p).rev() {
            ptr[k] = ptr[k - 1];
        }
        ptr[0] = 0;
        Self {
            ptr,
            src,
            lump_ptr,
            lump_src,
            diag_slot,
        }
    }

    /// Re-computes the prolongator values on the fixed pattern — the same
    /// per-slot accumulation order (and therefore the same bits) as the
    /// scatter-based [`build_prolongator`] numeric path.
    fn refresh(&self, a_vals: &[f64], inv_diag: &[f64], p: &mut RowMatrix) {
        for (i, &inv) in inv_diag.iter().enumerate() {
            let neg = -PROLONGATOR_WEIGHT * inv;
            let (plo, phi) = (p.row_ptr[i], p.row_ptr[i + 1]);
            for k in plo..phi {
                let (lo, hi) = (self.ptr[k], self.ptr[k + 1]);
                let mut acc = 0.0;
                for &e in &self.src[lo..hi] {
                    acc += neg * a_vals[e as usize];
                }
                p.val[k] = acc;
            }
            let (llo, lhi) = (self.lump_ptr[i], self.lump_ptr[i + 1]);
            let mut lumped_diag = 0.0;
            for &e in &self.lump_src[llo..lhi] {
                lumped_diag += a_vals[e as usize];
            }
            p.val[self.diag_slot[i] as usize] += 1.0 - PROLONGATOR_WEIGHT * inv * lumped_diag;
        }
    }
}

/// Builds `T = A·P` (pattern and values) row by row.
fn build_t(a: &CsrMatrix, p: &RowMatrix) -> RowMatrix {
    let n = a.rows();
    let mut t = RowMatrix {
        row_ptr: Vec::with_capacity(n + 1),
        col: Vec::new(),
        val: Vec::new(),
        cols: p.cols,
    };
    t.row_ptr.push(0);
    let mut scatter = Scatter::new(p.cols);
    for i in 0..n {
        scatter.begin_row();
        for (j, a_ij) in a.row_entries(i) {
            for (c, p_jc) in p.row(j) {
                scatter.add(c, a_ij * p_jc);
            }
        }
        scatter.flush(&mut t.col, &mut t.val);
        t.row_ptr.push(t.col.len());
    }
    t
}

/// A frozen contraction list for one sparse product: for every stored
/// value of the destination matrix, the flat indices of the source-value
/// pairs whose products accumulate into it, in exactly the order the
/// scatter-based build visits them. Numeric refresh of the Galerkin triple
/// product then needs no column hashing and no dense scatter row — each
/// output entry is an independent multiply-add reduction
/// `out[k] = Σ_q a_vals[src_a[q]] · b_vals[src_b[q]]`, so the sweep
/// row-chunks across scoped threads without changing a single bit.
#[derive(Debug, Clone, Default)]
struct ContractionList {
    /// `ptr[k]..ptr[k + 1]` bounds entry `k`'s pair range.
    ptr: Vec<usize>,
    /// Flat index into the left source's value array, per pair.
    src_a: Vec<u32>,
    /// Flat index into the right source's value array, per pair.
    src_b: Vec<u32>,
}

impl ContractionList {
    /// Total source pairs (the sweep's work measure, used to decide
    /// whether threading pays).
    fn pairs(&self) -> usize {
        self.src_a.len()
    }

    /// Recomputes every destination value from the frozen pair lists.
    /// Contributions to one entry run in list order, so the output is
    /// identical bit for bit regardless of `threads`; entries with an
    /// empty pair range (the mirrored lower triangle of a symmetric
    /// product) come out as `0.0` and are filled by the caller's mirror
    /// pass. The pair slices iterate by `zip` so the index streams stay
    /// bounds-check-free — only the two value gathers are checked.
    fn contract(&self, a_vals: &[f64], b_vals: &[f64], out: &mut [f64], threads: usize) {
        let (ptr, src_a, src_b) = (&self.ptr, &self.src_a, &self.src_b);
        par_rows(out, threads, |start, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                let e = start + k;
                let (lo, hi) = (ptr[e], ptr[e + 1]);
                let mut acc = 0.0;
                for (&ia, &ib) in src_a[lo..hi].iter().zip(&src_b[lo..hi]) {
                    acc += a_vals[ia as usize] * b_vals[ib as usize];
                }
                *o = acc;
            }
        });
    }
}

/// Asserts the flat-index domain fits the `u32` contraction storage (a
/// level would need > 4·10⁹ stored values to overflow — far beyond
/// anything the dense-coarsest guard admits).
fn contraction_index(k: usize) -> u32 {
    u32::try_from(k).expect("contraction source index exceeds u32 — matrix is implausibly large")
}

/// Freezes the contraction list of `T = A·P` on its discovered pattern:
/// pair `(e, kp)` with `col(e) = j` contributes `a[e]·p[kp]` to
/// `T[i, p.col[kp]]`. The two-pass build (count, then place) keeps pairs
/// grouped by destination in traversal order.
fn build_t_contraction(a: &CsrMatrix, p: &RowMatrix, t: &RowMatrix) -> ContractionList {
    let nnz = t.val.len();
    let total_pairs: usize = (0..a.rows())
        .map(|i| {
            let (lo, hi) = a.row_range(i);
            (lo..hi)
                .map(|e| {
                    let j = a.col_indices()[e];
                    p.row_ptr[j + 1] - p.row_ptr[j]
                })
                .sum::<usize>()
        })
        .sum();
    let mut ptr = vec![0usize; nnz + 1];
    let mut src_a = vec![0u32; total_pairs];
    let mut src_b = vec![0u32; total_pairs];
    let mut pos = vec![usize::MAX; p.cols];
    // Row-local two-pass (count, then place): destinations are grouped per
    // row, so `ptr` grows in order and both passes hit cache-hot row data.
    for i in 0..a.rows() {
        let (tlo, thi) = (t.row_ptr[i], t.row_ptr[i + 1]);
        for k in tlo..thi {
            pos[t.col[k]] = k;
        }
        let (lo, hi) = a.row_range(i);
        for e in lo..hi {
            let j = a.col_indices()[e];
            for kp in p.row_ptr[j]..p.row_ptr[j + 1] {
                ptr[pos[p.col[kp]] + 1] += 1;
            }
        }
        for k in tlo..thi {
            ptr[k + 1] += ptr[k];
        }
        for e in lo..hi {
            let j = a.col_indices()[e];
            for kp in p.row_ptr[j]..p.row_ptr[j + 1] {
                let dst = pos[p.col[kp]];
                src_a[ptr[dst]] = contraction_index(e);
                src_b[ptr[dst]] = contraction_index(kp);
                ptr[dst] += 1;
            }
        }
    }
    // The place pass advanced each `ptr[k]` to its range end; shift back.
    for k in (1..=nnz).rev() {
        ptr[k] = ptr[k - 1];
    }
    ptr[0] = 0;
    ContractionList { ptr, src_a, src_b }
}

/// Freezes the contraction list of `A_c = Pᵀ·T`: pair `(pt_idx[k], kt)`
/// over coarse row `c` contributes `p[pt_idx[k]]·t[kt]` to
/// `A_c[c, t.col[kt]]`, in the transpose-adjacency order the scatter
/// kernel walks.
///
/// The Galerkin operator is exactly symmetric (SPD `A`, restriction =
/// prolongation transpose), so only the upper triangle (`cj ≥ c`) gets
/// pair lists — roughly halving the sweep — and the returned
/// `(lower, upper)` mirror pairs copy the strictly-lower entries from
/// their transposes afterwards. [`MultigridHierarchy::build`] runs the
/// same contract-and-mirror path, so build and refresh stay bit-identical.
fn build_coarse_contraction(
    t: &RowMatrix,
    pt_ptr: &[usize],
    pt_row: &[usize],
    pt_idx: &[usize],
    coarse: &CsrMatrix,
) -> ContractionList {
    let nnz = coarse.values().len();
    let total_pairs: usize = (0..coarse.rows())
        .map(|c| {
            (pt_ptr[c]..pt_ptr[c + 1])
                .map(|k| {
                    let i = pt_row[k];
                    (t.row_ptr[i]..t.row_ptr[i + 1])
                        .filter(|&kt| t.col[kt] >= c)
                        .count()
                })
                .sum::<usize>()
        })
        .sum();
    let mut ptr = vec![0usize; nnz + 1];
    let mut src_a = vec![0u32; total_pairs];
    let mut src_b = vec![0u32; total_pairs];
    let mut pos = vec![usize::MAX; coarse.cols()];
    // Row-local two-pass (count, then place) — see `build_t_contraction`.
    for c in 0..coarse.rows() {
        let (clo, chi) = coarse.row_range(c);
        for e in clo..chi {
            pos[coarse.col_indices()[e]] = e;
        }
        for k in pt_ptr[c]..pt_ptr[c + 1] {
            let i = pt_row[k];
            for kt in t.row_ptr[i]..t.row_ptr[i + 1] {
                if t.col[kt] >= c {
                    ptr[pos[t.col[kt]] + 1] += 1;
                }
            }
        }
        for e in clo..chi {
            ptr[e + 1] += ptr[e];
        }
        for k in pt_ptr[c]..pt_ptr[c + 1] {
            let i = pt_row[k];
            let p_src = contraction_index(pt_idx[k]);
            for kt in t.row_ptr[i]..t.row_ptr[i + 1] {
                let cj = t.col[kt];
                if cj >= c {
                    let dst = pos[cj];
                    src_a[ptr[dst]] = p_src;
                    src_b[ptr[dst]] = contraction_index(kt);
                    ptr[dst] += 1;
                }
            }
        }
    }
    for k in (1..=nnz).rev() {
        ptr[k] = ptr[k - 1];
    }
    ptr[0] = 0;
    ContractionList { ptr, src_a, src_b }
}

/// `(lower, upper)` flat-index pairs of the structurally symmetric
/// Galerkin pattern: every strictly-lower entry paired with its
/// transpose, so [`apply_mirror`] can copy the contracted upper triangle
/// down.
fn mirror_pairs(coarse: &CsrMatrix) -> Vec<(u32, u32)> {
    let mut mirror = Vec::new();
    for c in 0..coarse.rows() {
        let (clo, chi) = coarse.row_range(c);
        for e in clo..chi {
            let cj = coarse.col_indices()[e];
            if cj < c {
                // Locate the transpose entry (cj, c) — the pattern is
                // structurally symmetric, so it exists.
                let (mlo, mhi) = coarse.row_range(cj);
                let cols = &coarse.col_indices()[mlo..mhi];
                let off = cols
                    .binary_search(&c)
                    .expect("Galerkin pattern must be structurally symmetric");
                mirror.push((contraction_index(e), contraction_index(mlo + off)));
            }
        }
    }
    mirror
}

/// Copies every strictly-lower Galerkin entry from its transpose (the
/// upper-triangle value the contraction sweep just produced).
fn apply_mirror(mirror: &[(u32, u32)], vals: &mut [f64]) {
    for &(lower, upper) in mirror {
        vals[lower as usize] = vals[upper as usize];
    }
}

/// Flat indices of each row's diagonal entry, frozen at build time so a
/// refresh reads the Jacobi diagonal with one gather instead of a row
/// scan.
fn diagonal_indices(a: &CsrMatrix) -> Vec<u32> {
    (0..a.rows())
        .map(|i| {
            let (lo, hi) = a.row_range(i);
            let cols = &a.col_indices()[lo..hi];
            let off = cols
                .binary_search(&i)
                .expect("multigrid operators store their diagonal");
            contraction_index(lo + off)
        })
        .collect()
}

/// Refreshes `inv_diag` in place through the frozen diagonal indices —
/// the same `1.0 / d` per row as [`jacobi_inverse_diagonal`], minus the
/// row scans and allocations.
fn refresh_inverse_diagonal(
    a_vals: &[f64],
    diag_idx: &[u32],
    inv_diag: &mut [f64],
) -> Result<(), LinalgError> {
    for (inv, &e) in inv_diag.iter_mut().zip(diag_idx) {
        let d = a_vals[e as usize];
        if d == 0.0 {
            return Err(LinalgError::InvalidInput {
                reason: "multigrid smoothing requires a nonzero diagonal".to_string(),
            });
        }
        *inv = 1.0 / d;
    }
    Ok(())
}

/// Transpose adjacency of `P`: for every coarse column `c`, the fine rows
/// that reference it and the index of the corresponding stored value —
/// so refreshed `P` values are read through the same adjacency.
fn transpose_adjacency(p: &RowMatrix, n_rows: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let nc = p.cols;
    let mut pt_ptr = vec![0usize; nc + 1];
    for &c in &p.col {
        pt_ptr[c + 1] += 1;
    }
    for c in 0..nc {
        pt_ptr[c + 1] += pt_ptr[c];
    }
    let mut pt_row = vec![0usize; p.col.len()];
    let mut pt_idx = vec![0usize; p.col.len()];
    let mut cursor = pt_ptr.clone();
    for i in 0..n_rows {
        for k in p.row_ptr[i]..p.row_ptr[i + 1] {
            let c = p.col[k];
            pt_row[cursor[c]] = i;
            pt_idx[cursor[c]] = k;
            cursor[c] += 1;
        }
    }
    (pt_ptr, pt_row, pt_idx)
}

/// Builds the Galerkin coarse operator `A_c = Pᵀ·T` (pattern and values).
fn build_coarse(
    p: &RowMatrix,
    t: &RowMatrix,
    pt_ptr: &[usize],
    pt_row: &[usize],
    pt_idx: &[usize],
) -> CsrMatrix {
    let nc = p.cols;
    let mut row_ptr = Vec::with_capacity(nc + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0);
    let mut scatter = Scatter::new(nc);
    for c in 0..nc {
        scatter.begin_row();
        for k in pt_ptr[c]..pt_ptr[c + 1] {
            let (i, p_ic) = (pt_row[k], p.val[pt_idx[k]]);
            for (cj, t_icj) in t.row(i) {
                scatter.add(cj, p_ic * t_icj);
            }
        }
        scatter.flush(&mut col, &mut val);
        row_ptr.push(col.len());
    }
    CsrMatrix::from_parts(nc, nc, row_ptr, col, val)
}

fn jacobi_inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, LinalgError> {
    let diag = a.diagonal();
    if diag.contains(&0.0) {
        return Err(LinalgError::InvalidInput {
            reason: "multigrid smoothing requires a nonzero diagonal".to_string(),
        });
    }
    Ok(diag.iter().map(|d| 1.0 / d).collect())
}

// ---------------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------------

/// One fine level of the hierarchy: its operator and Jacobi diagonal, the
/// build-time aggregation/strength pattern, and the fixed-sparsity
/// intermediates (`P`, `T = A·P`, and the flat contraction lists of both
/// Galerkin products) that make numeric refreshes cheap.
#[derive(Debug, Clone)]
struct Level {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    /// Strength classification per stored entry of `a`, frozen at build
    /// time (feeds the lazily built prolongator-refresh lists).
    strong: Vec<bool>,
    /// Aggregate id per unknown, frozen at build time.
    agg: Vec<usize>,
    /// Flat prolongator-refresh lists; `None` until the first refresh
    /// needs them (rebuild-only callers never pay for them).
    p_refresh: Option<ProlongatorRefresh>,
    p: RowMatrix,
    t: RowMatrix,
    /// Flat contraction list of `T = A·P` (pairs into `a.values`/`p.val`),
    /// frozen at the first refresh so every refresh is a branch-free FMA
    /// sweep.
    t_list: ContractionList,
    /// Flat contraction list of `A_c = Pᵀ·T` (pairs into `p.val`/`t.val`),
    /// upper triangle only.
    coarse_list: ContractionList,
    /// `(lower, upper)` flat-index pairs mirroring the Galerkin upper
    /// triangle onto the strictly-lower entries.
    coarse_mirror: Vec<(u32, u32)>,
    /// Flat index of each row's diagonal entry in `a`.
    diag_idx: Vec<u32>,
}

/// Per-level work vectors, reused across V-cycles.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Right-hand side per level (`rhs[0]` is a copy of the input residual).
    rhs: Vec<Vec<f64>>,
    /// Correction per level (`z[levels]` is the coarsest solution).
    z: Vec<Vec<f64>>,
    /// Residual scratch per fine level.
    res: Vec<Vec<f64>>,
}

impl Scratch {
    fn for_levels(levels: &[Level], coarsest: usize) -> Self {
        let mut scratch = Scratch::default();
        for level in levels {
            scratch.rhs.push(vec![0.0; level.a.rows()]);
            scratch.z.push(vec![0.0; level.a.rows()]);
            scratch.res.push(vec![0.0; level.a.rows()]);
        }
        scratch.rhs.push(vec![0.0; coarsest]); // coarsest right-hand side
        scratch.z.push(vec![0.0; coarsest]); // coarsest solution
        scratch
    }
}

/// The reusable setup of a smoothed-aggregation multigrid V-cycle:
/// aggregates, smoothed prolongators, Galerkin coarse operators, Jacobi
/// diagonals, and the coarsest dense factorization, keyed to one sparsity
/// pattern.
///
/// Build once per pattern with [`MultigridHierarchy::build`]; when the
/// matrix values change on the same pattern (Picard re-linearization, a
/// parameter sweep over one mesh), call [`MultigridHierarchy::refresh`] —
/// it re-computes only numeric content (prolongator weights, Galerkin
/// triple products on the fixed sparsity, diagonals, coarsest LU) and
/// skips aggregation entirely.
///
/// The hierarchy is plain data (`Send + Sync`); wrap it in a
/// [`MultigridPreconditioner`] to apply V-cycles:
///
/// ```
/// use ttsv_linalg::{solve_pcg, CooBuilder, IterativeConfig};
/// use ttsv_linalg::{MultigridHierarchy, MultigridPreconditioner};
///
/// // 1-D Poisson on 96 cells, then a second operator with the same
/// // pattern but scaled coefficients (a "next sweep point").
/// let assemble = |k: f64| {
///     let n = 96;
///     let mut coo = CooBuilder::new(n, n);
///     for i in 0..n {
///         coo.add(i, i, 2.0 * k);
///         if i + 1 < n {
///             coo.add(i, i + 1, -k);
///             coo.add(i + 1, i, -k);
///         }
///     }
///     coo.to_csr()
/// };
/// let a1 = assemble(1.0);
/// let hierarchy = MultigridHierarchy::build(&a1).unwrap();
/// let mut mg = MultigridPreconditioner::from_hierarchy(hierarchy);
/// let b = vec![1.0; 96];
/// let x1 = solve_pcg(&a1, &b, &mg, &IterativeConfig::default()).unwrap();
///
/// // Same pattern, new values: numeric refresh instead of a rebuild.
/// let a2 = assemble(3.5);
/// assert!(mg.hierarchy().pattern_matches(&a2));
/// mg.refresh(&a2).unwrap();
/// let x2 = solve_pcg(&a2, &b, &mg, &IterativeConfig::default()).unwrap();
/// assert!(a2.residual_norm(&x2.solution, &b).unwrap() < 1e-7);
/// # let _ = x1;
/// ```
#[derive(Debug, Clone)]
pub struct MultigridHierarchy {
    levels: Vec<Level>,
    /// The coarsest Galerkin operator (kept for numeric refreshes).
    coarse_a: CsrMatrix,
    /// Dense factorization of the coarsest operator.
    coarse: LuDecomposition,
    /// Work size at which sweeps go multi-threaded ([`PARALLEL_THRESHOLD`]
    /// outside the determinism tests).
    parallel_threshold: usize,
    /// Resolved worker count for finest-level sweeps.
    threads: usize,
}

impl MultigridHierarchy {
    /// Builds the full hierarchy (pattern + numeric content) for the SPD
    /// matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if `a` is not square, a level has a
    ///   zero diagonal entry, or the matrix has too few strong connections
    ///   for aggregation to coarsen it (use a point preconditioner such as
    ///   [`SsorPreconditioner`](crate::SsorPreconditioner) there).
    /// * [`LinalgError::Singular`] if the coarsest operator cannot be
    ///   factorized.
    pub fn build(a: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::build_with_threshold(a, PARALLEL_THRESHOLD)
    }

    /// [`MultigridHierarchy::build`] with an explicit threading threshold:
    /// `usize::MAX` forces serial sweeps, `1` forces threading (the
    /// threaded-vs-serial determinism tests).
    pub(crate) fn build_with_threshold(
        a: &CsrMatrix,
        parallel_threshold: usize,
    ) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "multigrid needs a square matrix, got {}×{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }

        let threads = thread_count(a.rows(), parallel_threshold);
        let mut levels = Vec::new();
        let mut mat = a.clone();
        while mat.rows() > COARSEST_SIZE && levels.len() + 1 < MAX_LEVELS {
            let strong = strong_connections(&mat, STRENGTH_THRESHOLD);
            let (agg, n_agg) = aggregate(&mat, &strong);
            if n_agg >= mat.rows() {
                break; // no reduction left
            }
            let inv_diag = jacobi_inverse_diagonal(&mat)?;
            let p = build_prolongator(&mat, &strong, &agg, n_agg, &inv_diag);
            let t = build_t(&mat, &p);
            let (pt_ptr, pt_row, pt_idx) = transpose_adjacency(&p, mat.rows());
            let mut coarse_mat = build_coarse(&p, &t, &pt_ptr, &pt_row, &pt_idx);
            // The numeric refresh only computes the upper Galerkin
            // triangle and mirrors it down; mirror the built values the
            // same way so both paths agree bit for bit.
            let coarse_mirror = mirror_pairs(&coarse_mat);
            apply_mirror(&coarse_mirror, coarse_mat.values_mut());
            let diag_idx = diagonal_indices(&mat);
            levels.push(Level {
                a: mat,
                inv_diag,
                strong,
                agg,
                p_refresh: None,
                p,
                t,
                t_list: ContractionList::default(),
                coarse_list: ContractionList::default(),
                coarse_mirror,
                diag_idx,
            });
            mat = coarse_mat;
        }

        // Guard the dense coarsest factorization: if coarsening stalled far
        // above the target size (a matrix with no usable connections, e.g.
        // near-diagonal), O(n²) dense memory would be pathological — tell
        // the caller to pick a point preconditioner instead.
        if mat.rows() > COARSEST_SIZE * 8 {
            let cause = if levels.len() + 1 >= MAX_LEVELS {
                format!("the {MAX_LEVELS}-level depth limit stopped coarsening")
            } else {
                "the matrix has too few strong connections for aggregation".to_string()
            };
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "coarsening stopped at {} unknowns (target ≤ {COARSEST_SIZE}): {cause} — \
                     precondition this system with a point preconditioner such as \
                     SsorPreconditioner, or solve a FEM problem with FemSolver::DirectBanded",
                    mat.rows()
                ),
            });
        }
        let coarse_dense = DenseMatrix::from_fn(mat.rows(), mat.rows(), |i, j| mat.get(i, j));
        let coarse = coarse_dense.lu()?;

        Ok(Self {
            levels,
            coarse_a: mat,
            coarse,
            parallel_threshold,
            threads,
        })
    }

    /// Numeric-only refresh: re-computes prolongator weights, Galerkin
    /// coarse values, Jacobi diagonals, and the coarsest factorization for
    /// a matrix with the *same sparsity pattern* as the one the hierarchy
    /// was built from. Aggregation, strength classification, and every
    /// sparsity pattern are reused unchanged — for identical input values
    /// the refreshed hierarchy is bit-for-bit the built one.
    ///
    /// The Galerkin triple products run over flat contraction lists frozen
    /// at the first refresh (every output value knows the flat
    /// source-index pairs that feed it), so the hot sweeps are branch-free
    /// multiply-add reductions with no column hashing or dense scatter
    /// rows; once a level's pair count passes 2¹⁶ they row-chunk across
    /// scoped threads. Both moves leave each output entry's accumulation
    /// order untouched, so the refreshed values are identical bit for bit
    /// to the scatter-based ones.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if the pattern differs (use
    ///   [`MultigridHierarchy::pattern_matches`] to decide between refresh
    ///   and rebuild) or a diagonal entry became zero.
    /// * [`LinalgError::Singular`] if the refreshed coarsest operator
    ///   cannot be factorized.
    pub fn refresh(&mut self, a: &CsrMatrix) -> Result<(), LinalgError> {
        if !self.pattern_matches(a) {
            return Err(LinalgError::InvalidInput {
                reason: "multigrid refresh requires the sparsity pattern the hierarchy was \
                         built from (rebuild instead)"
                    .to_string(),
            });
        }
        let threshold = self.parallel_threshold;

        if let Some(first) = self.levels.first_mut() {
            first.a.values_mut().copy_from_slice(a.values());
        } else {
            self.coarse_a.values_mut().copy_from_slice(a.values());
        }
        for l in 0..self.levels.len() {
            let (head, tail) = self.levels.split_at_mut(l + 1);
            let level = &mut head[l];
            let next_a = match tail.first_mut() {
                Some(next) => &mut next.a,
                None => &mut self.coarse_a,
            };
            refresh_inverse_diagonal(level.a.values(), &level.diag_idx, &mut level.inv_diag)?;
            // First refresh on this level: freeze the flat source lists
            // (build defers them — rebuild-only callers never pay for
            // refresh machinery).
            let p_refresh = level.p_refresh.get_or_insert_with(|| {
                ProlongatorRefresh::build(&level.a, &level.strong, &level.agg, &level.p)
            });
            if level.t_list.ptr.is_empty() {
                level.t_list = build_t_contraction(&level.a, &level.p, &level.t);
                let (pt_ptr, pt_row, pt_idx) = transpose_adjacency(&level.p, level.a.rows());
                level.coarse_list =
                    build_coarse_contraction(&level.t, &pt_ptr, &pt_row, &pt_idx, next_a);
            }
            p_refresh.refresh(level.a.values(), &level.inv_diag, &mut level.p);
            level.t_list.contract(
                level.a.values(),
                &level.p.val,
                &mut level.t.val,
                thread_count(level.t_list.pairs(), threshold),
            );
            level.coarse_list.contract(
                &level.p.val,
                &level.t.val,
                next_a.values_mut(),
                thread_count(level.coarse_list.pairs(), threshold),
            );
            apply_mirror(&level.coarse_mirror, next_a.values_mut());
        }
        let mat = &self.coarse_a;
        let coarse_dense = DenseMatrix::from_fn(mat.rows(), mat.rows(), |i, j| mat.get(i, j));
        self.coarse = coarse_dense.lu()?;
        Ok(())
    }

    /// `true` when `a` has exactly the sparsity pattern this hierarchy was
    /// built from — the precondition for [`MultigridHierarchy::refresh`].
    #[must_use]
    pub fn pattern_matches(&self, a: &CsrMatrix) -> bool {
        match self.levels.first() {
            Some(level) => level.a.same_pattern(a),
            None => self.coarse_a.same_pattern(a),
        }
    }

    /// Number of levels in the hierarchy (1 = the matrix was small enough
    /// to factorize directly).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len() + 1
    }

    /// Unknown count of the coarsest (directly factorized) level.
    #[must_use]
    pub fn coarsest_unknowns(&self) -> usize {
        self.coarse.dim()
    }

    /// Unknown count of the finest level.
    #[must_use]
    pub fn finest_unknowns(&self) -> usize {
        match self.levels.first() {
            Some(level) => level.a.rows(),
            None => self.coarse.dim(),
        }
    }

    /// [`SMOOTHING_SWEEPS`] damped-Jacobi sweeps `z ← z + ω·D⁻¹·(rhs − A·z)`
    /// on level `l`; with `zero_init` the first sweep starts from a zero
    /// guess and collapses to `z = ω·D⁻¹·rhs`.
    fn smooth(&self, l: usize, rhs: &[f64], z: &mut [f64], res: &mut [f64], zero_init: bool) {
        let level = &self.levels[l];
        let threads = if l == 0 { self.threads } else { 1 };
        let inv_diag = &level.inv_diag;
        let mut first = zero_init;
        for _ in 0..SMOOTHING_SWEEPS {
            if first {
                par_rows(z, threads, |start, chunk| {
                    for (k, zi) in chunk.iter_mut().enumerate() {
                        let i = start + k;
                        *zi = JACOBI_WEIGHT * inv_diag[i] * rhs[i];
                    }
                });
                first = false;
            } else {
                matvec_threaded(&level.a, z, res, threads);
                let res = &*res;
                par_rows(z, threads, |start, chunk| {
                    for (k, zi) in chunk.iter_mut().enumerate() {
                        let i = start + k;
                        *zi += JACOBI_WEIGHT * inv_diag[i] * (rhs[i] - res[i]);
                    }
                });
            }
        }
    }

    /// One V-cycle applied to the residual `r`, writing the correction
    /// into `z`, with all work vectors supplied by `scratch`.
    fn v_cycle(&self, r: &[f64], z: &mut [f64], scratch: &mut Scratch) {
        let n = self.finest_unknowns();
        assert_eq!(r.len(), n, "multigrid: wrong residual length");
        assert_eq!(z.len(), n, "multigrid: wrong output length");
        let depth = self.levels.len();

        if depth == 0 {
            let x = self.coarse.solve(r).expect("coarse factorization is valid");
            z.copy_from_slice(&x);
            return;
        }

        // Downward sweep: pre-smooth from zero, restrict the residual.
        scratch.rhs[0].copy_from_slice(r);
        for l in 0..depth {
            let level = &self.levels[l];
            let threads = if l == 0 { self.threads } else { 1 };
            let (rhs_fine, rhs_coarse) = {
                let (head, tail) = scratch.rhs.split_at_mut(l + 1);
                (std::mem::take(&mut head[l]), &mut tail[0])
            };
            {
                let (z_l, res_l) = (&mut scratch.z[l], &mut scratch.res[l]);
                self.smooth(l, &rhs_fine, z_l, res_l, true);
                matvec_threaded(&level.a, z_l, res_l, threads);
                let rhs_ref = &rhs_fine;
                par_rows(res_l, threads, |start, chunk| {
                    for (k, ri) in chunk.iter_mut().enumerate() {
                        *ri = rhs_ref[start + k] - *ri;
                    }
                });
                level.p.transpose_mul(res_l, rhs_coarse);
            }
            scratch.rhs[l] = rhs_fine;
        }
        let x = self
            .coarse
            .solve(&scratch.rhs[depth])
            .expect("coarse factorization is valid");
        scratch.z[depth].copy_from_slice(&x);

        // Upward sweep: prolong the coarse correction, post-smooth.
        for l in (0..depth).rev() {
            let level = &self.levels[l];
            let (z_head, z_tail) = scratch.z.split_at_mut(l + 1);
            let z_l = &mut z_head[l];
            level.p.mul_add(&z_tail[0], z_l);
            let rhs_l = std::mem::take(&mut scratch.rhs[l]);
            self.smooth(l, &rhs_l, z_l, &mut scratch.res[l], false);
            scratch.rhs[l] = rhs_l;
        }
        z.copy_from_slice(&scratch.z[0]);
    }
}

// ---------------------------------------------------------------------------
// Preconditioner wrapper
// ---------------------------------------------------------------------------

/// A V-cycle of smoothed-aggregation multigrid, applied as a
/// preconditioner.
///
/// Build once per assembled matrix, then hand to
/// [`solve_pcg`](crate::solve_pcg) /
/// [`solve_pcg_into`](crate::solve_pcg_into):
///
/// ```
/// use ttsv_linalg::{solve_pcg, CooBuilder, IterativeConfig, MultigridPreconditioner};
///
/// // 1-D Poisson on 64 cells.
/// let n = 64;
/// let mut coo = CooBuilder::new(n, n);
/// for i in 0..n {
///     coo.add(i, i, 2.0);
///     if i + 1 < n {
///         coo.add(i, i + 1, -1.0);
///         coo.add(i + 1, i, -1.0);
///     }
/// }
/// let a = coo.to_csr();
/// let mg = MultigridPreconditioner::new(&a).unwrap();
/// let report = solve_pcg(&a, &vec![1.0; n], &mg, &IterativeConfig::default()).unwrap();
/// assert!(a.residual_norm(&report.solution, &vec![1.0; n]).unwrap() < 1e-7);
/// ```
///
/// The setup lives in a [`MultigridHierarchy`], reusable across matrices
/// of identical sparsity via [`MultigridPreconditioner::refresh`] (or
/// recoverable with [`MultigridPreconditioner::into_hierarchy`] to park in
/// a cache between solves).
///
/// Not `Sync`: the per-level scratch is interior-mutable so
/// [`Preconditioner::apply`] can stay allocation-free. Build one instance
/// per solving thread, or move the hierarchy between threads (it is
/// `Send + Sync`) and wrap it locally.
#[derive(Debug)]
pub struct MultigridPreconditioner {
    hierarchy: MultigridHierarchy,
    scratch: RefCell<Scratch>,
}

impl MultigridPreconditioner {
    /// Builds the hierarchy for the SPD matrix `a` and wraps it.
    ///
    /// # Errors
    ///
    /// See [`MultigridHierarchy::build`].
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        Ok(Self::from_hierarchy(MultigridHierarchy::build(a)?))
    }

    /// Wraps an existing hierarchy (typically taken from a cache).
    #[must_use]
    pub fn from_hierarchy(hierarchy: MultigridHierarchy) -> Self {
        let scratch = Scratch::for_levels(&hierarchy.levels, hierarchy.coarse_a.rows());
        Self {
            hierarchy,
            scratch: RefCell::new(scratch),
        }
    }

    /// Numeric-only refresh for a matrix with the same sparsity pattern —
    /// see [`MultigridHierarchy::refresh`].
    ///
    /// # Errors
    ///
    /// See [`MultigridHierarchy::refresh`].
    pub fn refresh(&mut self, a: &CsrMatrix) -> Result<(), LinalgError> {
        self.hierarchy.refresh(a)
    }

    /// The wrapped hierarchy.
    #[must_use]
    pub fn hierarchy(&self) -> &MultigridHierarchy {
        &self.hierarchy
    }

    /// Unwraps into the reusable hierarchy (to park in a cache).
    #[must_use]
    pub fn into_hierarchy(self) -> MultigridHierarchy {
        self.hierarchy
    }

    /// Number of levels in the hierarchy (1 = the matrix was small enough
    /// to factorize directly).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.hierarchy.level_count()
    }

    /// Unknown count of the coarsest (directly factorized) level.
    #[must_use]
    pub fn coarsest_unknowns(&self) -> usize {
        self.hierarchy.coarsest_unknowns()
    }
}

impl Preconditioner for MultigridPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        self.hierarchy.v_cycle(r, z, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::{solve_cg, solve_pcg, IterativeConfig};
    use crate::sparse::CooBuilder;
    use crate::vector::{dot, norm2, sub};
    use proptest::prelude::*;

    /// 2-D Poisson on an `nx × ny` grid with Dirichlet coupling on one
    /// edge and a vertical-coupling anisotropy `ay`.
    fn poisson2d(nx: usize, ny: usize, ay: f64) -> CsrMatrix {
        poisson2d_scaled(nx, ny, ay, 1.0)
    }

    /// Like [`poisson2d`] but with every conductance scaled by a smooth
    /// per-cell factor — same sparsity pattern, different values.
    fn poisson2d_scaled(nx: usize, ny: usize, ay: f64, amp: f64) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooBuilder::new(n, n);
        let idx = |i: usize, j: usize| i + j * nx;
        let cell = |i: usize, j: usize| amp * (1.0 + 0.3 * ((i + 2 * j) % 5) as f64);
        for j in 0..ny {
            for i in 0..nx {
                let me = idx(i, j);
                let mut diag = 0.0;
                if j == 0 {
                    diag += 2.0 * ay * cell(i, j); // sink below the first row
                }
                for (ni, nj, g) in [
                    (i.wrapping_sub(1), j, 1.0),
                    (i + 1, j, 1.0),
                    (i, j.wrapping_sub(1), ay),
                    (i, j + 1, ay),
                ] {
                    if ni < nx && nj < ny {
                        let gv = g * 0.5 * (cell(i, j) + cell(ni, nj));
                        coo.add(me, idx(ni, nj), -gv);
                        diag += gv;
                    }
                }
                coo.add(me, me, diag);
            }
        }
        coo.to_csr()
    }

    /// A random finite-volume-style SPD system on an `nx × ny × nz` box:
    /// 7-point stencil with harmonic-mean face conductances between the
    /// per-cell conductivities `k` and a Dirichlet anchor below the first
    /// layer (the Cartesian heat solver's structure, conductivity jumps
    /// included).
    fn random_box_matrix((nx, ny, nz): (usize, usize, usize), k: &[f64]) -> CsrMatrix {
        let n = nx * ny * nz;
        let mut coo = CooBuilder::new(n, n);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = x + y * nx + z * nx * ny;
                    for (inside, stride) in
                        [(x + 1 < nx, 1), (y + 1 < ny, nx), (z + 1 < nz, nx * ny)]
                    {
                        if inside {
                            let j = i + stride;
                            let g = 2.0 * k[i] * k[j] / (k[i] + k[j]);
                            coo.add(i, i, g);
                            coo.add(j, j, g);
                            coo.add(i, j, -g);
                            coo.add(j, i, -g);
                        }
                    }
                    if z == 0 {
                        coo.add(i, i, 2.0 * k[i]); // sink anchor
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// Strategy: box dimensions, per-cell conductivities spanning a
    /// 100 : 1 jump range, and a right-hand side.
    fn box_system() -> impl Strategy<Value = ((usize, usize, usize), Vec<f64>, Vec<f64>)> {
        (2usize..5, 2usize..5, 2usize..6).prop_flat_map(|(nx, ny, nz)| {
            let n = nx * ny * nz;
            (
                Just((nx, ny, nz)),
                prop::collection::vec(0.1..10.0f64, n),
                prop::collection::vec(-5.0..5.0f64, n),
            )
        })
    }

    /// A preconditioner over a hierarchy built with an explicit threading
    /// threshold (`usize::MAX`: serial, `1`: threaded).
    fn with_threshold(a: &CsrMatrix, threshold: usize) -> MultigridPreconditioner {
        MultigridPreconditioner::from_hierarchy(
            MultigridHierarchy::build_with_threshold(a, threshold).unwrap(),
        )
    }

    #[test]
    fn hierarchy_coarsens() {
        let a = poisson2d(16, 16, 1.0);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        assert!(mg.level_count() >= 2, "16×16 should build a real hierarchy");
        assert!(mg.coarsest_unknowns() <= COARSEST_SIZE);
    }

    #[test]
    fn tiny_problem_degenerates_to_direct_solve() {
        let a = poisson2d(3, 3, 1.0);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        assert_eq!(mg.level_count(), 1);
        // An exact preconditioner makes PCG converge immediately.
        let b = vec![1.0; 9];
        let report = solve_pcg(&a, &b, &mg, &IterativeConfig::default()).unwrap();
        assert!(report.iterations <= 1, "took {}", report.iterations);
    }

    #[test]
    fn mg_pcg_matches_plain_cg() {
        let a = poisson2d(12, 20, 1.0);
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let cfg = IterativeConfig::new(10_000, 1e-11);
        let plain = solve_cg(&a, &b, &cfg).unwrap();
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let pre = solve_pcg(&a, &b, &mg, &cfg).unwrap();
        for (x, y) in plain.solution.iter().zip(&pre.solution) {
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
        assert!(
            pre.iterations < plain.iterations,
            "multigrid {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn anisotropy_is_handled() {
        // 100:1 anisotropy — the regime where point-smoothed full
        // coarsening stalls; strength-based aggregation must keep the
        // iteration count modest.
        let a = poisson2d(24, 24, 100.0);
        let b = vec![1.0; a.rows()];
        let cfg = IterativeConfig::new(10_000, 1e-11);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let report = solve_pcg(&a, &b, &mg, &cfg).unwrap();
        assert!(
            report.iterations <= 30,
            "anisotropic SA-MG-PCG took {} iterations",
            report.iterations
        );
    }

    #[test]
    fn vcycle_is_symmetric() {
        // ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩ is required for CG.
        let a = poisson2d(10, 10, 5.0);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let n = a.rows();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91).cos()).collect();
        let mut mu = vec![0.0; n];
        let mut mv = vec![0.0; n];
        mg.apply(&u, &mut mu);
        mg.apply(&v, &mut mv);
        let lhs = dot(&mu, &v);
        let rhs = dot(&u, &mv);
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "asymmetric V-cycle: {lhs} vs {rhs}"
        );
        // And positive: ⟨M⁻¹u, u⟩ > 0.
        assert!(dot(&mu, &u) > 0.0);
    }

    #[test]
    fn stationary_vcycle_iteration_reduces_error_monotonically() {
        // The symmetric V-cycle is a contraction in the energy norm
        // ‖e‖_A = √(eᵀ·A·e) — the norm in which multigrid convergence is
        // guaranteed (the plain 2-norm of the residual may transiently grow
        // from a rough start). Track the error against a known solution;
        // 12 cycles must also make a real solve.
        let a = poisson2d(16, 24, 10.0);
        let n = a.rows();
        let x_star: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 11) as f64).collect();
        let b = a.matvec(&x_star).unwrap();
        let energy = |x: &[f64]| {
            let e = sub(&x_star, x);
            dot(&e, &a.matvec(&e).unwrap()).sqrt()
        };
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let mut x = vec![0.0; n];
        let mut prev = energy(&x);
        for cycle in 0..12 {
            let r = sub(&b, &a.matvec(&x).unwrap());
            let mut dz = vec![0.0; n];
            mg.apply(&r, &mut dz);
            for i in 0..n {
                x[i] += dz[i];
            }
            let now = energy(&x);
            assert!(
                now < prev,
                "cycle {cycle}: energy error grew from {prev:.3e} to {now:.3e}"
            );
            prev = now;
        }
        assert!(
            norm2(&sub(&b, &a.matvec(&x).unwrap())) < 1e-3 * norm2(&b),
            "12 SA cycles should reduce ‖r‖ a lot"
        );
    }

    #[test]
    fn refresh_with_identical_values_reproduces_the_build_exactly() {
        // Refresh re-runs the numeric kernels in the same accumulation
        // order as the build, so feeding back the very same matrix must
        // leave the V-cycle output bit-for-bit unchanged.
        let a = poisson2d(14, 18, 8.0);
        let n = a.rows();
        let fresh = MultigridPreconditioner::new(&a).unwrap();
        let mut refreshed = MultigridPreconditioner::new(&a).unwrap();
        refreshed.refresh(&a).unwrap();
        let r: Vec<f64> = (0..n).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        fresh.apply(&r, &mut z1);
        refreshed.apply(&r, &mut z2);
        assert_eq!(z1, z2, "identical-value refresh must be exact");
    }

    #[test]
    fn refresh_tracks_perturbed_coefficients() {
        // Build on one coefficient field, refresh onto a strongly scaled
        // one: the refreshed hierarchy must still precondition the new
        // operator well (same solution, few iterations).
        let a1 = poisson2d_scaled(16, 16, 10.0, 1.0);
        let a2 = poisson2d_scaled(16, 16, 10.0, 7.5);
        assert!(a1.same_pattern(&a2));
        let cfg = IterativeConfig::new(10_000, 1e-11);
        let b = vec![1.0; a1.rows()];

        let mut mg = MultigridPreconditioner::new(&a1).unwrap();
        mg.refresh(&a2).unwrap();
        let refreshed = solve_pcg(&a2, &b, &mg, &cfg).unwrap();
        let fresh_pre = MultigridPreconditioner::new(&a2).unwrap();
        let fresh = solve_pcg(&a2, &b, &fresh_pre, &cfg).unwrap();

        let scale = fresh.solution.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for (x, y) in refreshed.solution.iter().zip(&fresh.solution) {
            assert!((x - y).abs() <= 1e-7 * scale, "{x} vs {y}");
        }
        // The refreshed hierarchy must stay a real preconditioner, not
        // degrade to something Jacobi-like.
        assert!(
            refreshed.iterations <= fresh.iterations + 5,
            "refreshed {} vs fresh {}",
            refreshed.iterations,
            fresh.iterations
        );
    }

    #[test]
    fn refresh_rejects_pattern_mismatch() {
        let a = poisson2d(12, 12, 1.0);
        let other = poisson2d(12, 13, 1.0);
        let mut mg = MultigridPreconditioner::new(&a).unwrap();
        assert!(!mg.hierarchy().pattern_matches(&other));
        let err = mg.refresh(&other).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn threaded_and_serial_vcycles_agree() {
        let a = poisson2d(20, 30, 25.0);
        let n = a.rows();
        let serial = with_threshold(&a, usize::MAX);
        let threaded = with_threshold(&a, 1);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
        let mut z_serial = vec![0.0; n];
        let mut z_threaded = vec![0.0; n];
        serial.apply(&r, &mut z_serial);
        threaded.apply(&r, &mut z_threaded);
        for (s, t) in z_serial.iter().zip(&z_threaded) {
            assert!(
                (s - t).abs() <= 1e-12 * s.abs().max(1.0),
                "threaded V-cycle diverged from serial: {s} vs {t}"
            );
        }
    }

    #[test]
    fn uncoarsenable_matrix_rejected_instead_of_dense_factorized() {
        // A large diagonal matrix has no connections to aggregate along;
        // the setup must refuse (it would otherwise build an O(n²) dense
        // factorization of the whole thing) and name what the caller can
        // use instead.
        let n = 2000;
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.add(i, i, 2.0 + (i % 5) as f64);
        }
        let err = MultigridPreconditioner::new(&coo.to_csr()).unwrap_err();
        let LinalgError::InvalidInput { reason } = &err else {
            panic!("expected InvalidInput, got {err}");
        };
        assert!(
            reason.contains("too few strong connections"),
            "cause: {reason}"
        );
        assert!(reason.contains("SsorPreconditioner"), "remedy: {reason}");
        assert!(
            reason.contains("FemSolver::DirectBanded"),
            "remedy: {reason}"
        );
        for retired in ["max_levels", "raise", "Jacobi"] {
            assert!(
                !reason.contains(retired),
                "stale advice {retired:?}: {reason}"
            );
        }
    }

    #[test]
    fn non_square_rejected() {
        let mut coo = CooBuilder::new(3, 2);
        coo.add(0, 0, 1.0);
        let err = MultigridPreconditioner::new(&coo.to_csr()).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    proptest! {
        #[test]
        fn refresh_is_bitwise_identical_to_a_fresh_build_on_perturbed_boxes(
            (dims, k, r) in box_system(),
            scale in 0.2..5.0f64,
        ) {
            // The flat contraction-list refresh re-runs every numeric
            // kernel in the same per-entry accumulation order as the
            // scatter-based build. Under a uniform conductivity scaling the
            // build-time pattern decisions (strength classification,
            // aggregation) are unchanged, so refreshing a hierarchy onto
            // the scaled matrix must reproduce a freshly built one bit for
            // bit — V-cycle outputs compared via `to_bits`, on both the
            // serial and the threaded sweep path.
            let a1 = random_box_matrix(dims, &k);
            let k2: Vec<f64> = k.iter().map(|&v| v * scale).collect();
            let a2 = random_box_matrix(dims, &k2);
            prop_assert!(a1.same_pattern(&a2));
            for threshold in [usize::MAX, 1] {
                let fresh = with_threshold(&a2, threshold);
                let mut refreshed = with_threshold(&a1, threshold);
                refreshed.refresh(&a2).unwrap();
                let n = a2.rows();
                let mut z_fresh = vec![0.0; n];
                let mut z_refreshed = vec![0.0; n];
                fresh.apply(&r, &mut z_fresh);
                refreshed.apply(&r, &mut z_refreshed);
                for i in 0..n {
                    prop_assert!(
                        z_fresh[i].to_bits() == z_refreshed[i].to_bits(),
                        "refresh diverged from fresh build at {i} (threshold {threshold}): \
                         {} vs {}",
                        z_fresh[i],
                        z_refreshed[i]
                    );
                }
            }
        }

        #[test]
        fn threaded_and_serial_vcycles_agree_on_random_boxes(
            (dims, k, r) in box_system(),
        ) {
            // Row-chunked threading must not change the V-cycle output
            // beyond reassociation-free floating point (the chunk
            // arithmetic is identical, so the agreement is in fact exact;
            // assert 1e-12).
            let a = random_box_matrix(dims, &k);
            let n = a.rows();
            let serial = with_threshold(&a, usize::MAX);
            let threaded = with_threshold(&a, 1);
            let mut z_serial = vec![0.0; n];
            let mut z_threaded = vec![0.0; n];
            serial.apply(&r, &mut z_serial);
            threaded.apply(&r, &mut z_threaded);
            for i in 0..n {
                prop_assert!(
                    (z_serial[i] - z_threaded[i]).abs() <= 1e-12 * z_serial[i].abs().max(1.0),
                    "threaded V-cycle diverged at {i}: {} vs {}",
                    z_serial[i],
                    z_threaded[i]
                );
            }
        }
    }
}
