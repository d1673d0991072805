//! The two-column thermal ladder both paper models solve.
//!
//! Segment `s` (bottom → top) has a bulk node `B_s` and a via node `V_s`:
//! vertical bulk and via-fill resistors to the segment below, a lateral
//! liner rung between the two, and `T₀` below the first segment, grounded
//! through `R_s`. Model B (§III, eq. 19) fills it with π-segments; Model A
//! (§II) is the one-segment-per-plane case with fitted resistances.
//!
//! The KCL matrix is block tridiagonal with 2×2 blocks, factored in `O(n)`
//! by [`BlockTridiagonal`], and depends only on geometry, while the plane
//! powers enter the right-hand side linearly. So every path solves the
//! `n_planes` unit right-hand sides once and superposes them
//! (`T_i = Σ_p P_p·u_p[i]`, one shared expression); a [`LadderKernel`]
//! keeps only the nodes that can be hottest.

use std::cell::RefCell;
use std::ops::Range;

use ttsv_linalg::{BlockTridiagonal, BlockTridiagonalLu};
use ttsv_units::{Power, TemperatureDelta};

use crate::error::CoreError;

/// One segment's resistances in K/W.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) r_bulk: f64,
    pub(crate) r_fill: f64,
    pub(crate) r_lat: f64,
}

/// Assembles and factorizes the ladder matrix (geometry only — the heat
/// inputs live entirely in the right-hand side) in its natural 2×2
/// block-tridiagonal form, for block Thomas elimination.
///
/// Unknowns are padded to an even count — block 0 is `(T₀, dummy)` with a
/// decoupled unit-diagonal dummy, block `s + 1` is `(B_s, V_s)` — so T₀'s
/// coupling to both first-segment nodes lands in the single off-diagonal
/// block between blocks 0 and 1.
fn factorize_ladder(segments: &[Segment], rs: f64) -> Result<BlockTridiagonalLu, CoreError> {
    let n_seg = segments.len();
    let nb = n_seg + 1;

    // Assemble the blocks directly — the ladder stencil is known, so no
    // per-entry indexing: D[0] holds T₀ (grounded through Rs and coupled
    // to both first-segment nodes) plus the decoupled dummy; D[s+1] holds
    // (B_s, V_s) with the lateral liner rung on the off-diagonal; the
    // inter-block coupling blocks are diagonal (bulk→bulk, via→via),
    // except the first, where T₀ reaches both chains. Each segment's
    // conductances are computed once and carried to the next block,
    // where they couple it to the one below.
    let conductances = |seg: &Segment| (1.0 / seg.r_bulk, 1.0 / seg.r_fill);
    let mut diag = Vec::with_capacity(nb);
    let mut lower = Vec::with_capacity(nb - 1);
    let mut upper = Vec::with_capacity(nb - 1);

    let (mut gb, mut gf) = conductances(&segments[0]);
    diag.push([1.0 / rs + gb + gf, 0.0, 0.0, 1.0]);
    upper.push([-gb, -gf, 0.0, 0.0]);
    lower.push([-gb, 0.0, -gf, 0.0]);
    for (s, seg) in segments.iter().enumerate() {
        let (up_b, up_f) = segments.get(s + 1).map_or((0.0, 0.0), conductances);
        let lat = 1.0 / seg.r_lat;
        diag.push([gb + lat + up_b, -lat, -lat, gf + lat + up_f]);
        if s + 1 < n_seg {
            upper.push([-up_b, 0.0, 0.0, -up_f]);
            lower.push([-up_b, 0.0, 0.0, -up_f]);
        }
        (gb, gf) = (up_b, up_f);
    }

    Ok(BlockTridiagonal::from_blocks(diag, lower, upper).factorize()?)
}

/// The `Σ_p P_p·u_p` superposition — summed in plane order from `0.0`,
/// with `response[p]` the node's response to one watt on plane `p` — that
/// every ladder path evaluates, so they all agree bitwise.
///
/// Powers are validated finite and non-negative, and rounded products
/// and sums are monotone, so `u ≤ v` componentwise implies
/// `superpose(P, u) ≤ superpose(P, v)` in floating point, not just in real
/// arithmetic. The hotspot kernel's pruning rests on exactly that.
#[inline]
pub(crate) fn superpose(powers: &[Power], response: &[f64]) -> f64 {
    let mut t = 0.0;
    for (power, u) in powers.iter().zip(response) {
        t += power.as_watts() * u;
    }
    t
}

/// Entries per block of the hotspot kernel's scan.
const BLOCK: usize = 16;

/// [`superpose`] for the `BLOCK` consecutive entries at `start` of a
/// plane-major array (`soa[p * stride + i]`): each lane runs the same
/// operations in the same order, so lane `k` is bitwise [`superpose`] of
/// entry `start + k`, and the plane loop vectorizes across the lanes.
#[inline]
fn superpose_block(powers: &[Power], soa: &[f64], stride: usize, start: usize) -> [f64; BLOCK] {
    let mut acc = [0.0; BLOCK];
    for (p, power) in powers.iter().enumerate() {
        let w = power.as_watts();
        for (a, u) in acc.iter_mut().zip(&soa[p * stride + start..][..BLOCK]) {
            *a += w * u;
        }
    }
    acc
}

/// The power-vector validation shared by every solve entry point.
fn validate_powers(n_planes: usize, plane_powers: &[Power]) -> Result<(), CoreError> {
    if plane_powers.len() != n_planes {
        return Err(CoreError::InvalidScenario {
            reason: format!(
                "factorization covers {n_planes} planes, got {} powers",
                plane_powers.len()
            ),
        });
    }
    if let Some(p) = plane_powers
        .iter()
        .find(|p| !p.as_watts().is_finite() || p.as_watts() < 0.0)
    {
        return Err(CoreError::InvalidScenario {
            reason: format!("plane power must be finite and non-negative, got {p}"),
        });
    }
    Ok(())
}

thread_local! {
    /// This thread's lane-interleaved unit-response buffer, reused across
    /// factorizations: at the serving geometry it is 128 KB, and touching
    /// that much fresh memory per factorization costs more in page faults
    /// than the solve that fills it.
    static RESPONSES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The ladder's unit responses: every node temperature under one watt on
/// each plane, from one factorization. Transient — superposed into node
/// temperatures or pruned into a [`LadderKernel`].
pub(crate) struct ResponseBasis<'a> {
    n_seg: usize,
    n_planes: usize,
    /// Planes rounded up to whole four-lane passes.
    width: usize,
    /// Node-major responses over the padded unknowns:
    /// `u[i * width + p]` is unknown `i`'s response to one watt on plane
    /// `p`, zero in the lanes past `n_planes`. See
    /// [`ResponseBasis::node`].
    u: &'a [f64],
}

impl ResponseBasis<'_> {
    /// Factorizes the ladder over `segments` (bottom → top) grounded
    /// through `rs`, solves the unit right-hand sides four lanes per pass
    /// over the factors ([`BlockTridiagonalLu::solve_interleaved_x4`]), and
    /// hands the basis to `f`. `heated[p]` is the range of segments whose
    /// bulk nodes share plane `p`'s power equally.
    pub(crate) fn with<T>(
        segments: &[Segment],
        rs: f64,
        heated: &[Range<usize>],
        f: impl FnOnce(&ResponseBasis<'_>) -> T,
    ) -> Result<T, CoreError> {
        let lu = factorize_ladder(segments, rs)?;
        let n_seg = segments.len();
        let n_planes = heated.len();
        let passes = n_planes.div_ceil(4);
        let pass_len = 4 * lu.dim();
        RESPONSES.with_borrow_mut(|lanes| {
            lanes.clear();
            lanes.resize(passes * pass_len, 0.0);
            // One watt on plane `j`, split equally over its heated bulk
            // nodes. Block `s + 1` of the padded unknowns holds
            // `(B_s, V_s)`.
            for (j, segs) in heated.iter().enumerate() {
                debug_assert!(!segs.is_empty() && segs.end <= n_seg);
                let share = 1.0 / segs.len() as f64;
                for s in segs.clone() {
                    lanes[(j / 4) * pass_len + 4 * (2 * s + 2) + j % 4] = share;
                }
            }
            for z in lanes.chunks_exact_mut(pass_len) {
                lu.solve_interleaved_x4(z)?;
            }

            // One pass is already node-major; more are interleaved side
            // by side.
            let width = 4 * passes;
            let interleaved;
            let u = if passes == 1 {
                &lanes[..]
            } else {
                let mut u = vec![0.0; lanes.len()];
                for (pass, z) in lanes.chunks_exact(pass_len).enumerate() {
                    for (i, lane) in z.chunks_exact(4).enumerate() {
                        u[i * width + 4 * pass..][..4].copy_from_slice(lane);
                    }
                }
                interleaved = u;
                &interleaved[..]
            };
            Ok(f(&ResponseBasis {
                n_seg,
                n_planes,
                width,
                u,
            }))
        })
    }

    fn n_nodes(&self) -> usize {
        1 + 2 * self.n_seg
    }

    /// Ladder node `k`'s responses, one per lane (`width` of them), in
    /// `[T0, B₁, V₁, B₂, V₂, …]` order: T0 is unknown 0, node `k ≥ 1`
    /// unknown `k + 1` — unknown 1 is the decoupled dummy.
    fn node(&self, k: usize) -> &[f64] {
        &self.u[(k + usize::from(k > 0)) * self.width..][..self.width]
    }

    /// Every node temperature under `plane_powers`, by [`superpose`], in
    /// `[T0, B₁, V₁, B₂, V₂, …]` order.
    pub(crate) fn temperatures(&self, plane_powers: &[Power]) -> Result<Vec<f64>, CoreError> {
        validate_powers(self.n_planes, plane_powers)?;
        Ok((0..self.n_nodes())
            .map(|k| superpose(plane_powers, self.node(k)))
            .collect())
    }
}

/// A factored ladder, reduced to its hotspot kernel. The KCL matrix
/// depends only on the scenario's *geometry* (stack, TSV, via density) —
/// plane powers enter the right-hand side alone — so every node
/// temperature is the superposition `Σ_p P_p·u_p[i]` of the `n_planes`
/// unit responses, and a tile's hotspot is the largest of them. The
/// kernel keeps only the nodes that can be that largest:
///
/// * **candidates** — the argmax under each unit direction and under the
///   all-ones direction;
/// * **kept nodes** — every node the all-ones candidate does not
///   dominate componentwise, stored plane-major in blocks of 16 with each
///   block's componentwise maximum `U_B`.
///
/// [`LadderKernel::max_delta_t`] takes `m` as the max over the
/// candidates, then scans only the blocks whose bound `P·U_B` exceeds
/// `m`. Powers are validated finite and non-negative, and rounded
/// products and sums are monotone, so `u_i ≤ u_j` componentwise implies
/// `fl(P·u_i) ≤ fl(P·u_j)` for the one shared evaluation order. A
/// dominated node or a skipped block can therefore never beat `m`, and
/// the pruned max is **bitwise** the max over all nodes — what
/// [`ModelB::solve`](crate::model_b::ModelB::solve) and
/// [`ModelA::solve`](crate::model_a::ModelA::solve) return as the
/// maximum (the property suites assert it). The ladder's LU factors and
/// its full response basis are dropped once the kernel is built.
///
/// On the serving geometry (Model B `B(1000)` with 10 first-plane
/// segments, 3 planes, 4,021 nodes) the kernel keeps ~2,000 nodes,
/// ≈ 50 KB: the flat region above each heated plane differs from the
/// candidates only by rounding noise, so about half its nodes cannot be
/// pruned exactly. A Model A ladder has only `2·n_planes + 1` nodes.
#[derive(Debug, Clone)]
pub struct LadderKernel {
    n_seg: usize,
    n_planes: usize,
    /// Candidate responses, node-major: `candidates[c * n_planes + p]`.
    pub(crate) candidates: Vec<f64>,
    /// Kept responses, plane-major and padded to whole blocks by
    /// repeating the last kept node: `kept[p * kept_len + i]`.
    kept: Vec<f64>,
    pub(crate) kept_len: usize,
    /// Per-block componentwise maxima, plane-major and padded to whole
    /// blocks with `−∞` (a padded bound superposes to `−∞` or NaN, never
    /// above a real max): `bounds[p * bounds_len + b]`.
    bounds: Vec<f64>,
    bounds_len: usize,
}

impl LadderKernel {
    /// Prunes a response basis to its hotspot kernel: one pass picks the
    /// candidates, a second keeps every node the all-ones candidate does
    /// not dominate. Which nodes are picked affects only how much is
    /// pruned, never the result.
    pub(crate) fn from_basis(basis: &ResponseBasis<'_>) -> Self {
        let n_planes = basis.n_planes;
        let n_nodes = basis.n_nodes();
        // Node `k`'s responses in four-lane chunks (the lanes past
        // `n_planes` are zero).
        let node = |k: usize| basis.node(k).as_chunks::<4>().0;

        // Candidates: the argmax under each unit direction and under the
        // all-ones direction, in one pass of fixed four-lane steps (the
        // zero lanes' argmaxes are never read).
        let mut top = vec![([f64::NEG_INFINITY; 4], [0; 4]); basis.width / 4];
        let mut top_all_ones = (f64::NEG_INFINITY, 0);
        for k in 0..n_nodes {
            let mut all_ones = 0.0;
            for ((top, arg), u) in top.iter_mut().zip(node(k)) {
                for l in 0..4 {
                    if u[l] > top[l] {
                        top[l] = u[l];
                        arg[l] = k;
                    }
                    all_ones += u[l];
                }
            }
            if all_ones > top_all_ones.0 {
                top_all_ones = (all_ones, k);
            }
        }
        let mut picks = vec![top_all_ones.1];
        for &k in top.iter().flat_map(|(_, arg)| arg).take(n_planes) {
            if !picks.contains(&k) {
                picks.push(k);
            }
        }

        // Kept: every node the all-ones argmax does not dominate — it
        // dominates nearly all the nodes any candidate does (on the
        // serving ladder, checking the others too prunes 16 more nodes of
        // 4,021 for twice the scan). Compares and compaction are
        // branch-free: in the flat regions nodes differ from the
        // candidate by rounding noise, so a branch per node would
        // mispredict half the time.
        let dominator = node(top_all_ones.1);
        let mut kept_nodes = vec![0; n_nodes];
        let mut kept_count = 0;
        for k in 0..n_nodes {
            let above = node(k).iter().zip(dominator).fold(false, |any, (u, v)| {
                any | (u[0] > v[0]) | (u[1] > v[1]) | (u[2] > v[2]) | (u[3] > v[3])
            });
            kept_nodes[kept_count] = k;
            kept_count += usize::from(above);
        }
        kept_nodes.truncate(kept_count);

        // The kept nodes, plane-major, padded to whole blocks by repeating
        // the last one, and each block's componentwise maximum `U_B`.
        if let Some(&last) = kept_nodes.last() {
            kept_nodes.resize(kept_nodes.len().next_multiple_of(BLOCK), last);
        }
        let kept_len = kept_nodes.len();
        let mut kept = vec![0.0; n_planes * kept_len];
        for (i, &k) in kept_nodes.iter().enumerate() {
            for (p, &u) in basis.node(k)[..n_planes].iter().enumerate() {
                kept[p * kept_len + i] = u;
            }
        }
        let bounds_len = (kept_len / BLOCK).next_multiple_of(BLOCK);
        let mut bounds = vec![f64::NEG_INFINITY; n_planes * bounds_len];
        for (p, column) in kept.chunks_exact(kept_len.max(1)).enumerate() {
            for (b, block) in column.chunks_exact(BLOCK).enumerate() {
                let bound = &mut bounds[p * bounds_len + b];
                for &u in block {
                    if u > *bound {
                        *bound = u;
                    }
                }
            }
        }
        Self {
            n_seg: basis.n_seg,
            n_planes,
            candidates: picks
                .iter()
                .flat_map(|&k| basis.node(k)[..n_planes].to_vec())
                .collect(),
            kept,
            kept_len,
            bounds,
            bounds_len,
        }
    }

    /// Number of segments in the factored ladder.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.n_seg
    }

    /// Number of planes the kernel expects powers for.
    #[must_use]
    pub fn plane_count(&self) -> usize {
        self.n_planes
    }

    /// The hotspot — the maximum node temperature rise — under one
    /// per-plane power vector: the candidates' max, then a scan of only
    /// the blocks whose bound exceeds it. Bitwise equal to the maximum
    /// over every node of the full solve of the same powers on the same
    /// geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] when the power count does
    /// not match the factored plane count, or a negative/non-finite power
    /// is supplied.
    pub fn max_delta_t(&self, plane_powers: &[Power]) -> Result<TemperatureDelta, CoreError> {
        validate_powers(self.n_planes, plane_powers)?;
        let mut max = f64::NEG_INFINITY;
        for c in self.candidates.chunks_exact(self.n_planes) {
            max = max.max(superpose(plane_powers, c));
        }
        for first in (0..self.bounds_len).step_by(BLOCK) {
            let bounds = superpose_block(plane_powers, &self.bounds, self.bounds_len, first);
            for (b, bound) in (first..).zip(bounds) {
                if bound > max {
                    let block = superpose_block(plane_powers, &self.kept, self.kept_len, b * BLOCK);
                    max = block.into_iter().fold(max, f64::max);
                }
            }
        }
        Ok(TemperatureDelta::from_kelvin(max))
    }
}
