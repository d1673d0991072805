//! The two-column thermal ladder both paper models solve.
//!
//! Segment `s` (bottom → top) has a bulk node `B_s` and a via node `V_s`:
//! vertical bulk and via-fill resistors to the segment below, a lateral
//! liner rung between the two, and `T₀` below the first segment, grounded
//! through `R_s`. Model B (§III, eq. 19) fills it with π-segments; Model A
//! (§II) is the one-segment-per-plane case with fitted resistances.
//!
//! # Runs in closed form
//!
//! A ladder is a handful of **runs**: maximal stretches of
//! bitwise-identical segments that lie inside one plane's heated range,
//! or inside none. Model B's `B(10, 1000)` has 2,010 segments in 8 runs
//! (1, 9, 1, 937, 62, 1, 937, 62); Model A's runs are its planes. Inside a
//! run of `m` segments with bulk, fill and liner conductances `g_b`, `g_f`,
//! `g_l`, whose bulk nodes each take `q`, the KCL equations are the
//! constant-coefficient fin equation, and they split into two modes:
//!
//! * the common mode `W = g_b·B + g_f·V` obeys
//!   `W_{j+1} − 2W_j + W_{j−1} = −q`: linear in `j` plus `q·j(m−j)/2`;
//! * the difference mode `D = B − V` obeys
//!   `D_{j+1} − (2+κ)·D_j + D_{j−1} = −q/g_b` with
//!   `κ = g_l·(1/g_b + 1/g_f)`, so `D_j = q/(g_b·κ) + c·μ^j + d·μ^{m−j}`,
//!   where `μ + 1/μ = 2 + κ` and `μ < 1`.
//!
//! Each run is condensed onto its top node: an exact Schur complement of
//! its `m − 1` interior nodes, written with `μ^j` and `μ^{m−j}` only, so
//! nothing grows along a 937-segment silicon run. The condensed system —
//! `T₀` plus one 2×2 block per run, 9 blocks for `B(10, 1000)` — is block
//! tridiagonal, and [`BlockTridiagonal`] solves it for the `n_planes` unit
//! right-hand sides. The interior nodes are then evaluated in closed form
//! from their run's two end nodes, on the fly, so no full response basis
//! is ever stored. A run of one segment has no interior and keeps the
//! ladder's own block: Model A's condensed system is its ladder, and its
//! results are bitwise those of the full block-Thomas solve.
//!
//! The plane powers enter the right-hand side linearly, so every path
//! superposes the unit responses (`T_i = Σ_p P_p·u_p[i]`, one shared
//! expression), and a [`LadderKernel`] keeps only the nodes that can be
//! hottest. Against block Thomas over the full ladder with one step of
//! iterative refinement (the reference the tests keep) every Model B node
//! temperature agrees to a relative 1e-12 on the paper's scenarios, and
//! within 1e-9 on random ladders; plain block Thomas errs by up to 1e-8
//! on `B(1000)` ladders, because a long run's diagonal `2g_b + g_l` holds
//! the liner rung `g_l ≈ 10⁻⁵·g_b` at a relative precision of `ε·g_b/g_l`,
//! while the closed form reads `κ` off the conductances directly.

use std::cell::RefCell;
use std::ops::Range;

use ttsv_linalg::BlockTridiagonal;
use ttsv_units::{Power, TemperatureDelta};

use crate::error::CoreError;

/// One segment's resistances in K/W.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) r_bulk: f64,
    pub(crate) r_fill: f64,
    pub(crate) r_lat: f64,
}

impl Segment {
    /// Only bitwise-identical segments share a run.
    fn same_bits(&self, other: &Segment) -> bool {
        self.r_bulk.to_bits() == other.r_bulk.to_bits()
            && self.r_fill.to_bits() == other.r_fill.to_bits()
            && self.r_lat.to_bits() == other.r_lat.to_bits()
    }
}

/// A 2×2 block over `(bulk, via)`, row-major.
type Block = [f64; 4];

fn add_block(to: &mut Block, block: Block) {
    for (a, b) in to.iter_mut().zip(block) {
        *a += b;
    }
}

/// A run of `len` identical segments, condensed onto its top node.
#[derive(Debug, Clone, Copy)]
struct Run {
    len: usize,
    g_bulk: f64,
    g_fill: f64,
    g_lat: f64,
    /// The plane whose one watt the run's bulk nodes share, and each
    /// node's share of it.
    heated: Option<(usize, f64)>,
    /// The difference mode's `μ` and `1 − μ²`, for runs of two or more
    /// segments.
    mu: f64,
    one_minus_mu2: f64,
    /// `1 / (1 − μ^{2m})`.
    inv_den: f64,
    /// The end node's difference-mode drop into the run per unit of
    /// `D`: `D_0 − D_1 = α·(D_0 − D_p) − β·(D_m − D_p)`.
    alpha: f64,
    beta: f64,
}

impl Run {
    fn new(segment: &Segment, len: usize, heated: Option<(usize, f64)>) -> Self {
        let (g_bulk, g_fill, g_lat) = (
            1.0 / segment.r_bulk,
            1.0 / segment.r_fill,
            1.0 / segment.r_lat,
        );
        let mut run = Run {
            len,
            g_bulk,
            g_fill,
            g_lat,
            heated,
            mu: 0.0,
            one_minus_mu2: 0.0,
            inv_den: 0.0,
            alpha: 1.0,
            beta: 1.0,
        };
        if len > 1 {
            // μ = e^{−λ} with cosh λ = 1 + κ/2, i.e. λ = 2·asinh(√κ / 2),
            // and every `1 − μ^k` through `expm1`: accurate to rounding
            // even where κ is tiny and μ → 1.
            let kappa = g_lat * (1.0 / g_bulk + 1.0 / g_fill);
            let lambda = 2.0 * (0.5 * kappa.sqrt()).asinh();
            let pow = |k: f64| (-k * lambda).exp();
            let one_minus_pow = |k: f64| -(-k * lambda).exp_m1();
            let m = len as f64;
            run.mu = pow(1.0);
            run.one_minus_mu2 = one_minus_pow(2.0);
            run.inv_den = 1.0 / one_minus_pow(2.0 * m);
            run.alpha = one_minus_pow(1.0) * (1.0 + pow(2.0 * m - 1.0)) * run.inv_den;
            run.beta = pow(m - 1.0) * run.one_minus_mu2 * run.inv_den;
        }
        run
    }

    /// The difference mode's particular solution per unit `q`,
    /// `D_p = q / (g_b·κ) = q·g_f / (g_l·(g_b + g_f))`.
    fn particular(&self) -> f64 {
        self.g_fill / (self.g_lat * (self.g_bulk + self.g_fill))
    }

    /// The run's condensed two-port between the node below it and its top
    /// node, the Schur complement of its interior: `(end, across, load)`,
    /// with `end` the block each end node gains on its diagonal (the same
    /// at both ends, by symmetry), `across` the symmetric block coupling
    /// the two ends, and `load` the `(bulk, via)` heat each end receives
    /// per unit `q` of the interior's injection. A one-segment run is its
    /// two vertical resistors.
    fn two_port(&self) -> (Block, Block, [f64; 2]) {
        let (g_b, g_f) = (self.g_bulk, self.g_fill);
        if self.len == 1 {
            return ([g_b, 0.0, 0.0, g_f], [-g_b, 0.0, 0.0, -g_f], [0.0; 2]);
        }
        // The end fluxes into the run, from the two modes:
        // F_B = (g_b/G)·(ΔW + g_f·ΔD) and F_V = (g_f/G)·(ΔW − g_b·ΔD), with
        // ΔW = (W_0 − W_m)/m − q(m−1)/2 and ΔD as on `alpha`.
        let m = self.len as f64;
        let g = g_b + g_f;
        let (alpha, beta) = (self.alpha, self.beta);
        let cross = g_b * g_f / g;
        let end_bv = cross * (1.0 / m - alpha);
        let end = [
            g_b / g * (g_b / m + g_f * alpha),
            end_bv,
            end_bv,
            g_f / g * (g_f / m + g_b * alpha),
        ];
        let across_bv = cross * (beta - 1.0 / m);
        let across = [
            -(g_b / g * (g_b / m + g_f * beta)),
            across_bv,
            across_bv,
            -(g_f / g * (g_f / m + g_b * beta)),
        ];
        let half = (m - 1.0) / 2.0;
        let shift = cross * (alpha - beta) * self.particular();
        (
            end,
            across,
            [g_b / g * half + shift, g_f / g * half - shift],
        )
    }
}

/// The runs of a ladder given as `(segment, count)` pieces, bottom → top:
/// every piece cut at the `heated` range boundaries, then neighbours with
/// identical segments and the same heated range (or none) merged.
fn runs(pieces: &[(Segment, usize)], heated: &[Range<usize>]) -> Vec<Run> {
    let mut stretches: Vec<(Segment, usize, Option<usize>)> = Vec::new();
    let (mut start, mut p) = (0, 0);
    for &(segment, count) in pieces {
        let end = start + count;
        while start < end {
            while heated.get(p).is_some_and(|h| h.end <= start) {
                p += 1;
            }
            let (plane, stop) = match heated.get(p) {
                Some(h) if h.start <= start => (Some(p), h.end),
                Some(h) => (None, h.start),
                None => (None, end),
            };
            let stop = stop.min(end);
            match stretches.last_mut() {
                Some((last, len, label)) if *label == plane && last.same_bits(&segment) => {
                    *len += stop - start;
                }
                _ => stretches.push((segment, stop - start, plane)),
            }
            start = stop;
        }
    }
    stretches
        .iter()
        .map(|(segment, len, plane)| {
            let heated = plane.map(|p| (p, 1.0 / heated[p].len() as f64));
            Run::new(segment, *len, heated)
        })
        .collect()
}

/// The superposition `Σ_p P_p·u_p` — summed in plane order from `0.0`,
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

/// One level of the hotspot kernel's bound tree: `len` entries per plane
/// (a multiple of `BLOCK`), plane-major, `values[p * len + i]`.
#[derive(Debug, Clone)]
pub(crate) struct Level {
    pub(crate) values: Vec<f64>,
    pub(crate) len: usize,
}

impl Level {
    /// The level above: each block's componentwise maximum, padded to
    /// whole blocks with `−∞` (a padded bound superposes to `−∞` or NaN,
    /// never above a real max).
    fn block_maxima(&self) -> Level {
        let len = (self.len / BLOCK).next_multiple_of(BLOCK);
        let mut values = Vec::with_capacity(self.values.len() / self.len.max(1) * len);
        for column in self.values.chunks_exact(self.len.max(1)) {
            let start = values.len();
            values.extend(
                column
                    .chunks_exact(BLOCK)
                    .map(|block| block.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            );
            values.resize(start + len, f64::NEG_INFINITY);
        }
        Level { values, len }
    }
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
    /// This thread's store of the nodes a kernel build keeps, plane-major
    /// at a stride of the ladder's node count, reused across builds: the
    /// kernel copies out only what it keeps, and the store's pages stay
    /// mapped from one build to the next.
    static STORED: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The ladder's unit responses: every node temperature under one watt on
/// each plane. Only the runs' end nodes are stored, from one solve of the
/// condensed system; [`ResponseBasis::for_each_node`] evaluates the rest
/// in closed form. Transient — superposed into node temperatures or
/// pruned into a [`LadderKernel`].
pub(crate) struct ResponseBasis {
    n_seg: usize,
    n_planes: usize,
    /// Planes rounded up to whole four-lane passes.
    width: usize,
    runs: Vec<Run>,
    /// Node-major responses over the condensed unknowns:
    /// `ends[i * width + p]` is unknown `i`'s response to one watt on
    /// plane `p`, zero in the lanes past `n_planes`. Unknown 0 is `T₀`,
    /// unknown 1 a decoupled dummy, and unknowns `2r + 2`, `2r + 3` the
    /// bulk and via nodes at the top of run `r`.
    ends: Vec<f64>,
}

impl ResponseBasis {
    /// Condenses the ladder of `pieces` — `(segment, count)` stretches,
    /// bottom → top — grounded through `rs`, onto its runs' top nodes and
    /// solves the condensed system for the unit right-hand sides, four
    /// lanes per pass ([`BlockTridiagonalLu::solve_interleaved_x4`]).
    /// `heated[p]` is the range of segments whose bulk nodes share plane
    /// `p`'s power equally.
    ///
    /// The condensed system pads its unknowns to an even count — block 0
    /// is `(T₀, dummy)` with a decoupled unit-diagonal dummy, block `r + 1`
    /// the top of run `r` — so `T₀`'s coupling to both chains of the first
    /// run lands in the single off-diagonal block between blocks 0 and 1.
    ///
    /// [`BlockTridiagonalLu::solve_interleaved_x4`]: ttsv_linalg::BlockTridiagonalLu::solve_interleaved_x4
    pub(crate) fn new(
        pieces: &[(Segment, usize)],
        rs: f64,
        heated: &[Range<usize>],
    ) -> Result<Self, CoreError> {
        let runs = runs(pieces, heated);
        let n_planes = heated.len();
        let nb = runs.len() + 1;
        let passes = n_planes.div_ceil(4);
        let pass_len = 8 * nb;
        let mut lanes = vec![0.0; passes * pass_len];
        let mut diag = vec![[0.0; 4]; nb];
        diag[0] = [1.0 / rs, 0.0, 0.0, 1.0];
        let mut lower = Vec::with_capacity(nb - 1);
        let mut upper = Vec::with_capacity(nb - 1);
        for (r, run) in runs.iter().enumerate() {
            let (end, across, load) = run.two_port();
            if r == 0 {
                // T₀ is the node below the first run on both chains.
                for e in end {
                    diag[0][0] += e;
                }
                upper.push([across[0] + across[2], across[1] + across[3], 0.0, 0.0]);
                lower.push([across[0] + across[1], 0.0, across[2] + across[3], 0.0]);
            } else {
                add_block(&mut diag[r], end);
                upper.push(across);
                lower.push(across);
            }
            let lat = run.g_lat;
            add_block(&mut diag[r + 1], end);
            add_block(&mut diag[r + 1], [lat, -lat, -lat, lat]);

            // One watt on the heated plane: `share` into the top node's
            // bulk, and the interior's share through the two-port's load.
            if let Some((plane, share)) = run.heated {
                let mut inject = |unknown: usize, watts: f64| {
                    lanes[(plane / 4) * pass_len + 4 * unknown + plane % 4] += watts;
                };
                inject(2 * r + 2, share);
                if run.len > 1 {
                    if r == 0 {
                        inject(0, (load[0] + load[1]) * share);
                    } else {
                        inject(2 * r, load[0] * share);
                        inject(2 * r + 1, load[1] * share);
                    }
                    inject(2 * r + 2, load[0] * share);
                    inject(2 * r + 3, load[1] * share);
                }
            }
        }
        let lu = BlockTridiagonal::from_blocks(diag, lower, upper).factorize()?;
        for z in lanes.chunks_exact_mut(pass_len) {
            lu.solve_interleaved_x4(z)?;
        }

        // One pass is already node-major; more are interleaved side by
        // side.
        let width = 4 * passes;
        let ends = if passes == 1 {
            lanes
        } else {
            let mut ends = vec![0.0; lanes.len()];
            for (pass, z) in lanes.chunks_exact(pass_len).enumerate() {
                for (i, lane) in z.chunks_exact(4).enumerate() {
                    ends[i * width + 4 * pass..][..4].copy_from_slice(lane);
                }
            }
            ends
        };
        Ok(Self {
            n_seg: runs.iter().map(|run| run.len).sum(),
            n_planes,
            width,
            runs,
            ends,
        })
    }

    /// Calls `f(k, u)` with every ladder node `k`'s responses `u` — one
    /// per lane, `width` of them, zero past `n_planes` — in
    /// `[T0, B₁, V₁, B₂, V₂, …]` order: each run's interior nodes in
    /// closed form, then its top node from the condensed solve. Every call
    /// runs the same operations, so a node's responses are bitwise the
    /// same on every visit. Given `dominator`, only the nodes above it in
    /// some lane are visited.
    fn for_each_node(&self, dominator: Option<&[f64]>, mut f: impl FnMut(usize, &[f64])) {
        let width = self.width;
        let end = |i: usize| &self.ends[i * width..][..width];
        let mut visit = |k: usize, u: &[f64]| {
            if dominator.is_none_or(|d| above(u, d)) {
                f(k, u);
            }
        };
        visit(0, end(0));
        let longest = self.runs.iter().map(|run| run.len).max().unwrap_or(0);
        let mut mode = ModeScratch::new(width, longest);
        let mut first = 0;
        for (r, run) in self.runs.iter().enumerate() {
            if run.len > 1 {
                let below = if r == 0 {
                    (end(0), end(0))
                } else {
                    (end(2 * r), end(2 * r + 1))
                };
                mode.prepare(run, below, (end(2 * r + 2), end(2 * r + 3)));
                for j in 1..run.len {
                    mode.evaluate_at(run, j);
                    let k = 2 * (first + j) - 1;
                    visit(k, &mode.bulk);
                    visit(k + 1, &mode.via);
                }
            }
            first += run.len;
            visit(2 * first - 1, end(2 * r + 2));
            visit(2 * first, end(2 * r + 3));
        }
    }

    /// The end node — `T₀` or a run's top bulk or via node — hottest
    /// under the all-ones direction, as its ladder node index and
    /// responses.
    fn hottest_end(&self) -> (usize, &[f64]) {
        let width = self.width;
        let end = |i: usize| &self.ends[i * width..][..width];
        let all_ones = |i: usize| end(i).iter().sum::<f64>();
        // Unknown `2r + 2 + c` is node `2·S_r − 1 + c`, with `S_r` the
        // segments up to run `r`'s top.
        let mut best = (all_ones(0), 0, 0);
        let mut segments = 0;
        for (r, run) in self.runs.iter().enumerate() {
            segments += run.len;
            for c in 0..2 {
                let i = 2 * r + 2 + c;
                if all_ones(i) > best.0 {
                    best = (all_ones(i), i, 2 * segments - 1 + c);
                }
            }
        }
        (best.2, end(best.1))
    }

    /// Every node temperature under `plane_powers`, by [`superpose`], in
    /// `[T0, B₁, V₁, B₂, V₂, …]` order.
    pub(crate) fn temperatures(&self, plane_powers: &[Power]) -> Result<Vec<f64>, CoreError> {
        validate_powers(self.n_planes, plane_powers)?;
        let mut t = Vec::with_capacity(1 + 2 * self.n_seg);
        self.for_each_node(None, |_, u| t.push(superpose(plane_powers, u)));
        Ok(t)
    }
}

/// One four-lane chunk of a run's interior in closed form, each mode
/// scaled by `1 / G`: the common mode `W/G = w₀ + Δw·j/m + q·j(m−j)/2`
/// and the difference mode `D/G = d_p + d₀·φ_j + d_m·ψ_j`, as
/// `[w₀, Δw, q, d_p, d₀, d_m]`.
type Modes = [[f64; 4]; 6];

/// Whether `u` is above `dominator` in some lane — branch-free: in flat
/// regions nodes straddle a dominator by rounding noise, so a branch per
/// lane would mispredict half the time.
#[inline]
fn above(u: &[f64], dominator: &[f64]) -> bool {
    let (u, dominator) = (u.as_chunks::<4>().0, dominator.as_chunks::<4>().0);
    u.iter().zip(dominator).fold(false, |any, (u, v)| {
        any | (u[0] > v[0]) | (u[1] > v[1]) | (u[2] > v[2]) | (u[3] > v[3])
    })
}

/// Per-lane buffers for the closed-form interior of a run, reused across
/// runs.
struct ModeScratch {
    /// The run's modes, per four-lane chunk.
    modes: Vec<Modes>,
    /// The interior segment being visited: its bulk and via responses.
    bulk: Vec<f64>,
    via: Vec<f64>,
    /// `μ^k` and `1 − μ^{2k}`, `k = 0..=m`.
    pow: Vec<f64>,
    one_minus_pow2: Vec<f64>,
}

impl ModeScratch {
    fn new(width: usize, longest_run: usize) -> Self {
        Self {
            modes: vec![[[0.0; 4]; 6]; width / 4],
            bulk: vec![0.0; width],
            via: vec![0.0; width],
            pow: Vec::with_capacity(longest_run + 1),
            one_minus_pow2: Vec::with_capacity(longest_run + 1),
        }
    }

    /// Readies the closed form of `run`'s interior from the `(bulk, via)`
    /// responses of the node below the run and of its top node:
    /// `W_j = W_0 + (W_m − W_0)·j/m + q·j(m−j)/2` and
    /// `D_j = D_p + (D_0 − D_p)·φ_j + (D_m − D_p)·ψ_j`, with
    /// `φ_j = μ^j·(1 − μ^{2(m−j)}) / (1 − μ^{2m})` and `ψ_j = φ_{m−j}`;
    /// then `B = (W + g_f·D) / G` and `V = (W − g_b·D) / G`.
    fn prepare(&mut self, run: &Run, (b0, v0): (&[f64], &[f64]), (bm, vm): (&[f64], &[f64])) {
        let (g_b, g_f) = (run.g_bulk, run.g_fill);
        let g = g_b + g_f;
        let particular = run.particular();
        for (c, modes) in self.modes.iter_mut().enumerate() {
            for k in 0..4 {
                let l = 4 * c + k;
                let q = match run.heated {
                    Some((plane, share)) if plane == l => share,
                    _ => 0.0,
                };
                let dp = q * particular;
                let w0 = g_b * b0[l] + g_f * v0[l];
                let dw = (g_b * bm[l] + g_f * vm[l]) - w0;
                let (d0, dm) = ((b0[l] - v0[l]) - dp, (bm[l] - vm[l]) - dp);
                for (mode, term) in modes.iter_mut().zip([w0, dw, q, dp, d0, dm]) {
                    mode[k] = term / g;
                }
            }
        }

        // Both tables by recurrences of positive terms, so neither
        // cancels: μ^{k+1} = μ^k·μ and
        // 1 − μ^{2(k+1)} = (1 − μ^{2k})·μ² + (1 − μ²).
        let (mu, mu2, first) = (run.mu, run.mu * run.mu, run.one_minus_mu2);
        self.pow.clear();
        self.one_minus_pow2.clear();
        let (mut pow, mut one_minus) = (1.0, 0.0);
        for _ in 0..=run.len {
            self.pow.push(pow);
            self.one_minus_pow2.push(one_minus);
            pow *= mu;
            one_minus = one_minus * mu2 + first;
        }
    }

    /// Interior segment `j`'s bulk and via responses, after
    /// [`ModeScratch::prepare`] for `run`: `B = W/G + g_f·D/G` and
    /// `V = W/G − g_b·D/G` at `[j/m, j(m−j)/2, φ_j, ψ_j]`.
    #[inline(always)]
    fn evaluate_at(&mut self, run: &Run, j: usize) {
        let m = run.len;
        let (j_f, m_f) = (j as f64, m as f64);
        let x = [
            j_f * (1.0 / m_f),
            j_f * (m_f - j_f) * 0.5,
            self.pow[j] * self.one_minus_pow2[m - j] * run.inv_den,
            self.pow[m - j] * self.one_minus_pow2[j] * run.inv_den,
        ];
        let (g_b, g_f) = (run.g_bulk, run.g_fill);
        let lanes = self.bulk.as_chunks_mut::<4>().0.iter_mut();
        let lanes = lanes.zip(self.via.as_chunks_mut::<4>().0.iter_mut());
        for ((bulk, via), [w0, dw, q, dp, d0, dm]) in lanes.zip(&self.modes) {
            for k in 0..4 {
                let w = w0[k] + dw[k] * x[0] + q[k] * x[1];
                let d = dp[k] + d0[k] * x[2] + dm[k] * x[3];
                bulk[k] = w + g_f * d;
                via[k] = w - g_b * d;
            }
        }
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
///   dominate componentwise, stored plane-major in blocks of 16 under a
///   bound tree of fan-out 16: each block's componentwise maximum `U_B`,
///   each 16 blocks' componentwise maximum `U_SB`, and so on up to a
///   level that fits in one block.
///
/// [`LadderKernel::max_delta_t`] takes `m` as the max over the
/// candidates, then descends the tree from its top level into only the
/// entries whose superposed bound (`P·U_SB`, then `P·U_B`) exceeds `m`,
/// and scans the blocks it reaches. Powers are validated finite and
/// non-negative, and rounded products and sums are monotone, so
/// `u_i ≤ u_j` componentwise implies `fl(P·u_i) ≤ fl(P·u_j)` for the one
/// shared evaluation order. A dominated node or a skipped subtree can
/// therefore never beat `m`, and the pruned max is **bitwise** the max
/// over all nodes — what
/// [`ModelB::solve`](crate::model_b::ModelB::solve) and
/// [`ModelA::solve`](crate::model_a::ModelA::solve) return as the
/// maximum (the property suites assert it). The kernel is built in three
/// passes over the nodes, each evaluating the runs' closed form afresh
/// (candidates, then the kept count, then the kept responses), so no
/// full response basis is ever stored; the condensed factors are dropped
/// once it is built.
///
/// On the serving geometry (Model B `B(1000)` with 10 first-plane
/// segments, 3 planes, 4,021 nodes in 8 runs) the kernel keeps the 2,006
/// nodes its top bulk node does not dominate — nearly every bulk node
/// above the first plane's silicon, whose responses to the lower planes
/// decay towards the top — in 126 blocks under 8 super-bounds, 52,064
/// bytes ([`LadderKernel::heap_bytes`]); the pass compares every node
/// with that dominator as the closed form evaluates it, and hands on only
/// the kept ones. A kernel of at most 16 blocks has only the `U_B` level, and
/// a Model A ladder (`2·n_planes + 1` nodes) keeps at most one block and
/// no bounds.
#[derive(Debug, Clone)]
pub struct LadderKernel {
    n_seg: usize,
    n_planes: usize,
    /// Candidate responses, node-major: `candidates[c * n_planes + p]`.
    pub(crate) candidates: Vec<f64>,
    /// The kept responses and the bound tree above them, finest first:
    /// `tree[0]` holds the kept responses, padded to whole blocks by
    /// repeating the last kept node; each further level holds the
    /// per-block maxima of the one below; the last fits in one block.
    pub(crate) tree: Vec<Level>,
}

impl LadderKernel {
    /// Prunes a response basis to its hotspot kernel in one pass over the
    /// nodes. Which nodes are picked affects only how much is pruned,
    /// never the result: every node is kept, or dominated by a candidate.
    pub(crate) fn from_basis(basis: &ResponseBasis) -> Self {
        let n_planes = basis.n_planes;
        let stride = 1 + 2 * basis.n_seg;

        // The provisional dominator, known before the pass: the end node
        // hottest under the all-ones direction (on the serving ladder it
        // is the all-ones argmax itself, the top bulk node).
        let (first_pick, provisional) = basis.hottest_end();
        let all_ones = |u: &[f64]| u.iter().sum::<f64>();

        // One pass over the nodes the provisional dominator does not
        // dominate — no other node can be an argmax — storing each
        // plane-major at stride `n_nodes`, and tracking the argmax under
        // the all-ones direction and under each unit direction as
        // `(value, node, store slot)` (no slot: the provisional one).
        let mut top_all_ones = (all_ones(provisional), first_pick, None);
        let mut tops: Vec<_> = provisional[..n_planes]
            .iter()
            .map(|&u| (u, first_pick, None))
            .collect();
        let (kept, candidates) = STORED.with_borrow_mut(|stored| {
            // Every slot is written before it is read.
            if stored.len() < n_planes * stride {
                stored.resize(n_planes * stride, 0.0);
            }
            let mut count = 0;
            basis.for_each_node(Some(provisional), |k, u| {
                let sum = all_ones(u);
                if sum > top_all_ones.0 {
                    top_all_ones = (sum, k, Some(count));
                }
                for (p, (&u_p, top)) in u.iter().zip(&mut tops).enumerate() {
                    if u_p > top.0 {
                        *top = (u_p, k, Some(count));
                    }
                    stored[p * stride + count] = u_p;
                }
                count += 1;
            });
            let responses = |slot: Option<usize>| match slot {
                Some(i) => (0..n_planes).map(|p| stored[p * stride + i]).collect(),
                None => provisional[..n_planes].to_vec(),
            };

            // Candidates, once each: the provisional dominator, the
            // all-ones argmax and each plane's argmax.
            let mut picks = vec![first_pick];
            let mut candidates = responses(None);
            let argmaxes = std::iter::once(&top_all_ones).chain(&tops);
            for &(_, k, slot) in argmaxes {
                if !picks.contains(&k) {
                    picks.push(k);
                    candidates.extend(responses(slot));
                }
            }

            // Kept: the stored nodes the all-ones argmax does not dominate
            // either, compacted in place, then copied out in whole blocks
            // per plane, padded by repeating the last one.
            if top_all_ones.2.is_some() {
                let dominator: Vec<f64> = responses(top_all_ones.2);
                let mut out = 0;
                for i in 0..count {
                    let u = |p: usize| stored[p * stride + i];
                    let keep = (0..n_planes).fold(false, |any, p| any | (u(p) > dominator[p]));
                    for p in 0..n_planes {
                        stored[p * stride + out] = stored[p * stride + i];
                    }
                    out += usize::from(keep);
                }
                count = out;
            }
            let kept_len = count.next_multiple_of(BLOCK);
            let mut kept = Vec::with_capacity(n_planes * kept_len);
            for column in stored.chunks_exact(stride) {
                let column = &column[..count];
                kept.extend_from_slice(column);
                if let Some(&last) = column.last() {
                    kept.resize(kept.len() + kept_len - count, last);
                }
            }
            let kept = Level {
                values: kept,
                len: kept_len,
            };
            (kept, candidates)
        });

        // The bound tree's levels up to one block.
        let mut tree = vec![kept];
        while let Some(top) = tree.last().filter(|top| top.len > BLOCK) {
            let above = top.block_maxima();
            tree.push(above);
        }
        Self {
            n_seg: basis.n_seg,
            n_planes,
            candidates,
            tree,
        }
    }

    /// The heap memory the kernel holds: its candidates and every level
    /// of its bound tree — what a chip pays per held kernel.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let f64s = self.candidates.capacity()
            + self
                .tree
                .iter()
                .map(|level| level.values.capacity())
                .sum::<usize>();
        f64s * size_of::<f64>() + self.tree.capacity() * size_of::<Level>()
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
    /// per-plane power vector: the candidates' max, then a descent of the
    /// bound tree into only the super-blocks and blocks whose bound
    /// exceeds it. Bitwise equal to the maximum over every node of the
    /// full solve of the same powers on the same geometry.
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
        let top = self.tree.len() - 1;
        if self.tree[top].len > 0 {
            self.descend(plane_powers, top, 0, &mut max);
        }
        Ok(TemperatureDelta::from_kelvin(max))
    }

    /// Raises `max` to the hottest kept node under the block of tree
    /// `level` that starts at entry `first`, descending only into the
    /// entries whose superposed bound exceeds `max` (a padded bound
    /// superposes to `−∞` or NaN, and neither does).
    fn descend(&self, plane_powers: &[Power], level: usize, first: usize, max: &mut f64) {
        let Level { values, len } = &self.tree[level];
        let sums = superpose_block(plane_powers, values, *len, first);
        if level == 0 {
            *max = sums.into_iter().fold(*max, f64::max);
        } else {
            for (i, sum) in (first..).zip(sums) {
                if sum > *max {
                    self.descend(plane_powers, level - 1, i * BLOCK, max);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_b::tests::refined_block_thomas_responses;
    use proptest::prelude::*;

    proptest! {
        /// Synthetic ladders well outside the paper's geometries — each
        /// run's bulk and fill resistances log-uniform over six decades,
        /// its `κ` over eight (1e-6 … 1e2), so `κ·m²` spans ~1e-6 to ~1e7
        /// and `μ^m` underflows on the long, tightly coupled runs — agree
        /// with refined block Thomas over the full ladder to 1e-8 of the
        /// hottest node, for one watt on each heated run. Node
        /// temperatures here span up to four decades and conductances
        /// eight, so the condensed system is far worse conditioned than any
        /// paper ladder, and the bound is normwise and ten times looser
        /// than the 1e-9 the paper's ladders meet node by node.
        #[test]
        fn closed_form_matches_block_thomas_on_synthetic_ladders(
            drawn in prop::collection::vec(
                (1usize..300, -3.0..3.0f64, -3.0..3.0f64, -6.0..2.0f64, 0usize..2), 1..7),
            rs in -2.0..2.0f64,
        ) {
            let pieces: Vec<(Segment, usize)> = drawn
                .iter()
                .map(|&(len, b, f, kappa, _)| {
                    let (r_bulk, r_fill) = (10f64.powf(b), 10f64.powf(f));
                    let r_lat = (r_bulk + r_fill) / 10f64.powf(kappa);
                    (Segment { r_bulk, r_fill, r_lat }, len)
                })
                .collect();
            let mut heated = Vec::new();
            let mut start = 0;
            for (i, &(len, .., heat)) in drawn.iter().enumerate() {
                if heat == 1 || (i + 1 == drawn.len() && heated.is_empty()) {
                    heated.push(start..start + len);
                }
                start += len;
            }
            let rs = 10f64.powf(rs);
            let basis = ResponseBasis::new(&pieces, rs, &heated).unwrap();
            let segments: Vec<Segment> = pieces
                .iter()
                .flat_map(|&(segment, len)| std::iter::repeat_n(segment, len))
                .collect();
            let reference = refined_block_thomas_responses(&segments, rs, &heated);
            for p in 0..heated.len() {
                let unit: Vec<Power> = (0..heated.len())
                    .map(|q| Power::from_watts(if q == p { 1.0 } else { 0.0 }))
                    .collect();
                let closed = basis.temperatures(&unit).unwrap();
                let scale = reference.iter().map(|u| u[p].abs()).fold(0.0, f64::max);
                for (k, (x, u)) in closed.iter().zip(&reference).enumerate() {
                    prop_assert!(
                        (x - u[p]).abs() <= 1e-8 * scale,
                        "plane {p}, node {k}: {x} vs {} (of up to {scale})",
                        u[p]
                    );
                }
            }
        }
    }
}
