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
//! right-hand sides. Each run's two-port is diagonal in its own mode
//! coordinates — the common mode `S = W/G` and the difference mode `D`
//! — and a run top whose liner rung outweighs the common-mode
//! conductances meeting there is solved in them: the rung then touches
//! `D` alone, instead of rounding away the weak `G/m` beside it in a
//! `(bulk, via)` block. Other nodes stay in `(bulk, via)`, where a weak
//! rung costs nothing and a change of coordinates between runs of
//! different `g_b/G` would mix a strong common mode into `D`. Model A's
//! runs are single segments with their own `(bulk, via)` blocks, so its
//! condensed system is its ladder, and its results are bitwise those of
//! the full block-Thomas solve.
//!
//! Every interior node is then a closed form in its run's end nodes:
//! per run and plane six mode coefficients (`Modes`), evaluated at
//! `[j/m, j(m−j)/2, φ_j, ψ_j]` with `φ_j = μ^j·(1 − μ^{2(m−j)})/(1 − μ^{2m})`
//! and `ψ_j = φ_{m−j}`. The powers `μ^k` and `1 − μ^{2k}` come by binary
//! powering over the run's table of `μ^{2^i}` and `1 − μ^{2^{i+1}}`, the
//! low five bits of `k` and the rest each on their own, combined with
//! positive terms only (`1 − AB = (1 − A) + A·(1 − B)`). Any node thus
//! costs O(log m) from per-run state, a sweep over every node O(1) per
//! node (it caches the halves), and both get the same bits: one per-node
//! expression (`ResponseBasis::interior`) serves every path.
//!
//! The plane powers enter the right-hand side linearly, so every path
//! superposes the unit responses (`T_i = Σ_p P_p·u_p[i]`, one shared
//! expression), and the hotspot kernel ([`LadderKernel`]) keeps the
//! closed form itself, not node responses. Against block Thomas over the
//! full ladder with iterative refinement (the reference the tests keep)
//! every Model B node temperature agrees to a relative 1e-12 on the
//! paper's scenarios, and to 1e-9 on random ladders; plain block Thomas
//! errs by up to 1e-8 on `B(1000)` ladders, because a long run's diagonal
//! `2g_b + g_l` holds the liner rung `g_l ≈ 10⁻⁵·g_b` at a relative
//! precision of `ε·g_b/g_l`, while the closed form reads `κ` off the
//! conductances directly.

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

/// A 2×2 block, row-major.
type Block = [f64; 4];

fn add_block(to: &mut Block, block: Block) {
    for (a, b) in to.iter_mut().zip(block) {
        *a += b;
    }
}

/// A run's closed form in one plane's lane, each mode scaled by `1 / G`:
/// the common mode `W/G = w₀ + Δw·j/m + q·j(m−j)/2` and the difference
/// mode `D/G = d_p + d₀·φ_j + d_m·ψ_j`, as `[w₀, Δw, q, d_p, d₀, d_m]`.
/// Node `j`'s bulk response is `W/G + g_f·D/G`, its via response
/// `W/G − g_b·D/G`.
type Modes = [f64; 6];

/// Bits of `k` in the low half of [`Run::power`].
const LOW_BITS: u32 = 5;
const LOW_MASK: usize = (1 << LOW_BITS) - 1;

/// A run of `len` identical segments: what its condensation and its
/// closed form need.
#[derive(Debug, Clone, Copy)]
struct Run {
    len: usize,
    g_bulk: f64,
    g_fill: f64,
    g_lat: f64,
    /// The difference mode's `λ`, `μ = e^{−λ}` (zero on a one-segment
    /// run).
    lambda: f64,
    /// `1 / (1 − μ^{2m})`, `μ^m` and `μ^{m/2}`.
    inv_den: f64,
    mu_m: f64,
    half: f64,
    /// Where the run's power table starts in [`ResponseBasis`]' `tables`,
    /// and the bits of `k < m` it covers: `μ^{2^i}` for `i ≤ bits`, then
    /// `1 − μ^{2^{i+1}}` for `i < bits`.
    table: usize,
    bits: u32,
    /// Where the run's lanes start in [`ResponseBasis`]' `modes` (runs of
    /// two or more segments).
    modes: u32,
}

impl Run {
    /// A run of `len` copies of `segment`, its power table appended to
    /// `tables`.
    fn new(segment: &Segment, len: usize, tables: &mut Vec<f64>) -> Self {
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
            lambda: 0.0,
            inv_den: 0.0,
            mu_m: 0.0,
            half: 0.0,
            table: tables.len(),
            bits: 0,
            modes: 0,
        };
        if len > 1 {
            // μ = e^{−λ} with cosh λ = 1 + κ/2, i.e. λ = 2·asinh(√κ / 2),
            // and every `1 − μ^k` through `expm1`: accurate to rounding
            // even where κ is tiny and μ → 1.
            let kappa = g_lat * (1.0 / g_bulk + 1.0 / g_fill);
            run.lambda = 2.0 * (0.5 * kappa.sqrt()).asinh();
            let m = len as f64;
            run.inv_den = 1.0 / run.one_minus_pow(2.0 * m);
            run.half = run.pow(0.5 * m);
            run.mu_m = run.half * run.half;
            run.bits = usize::BITS - (len - 1).leading_zeros();
            let start = tables.len();
            tables.extend((0..=run.bits).map(|i| run.pow(f64::from(1u32 << i))));
            // 1 − μ^{2^{i+2}} = (1 − μ^{2^{i+1}})·(1 + μ^{2^{i+1}}): positive
            // terms, no cancellation.
            let mut one_minus = run.one_minus_pow(2.0);
            for i in 1..=run.bits as usize {
                tables.push(one_minus);
                one_minus *= 1.0 + tables[start + i];
            }
        }
        run
    }

    /// `μ^k` for real `k`.
    fn pow(&self, k: f64) -> f64 {
        (-k * self.lambda).exp()
    }

    /// `1 − μ^k` for real `k`, without cancellation.
    fn one_minus_pow(&self, k: f64) -> f64 {
        -(-k * self.lambda).exp_m1()
    }

    /// The difference mode's particular solution per unit `q`,
    /// `D_p = q / (g_b·κ) = q·g_f / (g_l·(g_b + g_f))`.
    fn particular(&self) -> f64 {
        self.g_fill / (self.g_lat * (self.g_bulk + self.g_fill))
    }

    /// The run's own coordinates: its modes, or `(bulk, via)` for one
    /// segment.
    fn coords(&self) -> Coords {
        if self.len == 1 {
            Coords::BulkVia
        } else {
            Coords::Modes(self.theta())
        }
    }

    /// The share of the common mode in the bulk node, `θ = g_b / G`: a
    /// node in the run's mode coordinates `(S, D)` is
    /// `B = S + (1 − θ)·D`, `V = S − θ·D`.
    fn theta(&self) -> f64 {
        self.g_bulk / (self.g_bulk + self.g_fill)
    }

    /// The run's condensed two-port between the node below it and its top
    /// node, the Schur complement of its interior, in the run's own
    /// coordinates — `(S, D)`, or `(bulk, via)` for a one-segment run —
    /// where it is diagonal: `(end, across, load)`, with `end` the
    /// diagonal each end node gains (the same at both ends, by symmetry),
    /// `across` the diagonal coupling the two ends, and `load` the heat
    /// each end receives per unit `q` of the interior's injection.
    fn two_port(&self) -> ([f64; 2], [f64; 2], [f64; 2]) {
        let (g_b, g_f) = (self.g_bulk, self.g_fill);
        if self.len == 1 {
            return ([g_b, g_f], [-g_b, -g_f], [0.0; 2]);
        }
        // The end fluxes into the run, from the two modes: the common one
        // carries G·(S_0 − S_m)/m − q(m−1)/2, the difference one
        // cross·(D_0 − D_1) with D_0 − D_1 = α·(D_0 − D_p) − β·(D_m − D_p).
        let m = self.len as f64;
        let alpha = self.one_minus_pow(1.0) * (1.0 + self.pow(2.0 * m - 1.0)) * self.inv_den;
        let beta = self.pow(m - 1.0) * self.one_minus_pow(2.0) * self.inv_den;
        let g = g_b + g_f;
        let cross = g_b * g_f / g;
        (
            [g / m, cross * alpha],
            [-(g / m), -(cross * beta)],
            [(m - 1.0) / 2.0, cross * (alpha - beta) * self.particular()],
        )
    }

    /// `[μ^k', μ^{2k'}, 1 − μ^{2k'}]` for `k'` the bits of `k` in `bits`,
    /// by binary powering over the run's table.
    #[inline]
    fn power_bits(&self, tables: &[f64], k: usize, bits: Range<u32>) -> [f64; 3] {
        let n = self.bits as usize;
        let pow = &tables[self.table..][..=n];
        let one_minus = &tables[self.table + n + 1..][..n];
        let (mut p, mut p2, mut o) = (1.0, 1.0, 0.0);
        for i in bits {
            if (k >> i) & 1 == 1 {
                let i = i as usize;
                p *= pow[i];
                o += p2 * one_minus[i];
                p2 *= pow[i + 1];
            }
        }
        [p, p2, o]
    }

    /// The magnitude a lane's rounding errors scale with: the sum of its
    /// terms' largest absolute values over the run.
    fn scale(&self, [w0, dw, q, dp, d0, dm]: &Modes) -> f64 {
        let m = self.len as f64;
        w0.abs()
            + dw.abs()
            + q.abs() * (0.125 * m * m)
            + self.g_bulk.max(self.g_fill) * (dp.abs() + d0.abs() + dm.abs())
    }

    /// Twice a bound on how far an interior node's rounded value, `n`
    /// lanes superposed, strays from the closed form it evaluates, for
    /// lanes of summed [`Run::scale`] `scale`: its powers take at most
    /// `4·bits + 4` roundings (its table entries up to `2·bits` more), its
    /// lane eight more, its superposition `n`, each at most `ε/2` of
    /// `scale`.
    fn margin(&self, n: usize, scale: f64) -> f64 {
        2.0 * (6 * self.bits as usize + n + 18) as f64 * f64::EPSILON * scale
    }

    /// `(μ^k, 1 − μ^{2k})` for `k < 2^bits`.
    #[inline]
    fn power(&self, tables: &[f64], k: usize) -> (f64, f64) {
        combine(
            self.power_bits(tables, k, LOW_BITS..self.bits),
            self.power_bits(tables, k, 0..LOW_BITS),
        )
    }

    /// Pushes onto `out` every stationary point in `[0, m]` of
    /// `f(t) = b·t/m + q·t(m−t)/2 + s·(c·φ(t) + d·ψ(t))`, the shape of a
    /// superposed column (`s = g_f` bulk, `−g_b` via). With
    /// `a = e^{−λt}` and `β = e^{−λ(m−t)}`,
    /// `f'(t) = b/m + q·(m/2 − t) + a₁·a + a₂·β`: for `q = 0` a quadratic
    /// in `μ^t`, for `q ≠ 0` monotone between the zeros of
    /// `f''(t) = −q − λa₁·a + λa₂·β` (a quadratic again), where a
    /// bracketed Newton step finds its root.
    fn stationary_points(&self, [b, q, c, d]: [f64; 4], s: f64, out: &mut Vec<f64>) {
        let (lambda, m) = (self.lambda, self.len as f64);
        let k = s * lambda * self.inv_den;
        let (a1, a2) = (k * (d * self.mu_m - c), k * (d - c * self.mu_m));
        let mut push = |t: f64| {
            // A NaN or an infinity from a degenerate form is no point.
            if (0.0..=m).contains(&t) {
                out.push(t);
            }
        };
        if q == 0.0 {
            exp_pair_roots(self, [a1, b / m, a2], &mut push);
            return;
        }
        let slope = |t: f64| {
            let (a, beta) = (self.pow(t), self.pow(m - t));
            (
                b / m + q * (0.5 * m - t) + a1 * a + a2 * beta,
                -q - lambda * a1 * a + lambda * a2 * beta,
            )
        };
        let mut splits = [0.0, m, m, m, m];
        let mut len = 2;
        exp_pair_roots(self, [-lambda * a1, -q, lambda * a2], &mut |t| {
            if (0.0..=m).contains(&t) && len < splits.len() {
                splits[len] = t;
                len += 1;
            }
        });
        let splits = &mut splits[..len];
        splits.sort_by(f64::total_cmp);
        for piece in splits.windows(2) {
            let (lo, hi) = (piece[0], piece[1]);
            let (f_lo, f_hi) = (slope(lo).0, slope(hi).0);
            if f_lo == 0.0 {
                push(lo);
            } else if f_lo * f_hi < 0.0 {
                push(bracketed_root(slope, lo, hi, f_lo));
            }
        }
    }
}

/// `(μ^k, 1 − μ^{2k})` from the `[μ^h, μ^{2h}, 1 − μ^{2h}]` of `k`'s high
/// bits and the `[μ^l, μ^{2l}, 1 − μ^{2l}]` of its low ones.
#[inline]
fn combine([ph, p2h, oh]: [f64; 3], [pl, _, ol]: [f64; 3]) -> (f64, f64) {
    (ph * pl, oh + p2h * ol)
}

/// Pushes the roots of `k₂·e^{−λt} + k₀ + k₁·e^{−λ(m−t)}` (and points
/// outside `[0, m]` or NaN, which `push` drops):
/// with `h = μ^{m/2}` and `u = e^{λ(m/2 − t)}` that is the quadratic
/// `k₂h·u² + k₀·u + k₁h = 0`, solved without forming `h²` (which
/// underflows on long, tightly coupled runs) and read back as
/// `e^{−λt} = σ/k₂` and `e^{−λ(m−t)} = σ/k₁`. Where `h` itself underflows
/// the middle of the run is flat to rounding, and its midpoint is pushed
/// too.
fn exp_pair_roots(run: &Run, [k2, k0, k1]: [f64; 3], push: &mut impl FnMut(f64)) {
    let (lambda, m, h) = (run.lambda, run.len as f64, run.half);
    if k0 == 0.0 {
        // k₂·e^{−λt} = −k₁·e^{−λ(m−t)}.
        push(0.5 * (m - (-k1 / k2).ln() / lambda));
        return;
    }
    let r = 2.0 * h * (k1 * k2).abs().sqrt();
    let root = if k1 * k2 < 0.0 {
        k0.hypot(r)
    } else if r <= k0.abs() {
        ((k0.abs() - r) * (k0.abs() + r)).sqrt()
    } else {
        return;
    };
    let sigma = -0.5 * (k0 + k0.signum() * root);
    push(-(sigma / k2).ln() / lambda);
    push(m + (sigma / k1).ln() / lambda);
    if h == 0.0 {
        push(0.5 * m);
    }
}

/// A root of `f` (value and derivative at `t`), monotone on `[lo, hi]`
/// with `f(lo) = f_lo` and `f(hi)` of the other sign, to a quarter of a
/// node (the window around a stationary point reaches a node past it):
/// Newton steps, bisecting where one would leave the bracket.
fn bracketed_root(f: impl Fn(f64) -> (f64, f64), mut lo: f64, mut hi: f64, f_lo: f64) -> f64 {
    const TOLERANCE: f64 = 0.25;
    let mut t = 0.5 * (lo + hi);
    for _ in 0..128 {
        let (v, dv) = f(t);
        if v == 0.0 {
            break;
        }
        if (v > 0.0) == (f_lo > 0.0) {
            lo = t;
        } else {
            hi = t;
        }
        let newton = t - v / dv;
        let next = if newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        let step = (next - t).abs();
        t = next;
        if step < TOLERANCE || hi - lo < TOLERANCE {
            break;
        }
    }
    t
}

/// The stretches of a ladder given as `(segment, count)` pieces, bottom →
/// top, labelled with the plane whose heated range holds them: every
/// piece cut at the `heated` range boundaries, then neighbours with
/// identical segments and the same label (or none) merged.
fn stretches(
    pieces: &[(Segment, usize)],
    heated: &[Range<usize>],
) -> Vec<(Segment, usize, Option<usize>)> {
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
}

/// The superposition `Σ_p P_p·u_p` — summed in plane order from `0.0`,
/// with `response[p]` the node's response to one watt on plane `p` — that
/// every ladder path evaluates, so they all agree bitwise.
///
/// Powers are validated finite and non-negative, and rounded products
/// and sums are monotone, so `u ≤ v` componentwise implies
/// `superpose(P, u) ≤ superpose(P, v)` in floating point, not just in real
/// arithmetic. The hotspot kernel's run bounds rest on exactly that.
#[inline]
pub(crate) fn superpose(powers: &[Power], response: &[f64]) -> f64 {
    let mut t = 0.0;
    for (power, u) in powers.iter().zip(response) {
        t += power.as_watts() * u;
    }
    t
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

/// The ladder's unit responses — every node temperature under one watt
/// on each plane — in closed form: the end nodes' responses from one
/// solve of the condensed system, and per run and plane the modes every
/// interior node is evaluated from ([`ResponseBasis::interior`]).
#[derive(Debug, Clone)]
pub(crate) struct ResponseBasis {
    n_seg: usize,
    n_planes: usize,
    runs: Vec<Run>,
    /// Every run's power table, back to back.
    tables: Vec<f64>,
    /// Each run's closed form, one entry per plane's lane, for the runs of
    /// two or more segments ([`ResponseBasis::lanes`]).
    modes: Vec<Modes>,
    /// The end nodes' responses, node-major: `ends[i * n_planes + p]`,
    /// with node 0 `T₀` and nodes `2r + 1`, `2r + 2` the bulk and via
    /// nodes at the top of run `r`.
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
    /// the top of run `r` in its [`Coords`] — so `T₀`'s
    /// coupling to both chains of the first run lands in the single
    /// off-diagonal block between blocks 0 and 1.
    ///
    /// [`BlockTridiagonalLu::solve_interleaved_x4`]: ttsv_linalg::BlockTridiagonalLu::solve_interleaved_x4
    pub(crate) fn new(
        pieces: &[(Segment, usize)],
        rs: f64,
        heated: &[Range<usize>],
    ) -> Result<Self, CoreError> {
        let stretches = stretches(pieces, heated);
        let n_planes = heated.len();
        let mut tables = Vec::new();
        let mut n_modes = 0;
        let runs: Vec<Run> = stretches
            .iter()
            .map(|(segment, len, _)| {
                let mut run = Run::new(segment, *len, &mut tables);
                if run.len > 1 {
                    run.modes = u32::try_from(n_modes).expect("fewer than 2³² lanes");
                    n_modes += n_planes;
                }
                run
            })
            .collect();
        tables.shrink_to_fit();
        let nb = runs.len() + 1;
        let passes = n_planes.div_ceil(4);
        let pass_len = 8 * nb;
        let mut lanes = vec![0.0; passes * pass_len];
        let ports: Vec<_> = runs.iter().map(Run::two_port).collect();
        // Each run top's coordinates: the run's own modes where its liner
        // rung outweighs the common-mode conductances meeting there, else
        // `(bulk, via)`.
        let coords: Vec<Coords> = runs
            .iter()
            .enumerate()
            .map(|(r, run)| {
                let meeting = ports[r].0[0] + ports.get(r + 1).map_or(0.0, |port| port.0[0]);
                if run.len > 1 && run.g_lat > meeting {
                    Coords::Modes(run.theta())
                } else {
                    Coords::BulkVia
                }
            })
            .collect();
        let mut diag = vec![[0.0; 4]; nb];
        diag[0] = [1.0 / rs, 0.0, 0.0, 1.0];
        let mut lower = Vec::with_capacity(nb - 1);
        let mut upper = Vec::with_capacity(nb - 1);
        for (r, (run, (_, _, plane))) in runs.iter().zip(&stretches).enumerate() {
            let (end, across, load) = ports[r];
            let own = run.coords();
            // The run's own coordinates of its two end nodes, as maps from
            // theirs (`None`: the identity).
            let top = transfer(coords[r], own);
            let bottom = if r == 0 {
                // T₀ is the node below the first run on both chains:
                // `(bulk, via) = (T₀, T₀)`, `(S, D) = (T₀, 0)`.
                diag[0][0] += end[0];
                if run.len == 1 {
                    diag[0][0] += end[1];
                }
                Some([1.0, 0.0, if run.len == 1 { 1.0 } else { 0.0 }, 0.0])
            } else {
                let bottom = transfer(coords[r - 1], own);
                add_block(&mut diag[r], sandwich(bottom, end, bottom));
                bottom
            };
            let mut across = sandwich(bottom, across, top);
            if r == 0 {
                // The dummy couples to nothing.
                across[2] = 0.0;
                across[3] = 0.0;
            }
            upper.push(across);
            lower.push([across[0], across[2], across[1], across[3]]);
            add_block(&mut diag[r + 1], sandwich(top, end, top));
            let lat = run.g_lat;
            match coords[r] {
                Coords::BulkVia => add_block(&mut diag[r + 1], [lat, -lat, -lat, lat]),
                Coords::Modes(_) => diag[r + 1][3] += lat,
            }

            // One watt on the heated plane: `share` into the top node's
            // bulk, and the interior's share through the two-port's load.
            if let Some(plane) = *plane {
                let share = 1.0 / heated[plane].len() as f64;
                let mut inject = |unknown: usize, watts: f64| {
                    lanes[(plane / 4) * pass_len + 4 * unknown + plane % 4] += watts;
                };
                inject(2 * r + 2, share);
                if let Coords::Modes(theta) = coords[r] {
                    inject(2 * r + 3, (1.0 - theta) * share);
                }
                if run.len > 1 {
                    let pull = |t: Option<Block>| {
                        t.map_or(load, |t| {
                            [
                                t[0] * load[0] + t[2] * load[1],
                                t[1] * load[0] + t[3] * load[1],
                            ]
                        })
                    };
                    let below = pull(bottom);
                    inject(2 * r, below[0] * share);
                    if r > 0 {
                        inject(2 * r + 1, below[1] * share);
                    }
                    let above = pull(top);
                    inject(2 * r + 2, above[0] * share);
                    inject(2 * r + 3, above[1] * share);
                }
            }
        }
        let lu = BlockTridiagonal::from_blocks(diag, lower, upper).factorize()?;
        for z in lanes.chunks_exact_mut(pass_len) {
            lu.solve_interleaved_x4(z)?;
        }

        // The end nodes, node-major, back in `(bulk, via)`.
        let mut ends = vec![0.0; (2 * runs.len() + 1) * n_planes];
        for p in 0..n_planes {
            let unknown = |i: usize| lanes[(p / 4) * pass_len + 4 * i + p % 4];
            ends[p] = unknown(0);
            for r in 0..runs.len() {
                let (x, y) = (unknown(2 * r + 2), unknown(2 * r + 3));
                let (bulk, via) = match coords[r] {
                    Coords::BulkVia => (x, y),
                    Coords::Modes(theta) => (x + (1.0 - theta) * y, x - theta * y),
                };
                ends[(2 * r + 1) * n_planes + p] = bulk;
                ends[(2 * r + 2) * n_planes + p] = via;
            }
        }

        let mut modes = vec![[0.0; 6]; n_modes];
        for (r, (run, (_, _, heated_plane))) in runs.iter().zip(&stretches).enumerate() {
            if run.len == 1 {
                continue;
            }
            let (g_b, g_f) = (run.g_bulk, run.g_fill);
            let g = g_b + g_f;
            let share = heated_plane.map(|p| 1.0 / heated[p].len() as f64);
            for p in 0..n_planes {
                let node = |i: usize| ends[i * n_planes + p];
                let (b0, v0) = if r == 0 {
                    (node(0), node(0))
                } else {
                    (node(2 * r - 1), node(2 * r))
                };
                let (bm, vm) = (node(2 * r + 1), node(2 * r + 2));
                let q = match (*heated_plane, share) {
                    (Some(plane), Some(share)) if plane == p => share,
                    _ => 0.0,
                };
                let dp = q * run.particular();
                let w0 = g_b * b0 + g_f * v0;
                let dw = (g_b * bm + g_f * vm) - w0;
                let (d0, dm) = ((b0 - v0) - dp, (bm - vm) - dp);
                modes[run.modes as usize + p] = [w0, dw, q, dp, d0, dm].map(|term| term / g);
            }
        }
        Ok(Self {
            n_seg: runs.iter().map(|run| run.len).sum(),
            n_planes,
            runs,
            tables,
            modes,
            ends,
        })
    }

    /// Run `r`'s closed form, per plane (runs of two or more segments).
    fn lanes(&self, r: usize) -> &[Modes] {
        &self.modes[self.runs[r].modes as usize..][..self.n_planes]
    }

    /// End node `i`'s responses.
    fn end(&self, i: usize) -> &[f64] {
        &self.ends[i * self.n_planes..][..self.n_planes]
    }

    /// Interior node `j` of run `r`: calls `lane(p, bulk, via)` with its
    /// responses to one watt on each plane `p`, from `(μ^k, 1 − μ^{2k})`
    /// at `k = j` and at `k = m − j` — the one per-node expression every
    /// path evaluates, so a node's responses are bitwise the same however
    /// it is reached.
    #[inline(always)]
    fn interior(
        &self,
        r: usize,
        j: usize,
        (pow_j, one_minus_j): (f64, f64),
        (pow_k, one_minus_k): (f64, f64),
        mut lane: impl FnMut(usize, f64, f64),
    ) {
        let run = &self.runs[r];
        let (j_f, m_f) = (j as f64, run.len as f64);
        let x = [
            j_f * (1.0 / m_f),
            j_f * (m_f - j_f) * 0.5,
            pow_j * one_minus_k * run.inv_den,
            pow_k * one_minus_j * run.inv_den,
        ];
        let (g_b, g_f) = (run.g_bulk, run.g_fill);
        for (p, [w0, dw, q, dp, d0, dm]) in self.lanes(r).iter().enumerate() {
            let w = w0 + dw * x[0] + q * x[1];
            let d = dp + d0 * x[2] + dm * x[3];
            lane(p, w + g_f * d, w - g_b * d);
        }
    }

    /// [`ResponseBasis::interior`] superposed under `plane_powers` in
    /// [`superpose`]'s order: the node's `(bulk, via)` temperatures.
    #[inline(always)]
    fn superposed(
        &self,
        r: usize,
        plane_powers: &[Power],
        j: usize,
        at_j: (f64, f64),
        at_k: (f64, f64),
    ) -> (f64, f64) {
        let (mut bulk, mut via) = (0.0, 0.0);
        self.interior(r, j, at_j, at_k, |p, b, v| {
            let watts = plane_powers[p].as_watts();
            bulk += watts * b;
            via += watts * v;
        });
        (bulk, via)
    }

    /// Every node temperature under `plane_powers`, by [`superpose`], in
    /// `[T0, B₁, V₁, B₂, V₂, …]` order: each run's interior nodes in
    /// closed form, then its top node from the condensed solve.
    pub(crate) fn temperatures(&self, plane_powers: &[Power]) -> Result<Vec<f64>, CoreError> {
        validate_powers(self.n_planes, plane_powers)?;
        let mut t = Vec::with_capacity(1 + 2 * self.n_seg);
        t.push(superpose(plane_powers, self.end(0)));
        let mut low = Vec::with_capacity(LOW_MASK + 1);
        for (r, run) in self.runs.iter().enumerate() {
            let m = run.len;
            if m > 1 {
                // The low halves of every `k` once per run, the high half
                // once per 32 nodes: the same factors `Run::power` takes.
                let tables = &self.tables;
                low.clear();
                low.extend(
                    (0..m.min(LOW_MASK + 1)).map(|l| run.power_bits(tables, l, 0..LOW_BITS)),
                );
                let high = |k: usize| run.power_bits(tables, k, LOW_BITS..run.bits);
                let (mut high_j, mut high_k) = (high(1), high(m - 1));
                for j in 1..m {
                    let k = m - j;
                    if j & LOW_MASK == 0 {
                        high_j = high(j);
                    }
                    if k & LOW_MASK == LOW_MASK {
                        high_k = high(k);
                    }
                    let (bulk, via) = self.superposed(
                        r,
                        plane_powers,
                        j,
                        combine(high_j, low[j & LOW_MASK]),
                        combine(high_k, low[k & LOW_MASK]),
                    );
                    t.push(bulk);
                    t.push(via);
                }
            }
            t.push(superpose(plane_powers, self.end(2 * r + 1)));
            t.push(superpose(plane_powers, self.end(2 * r + 2)));
        }
        Ok(t)
    }

    /// Raises `max` to the hottest of the interior nodes `lo..=hi` of run
    /// `r` under `plane_powers`, bitwise that node's value in
    /// [`ResponseBasis::temperatures`].
    ///
    /// Each column's superposed closed form,
    /// `f(t) = a + b·t/m + q·t(m−t)/2 + s·(c·φ(t) + d·ψ(t))`, is monotone
    /// between its stationary points, which [`Run::stationary_points`]
    /// finds. The nodes around each stationary point of either column and
    /// next to `lo` and `hi` are evaluated, walking outward from each until
    /// a node falls below `max` by more than `margin` — twice a bound on
    /// how far a node's rounded value strays from the closed form, so
    /// every node beyond it, up to the next stationary point, is below
    /// `max` in floating point too. A stretch the margin cannot separate
    /// (a flat top, a near tie) is thereby scanned node by node.
    #[inline(never)]
    fn raise_to_piece_max(
        &self,
        r: usize,
        (lo, hi): (usize, usize),
        plane_powers: &[Power],
        max: &mut f64,
    ) {
        let run = &self.runs[r];
        let n = self.n_planes;
        let m = run.len;
        let (mut form, mut scale) = ([0.0; 4], 0.0);
        for (power, modes) in plane_powers.iter().zip(self.lanes(r)) {
            let watts = power.as_watts();
            for (sum, mode) in form
                .iter_mut()
                .zip([modes[1], modes[2], modes[4], modes[5]])
            {
                *sum += watts * mode;
            }
            scale += watts * run.scale(modes);
        }
        let margin = run.margin(n, scale);

        let mut starts = vec![lo as f64, hi as f64];
        for s in [run.g_fill, -run.g_bulk] {
            run.stationary_points(form, s, &mut starts);
        }
        starts.sort_by(f64::total_cmp);
        let tables = &self.tables;
        visit_windows(&starts, (lo, hi), true, |j| {
            let at = |k: usize| run.power(tables, k);
            let (bulk, via) = self.superposed(r, plane_powers, j, at(j), at(m - j));
            let value = bulk.max(via);
            *max = max.max(value);
            value + margin <= *max
        });
    }

    /// Run `r`'s ends and the stationary points of both columns of each
    /// of its lanes, sorted into `starts`: where a lane's interior can
    /// peak.
    fn lane_starts(&self, r: usize, starts: &mut Vec<f64>) {
        let run = &self.runs[r];
        starts.clear();
        starts.extend([0.0, run.len as f64]);
        for mode in self.lanes(r) {
            for s in [run.g_fill, -run.g_bulk] {
                run.stationary_points([mode[1], mode[2], mode[4], mode[5]], s, starts);
            }
        }
        starts.sort_by(f64::total_cmp);
    }

    /// Interior node `j` of run `r`'s responses, appended to `out`: its
    /// bulk node's lanes, then its via node's.
    fn push_lanes(&self, r: usize, j: usize, out: &mut Vec<f64>) {
        let run = &self.runs[r];
        let (n, base) = (self.n_planes, out.len());
        out.resize(base + 2 * n, 0.0);
        let at = |k: usize| run.power(&self.tables, k);
        self.interior(r, j, at(j), at(run.len - j), |p, bulk, via| {
            out[base + p] = bulk;
            out[base + n + p] = via;
        });
    }
}

/// Visits the nodes of `lo..=hi` a run analysis evaluates, given the
/// sorted `starts`: each node of the window `⌊t⌋ − 1 ..= ⌈t⌉ + 1` around
/// each start, once, and — when `walk` — the nodes outward from each
/// window up to the first that `visit` reports separated from the max.
/// Between two visited nodes no window separates, every lane whose
/// stationary points are among the starts is monotone.
fn visit_windows(
    starts: &[f64],
    (lo, hi): (usize, usize),
    walk: bool,
    mut visit: impl FnMut(usize) -> bool,
) {
    // `next` is the lowest node of the range not yet visited.
    let mut next = lo;
    for &t in starts {
        let (a, b) = (
            (t.floor() - 1.0).max(next as f64),
            (t.ceil() + 1.0).min(hi as f64),
        );
        if a > b {
            continue;
        }
        let (a, b) = (a as usize, b as usize);
        for j in a..=b {
            visit(j);
        }
        let mut end = b;
        if walk {
            let mut j = a;
            while j > next {
                j -= 1;
                if visit(j) {
                    break;
                }
            }
            while end < hi {
                end += 1;
                if visit(end) {
                    break;
                }
            }
        }
        next = end + 1;
    }
}

/// The coordinates a node is solved in: `(bulk, via)`, or the modes
/// `(S, D)` of a run with bulk share `θ`, `B = S + (1 − θ)·D`,
/// `V = S − θ·D`.
#[derive(Debug, Clone, Copy)]
enum Coords {
    BulkVia,
    Modes(f64),
}

/// The map from `from` coordinates of a node to its `to` coordinates,
/// row-major (`None` when both are `(bulk, via)`). Between the modes of
/// two runs it is `[[1, θ_to − θ_from], [0, 1]]`.
fn transfer(from: Coords, to: Coords) -> Option<Block> {
    Some(match (from, to) {
        (Coords::BulkVia, Coords::BulkVia) => return None,
        (Coords::BulkVia, Coords::Modes(theta)) => [theta, 1.0 - theta, 1.0, -1.0],
        (Coords::Modes(theta), Coords::BulkVia) => [1.0, 1.0 - theta, 1.0, -theta],
        (Coords::Modes(from), Coords::Modes(to)) => [1.0, to - from, 0.0, 1.0],
    })
}

/// `Aᵀ·diag(e)·B` for row-major `A`, `B` (`None`: the identity).
fn sandwich(a: Option<Block>, e: [f64; 2], b: Option<Block>) -> Block {
    const IDENTITY: Block = [1.0, 0.0, 0.0, 1.0];
    if a.is_none() && b.is_none() {
        return [e[0], 0.0, 0.0, e[1]];
    }
    let (a, b) = (a.unwrap_or(IDENTITY), b.unwrap_or(IDENTITY));
    let entry = |i: usize, j: usize| e[0] * a[i] * b[j] + e[1] * a[2 + i] * b[2 + j];
    [entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1)]
}

/// A factored ladder, reduced to its hotspot kernel. The KCL matrix
/// depends only on the scenario's *geometry* (stack, TSV, via density) —
/// plane powers enter the right-hand side alone — so every node
/// temperature is the superposition `Σ_p P_p·u_p[i]` of the `n_planes`
/// unit responses, and a tile's hotspot is the largest of them.
///
/// The kernel is the ladder's closed form (`ResponseBasis`: per run
/// and plane six mode coefficients, per run a power table, per end node
/// its responses) and a screen in front of it:
///
/// * **candidates** — the node hottest under each unit direction and
///   under the all-ones one, among the end nodes and the interior nodes
///   the piece bounds evaluate (an interior candidate brings its other
///   column along);
/// * **pieces** — each run's interior cut at its candidates, one piece
///   per stretch and column, with a bound `U`: in each plane at least the
///   response of every node of the stretch in that column;
/// * per run a **group bound**: the componentwise max of its pieces'
///   bounds and of its non-candidate end nodes (its top nodes, and `T₀`
///   below the first run).
///
/// [`LadderKernel::max_delta_t`] takes `m` as the candidates' max; for
/// each run whose superposed group bound beats it, it evaluates the
/// run's non-candidate end nodes and analyses each piece whose own bound
/// beats it (`ResponseBasis::raise_to_piece_max`: the nodes around each
/// column's stationary points and next to the stretch's ends, walking
/// outward until a rounding-safe margin separates the rest). Powers are
/// validated finite and non-negative, and rounded products and sums are
/// monotone, so `u ≤ U` componentwise implies `fl(P·u) ≤ fl(P·U)`: a
/// skipped run or piece can never beat `m`. Every evaluated node is
/// computed by the one per-node expression the full sweep uses, so the
/// max is **bitwise** the max over all nodes — what
/// [`ModelB::solve`](crate::model_b::ModelB::solve) and
/// [`ModelA::solve`](crate::model_a::ModelA::solve) return as the
/// maximum (the property suites assert it).
///
/// The kernel is built in O(runs), without visiting the nodes: each lane
/// is monotone between the stationary points of its columns, so a
/// piece's bound is the largest node around those points and next to its
/// ends, plus the rounding margin. On the serving geometry (Model B
/// `B(1000)` with 10 first-plane segments, 3 planes, 4,021 nodes in 8
/// runs) it holds about 3 KB ([`LadderKernel::heap_bytes`]), and a tile
/// whose hottest node is a candidate — every serving tile's — costs one
/// chunk of candidates and two of group bounds, four entries each. A
/// Model A ladder (`2·n_planes + 1` nodes, one-segment runs) has no
/// interior: its groups are its non-candidate end nodes.
#[derive(Debug, Clone)]
pub struct LadderKernel {
    basis: ResponseBasis,
    /// What every call superposes, plane-major (`screen[p * stride + i]`):
    /// the candidates' responses, padded to a whole chunk by repeating the
    /// first, then the runs' group bounds, padded by `−∞`.
    screen: Vec<f64>,
    stride: usize,
    /// Entries of `screen` before the group bounds.
    n_candidates: usize,
    /// Per run, its pieces (a range of `pieces`) and its non-candidate
    /// end nodes ([`END_BULK`], [`END_VIA`] and [`END_T0`] bits).
    groups: Vec<(u32, u32, u8)>,
    /// Each piece's interior nodes `lo..=hi` of its run.
    pieces: Vec<(u32, u32)>,
    /// The pieces' bounds, node-major: `piece_bounds[k * n_planes + p]`.
    piece_bounds: Vec<f64>,
}

/// A group covers its run's top bulk node.
const END_BULK: u8 = 1;
/// A group covers its run's top via node.
const END_VIA: u8 = 2;
/// A group covers `T₀` (below the first run).
const END_T0: u8 = 4;

/// Run `r`'s end nodes, with their group bits.
fn run_ends(r: usize) -> impl Iterator<Item = (u8, usize)> {
    [(END_BULK, 2 * r + 1), (END_VIA, 2 * r + 2)]
        .into_iter()
        .chain((r == 0).then_some((END_T0, 0)))
}

impl LadderKernel {
    /// Picks the candidates, cuts the runs into pieces and bounds each
    /// from the closed form, evaluating only the nodes around its lanes'
    /// stationary points and next to its ends.
    pub(crate) fn from_basis(basis: ResponseBasis) -> Self {
        let n = basis.n_planes;
        let n_runs = basis.runs.len();
        // Every node the piece bounds need, `(run, j)`, with its lanes
        // (bulk, then via) in `lanes`.
        let mut visited: Vec<(usize, usize)> = Vec::with_capacity(4 * n_runs);
        let mut lanes: Vec<f64> = Vec::with_capacity(8 * n_runs * n);
        let mut starts = Vec::new();
        for (r, run) in basis.runs.iter().enumerate() {
            if run.len > 1 {
                basis.lane_starts(r, &mut starts);
                visit_windows(&starts, (1, run.len - 1), false, |j| {
                    visited.push((r, j));
                    basis.push_lanes(r, j, &mut lanes);
                    false
                });
            }
        }

        // Every node's responses as one list of columns: the end nodes,
        // then each visited node's bulk and via; the hottest under each
        // unit direction and the all-ones one are the candidates, an
        // interior one with its other column.
        let n_ends = 2 * n_runs + 1;
        let column = |c: usize| {
            if c < n_ends {
                basis.end(c)
            } else {
                &lanes[(c - n_ends) * n..][..n]
            }
        };
        let mut best = vec![(f64::NEG_INFINITY, 0); n + 1];
        for c in 0..n_ends + lanes.len() / n {
            let u = column(c);
            for (d, top) in best.iter_mut().enumerate() {
                let key = if d < n { u[d] } else { u.iter().sum() };
                if key > top.0 {
                    *top = (key, c);
                }
            }
        }
        let mut picks: Vec<usize> = Vec::new();
        for &(_, c) in &best {
            let pair = if c < n_ends {
                [c, c]
            } else {
                let bulk = c - (c - n_ends) % 2;
                [bulk, bulk + 1]
            };
            for c in pair {
                if !picks.contains(&c) {
                    picks.push(c);
                }
            }
        }
        let is_pick = |i: usize| picks.contains(&i);
        let cuts: Vec<(usize, usize)> = picks
            .iter()
            .filter(|&&c| c >= n_ends)
            .map(|&c| visited[(c - n_ends) / 2])
            .collect();

        // Each run's interior between its cuts, one piece per column,
        // bounded by the nodes the windows visited inside it, its own
        // ends, and the margin.
        let narrow = |x: usize| u32::try_from(x).expect("a ladder of fewer than 2³² segments");
        let mut groups = Vec::with_capacity(n_runs);
        let mut group_bounds: Vec<f64> = Vec::with_capacity(n_runs * n);
        let (mut pieces, mut piece_bounds) = (Vec::new(), Vec::new());
        let (mut cut, mut own, mut bound) = (Vec::new(), Vec::new(), vec![0.0; 2 * n]);
        for (r, run) in basis.runs.iter().enumerate() {
            let first = pieces.len();
            cut.clear();
            cut.extend(cuts.iter().filter(|c| c.0 == r).map(|c| c.1));
            cut.sort_unstable();
            cut.dedup();
            cut.push(run.len);
            let mut lo = 1;
            for &c in &cut {
                if lo < c {
                    let hi = c - 1;
                    own.clear();
                    for j in [lo, hi] {
                        if !visited.contains(&(r, j)) {
                            basis.push_lanes(r, j, &mut own);
                        }
                    }
                    let inside = visited
                        .iter()
                        .zip(lanes.chunks_exact(2 * n))
                        .filter(|(&(vr, j), _)| vr == r && (lo..=hi).contains(&j))
                        .map(|(_, u)| u);
                    bound.fill(f64::NEG_INFINITY);
                    for u in inside.chain(own.chunks_exact(2 * n)) {
                        for (b, &u) in bound.iter_mut().zip(u) {
                            *b = b.max(u);
                        }
                    }
                    for column in bound.chunks_exact_mut(n) {
                        for (b, mode) in column.iter_mut().zip(basis.lanes(r)) {
                            *b += run.margin(1, run.scale(mode));
                        }
                        pieces.push((narrow(lo), narrow(hi)));
                    }
                    piece_bounds.extend_from_slice(&bound);
                }
                lo = c + 1;
            }
            let group = &mut bound[..n];
            group.fill(f64::NEG_INFINITY);
            let mut ends = 0;
            for (bit, i) in run_ends(r).filter(|&(_, i)| !is_pick(i)) {
                ends |= bit;
                for (g, &u) in group.iter_mut().zip(basis.end(i)) {
                    *g = g.max(u);
                }
            }
            for piece in piece_bounds[first * n..].chunks_exact(n) {
                for (g, &b) in group.iter_mut().zip(piece) {
                    *g = g.max(b);
                }
            }
            groups.push((narrow(first), narrow(pieces.len()), ends));
            group_bounds.extend_from_slice(group);
        }

        let n_candidates = picks.len().next_multiple_of(CHUNK);
        let stride = n_candidates + n_runs.next_multiple_of(CHUNK);
        let mut screen = vec![f64::NEG_INFINITY; n * stride];
        for p in 0..n {
            for i in 0..n_candidates {
                screen[p * stride + i] = column(*picks.get(i).unwrap_or(&picks[0]))[p];
            }
            for (r, bound) in group_bounds.chunks_exact(n).enumerate() {
                screen[p * stride + n_candidates + r] = bound[p];
            }
        }
        Self {
            basis,
            screen,
            stride,
            n_candidates,
            groups,
            pieces,
            piece_bounds,
        }
    }

    /// The heap memory the kernel holds: its runs, power tables, modes,
    /// end-node responses, screen and pieces — what a chip pays per held
    /// kernel.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let b = &self.basis;
        let f64s = b.tables.capacity()
            + b.ends.capacity()
            + self.screen.capacity()
            + self.piece_bounds.capacity();
        f64s * size_of::<f64>()
            + b.modes.capacity() * size_of::<Modes>()
            + b.runs.capacity() * size_of::<Run>()
            + self.groups.capacity() * size_of::<(u32, u32, u8)>()
            + self.pieces.capacity() * size_of::<(u32, u32)>()
    }

    /// Number of segments in the factored ladder.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.basis.n_seg
    }

    /// Number of planes the kernel expects powers for.
    #[must_use]
    pub fn plane_count(&self) -> usize {
        self.basis.n_planes
    }

    /// The hotspot — the maximum node temperature rise — under one
    /// per-plane power vector: the candidates' max, then the runs whose
    /// group bound beats it. Bitwise equal to the maximum over every node
    /// of the full solve of the same powers on the same geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] when the power count does
    /// not match the factored plane count, or a negative/non-finite power
    /// is supplied.
    pub fn max_delta_t(&self, plane_powers: &[Power]) -> Result<TemperatureDelta, CoreError> {
        validate_powers(self.basis.n_planes, plane_powers)?;
        let chunk = |start: usize| superpose_chunk(plane_powers, &self.screen, self.stride, start);
        // Lane-wise maxima first, so the chunks do not queue on one max.
        let mut lanes = [f64::NEG_INFINITY; CHUNK];
        for start in (0..self.n_candidates).step_by(CHUNK) {
            for (lane, sum) in lanes.iter_mut().zip(chunk(start)) {
                *lane = lane.max(sum);
            }
        }
        let mut max = lanes.into_iter().fold(f64::NEG_INFINITY, f64::max);
        for (c, groups) in self.groups.chunks(CHUNK).enumerate() {
            // A padded `−∞` bound superposes to `−∞` or NaN, never above.
            let bounds = chunk(self.n_candidates + c * CHUNK);
            for (k, (&group, bound)) in groups.iter().zip(bounds).enumerate() {
                if bound > max {
                    self.raise_to_group_max(c * CHUNK + k, group, plane_powers, &mut max);
                }
            }
        }
        Ok(TemperatureDelta::from_kelvin(max))
    }

    /// Raises `max` to the hottest node run `r`'s group covers.
    #[inline(never)]
    fn raise_to_group_max(
        &self,
        r: usize,
        (first, end, ends): (u32, u32, u8),
        plane_powers: &[Power],
        max: &mut f64,
    ) {
        let n = self.basis.n_planes;
        for (bit, i) in run_ends(r) {
            if ends & bit != 0 {
                *max = max.max(superpose(plane_powers, self.basis.end(i)));
            }
        }
        for k in first as usize..end as usize {
            if superpose(plane_powers, &self.piece_bounds[k * n..][..n]) > *max {
                let (lo, hi) = self.pieces[k];
                self.basis
                    .raise_to_piece_max(r, (lo as usize, hi as usize), plane_powers, max);
            }
        }
    }
}

/// Entries per chunk of the kernel's screen.
const CHUNK: usize = 4;

/// [`superpose`] for the `CHUNK` consecutive entries at `start` of a
/// plane-major array (`soa[p * stride + i]`): each lane runs the same
/// operations in the same order, so lane `k` is bitwise [`superpose`] of
/// entry `start + k`, and the plane loop vectorizes across the lanes.
#[inline]
fn superpose_chunk(powers: &[Power], soa: &[f64], stride: usize, start: usize) -> [f64; CHUNK] {
    let mut acc = [0.0; CHUNK];
    for (p, power) in powers.iter().enumerate() {
        let w = power.as_watts();
        for (a, u) in acc.iter_mut().zip(&soa[p * stride + start..][..CHUNK]) {
            *a += w * u;
        }
    }
    acc
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
        /// with refined block Thomas over the full ladder to a relative
        /// 1e-9 at every node, for one watt on each heated run, the bound
        /// the paper's ladders meet. Node temperatures here span up to
        /// four decades and conductances eight; solving a run top in its
        /// modes where its liner rung dominates keeps the condensed
        /// system's worst node at 2e-10 (it was 3e-9 in `(bulk, via)`).
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
                for (k, (x, u)) in closed.iter().zip(&reference).enumerate() {
                    prop_assert!(
                        (x - u[p]).abs() <= 1e-9 * u[p].abs(),
                        "plane {p}, node {k}: {x} vs {}",
                        u[p]
                    );
                }
            }
        }

        /// The kernel's max is bitwise the max over every node of
        /// [`ResponseBasis::temperatures`], on synthetic ladders of up to
        /// eight runs — lengths 1, 2 or up to 300, each run's resistances
        /// and `κ` drawn as above, one plane per heated run — under power
        /// vectors spanning fifteen decades with exact zeros, and under
        /// near-tie vectors: one plane's power moved so that the hottest
        /// nodes of the two hottest runs superpose to the same value up to
        /// rounding, and under vectors that flatten a run's profile at one
        /// node. Each run's analysis alone, started from `−∞`, must find
        /// its interior's max too.
        #[test]
        fn kernel_max_is_bitwise_the_max_over_every_node(
            drawn in prop::collection::vec(
                (0usize..4, 3usize..300, -3.0..3.0f64, -3.0..3.0f64, -6.0..2.0f64, 0usize..2), 1..9),
            rs in -2.0..2.0f64,
            watts in prop::collection::vec(prop::collection::vec((0usize..4, -12.0..3.0f64), 9), 6),
        ) {
            let (mut pieces, mut heated, mut start) = (Vec::new(), Vec::new(), 0);
            for (i, &(kind, len, b, f, kappa, heat)) in drawn.iter().enumerate() {
                let len = match kind {
                    0 => 1,
                    1 => 2,
                    _ => len,
                };
                let (r_bulk, r_fill) = (10f64.powf(b), 10f64.powf(f));
                let r_lat = (r_bulk + r_fill) / 10f64.powf(kappa);
                pieces.push((Segment { r_bulk, r_fill, r_lat }, len));
                if heat == 1 || (i + 1 == drawn.len() && heated.is_empty()) {
                    heated.push(start..start + len);
                }
                start += len;
            }
            let basis = ResponseBasis::new(&pieces, 10f64.powf(rs), &heated).unwrap();
            let n = heated.len();
            let unit: Vec<Vec<f64>> = (0..n)
                .map(|p| {
                    let e: Vec<Power> = (0..n)
                        .map(|q| Power::from_watts(if q == p { 1.0 } else { 0.0 }))
                        .collect();
                    basis.temperatures(&e).unwrap()
                })
                .collect();
            // Each run's nodes, interior then top, in temperature order.
            let mut ranges = Vec::new();
            let mut first = 1;
            for run in &basis.runs {
                ranges.push(first..first + 2 * run.len);
                first += 2 * run.len;
            }
            let kernel = LadderKernel::from_basis(basis.clone());
            let check = |powers: &[Power]| -> Result<(), TestCaseError> {
                let every = basis.temperatures(powers).unwrap();
                // Each run's analysis alone, from −∞, finds its interior's
                // max.
                for (r, range) in ranges.iter().enumerate() {
                    let m = basis.runs[r].len;
                    if m > 1 {
                        let interior = every[range.start..range.end - 2]
                            .iter()
                            .copied()
                            .fold(f64::NEG_INFINITY, f64::max);
                        let mut max = f64::NEG_INFINITY;
                        basis.raise_to_piece_max(r, (1, m - 1), powers, &mut max);
                        prop_assert!(
                            max.to_bits() == interior.to_bits(),
                            "run {r}: analysis {max:e} vs its interior {interior:e} at {powers:?}"
                        );
                    }
                }
                let every = every.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let got = kernel.max_delta_t(powers).unwrap().as_kelvin();
                prop_assert!(
                    got.to_bits() == every.to_bits(),
                    "kernel {got:e} vs every node {every:e} at {powers:?}"
                );
                Ok(())
            };
            for w in &watts {
                let mut powers: Vec<Power> = w[..n]
                    .iter()
                    .map(|&(zero, exp)| Power::from_watts(if zero == 0 { 0.0 } else { 10f64.powf(exp) }))
                    .collect();
                check(&powers)?;

                // The two hottest runs' hottest nodes, brought level.
                let t = basis.temperatures(&powers).unwrap();
                let mut hottest: Vec<(f64, usize)> = ranges
                    .iter()
                    .map(|range| {
                        range.clone().fold((f64::NEG_INFINITY, 0), |best, i| {
                            if t[i] > best.0 { (t[i], i) } else { best }
                        })
                    })
                    .collect();
                hottest.sort_by(|a, b| b.0.total_cmp(&a.0));
                if let [(t1, j1), (t2, j2), ..] = hottest[..] {
                    for (k, u) in unit.iter().enumerate() {
                        let watts = powers[k].as_watts() + (t2 - t1) / (u[j1] - u[j2]);
                        if watts.is_finite() && watts >= 0.0 && u[j1] != u[j2] {
                            powers[k] = Power::from_watts(watts);
                            check(&powers)?;
                            break;
                        }
                    }
                }
            }

            // A profile flattened at one node: powers on three planes that
            // zero the first and second differences of a run's bulk column
            // at its middle node, so that rounding decides which of several
            // nodes there is hottest.
            for range in ranges.iter().filter(|range| n >= 3 && range.len() >= 16) {
                let bulk = |j: usize| range.start + 2 * (j - 1);
                let mid = range.len() / 4;
                let step = |j: usize| [0, 1, 2].map(|p| unit[p][bulk(j)] - unit[p][bulk(mid)]);
                let (a, b) = (step(mid - 1), step(mid + 1));
                let normal = [
                    a[1] * b[2] - a[2] * b[1],
                    a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0],
                ];
                let largest = normal.iter().map(|c| c.abs()).fold(0.0, f64::max);
                let sign = normal[0].signum();
                if largest > 0.0 && normal.iter().all(|c| c * sign >= 0.0) {
                    let powers: Vec<Power> = (0..n)
                        .map(|p| Power::from_watts(if p < 3 { normal[p] * sign / largest } else { 0.0 }))
                        .collect();
                    check(&powers)?;
                }
            }
        }
    }
}
