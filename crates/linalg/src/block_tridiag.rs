//! Block-tridiagonal systems with 2×2 blocks (block Thomas algorithm).
//!
//! Model B's π-segment ladder couples each segment's bulk and via nodes to
//! their neighbours one segment below, so with the interleaved numbering
//! `[T₀, dummy, B₁, V₁, B₂, V₂, …]` the KCL matrix is block tridiagonal
//! with 2×2 blocks — and so is the ladder condensed onto its runs' end
//! nodes, which is what the models solve (one block per run). The
//! dedicated factorization below does one 2×2 inverse and two 2×2
//! multiplies per block — a flat `O(n)` pass with none of the per-entry
//! offset arithmetic of the generic banded LU
//! ([`BandedMatrix`](crate::BandedMatrix)). Over the full ladder it is the
//! tests' reference.
//!
//! No pivoting is performed (none is needed for the symmetric
//! positive-definite ladders this is built for); a numerically singular
//! pivot block is reported as [`LinalgError::Singular`].

use crate::error::LinalgError;

/// A 2×2 matrix stored row-major: `[a00, a01, a10, a11]`.
type Block = [f64; 4];

#[inline]
fn block_mul(a: &Block, b: &Block) -> Block {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

#[inline]
fn block_inv(a: &Block) -> Option<Block> {
    let det = a[0] * a[3] - a[1] * a[2];
    if det == 0.0 {
        return None;
    }
    let inv = 1.0 / det;
    Some([a[3] * inv, -a[1] * inv, -a[2] * inv, a[0] * inv])
}

/// A square block-tridiagonal matrix of `2×2` blocks.
///
/// Entries are addressed by *global* row/column indices (`dim() = 2 ×`
/// block count); writes outside the three block diagonals panic, mirroring
/// [`BandedMatrix`](crate::BandedMatrix).
///
/// ```
/// use ttsv_linalg::BlockTridiagonal;
///
/// // The 4×4 ladder  [2 -1; -1 2] ⊗ blocks.
/// let mut m = BlockTridiagonal::zeros(2);
/// for i in 0..4 { m.add(i, i, 2.0); }
/// for i in 0..3 { m.add(i, i + 1, -1.0); m.add(i + 1, i, -1.0); }
/// let x = m.solve(&[1.0, 0.0, 0.0, 1.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTridiagonal {
    nb: usize,
    /// Diagonal blocks `D₀ … D_{nb−1}`.
    diag: Vec<Block>,
    /// Sub-diagonal blocks: `lower[i]` couples block `i + 1` to block `i`.
    lower: Vec<Block>,
    /// Super-diagonal blocks: `upper[i]` couples block `i` to block `i + 1`.
    upper: Vec<Block>,
}

impl BlockTridiagonal {
    /// Creates a zero matrix of `n_blocks` 2×2 blocks.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    #[must_use]
    pub fn zeros(n_blocks: usize) -> Self {
        assert!(n_blocks > 0, "block-tridiagonal matrix needs blocks");
        Self {
            nb: n_blocks,
            diag: vec![[0.0; 4]; n_blocks],
            lower: vec![[0.0; 4]; n_blocks.saturating_sub(1)],
            upper: vec![[0.0; 4]; n_blocks.saturating_sub(1)],
        }
    }

    /// Builds the matrix from pre-assembled row-major 2×2 blocks —
    /// `lower[i]` couples block `i + 1` to block `i`, `upper[i]` the
    /// reverse. The fastest assembly path: callers that know their stencil
    /// (Model B's ladder) fill the arrays directly instead of paying the
    /// per-entry [`BlockTridiagonal::add`] bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is empty or the off-diagonal lengths are not
    /// exactly `diag.len() − 1`.
    #[must_use]
    pub fn from_blocks(diag: Vec<[f64; 4]>, lower: Vec<[f64; 4]>, upper: Vec<[f64; 4]>) -> Self {
        assert!(!diag.is_empty(), "block-tridiagonal matrix needs blocks");
        assert_eq!(lower.len(), diag.len() - 1, "lower block count mismatch");
        assert_eq!(upper.len(), diag.len() - 1, "upper block count mismatch");
        Self {
            nb: diag.len(),
            diag,
            lower,
            upper,
        }
    }

    /// Matrix dimension (`2 ×` block count).
    #[must_use]
    pub fn dim(&self) -> usize {
        2 * self.nb
    }

    /// Number of 2×2 blocks along the diagonal.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.nb
    }

    #[inline]
    fn slot(&self, i: usize, j: usize) -> Option<(&Block, usize)> {
        let (bi, bj) = (i / 2, j / 2);
        let e = (i % 2) * 2 + (j % 2);
        match bj as isize - bi as isize {
            0 => Some((&self.diag[bi], e)),
            1 => Some((&self.upper[bi], e)),
            -1 => Some((&self.lower[bj], e)),
            _ => None,
        }
    }

    /// Reads entry `(i, j)`; zero outside the block band.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.dim() && j < self.dim(),
            "index ({i}, {j}) out of bounds"
        );
        self.slot(i, j).map_or(0.0, |(b, e)| b[e])
    }

    /// Adds `value` to global entry `(i, j)` (stencil-assembly helper).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds or outside the block band.
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        assert!(
            i < self.dim() && j < self.dim(),
            "index ({i}, {j}) out of bounds"
        );
        let (bi, bj) = (i / 2, j / 2);
        let e = (i % 2) * 2 + (j % 2);
        let block = match bj as isize - bi as isize {
            0 => &mut self.diag[bi],
            1 => &mut self.upper[bi],
            -1 => &mut self.lower[bj],
            _ => panic!(
                "entry ({i}, {j}) outside the block-tridiagonal band of a {n}×{n} matrix",
                n = 2 * self.nb
            ),
        };
        block[e] += value;
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal matvec",
                expected: self.dim(),
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.dim()];
        for b in 0..self.nb {
            let (x0, x1) = (x[2 * b], x[2 * b + 1]);
            let d = &self.diag[b];
            y[2 * b] += d[0] * x0 + d[1] * x1;
            y[2 * b + 1] += d[2] * x0 + d[3] * x1;
            if b + 1 < self.nb {
                let (u, l) = (&self.upper[b], &self.lower[b]);
                let (c0, c1) = (x[2 * b + 2], x[2 * b + 3]);
                y[2 * b] += u[0] * c0 + u[1] * c1;
                y[2 * b + 1] += u[2] * c0 + u[3] * c1;
                y[2 * b + 2] += l[0] * x0 + l[1] * x1;
                y[2 * b + 3] += l[2] * x0 + l[3] * x1;
            }
        }
        Ok(y)
    }

    /// Factorizes and solves `A·x = b` in one call.
    ///
    /// Prefer [`BlockTridiagonal::factorize`] + repeated
    /// [`BlockTridiagonalLu::solve`] when solving many right-hand sides.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] on RHS length mismatch.
    /// * [`LinalgError::Singular`] on a numerically singular pivot block.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.clone().factorize()?.solve(b)
    }

    /// Consumes the matrix and produces its block-LU factorization
    /// (block Thomas algorithm, no pivoting).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] on a numerically singular pivot
    /// block; the reported pivot is the block's first global row.
    pub fn factorize(mut self) -> Result<BlockTridiagonalLu, LinalgError> {
        let nb = self.nb;
        // SPD-oriented scale reference: the largest diagonal magnitude
        // (cheap, and for the resistive ladders the diagonal always
        // carries the row's dominant entry). One running maximum per
        // block entry keeps the scan's chains independent; `max` is
        // exact, so the order cannot change the result.
        let mut entry_max = [0.0f64; 4];
        for d in &self.diag {
            for (m, v) in entry_max.iter_mut().zip(d) {
                if v.abs() > *m {
                    *m = v.abs();
                }
            }
        }
        let scale = entry_max
            .into_iter()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let tiny = 1e-26 * scale * scale;
        let invert = |block: usize, pivot: &Block| {
            let singular = LinalgError::Singular { pivot: 2 * block };
            let det = pivot[0] * pivot[3] - pivot[1] * pivot[2];
            if det.abs() <= tiny {
                return Err(singular);
            }
            block_inv(pivot).ok_or(singular)
        };

        // In-place elimination: `diag[b]` is overwritten by the inverted
        // pivot block, `lower[b−1]` by the elimination factor
        // `Lᵇ = lower[b−1]·inv(pivot_{b−1})`; `upper` is read-only. The
        // previous inverse is carried in registers, off the store→load
        // path.
        let mut inv = invert(0, &self.diag[0])?;
        self.diag[0] = inv;
        let rest = self.lower.iter_mut().zip(&self.upper);
        for (b, (d, (l, u))) in (1..).zip(self.diag[1..].iter_mut().zip(rest)) {
            // Resistive-ladder off-diagonal blocks are themselves
            // diagonal (bulk couples to bulk, via to via), so the
            // specialised 4-multiply products cover almost every block;
            // the generic 2×2 product handles the rest.
            let lf = if l[1] == 0.0 && l[2] == 0.0 {
                [l[0] * inv[0], l[0] * inv[1], l[3] * inv[2], l[3] * inv[3]]
            } else {
                block_mul(l, &inv)
            };
            let lu = if u[1] == 0.0 && u[2] == 0.0 {
                [lf[0] * u[0], lf[1] * u[3], lf[2] * u[0], lf[3] * u[3]]
            } else {
                block_mul(&lf, u)
            };
            let mut pivot = *d;
            for e in 0..4 {
                pivot[e] -= lu[e];
            }
            *l = lf;
            inv = invert(b, &pivot)?;
            *d = inv;
        }

        Ok(BlockTridiagonalLu {
            nb,
            inv_pivot: self.diag,
            lower_fact: self.lower,
            upper: self.upper,
        })
    }
}

/// The block-LU factorization of a [`BlockTridiagonal`] matrix.
#[derive(Debug, Clone)]
pub struct BlockTridiagonalLu {
    nb: usize,
    /// Inverted pivot blocks `(D'_b)⁻¹`.
    inv_pivot: Vec<Block>,
    /// `L_b · (D'_{b−1})⁻¹` factors, one per sub-diagonal block.
    lower_fact: Vec<Block>,
    /// The original super-diagonal blocks.
    upper: Vec<Block>,
}

impl BlockTridiagonalLu {
    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        2 * self.nb
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on RHS length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves four right-hand sides with a single pass over the factors.
    /// `z` holds them lane-interleaved — global unknown `i` of lane `l` at
    /// slot `4·i + l` — so each factor block is loaded once and applied to
    /// four independent elimination chains over contiguous values: a
    /// vectorizable stride-1 micro-kernel that amortizes the memory
    /// traffic and gives the core four dependency chains to overlap (the
    /// multi-right-hand-side shape of Model B's batched ladder solves).
    /// Every lane runs exactly the arithmetic of
    /// [`BlockTridiagonalLu::solve_in_place`], so lane results are
    /// bit-identical to four separate solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] unless
    /// `z.len() == 4 · dim()`.
    pub fn solve_interleaved_x4(&self, z: &mut [f64]) -> Result<(), LinalgError> {
        if z.len() != 4 * self.dim() {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal interleaved multi-RHS solve",
                expected: 4 * self.dim(),
                actual: z.len(),
            });
        }
        // One 8-slot chunk per block: `[u₀ of lanes 0–3, u₁ of lanes
        // 0–3]`. Each sweep carries the neighbouring block in registers,
        // off the store→load path.
        let (blocks, _) = z.as_chunks_mut::<8>();
        // Forward: y_b = b_b − Lᵇ·y_{b−1}, four lanes per factor load.
        let mut prev = blocks[0];
        for (cur, lf) in blocks[1..].iter_mut().zip(&self.lower_fact) {
            for l in 0..4 {
                let (p0, p1) = (prev[l], prev[4 + l]);
                cur[l] -= lf[0] * p0 + lf[1] * p1;
                cur[4 + l] -= lf[2] * p0 + lf[3] * p1;
            }
            prev = *cur;
        }
        // Backward: x_b = (D'_b)⁻¹ · (y_b − U_b·x_{b+1}).
        let (last, below) = blocks.split_last_mut().expect("at least one block");
        let inv = &self.inv_pivot[self.nb - 1];
        for l in 0..4 {
            let (t0, t1) = (last[l], last[4 + l]);
            last[l] = inv[0] * t0 + inv[1] * t1;
            last[4 + l] = inv[2] * t0 + inv[3] * t1;
        }
        let mut next = *last;
        let factors = self.inv_pivot.iter().zip(&self.upper);
        for (cur, (inv, u)) in below.iter_mut().zip(factors).rev() {
            for l in 0..4 {
                let (c0, c1) = (next[l], next[4 + l]);
                let t0 = cur[l] - (u[0] * c0 + u[1] * c1);
                let t1 = cur[4 + l] - (u[2] * c0 + u[3] * c1);
                cur[l] = inv[0] * t0 + inv[1] * t1;
                cur[4 + l] = inv[2] * t0 + inv[3] * t1;
            }
            next = *cur;
        }
        Ok(())
    }

    /// Solves `A·x = b` with `x` holding `b` on entry and the solution on
    /// exit (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                operation: "block-tridiagonal solve",
                expected: self.dim(),
                actual: x.len(),
            });
        }
        // Forward: y_b = b_b − Lᵇ·y_{b−1}.
        for b in 1..self.nb {
            let lf = &self.lower_fact[b - 1];
            let (p0, p1) = (x[2 * b - 2], x[2 * b - 1]);
            x[2 * b] -= lf[0] * p0 + lf[1] * p1;
            x[2 * b + 1] -= lf[2] * p0 + lf[3] * p1;
        }
        // Backward: x_b = (D'_b)⁻¹ · (y_b − U_b·x_{b+1}).
        for b in (0..self.nb).rev() {
            let (mut t0, mut t1) = (x[2 * b], x[2 * b + 1]);
            if b + 1 < self.nb {
                let u = &self.upper[b];
                let (c0, c1) = (x[2 * b + 2], x[2 * b + 3]);
                t0 -= u[0] * c0 + u[1] * c1;
                t1 -= u[2] * c0 + u[3] * c1;
            }
            let inv = &self.inv_pivot[b];
            x[2 * b] = inv[0] * t0 + inv[1] * t1;
            x[2 * b + 1] = inv[2] * t0 + inv[3] * t1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banded::BandedMatrix;

    /// Mirrors a block-tridiagonal matrix into the generic banded storage.
    fn to_banded(m: &BlockTridiagonal) -> BandedMatrix {
        let n = m.dim();
        let mut banded = BandedMatrix::zeros(n, 3, 3);
        for i in 0..n {
            for j in i.saturating_sub(3)..(i + 4).min(n) {
                let v = m.get(i, j);
                if v != 0.0 {
                    banded.set(i, j, v);
                }
            }
        }
        banded
    }

    /// An SPD ladder in the Model B pattern: interleaved bulk/via chains
    /// with lateral coupling and a grounded first block.
    fn ladder(n_blocks: usize) -> BlockTridiagonal {
        let mut m = BlockTridiagonal::zeros(n_blocks);
        let couple = |m: &mut BlockTridiagonal, i: usize, j: usize, g: f64| {
            m.add(i, i, g);
            m.add(j, j, g);
            m.add(i, j, -g);
            m.add(j, i, -g);
        };
        m.add(0, 0, 2.5); // ground anchor
        m.add(1, 1, 1.0); // decoupled dummy
        for b in 1..n_blocks {
            let (bulk, via) = (2 * b, 2 * b + 1);
            let (pb, pv) = if b == 1 {
                (0, 0)
            } else {
                (2 * b - 2, 2 * b - 1)
            };
            couple(&mut m, bulk, pb, 1.0 + b as f64 * 0.25);
            couple(&mut m, via, pv, 3.0 / b as f64);
            couple(&mut m, bulk, via, 0.125 * b as f64);
        }
        m
    }

    #[test]
    fn solve_matches_generic_banded_lu() {
        let m = ladder(9);
        let banded = to_banded(&m);
        let b: Vec<f64> = (0..m.dim()).map(|i| ((i * 5) % 7) as f64 - 3.0).collect();
        let x_block = m.solve(&b).unwrap();
        let x_band = banded.solve(&b).unwrap();
        for (a, g) in x_block.iter().zip(&x_band) {
            assert!((a - g).abs() < 1e-10, "block {a} vs banded {g}");
        }
    }

    #[test]
    fn factorize_once_solve_many() {
        let m = ladder(6);
        let lu = m.clone().factorize().unwrap();
        for seed in 0..3 {
            let b: Vec<f64> = (0..m.dim()).map(|i| ((i + seed) as f64).cos()).collect();
            let x = lu.solve(&b).unwrap();
            let ax = m.matvec(&x).unwrap();
            for (got, want) in ax.iter().zip(&b) {
                assert!((got - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn four_lane_solve_is_bitwise_identical_to_four_single_solves() {
        let m = ladder(23);
        let lu = m.factorize().unwrap();
        let n = lu.dim();
        let lanes: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                (0..n)
                    .map(|i| ((i * 3 + l * 7) as f64).sin() * 2.0)
                    .collect()
            })
            .collect();
        let singles: Vec<Vec<f64>> = lanes.iter().map(|b| lu.solve(b).unwrap()).collect();
        let mut z = vec![0.0; 4 * n];
        for (l, lane) in lanes.iter().enumerate() {
            for (i, &v) in lane.iter().enumerate() {
                z[4 * i + l] = v;
            }
        }
        lu.solve_interleaved_x4(&mut z).unwrap();
        for (l, single) in singles.iter().enumerate() {
            for (i, y) in single.iter().enumerate() {
                let x = z[4 * i + l];
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "lane {l}, unknown {i}: {x} vs {y}"
                );
            }
        }
        assert!(matches!(
            lu.solve_interleaved_x4(&mut z[1..]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_in_place_avoids_allocation_and_matches_solve() {
        let m = ladder(5);
        let b: Vec<f64> = (0..m.dim()).map(|i| i as f64 * 0.5 - 2.0).collect();
        let lu = m.factorize().unwrap();
        let x = lu.solve(&b).unwrap();
        let mut y = b.clone();
        lu.solve_in_place(&mut y).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn out_of_band_reads_are_zero_and_writes_panic() {
        let m = ladder(4);
        assert_eq!(m.get(0, 7), 0.0);
        assert_eq!(m.get(7, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the block-tridiagonal band")]
    fn far_off_diagonal_write_panics() {
        let mut m = BlockTridiagonal::zeros(3);
        m.add(0, 4, 1.0);
    }

    #[test]
    fn singular_pivot_block_detected() {
        let mut m = BlockTridiagonal::zeros(2);
        // First block is all-zero → singular at global row 0.
        m.add(2, 2, 1.0);
        m.add(3, 3, 1.0);
        match m.solve(&[1.0; 4]) {
            Err(LinalgError::Singular { pivot }) => assert_eq!(pivot, 0),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn rhs_length_mismatch_rejected() {
        let m = ladder(3);
        assert!(matches!(
            m.solve(&[1.0; 5]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
