//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use ttsv_linalg::{
    solve_cg, solve_pcg, BandedMatrix, BlockTridiagonal, CooBuilder, CsrMatrix, DenseMatrix,
    IterativeConfig, MultigridPreconditioner, SsorPreconditioner, Tridiagonal,
};

/// A random finite-volume-style SPD system on an `nx × ny × nz` box:
/// 7-point stencil with harmonic-mean-like positive face conductances and
/// a Dirichlet anchor below the first layer (mirrors the Cartesian heat
/// solver's structure, including conductivity jumps).
fn random_box_matrix(dims: (usize, usize, usize), k: &[f64]) -> CsrMatrix {
    let (nx, ny, nz) = dims;
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| x + y * nx + z * nx * ny;
    let mut coo = CooBuilder::new(n, n);
    let face = |a: f64, b: f64| 2.0 * a * b / (a + b);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                if x + 1 < nx {
                    let j = idx(x + 1, y, z);
                    let g = face(k[i], k[j]);
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                if y + 1 < ny {
                    let j = idx(x, y + 1, z);
                    let g = face(k[i], k[j]);
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                if z + 1 < nz {
                    let j = idx(x, y, z + 1);
                    let g = face(k[i], k[j]);
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                if z == 0 {
                    coo.add(i, i, 2.0 * k[i]); // sink anchor
                }
            }
        }
    }
    coo.to_csr()
}

/// Strategy: box dimensions plus per-cell conductivities spanning a
/// 100 : 1 jump range (the solvers must agree across material contrast).
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

/// Strategy: a Model-B-shaped ladder — per-segment (bulk, fill, lateral)
/// conductances plus heat inputs and a substrate conductance.
#[allow(clippy::type_complexity)]
fn ladder_system() -> impl Strategy<Value = (Vec<(f64, f64, f64)>, Vec<f64>, f64)> {
    (2usize..41).prop_flat_map(|segs| {
        (
            prop::collection::vec((0.1..50.0f64, 0.1..50.0f64, 0.1..50.0f64), segs),
            prop::collection::vec(0.0..5.0f64, segs),
            0.1..10.0f64,
        )
    })
}

/// Strategy: a well-conditioned SPD matrix built as `A = BᵀB + n·I` from a
/// random `B` with entries in [−1, 1].
fn spd_matrix(n: usize) -> impl Strategy<Value = DenseMatrix> {
    prop::collection::vec(-1.0..1.0f64, n * n).prop_map(move |data| {
        let b = DenseMatrix::from_fn(n, n, |i, j| data[i * n + j]);
        let bt = b.transpose();
        let mut a = bt.matmul(&b).expect("square product");
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    })
}

fn rhs(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solution_satisfies_system((a, b) in spd_matrix(6).prop_flat_map(|a| (Just(a), rhs(6)))) {
        let x = a.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (got, want) in ax.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-8, "Ax={got} b={want}");
        }
    }

    #[test]
    fn lu_det_matches_transpose_det(a in spd_matrix(5)) {
        let d1 = a.lu().unwrap().det();
        let d2 = a.transpose().lu().unwrap().det();
        prop_assert!((d1 - d2).abs() <= 1e-8 * d1.abs().max(1.0));
        // SPD ⇒ positive determinant.
        prop_assert!(d1 > 0.0);
    }

    #[test]
    fn lu_inverse_roundtrips(a in spd_matrix(4)) {
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[(i, j)] - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn cg_matches_dense_lu((a, b) in spd_matrix(8).prop_flat_map(|a| (Just(a), rhs(8)))) {
        // Mirror the dense SPD matrix into CSR and compare solvers.
        let mut coo = CooBuilder::new(8, 8);
        for i in 0..8 {
            for j in 0..8 {
                coo.add(i, j, a[(i, j)]);
            }
        }
        let csr = coo.to_csr();
        let x_cg = solve_cg(&csr, &b, &IterativeConfig::new(5000, 1e-12)).unwrap().solution;
        let x_lu = a.solve(&b).unwrap();
        for (cg, lu) in x_cg.iter().zip(&x_lu) {
            prop_assert!((cg - lu).abs() < 1e-6, "cg={cg} lu={lu}");
        }
    }

    #[test]
    fn tridiagonal_matches_dense(
        diag in prop::collection::vec(4.0..8.0f64, 6),
        off in prop::collection::vec(-1.5..1.5f64, 5),
        b in rhs(6),
    ) {
        let t = Tridiagonal::new(off.clone(), diag.clone(), off.clone());
        let dense = DenseMatrix::from_fn(6, 6, |i, j| {
            if i == j { diag[i] }
            else if j + 1 == i { off[j] }
            else if i + 1 == j { off[i] }
            else { 0.0 }
        });
        let x_tri = t.solve(&b).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for (a, d) in x_tri.iter().zip(&x_dense) {
            prop_assert!((a - d).abs() < 1e-9);
        }
    }

    #[test]
    fn banded_matches_dense(
        diag in prop::collection::vec(6.0..10.0f64, 10),
        off1 in prop::collection::vec(-1.5..1.5f64, 9),
        off2 in prop::collection::vec(-1.0..1.0f64, 8),
        b in rhs(10),
    ) {
        let mut banded = BandedMatrix::zeros(10, 2, 2);
        let mut dense = DenseMatrix::zeros(10, 10);
        for i in 0..10 {
            banded.set(i, i, diag[i]);
            dense[(i, i)] = diag[i];
        }
        for i in 0..9 {
            banded.set(i, i + 1, off1[i]);
            banded.set(i + 1, i, off1[i]);
            dense[(i, i + 1)] = off1[i];
            dense[(i + 1, i)] = off1[i];
        }
        for i in 0..8 {
            banded.set(i, i + 2, off2[i]);
            banded.set(i + 2, i, off2[i]);
            dense[(i, i + 2)] = off2[i];
            dense[(i + 2, i)] = off2[i];
        }
        let x_band = banded.solve(&b).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for (a, d) in x_band.iter().zip(&x_dense) {
            prop_assert!((a - d).abs() < 1e-8);
        }
    }

    #[test]
    fn block_tridiag_and_banded_lu_agree_on_random_ladders(
        (segs, heats, g_sub) in ladder_system(),
    ) {
        // The Model B pattern: interleaved [T0, B1, V1, ...] for the
        // banded assembly, the dummy-padded block layout for the block
        // kernel. Both direct eliminations must agree to rounding.
        let n_seg = segs.len();
        let n = 1 + 2 * n_seg;
        let mut banded = BandedMatrix::zeros(n, 2, 2);
        let mut block = BlockTridiagonal::zeros(n_seg + 1);
        let mut rhs_banded = vec![0.0; n];
        let mut rhs_block = vec![0.0; 2 * (n_seg + 1)];
        banded.add(0, 0, g_sub);
        block.add(0, 0, g_sub);
        block.add(1, 1, 1.0);
        let couple_banded = |m: &mut BandedMatrix, i: usize, j: usize, g: f64| {
            m.add(i, i, g);
            m.add(j, j, g);
            if i != j {
                m.add(i, j, -g);
                m.add(j, i, -g);
            }
        };
        let couple_block = |m: &mut BlockTridiagonal, i: usize, j: usize, g: f64| {
            m.add(i, i, g);
            m.add(j, j, g);
            if i != j {
                m.add(i, j, -g);
                m.add(j, i, -g);
            }
        };
        for (s, &(gb, gf, gl)) in segs.iter().enumerate() {
            let (bulk_b, via_b) = (1 + 2 * s, 2 + 2 * s);
            let (bulk_k, via_k) = (2 * s + 2, 2 * s + 3);
            let (below_bulk_b, below_via_b) = if s == 0 { (0, 0) } else { (bulk_b - 2, via_b - 2) };
            let (below_bulk_k, below_via_k) = if s == 0 { (0, 0) } else { (bulk_k - 2, via_k - 2) };
            couple_banded(&mut banded, bulk_b, below_bulk_b, gb);
            couple_banded(&mut banded, via_b, below_via_b, gf);
            couple_banded(&mut banded, bulk_b, via_b, gl);
            couple_block(&mut block, bulk_k, below_bulk_k, gb);
            couple_block(&mut block, via_k, below_via_k, gf);
            couple_block(&mut block, bulk_k, via_k, gl);
            rhs_banded[bulk_b] = heats[s];
            rhs_block[bulk_k] = heats[s];
        }
        let x_banded = banded.solve(&rhs_banded).unwrap();
        let x_block = block.solve(&rhs_block).unwrap();
        let scale = x_banded.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        prop_assert!((x_banded[0] - x_block[0]).abs() <= 1e-9 * scale);
        for s in 0..n_seg {
            prop_assert!(
                (x_banded[1 + 2 * s] - x_block[2 * s + 2]).abs() <= 1e-9 * scale,
                "bulk {s}: {} vs {}", x_banded[1 + 2 * s], x_block[2 * s + 2]
            );
            prop_assert!(
                (x_banded[2 + 2 * s] - x_block[2 * s + 3]).abs() <= 1e-9 * scale,
                "via {s}: {} vs {}", x_banded[2 + 2 * s], x_block[2 * s + 3]
            );
        }
    }

    #[test]
    fn mg_pcg_and_ssor_pcg_and_plain_cg_agree_on_random_boxes(
        (dims, k, b) in box_system(),
    ) {
        let a = random_box_matrix(dims, &k);
        let cfg = IterativeConfig::new(50_000, 1e-11);
        let plain = solve_cg(&a, &b, &cfg).unwrap().solution;
        let ssor = solve_pcg(&a, &b, &SsorPreconditioner::new(&a, 1.5), &cfg)
            .unwrap()
            .solution;
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let mg_x = solve_pcg(&a, &b, &mg, &cfg).unwrap().solution;
        let scale = plain.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for i in 0..plain.len() {
            prop_assert!((plain[i] - ssor[i]).abs() <= 1e-6 * scale, "ssor differs at {i}");
            prop_assert!((plain[i] - mg_x[i]).abs() <= 1e-6 * scale, "multigrid differs at {i}");
        }
    }

    #[test]
    fn refreshed_hierarchy_matches_fresh_build_on_perturbed_boxes(
        (dims, k, b) in box_system(),
        scale in 0.2..5.0f64,
    ) {
        // Build the hierarchy on one coefficient field, then refresh it
        // onto a perturbed field with the same sparsity pattern: PCG under
        // the refreshed preconditioner must reach the same solution (to
        // tolerance) as under a freshly built one.
        let a1 = random_box_matrix(dims, &k);
        let k2: Vec<f64> = k
            .iter()
            .enumerate()
            .map(|(i, &v)| v * scale * (1.0 + 0.2 * ((i % 3) as f64)))
            .collect();
        let a2 = random_box_matrix(dims, &k2);
        prop_assert!(a1.same_pattern(&a2), "perturbation must keep the pattern");

        let cfg = IterativeConfig::new(50_000, 1e-11);
        let mut refreshed = MultigridPreconditioner::new(&a1).unwrap();
        refreshed.refresh(&a2).unwrap();
        let fresh = MultigridPreconditioner::new(&a2).unwrap();

        let x_refreshed = solve_pcg(&a2, &b, &refreshed, &cfg).unwrap().solution;
        let x_fresh = solve_pcg(&a2, &b, &fresh, &cfg).unwrap().solution;
        let scale_x = x_fresh.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        for i in 0..x_fresh.len() {
            prop_assert!(
                (x_refreshed[i] - x_fresh[i]).abs() <= 1e-6 * scale_x,
                "refreshed hierarchy diverged at {i}: {} vs {}",
                x_refreshed[i],
                x_fresh[i]
            );
        }
    }

    #[test]
    fn vcycle_reduces_energy_error_monotonically_on_random_boxes(
        (dims, k, x_star) in box_system(),
    ) {
        // The V-cycle as a stationary iteration must contract the energy
        // norm ‖e‖_A every cycle until rounding-level convergence.
        let a = random_box_matrix(dims, &k);
        let b = a.matvec(&x_star).unwrap();
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let n = b.len();
        let energy = |x: &[f64]| {
            let e: Vec<f64> = x_star.iter().zip(x).map(|(s, v)| s - v).collect();
            ttsv_linalg::dot(&e, &a.matvec(&e).unwrap()).max(0.0).sqrt()
        };
        let mut x = vec![0.0; n];
        let mut prev = energy(&x);
        let floor = 1e-10 * prev.max(1e-30);
        for cycle in 0..8 {
            if prev <= floor {
                break; // already at rounding level
            }
            let ax = a.matvec(&x).unwrap();
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let mut dz = vec![0.0; n];
            ttsv_linalg::Preconditioner::apply(&mg, &r, &mut dz);
            for i in 0..n {
                x[i] += dz[i];
            }
            let now = energy(&x);
            prop_assert!(
                now < prev,
                "cycle {cycle}: energy error grew from {prev:.3e} to {now:.3e}"
            );
            prev = now;
        }
    }

    #[test]
    fn csr_matvec_matches_dense(entries in prop::collection::vec((0usize..7, 0usize..7, -5.0..5.0f64), 1..40), x in rhs(7)) {
        let mut coo = CooBuilder::new(7, 7);
        let mut dense = DenseMatrix::zeros(7, 7);
        for (i, j, v) in entries {
            coo.add(i, j, v);
            dense[(i, j)] += v;
        }
        let csr = coo.to_csr();
        let y_sparse = csr.matvec(&x).unwrap();
        let y_dense = dense.matvec(&x).unwrap();
        for (s, d) in y_sparse.iter().zip(&y_dense) {
            prop_assert!((s - d).abs() < 1e-10);
        }
    }
}
