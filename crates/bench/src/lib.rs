//! Shared helpers for the benchmark harness.
//!
//! The benches regenerate the paper's tables/figures through the same
//! experiment code the `repro` binary uses; this crate only hosts small
//! scenario constructors ([`block`], [`block_with_tsi`], [`block_divided`])
//! so the individual bench files stay terse.
//!
//! # Bench → paper mapping
//!
//! Run with `cargo bench -p ttsv-bench` (or `--bench <name>` for one).
//! Each bench times the models over the sweep that produces the
//! corresponding paper artifact, exposing the cost hierarchy
//! 1-D ≪ Model A ≪ Model B ≪ FEM:
//!
//! | Bench | Paper artifact | Parameter sweep |
//! |-------|----------------|-------|
//! | `fig4_radius_sweep` | Fig. 4 | max ΔT vs via radius `r`, per model |
//! | `fig5_liner_sweep` | Fig. 5 | max ΔT vs liner thickness `t_L`, per model |
//! | `fig6_substrate_sweep` | Fig. 6 | max ΔT vs upper substrate thickness `t_Si` (via [`block_with_tsi`]) |
//! | `fig7_division_sweep` | Fig. 7 | one via split into `n` smaller vias, same metal area (via [`block_divided`]) |
//! | `table1_segments` | Table I | Model B accuracy/cost vs segment count `n` (1, 20, 100, 500, 1000) |
//! | `calibration` | §II / §IV-A | fitting Model A's `k₁`, `k₂` against the FEM reference |
//! | `case_study` | §IV-E | the 10 mm × 10 mm DRAM-µP stack unit cell |
//! | `ablation_axisym_vs_cart` | — | FEM axisymmetric vs full Cartesian discretization cost |
//! | `ablation_fem_mesh` | — | FEM cost vs mesh resolution (coarse → fine) |
//! | `ablation_fem_precond` | — | FEM linear solver: smoothed-aggregation multigrid PCG vs direct banded, two mesh resolutions |
//! | `ablation_mg_reuse` | — | multigrid setup amortization on the one smoothed-aggregation hierarchy: build vs numeric refresh, one V-cycle, sweep with rebuilt vs pooled hierarchies |
//! | `floorplan_chip` | §IV-E generalized | full-chip 32×32 power-map evaluation through the batch engine: hotspot vs all-distinct gradient maps, factor-once hotspot kernel vs per-tile solves (Model B, and Model A on its one-segment-per-plane ladder) (via [`hotspot_floorplan`]/[`gradient_floorplan`]) |
//!
//! # Machine-readable perf tracking
//!
//! `cargo run --release -p ttsv-bench --bin bench_json [-- PATH [--check [COMMITTED]]]`
//! times the headline workloads (the fig4 FEM sweep, Model B at deep
//! segment counts, the Model B hotspot kernel's build and 1,024-tile
//! evaluation on the serving geometry, multigrid-PCG vs direct banded on
//! the coarse FEM mesh, the smoothed-aggregation hierarchy's
//! build/refresh split and V-cycle, the bounded sweep runner, the 32×32
//! floorplan-engine evaluations including the factor-once path, and the
//! `ttsv-serve` session server timed over a real loopback socket: cold
//! registration on 12×12 and 64×64, warm two-tile power deltas in both
//! full-report and delta-response form, the delta-response update on 12×12, 32×32 and
//! 64×64 sessions, a sustained 32-request burst on one connection, and
//! the same 32 updates fanned out across 32 concurrent connections)
//! with its own median-of-N harness and writes them to `BENCH_N.json`
//! (default: one past the highest-numbered recording present at the
//! repository root). The file also embeds, as its baseline, the medians
//! of the newest earlier recording present there, read from that file
//! ([`newest_bench_json`]), so each PR can re-run the binary and compare
//! the trajectory without copying numbers by hand. A schema sanity test
//! in this crate parses the newest `BENCH_N.json` present at the
//! repository root, checks the required rows, and bounds the
//! acceptance-criteria medians against its baseline (within 2× —
//! absolute nanoseconds are machine-dependent). A default-path run from
//! the repository root therefore adds the file both the next run and the
//! schema test read; pass an explicit path elsewhere to keep a local
//! measurement out of them. The schema test also applies the same-run
//! ratio invariants ([`same_run_violations`]) to that recording. CI runs
//! the emitter every push with a bare `--check`, which applies the same
//! invariants to the medians it just measured, compares against the
//! newest committed recording, and fails the build if an invariant fails
//! or any row shared with the recording regresses past 1.5×.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::{Path, PathBuf};

use serde::json::Value;
use ttsv::prelude::*;

/// The paper-block scenario with the given via radius and liner (µm).
///
/// # Panics
///
/// Panics on invalid geometry (benches use known-good values).
#[must_use]
pub fn block(radius_um: f64, liner_um: f64) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(
            Length::from_micrometers(radius_um),
            Length::from_micrometers(liner_um),
        ))
        .build()
        .expect("valid bench scenario")
}

/// A paper-block scenario matching the Fig. 6 sweep at the given substrate
/// thickness (µm).
///
/// # Panics
///
/// Panics on invalid geometry.
#[must_use]
pub fn block_with_tsi(t_si_um: f64) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(
            Length::from_micrometers(8.0),
            Length::from_micrometers(1.0),
        ))
        .with_ild_thickness(Length::from_micrometers(7.0))
        .with_upper_si_thickness(Length::from_micrometers(t_si_um))
        .build()
        .expect("valid bench scenario")
}

/// A 32×32×32 finite-volume-style SPD box with smoothly varying
/// conductances and a Dirichlet anchor under the first layer — the
/// multigrid setup/refresh workload shared by `ablation_mg_reuse` and
/// `bench_json` (32 768 unknowns). `amp` scales every conductance:
/// different `amp`, same sparsity pattern.
#[must_use]
pub fn mg_box_matrix(amp: f64) -> ttsv::linalg::CsrMatrix {
    use ttsv::linalg::CooBuilder;
    let (nx, ny, nz) = (32, 32, 32);
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| x + y * nx + z * nx * ny;
    let cell = |x: usize, y: usize, z: usize| amp * (1.0 + 0.4 * ((x + 2 * y + 3 * z) % 7) as f64);
    let mut coo = CooBuilder::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let mut diag = 0.0;
                if z == 0 {
                    diag += 2.0 * cell(x, y, z);
                }
                for (jx, jy, jz) in [
                    (x.wrapping_sub(1), y, z),
                    (x + 1, y, z),
                    (x, y.wrapping_sub(1), z),
                    (x, y + 1, z),
                    (x, y, z.wrapping_sub(1)),
                    (x, y, z + 1),
                ] {
                    if jx < nx && jy < ny && jz < nz {
                        let g = 0.5 * (cell(x, y, z) + cell(jx, jy, jz));
                        coo.add(i, idx(jx, jy, jz), -g);
                        diag += g;
                    }
                }
                coo.add(i, i, diag);
            }
        }
    }
    coo.to_csr()
}

/// An `n × n` hotspot floorplan on the §IV-E chip: the µP plane carries a
/// central 4×4-tile hotspot at 8× the background tile power inside a
/// 10×10 warm ring at 2× (power levels quantized to three values, so the
/// dedup collapses the chip to 3 distinct unit cells), the DRAM
/// planes stay uniform-per-plane with the same quantization, and the via
/// density is the paper's uniform 0.5 %. The `floorplan_chip` bench and
/// `bench_json` share this workload.
///
/// # Panics
///
/// Panics if `n < 11` (smaller grids cannot hold the background level
/// outside the 10×10 warm region, collapsing the 3-level shape).
#[must_use]
pub fn hotspot_floorplan(n: usize) -> Floorplan {
    assert!(n >= 11, "hotspot floorplan needs an 11×11 grid or larger");
    let cs = ttsv::core::full_chip::CaseStudy::paper();
    let multiplier = |ix: usize, iy: usize| -> f64 {
        let center = |i: usize| (i as f64) - (n as f64 - 1.0) / 2.0;
        let (dx, dy) = (center(ix).abs(), center(iy).abs());
        if dx < 2.0 && dy < 2.0 {
            8.0
        } else if dx < 5.0 && dy < 5.0 {
            2.0
        } else {
            1.0
        }
    };
    let weight_total: f64 = (0..n)
        .flat_map(|iy| (0..n).map(move |ix| multiplier(ix, iy)))
        .sum();
    let maps = cs
        .plane_powers
        .iter()
        .map(|&total| {
            PowerMap::from_fn(n, n, |ix, iy| total * (multiplier(ix, iy) / weight_total))
                .expect("valid hotspot map")
        })
        .collect();
    let via = ViaDensityMap::uniform(n, n, cs.density).expect("valid density map");
    Floorplan::new(&cs, maps, via).expect("valid floorplan")
}

/// An `n × n` gradient floorplan: every tile's power scales with a
/// diagonal gradient, so (almost) every unit cell is distinct — the
/// dedup-free batch-throughput workload complementing
/// [`hotspot_floorplan`].
///
/// # Panics
///
/// Panics on invalid geometry.
#[must_use]
pub fn gradient_floorplan(n: usize) -> Floorplan {
    let cs = ttsv::core::full_chip::CaseStudy::paper();
    let weight = |ix: usize, iy: usize| 1.0 + (iy * n + ix) as f64 / (n * n) as f64;
    let weight_total: f64 = (0..n)
        .flat_map(|iy| (0..n).map(move |ix| weight(ix, iy)))
        .sum();
    let maps = cs
        .plane_powers
        .iter()
        .map(|&total| {
            PowerMap::from_fn(n, n, |ix, iy| total * (weight(ix, iy) / weight_total))
                .expect("valid gradient map")
        })
        .collect();
    let via = ViaDensityMap::uniform(n, n, cs.density).expect("valid density map");
    Floorplan::new(&cs, maps, via).expect("valid floorplan")
}

/// A Fig. 7 division scenario: one r₀ = 10 µm via split into `n`.
///
/// # Panics
///
/// Panics on invalid geometry.
#[must_use]
pub fn block_divided(n: usize) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::divided(
            Length::from_micrometers(10.0),
            Length::from_micrometers(1.0),
            n,
        ))
        .with_upper_si_thickness(Length::from_micrometers(20.0))
        .build()
        .expect("valid bench scenario")
}

/// The repository root, where the `BENCH_N.json` recordings live.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `N` of a `BENCH_N.json` file name, if `path` is named that way.
#[must_use]
pub fn bench_number(path: &Path) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The highest-numbered `BENCH_N.json` in `dir` as `(N, path)`, counting
/// only `N < below` when `below` is given.
#[must_use]
pub fn newest_bench_json(dir: &Path, below: Option<u64>) -> Option<(u64, PathBuf)> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            Some((bench_number(&path)?, path))
        })
        .filter(|&(n, _)| below.is_none_or(|b| n < b))
        .max_by_key(|&(n, _)| n)
}

/// Every `(key, integer)` pair under `section` of a `bench_json`
/// recording, read from `field` inside each entry's object (or the bare
/// integer when `None`); entries without that integer are skipped.
///
/// # Panics
///
/// Panics if `json` does not parse or has no `section` object.
#[must_use]
pub fn section_integers(json: &str, section: &str, field: Option<&str>) -> Vec<(String, u128)> {
    let doc = serde::json::from_str(json).unwrap_or_else(|e| panic!("recording: {e}"));
    let Some(Value::Object(entries)) = doc.get(section) else {
        panic!("section {section} missing");
    };
    entries
        .iter()
        .filter_map(|(key, entry)| {
            let value = field.map_or(Some(entry), |f| entry.get(f))?;
            Some((key.clone(), value.as_usize()? as u128))
        })
        .collect()
}

/// One same-run invariant over two medians of one recording:
/// `lhs.0 · median(lhs.1) ≤ rhs.0 · median(rhs.1)` (`<` when `strict`).
/// Both rows come from the same process on the same host, so the bound
/// is machine-independent.
struct SameRun {
    lhs: (u128, &'static str),
    strict: bool,
    rhs: (u128, &'static str),
    why: &'static str,
}

const SAME_RUN: [SameRun; 8] = [
    // A warm two-tile power delta on a live 64×64 session (servebench's
    // chip size) must be ≥5× cheaper than registering a cold one — the
    // point of holding sessions server-side instead of resubmitting
    // floorplans. Taken at 64×64: a 12×12 registration (one
    // factorization plus 144 kernel evaluations) comes within 5× of a
    // warm delta.
    SameRun {
        lhs: (5, "serve/warm_delta_response/grid64"),
        strict: false,
        rhs: (1, "serve/cold_session/grid64"),
        why: "warm session deltas must be ≥5× cheaper than cold registration at 64×64",
    },
    // The 32-request burst must amortize: no worse than 32 single warm
    // deltas plus generous per-request overhead headroom.
    SameRun {
        lhs: (1, "serve/sustained_32req"),
        strict: true,
        rhs: (64, "serve/warm_delta"),
        why: "sustained warm burst must amortize per-request overhead",
    },
    // A delta response is the same evaluation with a smaller body, so it
    // must not cost materially more than the full-report form of the
    // identical update — 2× headroom absorbs sampling noise.
    SameRun {
        lhs: (1, "serve/warm_delta_response"),
        strict: true,
        rhs: (2, "serve/warm_delta"),
        why: "delta responses must not cost more than full reports",
    },
    // 32 concurrent updates across 32 connections must stay within
    // shouting distance of the same 32 updates pipelined on one
    // connection: on one core fan-out adds scheduling overhead rather
    // than parallel speedup, so the bound only rules out the
    // catastrophic case (serial accept-evaluate-close per request).
    SameRun {
        lhs: (1, "serve/sustained_fanout"),
        strict: true,
        rhs: (4, "serve/sustained_32req"),
        why: "concurrent fan-out must not collapse to serial per-connection serving",
    },
    // Journaling every power update (default interval fsync) must cost
    // less than 2× the unjournaled delta response for the identical
    // update — durability must not double the warm hot path.
    SameRun {
        lhs: (1, "serve/warm_delta_journaled"),
        strict: true,
        rhs: (2, "serve/warm_delta_response"),
        why: "the write-ahead journal must not double the warm delta hot path",
    },
    // A warm two-tile update re-solves only the tiles it names, so its
    // cost may not scale with the chip: 28× the tiles stays within 2× of
    // the 12×12 row.
    SameRun {
        lhs: (1, "serve/warm_delta_response/grid64"),
        strict: false,
        rhs: (2, "serve/warm_delta_response/grid12"),
        why: "a warm update must cost what it changes, not what the chip holds",
    },
    // One shared factorization and kernel plus 1,024 kernel evaluations
    // must beat 1,024 full per-tile solves by 3×.
    SameRun {
        lhs: (3, "floorplan_chip/gradient32/factor_shared"),
        strict: true,
        rhs: (1, "floorplan_chip/gradient32/model_b100"),
        why: "the shared factorization must dominate per-tile solves",
    },
    // The numeric refresh must undercut a full hierarchy build.
    SameRun {
        lhs: (1, "mg_hierarchy/refresh_flat/box32k"),
        strict: true,
        rhs: (1, "mg_hierarchy/build_sa/box32k"),
        why: "refresh must be cheaper than a fresh hierarchy build",
    },
];

/// Checks the same-run invariants against `benches` (name → median ns,
/// as [`section_integers`] reads them from a recording), returning one
/// message per violated invariant or missing row. The schema test runs
/// it on the newest committed recording; `bench_json --check` runs it on
/// the medians it just measured.
#[must_use]
pub fn same_run_violations(benches: &[(String, u128)]) -> Vec<String> {
    let median = |key: &str| benches.iter().find(|(k, _)| k == key).map(|&(_, ns)| ns);
    let mut violations = Vec::new();
    for SameRun {
        lhs: (a, lhs),
        strict,
        rhs: (b, rhs),
        why,
    } in SAME_RUN
    {
        let (Some(l), Some(r)) = (median(lhs), median(rhs)) else {
            violations.push(format!("{why}: {lhs} or {rhs} missing"));
            continue;
        };
        let holds = if strict {
            a * l < b * r
        } else {
            a * l <= b * r
        };
        if !holds {
            let op = if strict { "<" } else { "≤" };
            violations.push(format!(
                "{why}: needs {a}×{lhs} {op} {b}×{rhs}, got {l} ns vs {r} ns"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_schema_is_sane() {
        // Parse the newest BENCH_N.json at the repository root: schema tag, every
        // headline bench present with a positive median, the previous
        // recording embedded as its baseline — and the acceptance-criteria
        // medians within bounds of that baseline.
        let (pr, path) =
            newest_bench_json(&repo_root(), None).expect("a BENCH_N.json at repo root");
        let json = std::fs::read_to_string(&path).expect("read the newest BENCH_N.json");
        assert!(
            json.contains("\"schema\": \"ttsv-bench-json/1\""),
            "schema tag missing"
        );
        assert!(json.contains(&format!("\"pr\": {pr},")), "pr tag missing");
        let baseline_pr: u64 = json
            .split_once("\"baseline_pr\": ")
            .and_then(|(_, rest)| rest.split(',').next()?.parse().ok())
            .expect("baseline_pr tag");
        assert!(
            baseline_pr < pr,
            "the baseline must be an earlier recording"
        );

        let benches = section_integers(&json, "benches", Some("median_ns"));
        let baseline = section_integers(&json, "baseline_ns", None);
        let median = |set: &[(String, u128)], key: &str| -> u128 {
            set.iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} missing"))
                .1
        };
        for key in [
            "fig4_radius_sweep/fem_coarse",
            "table1_segments/B(1000)",
            "ablation_fem_precond/multigrid/coarse",
            "ablation_fem_precond/direct_banded/coarse",
            "mg_hierarchy/build_sa/box32k",
            "mg_hierarchy/refresh_flat/box32k",
            "mg_vcycle/sa/box32k",
            "fem_mg_sweep/reuse",
            "sweep_runner/fig4_quick",
            "floorplan_chip/hotspot32/model_b100",
            "floorplan_chip/gradient32/model_b100",
            "floorplan_chip/gradient32/factor_shared",
            "floorplan_chip/gradient32/model_a",
            "floorplan_chip/full64/factored",
            "model_b/factorize/b10_1000",
            "model_b/hotspot_1024/b10_1000",
            "serve/cold_session",
            "serve/cold_session/grid64",
            "serve/warm_delta",
            "serve/warm_delta_response",
            "serve/sustained_32req",
            "serve/sustained_fanout",
            "serve/parked_request",
            "serve/warm_delta_journaled",
            "serve/warm_delta_response/grid12",
            "serve/warm_delta_response/grid32",
            "serve/warm_delta_response/grid64",
        ] {
            assert!(median(&benches, key) > 0, "{key} must have a real median");
        }
        // Carried-over workloads must stay near the baseline. Absolute
        // nanoseconds are machine-dependent, so only a catastrophic
        // regression fails — 2× headroom absorbs a slower host without
        // masking a real slowdown of the hot paths.
        for key in [
            "fig4_radius_sweep/fem_coarse",
            "sweep_runner/fig4_quick",
            "mg_hierarchy/refresh_flat/box32k",
            "floorplan_chip/gradient32/factor_shared",
        ] {
            assert!(
                median(&benches, key) < 2 * median(&baseline, key),
                "{key} regressed far past the baseline"
            );
        }
        let violations = same_run_violations(&benches);
        assert!(
            violations.is_empty(),
            "same-run invariants: {violations:#?}"
        );
    }

    #[test]
    fn same_run_violations_name_each_broken_ratio_and_missing_row() {
        let (_, path) = newest_bench_json(&repo_root(), None).expect("a BENCH_N.json at repo root");
        let json = std::fs::read_to_string(&path).expect("read the newest BENCH_N.json");
        let mut benches = section_integers(&json, "benches", Some("median_ns"));
        let warm = benches
            .iter()
            .find(|(k, _)| k == "serve/warm_delta_response/grid64")
            .expect("grid64 warm delta row")
            .1;
        for (key, ns) in &mut benches {
            if key == "serve/cold_session/grid64" {
                *ns = 4 * warm;
            }
        }
        benches.retain(|(k, _)| k != "serve/warm_delta_journaled");
        let violations = same_run_violations(&benches);
        assert_eq!(violations.len(), 2, "{violations:#?}");
        assert!(
            violations[0].contains("cold registration"),
            "{violations:#?}"
        );
        assert!(violations[1].contains("missing"), "{violations:#?}");
    }

    #[test]
    fn section_integers_reads_every_median_of_a_recording() {
        let json = std::fs::read_to_string(repo_root().join("BENCH_24.json")).expect("BENCH_24");
        let benches = section_integers(&json, "benches", Some("median_ns"));
        assert_eq!(benches.len(), json.matches("\"median_ns\"").count());
        assert!(benches.contains(&("model_b/factorize/b10_1000".to_string(), 149_518)));
    }

    #[test]
    fn constructors_build() {
        assert_eq!(block(8.0, 0.5).stack().plane_count(), 3);
        assert_eq!(
            block_with_tsi(20.0).stack().planes()[1]
                .t_si()
                .as_micrometers(),
            20.0
        );
        assert_eq!(block_divided(9).tsv().count(), 9);
    }

    #[test]
    fn floorplan_constructors_build_and_conserve_power() {
        let hotspot = hotspot_floorplan(32);
        assert_eq!(hotspot.tiles(), 1024);
        let total: f64 = hotspot.plane_totals().iter().map(|p| p.as_watts()).sum();
        assert!((total - 84.0).abs() < 1e-9 * 84.0, "{total}");
        let gradient = gradient_floorplan(16);
        assert_eq!(gradient.plane_count(), 3);
        let total: f64 = gradient.plane_totals().iter().map(|p| p.as_watts()).sum();
        assert!((total - 84.0).abs() < 1e-9 * 84.0, "{total}");
    }
}
