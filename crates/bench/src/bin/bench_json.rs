//! Machine-readable perf tracking: times the headline benchmarks and
//! writes their median wall-clock to a JSON file so future PRs can compare
//! against the recorded trajectory.
//!
//! Usage:
//! `cargo run --release -p ttsv-bench --bin bench_json [-- PATH [--check [COMMITTED]]]`
//! (default output: `BENCH_N.json` in the current directory, `N` one past
//! the highest-numbered recording present at the repository root). The
//! recording embeds the medians of the newest `BENCH_M.json` present
//! there with `M < N` as its baseline. With `--check COMMITTED`, the freshly
//! measured medians must satisfy the same-run invariants
//! ([`ttsv_bench::same_run_violations`]) and are compared against the
//! committed recording; the process prints every violation and exits 1
//! if any invariant fails or any shared row regressed more than 1.5× —
//! the CI regression guard. A bare `--check` compares against the newest
//! `BENCH_N.json` at the repository root other than the output file. See
//! the `ttsv-bench` crate docs for the bench → paper mapping.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ttsv::fem::FemSolver;
use ttsv::linalg::{MultigridHierarchy, MultigridPreconditioner, Preconditioner};
use ttsv::prelude::*;
use ttsv::validate::sweep::run_sweep;
use ttsv_bench::{
    bench_number, block, gradient_floorplan, hotspot_floorplan, mg_box_matrix, newest_bench_json,
    repo_root, same_run_violations, section_integers,
};

/// Wall-clock budget per benchmark (after the warm-up call).
const TIME_BUDGET: Duration = Duration::from_secs(2);
/// Target sample count per benchmark.
const TARGET_SAMPLES: usize = 15;
/// The `--check` regression gate: a shared row failing `fresh ≤ 1.5×
/// committed` fails CI.
const CHECK_HEADROOM_NUM: u128 = 3;
const CHECK_HEADROOM_DEN: u128 = 2;

struct Sampler {
    results: Vec<(String, u128, usize)>,
}

impl Sampler {
    fn bench<O>(&mut self, name: &str, f: impl FnMut() -> O) {
        self.bench_prepared(name, || {}, f);
    }

    /// Like [`Sampler::bench`], but runs `prepare` untimed before every
    /// sample — for rows whose setup (e.g. parking a connection past the
    /// event loops' spin window) must not pollute the measured latency.
    fn bench_prepared<O>(
        &mut self,
        name: &str,
        mut prepare: impl FnMut(),
        mut f: impl FnMut() -> O,
    ) {
        prepare();
        std::hint::black_box(f()); // warm-up
        let start = Instant::now();
        let mut samples = Vec::with_capacity(TARGET_SAMPLES);
        while samples.len() < TARGET_SAMPLES && start.elapsed() < TIME_BUDGET {
            prepare();
            let t = Instant::now();
            std::hint::black_box(f());
            samples.push(t.elapsed().as_nanos());
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        eprintln!(
            "{name:<50} median {median:>12} ns ({} samples)",
            samples.len()
        );
        self.results.push((name.to_string(), median, samples.len()));
    }

    /// Samples rows `a` and `b` in alternation: one sample of each per
    /// round, the order flipped every round, so both rows see the same
    /// host state. Records both medians and prints the median of the
    /// per-round ratios `b / a`.
    fn bench_pair<A, B>(
        &mut self,
        (name_a, mut a): (&str, impl FnMut() -> A),
        (name_b, mut b): (&str, impl FnMut() -> B),
    ) {
        fn time<O>(f: &mut impl FnMut() -> O) -> u128 {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_nanos()
        }
        time(&mut a); // warm-up
        time(&mut b);
        let start = Instant::now();
        let (mut samples_a, mut samples_b, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
        while samples_a.len() < TARGET_SAMPLES && start.elapsed() < 2 * TIME_BUDGET {
            let (ta, tb) = if samples_a.len() % 2 == 0 {
                let ta = time(&mut a);
                (ta, time(&mut b))
            } else {
                let tb = time(&mut b);
                (time(&mut a), tb)
            };
            samples_a.push(ta);
            samples_b.push(tb);
            ratios.push(tb as f64 / ta as f64);
        }
        ratios.sort_by(f64::total_cmp);
        eprintln!(
            "{name_b} / {name_a}: paired median ratio {:.3} ({} pairs)",
            ratios[ratios.len() / 2],
            ratios.len()
        );
        for (name, mut samples) in [(name_a, samples_a), (name_b, samples_b)] {
            samples.sort_unstable();
            let median = samples[samples.len() / 2];
            eprintln!(
                "{name:<50} median {median:>12} ns ({} samples)",
                samples.len()
            );
            self.results.push((name.to_string(), median, samples.len()));
        }
    }

    /// Renders the recording for PR `pr`, embedding the medians of the
    /// committed `BENCH_{baseline_pr}.json` as its baseline.
    fn to_json(&self, pr: u64, baseline_pr: u64, baseline: &[(String, u128)]) -> String {
        let mut out = format!("{{\n  \"schema\": \"ttsv-bench-json/1\",\n  \"pr\": {pr},\n");
        out.push_str(
            "  \"generated_by\": \"cargo run --release -p ttsv-bench --bin bench_json\",\n",
        );
        out.push_str("  \"benches\": {\n");
        for (i, (name, median, samples)) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{name}\": {{\"median_ns\": {median}, \"samples\": {samples}}}{comma}\n"
            ));
        }
        out.push_str(&format!(
            "  }},\n  \"baseline_pr\": {baseline_pr},\n  \"baseline_ns\": {{\n"
        ));
        for (i, (name, ns)) in baseline.iter().enumerate() {
            let comma = if i + 1 < baseline.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {ns}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

fn fig4_scenarios() -> Vec<Scenario> {
    [1.0, 3.0, 5.0, 8.0, 14.0, 20.0]
        .iter()
        .map(|&r| block(r, 0.5))
        .collect()
}

fn sweep_sum(model: &dyn ThermalModel, scenarios: &[Scenario]) -> f64 {
    scenarios
        .iter()
        .map(|s| model.max_delta_t(s).expect("solvable").as_kelvin())
        .sum()
}

/// The parsed command line: where to write the recording, and which
/// committed recording (if any) `--check` compares against.
#[derive(Debug, PartialEq, Eq)]
struct Cli {
    out: PathBuf,
    check: Option<PathBuf>,
}

/// Parses `[PATH] [--check [COMMITTED]]` against the recordings in `root`.
/// The `--check` operand is never taken as the output path, so
/// `--check BENCH_5.json` alone does not clobber the recording it checks
/// against. A bare `--check` (last, or followed by another flag) resolves
/// to the newest `BENCH_N.json` in `root` that is not the output file.
fn parse_args(args: &[String], root: &Path) -> Result<Cli, String> {
    let mut out = None;
    let mut check = None;
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if arg == "--check" {
            check = Some(
                iter.next_if(|next| !next.starts_with("--"))
                    .map(PathBuf::from),
            );
        } else if arg.starts_with("--") {
            return Err(format!("unknown option {arg}"));
        } else if out.is_none() {
            out = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected extra argument {arg}"));
        }
    }
    let out = out.unwrap_or_else(|| {
        let newest = newest_bench_json(root, None).map_or(0, |(n, _)| n);
        PathBuf::from(format!("BENCH_{}.json", newest + 1))
    });
    let same_file = |a: &Path, b: &Path| {
        a == b || matches!((a.canonicalize(), b.canonicalize()), (Ok(x), Ok(y)) if x == y)
    };
    let check = match check {
        None => None,
        Some(Some(path)) if same_file(&path, &out) => {
            return Err(format!(
                "--check target and output path are the same file ({}) — refusing",
                path.display()
            ));
        }
        Some(Some(path)) => Some(path),
        Some(None) => {
            let (n, newest) = newest_bench_json(root, None)
                .ok_or_else(|| format!("bare --check: no BENCH_N.json in {}", root.display()))?;
            let newest = if same_file(&newest, &out) {
                newest_bench_json(root, Some(n))
                    .ok_or("bare --check: no committed recording besides the output")?
                    .1
            } else {
                newest
            };
            Some(newest)
        }
    };
    Ok(Cli { out, check })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli {
        out: path,
        check: check_against,
    } = parse_args(&args, &repo_root()).unwrap_or_else(|e| {
        eprintln!("bench_json: {e}\nusage: bench_json [PATH] [--check [COMMITTED]]");
        std::process::exit(2);
    });
    // The baseline is the newest recording *before* this one, so
    // re-recording an existing BENCH_N.json keeps its baseline.
    let pr = bench_number(&path);
    let (baseline_pr, baseline_path) = newest_bench_json(&repo_root(), pr)
        .expect("an earlier BENCH_N.json at the repository root");
    let baseline = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline_path.display()));
    let baseline = section_integers(&baseline, "benches", Some("median_ns"));
    let mut sampler = Sampler {
        results: Vec::new(),
    };

    // fig4_radius_sweep: the 6-radius sweep per model, matching the
    // criterion bench of the same name.
    let scenarios = fig4_scenarios();
    let fem = FemReference::new().with_resolution(FemResolution::coarse());
    sampler.bench("fig4_radius_sweep/fem_coarse", || {
        sweep_sum(&fem, &scenarios)
    });
    let b100 = ModelB::paper_b100();
    sampler.bench("fig4_radius_sweep/model_b_100", || {
        sweep_sum(&b100, &scenarios)
    });

    // table1_segments: per-solve cost at deep segment counts.
    let table1 = block(5.0, 1.0);
    for (name, model) in [
        ("table1_segments/B(500)", ModelB::paper_b500()),
        ("table1_segments/B(1000)", ModelB::paper_b1000()),
    ] {
        sampler.bench(name, || model.max_delta_t(&table1).expect("solvable"));
    }

    // ablation_fem_precond at the coarse mesh: one solve per path.
    let fem_problem = fem.build_problem(&scenarios[2]).expect("valid scenario");
    for (name, solver) in [
        (
            "ablation_fem_precond/multigrid/coarse",
            FemSolver::Multigrid,
        ),
        (
            "ablation_fem_precond/direct_banded/coarse",
            FemSolver::DirectBanded,
        ),
    ] {
        let mut problem = fem_problem.clone();
        problem.set_solver(solver);
        sampler.bench(name, || problem.solve().expect("solvable"));
    }

    // Multigrid setup amortization on the 32 k-cell Cartesian box, on the
    // one smoothed-aggregation hierarchy: full build, the flat
    // contraction-list numeric refresh, and one V-cycle (the
    // per-PCG-iteration cost). The `_sa`/`sa` names are new: the retired
    // `build`/`vcycle/jacobi` rows timed the plain-aggregation hierarchy,
    // so `--check` must not compare the two configurations.
    let a1 = mg_box_matrix(1.0);
    let a2 = mg_box_matrix(3.0);
    sampler.bench("mg_hierarchy/build_sa/box32k", || {
        MultigridHierarchy::build(&a1).expect("coarsens")
    });
    let mut hierarchy = MultigridHierarchy::build(&a1).expect("coarsens");
    sampler.bench("mg_hierarchy/refresh_flat/box32k", || {
        hierarchy.refresh(&a2).expect("same pattern");
    });
    let n = 32 * 32 * 32;
    let r: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut z = vec![0.0; n];
    let mg = MultigridPreconditioner::new(&a1).expect("coarsens");
    sampler.bench("mg_vcycle/sa/box32k", || mg.apply(&r, &mut z));

    // Hierarchy reuse end to end: a 3-point radius sweep on the 3-D
    // Cartesian reference (the workload where multigrid setup is a real
    // fraction of the solve). "rebuild" constructs a fresh reference per
    // sweep (every point re-aggregates); "reuse" shares one reference, so
    // later points only refresh the pooled hierarchy.
    use ttsv::validate::fem_adapter::CartesianReference;
    let mg_points: Vec<Scenario> = [6.0, 9.0, 12.0].iter().map(|&r| block(r, 2.0)).collect();
    let cart = || {
        CartesianReference::new()
            .with_lateral_cells(16)
            .with_resolution(FemResolution::coarse())
    };
    sampler.bench("fem_mg_sweep/rebuild", || {
        let cold = cart();
        sweep_sum(&cold, &mg_points)
    });
    let warm = cart();
    sampler.bench("fem_mg_sweep/reuse", || sweep_sum(&warm, &mg_points));

    // The Model B hotspot kernel on the servebench cold geometry (tile
    // (0,0) of a `cold_register_32` registration: B(1000) with 10
    // first-plane segments, 4,021 ladder nodes): `factorize` prices the
    // ladder factorization, the unit-response pass and the kernel build;
    // `hotspot_1024` the 1,024 tiles' `max_delta_t` against one kernel.
    {
        use ttsv::serve::client::trace_register_body;
        use ttsv::serve::protocol::parse_register;
        let spec = parse_register(trace_register_body(32, 1).as_bytes()).expect("valid body");
        let cell = spec.plan.tile_cell(0, 0).expect("valid tile");
        sampler.bench("model_b/factorize/b10_1000", || {
            spec.model.factorize(&cell.scenario).expect("solvable")
        });
        let kernel = spec.model.factorize(&cell.scenario).expect("solvable");
        let nx = spec.plan.nx();
        let tiles: Vec<Vec<Power>> = (0..spec.plan.tiles())
            .map(|t| spec.plan.tile_cell_powers(t % nx, t / nx))
            .collect();
        sampler.bench("model_b/hotspot_1024/b10_1000", || {
            tiles
                .iter()
                .map(|p| kernel.max_delta_t(p).expect("valid powers").as_kelvin())
                .sum::<f64>()
        });

        // The registration's two decimal layers on the same 63 KB body:
        // decoding its 3,072 watts into the floorplan, and rendering the
        // 32×32 report its evaluation answers (1,024 shortest round-trip
        // floats).
        let body = trace_register_body(32, 1);
        sampler.bench("serve/parse_register/grid32", || {
            parse_register(body.as_bytes()).expect("valid body")
        });
        // The registration's evaluation at servebench's cold shape: a
        // fresh engine per sample, so the one factorization and the 1,024
        // kernel calls are both paid, with the density grouping and the
        // report.
        sampler.bench("chip/evaluate_live/grid32", || {
            ChipEngine::new()
                .evaluate_live(spec.plan.clone(), &spec.model)
                .expect("solvable")
        });
        let live = ChipEngine::new()
            .evaluate_live(spec.plan, &spec.model)
            .expect("solvable");
        sampler.bench("chip/report_to_json/grid32", || live.report().to_json());
    }

    // The floorplan engine on the 32×32 §IV-E maps: the hotspot map
    // dedups 1024 tiles to 3 Model B solves; the all-distinct gradient
    // map prices the per-tile path itself, and `factor_shared` prices
    // the factored path (one ladder factorization and kernel build +
    // 1024 kernel evaluations); `full64/factored` is the 64×64 gradient
    // map through the factored path: one factorization, 4,096 kernel
    // calls and the report. Every row constructs a fresh engine per
    // sample; the engine keeps no kernel between calls anyway.
    let hotspot = hotspot_floorplan(32);
    let gradient = gradient_floorplan(32);
    sampler.bench("floorplan_chip/hotspot32/model_b100", || {
        ChipEngine::new()
            .evaluate(&hotspot, &b100)
            .expect("solvable")
    });
    sampler.bench("floorplan_chip/gradient32/model_b100", || {
        ChipEngine::new()
            .evaluate(&gradient, &b100)
            .expect("solvable")
    });
    sampler.bench("floorplan_chip/gradient32/factor_shared", || {
        ChipEngine::new()
            .evaluate_factored(&gradient, &b100)
            .expect("solvable")
    });
    // Model A on the same all-distinct map, on its one-segment-per-plane
    // ladder: one kernel, then 1024 kernel calls.
    let model_a = ModelA::with_coefficients(CaseStudy::paper_fitting());
    sampler.bench("floorplan_chip/gradient32/model_a", || {
        ChipEngine::new()
            .evaluate_factored(&gradient, &model_a)
            .expect("solvable")
    });
    let gradient64 = gradient_floorplan(64);
    sampler.bench("floorplan_chip/full64/factored", || {
        ChipEngine::new()
            .evaluate_factored(&gradient64, &b100)
            .expect("solvable")
    });

    // The bounded sweep runner end to end (fig4-quick shape: 4 models
    // including the FEM reference, warm starts shared across workers).
    let points: Vec<(f64, Scenario)> = [1.0, 3.0, 5.0, 8.0, 14.0, 20.0]
        .iter()
        .map(|&r| (r, block(r, 0.5)))
        .collect();
    let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
    let one_d = OneDModel::new();
    sampler.bench("sweep_runner/fig4_quick", || {
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![&a, &b100, &one_d, &fem];
        run_sweep(&points, &models).expect("sweep succeeds")
    });

    // Thermal-as-a-service end to end: one `ttsv-serve` process-local
    // server on an ephemeral loopback port, timed through a keep-alive
    // HTTP client. `cold_session` registers a never-seen chip
    // configuration per sample — distinct power maps AND a distinct via
    // density (a fresh ladder factorization, as every registration
    // makes, plus one kernel call per tile); `warm_delta` patches two tiles of
    // a live session with power levels from a small cycle, re-solving
    // them against its cached kernel, answered with the full report
    // (`?full=1`, the original wire format, so the row stays comparable
    // to its baseline);
    // `warm_delta_response` is the same update answered with the
    // default delta response (changed tiles + summary stats only);
    // `sustained_32req` prices a 32-request warm burst on one
    // connection (requests/sec ≈ 32e9 / median_ns); `sustained_fanout`
    // prices the same 32 updates arriving concurrently on 32 keep-alive
    // connections through the multiplexed event loops;
    // `warm_delta_response/grid{12,32,64}` repeat the delta-response
    // update on sessions of growing size — a warm update costs what it
    // changes, so the curve stays flat.
    {
        use ttsv::serve::client::{trace_power_body, Client};
        use ttsv::serve::protocol::render_register_body;
        use ttsv::serve::server::{Server, ServerConfig};
        const GRID: usize = 12;
        const FANOUT: usize = 32;
        // A never-seen chip configuration per id: per-session power scale
        // and via density, solved with the
        // paper's deep B(1000) model — the same model warm deltas then
        // reuse, so the cold/warm gap prices the caching, not the model.
        let register_grid = |grid: usize, session: usize| -> String {
            let tiles = (grid * grid) as f64;
            let scale = 1.0 + session as f64 * 0.01;
            let planes: Vec<Vec<f64>> = [70.0, 7.0, 7.0]
                .iter()
                .map(|&total| {
                    (0..grid * grid)
                        .map(|i| scale * (total / tiles) * (0.5 + i as f64 / tiles))
                        .collect()
                })
                .collect();
            let density = 0.004 + session as f64 * 1e-5;
            let body = render_register_body(grid, grid, &planes, density);
            format!("{},\"segments\":[10,1000]}}", &body[..body.len() - 1])
        };
        let register_body = |session: usize| register_grid(GRID, session);
        let config = ServerConfig::default()
            .with_workers(2)
            .with_max_sessions(128)
            .with_max_connections(2 * FANOUT);
        let server = Server::start("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        let mut session = 0usize;
        sampler.bench("serve/cold_session", || {
            session += 1;
            let (status, body) = client
                .request("POST", "/sessions", &register_body(session))
                .expect("register");
            assert_eq!(status, 201, "{body}");
            body
        });
        // The same cold registration at servebench's 64×64 chip size
        // (4,096 all-distinct tiles, one factorization): the schema's
        // warm/cold ratio is taken here.
        let mut session64 = 4000usize;
        sampler.bench("serve/cold_session/grid64", || {
            session64 += 1;
            let (status, body) = client
                .request("POST", "/sessions", &register_grid(64, session64))
                .expect("register");
            assert_eq!(status, 201, "{body}");
            body
        });
        let register = |client: &mut Client, body: &str| -> u64 {
            let (status, body) = client.request("POST", "/sessions", body).expect("register");
            assert_eq!(status, 201, "{body}");
            body.strip_prefix("{\"session\":")
                .and_then(|rest| rest.split(',').next())
                .and_then(|id| id.parse().ok())
                .expect("session id in register response")
        };
        // Durable sessions: the same warm delta against a server
        // that journals every mutation to a write-ahead log under a
        // fresh temp state dir, at the default `interval:100` fsync
        // policy. Its samples interleave with `serve/warm_delta_response`
        // (one of each per round, alternating which goes first), so the
        // pair's gap prices the journal append and not host drift
        // between two rows sampled minutes apart; the crate's schema test
        // pins the journaled row to < 2× the unjournaled one same-run.
        use ttsv::serve::persist::PersistConfig;
        let state_dir =
            std::env::temp_dir().join(format!("ttsv-bench-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let journaled_server = Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(2)
                .with_persist(PersistConfig::new(&state_dir)),
        )
        .expect("bind journaled server");
        let journaled_addr = journaled_server.addr().to_string();
        let mut journaled = Client::connect(&journaled_addr).expect("connect journaled client");
        let journaled_id = register(&mut journaled, &register_body(2000));
        let journaled_path = format!("/sessions/{journaled_id}/power");
        let mut journaled_round = 0usize;

        let warm_id = register(&mut client, &register_body(session + 1));
        let warm_session = session + 1;
        // `?full=1` keeps warm_delta and sustained_32req on the PR-6
        // wire format (full report per update) so their baselines still
        // price the same bytes; warm_delta_response drops the query to
        // measure the default delta response on the identical update.
        let full_path = format!("/sessions/{warm_id}/power?full=1");
        let delta_path = format!("/sessions/{warm_id}/power");
        let mut round = 0usize;
        let mut warm_post = |client: &mut Client, path: &str| {
            round += 1;
            let (status, body) = client
                .request("POST", path, &trace_power_body(GRID, warm_session, round))
                .expect("power update");
            assert_eq!(status, 200, "{body}");
            body
        };
        sampler.bench("serve/warm_delta", || warm_post(&mut client, &full_path));
        sampler.bench_pair(
            ("serve/warm_delta_response", || {
                warm_post(&mut client, &delta_path)
            }),
            ("serve/warm_delta_journaled", || {
                journaled_round += 1;
                let (status, body) = journaled
                    .request(
                        "POST",
                        &journaled_path,
                        &trace_power_body(GRID, 2000, journaled_round),
                    )
                    .expect("journaled power update");
                assert_eq!(status, 200, "{body}");
                body
            }),
        );
        drop(journaled);
        journaled_server.shutdown();
        let _ = std::fs::remove_dir_all(&state_dir);
        sampler.bench("serve/sustained_32req", || {
            for _ in 0..31 {
                warm_post(&mut client, &full_path);
            }
            warm_post(&mut client, &full_path)
        });
        for grid in [12, 32, 64] {
            let session = 3000 + grid;
            let id = register(&mut client, &register_grid(grid, session));
            let path = format!("/sessions/{id}/power");
            let mut round = 0usize;
            sampler.bench(&format!("serve/warm_delta_response/grid{grid}"), || {
                round += 1;
                let (status, body) = client
                    .request("POST", &path, &trace_power_body(grid, session, round))
                    .expect("power update");
                assert_eq!(status, 200, "{body}");
                body
            });
        }
        // 32 live sessions on 32 keep-alive connections; each sample
        // fires one delta per connection concurrently, so the row prices
        // the event loops' ability to overlap requests, not one socket's
        // round-trip pipeline.
        let mut fan: Vec<(u64, Client)> = (0..FANOUT)
            .map(|i| {
                let mut c = Client::connect(&addr).expect("connect fanout client");
                (register(&mut c, &register_body(1000 + i)), c)
            })
            .collect();
        let mut fan_round = 0usize;
        sampler.bench("serve/sustained_fanout", || {
            fan_round += 1;
            let round = fan_round;
            let mut last = String::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = fan
                    .iter_mut()
                    .enumerate()
                    .map(|(i, (id, client))| {
                        scope.spawn(move || {
                            let path = format!("/sessions/{id}/power");
                            let body = trace_power_body(GRID, 1000 + i, round);
                            let (status, body) =
                                client.request("POST", &path, &body).expect("fanout update");
                            assert_eq!(status, 200, "{body}");
                            body
                        })
                    })
                    .collect();
                for handle in handles {
                    last = handle.join().expect("fanout thread");
                }
            });
            last
        });

        // The idle-connection row: park a keep-alive connection past the
        // event loops' 200 µs spin window (untimed, via bench_prepared),
        // then time one /healthz round-trip on it. The parked loop blocks
        // in poll(2) and the socket itself wakes it, so the row sits in
        // the microseconds rather than on a millisecond tick.
        let park = Duration::from_millis(1);
        let mut parked = Client::connect(&addr).expect("connect parked client");
        sampler.bench_prepared(
            "serve/parked_request",
            || std::thread::sleep(park),
            || {
                let (status, body) = parked.request("GET", "/healthz", "").expect("healthz");
                assert_eq!(status, 200, "{body}");
                body
            },
        );
        drop(parked);
        server.shutdown();

        // §IV-E's per-tile via densities: a 32×32 registration with 1,024
        // distinct densities (1,024 kernels), never seen before in each
        // sample, and a two-tile delta update on such a session. Both run
        // on a dedicated server that first holds one ordinary session, so
        // the dense registration meets the default kernel budget of
        // 1,024: it evicts the least-recently-used sessions until it fits,
        // and its updates call its held kernels.
        let register_dense = |session: usize| -> String {
            let body = register_grid(32, session);
            let (head, rest) = body.split_once("\"via_density\":").expect("via_density");
            let (_, tail) = rest.split_once(',').expect("a field after via_density");
            let densities: Vec<String> = (0..32 * 32)
                .map(|i| format!("{}", 0.004 + i as f64 * 1e-6 + session as f64 * 1e-9))
                .collect();
            format!("{head}\"via_density\":[{}],{tail}", densities.join(","))
        };
        let dense_server = Server::start("127.0.0.1:0", ServerConfig::default().with_workers(2))
            .expect("bind dense server");
        let mut dense = Client::connect(&dense_server.addr().to_string()).expect("connect");
        register(&mut dense, &register_body(5000));
        let mut dense_session = 5000usize;
        sampler.bench("serve/cold_session/grid32_density", || {
            dense_session += 1;
            register(&mut dense, &register_dense(dense_session))
        });
        let dense_id = register(&mut dense, &register_dense(dense_session + 1));
        let dense_path = format!("/sessions/{dense_id}/power");
        let mut dense_round = 0usize;
        sampler.bench("serve/warm_delta_response/grid32_density", || {
            dense_round += 1;
            let (status, body) = dense
                .request(
                    "POST",
                    &dense_path,
                    &trace_power_body(32, 5000, dense_round),
                )
                .expect("power update");
            assert_eq!(status, 200, "{body}");
            body
        });
        drop(dense);
        dense_server.shutdown();

        // The `warm_delta_response/grid64` update while two more
        // connections loop dense 32×32 registrations (1,024 kernels, a few
        // hundred ms of factorization each) on both pool workers: what a
        // heavy registration costs a warm update on another session. Each
        // lane deletes what it registers, so the kernel budget always
        // holds the timed session and no session is ever evicted. Sampling
        // starts once both lanes are on their second registration; a lane
        // stops after 64, so a failed sample cannot hang the run.
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let busy_server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                matrix_cache_cap: 2 * 1024 + 1,
                ..ServerConfig::default().with_workers(2)
            },
        )
        .expect("bind busy server");
        let busy_addr = busy_server.addr().to_string();
        let mut timed = Client::connect(&busy_addr).expect("connect");
        let busy_session = 3064;
        let busy_id = register(&mut timed, &register_grid(64, busy_session));
        let busy_path = format!("/sessions/{busy_id}/power");
        let stop = AtomicBool::new(false);
        let registered = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for lane in 0..2 {
                let (stop, registered) = (&stop, &registered);
                let (addr, register_dense) = (&busy_addr, &register_dense);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect registration lane");
                    for n in 0..64 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let id = register(&mut client, &register_dense(7000 + 2 * n + lane));
                        registered.fetch_add(1, Ordering::Relaxed);
                        let (status, body) = client
                            .request("DELETE", &format!("/sessions/{id}"), "")
                            .expect("delete");
                        assert_eq!(status, 204, "{body}");
                    }
                });
            }
            let deadline = Instant::now() + Duration::from_secs(60);
            while registered.load(Ordering::Relaxed) < 2 {
                assert!(Instant::now() < deadline, "the registration lanes stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
            let mut round = 0usize;
            sampler.bench(
                "serve/warm_delta_response/grid64_under_registrations",
                || {
                    round += 1;
                    let (status, body) = timed
                        .request(
                            "POST",
                            &busy_path,
                            &trace_power_body(64, busy_session, round),
                        )
                        .expect("power update");
                    assert_eq!(status, 200, "{body}");
                    body
                },
            );
            stop.store(true, Ordering::Relaxed);
        });
        drop(timed);
        busy_server.shutdown();
    }

    let json = sampler.to_json(pr.unwrap_or(baseline_pr + 1), baseline_pr, &baseline);
    std::fs::write(&path, &json).expect("write BENCH json");
    println!("wrote {}", path.display());

    if let Some(committed_path) = check_against {
        let committed = std::fs::read_to_string(&committed_path)
            .unwrap_or_else(|e| panic!("read committed {}: {e}", committed_path.display()));
        let committed_path = committed_path.display();
        let committed = section_integers(&committed, "benches", Some("median_ns"));
        let fresh: Vec<(String, u128)> = sampler
            .results
            .iter()
            .map(|(name, median, _)| (name.clone(), *median))
            .collect();
        let violations = same_run_violations(&fresh);
        let mut regressions = Vec::new();
        for (name, fresh, _) in &sampler.results {
            if let Some((_, recorded)) = committed.iter().find(|(k, _)| k == name) {
                if *fresh * CHECK_HEADROOM_DEN > recorded * CHECK_HEADROOM_NUM {
                    regressions.push(format!(
                        "{name}: {fresh} ns vs committed {recorded} ns (> 1.5×)"
                    ));
                }
            }
        }
        if regressions.is_empty() && violations.is_empty() {
            println!(
                "--check: every same-run invariant holds, and no committed-baseline bench \
                 regressed past 1.5× of {committed_path}"
            );
        } else {
            eprintln!("--check FAILED:");
            for v in &violations {
                eprintln!("  same-run: {v}");
            }
            for r in &regressions {
                eprintln!("  against {committed_path}: {r}");
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    /// A scratch directory holding empty `BENCH_3.json` and `BENCH_7.json`.
    fn recordings() -> PathBuf {
        let root = std::env::temp_dir().join(format!("bench-json-args-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        for n in [3, 7] {
            std::fs::write(root.join(format!("BENCH_{n}.json")), "{}").unwrap();
        }
        root
    }

    #[test]
    fn check_operand_and_bare_check_resolve_to_committed_recordings() {
        let root = recordings();
        let parse = |list: &[&str]| parse_args(&args(list), &root);

        // No flag: default output one past the newest, no check.
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.out, PathBuf::from("BENCH_8.json"));
        assert_eq!(cli.check, None);

        // A bare trailing --check means the newest committed recording,
        // not "skip the check".
        let cli = parse(&["/tmp/BENCH_ci.json", "--check"]).unwrap();
        assert_eq!(cli.out, PathBuf::from("/tmp/BENCH_ci.json"));
        assert_eq!(cli.check, Some(root.join("BENCH_7.json")));
        assert_eq!(
            parse(&["--check"]).unwrap().check,
            Some(root.join("BENCH_7.json"))
        );

        // The operand is the check target, never the output path.
        let cli = parse(&["--check", "BENCH_3.json"]).unwrap();
        assert_eq!(cli.out, PathBuf::from("BENCH_8.json"));
        assert_eq!(cli.check, Some(PathBuf::from("BENCH_3.json")));

        // Re-recording the newest file: a bare check skips the output.
        let newest = root.join("BENCH_7.json");
        let cli = parse(&[newest.to_str().unwrap(), "--check"]).unwrap();
        assert_eq!(cli.check, Some(root.join("BENCH_3.json")));

        // Checking a file against itself, unknown flags, and a second
        // positional are errors, not silent passes.
        assert!(parse(&[
            newest.to_str().unwrap(),
            "--check",
            newest.to_str().unwrap()
        ])
        .is_err());
        assert!(parse(&["--check", "--bogus"]).is_err());
        assert!(parse(&["a.json", "b.json"]).is_err());

        std::fs::remove_dir_all(&root).unwrap();
    }
}
