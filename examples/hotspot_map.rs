//! Full-chip hotspot analysis with the floorplan engine.
//!
//! The paper's §IV-E case study assumes uniform power, so the whole chip
//! is one unit cell. Real processors have hotspots: this example puts a
//! 4×4-tile hotspot (8× the background power density) on the µP plane of
//! the DRAM-µP stack, evaluates the full 16×16 map through Model B's
//! factored path (one hotspot kernel per via density, one kernel call per
//! tile), and prints the ΔT heat map, the hotspot statistics, and the
//! JSON report a serving layer would consume.
//!
//! ```text
//! cargo run --release --example hotspot_map
//! ```

use ttsv::core::full_chip::CaseStudy;
use ttsv::prelude::*;

fn main() -> Result<(), CoreError> {
    let cs = CaseStudy::paper();
    let n = 16;

    // µP plane: 8× hotspot in the center, uniform elsewhere; DRAM planes
    // stay uniform. Tile weights are normalized so each plane still
    // dissipates its §IV-E total (70 W + 7 W + 7 W).
    let hotspot = |ix: usize, iy: usize| -> f64 {
        let c = (n as f64 - 1.0) / 2.0;
        if (ix as f64 - c).abs() < 2.0 && (iy as f64 - c).abs() < 2.0 {
            8.0
        } else {
            1.0
        }
    };
    let weight_total: f64 = (0..n)
        .flat_map(|iy| (0..n).map(move |ix| hotspot(ix, iy)))
        .sum();
    let up_map = PowerMap::from_fn(n, n, |ix, iy| {
        cs.plane_powers[0] * (hotspot(ix, iy) / weight_total)
    })?;
    let dram_map = |total: Power| PowerMap::uniform(n, n, total);
    let plan = Floorplan::new(
        &cs,
        vec![
            up_map,
            dram_map(cs.plane_powers[1])?,
            dram_map(cs.plane_powers[2])?,
        ],
        ViaDensityMap::uniform(n, n, cs.density)?,
    )?;

    let model = ModelB::paper_b100();
    let engine = ChipEngine::new();
    let report = engine.evaluate_factored(&plan, &model)?;

    println!(
        "{} on a {}×{} floorplan: {} tiles, {} kernel factorization(s), distinct via densities: {}\n",
        report.model,
        report.nx,
        report.ny,
        report.tiles,
        engine.factorizations(),
        report.distinct_cells
    );

    // ASCII heat map, one glyph per tile.
    let lo = report.delta_t.iter().copied().fold(f64::INFINITY, f64::min);
    let glyph = |dt: f64| -> char {
        let ramp = [' ', '.', ':', '+', '#', '@'];
        let t = (dt - lo) / (report.max_delta_t - lo).max(1e-12);
        ramp[((t * (ramp.len() - 1) as f64).round() as usize).min(ramp.len() - 1)]
    };
    for iy in 0..report.ny {
        let row: String = (0..report.nx).map(|ix| glyph(report.get(ix, iy))).collect();
        println!("  |{row}|");
    }

    println!(
        "\nhotspot ΔT {:.2} °C at tile ({}, {}), p99 {:.2} °C, mean {:.2} °C over ~{:.0} vias",
        report.max_delta_t,
        report.argmax_ix,
        report.argmax_iy,
        report.p99_delta_t,
        report.mean_delta_t,
        report.total_vias
    );

    // The serving surface: the same report as JSON (truncated here).
    let json = report.to_json();
    println!("\nJSON report ({} bytes): {}...", json.len(), &json[..120]);

    // The uniform-map limit reproduces the single-cell case study.
    let uniform = ChipEngine::new().evaluate_factored(&Floorplan::uniform(&cs, n, n)?, &model)?;
    let unit_cell = model.max_delta_t(&cs.unit_cell_scenario()?)?.as_kelvin();
    println!(
        "\nuniform-map check: floorplan max ΔT {:.6} °C vs unit cell {unit_cell:.6} °C",
        uniform.max_delta_t
    );
    assert!((uniform.max_delta_t - unit_cell).abs() < 1e-7 * unit_cell);
    Ok(())
}
