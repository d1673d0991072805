//! The full-chip result: `ΔT` map plus hotspot statistics, serializable
//! for downstream serving.

use serde::{Deserialize, Serialize};

/// A full-chip evaluation result: per-tile `ΔT` (kelvin above the heat
/// sink) with hotspot statistics. Serde-serializable; [`ChipReport::to_json`]
/// renders it for downstream consumers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipReport {
    /// Display name of the model that produced the map.
    pub model: String,
    /// Grid width (tiles along x).
    pub nx: usize,
    /// Grid height (tiles along y).
    pub ny: usize,
    /// Row-major per-tile `ΔT_max` in kelvin (index `iy * nx + ix`).
    pub delta_t: Vec<f64>,
    /// Hottest tile's `ΔT` (K).
    pub max_delta_t: f64,
    /// Area-weighted mean `ΔT` over the tiles (K); tiles have equal area.
    pub mean_delta_t: f64,
    /// 99th-percentile tile `ΔT` (K).
    pub p99_delta_t: f64,
    /// x-index of the hottest tile (first hit on ties, row-major order).
    pub argmax_ix: usize,
    /// y-index of the hottest tile.
    pub argmax_iy: usize,
    /// Total vias on the chip (fractional, per the density idealization).
    pub total_vias: f64,
    /// Distinct unit cells in the plan — tiles with bit-identical via
    /// density and per-plane powers count once, whether this evaluation
    /// solved them or read them from the engine's caches (`≤ tiles`;
    /// equality means no two tiles share a cell).
    pub distinct_cells: usize,
    /// Total tile count, `nx · ny`.
    pub tiles: usize,
}

impl ChipReport {
    /// Assembles a report from the scattered per-tile `ΔT` values.
    ///
    /// # Panics
    ///
    /// Panics if `delta_t.len() != nx * ny` or the grid is empty (the
    /// engine always satisfies both).
    #[must_use]
    pub(crate) fn from_tiles(
        model: String,
        nx: usize,
        ny: usize,
        delta_t: Vec<f64>,
        distinct_cells: usize,
        total_vias: f64,
    ) -> Self {
        let tiles = nx * ny;
        assert!(tiles > 0, "a chip report needs at least one tile");
        assert_eq!(delta_t.len(), tiles, "ΔT map must cover every tile");
        let mut report = Self {
            model,
            nx,
            ny,
            max_delta_t: f64::NAN,
            mean_delta_t: f64::NAN,
            p99_delta_t: f64::NAN,
            argmax_ix: 0,
            argmax_iy: 0,
            total_vias,
            distinct_cells,
            tiles,
            delta_t,
        };
        report.summarize(true);
        report
    }

    /// Writes new `ΔT` values into `tiles` (row-major indices) in place
    /// and re-derives the summary statistics with the same pass
    /// [`ChipReport::from_tiles`] runs, so the result is bit-identical to
    /// a report assembled from scratch. Returns the indices whose value
    /// changed bitwise, in the order of `tiles`.
    ///
    /// The p99 selection is skipped when every changed tile stays on the
    /// same strict side of the current p99 (in `total_cmp` order): the
    /// counts of values below and equal to it are then unchanged, so it
    /// still sits at the nearest rank.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the map.
    pub(crate) fn patch(
        &mut self,
        tiles: &[usize],
        values: &[f64],
        distinct_cells: usize,
    ) -> Vec<usize> {
        let p99 = self.p99_delta_t;
        let side = |v: f64| v.total_cmp(&p99);
        let mut p99_holds = true;
        let mut changed = Vec::new();
        for (&t, &v) in tiles.iter().zip(values) {
            let old = self.delta_t[t];
            if old.to_bits() != v.to_bits() {
                p99_holds &= side(old) == side(v) && side(v).is_ne();
                self.delta_t[t] = v;
                changed.push(t);
            }
        }
        if !changed.is_empty() {
            self.summarize(!p99_holds);
        }
        self.distinct_cells = distinct_cells;
        changed
    }

    /// Max (first hit in row-major order), argmax, mean (row-major
    /// summation) and, when `select_p99`, the nearest-rank p99 of the `ΔT`
    /// map.
    fn summarize(&mut self, select_p99: bool) {
        let mut max_delta_t = f64::NEG_INFINITY;
        let mut argmax = 0;
        let mut sum = 0.0;
        for (i, &dt) in self.delta_t.iter().enumerate() {
            sum += dt;
            if dt > max_delta_t {
                max_delta_t = dt;
                argmax = i;
            }
        }
        self.max_delta_t = max_delta_t;
        self.mean_delta_t = sum / self.tiles as f64;
        if select_p99 {
            self.p99_delta_t = percentile(&mut self.delta_t.clone(), 0.99);
        }
        self.argmax_ix = argmax % self.nx;
        self.argmax_iy = argmax / self.nx;
    }

    /// The `ΔT` of tile `(ix, iy)` in kelvin.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    #[must_use]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.nx && iy < self.ny,
            "tile ({ix}, {iy}) outside the {}×{} report",
            self.nx,
            self.ny
        );
        self.delta_t[iy * self.nx + ix]
    }

    /// Renders the report as a JSON object (compact, one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// The `q`-quantile by the nearest-rank method, via `O(n)` selection
/// (`select_nth_unstable_by`) instead of a full sort — `values` is used
/// as selection scratch and left partially reordered.
fn percentile(values: &mut [f64], q: f64) -> f64 {
    debug_assert!(!values.is_empty());
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    *values.select_nth_unstable_by(rank - 1, f64::total_cmp).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_computed_from_the_map() {
        let report =
            ChipReport::from_tiles("test".into(), 2, 2, vec![1.0, 4.0, 2.0, 3.0], 3, 100.0);
        assert_eq!(report.max_delta_t, 4.0);
        assert_eq!((report.argmax_ix, report.argmax_iy), (1, 0));
        assert_eq!(report.mean_delta_t, 2.5);
        assert_eq!(report.p99_delta_t, 4.0);
        assert_eq!(report.get(0, 1), 2.0);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        // Selection must preserve the nearest-rank semantics the sorted
        // implementation had — including on unsorted input.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut values.clone(), 0.99), 99.0);
        assert_eq!(percentile(&mut values.clone(), 0.5), 50.0);
        assert_eq!(percentile(&mut values.clone(), 1.0), 100.0);
        assert_eq!(percentile(&mut [7.0], 0.99), 7.0);
        values.reverse();
        assert_eq!(percentile(&mut values.clone(), 0.99), 99.0);
        assert_eq!(percentile(&mut values, 0.5), 50.0);
    }

    #[test]
    fn json_round_trip_preserves_the_report() {
        let report = ChipReport::from_tiles("Model A".into(), 2, 1, vec![1.5, 2.5], 2, 42.0);
        let json = report.to_json();
        assert!(json.contains("\"model\":\"Model A\""), "{json}");
        assert!(json.contains("\"delta_t\":[1.5,2.5]"), "{json}");
        assert!(json.contains("\"tiles\":2"), "{json}");
        // The serde stand-in's Content tree also round-trips the struct.
        let content = serde::Serialize::to_content(&report);
        let back: ChipReport = serde::Deserialize::from_content(&content).unwrap();
        assert_eq!(back, report);
    }
}
