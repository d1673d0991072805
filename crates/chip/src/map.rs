//! Tile-grid maps: per-plane power and per-tile via density.
//!
//! Both maps share the same row-major `nx × ny` layout (index
//! `iy * nx + ix`, `ix` across the chip's x-axis). Constructors validate
//! every entry up front with typed [`CoreError::InvalidFloorplan`]s, so a
//! floorplan built from validated maps can only fail on geometry (a via
//! that does not fit its cell), never on map contents.

use serde::{Deserialize, Serialize};
use ttsv_core::CoreError;
use ttsv_units::Power;

fn check_grid(kind: &str, nx: usize, ny: usize, len: usize) -> Result<(), CoreError> {
    if nx == 0 || ny == 0 {
        return Err(CoreError::InvalidFloorplan {
            reason: format!("{kind} needs a positive grid, got {nx}×{ny}"),
        });
    }
    if len != nx * ny {
        return Err(CoreError::InvalidFloorplan {
            reason: format!("{kind} holds {len} tiles for an {nx}×{ny} grid"),
        });
    }
    Ok(())
}

/// One plane's heat map: total dissipated power per tile, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMap {
    nx: usize,
    ny: usize,
    tiles: Vec<Power>,
}

impl PowerMap {
    /// Validates and wraps a row-major tile grid of powers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for an empty grid, a length
    /// mismatch, or any negative / non-finite entry.
    pub fn new(nx: usize, ny: usize, tiles: Vec<Power>) -> Result<Self, CoreError> {
        check_grid("power map", nx, ny, tiles.len())?;
        tiles.iter().try_for_each(|&p| Self::check_power(p))?;
        Ok(Self { nx, ny, tiles })
    }

    /// Validates one tile power the way [`PowerMap::new`] validates every
    /// entry — the shared check for sparse tile updates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for a negative or
    /// non-finite power.
    pub fn check_power(p: Power) -> Result<(), CoreError> {
        if !p.is_finite() || p.as_watts() < 0.0 {
            return Err(CoreError::InvalidFloorplan {
                reason: format!("power-map entries must be finite and non-negative, got {p}"),
            });
        }
        Ok(())
    }

    /// A uniform map dissipating `total` split evenly across the tiles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for an empty grid or a
    /// negative / non-finite total.
    pub fn uniform(nx: usize, ny: usize, total: Power) -> Result<Self, CoreError> {
        check_grid("power map", nx, ny, nx * ny)?;
        let per_tile = total * (1.0 / (nx * ny) as f64);
        Self::new(nx, ny, vec![per_tile; nx * ny])
    }

    /// Builds a map by calling `tile_power(ix, iy)` for every tile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for an empty grid or any
    /// negative / non-finite produced value.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        mut tile_power: impl FnMut(usize, usize) -> Power,
    ) -> Result<Self, CoreError> {
        let mut tiles = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                tiles.push(tile_power(ix, iy));
            }
        }
        Self::new(nx, ny, tiles)
    }

    /// Grid width (tiles along x).
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (tiles along y).
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The power of tile `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    #[must_use]
    pub fn get(&self, ix: usize, iy: usize) -> Power {
        assert!(
            ix < self.nx && iy < self.ny,
            "tile ({ix}, {iy}) outside the {}×{} map",
            self.nx,
            self.ny
        );
        self.tiles[iy * self.nx + ix]
    }

    /// Total power over the whole map.
    #[must_use]
    pub fn total(&self) -> Power {
        self.tiles.iter().copied().sum()
    }

    /// The raw row-major tiles.
    #[must_use]
    pub fn tiles(&self) -> &[Power] {
        &self.tiles
    }

    /// Overwrites row-major tile `index` with an already validated power.
    pub(crate) fn replace(&mut self, index: usize, p: Power) {
        self.tiles[index] = p;
    }
}

/// Per-tile TTSV area density (fraction of tile area filled by via metal),
/// the spatial generalization of
/// [`CaseStudy::density`](ttsv_core::full_chip::CaseStudy::density).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViaDensityMap {
    nx: usize,
    ny: usize,
    tiles: Vec<f64>,
}

impl ViaDensityMap {
    /// Validates and wraps a row-major tile grid of densities.
    ///
    /// Every tile must carry vias: a zero (or negative, or ≥ 1, or
    /// non-finite) density is rejected, because a powered tile without a
    /// via has no unit cell under the adiabatic-wall tiling.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for an empty grid, a length
    /// mismatch, or any entry outside `(0, 1)`.
    pub fn new(nx: usize, ny: usize, tiles: Vec<f64>) -> Result<Self, CoreError> {
        check_grid("via-density map", nx, ny, tiles.len())?;
        if let Some(d) = tiles.iter().find(|d| !(**d > 0.0 && **d < 1.0)) {
            return Err(CoreError::InvalidFloorplan {
                reason: format!(
                    "via densities must be in (0, 1) — every tile needs a via — got {d}"
                ),
            });
        }
        Ok(Self { nx, ny, tiles })
    }

    /// A uniform density map (the case-study idealization).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for an empty grid or a
    /// density outside `(0, 1)`.
    pub fn uniform(nx: usize, ny: usize, density: f64) -> Result<Self, CoreError> {
        check_grid("via-density map", nx, ny, nx * ny)?;
        Self::new(nx, ny, vec![density; nx * ny])
    }

    /// Grid width (tiles along x).
    #[must_use]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (tiles along y).
    #[must_use]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// The via density of tile `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    #[must_use]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.nx && iy < self.ny,
            "tile ({ix}, {iy}) outside the {}×{} map",
            self.nx,
            self.ny
        );
        self.tiles[iy * self.nx + ix]
    }

    /// The raw row-major tiles.
    #[must_use]
    pub fn tiles(&self) -> &[f64] {
        &self.tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(v: f64) -> Power {
        Power::from_watts(v)
    }

    #[test]
    fn power_map_round_trips_and_sums() {
        let m = PowerMap::new(2, 3, vec![w(0.0), w(1.0), w(2.0), w(3.0), w(4.0), w(5.0)]).unwrap();
        assert_eq!(m.nx(), 2);
        assert_eq!(m.ny(), 3);
        assert_eq!(m.get(1, 2).as_watts(), 5.0);
        assert!((m.total().as_watts() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_power_map_conserves_total() {
        let m = PowerMap::uniform(8, 8, w(70.0)).unwrap();
        assert!((m.total().as_watts() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn negative_power_entry_rejected() {
        let err = PowerMap::new(2, 1, vec![w(1.0), w(-0.5)]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidFloorplan { .. }), "{err}");
        assert!(err.to_string().contains("non-negative"));
    }

    #[test]
    fn nan_power_entry_rejected() {
        let err = PowerMap::new(1, 1, vec![w(f64::NAN)]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidFloorplan { .. }), "{err}");
    }

    #[test]
    fn power_map_length_mismatch_rejected() {
        let err = PowerMap::new(2, 2, vec![w(1.0)]).unwrap_err();
        assert!(err.to_string().contains("2×2"));
    }

    #[test]
    fn empty_power_grid_rejected() {
        let err = PowerMap::new(0, 4, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("positive grid"));
    }

    #[test]
    fn zero_via_density_rejected() {
        let err = ViaDensityMap::new(2, 1, vec![0.005, 0.0]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidFloorplan { .. }), "{err}");
        assert!(err.to_string().contains("every tile needs a via"));
    }

    #[test]
    fn overfull_via_density_rejected() {
        let err = ViaDensityMap::uniform(2, 2, 1.0).unwrap_err();
        assert!(err.to_string().contains("(0, 1)"));
    }

    #[test]
    fn nan_via_density_rejected() {
        assert!(ViaDensityMap::uniform(2, 2, f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_grid_access_panics() {
        let m = ViaDensityMap::uniform(2, 2, 0.005).unwrap();
        let _ = m.get(2, 0);
    }
}
