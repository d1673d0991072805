//! The [`Floorplan`]: stack geometry + tile maps → per-tile unit cells.
//!
//! Each tile of the `nx × ny` grid is treated exactly like the §IV-E
//! chip, shrunk to the tile (DESIGN.md §3): its via density `d` defines a
//! per-via cell area `A_cell = n π r² / (n d) = π r² / d`, the tile holds
//! `A_tile / A_cell` (fractional) such cells with adiabatic side walls,
//! and the tile's per-plane power splits evenly across them. Tiles with
//! identical `(density, plane powers)` produce bit-identical scenarios —
//! the within-call dedup of [`ChipEngine::evaluate`](crate::ChipEngine::evaluate)
//! — and tiles with the same density share one geometry, whose kernel the
//! factored path builds once.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use ttsv_core::full_chip::CaseStudy;
use ttsv_core::geometry::{HeatLoad, Plane, Stack, TtsvConfig};
use ttsv_core::scenario::Scenario;
use ttsv_core::CoreError;
use ttsv_units::{Area, Length, Power};

use crate::map::{PowerMap, ViaDensityMap};

/// A chip floorplan: the stack geometry of a [`CaseStudy`] with the
/// uniform power/density idealization replaced by per-tile maps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    footprint: Area,
    t_si: Length,
    t_ild: Length,
    t_bond: Length,
    l_ext: Length,
    tsv: TtsvConfig,
    plane_maps: Vec<PowerMap>,
    via_map: ViaDensityMap,
}

/// One tile's per-via unit cell: the scenario to evaluate plus the
/// (fractional) number of such cells the tile holds.
#[derive(Debug, Clone)]
pub struct TileCell {
    /// The per-via unit-cell scenario (adiabatic walls).
    pub scenario: Scenario,
    /// Cells (= vias) in the tile, `A_tile / A_cell`; fractional under the
    /// paper's uniform-density idealization.
    pub cells: f64,
}

/// A [`Floorplan`]'s tiles grouped by via density
/// ([`Floorplan::density_groups`]).
#[derive(Debug, Clone)]
pub struct DensityGroups {
    /// Each row-major tile's group.
    pub(crate) of_tile: Vec<u32>,
    pub(crate) groups: Vec<DensityGroup>,
}

/// One via density of a plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DensityGroup {
    /// The density's bits ([`Floorplan::matrix_bits`]).
    pub(crate) bits: u64,
    /// The first tile at this density.
    pub(crate) tile: usize,
    /// [`Floorplan::cell_share`] of every tile at this density.
    pub(crate) share: f64,
}

impl DensityGroups {
    /// Distinct densities — the kernels the plan needs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether the plan has no tiles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Tiles grouped.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.of_tile.len()
    }
}

/// Everything that distinguishes one tile's unit cell from another's,
/// as exact bit patterns (density first, then per-plane powers) — the
/// generic path's dedup key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CellKey(Vec<u64>);

impl Floorplan {
    /// Builds a floorplan from a case study's stack geometry (footprint,
    /// layer thicknesses, TTSV configuration) and explicit maps. The
    /// plane count is `plane_maps.len()`; the case study's own
    /// `plane_powers` and `density` are superseded by the maps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] when fewer than two plane
    /// maps are given or any map's grid differs from the via map's.
    pub fn new(
        case: &CaseStudy,
        plane_maps: Vec<PowerMap>,
        via_map: ViaDensityMap,
    ) -> Result<Self, CoreError> {
        if plane_maps.len() < 2 {
            return Err(CoreError::InvalidFloorplan {
                reason: format!(
                    "a 3-D floorplan needs at least 2 plane power maps, got {}",
                    plane_maps.len()
                ),
            });
        }
        for (j, m) in plane_maps.iter().enumerate() {
            if m.nx() != via_map.nx() || m.ny() != via_map.ny() {
                return Err(CoreError::InvalidFloorplan {
                    reason: format!(
                        "plane {} power map is {}×{} but the via map is {}×{}",
                        j,
                        m.nx(),
                        m.ny(),
                        via_map.nx(),
                        via_map.ny()
                    ),
                });
            }
        }
        Ok(Self {
            footprint: case.footprint,
            t_si: case.t_si,
            t_ild: case.t_ild,
            t_bond: case.t_bond,
            l_ext: case.l_ext,
            tsv: case.tsv.clone(),
            plane_maps,
            via_map,
        })
    }

    /// The uniform-map limit: the case study's plane powers split evenly
    /// over an `nx × ny` grid at its uniform via density. Evaluating this
    /// floorplan reproduces [`CaseStudy::unit_cell_scenario`] on every
    /// tile (the golden suite pins the agreement).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for parameters
    /// [`CaseStudy::validate`] rejects or an empty grid.
    pub fn uniform(case: &CaseStudy, nx: usize, ny: usize) -> Result<Self, CoreError> {
        case.validate()?;
        let plane_maps = case
            .plane_powers
            .iter()
            .map(|&total| PowerMap::uniform(nx, ny, total))
            .collect::<Result<Vec<_>, _>>()?;
        let via_map = ViaDensityMap::uniform(nx, ny, case.density)?;
        Self::new(case, plane_maps, via_map)
    }

    /// Grid width (tiles along x).
    #[must_use]
    pub fn nx(&self) -> usize {
        self.via_map.nx()
    }

    /// Grid height (tiles along y).
    #[must_use]
    pub fn ny(&self) -> usize {
        self.via_map.ny()
    }

    /// Total tile count, `nx · ny`.
    #[must_use]
    pub fn tiles(&self) -> usize {
        self.nx() * self.ny()
    }

    /// Number of planes in the stack.
    #[must_use]
    pub fn plane_count(&self) -> usize {
        self.plane_maps.len()
    }

    /// The per-plane power maps, bottom → top.
    #[must_use]
    pub fn plane_maps(&self) -> &[PowerMap] {
        &self.plane_maps
    }

    /// The via-density map.
    #[must_use]
    pub fn via_map(&self) -> &ViaDensityMap {
        &self.via_map
    }

    /// The distinct via densities in the plan, compared bit for bit: the
    /// Model B kernels a chip holding this plan needs, and so its report's
    /// `distinct_cells`. Counted from the plan alone, so a caller can
    /// weigh a plan's kernels before evaluating it.
    #[must_use]
    pub fn distinct_densities(&self) -> usize {
        self.density_groups().len()
    }

    /// The plan's tiles grouped by via density, compared bit for bit —
    /// one group per kernel a chip holding this plan needs. A tile whose
    /// density bits equal the previous tile's joins its group without a
    /// lookup, so a uniform plan hashes once; each group's per-cell power
    /// share is computed once.
    #[must_use]
    pub fn density_groups(&self) -> DensityGroups {
        let mut index: HashMap<u64, u32> = HashMap::new();
        let mut groups: Vec<DensityGroup> = Vec::new();
        let mut previous = None;
        let of_tile = (0..self.tiles())
            .map(|t| {
                let bits = self.matrix_bits(t);
                let group = match previous {
                    Some((b, group)) if b == bits => group,
                    _ => *index.entry(bits).or_insert_with(|| {
                        groups.push(DensityGroup {
                            bits,
                            tile: t,
                            share: self.cell_share(t),
                        });
                        (groups.len() - 1) as u32
                    }),
                };
                previous = Some((bits, group));
                group
            })
            .collect();
        DensityGroups { of_tile, groups }
    }

    /// Chip footprint area.
    #[must_use]
    pub fn footprint(&self) -> Area {
        self.footprint
    }

    /// Footprint of one tile, `A₀ / (nx · ny)`.
    #[must_use]
    pub fn tile_area(&self) -> Area {
        self.footprint * (1.0 / self.tiles() as f64)
    }

    /// Total heat entering each plane, bottom → top (map totals).
    #[must_use]
    pub fn plane_totals(&self) -> Vec<Power> {
        self.plane_maps.iter().map(PowerMap::total).collect()
    }

    /// Total via count over the chip (fractional, summed per tile).
    #[must_use]
    pub fn via_count(&self) -> f64 {
        let mut vias = 0.0;
        for iy in 0..self.ny() {
            for ix in 0..self.nx() {
                vias += self.cells_in_tile(ix, iy);
            }
        }
        vias
    }

    /// Per-via cell area at density `d`: `A_cell = fill_area / (count · d)`
    /// — the same expression as [`CaseStudy::cell_area`].
    fn cell_area_at(&self, density: f64) -> Area {
        Area::from_square_meters(
            self.tsv.fill_area().as_square_meters() / self.tsv.count() as f64 / density,
        )
    }

    /// Cells (= vias) in tile `(ix, iy)`.
    #[must_use]
    pub fn cells_in_tile(&self, ix: usize, iy: usize) -> f64 {
        self.tile_area() / self.cell_area_at(self.via_map.get(ix, iy))
    }

    /// Builds tile `(ix, iy)`'s per-via unit-cell scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] when the via (plus liner)
    /// does not fit the cell its tile density implies.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    pub fn tile_cell(&self, ix: usize, iy: usize) -> Result<TileCell, CoreError> {
        let density = self.via_map.get(ix, iy);
        let cell = self.cell_area_at(density);
        let cells = self.tile_area() / cell;
        let side = Length::from_meters(cell.as_square_meters().sqrt());

        let mut builder = Stack::builder(Area::square(side))
            .l_ext(self.l_ext)
            .plane(Plane::new(self.t_si, self.t_ild));
        for _ in 1..self.plane_count() {
            builder = builder.plane(Plane::new(self.t_si, self.t_ild).with_bond_below(self.t_bond));
        }
        let stack = builder.build()?;

        let cell_powers = self.tile_cell_powers(ix, iy);
        let scenario = Scenario::new(stack, self.tsv.clone(), &HeatLoad::PerPlane(cell_powers))?;
        Ok(TileCell { scenario, cells })
    }

    /// Tile `(ix, iy)`'s per-cell plane powers — exactly the float
    /// operations [`Floorplan::tile_cell`] performs, so the vector is
    /// bit-identical to the scenario's `plane_powers()`. The factored
    /// engine path uses this to skip building full scenarios for tiles
    /// whose kernel is already built.
    ///
    /// # Panics
    ///
    /// Panics if the index is outside the grid.
    #[must_use]
    pub fn tile_cell_powers(&self, ix: usize, iy: usize) -> Vec<Power> {
        assert!(
            ix < self.nx() && iy < self.ny(),
            "tile ({ix}, {iy}) outside the grid"
        );
        let index = iy * self.nx() + ix;
        let mut powers = Vec::with_capacity(self.plane_count());
        self.fill_tile_powers_shared(index, self.cell_share(index), &mut powers);
        powers
    }

    /// [`Floorplan::tile_cell_powers`] of row-major tile `index` with its
    /// [`Floorplan::cell_share`] already known, written into `out` — the
    /// engine reuses one buffer per pass.
    pub(crate) fn fill_tile_powers_shared(&self, index: usize, share: f64, out: &mut Vec<Power>) {
        out.clear();
        out.extend(self.plane_maps.iter().map(|m| m.tiles()[index] * share));
    }

    /// `1 / cells` of row-major tile `index`: the factor
    /// [`Floorplan::tile_cell_powers`] turns a tile's watts into one
    /// cell's with, so a power update can price a tile's new watts
    /// bitwise before the plan holds them.
    pub(crate) fn cell_share(&self, index: usize) -> f64 {
        let cells = self.tile_area() / self.cell_area_at(self.via_map.tiles()[index]);
        1.0 / cells
    }

    /// Replaces one plane's power map. A power update leaves the geometry
    /// intact, so the plan's kernels stay valid;
    /// [`LiveChip::apply`](crate::LiveChip::apply) is the sparse form on
    /// the plan a chip owns, re-solving only the changed tiles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] when `plane` is out of
    /// range or the new map's grid does not match the floorplan's.
    pub fn update_power_map(&mut self, plane: usize, map: PowerMap) -> Result<(), CoreError> {
        if plane >= self.plane_maps.len() {
            return Err(CoreError::InvalidFloorplan {
                reason: format!(
                    "plane {} out of range for a {}-plane floorplan",
                    plane,
                    self.plane_maps.len()
                ),
            });
        }
        if map.nx() != self.nx() || map.ny() != self.ny() {
            return Err(CoreError::InvalidFloorplan {
                reason: format!(
                    "replacement map is {}×{} but the floorplan grid is {}×{}",
                    map.nx(),
                    map.ny(),
                    self.nx(),
                    self.ny()
                ),
            });
        }
        self.plane_maps[plane] = map;
        Ok(())
    }

    /// Overwrites one tile (row-major `index`) of plane `plane` with an
    /// already validated power — the in-place commit behind
    /// [`LiveChip::apply`](crate::LiveChip::apply).
    pub(crate) fn replace_tile_power(&mut self, plane: usize, index: usize, p: Power) {
        self.plane_maps[plane].replace(index, p);
    }

    /// The *matrix* bits of row-major tile `index`: geometry-relevant
    /// per-tile state (via density) without the powers. Tiles sharing
    /// these bits share a ladder matrix, so the engine factorizes one
    /// kernel per distinct value.
    pub(crate) fn matrix_bits(&self, index: usize) -> u64 {
        self.via_map.tiles()[index].to_bits()
    }

    /// The dedup key of row-major tile `index`: the exact bit patterns of
    /// its density and per-plane powers. Equal keys imply the tile-cell
    /// construction runs the same float operations on the same inputs,
    /// so the scenarios — and any deterministic model's output — are
    /// bit-identical.
    pub(crate) fn cell_key(&self, index: usize) -> CellKey {
        let mut bits = Vec::with_capacity(self.plane_maps.len() + 1);
        bits.push(self.matrix_bits(index));
        for m in &self.plane_maps {
            bits.push(m.tiles()[index].as_watts().to_bits());
        }
        CellKey(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_floorplan_conserves_chip_totals() {
        let cs = CaseStudy::paper();
        let plan = Floorplan::uniform(&cs, 8, 8).unwrap();
        assert_eq!(plan.tiles(), 64);
        assert_eq!(plan.plane_count(), 3);
        let totals = plan.plane_totals();
        for (got, want) in totals.iter().zip(&cs.plane_powers) {
            assert!((got.as_watts() - want.as_watts()).abs() < 1e-9 * want.as_watts());
        }
        // Same via count as the case study's uniform idealization.
        assert!((plan.via_count() - cs.via_count()).abs() < 1e-6 * cs.via_count());
    }

    #[test]
    fn uniform_tile_cell_matches_the_case_study_unit_cell() {
        let cs = CaseStudy::paper();
        let reference = cs.unit_cell_scenario().unwrap();
        let plan = Floorplan::uniform(&cs, 4, 4).unwrap();
        let tile = plan.tile_cell(2, 1).unwrap();
        let got = tile.scenario.stack().footprint().as_square_meters();
        let want = reference.stack().footprint().as_square_meters();
        assert!((got - want).abs() < 1e-12 * want, "{got} vs {want}");
        for (g, w) in tile
            .scenario
            .plane_powers()
            .iter()
            .zip(reference.plane_powers())
        {
            assert!(
                (g.as_watts() - w.as_watts()).abs() < 1e-12 * w.as_watts(),
                "{g} vs {w}"
            );
        }
    }

    #[test]
    fn identical_tiles_share_a_key_and_distinct_tiles_do_not() {
        let cs = CaseStudy::paper();
        let mut maps = Vec::new();
        for total in [70.0, 7.0] {
            maps.push(
                PowerMap::from_fn(2, 2, |ix, _| {
                    Power::from_watts(if ix == 0 { total } else { total / 2.0 })
                })
                .unwrap(),
            );
        }
        let via = ViaDensityMap::uniform(2, 2, 0.005).unwrap();
        let plan = Floorplan::new(&cs, maps, via).unwrap();
        assert_eq!(plan.cell_key(0), plan.cell_key(2));
        assert_eq!(plan.cell_key(1), plan.cell_key(3));
        assert_ne!(plan.cell_key(0), plan.cell_key(1));
    }

    #[test]
    fn distinct_densities_is_the_reports_distinct_cells() {
        let cs = CaseStudy::paper();
        let model = ttsv_core::model_b::ModelB::paper_b20();
        let engine = crate::ChipEngine::new().with_workers(1);
        let uniform = Floorplan::uniform(&cs, 4, 4).unwrap();
        // Three densities, each repeated across the grid.
        let mut dense = uniform.clone();
        dense.via_map = ViaDensityMap::new(
            4,
            4,
            (0..16).map(|t| 0.004 + (t % 3) as f64 * 1e-3).collect(),
        )
        .unwrap();
        for (plan, kernels) in [(uniform, 1), (dense, 3)] {
            let report = engine
                .evaluate_live(plan.clone(), &model)
                .unwrap()
                .report()
                .distinct_cells;
            assert_eq!((plan.distinct_densities(), report), (kernels, kernels));
        }
    }

    /// Grouping by density — runs of equal bits and revisited densities
    /// alike — puts each tile in the group of its density, with the share
    /// its own `cell_share` gives, bit for bit.
    #[test]
    fn density_groups_carry_each_tiles_density_and_share() {
        let mut plan = Floorplan::uniform(&CaseStudy::paper(), 5, 4).unwrap();
        plan.via_map = ViaDensityMap::new(
            5,
            4,
            (0..20)
                .map(|t| [0.004, 0.004, 0.006, 0.005][(t / 2) % 4])
                .collect(),
        )
        .unwrap();
        let groups = plan.density_groups();
        assert_eq!((groups.len(), groups.tiles()), (3, 20));
        for t in 0..20 {
            let group = groups.groups[groups.of_tile[t] as usize];
            assert_eq!(group.bits, plan.matrix_bits(t));
            assert_eq!(group.share.to_bits(), plan.cell_share(t).to_bits());
            assert!(group.tile <= t && plan.matrix_bits(group.tile) == group.bits);
        }
    }

    #[test]
    fn too_few_plane_maps_rejected() {
        let cs = CaseStudy::paper();
        let maps = vec![PowerMap::uniform(2, 2, Power::from_watts(70.0)).unwrap()];
        let via = ViaDensityMap::uniform(2, 2, 0.005).unwrap();
        let err = Floorplan::new(&cs, maps, via).unwrap_err();
        assert!(err.to_string().contains("at least 2 plane"));
    }

    #[test]
    fn mismatched_grids_rejected() {
        let cs = CaseStudy::paper();
        let maps = vec![
            PowerMap::uniform(2, 2, Power::from_watts(70.0)).unwrap(),
            PowerMap::uniform(3, 2, Power::from_watts(7.0)).unwrap(),
        ];
        let via = ViaDensityMap::uniform(2, 2, 0.005).unwrap();
        let err = Floorplan::new(&cs, maps, via).unwrap_err();
        assert!(err.to_string().contains("3×2"));
    }

    #[test]
    fn invalid_case_study_rejected_by_uniform() {
        let mut cs = CaseStudy::paper();
        cs.density = 0.0;
        assert!(matches!(
            Floorplan::uniform(&cs, 2, 2).unwrap_err(),
            CoreError::InvalidFloorplan { .. }
        ));
    }

    #[test]
    fn oversized_via_fails_at_tile_cell_with_scenario_error() {
        // Density so high the cell shrinks below the via + liner.
        let mut cs = CaseStudy::paper();
        cs.density = 0.95;
        let plan = Floorplan::uniform(&cs, 2, 2).unwrap();
        let err = plan.tile_cell(0, 0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidScenario { .. }), "{err}");
    }
}
