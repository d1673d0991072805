//! The [`Scenario`] bundle (geometry + via + load) and the [`ThermalModel`]
//! abstraction every model implements.

use serde::{Deserialize, Serialize};
use ttsv_units::{Area, Length, Power, TemperatureDelta};

use crate::error::CoreError;
use crate::geometry::{HeatLoad, Plane, Stack, TtsvConfig};
use crate::ladder::LadderKernel;

/// A fully validated analysis scenario: the stack, the TTSV configuration,
/// and the heat entering each plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    stack: Stack,
    tsv: TtsvConfig,
    plane_powers: Vec<Power>,
}

impl Scenario {
    /// Validates and bundles a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] if the vias do not fit in the
    /// footprint, or the power list length mismatches the plane count, or
    /// any plane power is negative.
    pub fn new(stack: Stack, tsv: TtsvConfig, load: &HeatLoad) -> Result<Self, CoreError> {
        let plane_powers = load.plane_powers(&stack)?;
        if tsv.occupied_area() >= stack.footprint() {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "vias occupy {} of a {} footprint",
                    tsv.occupied_area(),
                    stack.footprint()
                ),
            });
        }
        if let Some(p) = plane_powers.iter().find(|p| p.as_watts() < 0.0) {
            return Err(CoreError::InvalidScenario {
                reason: format!("plane power cannot be negative, got {p}"),
            });
        }
        Ok(Self {
            stack,
            tsv,
            plane_powers,
        })
    }

    /// Starts a builder preconfigured as the paper's §IV test block:
    /// 100 µm × 100 µm footprint, 3 planes, `t_Si1` = 500 µm,
    /// `l_ext` = 1 µm, `t_D` = 4 µm, `t_b` = 1 µm, upper `t_Si` = 45 µm,
    /// a single r = 10 µm via with a 0.5 µm liner, and the default §IV heat
    /// densities.
    #[must_use]
    pub fn paper_block() -> PaperBlockBuilder {
        PaperBlockBuilder::default()
    }

    /// The stack geometry.
    #[must_use]
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// The TTSV configuration.
    #[must_use]
    pub fn tsv(&self) -> &TtsvConfig {
        &self.tsv
    }

    /// Heat entering each plane, bottom → top.
    #[must_use]
    pub fn plane_powers(&self) -> &[Power] {
        &self.plane_powers
    }

    /// Total heat of the scenario.
    #[must_use]
    pub fn total_power(&self) -> Power {
        self.plane_powers.iter().copied().sum()
    }

    /// Returns a copy with a different TTSV configuration (same stack and
    /// load) — the common move in parameter sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] if the new vias do not fit.
    pub fn with_tsv(&self, tsv: TtsvConfig) -> Result<Self, CoreError> {
        if tsv.occupied_area() >= self.stack.footprint() {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "vias occupy {} of a {} footprint",
                    tsv.occupied_area(),
                    self.stack.footprint()
                ),
            });
        }
        Ok(Self {
            stack: self.stack.clone(),
            tsv,
            plane_powers: self.plane_powers.clone(),
        })
    }
}

/// A thermal model that can score a scenario — implemented by Model A,
/// Model B, the 1-D baseline, the package wrapper, and (in
/// `ttsv-validate`) the FEM reference.
pub trait ThermalModel {
    /// Short display name, e.g. `"Model A"`.
    fn name(&self) -> String;

    /// The maximum steady-state temperature rise above the heat sink.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the scenario is incompatible with the
    /// model or the underlying solve fails.
    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError>;
}

/// A model whose linear system depends only on the scenario's *geometry*
/// (stack, TSV, segmentation) — plane powers enter the right-hand side
/// alone. Such a model factorizes each geometry once into the ladder's
/// hotspot kernel ([`LadderKernel`]) and answers every power vector with
/// one call on it, [`LadderKernel::max_delta_t`]: a few dozen
/// multiply-adds, against a kernel of 3,280 bytes for the serving
/// `B(10,1000)` on the §IV-E cell ([`LadderKernel::heap_bytes`]). That is
/// what lets the chip engine collapse an all-distinct power map onto a
/// handful of factorizations.
/// [`ModelA`](crate::model_a::ModelA) and
/// [`ModelB`](crate::model_b::ModelB) implement it on their shared
/// ladder.
///
/// Contract: for any scenario `s`,
/// `factorize_geometry(&s)?.max_delta_t(s.plane_powers())` must equal
/// `max_delta_t(&s)` **bitwise** (the property suites assert it for both
/// models, including that the kernel's pruned max equals the max over
/// every node).
pub trait PowerSeparableModel: ThermalModel {
    /// Factorizes the scenario's geometry (powers are ignored) into its
    /// hotspot kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the geometry is invalid for the model.
    fn factorize_geometry(&self, scenario: &Scenario) -> Result<LadderKernel, CoreError>;
}

/// Builder for the paper's §IV block with per-figure knobs; see
/// [`Scenario::paper_block`].
#[derive(Debug, Clone)]
pub struct PaperBlockBuilder {
    footprint_side: Length,
    t_si1: Length,
    l_ext: Length,
    t_si_upper: Length,
    t_ild: Length,
    t_bond: Length,
    planes: usize,
    tsv: TtsvConfig,
    load: HeatLoad,
}

impl Default for PaperBlockBuilder {
    fn default() -> Self {
        Self {
            footprint_side: Length::from_micrometers(100.0),
            t_si1: Length::from_micrometers(500.0),
            l_ext: Length::from_micrometers(1.0),
            t_si_upper: Length::from_micrometers(45.0),
            t_ild: Length::from_micrometers(4.0),
            t_bond: Length::from_micrometers(1.0),
            planes: 3,
            tsv: TtsvConfig::new(
                Length::from_micrometers(10.0),
                Length::from_micrometers(0.5),
            ),
            load: HeatLoad::paper_default(),
        }
    }
}

impl PaperBlockBuilder {
    /// Sets the TTSV configuration (radius/liner/count).
    #[must_use]
    pub fn with_tsv(mut self, tsv: TtsvConfig) -> Self {
        self.tsv = tsv;
        self
    }

    /// Sets the upper planes' substrate thickness (`t_Si2 = t_Si3`).
    #[must_use]
    pub fn with_upper_si_thickness(mut self, t_si: Length) -> Self {
        self.t_si_upper = t_si;
        self
    }

    /// Sets every plane's ILD thickness `t_D`.
    #[must_use]
    pub fn with_ild_thickness(mut self, t_ild: Length) -> Self {
        self.t_ild = t_ild;
        self
    }

    /// Sets the bonding-layer thickness `t_b`.
    #[must_use]
    pub fn with_bond_thickness(mut self, t_bond: Length) -> Self {
        self.t_bond = t_bond;
        self
    }

    /// Sets the first substrate thickness `t_Si1`.
    #[must_use]
    pub fn with_first_si_thickness(mut self, t_si1: Length) -> Self {
        self.t_si1 = t_si1;
        self
    }

    /// Sets the number of planes (default 3).
    #[must_use]
    pub fn with_planes(mut self, planes: usize) -> Self {
        self.planes = planes;
        self
    }

    /// Sets the heat load (default: the paper's §IV densities).
    #[must_use]
    pub fn with_load(mut self, load: HeatLoad) -> Self {
        self.load = load;
        self
    }

    /// Validates and builds the scenario.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::InvalidScenario`] from stack/scenario
    /// validation.
    pub fn build(self) -> Result<Scenario, CoreError> {
        let mut b = Stack::builder(Area::square(self.footprint_side))
            .l_ext(self.l_ext)
            .plane(Plane::new(self.t_si1, self.t_ild));
        for _ in 1..self.planes {
            b = b.plane(Plane::new(self.t_si_upper, self.t_ild).with_bond_below(self.t_bond));
        }
        Scenario::new(b.build()?, self.tsv, &self.load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    #[test]
    fn paper_block_builds_and_has_three_planes() {
        let s = Scenario::paper_block().build().unwrap();
        assert_eq!(s.stack().plane_count(), 3);
        assert_eq!(s.plane_powers().len(), 3);
        assert!((s.total_power().as_milliwatts() - 3.0 * 9.8).abs() < 1e-9);
    }

    #[test]
    fn paper_block_knobs_apply() {
        let s = Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(8.0), um(1.0)))
            .with_ild_thickness(um(7.0))
            .with_upper_si_thickness(um(20.0))
            .with_planes(4)
            .build()
            .unwrap();
        assert_eq!(s.stack().plane_count(), 4);
        assert_eq!(s.tsv().radius(), um(8.0));
        assert_eq!(s.stack().planes()[1].t_si(), um(20.0));
        assert_eq!(s.stack().planes()[0].t_ild(), um(7.0));
    }

    #[test]
    fn oversized_via_rejected() {
        let err = Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(60.0), um(1.0)))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("occupy"));
    }

    #[test]
    fn with_tsv_swaps_only_the_via() {
        let s = Scenario::paper_block().build().unwrap();
        let s2 = s.with_tsv(TtsvConfig::new(um(5.0), um(0.5))).unwrap();
        assert_eq!(s2.tsv().radius(), um(5.0));
        assert_eq!(s.plane_powers(), s2.plane_powers());
        assert_eq!(s.stack(), s2.stack());
    }

    #[test]
    fn negative_power_rejected() {
        let stack = Stack::builder(Area::square(um(100.0)))
            .plane(Plane::new(um(500.0), um(4.0)))
            .plane(Plane::new(um(45.0), um(4.0)).with_bond_below(um(1.0)))
            .build()
            .unwrap();
        let err = Scenario::new(
            stack,
            TtsvConfig::new(um(5.0), um(0.5)),
            &HeatLoad::PerPlane(vec![Power::from_watts(-1.0), Power::from_watts(1.0)]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("negative"));
    }
}
