//! Error type for the analytical models.

use ttsv_linalg::LinalgError;

/// Errors from building or solving the analytical TTSV models.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Geometry or load description is physically inconsistent.
    InvalidScenario {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A full-chip floorplan description (power map, via-density map, or
    /// case-study parameters) is invalid.
    InvalidFloorplan {
        /// Human-readable description of the invalid map or parameter.
        reason: String,
    },
    /// A direct linear solve failed.
    Linalg(LinalgError),
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::InvalidScenario { reason } => write!(f, "invalid scenario: {reason}"),
            CoreError::InvalidFloorplan { reason } => write!(f, "invalid floorplan: {reason}"),
            CoreError::Linalg(e) => write!(f, "linear solve failed: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::InvalidScenario { .. } | CoreError::InvalidFloorplan { .. } => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        assert!(CoreError::InvalidScenario {
            reason: "no planes".into()
        }
        .to_string()
        .contains("no planes"));
        assert!(CoreError::InvalidFloorplan {
            reason: "negative tile power".into()
        }
        .to_string()
        .contains("negative tile power"));
        assert!(CoreError::Linalg(LinalgError::Singular { pivot: 2 })
            .to_string()
            .contains("singular"));
    }
}
