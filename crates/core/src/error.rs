//! Typed errors for MCCATCH configuration.
//!
//! Invalid hyperparameters are *caller* conditions, not programming
//! errors: a service that accepts detection requests must be able to
//! reject a bad configuration as a value. Every public constructor
//! (`McCatch::new`, `McCatch::builder().build()`, `Params::try_resolve`)
//! returns `Result<_, McCatchError>`, and none of them panics on a bad
//! configuration.

use crate::params::MAX_NUM_RADII;
use std::fmt;

/// Everything that can be wrong with a MCCATCH configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum McCatchError {
    /// `num_radii` (the paper's `a`) was outside `2..=64`: the radius grid
    /// needs at least `{l/2, l}`, and its smallest radius `l/2^(a-1)`
    /// needs `a - 1 < 64`.
    InvalidNumRadii {
        /// The rejected value.
        got: usize,
    },
    /// `max_plateau_slope` (the paper's `b`) was negative or NaN.
    InvalidSlope {
        /// The rejected value.
        got: f64,
    },
}

impl fmt::Display for McCatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidNumRadii { got } => {
                write!(
                    f,
                    "num_radii (a) must be at least 2 and at most {MAX_NUM_RADII} \
                     (2..={MAX_NUM_RADII}), got {got}"
                )
            }
            Self::InvalidSlope { got } => {
                write!(f, "max_plateau_slope (b) must be non-negative, got {got}")
            }
        }
    }
}

impl std::error::Error for McCatchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_parameter() {
        assert!(McCatchError::InvalidNumRadii { got: 1 }
            .to_string()
            .contains("num_radii"));
        assert!(McCatchError::InvalidSlope { got: -0.5 }
            .to_string()
            .contains("max_plateau_slope"));
    }

    #[test]
    fn is_a_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(McCatchError::InvalidNumRadii { got: 0 });
        assert!(e.to_string().contains("at least 2"));
    }
}
