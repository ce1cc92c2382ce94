//! Hyperparameters of MCCATCH (Alg. 1).
//!
//! The paper's point (goal G5, "Hands-Off") is that these never need
//! tuning: `a = 15`, `b = 0.1`, `c = ⌈n · 0.1⌉` were used in every
//! experiment, and Fig. 9 shows accuracy is flat in their neighborhood.

use crate::error::McCatchError;

/// The largest valid `num_radii`: the grid divides the diameter by
/// `2^(a-1)`, which must fit in a `u64`.
pub const MAX_NUM_RADII: usize = 64;

/// MCCATCH hyperparameters with the paper's defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Number of neighborhood radii `a` (default 15, must be in
    /// `2..=`[`MAX_NUM_RADII`]). The radius grid is
    /// `{l/2^(a-1), …, l/2, l}` for diameter `l`.
    pub num_radii: usize,
    /// Maximum plateau slope `b` (default 0.1, must be ≥ 0): how fast the
    /// neighbor count may grow (in log-log space) within a plateau.
    pub max_plateau_slope: f64,
    /// Maximum microcluster cardinality `c`. `None` (default) means the
    /// paper's `⌈n · 0.1⌉`; `Some(k)` fixes an absolute bound.
    pub max_mc_cardinality: Option<usize>,
    /// Worker threads for neighbor counting; 0 means all available cores.
    /// Thread count never changes results, only wall-clock time.
    pub threads: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            num_radii: 15,
            max_plateau_slope: 0.1,
            max_mc_cardinality: None,
            threads: 0,
        }
    }
}

impl Params {
    /// Checks the hyperparameter invariants without touching any data:
    /// `2 ≤ num_radii ≤ 64` and `max_plateau_slope ≥ 0` (and not NaN).
    ///
    /// An explicit `max_mc_cardinality` of 0 is *not* an error: it is
    /// clamped to 1 during resolution, exactly as the pre-staged-API
    /// releases did — the compatibility shims must keep their behavior.
    pub fn validate(&self) -> Result<(), McCatchError> {
        if !(2..=MAX_NUM_RADII).contains(&self.num_radii) {
            return Err(McCatchError::InvalidNumRadii {
                got: self.num_radii,
            });
        }
        if self.max_plateau_slope.is_nan() || self.max_plateau_slope < 0.0 {
            return Err(McCatchError::InvalidSlope {
                got: self.max_plateau_slope,
            });
        }
        Ok(())
    }

    /// Validates and resolves derived values for a dataset of `n` elements,
    /// reporting invalid hyperparameters as a [`McCatchError`] value.
    pub fn try_resolve(&self, n: usize) -> Result<Resolved, McCatchError> {
        self.validate()?;
        let c = self
            .max_mc_cardinality
            .unwrap_or_else(|| ((n as f64) * 0.1).ceil() as usize)
            .max(1);
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |t| t.get())
        } else {
            self.threads
        };
        Ok(Resolved {
            a: self.num_radii,
            b: self.max_plateau_slope,
            c,
            threads,
        })
    }
}

/// Parameters with data-dependent defaults resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolved {
    /// Number of radii.
    pub a: usize,
    /// Maximum plateau slope.
    pub b: f64,
    /// Maximum microcluster cardinality (absolute).
    pub c: usize,
    /// Worker threads.
    pub threads: usize,
}

/// The geometric radius grid of Alg. 1 line 3:
/// `R = {l/2^(a-1), l/2^(a-2), …, l}` (ascending, 0-indexed here).
#[derive(Debug, Clone, PartialEq)]
pub struct RadiusGrid {
    radii: Vec<f64>,
    diameter: f64,
}

impl RadiusGrid {
    /// Builds the grid for estimated diameter `l` and `a` radii.
    ///
    /// # Panics
    /// Panics unless `2 <= a <= MAX_NUM_RADII` and `diameter >= 0`.
    pub fn new(diameter: f64, a: usize) -> Self {
        assert!((2..=MAX_NUM_RADII).contains(&a));
        assert!(diameter >= 0.0);
        let radii = (0..a)
            .map(|k| diameter / (1u64 << (a - 1 - k)) as f64)
            .collect();
        Self { radii, diameter }
    }

    /// The ascending radii; `radii()[0]` is `r_1` of the paper and
    /// `radii()[a-1] == l`.
    pub fn radii(&self) -> &[f64] {
        &self.radii
    }

    /// The diameter estimate `l` the grid was derived from.
    pub fn diameter(&self) -> f64 {
        self.diameter
    }

    /// Number of radii `a`.
    pub fn len(&self) -> usize {
        self.radii.len()
    }

    /// Always false: a grid carries at least 2 radii by construction.
    pub fn is_empty(&self) -> bool {
        self.radii.is_empty()
    }

    /// True when the grid is degenerate (zero diameter): every radius is 0.
    pub fn is_degenerate(&self) -> bool {
        self.diameter <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = Params::default();
        assert_eq!(p.num_radii, 15);
        assert_eq!(p.max_plateau_slope, 0.1);
        assert_eq!(p.max_mc_cardinality, None);
    }

    #[test]
    fn resolve_derives_c_as_ten_percent_ceil() {
        let r = Params::default().try_resolve(1001).unwrap();
        assert_eq!(r.c, 101); // ceil(100.1)
        let r = Params::default().try_resolve(10).unwrap();
        assert_eq!(r.c, 1);
    }

    #[test]
    fn resolve_respects_explicit_c() {
        let p = Params {
            max_mc_cardinality: Some(42),
            ..Params::default()
        };
        assert_eq!(p.try_resolve(1_000_000).unwrap().c, 42);
    }

    #[test]
    fn resolve_clamps_c_to_one() {
        let r = Params::default().try_resolve(0).unwrap();
        assert_eq!(r.c, 1);
    }

    #[test]
    fn try_resolve_rejects_single_radius() {
        let p = Params {
            num_radii: 1,
            ..Params::default()
        };
        assert_eq!(
            p.try_resolve(10),
            Err(crate::error::McCatchError::InvalidNumRadii { got: 1 })
        );
    }

    #[test]
    fn try_resolve_bounds_num_radii_by_the_grid_shift() {
        let with = |num_radii| Params {
            num_radii,
            ..Params::default()
        };
        assert!(with(MAX_NUM_RADII).try_resolve(10).is_ok());
        for bad in [MAX_NUM_RADII + 1, 70, usize::MAX] {
            assert_eq!(
                with(bad).try_resolve(10),
                Err(crate::error::McCatchError::InvalidNumRadii { got: bad })
            );
        }
        // The largest grid is still geometric and ascending.
        let g = RadiusGrid::new(16.0, MAX_NUM_RADII);
        assert!(g.radii().windows(2).all(|w| w[1] == 2.0 * w[0]));
        assert_eq!(g.radii()[MAX_NUM_RADII - 1], 16.0);
    }

    #[test]
    fn try_resolve_rejects_negative_and_nan_slope() {
        for bad in [-0.1, f64::NAN] {
            let p = Params {
                max_plateau_slope: bad,
                ..Params::default()
            };
            assert!(matches!(
                p.try_resolve(10),
                Err(crate::error::McCatchError::InvalidSlope { .. })
            ));
        }
    }

    #[test]
    fn explicit_zero_cardinality_clamps_like_the_seed_releases() {
        let p = Params {
            max_mc_cardinality: Some(0),
            ..Params::default()
        };
        assert_eq!(p.try_resolve(10).unwrap().c, 1);
    }

    #[test]
    fn radius_grid_is_geometric_and_ends_at_diameter() {
        let g = RadiusGrid::new(64.0, 7);
        assert_eq!(g.radii(), &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]);
        assert_eq!(g.len(), 7);
        assert!(!g.is_degenerate());
    }

    #[test]
    fn radius_grid_matches_paper_formula() {
        // r_e = l / 2^(a-e), e = 1..a (1-indexed).
        let (l, a) = (100.0, 15);
        let g = RadiusGrid::new(l, a);
        for e in 1..=a {
            let want = l / 2f64.powi((a - e) as i32);
            assert!((g.radii()[e - 1] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_grid() {
        let g = RadiusGrid::new(0.0, 15);
        assert!(g.is_degenerate());
        assert!(g.radii().iter().all(|&r| r == 0.0));
    }
}
