//! Model-parameter optimisation.
//!
//! Currently the Γ shape parameter α, optimised by Brent's method. Each
//! candidate α invalidates every ancestral vector, so evaluation requires a
//! full tree traversal — the paper notes this is exactly why full
//! traversals (its worst case for vector locality) cannot be avoided in
//! real analyses: "Full tree traversals are required to optimize likelihood
//! model parameters such as the α shape parameter of the Γ model."

use crate::store_api::AncestralStore;
use crate::PlfEngine;
use ooc_core::{OocError, OocResult};
use phylo_models::brent_minimize;

/// Search range for α (RAxML uses a similar clamp).
pub const ALPHA_MIN: f64 = 0.02;
/// Upper bound for α.
pub const ALPHA_MAX: f64 = 100.0;

impl<S: AncestralStore> PlfEngine<S> {
    /// Optimise the Γ shape the partitions share by Brent's method on
    /// `ln α` (the likelihood surface is better conditioned in log space)
    /// over the joint log-likelihood. Returns `(alpha, log_likelihood)`.
    pub fn optimize_alpha(&mut self, tol: f64, max_iter: u32) -> OocResult<(f64, f64)> {
        // Brent's minimiser takes an infallible objective; capture the first
        // I/O error, poison further evaluations with +inf, and surface the
        // error afterwards.
        let mut io_error: Option<OocError> = None;
        let result = brent_minimize(
            |ln_a| {
                if io_error.is_some() {
                    return f64::INFINITY;
                }
                self.set_alpha(ln_a.exp());
                match self.log_likelihood() {
                    Ok(lnl) => -lnl,
                    Err(e) => {
                        io_error = Some(e);
                        f64::INFINITY
                    }
                }
            },
            ALPHA_MIN.ln(),
            ALPHA_MAX.ln(),
            tol,
            max_iter,
        );
        if let Some(e) = io_error {
            return Err(e);
        }
        let alpha = result.x.exp();
        self.set_alpha(alpha);
        let lnl = self.log_likelihood()?;
        Ok((alpha, lnl))
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::tests::build_engine;

    #[test]
    fn alpha_optimisation_improves_likelihood() {
        let mut engine = build_engine(12, 150, 61);
        engine.set_alpha(5.0); // deliberately wrong (data simulated at 0.8)
        let before = engine.log_likelihood().unwrap();
        let (alpha, after) = engine.optimize_alpha(1e-3, 60).unwrap();
        assert!(after >= before - 1e-9, "{before} -> {after}");
        assert!((crate::modelopt::ALPHA_MIN..=crate::modelopt::ALPHA_MAX).contains(&alpha));
        // The optimum should be much closer to the simulation value than
        // the deliberately wrong start.
        assert!(alpha < 5.0, "optimised alpha {alpha}");
    }

    #[test]
    fn alpha_stationarity() {
        let mut engine = build_engine(10, 120, 62);
        let (alpha, lnl) = engine.optimize_alpha(1e-4, 80).unwrap();
        for factor in [0.9, 1.1] {
            engine.set_alpha(alpha * factor);
            let l = engine.log_likelihood().unwrap();
            assert!(l <= lnl + 1e-6, "alpha {} beats optimum", alpha * factor);
        }
    }
}
