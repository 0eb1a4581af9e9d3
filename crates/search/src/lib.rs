//! Maximum-likelihood tree search.
//!
//! A hill-climbing search in the style of RAxML, the host program of the
//! paper: rounds of radius-bounded *lazy SPR* moves (only the three
//! branches at the insertion point are re-optimised per candidate, and only
//! the vectors invalidated by the move are recomputed), interleaved with
//! branch-length smoothing and Γ-shape optimisation. The point of this
//! crate for the reproduction is not tree quality per se but the *memory
//! access pattern*: real searches touch ancestral vectors with high
//! locality, which is what makes the paper's out-of-core miss rates so low
//! (§4.2: "access locality is also achieved by in most cases only
//! re-optimizing three branch lengths after a change of the tree topology
//! during the tree search (Lazy SPR technique)").
//!
//! The search layer never talks to the residency layer directly: every
//! likelihood evaluation it requests makes the engine lower its traversal
//! plan into an [`ooc_core::AccessPlan`] and submit it before computing
//! (see `PlfEngine::execute_plan`), so read skipping and plan-aware
//! (NextUse) replacement automatically track each SPR candidate,
//! smoothing pass and MCMC proposal evaluated here.

pub mod hillclimb;
pub mod mcmc;
pub mod nni;
pub mod parsimony;
pub mod spr;

pub use hillclimb::{hill_climb, hill_climb_observed, SearchConfig, SearchStats};
pub use mcmc::{run_mcmc, McmcConfig, McmcStats};
pub use nni::nni_round;
pub use parsimony::{parsimony_stepwise_tree, FitchScorer};
pub use spr::{lazy_spr_round, spr_candidates, SprRoundResult};
