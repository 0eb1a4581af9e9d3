//! The Phylogenetic Likelihood Function (PLF) engine.
//!
//! Computes the likelihood of a multiple sequence alignment on an unrooted
//! binary tree by the Felsenstein pruning algorithm, in the architecture of
//! RAxML (the paper's host program):
//!
//! * one *ancestral probability vector* per inner node, laid out
//!   `[pattern][rate category][state]` as one contiguous block — the unit
//!   the out-of-core layer pages,
//! * tip lookup tables for ambiguity-coded tips ([`encode`]),
//! * `newview` combine kernels with 2⁻²⁵⁶ underflow scaling
//!   ([`kernels::newview`], [`scaling`]), behind runtime-dispatched
//!   backends — scalar reference, unrolled DNA/Γ4, AVX2+FMA
//!   ([`kernels::backend`]), selected per CPU at engine construction and
//!   overridable via `OOC_PLF_KERNEL`,
//! * root evaluation and eigenbasis "sumtable" branch-length derivatives
//!   for Newton–Raphson optimisation ([`kernels::evaluate`],
//!   [`kernels::derivatives`]),
//! * orientation-aware full and partial traversals ([`engine`]),
//! * Γ-shape and branch-length optimisation ([`modelopt`], [`brlen`]).
//!
//! The engine is generic over an [`AncestralStore`]: the same maths runs
//! fully in RAM ([`store_api::InRamStore`]), out-of-core through
//! `ooc_core::VectorManager` ([`store_api::OocStore`]), or against the
//! paging simulator ([`store_api::PagedStore`]). The paper's correctness
//! criterion — bit-identical log-likelihoods across all three — is enforced
//! in this crate's tests.

pub mod brlen;
pub mod encode;
pub mod engine;
pub mod kernels;
pub mod likelihood_api;
pub mod modelopt;
pub mod oracle;
pub mod scaling;
pub mod spec;
pub mod store_api;

pub use encode::TipCodes;
pub use engine::{PartLayout, PlfEngine, PlfModel};
pub use kernels::KernelBackend;
pub use likelihood_api::LikelihoodEngine;
pub use oracle::{SharedTree, TreeOracle};
pub use spec::{
    BuildContext, BuiltEngine, DynEngine, EngineSpec, PartSpec, Residency, SpecError, SpecSpace,
};
pub use store_api::{AncestralStore, InRamStore, OocStore, PagedStore, VectorSession};
