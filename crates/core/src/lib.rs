//! # pnsym-core — dense SMC-based encodings for symbolic Petri-net analysis
//!
//! This crate implements the contribution of Pastor & Cortadella,
//! *Efficient Encoding Schemes for Symbolic Analysis of Petri Nets*
//! (DATE 1998): symbolic (BDD-based) reachability analysis of safe Petri
//! nets under **dense state encodings** derived from the net's State Machine
//! Components, alongside the conventional sparse encoding and a ZDD-based
//! sparse engine used as baselines.
//!
//! ## Layers
//!
//! * [`Encoding`] — the three encoding schemes (sparse, dense, improved
//!   dense) as pure combinational data: variable blocks, place codes,
//!   Gray-code assignment ([`AssignmentStrategy`]).
//! * [`SymbolicContext`] — an encoding wired to a BDD manager:
//!   characteristic functions of places (eq. 4), enabling functions
//!   (eq. 5), per-transition constant effects (eq. 6), image computation and
//!   explicit transition relations.
//! * [`ImagePlan`] — the per-context precomputed image artefacts (enabling
//!   functions, quantification and target cubes), clustered by written
//!   variable set and protected across garbage collection.
//! * The pluggable fixpoint engine ([`FixpointStrategy`],
//!   [`TraversalOptions`], [`ReachabilityResult`]): one generic driver
//!   shared by the BDD and ZDD backends, with breadth-first and
//!   level-saturating exploration, and the high-level [`analyze`] /
//!   [`analyze_zdd`] entry points producing the rows of the paper's
//!   tables.
//! * The CTL model checker: the [`Property`] language (combinators and a
//!   textual syntax via [`Property::parse`]), the full operator set
//!   (`EX EF EG AX AF AG EU AU`) as backward fixpoints over a precomputed
//!   [`PreImagePlan`], witness/counterexample extraction
//!   ([`SymbolicContext::check_property`], [`WitnessTrace`]) and the
//!   explicit-state oracle ([`ExplicitChecker`]).
//! * [`toggling`] — toggling-activity metrics (Figure 2, Section 5.2).
//!
//! ## Quick start
//!
//! ```
//! use pnsym_core::{analyze, AnalysisOptions};
//! use pnsym_net::nets::muller;
//!
//! # fn main() -> Result<(), pnsym_core::AnalysisError> {
//! let net = muller(6);
//! let sparse = analyze(&net, &AnalysisOptions::sparse())?;
//! let dense = analyze(&net, &AnalysisOptions::dense())?;
//! assert_eq!(sparse.num_markings, dense.num_markings);
//! assert!(dense.num_variables < sparse.num_variables);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod context;
pub mod encoding;
mod explicit;
mod image;
mod mc;
pub mod plan;
pub mod preplan;
mod property;
pub mod server;
pub mod toggling;
mod trace;
mod traverse;
mod zdd_reach;

pub use analysis::{
    analyze, analyze_zdd, analyze_zdd_governed, analyze_zdd_with, build_encoding, AnalysisError,
    AnalysisOptions, AnalysisReport, DegradationStep, VariableOrder, ZddAnalysisReport,
};
pub use context::SymbolicContext;
pub use encoding::{AssignmentStrategy, Block, Encoding, SchemeKind};
pub use explicit::ExplicitChecker;
pub use image::TransitionEffect;
pub use mc::{CheckReport, PortfolioReport, TraceKind};
pub use plan::{ImageCluster, ImagePlan, PlannedTransition};
pub use preplan::{PreImageCluster, PreImagePlan, PrePlannedTransition};
pub use property::{Property, PropertyParseError};
pub use toggling::{toggling_activity, toggling_of_state_codes, TogglingReport};
pub use trace::WitnessTrace;
pub use traverse::{
    FixpointStrategy, ParseStrategyError, PassObserver, ReachabilityResult, SiftPolicy,
    TraversalOptions,
};
pub use zdd_reach::{ZddContext, ZddReachabilityResult};

// Re-export the kernel's resource-governance vocabulary so downstream
// crates can configure budgets and match truncation reasons without
// depending on `pnsym-bdd` directly.
pub use pnsym_bdd::{Budget, Interrupt, TruncationReason};
#[cfg(feature = "fault-inject")]
pub use pnsym_bdd::{FaultSchedule, FaultSite};
#[cfg(feature = "fault-inject")]
pub use server::snapshot::{DiskFaultSchedule, DiskFaultSite};
