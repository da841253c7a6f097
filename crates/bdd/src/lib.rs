//! # pnsym-bdd — decision diagrams for symbolic Petri-net analysis
//!
//! A from-scratch implementation of Reduced Ordered Binary Decision Diagrams
//! (ROBDDs) and Zero-suppressed Decision Diagrams (ZDDs), sized for the
//! symbolic reachability analyses of the `pnsym` workspace (a reproduction
//! of Pastor & Cortadella, *Efficient Encoding Schemes for Symbolic Analysis
//! of Petri Nets*, DATE 1998).
//!
//! ## Features
//!
//! * Strong canonicity: equal [`Ref`]s ⇔ equal functions.
//! * The full `apply` family ([`BddManager::and`], [`BddManager::or`],
//!   [`BddManager::xor`], [`BddManager::ite`], …), quantification and the
//!   relational product ([`BddManager::and_exists`]), and the one-pass
//!   image and pre-image steps of a transition that sets the variables it
//!   writes to constants ([`BddManager::and_exists_assign`],
//!   [`BddManager::and_cofactor`]).
//! * Explicit garbage collection with protected roots, and dynamic variable
//!   reordering (adjacent swap + Rudell sifting) in [`reorder`].
//! * Counting and enumeration of satisfying assignments.
//! * A [`ZddManager`] for set-family manipulation, used as the sparse
//!   baseline representation of markings (Yoneda et al.).
//!
//! ## Quick start
//!
//! ```
//! use pnsym_bdd::BddManager;
//!
//! let mut m = BddManager::with_vars(3);
//! let (a, b, c) = (m.var_id(0), m.var_id(1), m.var_id(2));
//! let va = m.var(a);
//! let vb = m.var(b);
//! let vc = m.var(c);
//! let ab = m.and(va, vb);
//! let f = m.or(ab, vc);          // (a ∧ b) ∨ c
//! assert_eq!(m.sat_count(f, 3), 5.0);
//! let g = m.exists(f, &[c]);     // ∃c. f  =  true
//! assert_eq!(g, m.one());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod budget;
mod cache;
mod dot;
mod isop;
mod manager;
mod ops;
pub mod reorder;
mod table;
mod transfer;
mod zdd;

pub use analysis::SatAssignments;
pub use budget::{Budget, Interrupt, TruncationReason};
#[cfg(feature = "fault-inject")]
pub use budget::{FaultSchedule, FaultSite};
pub use isop::Cube;
pub use manager::{BddManager, ManagerStats, OpCacheStats, Ref, VarId};
pub use reorder::SiftConfig;
pub use transfer::SerializedBdd;
pub use zdd::{ZddManager, ZddRef, ZddUpdate, ZddUpdateAction};
