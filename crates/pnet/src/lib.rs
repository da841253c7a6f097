//! # pnsym-net — safe Petri nets, reachability, and benchmark generators
//!
//! The Petri-net substrate of the `pnsym` workspace (a reproduction of
//! Pastor & Cortadella, *Efficient Encoding Schemes for Symbolic Analysis of
//! Petri Nets*, DATE 1998).
//!
//! This crate provides:
//!
//! * the [`PetriNet`] model with the safe token-game semantics,
//!   [`Marking`]s as bitsets, and a [`NetBuilder`];
//! * [`PlaceSet`], the word bitset over places that the structural
//!   pipeline (invariant supports, SMCs, cover selection) works on;
//! * the [`IncidenceMatrix`] and state equation of Section 2.1;
//! * explicit (enumerative) reachability analysis ([`ReachabilityGraph`]),
//!   which serves as the reference the symbolic engines are validated
//!   against;
//! * behavioural property checks ([`BehaviourReport`]);
//! * a small [text format](crate::format) for nets;
//! * the scalable benchmark families of the paper's evaluation in [`nets`].
//!
//! ## Quick start
//!
//! ```
//! use pnsym_net::nets::philosophers;
//!
//! let net = philosophers(2);               // the paper's Figure 4
//! let rg = net.explore().expect("safe");
//! assert_eq!(rg.num_markings(), 22);
//! assert!(!rg.deadlocks(&net).is_empty()); // both can grab their left fork
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod dot;
pub mod format;
mod ids;
mod incidence;
mod marking;
mod net;
pub mod nets;
mod placeset;
mod properties;
mod reach;

pub use builder::{BuildError, NetBuilder};
pub use format::{parse_net, write_net, ParseNetError};
pub use ids::{PlaceId, TransitionId};
pub use incidence::IncidenceMatrix;
pub use marking::Marking;
pub use net::{FireError, PetriNet};
pub use placeset::PlaceSet;
pub use properties::BehaviourReport;
pub use reach::{ExploreError, ExploreOptions, ReachabilityGraph};
