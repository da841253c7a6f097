//! # pnsym-structural — structural theory of Petri nets
//!
//! The structural-analysis substrate of the `pnsym` workspace (a
//! reproduction of Pastor & Cortadella, *Efficient Encoding Schemes for
//! Symbolic Analysis of Petri Nets*, DATE 1998):
//!
//! * minimal semi-positive **P-invariants** via Farkas / Martínez–Silva
//!   elimination ([`minimal_invariants`]);
//! * **State Machine Component** extraction and validation ([`find_smcs`],
//!   [`check_smc`]), following Theorem 2.1 of the paper;
//! * the transitions that can carry a **T-semiflow**, which bound the
//!   cycles of the reachability graph ([`semiflow_support`]);
//! * the **unate covering** formulation of SMC selection
//!   ([`select_smc_cover`], Section 4.2), with greedy and exact solvers.
//!
//! ## Quick start
//!
//! ```
//! use pnsym_net::nets::figure1;
//! use pnsym_structural::{find_smcs, select_smc_cover, CoverStrategy};
//!
//! # fn main() -> Result<(), pnsym_structural::InvariantError> {
//! let net = figure1();
//! let smcs = find_smcs(&net)?;
//! assert_eq!(smcs.len(), 2);                        // Figure 2.e
//! let cover = select_smc_cover(&net, &smcs, CoverStrategy::Exact);
//! assert_eq!(cover.num_variables, 4);               // 2 bits per SMC
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod invariants;
mod semiflow;
mod smc;

pub use cover::{select_smc_cover, CoverProblem, CoverStrategy, SmcCover};
pub use invariants::{
    minimal_invariants, minimal_invariants_with, Invariant, InvariantError, InvariantOptions,
};
pub use semiflow::semiflow_support;
pub use smc::{check_smc, find_smcs, find_smcs_with, smcs_from_invariants, Smc, SmcCheckError};
