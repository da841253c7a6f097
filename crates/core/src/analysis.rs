//! High-level analysis API: build an encoding, run the symbolic traversal
//! and collect the statistics reported in the paper's tables.

use crate::context::SymbolicContext;
use crate::encoding::{AssignmentStrategy, Encoding, SchemeKind};
use crate::traverse::{FixpointStrategy, TraversalOptions};
use crate::zdd_reach::ZddContext;
use pnsym_bdd::TruncationReason;
use pnsym_net::PetriNet;
use pnsym_structural::{find_smcs_with, CoverStrategy, InvariantError, InvariantOptions};
use std::fmt;
use std::time::{Duration, Instant};

/// The static variable order of the state variables: kept for source
/// compatibility; the traversal never reorders, so the encoding's
/// structural layout is the only order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariableOrder {
    /// The encoding's structural layout: components in breadth-first
    /// distance order from the initially marked places, as laid out by the
    /// encoding construction.
    #[default]
    Structural,
}

/// Options for a full symbolic analysis of one net under one scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisOptions {
    /// The encoding scheme to use.
    pub scheme: SchemeKind,
    /// Code-assignment strategy within SMC blocks.
    pub assignment: AssignmentStrategy,
    /// Covering solver used by the basic dense scheme.
    pub cover_strategy: CoverStrategy,
    /// Limits for the P-invariant computation.
    pub invariants: InvariantOptions,
    /// Static variable order; kept for source compatibility (see
    /// [`VariableOrder`]).
    pub order: VariableOrder,
    /// Traversal options.
    pub traversal: TraversalOptions,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            scheme: SchemeKind::ImprovedDense,
            assignment: AssignmentStrategy::Gray,
            cover_strategy: CoverStrategy::Greedy,
            invariants: InvariantOptions::default(),
            order: VariableOrder::Structural,
            traversal: TraversalOptions::default(),
        }
    }
}

impl AnalysisOptions {
    /// Options for the conventional sparse encoding.
    pub fn sparse() -> Self {
        AnalysisOptions {
            scheme: SchemeKind::Sparse,
            ..AnalysisOptions::default()
        }
    }

    /// Options for the paper's dense (improved SMC-based) encoding.
    pub fn dense() -> Self {
        AnalysisOptions::default()
    }

    /// The same options with the given traversal strategy.
    pub fn with_strategy(mut self, strategy: FixpointStrategy) -> Self {
        self.traversal.strategy = strategy;
        self
    }
}

/// The statistics of one analysis run — one row of the paper's tables.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The analysed net's name.
    pub net_name: String,
    /// The encoding scheme used.
    pub scheme: SchemeKind,
    /// Number of places of the net.
    pub num_places: usize,
    /// Number of transitions of the net.
    pub num_transitions: usize,
    /// Number of boolean state variables (column `V`).
    pub num_variables: usize,
    /// Number of reachable markings.
    pub num_markings: f64,
    /// BDD node count of the reached set (column `BDD`).
    pub bdd_nodes: usize,
    /// Peak live BDD nodes during the traversal.
    pub peak_live_nodes: usize,
    /// Fixpoint iterations (BFS steps or saturation sweeps) to convergence.
    pub iterations: usize,
    /// The traversal strategy used.
    pub strategy: FixpointStrategy,
    /// Number of reachable deadlocked markings.
    pub num_deadlocks: f64,
    /// Time spent computing invariants, SMCs and the encoding.
    pub encoding_time: Duration,
    /// Time spent in the symbolic traversal.
    pub traversal_time: Duration,
    /// Total wall-clock time (column `CPU`).
    pub total_time: Duration,
    /// Kernel statistics of the BDD manager at the end of the analysis
    /// (unique-table load, computed-cache hit rate, GC activity).
    pub manager_stats: pnsym_bdd::ManagerStats,
    /// Why the traversal stopped early, or `None` for a complete fixpoint.
    /// When set, [`AnalysisReport::num_markings`] and
    /// [`AnalysisReport::num_deadlocks`] describe a (sound)
    /// under-approximation of the reachable state space, not the fixpoint.
    pub truncated: Option<TruncationReason>,
    /// The degradation step taken after a recoverable breach (see
    /// [`DegradationStep`]), or `None` when the first attempt stood. When
    /// set, every traversal-related field of the report describes the
    /// *retry*, and [`AnalysisReport::truncated`] tells whether the retry
    /// itself completed.
    pub degraded: Option<DegradationStep>,
}

/// The one-shot degradation ladder of [`analyze`]: a recoverable breach is
/// retried once under a cheaper profile before the truncated result is
/// accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationStep {
    /// The live-node ceiling breached: the partial result was released, a
    /// garbage collection and a sifting pass shrank the working set, and
    /// the traversal was retried once under
    /// [`FixpointStrategy::Saturation`] (the lowest-peak-pressure
    /// strategy), same budget.
    NodeBudgetRetry,
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:<14} markings={:<12e} V={:<4} BDD={:<8} CPU={:.3}s",
            self.net_name,
            self.scheme.to_string(),
            self.num_markings,
            self.num_variables,
            self.bdd_nodes,
            self.total_time.as_secs_f64()
        )
    }
}

/// Errors reported by [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The structural phase (P-invariants) exceeded its limits.
    Structural(InvariantError),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Structural(e) => write!(f, "structural analysis failed: {e}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<InvariantError> for AnalysisError {
    fn from(e: InvariantError) -> Self {
        AnalysisError::Structural(e)
    }
}

/// Builds the requested encoding for `net`.
///
/// # Errors
///
/// Returns [`AnalysisError::Structural`] if the P-invariant computation
/// exceeds its row limit (only possible for the dense schemes).
pub fn build_encoding(
    net: &PetriNet,
    options: &AnalysisOptions,
) -> Result<Encoding, AnalysisError> {
    Ok(match options.scheme {
        SchemeKind::Sparse => Encoding::sparse(net),
        SchemeKind::Dense => {
            let smcs = find_smcs_with(net, options.invariants)?;
            Encoding::dense(net, &smcs, options.cover_strategy, options.assignment)
        }
        SchemeKind::ImprovedDense => {
            let smcs = find_smcs_with(net, options.invariants)?;
            Encoding::improved(net, &smcs, options.assignment)
        }
    })
}

/// Runs a full analysis of `net`: encoding construction, symbolic
/// reachability and deadlock detection.
///
/// # Errors
///
/// Returns [`AnalysisError::Structural`] if the structural phase fails.
///
/// # Examples
///
/// ```
/// use pnsym_core::{analyze, AnalysisOptions};
/// use pnsym_net::nets::philosophers;
///
/// # fn main() -> Result<(), pnsym_core::AnalysisError> {
/// let net = philosophers(2);
/// let report = analyze(&net, &AnalysisOptions::dense())?;
/// assert_eq!(report.num_markings, 22.0);
/// assert_eq!(report.num_variables, 8);
/// # Ok(())
/// # }
/// ```
pub fn analyze(net: &PetriNet, options: &AnalysisOptions) -> Result<AnalysisReport, AnalysisError> {
    let start = Instant::now();
    let encoding = build_encoding(net, options)?;
    let num_variables = encoding.num_vars();
    let encoding_time = start.elapsed();

    let mut ctx = SymbolicContext::new(net, encoding);
    let mut result = ctx.reachable_markings_with(options.traversal);
    let mut degraded = None;
    if result.truncated == Some(TruncationReason::NodeBudget) {
        // Degrade once: release the partial result, reclaim and compact
        // the working set, and retry under the strategy with the lowest
        // peak node pressure. The same budget applies to the retry; if
        // the slimmer profile still breaches, the second truncated
        // result stands.
        ctx.manager_mut().unprotect(result.reached);
        ctx.manager_mut().collect_garbage();
        ctx.manager_mut().sift();
        let retry = TraversalOptions {
            strategy: FixpointStrategy::Saturation,
            ..options.traversal
        };
        result = ctx.reachable_markings_with(retry);
        degraded = Some(DegradationStep::NodeBudgetRetry);
    }
    let dead = ctx.deadlocks_in(result.reached);
    let num_deadlocks = ctx.count_markings(dead);
    let manager_stats = ctx.stats();

    Ok(AnalysisReport {
        net_name: net.name().to_string(),
        scheme: options.scheme,
        num_places: net.num_places(),
        num_transitions: net.num_transitions(),
        num_variables,
        num_markings: result.num_markings,
        bdd_nodes: result.bdd_nodes,
        peak_live_nodes: result.peak_live_nodes,
        iterations: result.iterations,
        strategy: result.strategy,
        num_deadlocks,
        encoding_time,
        traversal_time: result.duration,
        total_time: start.elapsed(),
        manager_stats,
        truncated: result.truncated,
        degraded,
    })
}

/// The statistics of one ZDD-based (sparse) analysis run — the left-hand
/// side of Table 4.
#[derive(Debug, Clone)]
pub struct ZddAnalysisReport {
    /// The analysed net's name.
    pub net_name: String,
    /// Number of ZDD elements (= places) used to represent markings.
    pub num_variables: usize,
    /// Number of reachable markings.
    pub num_markings: f64,
    /// ZDD node count of the reached family.
    pub zdd_nodes: usize,
    /// Fixpoint iterations (BFS steps or saturation sweeps) to convergence.
    pub iterations: usize,
    /// The traversal strategy used.
    pub strategy: FixpointStrategy,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Why the traversal stopped early, or `None` for a complete fixpoint.
    pub truncated: Option<TruncationReason>,
}

/// Runs the ZDD-based sparse analysis of `net` (Yoneda et al.'s
/// representation) with the default strategy (saturation).
pub fn analyze_zdd(net: &PetriNet) -> ZddAnalysisReport {
    analyze_zdd_with(net, FixpointStrategy::default())
}

/// Runs the ZDD-based sparse analysis of `net` under the given traversal
/// strategy (the ZDD engine shares the fixpoint driver of the BDD engine).
pub fn analyze_zdd_with(net: &PetriNet, strategy: FixpointStrategy) -> ZddAnalysisReport {
    analyze_zdd_run(net, strategy, None)
}

/// [`analyze_zdd_with`] under a resource [`Budget`](pnsym_bdd::Budget): on
/// a breach the report carries the partial (under-approximated) family and
/// the typed [`TruncationReason`].
pub fn analyze_zdd_governed(
    net: &PetriNet,
    strategy: FixpointStrategy,
    budget: pnsym_bdd::Budget,
) -> ZddAnalysisReport {
    analyze_zdd_run(net, strategy, Some(budget))
}

fn analyze_zdd_run(
    net: &PetriNet,
    strategy: FixpointStrategy,
    budget: Option<pnsym_bdd::Budget>,
) -> ZddAnalysisReport {
    let start = Instant::now();
    let mut ctx = ZddContext::new(net);
    let result = match budget {
        Some(budget) => ctx.reachable_markings_governed(strategy, budget),
        None => ctx.reachable_markings_with(strategy),
    };
    ZddAnalysisReport {
        net_name: net.name().to_string(),
        num_variables: net.num_places(),
        num_markings: result.num_markings,
        zdd_nodes: result.zdd_nodes,
        iterations: result.iterations,
        strategy,
        total_time: start.elapsed(),
        truncated: result.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::nets::{figure1, muller, philosophers};

    #[test]
    fn sparse_and_dense_reports_agree_on_markings() {
        let net = muller(4);
        let sparse = analyze(&net, &AnalysisOptions::sparse()).unwrap();
        let dense = analyze(&net, &AnalysisOptions::dense()).unwrap();
        assert_eq!(sparse.num_markings, dense.num_markings);
        assert!(dense.num_variables < sparse.num_variables);
        assert!(dense.num_variables * 2 == sparse.num_variables);
    }

    #[test]
    fn report_fields_are_populated() {
        let net = figure1();
        let report = analyze(&net, &AnalysisOptions::dense()).unwrap();
        assert_eq!(report.net_name, "figure1");
        assert_eq!(report.num_places, 7);
        assert_eq!(report.num_transitions, 7);
        assert_eq!(report.num_markings, 8.0);
        assert_eq!(report.num_variables, 4);
        assert_eq!(report.num_deadlocks, 0.0);
        assert!(report.bdd_nodes > 0);
        assert!(report.total_time >= report.traversal_time);
        assert!(report.to_string().contains("figure1"));
    }

    #[test]
    fn zdd_report_matches_bdd_marking_count() {
        let net = philosophers(2);
        let zdd = analyze_zdd(&net);
        let bdd = analyze(&net, &AnalysisOptions::sparse()).unwrap();
        assert_eq!(zdd.num_markings, bdd.num_markings);
        assert_eq!(zdd.num_variables, 14);
    }

    #[test]
    fn an_untruncated_analysis_reports_no_degradation() {
        let net = figure1();
        let report = analyze(&net, &AnalysisOptions::dense()).unwrap();
        assert_eq!(report.truncated, None);
        assert_eq!(report.degraded, None);
    }

    #[test]
    fn a_node_budget_breach_degrades_to_saturation_once() {
        // A one-node ceiling cannot be met by any profile, so both the
        // first attempt and the degraded retry truncate — but the ladder
        // must have run exactly once, the report must say so, and the
        // partial result must stay a sound under-approximation.
        let net = philosophers(3);
        let expected = net.explore().unwrap().num_markings() as f64;
        let mut options =
            AnalysisOptions::dense().with_strategy(FixpointStrategy::Bfs { use_frontier: true });
        options.traversal.node_budget = Some(1);
        let report = analyze(&net, &options).unwrap();
        assert_eq!(report.degraded, Some(DegradationStep::NodeBudgetRetry));
        assert_eq!(report.truncated, Some(TruncationReason::NodeBudget));
        assert_eq!(report.strategy, FixpointStrategy::Saturation);
        assert!(report.num_markings <= expected);
    }

    #[test]
    fn a_generous_node_budget_completes_without_degrading() {
        let net = philosophers(3);
        let expected = net.explore().unwrap().num_markings() as f64;
        let mut options = AnalysisOptions::dense();
        options.traversal.node_budget = Some(usize::MAX);
        let report = analyze(&net, &options).unwrap();
        assert_eq!(report.truncated, None);
        assert_eq!(report.degraded, None);
        assert_eq!(report.num_markings, expected);
    }

    #[test]
    fn a_tiny_deadline_truncates_with_a_typed_reason() {
        use std::time::Duration;
        let net = muller(6);
        let mut options = AnalysisOptions::dense();
        options.traversal.time_budget = Some(Duration::ZERO);
        let report = analyze(&net, &options).unwrap();
        assert_eq!(report.truncated, Some(TruncationReason::Deadline));
        assert_eq!(report.degraded, None, "deadlines are not retried");
    }

    #[test]
    fn structural_failure_is_reported() {
        let net = philosophers(3);
        let mut options = AnalysisOptions::dense();
        options.invariants = InvariantOptions { max_rows: 1 };
        assert!(matches!(
            analyze(&net, &options),
            Err(AnalysisError::Structural(_))
        ));
    }
}
