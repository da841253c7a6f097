//! The pluggable symbolic fixpoint engine.
//!
//! One generic driver ([`run_fixpoint`]) computes the reachable-marking
//! fixpoint for *any* backend implementing the small [`FixpointKernel`]
//! trait — the BDD engine of [`SymbolicContext`] and the ZDD engine of
//! [`ZddContext`](crate::ZddContext) both run on it, so garbage-collection
//! adaptation, peak tracking, iteration accounting and truncation live in
//! exactly one place.
//!
//! Two exploration strategies are provided ([`FixpointStrategy`]):
//!
//! * **Breadth-first** — the paper's algorithm: one full image of the
//!   frontier (or of the whole reached set) per iteration.
//! * **Saturation** (the default) — clusters are bucketed by the topmost
//!   decision-diagram level they write and saturated level by level,
//!   bottom-up (deepest levels first): each level's clusters are fired to
//!   a local fixpoint before the next level up fires at all, and firing is
//!   *event-local* — a productive firing re-dirties exactly the clusters
//!   its post-set can newly enable, and only dirty clusters ever re-fire,
//!   so higher clusters re-fire only when something below them actually
//!   changed.
//!   Firing a cluster whose written variables sit deep in the order only
//!   ever rewrites the bottom of the reached-set diagram, so the
//!   intermediate results stay small and heavily cached — the
//!   flat-relation adaptation of Ciardo et al.'s saturation discipline
//!   (see PAPERS.md).

use crate::context::SymbolicContext;
use crate::plan::ImagePlan;
use pnsym_bdd::{Budget, Interrupt, Ref, TruncationReason};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Unwraps a governed kernel call inside a fixpoint driver: on an
/// [`Interrupt`] the macro records the typed truncation reason and breaks
/// out of the labelled traversal loop, so the driver's epilogue releases
/// the intermediate protections and returns the partial result.
macro_rules! governed {
    ($truncated:ident, $label:lifetime, $e:expr) => {
        match $e {
            Ok(value) => value,
            Err(interrupt) => {
                $truncated = Some(interrupt.reason);
                break $label;
            }
        }
    };
}

/// Dynamic variable reordering during traversal: kept for source
/// compatibility; the traversal never reorders. A caller that wants a
/// tuned order sifts the manager between runs
/// ([`pnsym_bdd::BddManager::sift`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiftPolicy {
    /// Never reorder (the only policy).
    #[default]
    Never,
}

/// How the fixpoint driver explores the state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FixpointStrategy {
    /// Breadth-first, the paper's algorithm: one full image per iteration.
    Bfs {
        /// Compute images from the newly discovered frontier only (true)
        /// or from the whole reached set (false).
        use_frontier: bool,
    },
    /// Level saturation: clusters are bucketed by the topmost diagram
    /// level they write (`FixpointKernel::cluster_top_level`) and
    /// saturated bottom-up — each level runs a nested inner fixpoint
    /// before anything above it fires, and a cluster re-fires only when a
    /// productive firing structurally feeds it
    /// (`FixpointKernel::cluster_feeds`), so stable regions of the net
    /// are never re-imaged. Computes the same fixpoint as BFS.
    /// `iterations` counts productive saturation sweeps. The default: it
    /// beats BFS in traversal time and peak nodes on all 15 nets of
    /// `experiments strategies`.
    #[default]
    Saturation,
}

impl std::fmt::Display for FixpointStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixpointStrategy::Bfs { use_frontier: true } => write!(f, "bfs"),
            FixpointStrategy::Bfs {
                use_frontier: false,
            } => write!(f, "bfs-full"),
            FixpointStrategy::Saturation => write!(f, "saturation"),
        }
    }
}

/// Why a strategy name did not parse: the name is unknown, or it names a
/// strategy that was removed after losing its head-to-head measurement
/// against saturation (`chaining`, `chaining-index`, `parallel`,
/// `parallel-N`). The message lists the names that do parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    /// The name as given.
    pub name: String,
    /// Whether `name` is one of the retired spellings.
    pub retired: bool,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.retired { "retired" } else { "unknown" };
        write!(
            f,
            "{what} strategy `{}` (expected bfs, bfs-full or saturation)",
            self.name
        )
    }
}

impl std::error::Error for ParseStrategyError {}

impl std::str::FromStr for FixpointStrategy {
    type Err = ParseStrategyError;

    /// Parses the [`Display`](std::fmt::Display) names: `bfs`, `bfs-full`
    /// and `saturation`.
    fn from_str(name: &str) -> Result<Self, ParseStrategyError> {
        match name {
            "bfs" => Ok(FixpointStrategy::Bfs { use_frontier: true }),
            "bfs-full" => Ok(FixpointStrategy::Bfs {
                use_frontier: false,
            }),
            "saturation" => Ok(FixpointStrategy::Saturation),
            _ => {
                let retired = matches!(name, "chaining" | "chaining-index" | "parallel")
                    || name
                        .strip_prefix("parallel-")
                        .is_some_and(|n| n.parse::<usize>().is_ok());
                Err(ParseStrategyError {
                    name: name.to_string(),
                    retired,
                })
            }
        }
    }
}

/// Options controlling the symbolic traversal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraversalOptions {
    /// The exploration strategy of the fixpoint driver.
    pub strategy: FixpointStrategy,
    /// Initial live-node threshold above which garbage collection runs
    /// between iterations. The threshold adapts upwards: when a collection
    /// leaves more than half the threshold live (the working set genuinely
    /// needs the space), it doubles, so a traversal whose reached set keeps
    /// growing does not pay a useless collection every iteration.
    pub gc_threshold: usize,
    /// Dynamic reordering policy; kept for source compatibility, the
    /// traversal never reorders (see [`SiftPolicy`]).
    pub sift: SiftPolicy,
    /// Abort after this many iterations (safety valve for experiments).
    pub max_iterations: Option<usize>,
    /// Wall-clock budget: the traversal unwinds with
    /// [`TruncationReason::Deadline`] once this much time has elapsed,
    /// checked cooperatively inside the kernel recursions (amortized over
    /// cache misses) and at every pass boundary.
    pub time_budget: Option<Duration>,
    /// Live-node ceiling of the backing manager: breaching it unwinds the
    /// traversal with [`TruncationReason::NodeBudget`].
    pub node_budget: Option<usize>,
    /// Kernel-step ceiling (one step per governed cache miss): breaching
    /// it unwinds the traversal with [`TruncationReason::StepBudget`].
    pub step_budget: Option<u64>,
    /// Deterministic fault-injection schedule driven through the budget's
    /// checkpoints (see [`pnsym_bdd::FaultSchedule`]).
    #[cfg(feature = "fault-inject")]
    pub faults: Option<pnsym_bdd::FaultSchedule>,
}

impl Default for TraversalOptions {
    fn default() -> Self {
        TraversalOptions {
            strategy: FixpointStrategy::default(),
            gc_threshold: 500_000,
            sift: SiftPolicy::Never,
            max_iterations: None,
            time_budget: None,
            node_budget: None,
            step_budget: None,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

impl TraversalOptions {
    /// Default options with the given strategy.
    pub fn with_strategy(strategy: FixpointStrategy) -> Self {
        TraversalOptions {
            strategy,
            ..TraversalOptions::default()
        }
    }

    /// The [`Budget`] these options describe, or `None` when the traversal
    /// is entirely unconstrained (the kernel hot paths then pay nothing).
    pub(crate) fn budget(&self) -> Option<Budget> {
        let mut budget = Budget::new();
        let mut governed = false;
        if let Some(window) = self.time_budget {
            budget = budget.with_deadline(window);
            governed = true;
        }
        if let Some(ceiling) = self.node_budget {
            budget = budget.with_node_ceiling(ceiling);
            governed = true;
        }
        if let Some(ceiling) = self.step_budget {
            budget = budget.with_step_ceiling(ceiling);
            governed = true;
        }
        #[cfg(feature = "fault-inject")]
        if let Some(faults) = self.faults {
            budget = budget.with_faults(faults);
            governed = true;
        }
        governed.then_some(budget)
    }
}

/// The outcome of a symbolic reachability traversal.
#[derive(Debug, Clone, Copy)]
pub struct ReachabilityResult {
    /// The reached set (over the current state variables).
    pub reached: Ref,
    /// Number of reachable markings (exact below 2^53).
    pub num_markings: f64,
    /// Number of fixpoint iterations: breadth-first steps under
    /// [`FixpointStrategy::Bfs`], productive level sweeps under
    /// [`FixpointStrategy::Saturation`].
    pub iterations: usize,
    /// BDD node count of the final reached set.
    pub bdd_nodes: usize,
    /// Exact peak live-node count of the manager up to the end of the
    /// traversal (high-water mark maintained on every allocation, so peaks
    /// *inside* an image computation are captured).
    pub peak_live_nodes: usize,
    /// Wall-clock time of the traversal.
    pub duration: Duration,
    /// Why the traversal stopped early, if it did:
    /// [`TruncationReason::Iterations`] for the
    /// [`TraversalOptions::max_iterations`] safety valve, the budget
    /// reasons for a governed run, `None` for a completed fixpoint. A
    /// truncated `reached` set is a valid *under*-approximation of the
    /// reachable markings, protected in the manager like a complete one.
    pub truncated: Option<TruncationReason>,
    /// The strategy that produced this result.
    pub strategy: FixpointStrategy,
}

/// The raw outcome of the generic driver, before backend-specific
/// statistics are attached.
pub(crate) struct FixpointRun<S> {
    /// The reached set (protected in the backend's manager where
    /// applicable).
    pub reached: S,
    /// Iterations (BFS steps or productive saturation sweeps).
    pub iterations: usize,
    /// Why the run stopped early (iteration limit or budget breach), or
    /// `None` for a completed fixpoint.
    pub truncated: Option<TruncationReason>,
}

/// The minimal backend surface the generic fixpoint driver needs: set
/// algebra, per-cluster images, and optional protection/maintenance hooks.
///
/// Implemented by the BDD engine (over [`SymbolicContext`] and its
/// [`ImagePlan`]) and the ZDD engine.
pub(crate) trait FixpointKernel {
    /// A handle to a set of markings in the backend's manager.
    type Set: Copy + PartialEq;

    /// The empty set.
    fn empty(&self) -> Self::Set;
    /// The traversal's start set: the singleton initial marking, or the
    /// union of it with a resumed checkpoint seed.
    fn initial(&mut self) -> Self::Set;
    /// Called at every productive pass boundary — with the (protected)
    /// partial reached set and the pass count, just before
    /// [`FixpointKernel::maintain`] — so long fixpoints can be
    /// checkpointed at the same sites the budget already forces a check
    /// at. No-op by default.
    fn observe_pass(&mut self, _reached: Self::Set, _iteration: usize) {}
    /// Number of transition clusters.
    fn num_clusters(&self) -> usize;
    /// The clusters in structural order (see
    /// [`structural_transition_ranks`](crate::plan::structural_transition_ranks)):
    /// the firing order within a saturation level, so a level's inner
    /// fixpoint fires along the net's flow.
    fn cluster_sequence(&self) -> Vec<usize>;
    /// The topmost (smallest) decision-diagram level among the variables
    /// the cluster writes; clusters touching nothing report `u32::MAX`.
    /// Drives the level bucketing of [`FixpointStrategy::Saturation`].
    fn cluster_top_level(&self, cluster: usize) -> u32;
    /// Whether firing `from` can newly enable a transition of `to`
    /// (structurally: some member of `from` produces into the pre-set of a
    /// member of `to`). [`FixpointStrategy::Saturation`] terminates as
    /// soon as no cluster is dirty, with no confirming image pass, so this
    /// relation is **load-bearing for soundness**: it must include every
    /// pair where a firing of `from` can mark a pre-place of `to` (an
    /// over-approximation is fine and only costs redundant sweeps; a
    /// missed pair silently truncates the fixpoint).
    fn cluster_feeds(&self, from: usize, to: usize) -> bool;
    /// The image of `from` under every transition of `cluster`, or a typed
    /// [`Interrupt`] when the backend's budget breached mid-computation.
    /// On `Err` the backend must be left consistent: every completed node
    /// and cache entry valid, no protection acquired for the partial work.
    fn cluster_image(&mut self, cluster: usize, from: Self::Set) -> Result<Self::Set, Interrupt>;
    /// Set union (fallible like [`FixpointKernel::cluster_image`]).
    fn union(&mut self, a: Self::Set, b: Self::Set) -> Result<Self::Set, Interrupt>;
    /// Set difference `a \ b` (fallible like
    /// [`FixpointKernel::cluster_image`]).
    fn diff(&mut self, a: Self::Set, b: Self::Set) -> Result<Self::Set, Interrupt>;
    /// Forced budget check at a pass boundary. Unlike the amortized checks
    /// inside the kernel recursions this fires every time it is called, so
    /// even a traversal whose passes are too cheap to reach the amortized
    /// check interval honours its deadline between passes. The default is
    /// a no-op for ungoverned backends.
    fn checkpoint(&mut self) -> Result<(), Interrupt> {
        Ok(())
    }
    /// Protects `s` from backend garbage collection (no-op by default).
    fn protect(&mut self, _s: Self::Set) {}
    /// Releases one protection of `s` (no-op by default).
    fn unprotect(&mut self, _s: Self::Set) {}
    /// Between-iteration maintenance (garbage collection). Called only
    /// when every live root is protected. Must not reorder variables:
    /// [`FixpointStrategy::Saturation`] buckets the clusters by
    /// [`FixpointKernel::cluster_top_level`] once, before the first pass.
    fn maintain(&mut self) {}
}

/// Runs the fixpoint under the given strategy. On return — *including* a
/// truncated return after a budget breach — the reached set carries one
/// protection in the backend (for backends with GC); every intermediate
/// protection has been released.
pub(crate) fn run_fixpoint<K: FixpointKernel>(
    kernel: &mut K,
    strategy: FixpointStrategy,
    max_iterations: Option<usize>,
) -> FixpointRun<K::Set> {
    match strategy {
        FixpointStrategy::Bfs { use_frontier } => bfs(kernel, use_frontier, max_iterations),
        FixpointStrategy::Saturation => saturation(kernel, max_iterations),
    }
}

fn bfs<K: FixpointKernel>(
    kernel: &mut K,
    use_frontier: bool,
    max_iterations: Option<usize>,
) -> FixpointRun<K::Set> {
    let empty = kernel.empty();
    let mut reached = kernel.initial();
    let mut frontier = reached;
    kernel.protect(reached);
    kernel.protect(frontier);

    let mut iterations = 0usize;
    let mut truncated = None;
    'run: loop {
        if let Some(limit) = max_iterations {
            if iterations >= limit {
                truncated = Some(TruncationReason::Iterations);
                break;
            }
        }
        governed!(truncated, 'run, kernel.checkpoint());
        let source = if use_frontier { frontier } else { reached };
        let mut image = empty;
        for cluster in 0..kernel.num_clusters() {
            let img = governed!(truncated, 'run, kernel.cluster_image(cluster, source));
            image = governed!(truncated, 'run, kernel.union(image, img));
        }
        let new = governed!(truncated, 'run, kernel.diff(image, reached));
        if new == empty {
            break;
        }
        let next_reached = governed!(truncated, 'run, kernel.union(reached, new));

        // Re-protect the updated sets and release the previous ones.
        kernel.protect(next_reached);
        kernel.protect(new);
        kernel.unprotect(reached);
        kernel.unprotect(frontier);
        reached = next_reached;
        frontier = new;
        iterations += 1;
        kernel.observe_pass(reached, iterations);
        kernel.maintain();
    }

    kernel.unprotect(frontier);
    FixpointRun {
        reached,
        iterations,
        truncated,
    }
}

/// Buckets the clusters by their topmost written level, deepest level
/// first, keeping the structural order within each bucket so a
/// level's inner fixpoint still fires along the net's flow. Returns the
/// buckets and the inverse map `level_of[cluster] = bucket index`.
fn saturation_buckets<K: FixpointKernel>(kernel: &K) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut buckets: std::collections::BTreeMap<std::cmp::Reverse<u32>, Vec<usize>> =
        std::collections::BTreeMap::new();
    for cluster in kernel.cluster_sequence() {
        buckets
            .entry(std::cmp::Reverse(kernel.cluster_top_level(cluster)))
            .or_default()
            .push(cluster);
    }
    let levels: Vec<Vec<usize>> = buckets.into_values().collect();
    let mut level_of = vec![0usize; kernel.num_clusters()];
    for (li, level) in levels.iter().enumerate() {
        for &c in level {
            level_of[c] = li;
        }
    }
    (levels, level_of)
}

fn saturation<K: FixpointKernel>(
    kernel: &mut K,
    max_iterations: Option<usize>,
) -> FixpointRun<K::Set> {
    let (levels, level_of) = saturation_buckets(kernel);
    let num_clusters = kernel.num_clusters();
    // `feeds[c]` = the clusters whose pre-set intersects the post-set of
    // cluster `c`: the only clusters a productive firing of `c` can newly
    // enable. A transition becomes enabled exactly when a place of its
    // pre-set gets marked, so firing `c` dirties precisely these clusters
    // — the event-locality invariant saturation exploits.
    let feeds: Vec<Vec<usize>> = (0..num_clusters)
        .map(|c| {
            (0..num_clusters)
                .filter(|&b| kernel.cluster_feeds(c, b))
                .collect()
        })
        .collect();

    let mut reached = kernel.initial();
    kernel.protect(reached);

    let mut iterations = 0usize;
    let mut truncated = None;
    // Bottom-up passes over the level buckets, firing only *dirty*
    // clusters: every cluster starts dirty, firing cleans it, and a
    // productive firing re-dirties exactly the clusters it feeds. A dirty
    // level runs a nested inner fixpoint — it is re-swept until its own
    // firings stop feeding it — before any higher level fires, so the
    // deep tail of the diagram is saturated while it is still small, and
    // higher clusters only re-fire when a lower level changed under them.
    // The fixpoint is reached when nothing is dirty; clean clusters are
    // provably saturated (a transition newly enabled by a later firing
    // has a feeding ancestor that re-dirtied it), so no confirming image
    // pass is needed at all.
    let mut dirty = vec![true; num_clusters];
    let mut dirty_level = vec![true; levels.len()];
    'outer: while dirty_level.iter().any(|&d| d) {
        for li in 0..levels.len() {
            if !dirty_level[li] {
                continue;
            }
            loop {
                if let Some(limit) = max_iterations {
                    if iterations >= limit {
                        truncated = Some(TruncationReason::Iterations);
                        break 'outer;
                    }
                }
                governed!(truncated, 'outer, kernel.checkpoint());
                dirty_level[li] = false;
                let mut changed = false;
                for &cluster in &levels[li] {
                    if !dirty[cluster] {
                        continue;
                    }
                    dirty[cluster] = false;
                    let img = governed!(truncated, 'outer, kernel.cluster_image(cluster, reached));
                    // `union != reached` detects productivity directly;
                    // computing the difference first would walk the same
                    // diagrams twice.
                    let next_reached = governed!(truncated, 'outer, kernel.union(reached, img));
                    if next_reached == reached {
                        continue;
                    }
                    kernel.protect(next_reached);
                    kernel.unprotect(reached);
                    reached = next_reached;
                    changed = true;
                    for &fed in &feeds[cluster] {
                        dirty[fed] = true;
                        dirty_level[level_of[fed]] = true;
                    }
                }
                if !changed {
                    break;
                }
                iterations += 1;
                kernel.observe_pass(reached, iterations);
                kernel.maintain();
                if !dirty_level[li] {
                    // The level's own firings fed nothing back into it:
                    // locally saturated without a confirm sweep.
                    break;
                }
            }
        }
    }

    FixpointRun {
        reached,
        iterations,
        truncated,
    }
}

/// A pass-boundary observer for
/// [`SymbolicContext::reachable_markings_observed`]: receives the context,
/// the (protected) partial reached set and the 1-based pass count at every
/// productive pass boundary of the fixpoint.
pub type PassObserver<'h> = dyn FnMut(&SymbolicContext, Ref, usize) + 'h;

/// The BDD backend of the generic driver: cluster images through the
/// context's [`ImagePlan`], manager protection and adaptive GC.
struct BddFixpointKernel<'a, 'h> {
    ctx: &'a mut SymbolicContext,
    plan: Rc<ImagePlan>,
    /// The traversal's start set: the initial marking, or its union with a
    /// resumed checkpoint seed. Computed (and protected) by the caller
    /// before the budget is installed.
    start: Ref,
    /// Optional pass-boundary callback (checkpointing rides here).
    observer: Option<&'a mut PassObserver<'h>>,
}

impl FixpointKernel for BddFixpointKernel<'_, '_> {
    type Set = Ref;

    fn empty(&self) -> Ref {
        self.ctx.manager().zero()
    }

    fn initial(&mut self) -> Ref {
        self.start
    }

    fn observe_pass(&mut self, reached: Ref, iteration: usize) {
        if let Some(observer) = self.observer.as_mut() {
            observer(&*self.ctx, reached, iteration);
        }
    }

    fn num_clusters(&self) -> usize {
        self.plan.num_clusters()
    }

    fn cluster_sequence(&self) -> Vec<usize> {
        self.plan.structural_order().to_vec()
    }

    fn cluster_top_level(&self, cluster: usize) -> u32 {
        // The topmost *current* variable the cluster writes, at its level
        // in the present order.
        let manager = self.ctx.manager();
        self.plan.clusters()[cluster]
            .var_indices
            .iter()
            .map(|&i| manager.level_of(self.ctx.current_vars()[i]))
            .min()
            .unwrap_or(u32::MAX)
    }

    fn cluster_feeds(&self, from: usize, to: usize) -> bool {
        self.plan.cluster_feeds(from, to)
    }

    fn cluster_image(&mut self, cluster: usize, from: Ref) -> Result<Ref, Interrupt> {
        self.ctx.try_cluster_image(cluster, from)
    }

    fn union(&mut self, a: Ref, b: Ref) -> Result<Ref, Interrupt> {
        self.ctx.manager_mut().try_or(a, b)
    }

    fn diff(&mut self, a: Ref, b: Ref) -> Result<Ref, Interrupt> {
        self.ctx.manager_mut().try_diff(a, b)
    }

    fn checkpoint(&mut self) -> Result<(), Interrupt> {
        self.ctx.manager_mut().force_checkpoint()
    }

    fn protect(&mut self, s: Ref) {
        self.ctx.manager_mut().protect(s);
    }

    fn unprotect(&mut self, s: Ref) {
        self.ctx.manager_mut().unprotect(s);
    }

    /// Adaptive garbage collection with the doubling threshold.
    fn maintain(&mut self) {
        let manager = self.ctx.manager_mut();
        if manager.should_collect() {
            manager.collect_garbage();
            // Collections rebuild the tables in place, so running one is
            // cheap — but a collection that reclaims almost nothing means
            // the working set has outgrown the threshold; double it.
            let threshold = manager.gc_threshold();
            if manager.live_node_count() * 2 > threshold {
                manager.set_gc_threshold(threshold * 2);
            }
        }
    }
}

impl SymbolicContext {
    /// Computes the set of reachable markings with default
    /// [`TraversalOptions`] (saturation).
    pub fn reachable_markings(&mut self) -> ReachabilityResult {
        self.reachable_markings_with(TraversalOptions::default())
    }

    /// Computes the set of reachable markings under the strategy and
    /// policies of `options`, through the shared fixpoint driver.
    ///
    /// The returned [`ReachabilityResult::reached`] BDD is protected in the
    /// context's manager and remains valid until the context is dropped.
    pub fn reachable_markings_with(&mut self, options: TraversalOptions) -> ReachabilityResult {
        self.reachable_markings_observed(options, None, None)
    }

    /// [`reachable_markings_with`](Self::reachable_markings_with), resumable
    /// and observable: `seed` (a previously checkpointed partial reached
    /// set, valid in this manager) is folded into the start set, and
    /// `observer` fires at every productive pass boundary with the current
    /// (protected) reached set — the hook long-running fixpoints are
    /// checkpointed through.
    ///
    /// Resuming is always sound: the seed is a subset of the fixpoint, so
    /// the reached set converges to the same BDD as a cold run (only the
    /// pass count differs).
    pub fn reachable_markings_observed(
        &mut self,
        options: TraversalOptions,
        seed: Option<Ref>,
        observer: Option<&mut PassObserver<'_>>,
    ) -> ReachabilityResult {
        let start = Instant::now();
        // Fold the resumed seed into the start set *before* the budget is
        // installed, so the union is never charged to — or interrupted
        // mid-operation by — the governed run itself.
        let start_set = match seed {
            Some(seed) => {
                let initial = self.initial_set();
                self.manager_mut().or(initial, seed)
            }
            None => self.initial_set(),
        };
        self.manager_mut().protect(start_set);
        // The manager's advisory threshold is the single source of truth for
        // the adaptive GC policy in the kernel's maintenance hook.
        self.manager_mut().set_gc_threshold(options.gc_threshold);
        if let Some(budget) = options.budget() {
            self.manager_mut().install_budget(budget);
        }
        let plan = self.image_plan();
        let mut kernel = BddFixpointKernel {
            ctx: self,
            plan,
            start: start_set,
            observer,
        };
        let run = run_fixpoint(&mut kernel, options.strategy, options.max_iterations);
        // The driver protects its own reached set; release the start set's
        // separate protection now that the run is over.
        self.manager_mut().unprotect(start_set);
        // Remove the (possibly breached) budget before computing the result
        // statistics: the manager is back to ungoverned operation and an
        // uninterrupted re-run on the same context completes normally.
        self.manager_mut().take_budget();

        let num_markings = self.count_markings(run.reached);
        let bdd_nodes = self.bdd_size(run.reached);
        ReachabilityResult {
            reached: run.reached,
            num_markings,
            iterations: run.iterations,
            bdd_nodes,
            peak_live_nodes: self.manager().peak_live_nodes(),
            duration: start.elapsed(),
            truncated: run.truncated,
            strategy: options.strategy,
        }
    }

    /// Convenience: reachability plus symbolic deadlock detection.
    /// Returns the traversal result and the number of reachable deadlocked
    /// markings.
    pub fn analyze_deadlocks(&mut self, options: TraversalOptions) -> (ReachabilityResult, f64) {
        let result = self.reachable_markings_with(options);
        let dead = self.deadlocks_in(result.reached);
        let count = self.count_markings(dead);
        (result, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{AssignmentStrategy, Encoding};
    use pnsym_net::nets::{dme, figure1, muller, philosophers, slotted_ring, DmeStyle};
    use pnsym_net::PetriNet;
    use pnsym_structural::{find_smcs, CoverStrategy};

    fn schemes(net: &PetriNet) -> Vec<Encoding> {
        let smcs = find_smcs(net).unwrap();
        vec![
            Encoding::sparse(net),
            Encoding::dense(net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray),
            Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
        ]
    }

    fn all_strategies() -> [FixpointStrategy; 3] {
        [
            FixpointStrategy::Bfs { use_frontier: true },
            FixpointStrategy::Bfs {
                use_frontier: false,
            },
            FixpointStrategy::Saturation,
        ]
    }

    #[test]
    fn retired_strategy_names_are_typed_errors() {
        assert_eq!(FixpointStrategy::default(), FixpointStrategy::Saturation);
        for name in ["chaining", "chaining-index", "parallel", "parallel-2"] {
            let err = name.parse::<FixpointStrategy>().unwrap_err();
            assert!(err.retired, "{name}");
            assert!(err.to_string().contains("bfs, bfs-full or saturation"));
        }
        let err = "dfs".parse::<FixpointStrategy>().unwrap_err();
        assert!(!err.retired);
    }

    #[test]
    fn symbolic_counts_match_explicit_counts() {
        let nets = vec![
            figure1(),
            philosophers(2),
            philosophers(3),
            muller(4),
            slotted_ring(3),
            dme(3, DmeStyle::Spec),
        ];
        for net in nets {
            let expected = net.explore().unwrap().num_markings() as f64;
            for enc in schemes(&net) {
                let scheme = enc.scheme();
                let mut ctx = SymbolicContext::new(&net, enc);
                let result = ctx.reachable_markings();
                assert_eq!(
                    result.num_markings,
                    expected,
                    "{} under {:?}",
                    net.name(),
                    scheme
                );
                assert!(result.truncated.is_none());
                assert!(result.iterations > 0);
            }
        }
    }

    #[test]
    fn every_strategy_reaches_the_same_fixpoint() {
        for net in [figure1(), philosophers(3), muller(4), slotted_ring(3)] {
            let expected = net.explore().unwrap().num_markings() as f64;
            for enc in schemes(&net) {
                for strategy in all_strategies() {
                    let mut ctx = SymbolicContext::new(&net, enc.clone());
                    let result =
                        ctx.reachable_markings_with(TraversalOptions::with_strategy(strategy));
                    assert_eq!(
                        result.num_markings,
                        expected,
                        "{} under {:?} with {}",
                        net.name(),
                        enc.scheme(),
                        strategy
                    );
                    assert_eq!(result.strategy, strategy);
                    assert!(result.truncated.is_none());
                }
            }
        }
    }

    #[test]
    fn every_explicit_marking_is_in_the_symbolic_set() {
        let net = philosophers(2);
        let rg = net.explore().unwrap();
        for enc in schemes(&net) {
            let mut ctx = SymbolicContext::new(&net, enc);
            let result = ctx.reachable_markings();
            for m in rg.markings() {
                assert!(ctx.set_contains(result.reached, m));
            }
        }
    }

    #[test]
    fn frontier_and_full_breadth_first_agree() {
        let net = muller(3);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let mut a = SymbolicContext::new(&net, enc.clone());
        let mut b = SymbolicContext::new(&net, enc);
        let ra =
            a.reachable_markings_with(TraversalOptions::with_strategy(FixpointStrategy::Bfs {
                use_frontier: true,
            }));
        let rb =
            b.reachable_markings_with(TraversalOptions::with_strategy(FixpointStrategy::Bfs {
                use_frontier: false,
            }));
        assert_eq!(ra.num_markings, rb.num_markings);
    }

    #[test]
    fn deadlock_detection_matches_explicit() {
        let net = philosophers(3);
        let explicit = net.explore().unwrap().deadlocks(&net).len() as f64;
        for enc in schemes(&net) {
            for strategy in all_strategies() {
                let mut ctx = SymbolicContext::new(&net, enc.clone());
                let (_, dead) = ctx.analyze_deadlocks(TraversalOptions::with_strategy(strategy));
                assert_eq!(dead, explicit, "{strategy}");
            }
        }
    }

    #[test]
    fn max_iterations_truncates() {
        let net = muller(4);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let result = ctx.reachable_markings_with(TraversalOptions {
            max_iterations: Some(1),
            ..TraversalOptions::with_strategy(FixpointStrategy::Bfs { use_frontier: true })
        });
        assert_eq!(result.truncated, Some(TruncationReason::Iterations));
        let full = SymbolicContext::new(&net, Encoding::sparse(&net))
            .reachable_markings()
            .num_markings;
        assert!(result.num_markings < full);
    }

    #[test]
    fn saturation_agrees_and_keeps_the_peak_small_on_pipelined_nets() {
        // Saturation computes the same fixpoint as BFS on every family; on
        // the deeply pipelined Muller nets its level-local firing keeps the
        // intermediate diagrams far below the BFS peak and converges in
        // fewer productive sweeps than BFS needs full-image iterations.
        for net in [slotted_ring(3), dme(3, DmeStyle::Spec), muller(8)] {
            let smcs = find_smcs(&net).unwrap();
            let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
            let mut a = SymbolicContext::new(&net, enc.clone());
            let mut b = SymbolicContext::new(&net, enc);
            let bfs =
                a.reachable_markings_with(TraversalOptions::with_strategy(FixpointStrategy::Bfs {
                    use_frontier: true,
                }));
            let sat = b.reachable_markings_with(TraversalOptions::with_strategy(
                FixpointStrategy::Saturation,
            ));
            assert_eq!(bfs.num_markings, sat.num_markings, "{}", net.name());
            assert!(sat.truncated.is_none());
            assert!(sat.iterations > 0);
            assert_eq!(sat.strategy, FixpointStrategy::Saturation);
            if net.name().starts_with("muller") {
                assert!(
                    sat.iterations < bfs.iterations,
                    "{}: saturation took {} sweeps vs {} BFS iterations",
                    net.name(),
                    sat.iterations,
                    bfs.iterations
                );
                assert!(
                    sat.peak_live_nodes < bfs.peak_live_nodes,
                    "{}: saturation peaked at {} live nodes vs {} for BFS",
                    net.name(),
                    sat.peak_live_nodes,
                    bfs.peak_live_nodes
                );
            }
        }
    }

    #[test]
    fn max_iterations_truncates_saturation_sweeps() {
        let net = muller(6);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let result = ctx.reachable_markings_with(TraversalOptions {
            max_iterations: Some(1),
            strategy: FixpointStrategy::Saturation,
            ..TraversalOptions::default()
        });
        assert_eq!(result.truncated, Some(TruncationReason::Iterations));
        assert_eq!(result.iterations, 1);
        let full = SymbolicContext::new(&net, Encoding::sparse(&net))
            .reachable_markings()
            .num_markings;
        assert!(result.num_markings < full);
    }

    #[test]
    fn gc_during_traversal_preserves_the_answer() {
        // A tiny threshold forces collections after nearly every iteration,
        // exercising protection of the plan's cubes under both strategies.
        let net = slotted_ring(3);
        let expected = net.explore().unwrap().num_markings() as f64;
        for strategy in all_strategies() {
            let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
            let result = ctx.reachable_markings_with(TraversalOptions {
                gc_threshold: 64,
                strategy,
                ..TraversalOptions::default()
            });
            assert_eq!(result.num_markings, expected, "{strategy}");
            assert!(ctx.manager().stats().gc_runs > 0);
        }
    }

    #[test]
    fn peak_live_nodes_is_a_true_high_water_mark() {
        let net = muller(6);
        let mut ctx = SymbolicContext::new(&net, Encoding::sparse(&net));
        let before = ctx.manager().live_node_count();
        let result = ctx.reachable_markings();
        assert!(result.peak_live_nodes >= before);
        assert!(result.peak_live_nodes >= result.bdd_nodes);
        // The exact counter can only grow and never under-reports the
        // currently live set.
        assert!(result.peak_live_nodes >= ctx.manager().live_node_count());
        assert_eq!(result.peak_live_nodes, ctx.manager().peak_live_nodes());
    }

    #[test]
    fn dense_reached_set_is_smaller_on_muller() {
        let net = muller(6);
        let smcs = find_smcs(&net).unwrap();
        let mut sparse = SymbolicContext::new(&net, Encoding::sparse(&net));
        let mut dense = SymbolicContext::new(
            &net,
            Encoding::improved(&net, &smcs, AssignmentStrategy::Gray),
        );
        let rs = sparse.reachable_markings();
        let rd = dense.reachable_markings();
        assert_eq!(rs.num_markings, rd.num_markings);
        assert!(
            rd.bdd_nodes < rs.bdd_nodes,
            "dense ({}) should beat sparse ({})",
            rd.bdd_nodes,
            rs.bdd_nodes
        );
    }
}
