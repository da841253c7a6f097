//! The pluggable symbolic fixpoint engine.
//!
//! One generic driver ([`run_fixpoint`]) computes the reachable-marking
//! fixpoint for *any* backend implementing the small [`FixpointKernel`]
//! trait — the BDD engine of [`SymbolicContext`] and the ZDD engine of
//! [`ZddContext`](crate::ZddContext) both run on it, as does the CTL
//! checker's backward `EF` (in `mc.rs`), so garbage-collection
//! adaptation, peak tracking, iteration accounting and truncation live in
//! exactly one place.
//!
//! Two exploration strategies are provided ([`FixpointStrategy`]):
//!
//! * **Breadth-first** — the paper's algorithm: one full image of the
//!   frontier (or of the whole reached set) per iteration.
//! * **Saturation** (the default) — transitions are bucketed by the
//!   topmost decision-diagram level they write and saturated level by
//!   level, bottom-up (deepest levels first): each level's transitions are
//!   fired to a local fixpoint before the next level up fires at all, and
//!   firing is *event-local* — a productive firing re-dirties exactly the
//!   transitions its post-set can newly enable, and only dirty transitions
//!   ever re-fire, so higher transitions re-fire only when something below
//!   them actually changed.
//!   Firing a transition whose written variables sit deep in the order only
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
    /// Level saturation: transitions are bucketed by the topmost diagram
    /// level they write (`FixpointKernel::top_level`) and saturated
    /// bottom-up — each level runs a nested inner fixpoint before anything
    /// above it fires, and a transition re-fires only when a productive
    /// firing structurally feeds it (`FixpointKernel::feeds`), so stable
    /// regions of the net are never re-imaged. Computes the same fixpoint
    /// as BFS.
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

    /// These options with the time budget cut to what is left of it at
    /// this instant, counted from `start` (`Duration::ZERO` once it has
    /// passed). The phases of one query each take their options from
    /// here, so the window bounds the whole query, not each phase.
    pub(crate) fn remaining_since(self, start: Instant) -> TraversalOptions {
        TraversalOptions {
            time_budget: self
                .time_budget
                .map(|window| window.saturating_sub(start.elapsed())),
            ..self
        }
    }
}

/// The outcome of a symbolic reachability traversal.
#[derive(Debug, Clone, Copy)]
pub struct ReachabilityResult {
    /// The reached set (over the state variables).
    pub reached: Ref,
    /// Number of reachable markings: approximate once the encoding passes
    /// 53 variables (see [`pnsym_bdd::BddManager::sat_count`]).
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
/// algebra, per-transition images, and optional protection/maintenance
/// hooks. The unit it schedules and fires is one transition, named by its
/// index.
///
/// Implemented by the forward BDD engine (over [`SymbolicContext`] and its
/// [`ImagePlan`]), the ZDD engine, and the CTL checker's backward kernel,
/// which runs `EF` on [`FixpointStrategy::Saturation`]: its "image" under
/// a transition is the transition's pre-image restricted to a set closed
/// under successors, and its feeds relation is the transpose of the
/// forward one.
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
    /// Number of transitions.
    fn num_transitions(&self) -> usize;
    /// The transitions in firing order (see
    /// [`structural_transition_ranks`](crate::plan::structural_transition_ranks)):
    /// the order within a saturation level, so a level's inner fixpoint
    /// fires along the net's flow.
    fn firing_order(&self) -> Vec<usize>;
    /// The topmost (smallest) decision-diagram level among the variables
    /// the transition writes; a transition writing nothing reports
    /// `u32::MAX`. Drives the level bucketing of
    /// [`FixpointStrategy::Saturation`].
    fn top_level(&self, t: usize) -> u32;
    /// Whether firing `from` can newly enable `to` (structurally: `from`
    /// produces into the pre-set of `to`). [`FixpointStrategy::Saturation`]
    /// terminates as soon as no transition is dirty, with no confirming
    /// image pass, so this relation is **load-bearing for soundness**: it
    /// must include every pair where a firing of `from` can mark a
    /// pre-place of `to` (an over-approximation is fine and only costs
    /// redundant sweeps; a missed pair silently truncates the fixpoint).
    fn feeds(&self, from: usize, to: usize) -> bool;
    /// The image of `from` under transition `t`, or a typed [`Interrupt`]
    /// when the backend's budget breached mid-computation. On `Err` the
    /// backend must be left consistent: every completed node and cache
    /// entry valid, no protection acquired for the partial work.
    fn fire(&mut self, t: usize, from: Self::Set) -> Result<Self::Set, Interrupt>;
    /// Set union (fallible like [`FixpointKernel::fire`]).
    fn union(&mut self, a: Self::Set, b: Self::Set) -> Result<Self::Set, Interrupt>;
    /// Set difference `a \ b` (fallible like [`FixpointKernel::fire`]).
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
    /// [`FixpointStrategy::Saturation`] buckets the transitions by
    /// [`FixpointKernel::top_level`] once, before the first pass.
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
        for t in 0..kernel.num_transitions() {
            let img = governed!(truncated, 'run, kernel.fire(t, source));
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

/// Buckets the transitions by their topmost written level, deepest level
/// first, keeping the firing order within each bucket so a level's inner
/// fixpoint still fires along the net's flow. Returns the buckets and the
/// inverse map `level_of[t] = bucket index`.
fn saturation_buckets<K: FixpointKernel>(kernel: &K) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut buckets: std::collections::BTreeMap<std::cmp::Reverse<u32>, Vec<usize>> =
        std::collections::BTreeMap::new();
    for t in kernel.firing_order() {
        buckets
            .entry(std::cmp::Reverse(kernel.top_level(t)))
            .or_default()
            .push(t);
    }
    let levels: Vec<Vec<usize>> = buckets.into_values().collect();
    let mut level_of = vec![0usize; kernel.num_transitions()];
    for (li, level) in levels.iter().enumerate() {
        for &t in level {
            level_of[t] = li;
        }
    }
    (levels, level_of)
}

fn saturation<K: FixpointKernel>(
    kernel: &mut K,
    max_iterations: Option<usize>,
) -> FixpointRun<K::Set> {
    let (levels, level_of) = saturation_buckets(kernel);
    let num_transitions = kernel.num_transitions();
    // `feeds[t]` = the transitions whose pre-set intersects the post-set of
    // `t`: the only transitions a productive firing of `t` can newly
    // enable. A transition becomes enabled exactly when a place of its
    // pre-set gets marked, so firing `t` dirties precisely these
    // transitions — the event-locality invariant saturation exploits.
    let feeds: Vec<Vec<usize>> = (0..num_transitions)
        .map(|t| {
            (0..num_transitions)
                .filter(|&u| kernel.feeds(t, u))
                .collect()
        })
        .collect();

    let mut reached = kernel.initial();
    kernel.protect(reached);

    let mut iterations = 0usize;
    let mut truncated = None;
    // Bottom-up passes over the level buckets, firing only *dirty*
    // transitions: every transition starts dirty, firing cleans it, and a
    // productive firing re-dirties exactly the transitions it feeds. A
    // dirty level runs a nested inner fixpoint — it is re-swept until its
    // own firings stop feeding it — before any higher level fires, so the
    // deep tail of the diagram is saturated while it is still small, and
    // higher transitions only re-fire when a lower level changed under
    // them. The fixpoint is reached when nothing is dirty; clean ones are
    // provably saturated (a transition newly enabled by a later firing
    // has a feeding ancestor that re-dirtied it), so no confirming image
    // pass is needed at all.
    let mut dirty = vec![true; num_transitions];
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
                for &t in &levels[li] {
                    if !dirty[t] {
                        continue;
                    }
                    dirty[t] = false;
                    let img = governed!(truncated, 'outer, kernel.fire(t, reached));
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
                    for &fed in &feeds[t] {
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

/// The BDD backend of the generic driver: per-transition images through
/// the context's [`ImagePlan`], manager protection and adaptive GC. The
/// backward kernel of the CTL checker wraps it and reuses its set algebra,
/// protections and forced checkpoint.
pub(crate) struct BddFixpointKernel<'a, 'h> {
    pub(crate) ctx: &'a mut SymbolicContext,
    pub(crate) plan: Rc<ImagePlan>,
    /// The traversal's start set: the initial marking, or its union with a
    /// resumed checkpoint seed. Computed (and protected) by the caller
    /// before the budget is installed.
    pub(crate) start: Ref,
    /// Optional pass-boundary callback (checkpointing rides here).
    pub(crate) observer: Option<&'a mut PassObserver<'h>>,
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

    fn num_transitions(&self) -> usize {
        self.plan.transitions().len()
    }

    fn firing_order(&self) -> Vec<usize> {
        self.plan.schedule().firing_order().to_vec()
    }

    fn top_level(&self, t: usize) -> u32 {
        // The target cube's root is the topmost variable the transition
        // writes, at its level in the present order.
        let manager = self.ctx.manager();
        manager
            .root_var(self.plan.transitions()[t].target)
            .map_or(u32::MAX, |v| manager.level_of(v))
    }

    fn feeds(&self, from: usize, to: usize) -> bool {
        self.plan.schedule().feeds(from, to)
    }

    fn fire(&mut self, t: usize, from: Ref) -> Result<Ref, Interrupt> {
        let planned = &self.plan.transitions()[t];
        self.ctx
            .manager_mut()
            .try_and_exists_assign(from, planned.enabling, planned.target)
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
    /// The returned [`ReachabilityResult::reached`] BDD carries one
    /// protection in the context's manager and remains valid until the
    /// context is dropped. This primitive always traverses and never
    /// touches the context's memo; queries read the memoized set of
    /// [`SymbolicContext::reached_set`] instead.
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
    fn remaining_since_cuts_the_window_to_what_is_left_of_it() {
        let start = Instant::now();
        let window = |ms| TraversalOptions {
            time_budget: Some(Duration::from_millis(ms)),
            ..TraversalOptions::default()
        };
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(
            window(5).remaining_since(start).time_budget,
            Some(Duration::ZERO)
        );
        let left = window(3_600_000).remaining_since(start).time_budget;
        assert!(left.is_some_and(|d| d <= Duration::from_millis(3_600_000 - 10)));
        assert_eq!(
            TraversalOptions::default()
                .remaining_since(start)
                .time_budget,
            None
        );
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
