//! Cooperative resource governance for the decision-diagram kernels.
//!
//! A [`Budget`] bundles the limits one query is allowed to consume — a
//! wall-clock deadline, a live-node ceiling, a step (governed recursion)
//! ceiling and, under the `fault-inject` feature, a deterministic schedule
//! of injected failures. The budget is installed on a manager
//! ([`BddManager::install_budget`](crate::BddManager::install_budget)) and
//! checked *cooperatively*: the hot `apply`/`and_exists`/ZDD recursions call
//! the manager's checkpoint once per cache miss, which ticks a counter and
//! only performs the real (clock-reading, node-counting) check every
//! [`Budget::CHECK_INTERVAL`] ticks, so the fast path stays free. Traversal
//! drivers force a full check at every pass and firing boundary, which makes
//! tiny-deadline runs truncate deterministically even on nets too small for
//! the amortized in-recursion check to fire.
//!
//! On breach the kernel unwinds with a typed [`Interrupt`] carrying a
//! [`TruncationReason`]. The breach is *sticky*: once a budget has tripped,
//! every subsequent check fails with the same reason until the budget is
//! removed ([`BddManager::take_budget`](crate::BddManager::take_budget)),
//! so a partially unwound caller cannot accidentally resume half-done work
//! under an exhausted budget. Interrupted operations leave the manager
//! fully consistent — every node interned on the way down is canonical and
//! every completed cache entry is valid — so after removing the budget the
//! same manager can re-run the query to completion.

use std::fmt;
use std::time::{Duration, Instant};

/// Why a traversal, fixpoint or kernel operation stopped early.
///
/// Replaces the lossy `truncated: bool` that could only mean "the
/// iteration cap fired": results now report *which* limit was hit, so
/// callers can distinguish a deliberate cap from resource exhaustion or an
/// injected fault and choose the right degradation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// The traversal's `max_iterations` cap was reached (checked between
    /// passes, as before).
    Iterations,
    /// The budget's wall-clock deadline passed.
    Deadline,
    /// The live-node ceiling was exceeded.
    NodeBudget,
    /// The governed-step (cache-miss recursion) ceiling was exceeded.
    StepBudget,
    /// A deterministic fault from the `fault-inject` schedule fired.
    InjectedFault,
}

impl fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TruncationReason::Iterations => "Iterations",
            TruncationReason::Deadline => "Deadline",
            TruncationReason::NodeBudget => "NodeBudget",
            TruncationReason::StepBudget => "StepBudget",
            TruncationReason::InjectedFault => "InjectedFault",
        };
        f.write_str(s)
    }
}

/// The typed error every governed layer unwinds with on a budget breach.
///
/// Carries the [`TruncationReason`]; layers propagate it with `?` up to the
/// fixpoint driver, which converts it into a partial result instead of an
/// error (the partial reached set is still a sound under-approximation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupt {
    /// Which limit tripped.
    pub reason: TruncationReason,
}

impl Interrupt {
    /// An interrupt with the given reason.
    pub fn new(reason: TruncationReason) -> Self {
        Interrupt { reason }
    }
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interrupted: {} budget breached", self.reason)
    }
}

impl std::error::Error for Interrupt {}

/// Deterministic failure points exercised by the `fault-inject` feature.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A unique-table level grew its slot array.
    TableGrowth,
    /// The computed cache grew its entry array.
    CacheGrowth,
}

#[cfg(feature = "fault-inject")]
impl FaultSite {
    const COUNT: usize = 2;

    fn index(self) -> usize {
        match self {
            FaultSite::TableGrowth => 0,
            FaultSite::CacheGrowth => 1,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => FaultSite::TableGrowth,
            _ => FaultSite::CacheGrowth,
        }
    }
}

/// A seeded, deterministic schedule of injected failures.
///
/// Each armed site carries a countdown: the fault fires on the `n`-th event
/// observed at that site (table/cache growths are observed at the next
/// checkpoint after the growth). Because the kernel's event sequence is
/// deterministic for a given query, the same schedule trips at the same
/// point on every run.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    countdown: [Option<u32>; FaultSite::COUNT],
}

#[cfg(feature = "fault-inject")]
impl FaultSchedule {
    /// An empty schedule (no faults armed).
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Arms `site` to fail on its `nth` (0-based) observed event.
    pub fn trip(mut self, site: FaultSite, nth: u32) -> Self {
        self.countdown[site.index()] = Some(nth);
        self
    }

    /// Derives a schedule from a seed: one site armed at a small event
    /// index, chosen by a splitmix64 draw so proptest cases cover every
    /// site and early/late trip points.
    pub fn from_seed(seed: u64) -> Self {
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let site = FaultSite::from_index((x as usize) % FaultSite::COUNT);
        let nth = ((x >> 8) % 4) as u32;
        FaultSchedule::default().trip(site, nth)
    }

    /// Whether any site is armed.
    pub fn is_armed(&self) -> bool {
        self.countdown.iter().any(|c| c.is_some())
    }

    /// Records `count` events at `site`; returns `true` when the armed
    /// countdown is consumed and the fault must fire.
    fn observe(&mut self, site: FaultSite, count: u64) -> bool {
        match &mut self.countdown[site.index()] {
            Some(left) if (*left as u64) < count => {
                self.countdown[site.index()] = None;
                true
            }
            Some(left) => {
                *left -= count as u32;
                false
            }
            None => false,
        }
    }
}

/// The resource envelope of one governed query.
///
/// Cheap to copy: the deadline is absolute, so a copy installed later
/// expires at the same instant.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: Option<Instant>,
    node_ceiling: Option<usize>,
    step_ceiling: Option<u64>,
    steps: u64,
    since_check: u32,
    breached: Option<TruncationReason>,
    #[cfg(feature = "fault-inject")]
    faults: FaultSchedule,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::new()
    }
}

impl Budget {
    /// How many governed steps (cache-miss recursions) pass between real
    /// checks of the clock and the node count.
    pub const CHECK_INTERVAL: u32 = 1024;

    /// An unlimited budget (useful as a carrier for a fault schedule).
    pub fn new() -> Self {
        Budget {
            deadline: None,
            node_ceiling: None,
            step_ceiling: None,
            steps: 0,
            since_check: 0,
            breached: None,
            #[cfg(feature = "fault-inject")]
            faults: FaultSchedule::default(),
        }
    }

    /// Sets a wall-clock deadline `d` from now.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Sets a ceiling on live BDD/ZDD nodes of the governed manager.
    pub fn with_node_ceiling(mut self, nodes: usize) -> Self {
        self.node_ceiling = Some(nodes);
        self
    }

    /// Sets a ceiling on governed steps (one step ≈ one cache-miss
    /// recursion in the kernel).
    pub fn with_step_ceiling(mut self, steps: u64) -> Self {
        self.step_ceiling = Some(steps);
        self
    }

    /// Arms the deterministic fault schedule.
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// The armed fault schedule.
    #[cfg(feature = "fault-inject")]
    pub fn faults(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Governed steps consumed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The sticky breach, if the budget has tripped.
    pub fn breached(&self) -> Option<TruncationReason> {
        self.breached
    }

    /// Counts one governed step. Returns `true` when a real check
    /// ([`Budget::check`]) is due — every [`Budget::CHECK_INTERVAL`] steps,
    /// immediately once breached, or as soon as the step ceiling is
    /// exceeded (an exact integer compare, so tiny step budgets fire
    /// promptly).
    #[inline]
    pub fn tick(&mut self) -> bool {
        self.steps += 1;
        self.since_check += 1;
        if self.breached.is_some() || self.since_check >= Self::CHECK_INTERVAL {
            return true;
        }
        matches!(self.step_ceiling, Some(cap) if self.steps > cap)
    }

    /// The real check: sticky breach, deadline, node ceiling and step
    /// ceiling, in that order. `live_nodes` is the governed manager's
    /// current live-node count.
    pub fn check(&mut self, live_nodes: usize) -> Result<(), Interrupt> {
        self.since_check = 0;
        if let Some(reason) = self.breached {
            return Err(Interrupt::new(reason));
        }
        if matches!(self.deadline, Some(d) if Instant::now() >= d) {
            return self.trip(TruncationReason::Deadline);
        }
        if matches!(self.node_ceiling, Some(cap) if live_nodes > cap) {
            return self.trip(TruncationReason::NodeBudget);
        }
        if matches!(self.step_ceiling, Some(cap) if self.steps > cap) {
            return self.trip(TruncationReason::StepBudget);
        }
        Ok(())
    }

    /// Records `count` fresh events at `site`; fails with
    /// [`TruncationReason::InjectedFault`] when the schedule trips.
    #[cfg(feature = "fault-inject")]
    pub fn observe_fault_events(&mut self, site: FaultSite, count: u64) -> Result<(), Interrupt> {
        if count > 0 && self.faults.observe(site, count) {
            return self.trip(TruncationReason::InjectedFault);
        }
        Ok(())
    }

    fn trip(&mut self, reason: TruncationReason) -> Result<(), Interrupt> {
        self.breached = Some(reason);
        Err(Interrupt::new(reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut b = Budget::new();
        for _ in 0..10_000 {
            if b.tick() {
                b.check(1_000_000).unwrap();
            }
        }
        assert_eq!(b.breached(), None);
        assert_eq!(b.steps(), 10_000);
    }

    #[test]
    fn step_ceiling_trips_promptly_and_stays_sticky() {
        let mut b = Budget::new().with_step_ceiling(5);
        let mut tripped = None;
        for _ in 0..100 {
            if b.tick() {
                if let Err(e) = b.check(0) {
                    tripped = Some((e.reason, b.steps()));
                    break;
                }
            }
        }
        let (reason, at) = tripped.expect("step ceiling must trip");
        assert_eq!(reason, TruncationReason::StepBudget);
        assert_eq!(at, 6, "exact inline compare fires on the first excess step");
        // Sticky: every later check fails with the same reason.
        assert_eq!(b.check(0).unwrap_err().reason, TruncationReason::StepBudget);
        assert!(b.tick(), "a breached budget demands an immediate check");
    }

    #[test]
    fn node_ceiling_and_deadline_trip() {
        let mut b = Budget::new().with_node_ceiling(10);
        assert!(b.check(10).is_ok());
        assert_eq!(
            b.check(11).unwrap_err().reason,
            TruncationReason::NodeBudget
        );

        let mut b = Budget::new().with_deadline(Duration::ZERO);
        assert_eq!(b.check(0).unwrap_err().reason, TruncationReason::Deadline);
    }

    #[test]
    fn reasons_display_their_names() {
        assert_eq!(TruncationReason::Deadline.to_string(), "Deadline");
        assert_eq!(
            Interrupt::new(TruncationReason::NodeBudget).to_string(),
            "interrupted: NodeBudget budget breached"
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_schedule_counts_events_and_trips_once() {
        let mut b =
            Budget::new().with_faults(FaultSchedule::none().trip(FaultSite::CacheGrowth, 2));
        // Other sites are inert.
        b.observe_fault_events(FaultSite::TableGrowth, 100).unwrap();
        // Two events consume the countdown without tripping (fires on the
        // 0-based 2nd event, i.e. the third).
        b.observe_fault_events(FaultSite::CacheGrowth, 2).unwrap();
        assert_eq!(
            b.observe_fault_events(FaultSite::CacheGrowth, 1)
                .unwrap_err()
                .reason,
            TruncationReason::InjectedFault
        );
        assert_eq!(b.breached(), Some(TruncationReason::InjectedFault));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn seeded_schedules_are_deterministic_and_cover_sites() {
        assert_eq!(FaultSchedule::from_seed(7), FaultSchedule::from_seed(7));
        let mut sites = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let s = FaultSchedule::from_seed(seed);
            assert!(s.is_armed());
            sites.insert(s.countdown.iter().position(|c| c.is_some()).unwrap());
        }
        assert_eq!(sites.len(), FaultSite::COUNT, "seeds reach every site");
    }
}
