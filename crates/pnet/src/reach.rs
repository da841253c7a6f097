//! Explicit (enumerative) reachability analysis.
//!
//! This is the reference semantics the symbolic engines are validated
//! against, and the substrate for toggling-activity metrics over the
//! reachability graph (Figure 2 of the paper).

use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::{FireError, PetriNet};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// The reachability graph of a safe Petri net: every reachable marking and
/// every firing between them.
///
/// Markings are indexed densely in BFS discovery order; index 0 is the
/// initial marking.
#[derive(Debug, Clone)]
pub struct ReachabilityGraph {
    markings: Vec<Marking>,
    index: HashMap<Marking, usize>,
    edges: Vec<(usize, TransitionId, usize)>,
}

impl ReachabilityGraph {
    /// Number of reachable markings.
    pub fn num_markings(&self) -> usize {
        self.markings.len()
    }

    /// Number of edges (marking, transition, marking).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The marking with the given BFS index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn marking(&self, index: usize) -> &Marking {
        &self.markings[index]
    }

    /// All reachable markings in BFS discovery order.
    pub fn markings(&self) -> &[Marking] {
        &self.markings
    }

    /// All edges as `(source index, transition, target index)`.
    pub fn edges(&self) -> &[(usize, TransitionId, usize)] {
        &self.edges
    }

    /// The BFS index of `m`, if it is reachable.
    pub fn index_of(&self, m: &Marking) -> Option<usize> {
        self.index.get(m).copied()
    }

    /// Whether `m` is reachable.
    pub fn contains(&self, m: &Marking) -> bool {
        self.index.contains_key(m)
    }

    /// The reachable markings in which no transition is enabled.
    pub fn deadlocks(&self, net: &PetriNet) -> Vec<&Marking> {
        self.markings
            .iter()
            .filter(|m| net.enabled_transitions(m).is_empty())
            .collect()
    }
}

/// Options controlling explicit state-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Exploration aborts with [`ExploreError::StateLimit`] once this many
    /// markings have been discovered.
    pub max_markings: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_markings: 2_000_000,
        }
    }
}

/// Errors reported by explicit exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The state limit given in [`ExploreOptions`] was exceeded.
    StateLimit {
        /// The configured limit.
        limit: usize,
    },
    /// The net is not safe: a reachable firing would duplicate a token.
    Unsafe(FireError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimit { limit } => {
                write!(f, "state limit of {limit} markings exceeded")
            }
            ExploreError::Unsafe(e) => write!(f, "net is not safe: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<FireError> for ExploreError {
    fn from(e: FireError) -> Self {
        ExploreError::Unsafe(e)
    }
}

impl PetriNet {
    /// Builds the full reachability graph by breadth-first exploration with
    /// default [`ExploreOptions`].
    ///
    /// # Errors
    ///
    /// See [`PetriNet::explore_with`].
    pub fn explore(&self) -> Result<ReachabilityGraph, ExploreError> {
        self.explore_with(ExploreOptions::default())
    }

    /// Builds the full reachability graph by breadth-first exploration.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::StateLimit`] if more than
    /// `options.max_markings` markings are discovered, and
    /// [`ExploreError::Unsafe`] if a reachable firing would place a second
    /// token into a place.
    pub fn explore_with(&self, options: ExploreOptions) -> Result<ReachabilityGraph, ExploreError> {
        let mut markings = vec![self.initial_marking().clone()];
        let mut index = HashMap::new();
        index.insert(self.initial_marking().clone(), 0usize);
        let mut edges = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(0usize);

        while let Some(current) = queue.pop_front() {
            let m = markings[current].clone();
            for t in self.transitions() {
                if !self.is_enabled(&m, t) {
                    continue;
                }
                let next = self.fire(&m, t)?;
                let next_index = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = markings.len();
                        if i >= options.max_markings {
                            return Err(ExploreError::StateLimit {
                                limit: options.max_markings,
                            });
                        }
                        markings.push(next.clone());
                        index.insert(next, i);
                        queue.push_back(i);
                        i
                    }
                };
                edges.push((current, t, next_index));
            }
        }

        Ok(ReachabilityGraph {
            markings,
            index,
            edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;

    fn cycle_net(n: usize) -> PetriNet {
        let mut b = NetBuilder::new("cycle");
        let places: Vec<_> = (0..n)
            .map(|i| {
                if i == 0 {
                    b.place_marked(format!("s{i}"))
                } else {
                    b.place(format!("s{i}"))
                }
            })
            .collect();
        for i in 0..n {
            b.transition(format!("t{i}"), &[places[i]], &[places[(i + 1) % n]]);
        }
        b.build().unwrap()
    }

    #[test]
    fn cycle_has_n_markings_and_edges() {
        let net = cycle_net(5);
        let rg = net.explore().unwrap();
        assert_eq!(rg.num_markings(), 5);
        assert_eq!(rg.num_edges(), 5);
        assert!(rg.deadlocks(&net).is_empty());
        assert!(rg.contains(net.initial_marking()));
        assert_eq!(rg.index_of(net.initial_marking()), Some(0));
    }

    #[test]
    fn independent_toggles_multiply() {
        // Two independent 2-phase cycles: 2 * 2 = 4 markings.
        let mut b = NetBuilder::new("pair");
        let a0 = b.place_marked("a0");
        let a1 = b.place("a1");
        let b0 = b.place_marked("b0");
        let b1 = b.place("b1");
        b.transition("ta+", &[a0], &[a1]);
        b.transition("ta-", &[a1], &[a0]);
        b.transition("tb+", &[b0], &[b1]);
        b.transition("tb-", &[b1], &[b0]);
        let net = b.build().unwrap();
        let rg = net.explore().unwrap();
        assert_eq!(rg.num_markings(), 4);
        assert_eq!(rg.num_edges(), 8);
    }

    #[test]
    fn state_limit_is_enforced() {
        let net = cycle_net(10);
        let err = net
            .explore_with(ExploreOptions { max_markings: 3 })
            .unwrap_err();
        assert!(matches!(err, ExploreError::StateLimit { limit: 3 }));
    }

    #[test]
    fn deadlock_is_detected() {
        let mut b = NetBuilder::new("dead");
        let a = b.place_marked("a");
        let c = b.place("c");
        b.transition("t", &[a], &[c]);
        let net = b.build().unwrap();
        let rg = net.explore().unwrap();
        assert_eq!(rg.num_markings(), 2);
        assert_eq!(rg.deadlocks(&net).len(), 1);
    }

    #[test]
    fn unsafe_net_is_reported() {
        let mut b = NetBuilder::new("unsafe");
        let a = b.place_marked("a");
        let c = b.place_marked("c");
        let d = b.place("d");
        b.transition("t1", &[a], &[d]);
        b.transition("t2", &[c], &[d]);
        let net = b.build().unwrap();
        // Firing t1 then t2 puts two tokens into d.
        assert!(matches!(
            net.explore(),
            Err(ExploreError::Unsafe(FireError::Unsafe { .. }))
        ));
    }
}
