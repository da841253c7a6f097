//! Selection of SMCs by unate covering (Section 4.2 of the paper).
//!
//! The covering objects are the SMCs (cost `⌈log2 k⌉` for `k` places) plus
//! one singleton cover of cost 1 per place; the covered objects are the
//! places. A minimum-cost cover yields the basic SMC-based encoding of the
//! paper's Section 4.3; the overlap-aware *improved* scheme of Section 4.4
//! is built on top of this module in `pnsym-core`.

use crate::smc::Smc;
use pnsym_net::{PetriNet, PlaceId, PlaceSet};

/// A generic unate covering problem: choose a minimum-cost subset of covers
/// such that every element in `0..num_elements` belongs to at least one
/// chosen cover.
///
/// Covers and the uncovered elements are word bitsets ([`PlaceSet`]s over
/// element indices), so both solvers score a cover by one popcount pass.
#[derive(Debug, Clone)]
pub struct CoverProblem {
    num_elements: usize,
    covers: Vec<(PlaceSet, u32)>,
}

impl CoverProblem {
    /// Creates a problem over `num_elements` elements with no covers yet.
    pub fn new(num_elements: usize) -> Self {
        CoverProblem {
            num_elements,
            covers: Vec::new(),
        }
    }

    /// Adds a cover (set of element indices and its cost); returns its
    /// index. An element listed twice is covered once.
    ///
    /// # Panics
    ///
    /// Panics if any element index is out of range.
    pub fn add_cover(&mut self, elements: Vec<usize>, cost: u32) -> usize {
        assert!(
            elements.iter().all(|&e| e < self.num_elements),
            "cover element out of range"
        );
        let set = PlaceSet::from_places(
            self.num_elements,
            elements.into_iter().map(|e| PlaceId(e as u32)),
        );
        self.push(set, cost)
    }

    fn push(&mut self, set: PlaceSet, cost: u32) -> usize {
        self.covers.push((set, cost));
        self.covers.len() - 1
    }

    /// Whether every element appears in at least one cover.
    pub fn is_coverable(&self) -> bool {
        let mut covered = PlaceSet::new(self.num_elements);
        for (set, _) in &self.covers {
            covered.union_with(set);
        }
        covered.len() == self.num_elements
    }

    /// Greedy heuristic: repeatedly pick the cover with the best
    /// cost-per-newly-covered-element ratio (ties: more new elements, then
    /// the lower index). Returns the chosen cover indices and the total
    /// cost, or `None` if the problem is not coverable.
    pub fn solve_greedy(&self) -> Option<(Vec<usize>, u32)> {
        if !self.is_coverable() {
            return None;
        }
        let mut uncovered = PlaceSet::full(self.num_elements);
        let mut chosen = Vec::new();
        let mut total = 0u32;
        while !uncovered.is_empty() {
            let mut best: Option<(usize, usize, u32)> = None; // (index, new, cost)
            for (i, (set, cost)) in self.covers.iter().enumerate() {
                let new = set.intersection_len(&uncovered);
                if new == 0 {
                    continue;
                }
                if best.is_none_or(|(_, bnew, bcost)| better_ratio(*cost, new, bcost, bnew)) {
                    best = Some((i, new, *cost));
                }
            }
            let (i, _, cost) = best?;
            uncovered.difference_with(&self.covers[i].0);
            chosen.push(i);
            total += cost;
        }
        Some((chosen, total))
    }

    /// Exact branch-and-bound solver, seeded with the greedy cover.
    ///
    /// Each node branches on the covers of its lowest uncovered element,
    /// in decreasing elements-per-cost order, and is pruned when its cost
    /// plus an admissible lower bound cannot beat the best cover so far:
    /// every uncovered element costs at least the best ratio
    /// `cost / |cover ∩ uncovered|` of any cover. Among optimal covers it
    /// returns the first the search meets, since the bound only cuts
    /// subtrees holding no strictly better cover.
    ///
    /// Returns the chosen cover indices and the optimal cost, or `None` if
    /// the problem is not coverable.
    pub fn solve_exact(&self) -> Option<(Vec<usize>, u32)> {
        let (greedy_choice, greedy_cost) = self.solve_greedy()?;
        let mut best_cost = greedy_cost;
        let mut best_choice = greedy_choice;
        // Order covers by decreasing "elements per cost" so good solutions
        // are found early.
        let mut order: Vec<usize> = (0..self.covers.len()).collect();
        order.sort_by_key(|&i| {
            let (set, cost) = &self.covers[i];
            // Higher elements/cost first -> smaller key first.
            (u64::from(*cost) << 32) / (set.len().max(1) as u64 + 1)
        });
        let mut chosen: Vec<usize> = Vec::new();
        self.branch(
            &order,
            &PlaceSet::full(self.num_elements),
            0,
            &mut chosen,
            &mut best_cost,
            &mut best_choice,
        );
        Some((best_choice, best_cost))
    }

    fn branch(
        &self,
        order: &[usize],
        uncovered: &PlaceSet,
        cost_so_far: u32,
        chosen: &mut Vec<usize>,
        best_cost: &mut u32,
        best_choice: &mut Vec<usize>,
    ) {
        // Pick the lowest uncovered element; every solution must cover it.
        let Some(target) = uncovered.first() else {
            if cost_so_far < *best_cost {
                *best_cost = cost_so_far;
                *best_choice = chosen.clone();
            }
            return;
        };
        if u64::from(cost_so_far) + self.lower_bound(uncovered) >= u64::from(*best_cost) {
            return;
        }
        for &i in order {
            let (set, cost) = &self.covers[i];
            if !set.contains(target) || cost_so_far + cost >= *best_cost {
                continue;
            }
            let mut remaining = uncovered.clone();
            remaining.difference_with(set);
            chosen.push(i);
            self.branch(
                order,
                &remaining,
                cost_so_far + cost,
                chosen,
                best_cost,
                best_choice,
            );
            chosen.pop();
        }
    }

    /// `⌈|U| · min_c cost_c / |c ∩ U|⌉` over the covers `c` meeting the
    /// non-empty `uncovered` set `U`: a cover of `U` pays at least the best
    /// ratio for each of its elements.
    fn lower_bound(&self, uncovered: &PlaceSet) -> u64 {
        let mut best: Option<(u64, u64)> = None; // (cost, new)
        for (set, cost) in &self.covers {
            let new = set.intersection_len(uncovered) as u64;
            let cost = u64::from(*cost);
            if new > 0 && best.is_none_or(|(bcost, bnew)| cost * bnew < bcost * new) {
                best = Some((cost, new));
            }
        }
        best.map_or(0, |(cost, new)| {
            (uncovered.len() as u64 * cost).div_ceil(new)
        })
    }
}

/// Whether `cost / new` beats `bcost / bnew`, without floating point; on
/// equal ratios the one covering more new elements wins.
fn better_ratio(cost: u32, new: usize, bcost: u32, bnew: usize) -> bool {
    let lhs = u64::from(cost) * bnew as u64;
    let rhs = u64::from(bcost) * new as u64;
    lhs < rhs || (lhs == rhs && new > bnew)
}

/// The result of selecting SMCs to encode a net (Section 4.2 / 4.3).
#[derive(Debug, Clone)]
pub struct SmcCover {
    /// The chosen SMCs (indices into the candidate list passed to
    /// [`select_smc_cover`]).
    pub chosen: Vec<usize>,
    /// Places not covered by any chosen SMC; they receive one variable each.
    pub singleton_places: Vec<PlaceId>,
    /// Total number of boolean variables of the resulting basic encoding.
    pub num_variables: u32,
}

/// Strategy used to solve the covering problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoverStrategy {
    /// Greedy ratio heuristic (fast, near-optimal on the benchmark nets).
    #[default]
    Greedy,
    /// Exact branch-and-bound (exponential worst case; use for small nets).
    Exact,
}

/// Selects a subset of candidate SMCs minimising the variable count of the
/// basic SMC encoding: each chosen SMC of `k` places costs `⌈log2 k⌉`
/// variables and every uncovered place costs one variable.
///
/// Only SMCs holding exactly one initial token are usable; others are
/// ignored.
pub fn select_smc_cover(net: &PetriNet, candidates: &[Smc], strategy: CoverStrategy) -> SmcCover {
    let usable: Vec<(usize, &Smc)> = candidates
        .iter()
        .enumerate()
        .filter(|(_, smc)| smc.initial_tokens() == 1)
        .collect();
    let mut problem = CoverProblem::new(net.num_places());
    // Cover index space: first the usable SMCs, then one singleton per place.
    for (_, smc) in &usable {
        problem.push(smc.place_set().clone(), smc.encoding_cost());
    }
    for p in net.places() {
        problem.push(PlaceSet::from_places(net.num_places(), [p]), 1);
    }
    let (chosen_covers, _cost) = match strategy {
        CoverStrategy::Greedy => problem.solve_greedy(),
        CoverStrategy::Exact => problem.solve_exact(),
    }
    .expect("singleton covers make every instance coverable");
    cover_of(net, candidates, &usable, &chosen_covers)
}

/// The [`SmcCover`] of the cover indices `chosen_covers`, which number the
/// `usable` SMCs first and then one singleton per place.
fn cover_of(
    net: &PetriNet,
    candidates: &[Smc],
    usable: &[(usize, &Smc)],
    chosen_covers: &[usize],
) -> SmcCover {
    let mut chosen = Vec::new();
    let mut covered = PlaceSet::new(net.num_places());
    for &c in chosen_covers {
        if c < usable.len() {
            let (orig_index, smc) = usable[c];
            chosen.push(orig_index);
            covered.union_with(smc.place_set());
        }
    }
    // Every place not covered by a chosen SMC is a singleton, including
    // places whose singleton cover was chosen explicitly.
    let singleton_places: Vec<PlaceId> = net.places().filter(|&p| !covered.contains(p)).collect();
    let num_variables = chosen
        .iter()
        .map(|&i| candidates[i].encoding_cost())
        .sum::<u32>()
        + singleton_places.len() as u32;
    SmcCover {
        chosen,
        singleton_places,
        num_variables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smc::find_smcs;
    use pnsym_net::nets::{
        dme, figure1, jjreg, muller, philosophers, slotted_ring, DmeStyle, JjregVariant,
    };
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// [`CoverProblem`] as it was before the bitsets and the lower bound,
    /// kept as the oracle: element lists, an ordered set of uncovered
    /// elements cloned per branch, and pruning on the cost so far alone.
    struct OracleCoverProblem {
        num_elements: usize,
        covers: Vec<(Vec<usize>, u32)>,
    }

    impl OracleCoverProblem {
        fn solve_greedy(&self) -> Option<(Vec<usize>, u32)> {
            let mut coverable = vec![false; self.num_elements];
            for &e in self.covers.iter().flat_map(|(elements, _)| elements) {
                coverable[e] = true;
            }
            if !coverable.into_iter().all(|c| c) {
                return None;
            }
            let mut uncovered: BTreeSet<usize> = (0..self.num_elements).collect();
            let mut chosen = Vec::new();
            let mut total = 0u32;
            while !uncovered.is_empty() {
                let mut best: Option<(usize, usize, u32)> = None;
                for (i, (elements, cost)) in self.covers.iter().enumerate() {
                    let new = elements.iter().filter(|e| uncovered.contains(e)).count();
                    if new == 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some((_, bnew, bcost)) => {
                            (*cost as u64) * (bnew as u64) < (bcost as u64) * (new as u64)
                                || ((*cost as u64) * (bnew as u64) == (bcost as u64) * (new as u64)
                                    && new > bnew)
                        }
                    };
                    if better {
                        best = Some((i, new, *cost));
                    }
                }
                let (i, _, cost) = best?;
                for &e in &self.covers[i].0 {
                    uncovered.remove(&e);
                }
                chosen.push(i);
                total += cost;
            }
            Some((chosen, total))
        }

        fn solve_exact(&self) -> Option<(Vec<usize>, u32)> {
            let (mut best_choice, mut best_cost) = self.solve_greedy()?;
            let mut order: Vec<usize> = (0..self.covers.len()).collect();
            order.sort_by_key(|&i| {
                let (elements, cost) = &self.covers[i];
                (u64::from(*cost) << 32) / (elements.len().max(1) as u64 + 1)
            });
            let all: BTreeSet<usize> = (0..self.num_elements).collect();
            self.branch(
                &order,
                &all,
                0,
                &mut Vec::new(),
                &mut best_cost,
                &mut best_choice,
            );
            Some((best_choice, best_cost))
        }

        fn branch(
            &self,
            order: &[usize],
            uncovered: &BTreeSet<usize>,
            cost_so_far: u32,
            chosen: &mut Vec<usize>,
            best_cost: &mut u32,
            best_choice: &mut Vec<usize>,
        ) {
            if uncovered.is_empty() {
                if cost_so_far < *best_cost {
                    *best_cost = cost_so_far;
                    *best_choice = chosen.clone();
                }
                return;
            }
            if cost_so_far >= *best_cost {
                return;
            }
            let target = *uncovered.iter().next().expect("non-empty");
            for &i in order {
                let (elements, cost) = &self.covers[i];
                if !elements.contains(&target) || cost_so_far + cost >= *best_cost {
                    continue;
                }
                let mut remaining = uncovered.clone();
                for e in elements {
                    remaining.remove(e);
                }
                chosen.push(i);
                self.branch(
                    order,
                    &remaining,
                    cost_so_far + cost,
                    chosen,
                    best_cost,
                    best_choice,
                );
                chosen.pop();
            }
        }
    }

    /// Both solvers over the same covers.
    fn problems(
        num_elements: usize,
        covers: &[(Vec<usize>, u32)],
    ) -> (CoverProblem, OracleCoverProblem) {
        let mut problem = CoverProblem::new(num_elements);
        for (elements, cost) in covers {
            problem.add_cover(elements.clone(), *cost);
        }
        let oracle = OracleCoverProblem {
            num_elements,
            covers: covers.to_vec(),
        };
        (problem, oracle)
    }

    /// [`select_smc_cover`] over the oracle's solvers.
    fn oracle_select_smc_cover(
        net: &PetriNet,
        candidates: &[Smc],
        strategy: CoverStrategy,
    ) -> SmcCover {
        let usable: Vec<(usize, &Smc)> = candidates
            .iter()
            .enumerate()
            .filter(|(_, smc)| smc.initial_tokens() == 1)
            .collect();
        let covers: Vec<(Vec<usize>, u32)> = usable
            .iter()
            .map(|(_, smc)| {
                (
                    smc.places().iter().map(|p| p.index()).collect(),
                    smc.encoding_cost(),
                )
            })
            .chain(net.places().map(|p| (vec![p.index()], 1)))
            .collect();
        let (_, oracle) = problems(net.num_places(), &covers);
        let (chosen_covers, _) = match strategy {
            CoverStrategy::Greedy => oracle.solve_greedy(),
            CoverStrategy::Exact => oracle.solve_exact(),
        }
        .expect("singleton covers make every instance coverable");
        cover_of(net, candidates, &usable, &chosen_covers)
    }

    fn assert_same_cover(net: &PetriNet, strategy: CoverStrategy) {
        let smcs = find_smcs(net).unwrap();
        let cover = select_smc_cover(net, &smcs, strategy);
        let oracle = oracle_select_smc_cover(net, &smcs, strategy);
        assert_eq!(
            (&cover.chosen, &cover.singleton_places, cover.num_variables),
            (
                &oracle.chosen,
                &oracle.singleton_places,
                oracle.num_variables
            ),
            "{} under {strategy:?}",
            net.name()
        );
    }

    #[test]
    fn greedy_covers_match_the_oracle_on_bundled_families() {
        let mut nets = vec![figure1(), jjreg(JjregVariant::A), jjreg(JjregVariant::B)];
        for n in 2..=6 {
            nets.push(philosophers(n));
            nets.push(slotted_ring(n));
        }
        for n in [4, 8, 12] {
            nets.push(muller(n));
        }
        for n in 2..=8 {
            nets.push(dme(n, DmeStyle::Spec));
            nets.push(dme(n, DmeStyle::Circuit));
        }
        for net in &nets {
            assert_same_cover(net, CoverStrategy::Greedy);
        }
    }

    #[test]
    fn exact_covers_match_the_oracle_on_small_nets() {
        for net in [
            figure1(),
            philosophers(3),
            muller(4),
            slotted_ring(3),
            dme(3, DmeStyle::Spec),
        ] {
            assert_same_cover(&net, CoverStrategy::Exact);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random problems, coverable or not, some with free covers: both
        /// solvers return what the oracle's do, cover for cover.
        #[test]
        fn solvers_match_the_oracle_on_random_problems(
            num_elements in 1usize..16,
            masks in proptest::collection::vec((0u32..1 << 16, 0u32..4), 1..14),
        ) {
            let covers: Vec<(Vec<usize>, u32)> = masks
                .iter()
                .map(|&(mask, cost)| {
                    ((0..num_elements).filter(|&e| mask & (1 << e) != 0).collect(), cost)
                })
                .collect();
            let (problem, oracle) = problems(num_elements, &covers);
            prop_assert_eq!(problem.solve_greedy(), oracle.solve_greedy());
            prop_assert_eq!(problem.solve_exact(), oracle.solve_exact());
        }
    }

    #[test]
    fn greedy_and_exact_agree_on_small_problems() {
        let mut p = CoverProblem::new(4);
        p.add_cover(vec![0, 1], 1);
        p.add_cover(vec![2, 3], 1);
        p.add_cover(vec![0, 1, 2, 3], 3);
        let (_, greedy_cost) = p.solve_greedy().unwrap();
        let (choice, exact_cost) = p.solve_exact().unwrap();
        assert_eq!(exact_cost, 2);
        assert!(greedy_cost >= exact_cost);
        assert_eq!(choice.len(), 2);
    }

    #[test]
    fn exact_beats_greedy_when_ratio_misleads() {
        // Greedy picks the big cover first (ratio 3/5 < 1), then needs two
        // singletons; exact uses the two cost-1 covers plus singleton.
        let mut p = CoverProblem::new(5);
        p.add_cover(vec![0, 1, 2, 3, 4], 3);
        p.add_cover(vec![0, 1], 1);
        p.add_cover(vec![2, 3], 1);
        p.add_cover(vec![4], 1);
        let (_, exact_cost) = p.solve_exact().unwrap();
        assert_eq!(exact_cost, 3);
    }

    #[test]
    fn uncoverable_problem_returns_none() {
        let mut p = CoverProblem::new(3);
        p.add_cover(vec![0, 1], 1);
        assert!(!p.is_coverable());
        assert!(p.solve_greedy().is_none());
        assert!(p.solve_exact().is_none());
    }

    #[test]
    fn figure1_cover_uses_both_smcs() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let cover = select_smc_cover(&net, &smcs, CoverStrategy::Exact);
        assert_eq!(cover.chosen.len(), 2);
        assert!(cover.singleton_places.is_empty());
        assert_eq!(cover.num_variables, 4, "two SMCs of 4 places, 2 bits each");
    }

    #[test]
    fn philosophers_cover_matches_section_4_3() {
        // Section 4.3: SM1, SM3, SM4 (the paper picks 3 SMCs) + 4 singleton
        // places, 10 variables in total.  In our 7-place-per-philosopher
        // model the same covering logic applies: the basic scheme must not
        // use more variables than one-per-place and at least halve it.
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        let cover = select_smc_cover(&net, &smcs, CoverStrategy::Exact);
        assert!(cover.num_variables < 14);
        assert!(cover.num_variables <= 10);
    }

    #[test]
    fn muller_cover_halves_the_variables() {
        let net = muller(6);
        let smcs = find_smcs(&net).unwrap();
        let cover = select_smc_cover(&net, &smcs, CoverStrategy::Greedy);
        assert_eq!(cover.num_variables, 12, "2 bits per 4-place stage");
        assert!(cover.singleton_places.is_empty());
    }

    #[test]
    fn dme_cover_prefers_the_large_token_component() {
        let net = dme(4, DmeStyle::Spec);
        let smcs = find_smcs(&net).unwrap();
        let cover = select_smc_cover(&net, &smcs, CoverStrategy::Greedy);
        // Per cell: the user SMC (2 bits) and the preparation SMC (2 bits);
        // plus the token SMC (3 bits) = 19 variables, far below the 28
        // places of the sparse encoding.
        assert!(cover.num_variables <= 19);
        assert!(cover.singleton_places.is_empty());
    }
}
