//! The improved, overlap-aware SMC encoding (Section 4.4 of the paper).
//!
//! SMCs are added one at a time. A new component `S_i` whose places split
//! into `P_cov` (already covered) and `P_new` only needs
//! `⌈log2 |P_new|⌉` fresh variables: the new places receive distinct codes,
//! while the already-covered places are assigned (possibly shared) codes
//! whose ambiguity is resolved by the components that own them
//! (characteristic functions of Section 5.1).

use super::assign::{assign_codes, AssignmentStrategy};
use super::{Block, Encoding, SchemeKind};
use pnsym_net::{PetriNet, PlaceId, PlaceSet};
use pnsym_structural::Smc;

pub(super) fn build(net: &PetriNet, smcs: &[Smc], assignment: AssignmentStrategy) -> Encoding {
    build_with(net, smcs, assignment, false)
}

pub(super) fn build_with(
    net: &PetriNet,
    smcs: &[Smc],
    assignment: AssignmentStrategy,
    allow_zero_width: bool,
) -> Encoding {
    // Usable components hold exactly one token.
    let usable: Vec<&Smc> = smcs.iter().filter(|s| s.initial_tokens() == 1).collect();
    // Following the paper, a component adding fewer than two new places is
    // never selected (its places are left to singleton variables), which
    // reproduces the 8-variable encoding of Table 1. With
    // `allow_zero_width` (an extension beyond the paper) a component whose
    // single new place is otherwise fully covered costs zero fresh
    // variables: the place's marking is implied by the rest of its SMC.
    let min_new = if allow_zero_width { 1 } else { 2 };
    materialise(net, select(net, &usable, min_new), assignment)
}

/// A selected component: the SMC, which of its places it owns, and its
/// number of fresh variables.
type Chosen<'a> = (&'a Smc, Vec<bool>, u32);

/// Greedy selection: repeatedly add the component with the lowest cost per
/// newly covered place, `⌈log2 new⌉ / new` (ties: more new places, then the
/// earlier candidate), among those adding at least `min_new` places. Any
/// such component beats encoding its new places one variable each, since
/// `⌈log2 n⌉ < n`.
///
/// A candidate's new places are `|smc \ covered|`, one popcount pass over
/// the words. Covered places only accumulate, so a candidate that falls
/// below `min_new` never qualifies again and leaves the candidate list
/// (the chosen one included: it has no new place left).
fn select<'a>(net: &PetriNet, usable: &[&'a Smc], min_new: usize) -> Vec<Chosen<'a>> {
    let mut covered = PlaceSet::new(net.num_places());
    let mut candidates: Vec<&Smc> = usable.to_vec();
    let mut chosen = Vec::new();
    loop {
        let mut best: Option<(&Smc, usize, u32)> = None; // (candidate, new, width)
        candidates.retain(|&smc| {
            let new = smc.place_set().difference_len(&covered);
            if new < min_new {
                return false;
            }
            let width = (new as u32).next_power_of_two().trailing_zeros();
            let better = best.is_none_or(|(_, bnew, bwidth)| {
                let (lhs, rhs) = (
                    u64::from(width) * bnew as u64,
                    u64::from(bwidth) * new as u64,
                );
                lhs < rhs || (lhs == rhs && new > bnew)
            });
            if better {
                best = Some((smc, new, width));
            }
            true
        });
        let Some((smc, _, width)) = best else { break };
        let owns: Vec<bool> = smc.places().iter().map(|&p| !covered.contains(p)).collect();
        covered.union_with(smc.place_set());
        chosen.push((smc, owns, width));
    }
    chosen
}

/// Lays out the selected components and the places no component covers as
/// blocks. Blocks are ordered by their lowest owned place index: the
/// generators declare places unit by unit (stage, philosopher, ring node,
/// …), so this keeps the variables of strongly interacting components
/// adjacent in the BDD order.
fn materialise(
    net: &PetriNet,
    chosen: Vec<Chosen<'_>>,
    assignment: AssignmentStrategy,
) -> Encoding {
    enum Pending<'a> {
        Smc(&'a Smc, Vec<bool>, u32),
        Single(PlaceId),
    }
    let mut covered = PlaceSet::new(net.num_places());
    let mut pending: Vec<(PlaceId, Pending<'_>)> = Vec::new();
    for (smc, owns, width) in chosen {
        covered.union_with(smc.place_set());
        let anchor = smc
            .places()
            .iter()
            .zip(&owns)
            .find(|&(_, &o)| o)
            .map(|(&p, _)| p)
            .expect("a block owns at least one place");
        pending.push((anchor, Pending::Smc(smc, owns, width)));
    }
    for p in net.places() {
        if !covered.contains(p) {
            pending.push((p, Pending::Single(p)));
        }
    }
    pending.sort_by_key(|&(anchor, _)| anchor);

    let mut blocks = Vec::new();
    let mut next_var = 0usize;
    for (_, item) in pending {
        match item {
            Pending::Smc(smc, owns, width) => {
                let codes = assign_codes(net, smc, &owns, width, assignment);
                let vars: Vec<usize> = (0..width as usize).map(|b| next_var + b).collect();
                next_var += width as usize;
                blocks.push(Block::Smc {
                    places: smc.places().to_vec(),
                    codes,
                    owns,
                    vars,
                    transitions: smc.transitions().to_vec(),
                });
            }
            Pending::Single(p) => {
                blocks.push(Block::Place {
                    place: p,
                    var: next_var,
                });
                next_var += 1;
            }
        }
    }
    Encoding::from_blocks(net, SchemeKind::ImprovedDense, blocks, next_var)
}

#[cfg(test)]
mod tests {
    use super::super::{AssignmentStrategy, Block, Encoding};
    use super::{materialise, Chosen};
    use pnsym_net::nets::{
        dme, figure1, jjreg, muller, philosophers, random_composed, slotted_ring, DmeStyle,
        JjregVariant, RandomNetConfig,
    };
    use pnsym_net::{PetriNet, PlaceId};
    use pnsym_structural::{find_smcs, CoverStrategy, Smc};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The selection loop as it was before the bitsets, kept as the oracle:
    /// an ordered set of covered places, a `used` flag per candidate, and a
    /// fresh list of new places per candidate per round.
    fn oracle_select<'a>(usable: &[&'a Smc], min_new: usize) -> Vec<Chosen<'a>> {
        let mut covered: BTreeSet<PlaceId> = BTreeSet::new();
        let mut chosen = Vec::new();
        let mut used: Vec<bool> = vec![false; usable.len()];
        loop {
            let mut best: Option<(usize, usize, u32)> = None;
            for (i, smc) in usable.iter().enumerate() {
                if used[i] {
                    continue;
                }
                let new: Vec<PlaceId> = smc
                    .places()
                    .iter()
                    .copied()
                    .filter(|p| !covered.contains(p))
                    .collect();
                if new.len() < min_new {
                    continue;
                }
                let width = (new.len() as u32).next_power_of_two().trailing_zeros();
                if width as usize >= new.len() {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, bnew, bwidth)) => {
                        (width as u64) * (bnew as u64) < (bwidth as u64) * (new.len() as u64)
                            || ((width as u64) * (bnew as u64)
                                == (bwidth as u64) * (new.len() as u64)
                                && new.len() > bnew)
                    }
                };
                if better {
                    best = Some((i, new.len(), width));
                }
            }
            let Some((i, _, width)) = best else { break };
            used[i] = true;
            let smc = usable[i];
            let owns: Vec<bool> = smc.places().iter().map(|p| !covered.contains(p)).collect();
            covered.extend(smc.places().iter().copied());
            chosen.push((smc, owns, width));
        }
        chosen
    }

    /// The improved encoding, with and without zero-width blocks, equals
    /// the one laid out from the oracle's selection, block for block.
    fn assert_matches_the_oracle(net: &PetriNet) {
        let smcs = find_smcs(net).unwrap();
        let usable: Vec<&Smc> = smcs.iter().filter(|s| s.initial_tokens() == 1).collect();
        for (encoding, min_new) in [
            (Encoding::improved(net, &smcs, AssignmentStrategy::Gray), 2),
            (
                Encoding::improved_with_zero_width(net, &smcs, AssignmentStrategy::Gray),
                1,
            ),
        ] {
            let oracle = materialise(
                net,
                oracle_select(&usable, min_new),
                AssignmentStrategy::Gray,
            );
            assert_eq!(encoding.blocks(), oracle.blocks(), "{}", net.name());
            assert_eq!(encoding.num_vars(), oracle.num_vars(), "{}", net.name());
        }
    }

    #[test]
    fn selection_matches_the_oracle_on_bundled_families() {
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
            assert_matches_the_oracle(net);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn selection_matches_the_oracle_on_random_nets(
            seed in 0u64..1_000_000,
            components in 1usize..6,
            syncs in 0usize..6,
        ) {
            let net = random_composed(
                RandomNetConfig {
                    components,
                    min_places: 2,
                    max_places: 6,
                    synchronisations: syncs,
                },
                seed,
            );
            assert_matches_the_oracle(&net);
        }
    }

    #[test]
    fn never_uses_more_variables_than_the_basic_scheme() {
        for net in [
            figure1(),
            philosophers(3),
            muller(4),
            slotted_ring(3),
            dme(3, DmeStyle::Spec),
        ] {
            let smcs = find_smcs(&net).unwrap();
            let dense =
                Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray);
            let improved = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
            assert!(
                improved.num_vars() <= dense.num_vars(),
                "{}: improved {} > dense {}",
                net.name(),
                improved.num_vars(),
                dense.num_vars()
            );
            assert!(improved.num_vars() <= net.num_places());
        }
    }

    #[test]
    fn zero_width_extension_shaves_more_variables() {
        // Beyond the paper: allowing parameter-free places lets the fork
        // places of the 2-philosopher net be implied by their SMCs, giving a
        // 6-variable encoding instead of Table 1's 8.
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        let paper = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let extended = Encoding::improved_with_zero_width(&net, &smcs, AssignmentStrategy::Gray);
        assert_eq!(paper.num_vars(), 8);
        assert!(extended.num_vars() <= 6, "got {}", extended.num_vars());
        // The extended encoding still round-trips every reachable marking.
        let rg = net.explore().unwrap();
        for m in rg.markings() {
            let bits = extended.encode_marking(m);
            for p in net.places() {
                assert_eq!(extended.place_is_marked_in(&bits, p), m.is_marked(p));
            }
        }
        // And it is still injective.
        let mut seen = std::collections::HashSet::new();
        for m in rg.markings() {
            assert!(seen.insert(extended.encode_marking(m)));
        }
    }

    #[test]
    fn philosophers_match_table_1() {
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        assert_eq!(enc.num_vars(), 8, "Table 1 uses 8 variables for 14 places");
        // Two full-width blocks (2 vars), two overlap blocks (1 var),
        // two singleton forks.
        let widths: Vec<usize> = enc.blocks().iter().map(Block::width).collect();
        let twos = widths.iter().filter(|&&w| w == 2).count();
        let ones = widths.iter().filter(|&&w| w == 1).count();
        assert_eq!(twos, 2);
        assert_eq!(ones, 4);
    }

    #[test]
    fn every_place_has_exactly_one_owner() {
        let net = dme(3, DmeStyle::Circuit);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        for p in net.places() {
            let owner = enc.owner_of_place(p);
            match &enc.blocks()[owner] {
                Block::Place { place, .. } => assert_eq!(*place, p),
                Block::Smc { places, owns, .. } => {
                    let j = places.iter().position(|&q| q == p).unwrap();
                    assert!(owns[j], "owner block must own the place");
                }
            }
        }
    }

    #[test]
    fn owned_codes_are_distinct_within_each_block() {
        let net = philosophers(3);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        for block in enc.blocks() {
            if let Block::Smc { codes, owns, .. } = block {
                let owned_codes: Vec<u32> = codes
                    .iter()
                    .zip(owns)
                    .filter(|&(_, &o)| o)
                    .map(|(&c, _)| c)
                    .collect();
                let mut sorted = owned_codes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), owned_codes.len());
            }
        }
    }
}
