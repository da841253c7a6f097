//! The basic SMC-cover encoding (Sections 4.1–4.3 of the paper).
//!
//! A minimum-cost cover of the places by SMCs is selected (unate covering,
//! Section 4.2); every chosen SMC of `k` places receives `⌈log2 k⌉`
//! variables and an injective code over *all* of its places; places covered
//! by no chosen SMC keep one variable each.

use super::assign::{assign_codes, AssignmentStrategy};
use super::{Block, Encoding, SchemeKind};
use pnsym_net::{PetriNet, PlaceId, PlaceSet};
use pnsym_structural::{select_smc_cover, CoverStrategy, Smc};

pub(super) fn build(
    net: &PetriNet,
    smcs: &[Smc],
    strategy: CoverStrategy,
    assignment: AssignmentStrategy,
) -> Encoding {
    let cover = select_smc_cover(net, smcs, strategy);
    let mut blocks = Vec::new();
    let mut next_var = 0usize;
    let mut owned_places = PlaceSet::new(net.num_places());

    // Lay the chosen components and the singleton places out by their lowest
    // place index so that the variables of strongly interacting components
    // stay adjacent (the generators declare places unit by unit).
    enum Pending {
        Smc(usize),
        Single(PlaceId),
    }
    let mut pending: Vec<(PlaceId, Pending)> = cover
        .chosen
        .iter()
        .map(|&i| {
            let anchor = smcs[i].places()[0];
            (anchor, Pending::Smc(i))
        })
        .collect();
    pending.extend(
        cover
            .singleton_places
            .iter()
            .map(|&p| (p, Pending::Single(p))),
    );
    pending.sort_by_key(|&(anchor, _)| anchor);

    for (_, item) in pending {
        match item {
            Pending::Smc(smc_index) => {
                let smc = &smcs[smc_index];
                let width = smc.encoding_cost();
                // All places of the block get distinct codes; ownership goes
                // to the first laid-out block containing the place.
                let all_owned = vec![true; smc.len()];
                let codes = assign_codes(net, smc, &all_owned, width, assignment);
                let owns: Vec<bool> = smc
                    .places()
                    .iter()
                    .map(|&p| owned_places.insert(p))
                    .collect();
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
    Encoding::from_blocks(net, SchemeKind::Dense, blocks, next_var)
}

#[cfg(test)]
mod tests {
    use super::super::{AssignmentStrategy, Block, Encoding};
    use pnsym_net::nets::{dme, figure1, muller, DmeStyle};
    use pnsym_structural::{find_smcs, CoverStrategy};

    #[test]
    fn figure1_dense_uses_two_blocks_of_two_bits() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::dense(&net, &smcs, CoverStrategy::Exact, AssignmentStrategy::Gray);
        assert_eq!(enc.num_vars(), 4);
        let smc_blocks = enc
            .blocks()
            .iter()
            .filter(|b| matches!(b, Block::Smc { .. }))
            .count();
        assert_eq!(smc_blocks, 2);
    }

    #[test]
    fn muller_dense_halves_variable_count() {
        let net = muller(5);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray);
        assert_eq!(enc.num_vars(), 10);
        assert_eq!(Encoding::sparse(&net).num_vars(), 20);
    }

    #[test]
    fn codes_are_injective_within_each_block() {
        let net = dme(3, DmeStyle::Spec);
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::dense(&net, &smcs, CoverStrategy::Greedy, AssignmentStrategy::Gray);
        for block in enc.blocks() {
            if let Block::Smc { codes, .. } = block {
                let mut sorted = codes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), codes.len());
            }
        }
    }

    #[test]
    fn sequential_assignment_also_round_trips() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::dense(
            &net,
            &smcs,
            CoverStrategy::Exact,
            AssignmentStrategy::Sequential,
        );
        let rg = net.explore().unwrap();
        for m in rg.markings() {
            let bits = enc.encode_marking(m);
            for p in net.places() {
                assert_eq!(enc.place_is_marked_in(&bits, p), m.is_marked(p));
            }
        }
    }
}
