//! State-encoding schemes for safe Petri nets (Sections 3–4 of the paper).
//!
//! An [`Encoding`] maps every marking of a net to an assignment of a set of
//! boolean *state variables*. Three schemes are provided:
//!
//! * [`Encoding::sparse`] — one variable per place (the conventional scheme
//!   the paper improves upon);
//! * [`Encoding::dense`] — the basic SMC-based scheme of Sections 4.1–4.3: a
//!   minimum-cost cover of the places by SMCs is chosen and each SMC of `k`
//!   places is encoded with `⌈log2 k⌉` variables;
//! * [`Encoding::improved`] — the overlap-aware scheme of Section 4.4, where
//!   a place already covered by an earlier SMC is not encoded again.
//!
//! The encoding itself is purely combinational data (blocks, codes and
//! variable indices); the BDD machinery that turns it into characteristic
//! functions and transition relations lives in
//! [`SymbolicContext`](crate::SymbolicContext).

mod assign;
mod dense;
mod improved;
mod sparse;

pub use assign::AssignmentStrategy;

use pnsym_net::{Marking, PetriNet, PlaceId, TransitionId};
use pnsym_structural::Smc;
use std::collections::HashMap;
use std::fmt;

/// Which encoding scheme produced an [`Encoding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// One boolean variable per place.
    Sparse,
    /// Basic SMC cover encoding (Sections 4.1–4.3).
    Dense,
    /// Improved overlap-aware SMC encoding (Section 4.4).
    ImprovedDense,
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeKind::Sparse => write!(f, "sparse"),
            SchemeKind::Dense => write!(f, "dense"),
            SchemeKind::ImprovedDense => write!(f, "improved-dense"),
        }
    }
}

/// One variable block of an encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A single place encoded by a single variable (sparse scheme and
    /// left-over places of the dense schemes).
    Place {
        /// The encoded place.
        place: PlaceId,
        /// The state-variable index holding the place's marking.
        var: usize,
    },
    /// An SMC encoded logarithmically.
    Smc {
        /// The places of the component, sorted by index.
        places: Vec<PlaceId>,
        /// `codes[i]` is the code assigned to `places[i]`
        /// (bit `b` of the code corresponds to `vars[b]`).
        codes: Vec<u32>,
        /// `owns[i]` is true when this block is the owning block of
        /// `places[i]` (always true in the basic dense scheme).
        owns: Vec<bool>,
        /// The state-variable indices of this block, least-significant first.
        vars: Vec<usize>,
        /// The transitions covered by (adjacent to) the component.
        transitions: Vec<TransitionId>,
    },
}

impl Block {
    /// The state-variable indices used by this block.
    pub fn vars(&self) -> Vec<usize> {
        match self {
            Block::Place { var, .. } => vec![*var],
            Block::Smc { vars, .. } => vars.clone(),
        }
    }

    /// Number of state variables used by this block.
    pub fn width(&self) -> usize {
        match self {
            Block::Place { .. } => 1,
            Block::Smc { vars, .. } => vars.len(),
        }
    }
}

/// A complete state encoding of a safe Petri net.
///
/// See the [module documentation](self) for the available schemes.
#[derive(Debug, Clone)]
pub struct Encoding {
    scheme: SchemeKind,
    num_vars: usize,
    blocks: Vec<Block>,
    /// For every place, the indices of the blocks that mention it.
    blocks_of_place: Vec<Vec<usize>>,
    /// For every place, the index of its *owning* block.
    owner_of_place: Vec<usize>,
    /// For every transition, the indices of the blocks whose variables it
    /// may change.
    blocks_of_transition: Vec<Vec<usize>>,
}

impl Encoding {
    pub(crate) fn from_blocks(
        net: &PetriNet,
        scheme: SchemeKind,
        blocks: Vec<Block>,
        num_vars: usize,
    ) -> Self {
        let mut blocks_of_place: Vec<Vec<usize>> = vec![Vec::new(); net.num_places()];
        let mut owner_of_place: Vec<Option<usize>> = vec![None; net.num_places()];
        let mut blocks_of_transition: Vec<Vec<usize>> = vec![Vec::new(); net.num_transitions()];
        for (bi, block) in blocks.iter().enumerate() {
            match block {
                Block::Place { place, .. } => {
                    blocks_of_place[place.index()].push(bi);
                    owner_of_place[place.index()] = Some(bi);
                    for &t in net
                        .place_pre_set(*place)
                        .iter()
                        .chain(net.place_post_set(*place))
                    {
                        if !blocks_of_transition[t.index()].contains(&bi) {
                            blocks_of_transition[t.index()].push(bi);
                        }
                    }
                }
                Block::Smc {
                    places,
                    owns,
                    transitions,
                    ..
                } => {
                    for (j, &p) in places.iter().enumerate() {
                        blocks_of_place[p.index()].push(bi);
                        if owns[j] {
                            debug_assert!(
                                owner_of_place[p.index()].is_none(),
                                "place {p} owned twice"
                            );
                            owner_of_place[p.index()] = Some(bi);
                        }
                    }
                    for &t in transitions {
                        blocks_of_transition[t.index()].push(bi);
                    }
                }
            }
        }
        let owner_of_place = owner_of_place
            .into_iter()
            .enumerate()
            .map(|(p, o)| o.unwrap_or_else(|| panic!("place p{p} has no owning block")))
            .collect();
        Encoding {
            scheme,
            num_vars,
            blocks,
            blocks_of_place,
            owner_of_place,
            blocks_of_transition,
        }
    }

    /// The scheme that produced this encoding.
    pub fn scheme(&self) -> SchemeKind {
        self.scheme
    }

    /// Number of state variables (the `V` column of the paper's tables).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The encoding's variable blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Indices of the blocks that mention place `p`.
    pub fn blocks_of_place(&self, p: PlaceId) -> &[usize] {
        &self.blocks_of_place[p.index()]
    }

    /// Index of the block that *owns* place `p` (encodes it, in the sense of
    /// Section 4.4).
    pub fn owner_of_place(&self, p: PlaceId) -> usize {
        self.owner_of_place[p.index()]
    }

    /// Indices of the blocks whose variables transition `t` may change.
    pub fn blocks_of_transition(&self, t: TransitionId) -> &[usize] {
        &self.blocks_of_transition[t.index()]
    }

    /// Encodes a marking as an assignment of the state variables.
    ///
    /// # Panics
    ///
    /// Panics if the marking does not mark exactly one place of some SMC
    /// block (i.e. it is not a marking the encoding was built for).
    pub fn encode_marking(&self, m: &Marking) -> Vec<bool> {
        let mut bits = vec![false; self.num_vars];
        for block in &self.blocks {
            match block {
                Block::Place { place, var } => {
                    bits[*var] = m.is_marked(*place);
                }
                Block::Smc {
                    places,
                    codes,
                    vars,
                    ..
                } => {
                    let marked: Vec<usize> = places
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| m.is_marked(p))
                        .map(|(j, _)| j)
                        .collect();
                    assert_eq!(
                        marked.len(),
                        1,
                        "an SMC block must hold exactly one token in every encodable marking"
                    );
                    let code = codes[marked[0]];
                    for (b, &v) in vars.iter().enumerate() {
                        bits[v] = code & (1 << b) != 0;
                    }
                }
            }
        }
        bits
    }

    /// Decodes a state-variable assignment back into the set of marked
    /// places, or `None` if the assignment is not the image of any marking
    /// (possible for the dense schemes, whose codes are not surjective).
    pub fn decode_assignment(&self, bits: &[bool]) -> Option<Vec<PlaceId>> {
        assert_eq!(bits.len(), self.num_vars, "wrong assignment width");
        let mut marked = Vec::new();
        for p in 0..self.blocks_of_place.len() {
            let place = PlaceId(p as u32);
            if self.place_is_marked_in(bits, place) {
                marked.push(place);
            }
        }
        // Validate: re-encoding must reproduce the assignment on every
        // owning block; otherwise the assignment was not a marking image.
        let mut m = Marking::empty(self.blocks_of_place.len());
        for &p in &marked {
            m.set(p, true);
        }
        for block in &self.blocks {
            if let Block::Smc { places, .. } = block {
                if places.iter().filter(|&&p| m.is_marked(p)).count() != 1 {
                    return None;
                }
            }
        }
        if self.encode_marking(&m) == bits {
            Some(marked)
        } else {
            None
        }
    }

    /// Whether place `p` is marked under the given state-variable assignment,
    /// evaluated with the (recursive) characteristic-function definition of
    /// Section 5.1.
    pub fn place_is_marked_in(&self, bits: &[bool], p: PlaceId) -> bool {
        let mut memo = HashMap::new();
        self.place_marked_rec(bits, p, &mut memo)
    }

    fn place_marked_rec(
        &self,
        bits: &[bool],
        p: PlaceId,
        memo: &mut HashMap<PlaceId, bool>,
    ) -> bool {
        if let Some(&v) = memo.get(&p) {
            return v;
        }
        let owner = self.owner_of_place(p);
        let result = match &self.blocks[owner] {
            Block::Place { var, .. } => bits[*var],
            Block::Smc {
                places,
                codes,
                vars,
                ..
            } => {
                let j = places.iter().position(|&q| q == p).expect("owner lists p");
                let code = codes[j];
                let matches = vars
                    .iter()
                    .enumerate()
                    .all(|(b, &v)| bits[v] == (code & (1 << b) != 0));
                if !matches {
                    false
                } else {
                    // Exclude the places sharing this code whose own owner
                    // says they are marked (eq. 4, in its recursive form).
                    !places.iter().enumerate().any(|(k, &q)| {
                        q != p
                            && codes[k] == code
                            && self.owner_of_place(q) != owner
                            && self.place_marked_rec(bits, q, memo)
                    })
                }
            }
        };
        memo.insert(p, result);
        result
    }

    /// Constructs the sparse one-variable-per-place encoding.
    pub fn sparse(net: &PetriNet) -> Encoding {
        sparse::build(net)
    }

    /// Constructs the basic dense SMC-cover encoding (Sections 4.1–4.3).
    ///
    /// `smcs` are the candidate components (typically from
    /// [`pnsym_structural::find_smcs`]); the cover is selected with
    /// `strategy` and codes are assigned with `assignment`.
    pub fn dense(
        net: &PetriNet,
        smcs: &[Smc],
        strategy: pnsym_structural::CoverStrategy,
        assignment: AssignmentStrategy,
    ) -> Encoding {
        dense::build(net, smcs, strategy, assignment)
    }

    /// Constructs the improved overlap-aware encoding (Section 4.4).
    pub fn improved(net: &PetriNet, smcs: &[Smc], assignment: AssignmentStrategy) -> Encoding {
        improved::build(net, smcs, assignment)
    }

    /// The improved encoding extended with *parameter-free places*: an SMC
    /// whose places are all covered except one may be added at zero cost,
    /// because the marking of the remaining place is implied by the rest of
    /// the component (exactly one place of an SMC is marked). This goes
    /// beyond the paper's Section 4.4, which always spends at least one
    /// variable per otherwise-uncovered place: the two-philosopher net of
    /// Table 1 needs at most 6 variables instead of 8.
    pub fn improved_with_zero_width(
        net: &PetriNet,
        smcs: &[Smc],
        assignment: AssignmentStrategy,
    ) -> Encoding {
        improved::build_with(net, smcs, assignment, true)
    }

    /// The density of the encoding in the sense of Section 3: reachable
    /// markings per potential assignment, `|[M0⟩| / 2^num_vars`, for a known
    /// marking count.
    pub fn density(&self, num_markings: f64) -> f64 {
        num_markings / 2f64.powi(self.num_vars as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::nets::{figure1, philosophers};
    use pnsym_structural::{find_smcs, CoverStrategy};

    fn all_schemes(net: &PetriNet) -> Vec<Encoding> {
        let smcs = find_smcs(net).unwrap();
        vec![
            Encoding::sparse(net),
            Encoding::dense(net, &smcs, CoverStrategy::Exact, AssignmentStrategy::Gray),
            Encoding::improved(net, &smcs, AssignmentStrategy::Gray),
        ]
    }

    #[test]
    fn variable_counts_on_figure1() {
        let net = figure1();
        let encs = all_schemes(&net);
        assert_eq!(encs[0].num_vars(), 7, "sparse: one variable per place");
        assert_eq!(encs[1].num_vars(), 4, "dense: two SMCs of 4 places");
        assert_eq!(encs[2].num_vars(), 4, "improved is never worse than dense");
    }

    #[test]
    fn figure4_improved_uses_eight_variables() {
        // Section 5.4: 14 sparse variables, 10 with the basic scheme,
        // 8 with the improved scheme (Table 1).
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        let sparse = Encoding::sparse(&net);
        let dense = Encoding::dense(&net, &smcs, CoverStrategy::Exact, AssignmentStrategy::Gray);
        let improved = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        assert_eq!(sparse.num_vars(), 14);
        assert!(dense.num_vars() <= 10, "basic cover needs at most 10 vars");
        assert_eq!(improved.num_vars(), 8, "Table 1 uses 8 variables");
    }

    #[test]
    fn every_reachable_marking_round_trips() {
        for net in [figure1(), philosophers(2)] {
            let rg = net.explore().unwrap();
            for enc in all_schemes(&net) {
                for m in rg.markings() {
                    let bits = enc.encode_marking(m);
                    assert_eq!(bits.len(), enc.num_vars());
                    // The characteristic evaluation agrees with the marking.
                    for p in net.places() {
                        assert_eq!(
                            enc.place_is_marked_in(&bits, p),
                            m.is_marked(p),
                            "scheme {:?}, place {p}, marking {m}",
                            enc.scheme()
                        );
                    }
                    // And the decoder recovers the marking.
                    let decoded = enc.decode_assignment(&bits).expect("valid image");
                    assert_eq!(decoded, m.marked_places());
                }
            }
        }
    }

    #[test]
    fn encoding_is_injective_on_reachable_markings() {
        for net in [figure1(), philosophers(2)] {
            let rg = net.explore().unwrap();
            for enc in all_schemes(&net) {
                let mut seen = std::collections::HashSet::new();
                for m in rg.markings() {
                    assert!(
                        seen.insert(enc.encode_marking(m)),
                        "two markings share a code under {:?}",
                        enc.scheme()
                    );
                }
            }
        }
    }

    #[test]
    fn density_improves_with_denser_schemes() {
        let net = figure1();
        let encs = all_schemes(&net);
        let markings = net.explore().unwrap().num_markings() as f64;
        let sparse_density = encs[0].density(markings);
        let dense_density = encs[2].density(markings);
        assert!(dense_density > sparse_density);
        assert_eq!(dense_density, 8.0 / 16.0);
    }

    #[test]
    fn decode_rejects_non_images() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let enc = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        // Count how many of the 2^4 assignments decode successfully: exactly
        // the number of "potentially reachable" codes, which is at least the
        // number of reachable markings.
        let valid = (0u32..16)
            .filter(|bits| {
                let assignment: Vec<bool> = (0..4).map(|b| bits & (1 << b) != 0).collect();
                enc.decode_assignment(&assignment).is_some()
            })
            .count();
        assert!(valid >= 8);
        assert!(valid <= 16);
    }

    #[test]
    fn transition_block_index_is_consistent() {
        let net = figure1();
        for enc in all_schemes(&net) {
            for t in net.transitions() {
                let blocks = enc.blocks_of_transition(t);
                // Every place adjacent to t must have its owner in the list.
                for &p in net.pre_set(t).iter().chain(net.post_set(t)) {
                    assert!(blocks.contains(&enc.owner_of_place(p)));
                }
            }
        }
    }
}
