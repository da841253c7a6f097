//! State Machine Components (SMCs): extraction from P-invariants and the
//! structural checks of Section 2.2.

use crate::invariants::{minimal_invariants_with, Invariant, InvariantError, InvariantOptions};
use pnsym_net::{PetriNet, PlaceId, PlaceSet, TransitionId};
use std::fmt;

/// A State Machine Component of a Petri net: a subset of places generating a
/// strongly connected state machine.
///
/// By Theorem 2.1 of the paper the characteristic vector of the place set is
/// a minimal semi-positive P-invariant, so the token count inside the
/// component is preserved; components holding exactly one token admit a
/// logarithmic encoding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Smc {
    places: Vec<PlaceId>,
    /// The same places as a bitset, for O(1) membership.
    set: PlaceSet,
    transitions: Vec<TransitionId>,
    initial_tokens: usize,
}

impl Smc {
    /// The component's places in increasing index order.
    pub fn places(&self) -> &[PlaceId] {
        &self.places
    }

    /// The transitions adjacent to the component's places.
    pub fn transitions(&self) -> &[TransitionId] {
        &self.transitions
    }

    /// Number of places in the component.
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// Whether the component has no places (never true for a checked SMC).
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// The component's places as a bitset over the net's places.
    pub fn place_set(&self) -> &PlaceSet {
        &self.set
    }

    /// Whether `p` belongs to the component.
    pub fn contains(&self, p: PlaceId) -> bool {
        self.set.contains(p)
    }

    /// Number of tokens the component holds in the initial marking.
    pub fn initial_tokens(&self) -> usize {
        self.initial_tokens
    }

    /// Number of boolean variables a logarithmic encoding of this component
    /// needs: `⌈log2 |places|⌉`.
    pub fn encoding_cost(&self) -> u32 {
        (self.places.len() as u32)
            .next_power_of_two()
            .trailing_zeros()
    }

    /// The output place of `t` inside the component, if `t` is covered.
    pub fn output_place_of(&self, net: &PetriNet, t: TransitionId) -> Option<PlaceId> {
        net.post_set(t).iter().copied().find(|&p| self.contains(p))
    }

    /// The input place of `t` inside the component, if `t` is covered.
    pub fn input_place_of(&self, net: &PetriNet, t: TransitionId) -> Option<PlaceId> {
        net.pre_set(t).iter().copied().find(|&p| self.contains(p))
    }
}

impl fmt::Display for Smc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SMC{{")?;
        for (i, p) in self.places.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Why a place set fails to be a (usable) SMC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmcCheckError {
    /// The set is empty.
    Empty,
    /// A covered transition has more or fewer than one input place in the set.
    BadInputDegree {
        /// The offending transition.
        transition: TransitionId,
        /// How many of its input places lie in the set.
        count: usize,
    },
    /// A covered transition has more or fewer than one output place in the set.
    BadOutputDegree {
        /// The offending transition.
        transition: TransitionId,
        /// How many of its output places lie in the set.
        count: usize,
    },
    /// The generated state machine is not strongly connected.
    NotStronglyConnected,
}

impl fmt::Display for SmcCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmcCheckError::Empty => write!(f, "empty place set"),
            SmcCheckError::BadInputDegree { transition, count } => write!(
                f,
                "transition {transition} has {count} input places in the set (expected 1)"
            ),
            SmcCheckError::BadOutputDegree { transition, count } => write!(
                f,
                "transition {transition} has {count} output places in the set (expected 1)"
            ),
            SmcCheckError::NotStronglyConnected => {
                write!(f, "the generated state machine is not strongly connected")
            }
        }
    }
}

impl std::error::Error for SmcCheckError {}

/// Checks whether `places` generates a State Machine Component of `net` and
/// returns it if so.
///
/// The generated subnet takes every transition adjacent to the places; each
/// such transition must have exactly one input and one output place within
/// the set, and the induced place graph must be strongly connected
/// (single-place components with a self-loop transition are accepted).
///
/// # Errors
///
/// Returns an [`SmcCheckError`] describing the first violated condition:
/// the adjacent transitions are checked in ascending order, each for its
/// input places before its output places, and strong connectivity last.
pub fn check_smc(net: &PetriNet, places: &[PlaceId]) -> Result<Smc, SmcCheckError> {
    let set = PlaceSet::from_places(net.num_places(), places.iter().copied());
    let places: Vec<PlaceId> = set.iter().collect();
    SmcChecker::new(net).check(&places, &set)
}

/// The scratch space of [`check_smc`], reused across the candidates of one
/// net so that a check allocates only the component it returns.
///
/// A check counts, for every transition adjacent to the set, its input and
/// output places inside the set, remembering the last of each. A set that
/// passes the degree test has exactly one arc `in_place[t] → out_place[t]`
/// per adjacent transition, so strong connectivity is one forward and one
/// backward search over the places' own adjacency lists: O(places + arcs).
struct SmcChecker<'n> {
    net: &'n PetriNet,
    ins: Vec<u32>,
    outs: Vec<u32>,
    in_place: Vec<PlaceId>,
    out_place: Vec<PlaceId>,
    /// The transitions whose counts are non-zero.
    touched: Vec<TransitionId>,
    seen: PlaceSet,
    stack: Vec<PlaceId>,
}

impl<'n> SmcChecker<'n> {
    fn new(net: &'n PetriNet) -> Self {
        let num_transitions = net.num_transitions();
        SmcChecker {
            net,
            ins: vec![0; num_transitions],
            outs: vec![0; num_transitions],
            in_place: vec![PlaceId(0); num_transitions],
            out_place: vec![PlaceId(0); num_transitions],
            touched: Vec::new(),
            seen: PlaceSet::new(net.num_places()),
            stack: Vec::new(),
        }
    }

    /// Checks the set `set`, whose places in increasing order are `places`.
    fn check(&mut self, places: &[PlaceId], set: &PlaceSet) -> Result<Smc, SmcCheckError> {
        let net = self.net;
        if places.is_empty() {
            return Err(SmcCheckError::Empty);
        }
        for t in self.touched.drain(..) {
            self.ins[t.index()] = 0;
            self.outs[t.index()] = 0;
        }
        for &p in places {
            for &t in net.place_post_set(p) {
                if self.ins[t.index()] == 0 && self.outs[t.index()] == 0 {
                    self.touched.push(t);
                }
                self.ins[t.index()] += 1;
                self.in_place[t.index()] = p;
            }
            for &t in net.place_pre_set(p) {
                if self.ins[t.index()] == 0 && self.outs[t.index()] == 0 {
                    self.touched.push(t);
                }
                self.outs[t.index()] += 1;
                self.out_place[t.index()] = p;
            }
        }
        self.touched.sort_unstable();
        for &t in &self.touched {
            let count = self.ins[t.index()] as usize;
            if count != 1 {
                return Err(SmcCheckError::BadInputDegree {
                    transition: t,
                    count,
                });
            }
            let count = self.outs[t.index()] as usize;
            if count != 1 {
                return Err(SmcCheckError::BadOutputDegree {
                    transition: t,
                    count,
                });
            }
        }
        if !(self.reaches_all(places, true) && self.reaches_all(places, false)) {
            return Err(SmcCheckError::NotStronglyConnected);
        }
        let initial = net.initial_marking();
        Ok(Smc {
            places: places.to_vec(),
            set: set.clone(),
            transitions: self.touched.clone(),
            initial_tokens: places.iter().filter(|&&p| initial.is_marked(p)).count(),
        })
    }

    /// Whether every place is reached from the lowest one along the arcs
    /// (`forward`) or against them. Only valid after the degree test.
    fn reaches_all(&mut self, places: &[PlaceId], forward: bool) -> bool {
        let net = self.net;
        self.seen.clear();
        self.seen.insert(places[0]);
        self.stack.push(places[0]);
        let mut reached = 1;
        while let Some(p) = self.stack.pop() {
            let (arcs, ends) = if forward {
                (net.place_post_set(p), &self.out_place)
            } else {
                (net.place_pre_set(p), &self.in_place)
            };
            for &t in arcs {
                let q = ends[t.index()];
                if self.seen.insert(q) {
                    reached += 1;
                    self.stack.push(q);
                }
            }
        }
        reached == places.len()
    }
}

/// Extracts every SMC holding exactly one initial token from a list of
/// minimal semi-positive invariants: the candidates are the unit-weight
/// invariants whose support passes [`check_smc`], in the order of
/// `invariants`.
///
/// Each invariant's weights are read once, for the unit-weight test, the
/// support and its initial token count together; only a unit-weight
/// support holding one token is checked structurally.
pub fn smcs_from_invariants(net: &PetriNet, invariants: &[Invariant]) -> Vec<Smc> {
    let mut checker = SmcChecker::new(net);
    let mut places: Vec<PlaceId> = Vec::new();
    let mut set = PlaceSet::new(net.num_places());
    let mut smcs = Vec::new();
    'invariants: for inv in invariants {
        places.clear();
        set.clear();
        let mut tokens = 0;
        for (i, &w) in inv.weights().iter().enumerate() {
            match w {
                0 => {}
                1 => {
                    let p = PlaceId(i as u32);
                    places.push(p);
                    set.insert(p);
                    tokens += usize::from(net.initial_marking().is_marked(p));
                }
                _ => continue 'invariants,
            }
        }
        if tokens == 1 {
            smcs.extend(checker.check(&places, &set).ok());
        }
    }
    smcs
}

/// Convenience: computes the minimal invariants of `net` and extracts the
/// one-token SMCs from them.
///
/// # Errors
///
/// Propagates [`InvariantError`] from the invariant computation.
pub fn find_smcs(net: &PetriNet) -> Result<Vec<Smc>, InvariantError> {
    find_smcs_with(net, InvariantOptions::default())
}

/// [`find_smcs`] with explicit invariant-computation options.
///
/// # Errors
///
/// Propagates [`InvariantError`] from the invariant computation.
pub fn find_smcs_with(
    net: &PetriNet,
    options: InvariantOptions,
) -> Result<Vec<Smc>, InvariantError> {
    let invariants = minimal_invariants_with(net, options)?;
    Ok(smcs_from_invariants(net, &invariants))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::minimal_invariants;
    use pnsym_net::nets::{
        dme, figure1, jjreg, muller, philosophers, random_composed, slotted_ring, DmeStyle,
        JjregVariant, RandomNetConfig,
    };
    use proptest::prelude::*;
    use std::collections::{BTreeSet, HashMap, HashSet};

    /// [`check_smc`] as it was before the bitset checker, kept as the
    /// oracle: ordered sets, a map of edges, and a backward search that
    /// scans every edge list once per place.
    fn oracle_check_smc(net: &PetriNet, places: &[PlaceId]) -> Result<Smc, SmcCheckError> {
        if places.is_empty() {
            return Err(SmcCheckError::Empty);
        }
        let place_set: BTreeSet<PlaceId> = places.iter().copied().collect();
        let mut transitions: BTreeSet<TransitionId> = BTreeSet::new();
        for &p in &place_set {
            transitions.extend(net.place_pre_set(p).iter().copied());
            transitions.extend(net.place_post_set(p).iter().copied());
        }
        let mut edges: HashMap<PlaceId, Vec<PlaceId>> = HashMap::new();
        for &t in &transitions {
            let ins: Vec<PlaceId> = net
                .pre_set(t)
                .iter()
                .copied()
                .filter(|p| place_set.contains(p))
                .collect();
            let outs: Vec<PlaceId> = net
                .post_set(t)
                .iter()
                .copied()
                .filter(|p| place_set.contains(p))
                .collect();
            if ins.len() != 1 {
                return Err(SmcCheckError::BadInputDegree {
                    transition: t,
                    count: ins.len(),
                });
            }
            if outs.len() != 1 {
                return Err(SmcCheckError::BadOutputDegree {
                    transition: t,
                    count: outs.len(),
                });
            }
            edges.entry(ins[0]).or_default().push(outs[0]);
        }
        let start = *place_set.iter().next().expect("non-empty");
        let reaches_all = |forward: bool| -> bool {
            let mut seen: HashSet<PlaceId> = HashSet::new();
            let mut stack = vec![start];
            while let Some(p) = stack.pop() {
                if !seen.insert(p) {
                    continue;
                }
                if forward {
                    if let Some(next) = edges.get(&p) {
                        stack.extend(next.iter().copied());
                    }
                } else {
                    for (&src, targets) in &edges {
                        if targets.contains(&p) {
                            stack.push(src);
                        }
                    }
                }
            }
            seen.len() == place_set.len()
        };
        if place_set.len() > 1 && !(reaches_all(true) && reaches_all(false)) {
            return Err(SmcCheckError::NotStronglyConnected);
        }
        let initial_tokens = place_set
            .iter()
            .filter(|&&p| net.initial_marking().is_marked(p))
            .count();
        Ok(Smc {
            set: PlaceSet::from_places(net.num_places(), place_set.iter().copied()),
            places: place_set.into_iter().collect(),
            transitions: transitions.into_iter().collect(),
            initial_tokens,
        })
    }

    /// [`smcs_from_invariants`] as it was, over [`oracle_check_smc`].
    fn oracle_smcs_from_invariants(net: &PetriNet, invariants: &[Invariant]) -> Vec<Smc> {
        invariants
            .iter()
            .filter(|inv| inv.has_unit_weights())
            .filter_map(|inv| oracle_check_smc(net, &inv.support()).ok())
            .filter(|smc| smc.initial_tokens() == 1)
            .collect()
    }

    /// Asserts that the bitset pipeline and the oracle agree on `net`: the
    /// extracted components, order included, and the verdict on every
    /// invariant support, every union of two supports (degree-clean but
    /// often disconnected), every support less its lowest place, and the
    /// `extra` place lists. Returns the verdicts' discriminants.
    fn assert_matches_the_oracle(
        net: &PetriNet,
        extra: &[Vec<PlaceId>],
    ) -> HashSet<std::mem::Discriminant<SmcCheckError>> {
        let invariants = minimal_invariants(net).unwrap();
        assert_eq!(
            smcs_from_invariants(net, &invariants),
            oracle_smcs_from_invariants(net, &invariants),
            "{}",
            net.name()
        );
        let supports: Vec<Vec<PlaceId>> = invariants.iter().map(Invariant::support).collect();
        let mut lists: Vec<Vec<PlaceId>> = extra.to_vec();
        for (i, a) in supports.iter().enumerate().take(40) {
            lists.push(a.clone());
            lists.push(a[1..].to_vec());
            for b in supports.iter().skip(i + 1).take(8) {
                lists.push(a.iter().chain(b).copied().collect());
            }
        }
        let mut verdicts = HashSet::new();
        for places in &lists {
            let verdict = check_smc(net, places);
            assert_eq!(
                verdict,
                oracle_check_smc(net, places),
                "{}: {places:?}",
                net.name()
            );
            verdicts.extend(verdict.err().as_ref().map(std::mem::discriminant));
        }
        verdicts
    }

    #[test]
    fn smcs_match_the_oracle_on_bundled_families() {
        let mut nets = vec![
            figure1(),
            jjreg(JjregVariant::A),
            jjreg(JjregVariant::B),
            one_way(),
        ];
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
        let mut verdicts = HashSet::new();
        for net in &nets {
            // A few unsorted lists with repeats, besides the supports.
            let n = net.num_places() as u32;
            let mut extra: Vec<Vec<PlaceId>> = (0..8)
                .map(|k| {
                    (0..k + 1)
                        .map(|i| PlaceId((i * 7 + k * 3) % n))
                        .rev()
                        .collect()
                })
                .collect();
            extra.push(Vec::new());
            verdicts.extend(assert_matches_the_oracle(net, &extra));
        }
        // Every kind of failure was compared.
        assert_eq!(verdicts.len(), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random composed nets, with arbitrary place lists (unsorted, with
        /// repeats) besides the invariant supports and their unions.
        #[test]
        fn smcs_match_the_oracle_on_random_nets(
            seed in 0u64..1_000_000,
            components in 1usize..5,
            syncs in 0usize..5,
            lists in proptest::collection::vec(proptest::collection::vec(0u32..64, 0..10), 0..8),
        ) {
            let net = random_composed(
                RandomNetConfig {
                    components,
                    min_places: 2,
                    max_places: 5,
                    synchronisations: syncs,
                },
                seed,
            );
            let n = net.num_places() as u32;
            let extra: Vec<Vec<PlaceId>> = lists
                .iter()
                .map(|list| list.iter().map(|&i| PlaceId(i % n)).collect())
                .collect();
            assert_matches_the_oracle(&net, &extra);
        }
    }

    fn names(net: &PetriNet, smc: &Smc) -> Vec<String> {
        smc.places()
            .iter()
            .map(|&p| net.place_name(p).to_string())
            .collect()
    }

    #[test]
    fn figure1_smcs_match_figure_2e() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        assert_eq!(smcs.len(), 2);
        let mut sets: Vec<Vec<String>> = smcs.iter().map(|s| names(&net, s)).collect();
        sets.sort();
        assert_eq!(
            sets,
            vec![vec!["p1", "p2", "p4", "p6"], vec!["p1", "p3", "p5", "p7"]]
        );
        for smc in &smcs {
            assert_eq!(smc.encoding_cost(), 2);
            assert_eq!(smc.initial_tokens(), 1);
        }
    }

    #[test]
    fn figure3_decomposition_of_two_philosophers() {
        // The paper's Figure 3 shows six SMCs covering all 14 places.
        let net = philosophers(2);
        let smcs = find_smcs(&net).unwrap();
        assert_eq!(smcs.len(), 6);
        let mut covered: BTreeSet<PlaceId> = BTreeSet::new();
        for smc in &smcs {
            covered.extend(smc.places().iter().copied());
        }
        assert_eq!(covered.len(), 14, "the SMCs cover every place");
        // Branch SMCs have 4 places, fork SMCs have 5 in this model.
        let sizes: BTreeSet<usize> = smcs.iter().map(Smc::len).collect();
        assert_eq!(sizes, BTreeSet::from([4, 5]));
    }

    #[test]
    fn rejects_non_state_machine_sets() {
        let net = figure1();
        // {p1, p2}: t1 has two output places outside? t1: p1 -> {p2, p3};
        // within {p1, p2} it has one input (p1) and one output (p2), t3 has
        // input p2 but output p6 outside the set -> bad output degree.
        let p1 = net.place_by_name("p1").unwrap();
        let p2 = net.place_by_name("p2").unwrap();
        let err = check_smc(&net, &[p1, p2]).unwrap_err();
        assert!(matches!(err, SmcCheckError::BadOutputDegree { .. }));
        assert!(check_smc(&net, &[]).is_err());
    }

    /// Two one-token invariants whose supports pass the degree test but
    /// reach their other place only one way: `a0 → b0` with a self-loop on
    /// `b0`, and `b1 → a1` with a self-loop on `a1`. The first fails the
    /// backward search from its lowest place, the second the forward one.
    fn one_way() -> PetriNet {
        let mut b = pnsym_net::NetBuilder::new("one-way");
        let (a0, b0) = (b.place_marked("a0"), b.place("b0"));
        let (a1, b1) = (b.place("a1"), b.place_marked("b1"));
        b.transition("t0", &[a0], &[b0]);
        b.transition("loop0", &[b0], &[b0]);
        b.transition("t1", &[b1], &[a1]);
        b.transition("loop1", &[a1], &[a1]);
        b.build().unwrap()
    }

    #[test]
    fn one_way_components_are_not_strongly_connected() {
        let net = one_way();
        for pair in [[PlaceId(0), PlaceId(1)], [PlaceId(2), PlaceId(3)]] {
            assert_eq!(
                check_smc(&net, &pair),
                Err(SmcCheckError::NotStronglyConnected)
            );
        }
        assert_eq!(minimal_invariants(&net).unwrap().len(), 2);
        assert!(find_smcs(&net).unwrap().is_empty());
    }

    #[test]
    fn muller_stage_components() {
        let net = muller(4);
        let smcs = find_smcs(&net).unwrap();
        assert_eq!(smcs.len(), 4);
        for smc in &smcs {
            assert_eq!(smc.len(), 4);
            assert_eq!(smc.encoding_cost(), 2);
        }
    }

    #[test]
    fn dme_has_one_large_token_component() {
        let net = dme(4, DmeStyle::Spec);
        let smcs = find_smcs(&net).unwrap();
        // Per cell there are three 3-place user SMCs ({idle,pending,critical},
        // {idle,pending,held} and {idle,prep,prepped}), and the
        // circulating-token invariant has one variant per cell (held_i may
        // be swapped for critical_i), so 4·3 + 2^4 = 28 minimal one-token
        // SMCs exist in total.
        assert_eq!(smcs.len(), 28);
        let largest = smcs.iter().map(Smc::len).max().unwrap();
        assert_eq!(largest, 8, "the token component spans 2 places per cell");
        let large = smcs.iter().find(|s| s.len() == 8).unwrap();
        assert_eq!(large.encoding_cost(), 3);
        // Together the SMCs cover every place of the net.
        let covered: BTreeSet<PlaceId> = smcs
            .iter()
            .flat_map(|s| s.places().iter().copied())
            .collect();
        assert_eq!(covered.len(), net.num_places());
    }

    #[test]
    fn slotted_ring_components_cover_everything() {
        let net = slotted_ring(3);
        let smcs = find_smcs(&net).unwrap();
        let mut covered: BTreeSet<PlaceId> = BTreeSet::new();
        for smc in &smcs {
            covered.extend(smc.places().iter().copied());
        }
        assert_eq!(covered.len(), net.num_places());
    }

    #[test]
    fn encoding_cost_is_ceil_log2() {
        let net = dme(3, DmeStyle::Spec);
        let smcs = find_smcs(&net).unwrap();
        for smc in &smcs {
            let expected = (smc.len() as f64).log2().ceil() as u32;
            assert_eq!(smc.encoding_cost(), expected, "SMC of {} places", smc.len());
        }
    }

    #[test]
    fn output_and_input_place_lookup() {
        let net = figure1();
        let smcs = find_smcs(&net).unwrap();
        let smc1 = smcs
            .iter()
            .find(|s| s.contains(net.place_by_name("p2").unwrap()))
            .unwrap();
        let t1 = net.transition_by_name("t1").unwrap();
        assert_eq!(smc1.output_place_of(&net, t1), net.place_by_name("p2"));
        assert_eq!(smc1.input_place_of(&net, t1), net.place_by_name("p1"));
    }
}
