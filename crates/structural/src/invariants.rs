//! Computation of semi-positive P-invariants by the Farkas /
//! Martínez–Silva elimination algorithm.
//!
//! A P-invariant is a vector `I` over the places with `Iᵀ·C = 0`; a
//! semi-positive invariant is non-negative and non-zero; a *minimal*
//! invariant has no other semi-positive invariant with strictly smaller
//! support. Minimal invariants with unit weights and one initial token are
//! the raw material for State-Machine-Component extraction (Section 2.2 of
//! the paper).

use pnsym_net::{IncidenceMatrix, Marking, PetriNet, PlaceId, PlaceSet};
use std::cmp::Ordering;
use std::fmt;

/// A place-indexed weight vector forming a P-invariant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Invariant {
    weights: Vec<i64>,
}

impl Invariant {
    /// Creates an invariant from raw weights (one per place).
    pub fn new(weights: Vec<i64>) -> Self {
        Invariant { weights }
    }

    /// The weight assigned to each place.
    pub fn weights(&self) -> &[i64] {
        &self.weights
    }

    /// The weight of a single place.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn weight(&self, p: PlaceId) -> i64 {
        self.weights[p.index()]
    }

    /// The support `⟨I⟩`: places with a strictly positive weight.
    pub fn support(&self) -> Vec<PlaceId> {
        self.weights
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, _)| PlaceId(i as u32))
            .collect()
    }

    /// Whether all weights are non-negative and at least one is positive.
    pub fn is_semi_positive(&self) -> bool {
        self.weights.iter().all(|&w| w >= 0) && self.weights.iter().any(|&w| w > 0)
    }

    /// Whether every support place has weight exactly one.
    pub fn has_unit_weights(&self) -> bool {
        self.weights.iter().all(|&w| w == 0 || w == 1)
    }

    /// The weighted token count `I·M` of a marking — constant over all
    /// reachable markings when `I` is a P-invariant.
    ///
    /// # Panics
    ///
    /// Panics if the marking ranges over a different number of places.
    pub fn token_count(&self, marking: &Marking) -> i64 {
        assert_eq!(marking.num_places(), self.weights.len());
        self.weights
            .iter()
            .enumerate()
            .map(|(i, &w)| w * i64::from(marking.is_marked(PlaceId(i as u32))))
            .sum()
    }

    /// Verifies `Iᵀ·C = 0` against the given net.
    pub fn verify(&self, net: &PetriNet) -> bool {
        IncidenceMatrix::from_net(net).is_p_invariant(&self.weights)
    }
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, w) in self.weights.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w}")?;
        }
        write!(f, "]")
    }
}

/// Errors reported by the invariant computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantError {
    /// The intermediate tableau grew beyond the configured row limit.
    RowLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A weight or incidence entry of the tableau left the range of `i64`
    /// (whose negation must fit as well).
    Overflow,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::RowLimit { limit } => {
                write!(f, "invariant tableau exceeded {limit} rows")
            }
            InvariantError::Overflow => write!(f, "invariant weights overflowed i64"),
        }
    }
}

impl std::error::Error for InvariantError {}

/// Options for the Farkas elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantOptions {
    /// Abort if the working tableau ever holds more rows than this.
    pub max_rows: usize,
}

impl Default for InvariantOptions {
    fn default() -> Self {
        InvariantOptions { max_rows: 200_000 }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// One row of the Farkas tableau: the remaining incidence part plus the
/// accumulated invariant weights.
#[derive(Clone)]
struct Row {
    incidence: Vec<i64>,
    weights: Vec<i64>,
    /// The places of positive weight.
    support: PlaceSet,
    /// The number of places in `support`.
    support_len: u32,
}

impl Row {
    /// A row over `incidence` and `weights`, divided by their common gcd,
    /// with its support.
    fn new(mut incidence: Vec<i64>, mut weights: Vec<i64>) -> Row {
        let g = incidence
            .iter()
            .chain(&weights)
            .fold(0i64, |acc, &x| gcd(acc, x));
        if g > 1 {
            for x in incidence.iter_mut().chain(weights.iter_mut()) {
                *x /= g;
            }
        }
        let support = PlaceSet::from_places(
            weights.len(),
            (0..weights.len())
                .filter(|&i| weights[i] > 0)
                .map(|i| PlaceId(i as u32)),
        );
        let support_len = support.len() as u32;
        Row {
            incidence,
            weights,
            support,
            support_len,
        }
    }

    /// Whether this row's support is a subset of `other`'s.
    fn support_within(&self, other: &Row) -> bool {
        self.support.is_subset(&other.support)
    }

    /// The tableau order: by support size, then by the sorted place
    /// indices of the support (on equal size, the support holding the
    /// lowest place of the symmetric difference comes first), then by
    /// weights.
    fn tableau_order(&self, other: &Row) -> Ordering {
        let by_support = || {
            for (&a, &b) in self.support.words().iter().zip(other.support.words()) {
                let diff = a ^ b;
                if diff != 0 {
                    let lowest = diff & diff.wrapping_neg();
                    return if a & lowest != 0 {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    };
                }
            }
            Ordering::Equal
        };
        self.support_len
            .cmp(&other.support_len)
            .then_with(by_support)
            .then_with(|| self.weights.cmp(&other.weights))
    }
}

/// Computes the minimal semi-positive P-invariants of `net` with default
/// [`InvariantOptions`].
///
/// # Errors
///
/// See [`minimal_invariants_with`].
pub fn minimal_invariants(net: &PetriNet) -> Result<Vec<Invariant>, InvariantError> {
    minimal_invariants_with(net, InvariantOptions::default())
}

/// Computes the minimal semi-positive P-invariants of `net`.
///
/// The result is normalised (weights divided by their gcd) and sorted by
/// support. Every returned vector satisfies `Iᵀ·C = 0`, is semi-positive,
/// and no returned support strictly contains another returned support.
///
/// # Errors
///
/// Returns [`InvariantError::RowLimit`] if the intermediate tableau exceeds
/// `options.max_rows` rows (possible for nets whose minimal invariants are
/// exponentially many), and [`InvariantError::Overflow`] if a weight leaves
/// the range of `i64` (possible when weights double along a chain of forks).
pub fn minimal_invariants_with(
    net: &PetriNet,
    options: InvariantOptions,
) -> Result<Vec<Invariant>, InvariantError> {
    let matrix = IncidenceMatrix::from_net(net);
    let num_places = net.num_places();
    let num_transitions = net.num_transitions();

    let mut rows: Vec<Row> = (0..num_places)
        .map(|p| {
            let mut weights = vec![0i64; num_places];
            weights[p] = 1;
            Row::new(matrix.row(PlaceId(p as u32)).to_vec(), weights)
        })
        .collect();

    for t in 0..num_transitions {
        let mut zero_rows: Vec<Row> = Vec::new();
        let mut pos_rows: Vec<Row> = Vec::new();
        let mut neg_rows: Vec<Row> = Vec::new();
        for row in rows.drain(..) {
            match row.incidence[t].cmp(&0) {
                std::cmp::Ordering::Equal => zero_rows.push(row),
                std::cmp::Ordering::Greater => pos_rows.push(row),
                std::cmp::Ordering::Less => neg_rows.push(row),
            }
        }
        let mut new_rows = zero_rows;
        for pos in &pos_rows {
            for neg in &neg_rows {
                let a = pos.incidence[t];
                let b = -neg.incidence[t];
                debug_assert!(a > 0 && b > 0);
                // b·x + a·y, flagging a result outside the range whose
                // negation fits (which `gcd` relies on).
                let mut overflow = false;
                let mut combine = |(x, y): (&i64, &i64)| {
                    b.checked_mul(*x)
                        .zip(a.checked_mul(*y))
                        .and_then(|(bx, ay)| bx.checked_add(ay))
                        .filter(|&v| v != i64::MIN)
                        .unwrap_or_else(|| {
                            overflow = true;
                            0
                        })
                };
                let incidence: Vec<i64> = pos
                    .incidence
                    .iter()
                    .zip(&neg.incidence)
                    .map(&mut combine)
                    .collect();
                let weights: Vec<i64> = pos
                    .weights
                    .iter()
                    .zip(&neg.weights)
                    .map(&mut combine)
                    .collect();
                if overflow {
                    return Err(InvariantError::Overflow);
                }
                debug_assert_eq!(incidence[t], 0);
                // One gcd for both parts: dividing them by separate gcds
                // breaks `incidence = weights · C` for later columns.
                new_rows.push(Row::new(incidence, weights));
                if new_rows.len() > options.max_rows {
                    return Err(InvariantError::RowLimit {
                        limit: options.max_rows,
                    });
                }
            }
        }
        // Prune duplicates and rows whose support strictly contains the
        // support of another row (they can never lead to minimal-support
        // invariants that the smaller row does not already lead to). The
        // rows arrive by support size, so only the prefix of `kept` with
        // strictly smaller supports can contain a strict subset.
        new_rows.sort_by(Row::tableau_order);
        new_rows.dedup_by(|a, b| a.weights == b.weights && a.incidence == b.incidence);
        let mut kept: Vec<Row> = Vec::with_capacity(new_rows.len());
        for row in new_rows {
            let redundant = kept
                .iter()
                .take_while(|k| k.support_len < row.support_len)
                .any(|k| k.support_within(&row));
            if !redundant {
                kept.push(row);
            }
        }
        rows = kept;
    }

    // The pruning above also ran after the last elimination step, so the
    // rows are already distinct and minimal: no support strictly contains
    // another.
    let mut minimal: Vec<Invariant> = rows
        .into_iter()
        .filter(|r| r.weights.iter().any(|&w| w > 0))
        .map(|r| Invariant::new(r.weights))
        .collect();
    minimal.sort_by_key(|i| i.support());
    Ok(minimal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::nets::{
        dme, figure1, jjreg, muller, philosophers, random_composed, slotted_ring, DmeStyle,
        JjregVariant, RandomNetConfig,
    };
    use pnsym_net::NetBuilder;
    use std::collections::BTreeSet;

    /// The final minimality filter `minimal_invariants_with` used to run on
    /// its result, kept as the oracle: it drops every invariant whose
    /// support strictly contains an earlier one's, and every duplicate.
    /// Each kept support is built once, so the oracle stays fast enough
    /// for the DME nets in debug builds.
    fn final_minimality_filter(mut invariants: Vec<Invariant>) -> Vec<Invariant> {
        invariants.sort_by_key(|i| i.support().len());
        let mut minimal: Vec<(BTreeSet<PlaceId>, Invariant)> = Vec::new();
        for inv in invariants {
            let support: BTreeSet<PlaceId> = inv.support().into_iter().collect();
            let dominated = minimal
                .iter()
                .any(|(ms, _)| ms.is_subset(&support) && ms.len() < support.len());
            let duplicate = minimal.iter().any(|(_, m)| m.weights() == inv.weights());
            if !dominated && !duplicate {
                minimal.push((support, inv));
            }
        }
        let mut minimal: Vec<Invariant> = minimal.into_iter().map(|(_, inv)| inv).collect();
        minimal.sort_by_key(|i| i.support());
        minimal
    }

    fn assert_filter_is_the_identity(net: &PetriNet) {
        let invs = minimal_invariants(net).unwrap();
        assert_eq!(
            final_minimality_filter(invs.clone()),
            invs,
            "{}: the elimination loop left a non-minimal invariant",
            net.name()
        );
    }

    /// A chain of `n` doubling stages: `t.k` forks `a.k` into `a.(k+1)`
    /// and `b.k`, and `u.k` joins `b.k` into `a.(k+1)`, so the net's one
    /// invariant weighs `a.k` at `2^(n-k)`.
    fn doubling_chain(n: usize) -> PetriNet {
        let mut b = NetBuilder::new(format!("doubling-{n}"));
        let mut a = b.place_marked("a.0");
        for k in 0..n {
            let next = b.place(format!("a.{}", k + 1));
            let side = b.place(format!("b.{k}"));
            b.transition(format!("t.{k}"), &[a], &[next, side]);
            b.transition(format!("u.{k}"), &[side], &[next]);
            a = next;
        }
        b.build().expect("a well-formed chain")
    }

    #[test]
    fn weights_near_the_i64_limit_are_exact_and_beyond_it_a_typed_error() {
        // 2^62 is i64::MAX / 2 + 1: still exact.
        let net = doubling_chain(62);
        let invariants = minimal_invariants(&net).expect("2^62 fits in i64");
        assert_eq!(invariants.len(), 1);
        assert_eq!(invariants[0].weights()[0], 1 << 62);
        assert!(invariants[0].verify(&net));
        // 2^63 does not fit: a typed error, never a wrapped weight.
        assert_eq!(
            minimal_invariants(&doubling_chain(63)),
            Err(InvariantError::Overflow)
        );
    }

    #[test]
    fn a_row_whose_incidence_alone_shares_a_factor_stays_consistent() {
        // Eliminating t0 combines p and q into a row with weights (1 1 0)
        // and incidence (0 -2). Dividing the incidence alone by its gcd 2
        // used to lose the factor, so eliminating t1 returned (1 1 1),
        // which is no invariant.
        let mut b = NetBuilder::new("split-gcd");
        let p = b.place("p");
        let q = b.place_marked("q");
        let r = b.place("r");
        b.transition("t0", &[q], &[p]);
        b.transition("t1", &[p, q], &[r]);
        let net = b.build().expect("a well-formed net");
        let invariants = minimal_invariants(&net).expect("small weights");
        assert_eq!(invariants, vec![Invariant::new(vec![1, 1, 2])]);
        assert!(invariants[0].verify(&net));
    }

    #[test]
    fn final_minimality_filter_is_the_identity_on_bundled_nets() {
        let mut nets = vec![figure1(), jjreg(JjregVariant::A), jjreg(JjregVariant::B)];
        for n in 2..=5 {
            nets.push(philosophers(n));
            nets.push(slotted_ring(n));
        }
        for n in [4, 8, 12, 16] {
            nets.push(muller(n));
        }
        for n in 2..=10 {
            nets.push(dme(n, DmeStyle::Spec));
            nets.push(dme(n, DmeStyle::Circuit));
        }
        for net in &nets {
            assert_filter_is_the_identity(net);
        }
    }

    #[test]
    fn final_minimality_filter_is_the_identity_on_random_nets() {
        for seed in 0..64 {
            let config = RandomNetConfig {
                components: 1 + (seed % 4) as usize,
                min_places: 2,
                max_places: 5,
                synchronisations: (seed % 5) as usize,
            };
            assert_filter_is_the_identity(&random_composed(config, seed));
        }
    }

    #[test]
    fn bitset_tableau_order_matches_the_sorted_index_order() {
        // The bitset comparison must order every pair of rows as the
        // `(support size, sorted support indices, weights)` key does, so
        // the invariants come out in the same order. Supports span several
        // words, and some pairs differ only past the first word.
        let row = |weights: Vec<i64>| Row::new(Vec::new(), weights);
        let key = |r: &Row| {
            let support: BTreeSet<usize> =
                (0..r.weights.len()).filter(|&i| r.weights[i] > 0).collect();
            (support.len(), support, r.weights.clone())
        };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rows = Vec::new();
        for _ in 0..300 {
            let weights = (0..150)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Sparse supports with occasional weight 2.
                    match state % 40 {
                        0 => 2,
                        1..=3 => 1,
                        _ => 0,
                    }
                })
                .collect();
            rows.push(row(weights));
        }
        // Same-size variants differing only past the first word.
        for i in 0..100 {
            let mut weights = rows[i].weights.clone();
            let from = (64..150).find(|&p| weights[p] > 0).unwrap();
            let to = (64..150).rev().find(|&p| weights[p] == 0).unwrap();
            weights.swap(from, to);
            rows.push(row(weights));
        }
        let keys: Vec<_> = rows.iter().map(key).collect();
        for (a, ka) in rows.iter().zip(&keys) {
            for (b, kb) in rows.iter().zip(&keys) {
                assert_eq!(a.tableau_order(b), ka.cmp(kb));
                assert_eq!(a.support_within(b), ka.1.is_subset(&kb.1));
            }
        }
    }

    #[test]
    fn figure1_has_the_two_paper_invariants() {
        let net = figure1();
        let invs = minimal_invariants(&net).unwrap();
        assert_eq!(invs.len(), 2);
        let mut weight_sets: Vec<Vec<i64>> = invs.iter().map(|i| i.weights().to_vec()).collect();
        weight_sets.sort();
        assert_eq!(
            weight_sets,
            vec![
                vec![1, 0, 1, 0, 1, 0, 1], // I2 = {p1, p3, p5, p7}
                vec![1, 1, 0, 1, 0, 1, 0], // I1 = {p1, p2, p4, p6}
            ]
        );
        for inv in &invs {
            assert!(inv.verify(&net));
            assert!(inv.is_semi_positive());
            assert!(inv.has_unit_weights());
            assert_eq!(inv.token_count(net.initial_marking()), 1);
        }
    }

    #[test]
    fn every_computed_invariant_verifies() {
        let nets = vec![
            philosophers(3),
            muller(4),
            slotted_ring(3),
            dme(3, DmeStyle::Spec),
            dme(2, DmeStyle::Circuit),
        ];
        for net in nets {
            let invs = minimal_invariants(&net).unwrap();
            assert!(!invs.is_empty(), "{} should have invariants", net.name());
            for inv in &invs {
                assert!(inv.verify(&net), "invariant {inv} of {}", net.name());
                assert!(inv.is_semi_positive());
            }
        }
    }

    #[test]
    fn philosophers_invariant_counts() {
        // Per philosopher: the two branch SMCs; per fork: one invariant.
        let net = philosophers(2);
        let invs = minimal_invariants(&net).unwrap();
        assert_eq!(invs.len(), 6, "2 branches x 2 philosophers + 2 forks");
        for inv in &invs {
            assert_eq!(inv.token_count(net.initial_marking()), 1);
        }
    }

    #[test]
    fn muller_invariants_are_per_stage() {
        let net = muller(5);
        let invs = minimal_invariants(&net).unwrap();
        assert_eq!(invs.len(), 5);
        for inv in &invs {
            assert_eq!(inv.support().len(), 4);
            assert!(inv.has_unit_weights());
        }
    }

    #[test]
    fn supports_are_minimal() {
        let net = philosophers(3);
        let invs = minimal_invariants(&net).unwrap();
        for (i, a) in invs.iter().enumerate() {
            for (j, b) in invs.iter().enumerate() {
                if i == j {
                    continue;
                }
                let sa: BTreeSet<_> = a.support().into_iter().collect();
                let sb: BTreeSet<_> = b.support().into_iter().collect();
                assert!(
                    !(sa.is_subset(&sb) && sa.len() < sb.len()),
                    "support of invariant {i} is contained in {j}"
                );
            }
        }
    }

    #[test]
    fn row_limit_is_reported() {
        let net = philosophers(4);
        let err = minimal_invariants_with(&net, InvariantOptions { max_rows: 2 }).unwrap_err();
        assert!(matches!(err, InvariantError::RowLimit { limit: 2 }));
    }

    #[test]
    fn token_count_is_preserved_along_runs() {
        let net = figure1();
        let invs = minimal_invariants(&net).unwrap();
        let rg = net.explore().unwrap();
        for inv in &invs {
            let expected = inv.token_count(net.initial_marking());
            for m in rg.markings() {
                assert_eq!(inv.token_count(m), expected);
            }
        }
    }
}
