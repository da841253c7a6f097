//! Computation of semi-positive P-invariants by the Farkas /
//! Martínez–Silva elimination algorithm.
//!
//! A P-invariant is a vector `I` over the places with `Iᵀ·C = 0`; a
//! semi-positive invariant is non-negative and non-zero; a *minimal*
//! invariant has no other semi-positive invariant with strictly smaller
//! support. Minimal invariants with unit weights and one initial token are
//! the raw material for State-Machine-Component extraction (Section 2.2 of
//! the paper).

use pnsym_net::{IncidenceMatrix, Marking, PetriNet, PlaceId};
use std::collections::BTreeSet;
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
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::RowLimit { limit } => {
                write!(f, "invariant tableau exceeded {limit} rows")
            }
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

fn normalize(row: &mut [i64]) {
    let g = row.iter().fold(0i64, |acc, &x| gcd(acc, x));
    if g > 1 {
        for x in row.iter_mut() {
            *x /= g;
        }
    }
}

/// One row of the Farkas tableau: the remaining incidence part plus the
/// accumulated invariant weights.
#[derive(Clone)]
struct Row {
    incidence: Vec<i64>,
    weights: Vec<i64>,
    support: BTreeSet<u32>,
}

impl Row {
    fn renormalize(&mut self) {
        let g = self
            .incidence
            .iter()
            .chain(self.weights.iter())
            .fold(0i64, |acc, &x| gcd(acc, x));
        if g > 1 {
            for x in self.incidence.iter_mut().chain(self.weights.iter_mut()) {
                *x /= g;
            }
        }
        self.support = self
            .weights
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w > 0)
            .map(|(i, _)| i as u32)
            .collect();
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
/// exponentially many).
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
            Row {
                incidence: matrix.row(PlaceId(p as u32)).to_vec(),
                weights,
                support: std::iter::once(p as u32).collect(),
            }
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
                let mut incidence: Vec<i64> = pos
                    .incidence
                    .iter()
                    .zip(&neg.incidence)
                    .map(|(x, y)| b * x + a * y)
                    .collect();
                debug_assert_eq!(incidence[t], 0);
                let mut weights: Vec<i64> = pos
                    .weights
                    .iter()
                    .zip(&neg.weights)
                    .map(|(x, y)| b * x + a * y)
                    .collect();
                normalize(&mut incidence);
                normalize(&mut weights);
                let mut row = Row {
                    incidence,
                    weights,
                    support: BTreeSet::new(),
                };
                row.renormalize();
                new_rows.push(row);
                if new_rows.len() > options.max_rows {
                    return Err(InvariantError::RowLimit {
                        limit: options.max_rows,
                    });
                }
            }
        }
        // Prune duplicates and rows whose support strictly contains the
        // support of another row (they can never lead to minimal-support
        // invariants that the smaller row does not already lead to).
        new_rows.sort_by_key(|r| (r.support.len(), r.support.clone(), r.weights.clone()));
        new_rows.dedup_by(|a, b| a.weights == b.weights && a.incidence == b.incidence);
        let mut kept: Vec<Row> = Vec::with_capacity(new_rows.len());
        for row in new_rows {
            let redundant = kept
                .iter()
                .any(|k| k.support.len() < row.support.len() && k.support.is_subset(&row.support));
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
