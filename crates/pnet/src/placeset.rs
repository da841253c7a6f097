//! Sets of places as fixed-width word bitsets.

use crate::ids::PlaceId;

/// A set of places of one net: one bit per place in `u64` words, the same
/// layout as a [`Marking`](crate::Marking).
///
/// The structural pipeline works on these: invariant supports, State
/// Machine Components and the covered places of the encoders' selection
/// loops. Membership is one word test, and the set operations the
/// selection loops score candidates with (`|A ∩ B|`, `|A \ B|`, `A ⊆ B`)
/// are one pass over the words. Binary operations expect both sets to
/// range over the same number of places.
///
/// # Examples
///
/// ```
/// use pnsym_net::{PlaceId, PlaceSet};
/// let a = PlaceSet::from_places(70, [PlaceId(1), PlaceId(3), PlaceId(65)]);
/// let mut covered = PlaceSet::new(70);
/// covered.insert(PlaceId(3));
/// assert_eq!(a.len(), 3);
/// assert_eq!(a.difference_len(&covered), 2);
/// covered.union_with(&a);
/// assert_eq!(covered.iter().collect::<Vec<_>>(), vec![PlaceId(1), PlaceId(3), PlaceId(65)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlaceSet {
    words: Vec<u64>,
}

impl PlaceSet {
    /// The empty set over `num_places` places.
    #[inline]
    pub fn new(num_places: usize) -> Self {
        PlaceSet {
            words: vec![0; num_places.div_ceil(64)],
        }
    }

    /// The set of all `num_places` places.
    #[inline]
    pub fn full(num_places: usize) -> Self {
        let mut set = Self::new(num_places);
        set.words.fill(!0);
        if !num_places.is_multiple_of(64) {
            if let Some(last) = set.words.last_mut() {
                *last = (1u64 << (num_places % 64)) - 1;
            }
        }
        set
    }

    /// The set of the given places over `num_places` places.
    ///
    /// # Panics
    ///
    /// Panics if a place lies beyond the last word.
    #[inline]
    pub fn from_places(num_places: usize, places: impl IntoIterator<Item = PlaceId>) -> Self {
        let mut set = Self::new(num_places);
        for p in places {
            set.insert(p);
        }
        set
    }

    /// Adds `p`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies beyond the last word.
    #[inline]
    pub fn insert(&mut self, p: PlaceId) -> bool {
        let (word, bit) = (p.index() / 64, 1u64 << (p.index() % 64));
        let absent = self.words[word] & bit == 0;
        self.words[word] |= bit;
        absent
    }

    /// Whether `p` belongs to the set (false for any place out of range).
    #[inline]
    pub fn contains(&self, p: PlaceId) -> bool {
        self.words
            .get(p.index() / 64)
            .is_some_and(|w| w & (1u64 << (p.index() % 64)) != 0)
    }

    /// Number of places in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no place.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every place.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The lowest place of the set.
    #[inline]
    pub fn first(&self) -> Option<PlaceId> {
        self.words
            .iter()
            .position(|&w| w != 0)
            .map(|i| PlaceId((i * 64) as u32 + self.words[i].trailing_zeros()))
    }

    /// The places of the set in increasing index order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    PlaceId((i * 64) as u32 + bit)
                })
            })
        })
    }

    /// The words of the set, place `p` at bit `p % 64` of word `p / 64`.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether every place of `self` belongs to `other`.
    #[inline]
    pub fn is_subset(&self, other: &PlaceSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| a & !b == 0)
    }

    /// Whether the two sets share a place.
    #[inline]
    pub fn intersects(&self, other: &PlaceSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// `|self ∩ other|`.
    #[inline]
    pub fn intersection_len(&self, other: &PlaceSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `|self \ other|`.
    #[inline]
    pub fn difference_len(&self, other: &PlaceSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// `self ← self ∪ other`.
    #[inline]
    pub fn union_with(&mut self, other: &PlaceSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ← self \ other`.
    #[inline]
    pub fn difference_with(&mut self, other: &PlaceSet) {
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn set_operations_match_btreeset_across_words() {
        let n = 150;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut random_set = || {
            let mut places = BTreeSet::new();
            for p in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    places.insert(PlaceId(p));
                }
            }
            places
        };
        for _ in 0..50 {
            let (a, b) = (random_set(), random_set());
            let (sa, sb) = (
                PlaceSet::from_places(n as usize, a.iter().copied()),
                PlaceSet::from_places(n as usize, b.iter().copied()),
            );
            assert_eq!(sa.iter().collect::<BTreeSet<_>>(), a);
            assert_eq!(sa.len(), a.len());
            assert_eq!(sa.first(), a.first().copied());
            assert_eq!(sa.is_subset(&sb), a.is_subset(&b));
            assert_eq!(sa.intersects(&sb), !a.is_disjoint(&b));
            assert_eq!(sa.intersection_len(&sb), a.intersection(&b).count());
            assert_eq!(sa.difference_len(&sb), a.difference(&b).count());
            let mut union = sa.clone();
            union.union_with(&sb);
            assert_eq!(union.iter().collect::<BTreeSet<_>>(), &a | &b);
            let mut difference = sa.clone();
            difference.difference_with(&sb);
            assert_eq!(difference.iter().collect::<BTreeSet<_>>(), &a - &b);
            for p in 0..n + 70 {
                assert_eq!(sa.contains(PlaceId(p)), a.contains(&PlaceId(p)));
            }
        }
    }

    #[test]
    fn full_and_empty_sets() {
        for n in [0, 1, 63, 64, 65, 128, 130] {
            let full = PlaceSet::full(n);
            assert_eq!(full.len(), n);
            assert_eq!(
                full.iter().map(PlaceId::index).collect::<Vec<_>>(),
                (0..n).collect::<Vec<_>>()
            );
            let mut empty = PlaceSet::new(n);
            assert!(empty.is_empty() && empty.first().is_none());
            assert!(empty.is_subset(&full));
            if n > 0 {
                assert!(empty.insert(PlaceId(n as u32 - 1)));
                assert!(!empty.insert(PlaceId(n as u32 - 1)));
                empty.clear();
                assert!(empty.is_empty());
            }
        }
    }
}
