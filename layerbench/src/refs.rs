//! The benchmark's inputs and the references its outputs are checked
//! against. Every reference here is a closed form in the net size or a
//! verdict pinned in the bundled property suites; none is taken from the
//! symbolic engine's own output. The unit tests check each closed form
//! against explicit exploration for small sizes.

use pnsym_net::nets::{dme, muller, philosophers, property_suite, slotted_ring, DmeStyle};
use pnsym_net::PetriNet;

/// A generator family of the bundled benchmark nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Phil,
    Muller,
    Slot,
    DmeSpec,
    DmeCir,
}

/// One net of a workload: a family and its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetSpec {
    pub family: Family,
    pub n: usize,
}

pub const fn spec(family: Family, n: usize) -> NetSpec {
    NetSpec { family, n }
}

impl NetSpec {
    /// The net's name, which is also the daemon's spec for it.
    pub fn name(&self) -> String {
        let family = match self.family {
            Family::Phil => "phil",
            Family::Muller => "muller",
            Family::Slot => "slot",
            Family::DmeSpec => "dme-spec",
            Family::DmeCir => "dme-cir",
        };
        format!("{family}-{}", self.n)
    }

    pub fn build(&self) -> PetriNet {
        match self.family {
            Family::Phil => philosophers(self.n),
            Family::Muller => muller(self.n),
            Family::Slot => slotted_ring(self.n),
            Family::DmeSpec => dme(self.n, DmeStyle::Spec),
            Family::DmeCir => dme(self.n, DmeStyle::Circuit),
        }
    }

    /// Number of reachable markings, in closed form.
    pub fn markings(&self) -> u64 {
        let n = self.n as u32;
        match self.family {
            Family::Muller => 4u64.pow(n),
            Family::Slot => 4u64.pow(n) - 2,
            Family::DmeSpec => 5 * self.n as u64 * 3u64.pow(n - 1),
            Family::DmeCir => 7 * self.n as u64 * 3u64.pow(n - 1),
            Family::Phil => {
                // a(n) = 4 a(n-1) + 3 a(n-2), a(2) = 22, a(3) = 100.
                let (mut prev, mut cur) = (22u64, 100u64);
                match self.n {
                    2 => return prev,
                    3 => return cur,
                    _ => {}
                }
                for _ in 4..=self.n {
                    (prev, cur) = (cur, 4 * cur + 3 * prev);
                }
                cur
            }
        }
    }

    /// Number of reachable deadlocked markings.
    pub fn deadlocks(&self) -> u64 {
        match self.family {
            Family::Phil => 2,
            Family::Slot => 1,
            Family::Muller | Family::DmeSpec | Family::DmeCir => 0,
        }
    }

    /// The name of the family's cheapest suite property: a safety
    /// invariant that holds, so it carries no trace.
    pub fn cheap_property(&self) -> &'static str {
        match self.family {
            Family::Phil => "adjacent-exclusion",
            Family::Muller => "handshake-phase",
            Family::Slot => "slot-phase",
            Family::DmeSpec | Family::DmeCir => "mutex",
        }
    }
}

/// One suite property with its pinned verdict.
#[derive(Debug, Clone)]
pub struct Expectation {
    pub name: String,
    pub formula: String,
    pub holds: bool,
}

/// The bundled suite of `net`, each property with its pinned verdict.
/// Every bundled suite pins every verdict.
pub fn suite(net: &PetriNet) -> Vec<Expectation> {
    property_suite(net)
        .into_iter()
        .map(|p| Expectation {
            holds: p
                .expect
                .unwrap_or_else(|| panic!("{}: suite property {} is unpinned", net.name(), p.name)),
            name: p.name,
            formula: p.formula,
        })
        .collect()
}

/// The one suite property named `name`.
pub fn suite_property(net: &PetriNet, name: &str) -> Expectation {
    suite(net)
        .into_iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("{} has no suite property {name}", net.name()))
}

/// Reads a marking count reported by the engine as an exact integer.
/// Every count the benchmark checks goes through here, so a change of the
/// engine's count type is a change of this one function.
pub fn exact_count(reported: f64) -> Option<u64> {
    (reported >= 0.0 && reported.fract() == 0.0 && reported < 2f64.powi(53))
        .then_some(reported as u64)
}

/// Whether the engine's count equals the reference.
pub fn count_matches(reported: f64, expected: u64) -> bool {
    exact_count(reported) == Some(expected)
}

/// Replays a firing sequence given by transition names from the initial
/// marking; `false` if a name is unknown or a transition is not enabled
/// when it is fired.
pub fn replay(net: &PetriNet, names: &[String]) -> bool {
    let mut marking = net.initial_marking().clone();
    for name in names {
        let Some(t) = net.transition_by_name(name) else {
            return false;
        };
        match net.fire(&marking, t) {
            Ok(next) => marking = next,
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnsym_net::TransitionId;

    const FAMILIES: [Family; 5] = [
        Family::Phil,
        Family::Muller,
        Family::Slot,
        Family::DmeSpec,
        Family::DmeCir,
    ];

    #[test]
    fn closed_forms_match_explicit_exploration() {
        for family in FAMILIES {
            for n in 2..=6 {
                let spec = spec(family, n);
                let net = spec.build();
                let graph = net.explore().expect("small nets explore");
                assert_eq!(
                    graph.num_markings() as u64,
                    spec.markings(),
                    "{} markings",
                    spec.name()
                );
                assert_eq!(
                    graph.deadlocks(&net).len() as u64,
                    spec.deadlocks(),
                    "{} deadlocks",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn names_round_trip_through_the_generators() {
        for family in FAMILIES {
            let spec = spec(family, 3);
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    fn every_cheap_property_is_a_pinned_suite_member() {
        for family in FAMILIES {
            let net = spec(family, 3).build();
            let cheap = suite_property(&net, spec(family, 3).cheap_property());
            assert!(cheap.holds, "{}: {}", net.name(), cheap.name);
        }
    }

    #[test]
    fn exact_count_rejects_inexact_values() {
        assert_eq!(exact_count(22.0), Some(22));
        assert_eq!(exact_count(22.5), None);
        assert_eq!(exact_count(-1.0), None);
        assert_eq!(exact_count(2f64.powi(60)), None);
    }

    #[test]
    fn replay_follows_the_token_game() {
        let net = spec(Family::Phil, 2).build();
        assert!(replay(&net, &[]));
        let first = net.transitions().next().expect("a transition");
        let enabled = net.enabled_transitions(net.initial_marking());
        let name = |t: TransitionId| net.transition_name(t).to_string();
        assert!(replay(&net, &[name(enabled[0])]));
        assert!(!replay(&net, &["no-such-transition".to_string()]));
        if !enabled.contains(&first) {
            assert!(!replay(&net, &[name(first)]));
        }
    }
}
