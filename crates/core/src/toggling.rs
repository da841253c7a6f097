//! Metrics of toggling activity (Section 3 and Section 5.2 of the paper).
//!
//! Moving from one marking to an adjacent one switches some encoding
//! variables; the fewer bits toggle per firing, the cheaper the toggle-style
//! BDD updates. These metrics quantify that over the explicit reachability
//! graph, both for [`Encoding`]s and for arbitrary per-marking code tables
//! (used to reproduce the 15/11 vs 19/11 comparison of Figure 2).

use crate::encoding::Encoding;
use pnsym_net::{PetriNet, ReachabilityGraph};

/// Statistics of the toggling activity of an encoding over a reachability
/// graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TogglingReport {
    /// Sum of the Hamming distances over all reachability-graph edges.
    pub total_bits: usize,
    /// Number of edges of the reachability graph.
    pub num_edges: usize,
    /// The largest Hamming distance over a single edge.
    pub max_bits: usize,
}

impl TogglingReport {
    /// Average number of bits toggled per firing.
    pub fn average(&self) -> f64 {
        if self.num_edges == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.num_edges as f64
        }
    }
}

/// Measures the toggling activity of `encoding` over the reachability graph
/// `rg` of `net`: for every edge, the Hamming distance between the encoded
/// source and target markings.
pub fn toggling_activity(
    net: &PetriNet,
    encoding: &Encoding,
    rg: &ReachabilityGraph,
) -> TogglingReport {
    let _ = net;
    let codes: Vec<Vec<bool>> = rg
        .markings()
        .iter()
        .map(|m| encoding.encode_marking(m))
        .collect();
    let mut total = 0usize;
    let mut max = 0usize;
    for &(src, _, dst) in rg.edges() {
        let d = hamming(&codes[src], &codes[dst]);
        total += d;
        max = max.max(d);
    }
    TogglingReport {
        total_bits: total,
        num_edges: rg.num_edges(),
        max_bits: max,
    }
}

/// Measures the toggling activity of an arbitrary per-marking code table
/// (`codes[i]` is the code of the marking with reachability-graph index
/// `i`), as used for the hand-assigned optimal encodings of Figure 2.c/d.
///
/// # Panics
///
/// Panics if `codes` does not have one entry per reachable marking.
pub fn toggling_of_state_codes(rg: &ReachabilityGraph, codes: &[u32]) -> TogglingReport {
    assert_eq!(
        codes.len(),
        rg.num_markings(),
        "one code per reachable marking"
    );
    let mut total = 0usize;
    let mut max = 0usize;
    for &(src, _, dst) in rg.edges() {
        let d = (codes[src] ^ codes[dst]).count_ones() as usize;
        total += d;
        max = max.max(d);
    }
    TogglingReport {
        total_bits: total,
        num_edges: rg.num_edges(),
        max_bits: max,
    }
}

fn hamming(a: &[bool], b: &[bool]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::AssignmentStrategy;
    use pnsym_net::nets::figure1;
    use pnsym_net::Marking;
    use pnsym_structural::find_smcs;

    /// Maps the paper's marking names (M0..M7 of Figure 1.b) to the indices
    /// of our explicitly computed reachability graph.
    fn paper_marking_indices(net: &pnsym_net::PetriNet, rg: &ReachabilityGraph) -> Vec<usize> {
        let by_names = |names: &[&str]| -> usize {
            let places: Vec<_> = names
                .iter()
                .map(|n| net.place_by_name(n).expect("place exists"))
                .collect();
            let m = Marking::from_places(net.num_places(), &places);
            rg.index_of(&m).expect("marking reachable")
        };
        vec![
            by_names(&["p1"]),       // M0
            by_names(&["p2", "p3"]), // M1
            by_names(&["p4", "p5"]), // M2
            by_names(&["p3", "p6"]), // M3
            by_names(&["p2", "p7"]), // M4
            by_names(&["p5", "p6"]), // M5
            by_names(&["p4", "p7"]), // M6
            by_names(&["p6", "p7"]), // M7
        ]
    }

    #[test]
    fn figure_2c_assignment_toggles_15_bits() {
        // Section 3: the 3-variable assignment of Figure 2.c switches 15
        // bits over the 11 edges of the reachability graph.
        let net = figure1();
        let rg = net.explore().unwrap();
        let order = paper_marking_indices(&net, &rg);
        let paper_codes: [u32; 8] = [0b000, 0b001, 0b100, 0b011, 0b101, 0b110, 0b111, 0b010];
        let mut codes = vec![0u32; rg.num_markings()];
        for (paper_m, &rg_index) in order.iter().enumerate() {
            codes[rg_index] = paper_codes[paper_m];
        }
        let report = toggling_of_state_codes(&rg, &codes);
        assert_eq!(report.num_edges, 11);
        assert_eq!(report.total_bits, 15);
    }

    #[test]
    fn naive_sequential_assignment_is_worse() {
        // Assigning plain binary codes in BFS order toggles more bits than
        // the Figure 2.c assignment (the paper's 2.d example needs 19/11).
        let net = figure1();
        let rg = net.explore().unwrap();
        let order = paper_marking_indices(&net, &rg);
        let mut codes = vec![0u32; rg.num_markings()];
        for (paper_m, &rg_index) in order.iter().enumerate() {
            codes[rg_index] = paper_m as u32;
        }
        let report = toggling_of_state_codes(&rg, &codes);
        assert!(report.total_bits > 15);
    }

    #[test]
    fn gray_smc_encoding_beats_sequential_assignment() {
        let net = figure1();
        let rg = net.explore().unwrap();
        let smcs = find_smcs(&net).unwrap();
        let gray = Encoding::improved(&net, &smcs, AssignmentStrategy::Gray);
        let seq = Encoding::improved(&net, &smcs, AssignmentStrategy::Sequential);
        let rg_gray = toggling_activity(&net, &gray, &rg);
        let rg_seq = toggling_activity(&net, &seq, &rg);
        assert!(rg_gray.total_bits <= rg_seq.total_bits);
        assert!(rg_gray.average() <= 2.0, "firing toggles at most both SMCs");
    }

    #[test]
    fn sparse_toggling_counts_token_moves() {
        // Under the sparse encoding the Hamming distance of a firing is
        // |pre ∆ post| of the fired transition.
        let net = figure1();
        let rg = net.explore().unwrap();
        let sparse = Encoding::sparse(&net);
        let report = toggling_activity(&net, &sparse, &rg);
        let mut expected = 0usize;
        for &(_, t, _) in rg.edges() {
            let pre: std::collections::BTreeSet<_> = net.pre_set(t).iter().collect();
            let post: std::collections::BTreeSet<_> = net.post_set(t).iter().collect();
            expected += pre.symmetric_difference(&post).count();
        }
        assert_eq!(report.total_bits, expected);
    }
}
