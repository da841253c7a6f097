//! The reference task: a fixed BDD job, timed between the operations of a
//! run so that each operation's time can be stated as a multiple of the
//! machine's speed at that moment.
//!
//! The shared host this benchmark was built on runs the same BDD work up
//! to twice as slowly for minutes at a time, while an arithmetic loop
//! slows by a few per cent. The task is therefore the same kind of work as
//! the program's kernel (hash-consing into a unique table, a lossy computed
//! cache, recursive conjunction) but in the benchmark's own code, so a
//! change to the program under test never changes it. It builds the BDD
//! of the n-queens problem twice and checks its solution count: once with
//! tables that fit in a core's own cache, which the host's slow spells
//! barely touch, and once with tables of a few MiB, which they slow more
//! than the program's operations. Their sum slows about as much as the
//! operations do.

use std::collections::HashMap;
use std::time::Instant;

/// Board size of the task and its number of solutions.
const QUEENS: u32 = 7;
const SOLUTIONS: f64 = 40.0;

const FALSE: u32 = 0;
const TRUE: u32 = 1;

/// The reference task: the same n-queens job on a small and a large
/// package.
pub struct Reference {
    small: Package,
    large: Package,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            // About 1.6 MiB in all with the node array.
            small: Package::new(17, 15),
            // About 8 MiB.
            large: Package::new(20, 18),
        }
    }

    /// One run of the task on both packages, in ms of wall time.
    pub fn run_ms(&mut self) -> f64 {
        let clock = Instant::now();
        let solutions = [self.small.queens(QUEENS), self.large.queens(QUEENS)];
        let elapsed = clock.elapsed().as_secs_f64() * 1e3;
        assert_eq!(solutions, [SOLUTIONS; 2], "the reference task miscounted");
        elapsed
    }
}

/// A minimal BDD package; its tables are reused from run to run.
struct Package {
    /// `[var, low, high]` by node id; ids 0 and 1 are the terminals.
    nodes: Vec<[u32; 3]>,
    /// Open addressing: node id + 1, or 0 for an empty slot.
    unique: Vec<u32>,
    /// Direct-mapped `[a, b, a ∧ b]`; `a` is 0 in an empty slot.
    cache: Vec<[u32; 3]>,
    vars: u32,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl Package {
    /// A package with `2^unique_bits` unique-table slots and
    /// `2^cache_bits` computed-cache slots.
    fn new(unique_bits: u32, cache_bits: u32) -> Package {
        Package {
            nodes: Vec::new(),
            unique: vec![0; 1 << unique_bits],
            cache: vec![[0; 3]; 1 << cache_bits],
            vars: 0,
        }
    }

    fn mk(&mut self, var: u32, low: u32, high: u32) -> u32 {
        if low == high {
            return low;
        }
        let mask = self.unique.len() - 1;
        let key = (var as u64) << 42 ^ (low as u64) << 21 ^ high as u64;
        let mut slot = mix(key) as usize & mask;
        loop {
            match self.unique[slot] {
                0 => {
                    self.nodes.push([var, low, high]);
                    let id = self.nodes.len() as u32 - 1;
                    self.unique[slot] = id + 1;
                    return id;
                }
                at if self.nodes[at as usize - 1] == [var, low, high] => return at - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    fn and(&mut self, a: u32, b: u32) -> u32 {
        if a == FALSE || b == FALSE {
            return FALSE;
        }
        if a == TRUE || a == b {
            return b;
        }
        if b == TRUE {
            return a;
        }
        let (a, b) = (a.min(b), a.max(b));
        let slot = mix((a as u64) << 32 | b as u64) as usize & (self.cache.len() - 1);
        let [ca, cb, r] = self.cache[slot];
        if (ca, cb) == (a, b) {
            return r;
        }
        let [va, la, ha] = self.nodes[a as usize];
        let [vb, lb, hb] = self.nodes[b as usize];
        let v = va.min(vb);
        let (a0, a1) = if va == v { (la, ha) } else { (a, a) };
        let (b0, b1) = if vb == v { (lb, hb) } else { (b, b) };
        let low = self.and(a0, b0);
        let high = self.and(a1, b1);
        let r = self.mk(v, low, high);
        self.cache[slot] = [a, b, r];
        r
    }

    fn level(&self, f: u32) -> u32 {
        if f <= TRUE {
            self.vars
        } else {
            self.nodes[f as usize][0]
        }
    }

    /// Satisfying assignments of `f` over the variables from its level on.
    fn count(&self, f: u32, memo: &mut HashMap<u32, f64>) -> f64 {
        if f <= TRUE {
            return f as f64;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let [v, low, high] = self.nodes[f as usize];
        let mut branch = |g: u32| self.count(g, memo) * 2f64.powi((self.level(g) - v - 1) as i32);
        let c = branch(low) + branch(high);
        memo.insert(f, c);
        c
    }

    /// Builds the n-queens BDD (variable `r·n + c` is a queen on row `r`,
    /// column `c`) and returns its number of solutions.
    fn queens(&mut self, n: u32) -> f64 {
        self.nodes.clear();
        self.nodes
            .extend([[u32::MAX, FALSE, FALSE], [u32::MAX, TRUE, TRUE]]);
        self.unique.fill(0);
        self.cache.fill([0; 3]);
        self.vars = n * n;
        let x = |r: u32, c: u32| r * n + c;
        let mut q = TRUE;
        for r in 0..n {
            // A queen somewhere on row r.
            let mut row = FALSE;
            for c in (0..n).rev() {
                row = self.mk(x(r, c), row, TRUE);
            }
            q = self.and(q, row);
        }
        for a in 0..n * n {
            for b in a + 1..n * n {
                let (r, c, r2, c2) = (a / n, a % n, b / n, b % n);
                if r == r2 || c == c2 || r2 - r == c.abs_diff(c2) {
                    // Not both: ¬a ∨ ¬b.
                    let not_b = self.mk(b, TRUE, FALSE);
                    let clause = self.mk(a, TRUE, not_b);
                    q = self.and(q, clause);
                }
            }
        }
        let top = self.level(q);
        self.count(q, &mut HashMap::new()) * 2f64.powi(top as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_queens_solutions() {
        let mut reference = Reference::new();
        for package in [&mut reference.small, &mut reference.large] {
            for (n, solutions) in [(1, 1.0), (2, 0.0), (3, 0.0), (4, 2.0), (5, 10.0), (6, 4.0)] {
                assert_eq!(package.queens(n), solutions, "{n} queens");
            }
        }
        assert!(reference.run_ms() > 0.0);
    }
}
