//! Property-based tests of the BDD package.
//!
//! Random boolean expressions are generated, built both as BDDs and as naive
//! truth tables, and compared exhaustively; structural invariants and
//! reordering invariance are checked along the way.

use pnsym_bdd::{BddManager, Budget, Ref, SiftConfig, TruncationReason, VarId};
use proptest::prelude::*;

const NVARS: usize = 5;

/// A tiny boolean expression AST used as the reference semantics.
#[derive(Debug, Clone)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

impl Expr {
    fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            Expr::Var(i) => assignment[*i],
            Expr::Not(a) => !a.eval(assignment),
            Expr::And(a, b) => a.eval(assignment) && b.eval(assignment),
            Expr::Or(a, b) => a.eval(assignment) || b.eval(assignment),
            Expr::Xor(a, b) => a.eval(assignment) ^ b.eval(assignment),
            Expr::Ite(c, t, e) => {
                if c.eval(assignment) {
                    t.eval(assignment)
                } else {
                    e.eval(assignment)
                }
            }
            Expr::Const(b) => *b,
        }
    }

    fn build(&self, m: &mut BddManager) -> Ref {
        match self {
            Expr::Var(i) => m.var(VarId(*i as u32)),
            Expr::Not(a) => {
                let x = a.build(m);
                m.not(x)
            }
            Expr::And(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.and(x, y)
            }
            Expr::Or(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.or(x, y)
            }
            Expr::Xor(a, b) => {
                let (x, y) = (a.build(m), b.build(m));
                m.xor(x, y)
            }
            Expr::Ite(c, t, e) => {
                let (x, y, z) = (c.build(m), t.build(m), e.build(m));
                m.ite(x, y, z)
            }
            Expr::Const(true) => m.one(),
            Expr::Const(false) => m.zero(),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|a| Expr::Not(Box::new(a))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn all_assignments() -> impl Iterator<Item = Vec<bool>> {
    (0u32..(1 << NVARS)).map(|bits| (0..NVARS).map(|i| bits & (1 << i) != 0).collect())
}

/// The one-pass image and pre-image steps of `f`, `g` and the literal
/// cube `assign`: `and_exists_assign(f, g, assign)`, then `and_cofactor`
/// with either operand as the enabling function.
fn fused_steps(m: &mut BddManager, f: Ref, g: Ref, assign: Ref) -> [Ref; 3] {
    [
        m.and_exists_assign(f, g, assign),
        m.and_cofactor(f, g, assign),
        m.and_cofactor(g, f, assign),
    ]
}

/// The same three results through their two-step definitions, with `W` the
/// support of `assign`: `(∃W. f ∧ g) ∧ assign` and
/// `e ∧ s|assign = e ∧ ∃W. (s ∧ assign)`.
fn two_step_forms(m: &mut BddManager, f: Ref, g: Ref, assign: Ref) -> [Ref; 3] {
    let support = m.support(assign);
    let w = m.var_cube(&support);
    let quantified = m.and_exists_cube(f, g, w);
    let image = m.and(quantified, assign);
    let g_fixed = m.and_exists_cube(g, assign, w);
    let f_fixed = m.and_exists_cube(f, assign, w);
    [image, m.and(f, g_fixed), m.and(g, f_fixed)]
}

/// A literal cube over the first occurrence of each variable in `lits`.
fn literal_cube(m: &mut BddManager, lits: &[(usize, bool)]) -> Ref {
    let mut seen = [false; NVARS];
    let lits: Vec<(VarId, bool)> = lits
        .iter()
        .filter(|&&(i, _)| !std::mem::replace(&mut seen[i], true))
        .map(|&(i, value)| (m.var_id(i), value))
        .collect();
    m.cube(&lits)
}

/// Builds an operand whose top variable lies at or below level `top`
/// (the variables above are quantified out), complemented on request, so a
/// cube's literals fall above, between and below the operands' tops.
fn shaped_operand(m: &mut BddManager, expr: &Expr, top: usize, negate: bool) -> Ref {
    let f = expr.build(m);
    let above: Vec<VarId> = (0..top).map(|i| m.var_id(i)).collect();
    let f = m.exists(f, &above);
    if negate {
        m.not(f)
    } else {
        f
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bdd_matches_reference_semantics(expr in arb_expr()) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        for a in all_assignments() {
            prop_assert_eq!(m.eval(f, |v| a[v.index()]), expr.eval(&a));
        }
        prop_assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn sat_count_matches_truth_table(expr in arb_expr()) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        let expected = all_assignments().filter(|a| expr.eval(a)).count();
        prop_assert_eq!(m.sat_count(f, NVARS), expected as f64);
    }

    #[test]
    fn negation_is_involutive_and_complement(expr in arb_expr()) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        let nf = m.not(f);
        let nnf = m.not(nf);
        prop_assert_eq!(nnf, f);
        prop_assert_eq!(m.and(f, nf), m.zero());
        prop_assert_eq!(m.or(f, nf), m.one());
    }

    #[test]
    fn exists_equals_disjunction_of_cofactors(expr in arb_expr(), var in 0..NVARS) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        let v = m.var_id(var);
        let f0 = m.restrict(f, v, false);
        let f1 = m.restrict(f, v, true);
        let expected = m.or(f0, f1);
        let got = m.exists(f, &[v]);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn and_exists_equals_conjoin_then_quantify(a in arb_expr(), b in arb_expr()) {
        let mut m = BddManager::with_vars(NVARS);
        let fa = a.build(&mut m);
        let fb = b.build(&mut m);
        let vars = [m.var_id(0), m.var_id(2)];
        let conj = m.and(fa, fb);
        let expected = m.exists(conj, &vars);
        let got = m.and_exists(fa, fb, &vars);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn and_exists_agrees_across_gc_and_reordering(
        a in arb_expr(),
        b in arb_expr(),
        quantified in proptest::collection::vec(0..NVARS, 0..=NVARS),
        action in 0u8..4,
    ) {
        // The fused relational product must equal the two-step
        // `exists(and(f, g), cube)` on arbitrary quantification sets, and
        // keep doing so after garbage collection (which rebuilds the unique
        // tables and keeps the cache entries whose nodes survive) and
        // sifting (which empties the cache and rewrites
        // the diagrams level by level) run in between — the kernel
        // interleaving every traversal iteration exercises.
        let mut m = BddManager::with_vars(NVARS);
        let fa = a.build(&mut m);
        let fb = b.build(&mut m);
        let mut vars: Vec<VarId> = quantified.iter().map(|&i| m.var_id(i)).collect();
        vars.sort_unstable();
        vars.dedup();
        m.protect(fa);
        m.protect(fb);
        let before = {
            let conj = m.and(fa, fb);
            let expected = m.exists(conj, &vars);
            let got = m.and_exists(fa, fb, &vars);
            prop_assert_eq!(got, expected);
            m.protect(got);
            got
        };
        match action {
            1 => m.collect_garbage(),
            2 => {
                m.sift_with(SiftConfig { max_growth: 1.5, max_vars: None });
            }
            3 => {
                m.collect_garbage();
                m.clear_cache();
            }
            _ => {}
        }
        prop_assert!(m.check_invariants().is_ok());
        // Recompute both formulations after the maintenance: the fused op
        // must still match the two-step result, and canonicity must return
        // the protected pre-maintenance handle.
        let conj = m.and(fa, fb);
        let expected = m.exists(conj, &vars);
        let got = m.and_exists(fa, fb, &vars);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(got, before);
        // And the semantics is the reference one.
        for assignment in all_assignments() {
            let reference = all_assignments()
                .filter(|other| {
                    (0..NVARS).all(|i| {
                        vars.contains(&m.var_id(i)) || other[i] == assignment[i]
                    })
                })
                .any(|other| a.eval(&other) && b.eval(&other));
            prop_assert_eq!(m.eval(got, |v| assignment[v.index()]), reference);
        }
    }

    #[test]
    fn fused_image_steps_equal_their_two_step_forms(
        a in arb_expr(),
        b in arb_expr(),
        lits in proptest::collection::vec((0..NVARS, any::<bool>()), 0..=NVARS),
        tops in (0..=NVARS, 0..=NVARS),
        negate in (any::<bool>(), any::<bool>()),
        action in 0u8..4,
    ) {
        // The one-pass image and pre-image must equal their two-step forms
        // on random operands, either complemented, and random literal cubes
        // of mixed polarity, and keep doing so after garbage collection and
        // sifting run in between, as in a traversal.
        let mut m = BddManager::with_vars(NVARS);
        let f = shaped_operand(&mut m, &a, tops.0, negate.0);
        let g = shaped_operand(&mut m, &b, tops.1, negate.1);
        let assign = literal_cube(&mut m, &lits);
        for r in [f, g, assign] {
            m.protect(r);
        }
        let fused = fused_steps(&mut m, f, g, assign);
        prop_assert_eq!(fused, two_step_forms(&mut m, f, g, assign));
        for r in fused {
            m.protect(r);
        }
        match action {
            1 => m.collect_garbage(),
            2 => {
                m.sift_with(SiftConfig { max_growth: 1.5, max_vars: None });
            }
            3 => {
                m.collect_garbage();
                m.clear_cache();
            }
            _ => {}
        }
        prop_assert!(m.check_invariants().is_ok());
        let again = fused_steps(&mut m, f, g, assign);
        prop_assert_eq!(again, fused);
        prop_assert_eq!(two_step_forms(&mut m, f, g, assign), fused);
    }

    #[test]
    fn reordering_preserves_semantics(expr in arb_expr(), seed in any::<u64>()) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        m.protect(f);
        // Apply a pseudo-random permutation derived from the seed.
        let mut order: Vec<VarId> = m.variables();
        let mut s = seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        m.reorder_to(&order);
        prop_assert!(m.check_invariants().is_ok());
        for a in all_assignments() {
            prop_assert_eq!(m.eval(f, |v| a[v.index()]), expr.eval(&a));
        }
    }

    #[test]
    fn sifting_preserves_semantics_and_never_grows(expr in arb_expr()) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        m.protect(f);
        m.collect_garbage();
        let before = m.node_count(f);
        m.sift_with(SiftConfig { max_growth: 2.0, max_vars: None });
        prop_assert!(m.check_invariants().is_ok());
        prop_assert!(m.node_count(f) <= before);
        for a in all_assignments() {
            prop_assert_eq!(m.eval(f, |v| a[v.index()]), expr.eval(&a));
        }
    }

    #[test]
    fn sat_assignments_agree_with_truth_table(expr in arb_expr()) {
        let mut m = BddManager::with_vars(NVARS);
        let f = expr.build(&mut m);
        let vars = m.variables();
        let mut got: Vec<Vec<bool>> = m.sat_assignments(f, &vars).collect();
        got.sort();
        let mut expected: Vec<Vec<bool>> =
            all_assignments().filter(|a| expr.eval(a)).collect();
        expected.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn interleaved_ops_gc_and_sifting_preserve_invariants(
        steps in proptest::collection::vec((arb_expr(), 0u8..4), 1..10)
    ) {
        // Random operations interleaved with garbage collections (which
        // rebuild the open-addressing unique tables in place and keep the
        // cache entries whose nodes survive) and sifting (which rewrites the
        // tables level by level). Invariants and canonicity must survive every interleaving.
        let mut m = BddManager::with_vars(NVARS);
        let mut roots: Vec<(Expr, Ref)> = Vec::new();
        for (expr, action) in steps {
            let f = expr.build(&mut m);
            m.protect(f);
            roots.push((expr, f));
            match action {
                1 => m.collect_garbage(),
                2 => {
                    m.sift_with(SiftConfig { max_growth: 1.5, max_vars: None });
                }
                3 => {
                    m.collect_garbage();
                    m.clear_cache();
                }
                _ => {}
            }
            prop_assert!(m.check_invariants().is_ok());
        }
        // Every protected root still denotes its function, and rebuilding
        // the same function must return the identical handle (canonicity).
        for (expr, f) in &roots {
            for a in all_assignments() {
                prop_assert_eq!(m.eval(*f, |v| a[v.index()]), expr.eval(&a));
            }
            let rebuilt = expr.build(&mut m);
            prop_assert_eq!(rebuilt, *f);
        }
        // Releasing every root must let a final collection empty the arena;
        // the rebuilt tables may then hold only the single shared terminal.
        for (_, f) in &roots {
            m.unprotect(*f);
        }
        m.collect_garbage();
        prop_assert_eq!(m.live_node_count(), 1);
        prop_assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn transfer_round_trips_complement_bits(
        exprs in proptest::collection::vec(arb_expr(), 1..4)
    ) {
        // Serialize a shared multi-root subgraph where every function is
        // exported alongside its negation — so complement bits appear both
        // on roots and on interior edges — and import it into a fresh
        // replica. Semantics, the f/¬f pairing (one shared subgraph, a bit
        // flip apart) and the serialized form itself must all survive.
        let mut m = BddManager::with_vars(NVARS);
        let mut roots = Vec::new();
        for expr in &exprs {
            let f = expr.build(&mut m);
            roots.push(f);
            roots.push(m.not(f));
        }
        let serialized = m.export_subgraph(&roots);
        let mut replica = BddManager::with_vars(NVARS);
        let imported = replica.import_subgraph(&serialized);
        prop_assert_eq!(imported.len(), roots.len());
        for (i, expr) in exprs.iter().enumerate() {
            let f = imported[2 * i];
            let nf = imported[2 * i + 1];
            prop_assert_eq!(replica.not(f), nf);
            for a in all_assignments() {
                prop_assert_eq!(replica.eval(f, |v| a[v.index()]), expr.eval(&a));
                prop_assert_eq!(replica.eval(nf, |v| a[v.index()]), !expr.eval(&a));
            }
        }
        prop_assert!(replica.check_invariants().is_ok());
        // The deterministic postorder export makes the serialized form
        // canonical: re-exporting the imported roots is bit-identical.
        prop_assert_eq!(replica.export_subgraph(&imported), serialized);
    }

    #[test]
    fn cache_entries_kept_across_gc_give_the_refs_of_a_cleared_cache(
        leaves in proptest::collection::vec(arb_expr(), 2..5),
        ops in proptest::collection::vec(
            (0u8..4, any::<usize>(), any::<usize>(), any::<usize>()),
            1..24,
        ),
        gc_at in 0usize..24,
        keep in any::<u32>(),
    ) {
        // Two managers run the same operations. At step `gc_at` both
        // protect the same operands (bit `n % 32` of `keep` for the n-th,
        // and always the newest) and collect garbage; the second also
        // clears its cache, so it recomputes what the first may answer
        // from entries kept across its collection. The connectives only
        // allocate nodes of their own result, so the two arenas stay in
        // lockstep and every result must be the very same `Ref`.
        let mut ms = [BddManager::with_vars(NVARS), BddManager::with_vars(NVARS)];
        let mut pools: [Vec<Ref>; 2] = [Vec::new(), Vec::new()];
        for (m, pool) in ms.iter_mut().zip(pools.iter_mut()) {
            *pool = leaves.iter().map(|e| e.build(m)).collect();
        }
        prop_assert_eq!(&pools[0], &pools[1]);
        for (step, &(op, i, j, k)) in ops.iter().enumerate() {
            for (side, (m, pool)) in ms.iter_mut().zip(pools.iter_mut()).enumerate() {
                if step == gc_at {
                    let last = pool.len() - 1;
                    pool.retain({
                        let mut n = 0;
                        move |_| {
                            n += 1;
                            n - 1 == last || keep >> ((n - 1) % 32) & 1 == 1
                        }
                    });
                    for &f in pool.iter() {
                        m.protect(f);
                    }
                    m.collect_garbage();
                    if side == 1 {
                        m.clear_cache();
                    }
                    prop_assert!(m.check_invariants().is_ok());
                }
                let len = pool.len();
                let (f, g, h) = (pool[i % len], pool[j % len], pool[k % len]);
                let r = match op {
                    0 => m.and(f, g),
                    1 => m.or(f, g),
                    2 => m.xor(f, g),
                    _ => m.ite(f, g, h),
                };
                pool.push(r);
            }
            prop_assert_eq!(&pools[0], &pools[1]);
        }
        prop_assert!(ms[0].check_invariants().is_ok());
    }
}

#[test]
fn fused_image_steps_unwind_on_a_step_ceiling() {
    // Operands wide enough that each fused step takes thousands of cache
    // misses: the parity of 24 variables and a chain of disjunctions, with
    // a cube of mixed literals spread over the order.
    let n = 24;
    let mut m = BddManager::with_vars(n);
    let ids = m.variables();
    let mut f = m.zero();
    for &v in &ids {
        let lit = m.var(v);
        f = m.xor(f, lit);
    }
    let mut g = m.one();
    for w in ids.windows(2) {
        let (x, y) = (m.var(w[0]), m.var(w[1]));
        let or = m.or(x, y);
        g = m.and(g, or);
    }
    let lits: Vec<(VarId, bool)> = ids.iter().step_by(3).map(|&v| (v, v.0 % 2 == 0)).collect();
    let assign = m.cube(&lits);
    for r in [f, g, assign] {
        m.protect(r);
    }
    let reference = fused_steps(&mut m, f, g, assign);
    for r in reference {
        m.protect(r);
    }
    type Step = fn(&mut BddManager, Ref, Ref, Ref) -> Result<Ref, pnsym_bdd::Interrupt>;
    let steps: [Step; 3] = [
        |m, f, g, t| m.try_and_exists_assign(f, g, t),
        |m, f, g, t| m.try_and_cofactor(f, g, t),
        |m, f, g, t| m.try_and_cofactor(g, f, t),
    ];
    for (step, expected) in steps.into_iter().zip(reference) {
        let roots = m.protected_root_count();
        m.clear_cache();
        m.install_budget(Budget::new().with_step_ceiling(10));
        let err = step(&mut m, f, g, assign).unwrap_err();
        assert_eq!(err.reason, TruncationReason::StepBudget);
        assert!(m.check_invariants().is_ok());
        assert_eq!(m.protected_root_count(), roots);
        m.take_budget().expect("budget still installed");
        assert_eq!(step(&mut m, f, g, assign).unwrap(), expected);
    }
}
