//! Activation-literal clause groups: release, recycling, and the
//! no-resurrection guarantee.

use satb::{Limits, Lit, SolveResult, Solver, Var};

fn lit(s: &mut Solver, i: usize, pos: bool) -> Lit {
    while s.num_vars() <= i {
        s.new_var();
    }
    Lit::new(Var::from_index(i), pos)
}

/// The solve-after-release probe: a released clause must stop
/// constraining the solver, and the recycled guard variable must not
/// resurrect it.
#[test]
fn released_clause_does_not_constrain() {
    let mut s = Solver::new();
    let a = lit(&mut s, 0, true);
    let act = s.new_activation();
    // (a ∨ ¬act): under the guard, a is forced.
    assert!(s.add_clause_activated(act, &[a]));
    assert_eq!(s.solve_with(&[act, !a]), SolveResult::Unsat);
    s.release_activation(act);
    // Guard variable comes back from the free-list...
    let act2 = s.new_activation();
    assert_eq!(act2, act, "released activation var must be recycled");
    assert_eq!(s.stats().act_recycled, 1);
    // ...and the released clause must not constrain the reused guard.
    assert_eq!(s.solve_with(&[act2, !a]), SolveResult::Sat);
    s.debug_check_integrity().expect("intact after release");
}

/// Learned clauses derived from a guarded group mention the activation
/// variable and must be swept by the release, restoring satisfiability
/// without poisoning later queries on the recycled variable.
#[test]
fn release_sweeps_contaminated_learned_clauses() {
    let mut s = Solver::new();
    // A guarded pigeonhole instance with an escape literal `e` on one
    // clause: the database alone never implies ¬act (setting e
    // satisfies it), so the group is refutable only under the
    // assumptions [act, ¬e] — like a PDR blocking query, where the
    // temporary ¬cube clause conflicts with the next-state assumptions.
    let holes = 5;
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| p * holes + h;
    while s.num_vars() < pigeons * holes {
        s.new_var();
    }
    let e = Lit::pos(s.new_var());
    let act = s.new_activation();
    for p in 0..pigeons {
        let mut c: Vec<Lit> = (0..holes)
            .map(|h| Lit::pos(Var::from_index(var(p, h))))
            .collect();
        if p == 0 {
            c.push(e);
        }
        assert!(s.add_clause_activated(act, &c));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                assert!(s.add_clause_activated(
                    act,
                    &[
                        Lit::neg(Var::from_index(var(p1, h))),
                        Lit::neg(Var::from_index(var(p2, h))),
                    ]
                ));
            }
        }
    }
    assert_eq!(s.solve_with(&[act, !e]), SolveResult::Unsat);
    assert!(s.stats().learned > 0, "the instance forces real learning");
    let live_before = s.num_clauses();
    s.release_activation(act);
    let st = s.stats();
    assert_eq!(st.act_leaked, 0, "nothing pins the group: {st:?}");
    assert!(
        st.act_released as usize >= live_before,
        "release must free the group and its learned clauses: {st:?}"
    );
    assert_eq!(s.num_clauses(), 0, "nothing outlives the release");
    s.debug_check_integrity().expect("intact after sweep");
    // The same (recycled) guard now protects a satisfiable group.
    let act2 = s.new_activation();
    assert_eq!(act2, act);
    let x = Lit::pos(Var::from_index(0));
    assert!(s.add_clause_activated(act2, &[x]));
    assert_eq!(s.solve_with(&[act2, !e]), SolveResult::Sat);
    assert_eq!(s.value(x), Some(true));
}

/// The prenormalized fast path behaves exactly like the general one:
/// the clause constrains only under the guard, is registered under the
/// group, and the release frees it.
#[test]
fn prenormalized_activated_clause_is_grouped_and_released() {
    let mut s = Solver::new();
    let a = lit(&mut s, 0, true);
    let b = lit(&mut s, 1, true);
    let act = s.new_activation();
    // (a ∨ b ∨ ¬act): sorted, distinct — eligible for the fast path.
    assert!(s.add_clause_activated_prenormalized(act, &[a, b]));
    assert_eq!(s.solve_with(&[act, !a, !b]), SolveResult::Unsat);
    assert_eq!(s.solve_with(&[!a, !b]), SolveResult::Sat, "guard off");
    let live_before = s.num_clauses();
    assert!(live_before >= 1);
    s.release_activation(act);
    assert_eq!(s.num_clauses(), 0, "fast-path clause must be registered");
    assert_eq!(
        s.solve_with(&[Lit::pos(act.var()), !a, !b]),
        SolveResult::Sat
    );
    s.debug_check_integrity().expect("intact after release");
}

/// Randomized cross-check: interleaves permanent clauses, activated
/// groups, releases and recycled reuse, comparing every query against
/// a fresh solver built from exactly the live clauses. Catches both
/// resurrection (released clause still pruning models) and
/// over-deletion (live clause lost).
#[test]
fn random_groups_match_rebuilt_reference() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xAC71);
    for round in 0..40 {
        let nvars = rng.gen_range(3..=7usize);
        let mut s = Solver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        let mut permanent: Vec<Vec<Lit>> = Vec::new();
        // Live groups: (guard literal, clauses without the guard).
        let mut groups: Vec<(Lit, Vec<Vec<Lit>>)> = Vec::new();
        let rand_clause = |rng: &mut StdRng| -> Vec<Lit> {
            let len = rng.gen_range(1..=3usize);
            (0..len)
                .map(|_| Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5)))
                .collect()
        };
        for _op in 0..24 {
            match rng.gen_range(0..4) {
                0 => {
                    let c = rand_clause(&mut rng);
                    s.add_clause(&c);
                    permanent.push(c);
                }
                1 => {
                    let act = s.new_activation();
                    let mut cls = Vec::new();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let c = rand_clause(&mut rng);
                        s.add_clause_activated(act, &c);
                        cls.push(c);
                    }
                    groups.push((act, cls));
                }
                2 if !groups.is_empty() => {
                    let i = rng.gen_range(0..groups.len());
                    let (act, _) = groups.swap_remove(i);
                    s.release_activation(act);
                }
                _ => {
                    // Query: random assumptions plus every live guard.
                    let mut assumptions: Vec<Lit> = groups.iter().map(|(a, _)| *a).collect();
                    for _ in 0..rng.gen_range(0..=2usize) {
                        assumptions.push(Lit::new(
                            Var::from_index(rng.gen_range(0..nvars)),
                            rng.gen_bool(0.5),
                        ));
                    }
                    let got = s.solve_limited(&assumptions, Limits::default());
                    // Reference: fresh solver over the live clauses
                    // only (guards asserted as units).
                    let mut r = Solver::new();
                    for _ in 0..s.num_vars() {
                        r.new_var();
                    }
                    for c in &permanent {
                        r.add_clause(c);
                    }
                    for (act, cls) in &groups {
                        r.add_clause(&[*act]);
                        for c in cls {
                            let mut g = c.clone();
                            g.push(!*act);
                            r.add_clause(&g);
                        }
                    }
                    let want = r.solve_with(&assumptions);
                    assert_eq!(got, want, "round {round}: {permanent:?} {groups:?}");
                }
            }
            s.debug_check_integrity().expect("intact");
        }
    }
}

/// Seeded differential check of single-clause removal: interleaves
/// guarded adds, removals and solves on random CNFs under random guard
/// and literal assumptions, and compares every answer with a fresh
/// solver that holds only the live clauses. A model must satisfy every
/// live clause whose guard is assumed, and a failed core must be UNSAT
/// on the fresh solver too.
#[test]
fn guarded_removals_match_a_fresh_solver() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5E71);
    let (mut removed, mut released) = (0u64, 0u64);
    for round in 0..200 {
        let nvars = rng.gen_range(6..=12usize);
        let mut s = Solver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        let guards: Vec<Lit> = (0..rng.gen_range(1..=3usize))
            .map(|_| s.new_activation())
            .collect();
        let mut permanent: Vec<Vec<Lit>> = Vec::new();
        // Live guarded clauses: (guard, clause without the guard).
        let mut live: Vec<(Lit, Vec<Lit>)> = Vec::new();
        let rand_clause = |rng: &mut StdRng| -> Vec<Lit> {
            (0..rng.gen_range(2..=3usize))
                .map(|_| Lit::new(Var::from_index(rng.gen_range(0..nvars)), rng.gen_bool(0.5)))
                .collect()
        };
        for op in 0..60 {
            match rng.gen_range(0..10) {
                0 => {
                    let c = rand_clause(&mut rng);
                    s.add_clause(&c);
                    permanent.push(c);
                }
                1..=4 => {
                    let g = guards[rng.gen_range(0..guards.len())];
                    let c = rand_clause(&mut rng);
                    s.add_clause_activated(g, &c);
                    live.push((g, c));
                }
                5 | 6 if !live.is_empty() => {
                    // A refused removal keeps the clause live.
                    let i = rng.gen_range(0..live.len());
                    if s.remove_clause_activated(live[i].0, &live[i].1) {
                        live.swap_remove(i);
                        removed += 1;
                    }
                }
                7 => {
                    s.debug_force_reduce();
                    s.debug_force_gc();
                }
                _ => {
                    let mut assumptions: Vec<Lit> = guards
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.8))
                        .collect();
                    for _ in 0..rng.gen_range(0..=3usize) {
                        assumptions.push(Lit::new(
                            Var::from_index(rng.gen_range(0..nvars)),
                            rng.gen_bool(0.5),
                        ));
                    }
                    let got = s.solve_with(&assumptions);
                    let mut r = Solver::new();
                    for _ in 0..s.num_vars() {
                        r.new_var();
                    }
                    for c in &permanent {
                        r.add_clause(c);
                    }
                    for (g, c) in &live {
                        let mut gc = c.clone();
                        gc.push(!*g);
                        r.add_clause(&gc);
                    }
                    let want = r.solve_with(&assumptions);
                    assert_eq!(got, want, "round {round}, op {op}: {assumptions:?}");
                    match got {
                        SolveResult::Sat => {
                            let holds = |c: &[Lit]| c.iter().any(|&l| s.value(l) == Some(true));
                            assert!(permanent.iter().all(|c| holds(c)), "round {round}");
                            for (g, c) in &live {
                                assert!(
                                    !assumptions.contains(g) || holds(c),
                                    "round {round}, op {op}: model violates {c:?}"
                                );
                            }
                        }
                        SolveResult::Unsat => {
                            let core = s.failed_assumptions().to_vec();
                            assert_eq!(
                                r.solve_with(&core),
                                SolveResult::Unsat,
                                "round {round}, op {op}: core {core:?}"
                            );
                        }
                        SolveResult::Unknown(_) => unreachable!("no limits"),
                    }
                }
            }
            s.debug_check_integrity().expect("intact");
        }
        released += s.stats().act_released;
    }
    assert!(
        released > removed,
        "removals must also drop tainted learned clauses: {removed} removed, {released} freed"
    );
}
