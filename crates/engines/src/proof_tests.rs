//! Property tests for the proof-logged trust chain at the engine
//! level: every UNSAT a transition-template frame stack produces
//! under proof logging must replay through the independent checker in
//! [`satb::proofcheck`], and paranoid certification
//! ([`crate::certify::certify_with_mode`]) must accept exactly the
//! honest certificates plain certification accepts — while backing
//! them with machine-checked resolution chains.
//!
//! (ISSUE 10, satellite 1 — the template-frame half; the random-CNF
//! half lives in `satb::proofcheck`'s own tests.)

use crate::certify::{certify_invariant_with_mode, certify_with_mode, Certifier};
use crate::result::{Budget, Checker, Verdict};
use aig::{AigSystem, TransitionTemplate};
use proptest::prelude::*;
use satb::{Part, SolveResult, Solver};

fn random_system(seed: u64) -> AigSystem {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    aig::testutil::random_system(
        &mut rng,
        &aig::testutil::RandomSystemConfig {
            max_constraints: 1,
            ..aig::testutil::RandomSystemConfig::default()
        },
    )
}

proptest! {
    /// BMC-shaped incremental frame chains on random netlists: after
    /// every bounded query on a proof-logging solver, the recorded
    /// proof replays cleanly and every live clause matches its
    /// derivation. A second, assumption-free A/B-split solve
    /// (interpolation shape) additionally checks the final
    /// empty-clause chain and the interpolant's vocabulary
    /// side-conditions on UNSAT.
    #[test]
    fn random_template_frames_yield_checkable_proofs(seed in 0u64..48) {
        let sys = random_system(seed);
        let tpl = TransitionTemplate::compile(&sys);

        // Incremental chain under assumptions: depth by depth, the
        // accumulated chains must stay replayable.
        let mut s = Solver::with_proof();
        let mut frame = tpl.instantiate(&mut s, Part::A, 0);
        frame.assert_init(&sys, &mut s);
        for depth in 1..=3u32 {
            let _ = s.solve_with(&[frame.any_bad]);
            let rep = s.check_proof().expect("proof logging on");
            prop_assert!(
                rep.ok(),
                "depth {}: proof replay rejected: {:?}",
                depth,
                rep.first_failure()
            );
            let cur = frame.latch_next.clone();
            frame = tpl.instantiate_bound(&mut s, Part::A, depth, &cur);
        }

        // Assumption-free A/B split over two frames: Init ∧ T (part A)
        // against Bad′ (part B).
        let mut s = Solver::with_proof();
        let f0 = tpl.instantiate(&mut s, Part::A, 0);
        f0.assert_init(&sys, &mut s);
        let f1 = tpl.instantiate_bound(&mut s, Part::B, 1, &f0.latch_next);
        s.add_clause_in(&[f1.any_bad], Part::B);
        if s.solve() == SolveResult::Unsat {
            let rep = s.check_proof().expect("proof logging on");
            prop_assert!(rep.ok(), "{:?}", rep.first_failure());
            prop_assert!(rep.has_refutation, "UNSAT must record the empty chain");
            let itp = s.interpolant().expect("refutation recorded");
            let irep = satb::proofcheck::check_with_interpolant(
                s.proof().expect("proof logging on"),
                &itp,
            );
            prop_assert!(
                irep.ok(),
                "interpolant vocabulary violated: {:?}",
                irep.first_failure()
            );
        }
    }

    /// Paranoid certification agrees with plain certification on
    /// honest engines: whatever witness a real prover emits for a
    /// random safe netlist must survive the proof-replaying check too
    /// (and an admitted invariant must re-certify paranoidly).
    #[test]
    fn paranoid_certification_accepts_honest_witnesses(seed in 0u64..12) {
        let sys = random_system(seed);
        let tpl = TransitionTemplate::compile(&sys);

        // The admission path: a plain and a paranoid admission of the
        // mined candidates keep the same set, and it re-certifies both
        // ways.
        let inv = aig::analyze(
            &sys,
            &tpl,
            &aig::AnalysisConfig::default(),
            &satb::Limits::default(),
        );
        let admit = |paranoid| {
            Certifier::with_template(&sys, &tpl, paranoid).admit(&inv.clauses, &satb::Limits::default())
        };
        let ((plain_set, plain), (paranoid_set, paranoid)) = (admit(false), admit(true));
        prop_assert!(plain.ok && paranoid.ok, "{:?}", paranoid.failure);
        prop_assert_eq!(&plain_set, &paranoid_set);
        prop_assert_eq!(plain.proof_chains, 0);
        let plain = certify_invariant_with_mode(&sys, &tpl, &plain_set, false);
        let paranoid = certify_invariant_with_mode(&sys, &tpl, &plain_set, true);
        prop_assert_eq!(plain.ok, paranoid.ok);
        prop_assert!(paranoid.ok, "admitted invariant rejected paranoidly: {:?}", paranoid.failure);
        prop_assert_eq!(plain.proof_chains, 0);
    }
}

/// Paranoid certification on the full engine line-up over a known-safe
/// design: every certificate kind (clausal, formula, k-inductive) must
/// pass with resolution proofs replayed behind every obligation.
#[test]
fn paranoid_certify_accepts_all_engine_certificates() {
    let ts = crate::kind::tests::trap_ts();
    let sys = aig::blast_system(&ts);
    let tpl = TransitionTemplate::compile(&sys);
    let engines: Vec<Box<dyn Checker>> = vec![
        Box::new(crate::pdr::Pdr::new(Budget::default())),
        Box::new(crate::itp::Interpolation::new(Budget::default())),
        Box::new(crate::kind::KInduction::new(Budget::default())),
    ];
    for e in &engines {
        let out = e.check(&ts);
        assert_eq!(out.outcome, Verdict::Safe, "{} not Safe", e.name());
        let rep = certify_with_mode(&sys, &tpl, &out, true);
        assert!(
            rep.ok && rep.witnessed,
            "{} rejected paranoidly: {:?}",
            e.name(),
            rep.failure
        );
        let plain = certify_with_mode(&sys, &tpl, &out, false);
        assert_eq!(plain.proof_chains, 0, "plain mode must not log proofs");
    }
}
