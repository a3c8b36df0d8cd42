//! Fault-injection hardening: property tests driving every engine with
//! `satb`'s deterministic chaos hook (`Limits::chaos`), which cancels
//! the solver mid-solve after a seeded, pseudo-random number of
//! conflicts.
//!
//! The properties (ISSUE 6, satellite 3):
//!
//! 1. An engine whose solver is cancelled from under it returns a clean
//!    [`Unknown::Cancelled`] — never a definite verdict it did not
//!    earn, never a panic — with its stats intact.
//! 2. A clean re-run of the same engine on the same system (no chaos)
//!    produces a definite verdict that passes the independent
//!    certificate check, i.e. the injected fault left no residue that
//!    could corrupt a later answer.
//!
//! Runs finishing under the injection threshold complete normally, so
//! chaotic runs must be allowed to answer — but any answer they give
//! must certify just like a calm one.

use crate::certify::certify;
use crate::result::{Budget, CheckOutcome, Unknown, Verdict};
use aig::{AigSystem, TransitionTemplate};
use proptest::prelude::*;
use satb::Chaos;

/// All five bit-level engines on one (system, template) pair.
fn run_all(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    budget: &Budget,
) -> Vec<(&'static str, CheckOutcome)> {
    vec![
        (
            "bmc",
            crate::bmc::Bmc::new(budget.clone()).run(sys, tpl, &[]),
        ),
        (
            "k-induction",
            crate::kind::KInduction::new(budget.clone()).run(sys, tpl, &[]),
        ),
        (
            "interpolation",
            crate::itp::Interpolation::new(budget.clone()).run(sys, tpl, &[]),
        ),
        (
            "pdr",
            crate::pdr::Pdr::new(budget.clone()).run(sys, tpl, &[]),
        ),
        (
            "pdr-frames",
            crate::pdr_baseline::PerFramePdr::new(budget.clone()).run(sys, tpl, &[]),
        ),
    ]
}

fn random_system(seed: u64) -> AigSystem {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    aig::testutil::random_system(&mut rng, &aig::testutil::RandomSystemConfig::default())
}

fn bounded(max_depth: u32) -> Budget {
    Budget {
        timeout: None,
        max_depth,
        ..Budget::default()
    }
}

proptest! {
    /// Chaos mid-solve: every engine survives the injected fault and
    /// returns either `Unknown(Cancelled)` (the injection fired) or a
    /// definite, certificate-checked verdict (the run beat the
    /// threshold). Nothing else — no panic, no unearned answer.
    #[test]
    fn engines_survive_injected_faults(seed in 0u64..48, chaos_seed in 0u64..4) {
        let sys = random_system(seed);
        let tpl = TransitionTemplate::compile(&sys);
        // An aggressive period so most non-trivial runs get hit.
        let chaotic = bounded(24).with_chaos(Chaos { seed: chaos_seed, period: 3 });
        for (name, out) in run_all(&sys, &tpl, &chaotic) {
            match &out.outcome {
                Verdict::Unknown(Unknown::Cancelled) => {
                    // Interrupted: the engine must still report its
                    // work (finish() always stamps wall time).
                    prop_assert!(
                        out.stats.time > std::time::Duration::ZERO,
                        "{name}: interrupted run lost its stats"
                    );
                }
                Verdict::Unknown(_) => {} // bound reached before injection
                Verdict::Safe | Verdict::Unsafe(_) => {
                    // Finished under the threshold: the answer must be
                    // as trustworthy as a calm run's.
                    let rep = certify(&sys, &out);
                    prop_assert!(
                        rep.ok,
                        "{name}: chaotic definite verdict failed its certificate: {:?}",
                        rep.failure
                    );
                }
            }
        }
    }

    /// Retry after chaos: a clean re-run on a fresh engine converges to
    /// a definite verdict whose certificate checks, proving the
    /// injected fault cannot poison a subsequent attempt.
    #[test]
    fn clean_rerun_after_chaos_certifies(seed in 0u64..24) {
        let sys = random_system(seed);
        let tpl = TransitionTemplate::compile(&sys);
        let chaotic = bounded(24).with_chaos(Chaos { seed, period: 2 });
        let _ = run_all(&sys, &tpl, &chaotic); // inject faults; outcome free-form
        for (name, out) in run_all(&sys, &tpl, &bounded(64)) {
            if matches!(out.outcome, Verdict::Unknown(_)) {
                continue; // genuinely out of depth budget on this system
            }
            let rep = certify(&sys, &out);
            prop_assert!(
                rep.ok,
                "{name}: post-chaos verdict failed its certificate: {:?}",
                rep.failure
            );
        }
    }
}

/// The portfolio front door honours `Budget::chaos` too: seats race
/// with fault injection enabled and the dispatcher still returns a
/// clean (possibly `Unknown`) verdict.
#[test]
fn portfolio_survives_chaotic_budget() {
    let ts = crate::bmc::tests::counter_ts(3, 8);
    let budget = Budget {
        timeout: None,
        max_depth: 64,
        ..Budget::default()
    }
    .with_chaos(Chaos { seed: 7, period: 2 });
    let p = crate::portfolio::Portfolio::with_engines(budget, 4);
    let report = p.check_detailed(&ts);
    match &report.verdict {
        Verdict::Unsafe(_) => assert!(report.certified, "witnessed bug must certify"),
        Verdict::Safe => panic!("counter_ts(3, 8) is unsafe"),
        Verdict::Unknown(_) => {} // every seat got hit — acceptable
    }
    assert!(!report.disagreement);
}
