//! Property tests for the static-analysis pipeline: the candidates
//! `aig::analyze` mines and the subset a certifier's admission keeps of
//! them. The admitted clauses must be *certified* — initiation plus
//! consecution against the raw template, checked all or nothing by an
//! independent solver — and must *hold concretely* on long random
//! executions of the netlist itself. A third leg injects faults into
//! the admission's solvers and checks that an interrupted admission
//! admits nothing, never a set it did not drive to its fixpoint.

use crate::certify::{certify_invariant, Certifier, LatchClause};
use aig::{AigSystem, AnalysisConfig, TransitionTemplate};
use proptest::prelude::*;
use satb::{Chaos, Limits};

fn random_system(seed: u64) -> AigSystem {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    aig::testutil::random_system(
        &mut rng,
        &aig::testutil::RandomSystemConfig {
            // A couple of environment constraints: the analysis must
            // honour them in consecution without assuming them in
            // concrete states that satisfy them anyway.
            max_constraints: 1,
            ..aig::testutil::RandomSystemConfig::default()
        },
    )
}

/// A cheap deterministic bit source for the concrete replay.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> bool {
        let mut x = self.0 | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x & 1 == 1
    }
}

/// Whether every clause holds in the given concrete latch state.
fn clauses_hold(clauses: &[LatchClause], state: &[bool]) -> Result<(), String> {
    for clause in clauses {
        if !clause.iter().any(|&(i, v)| state[i] == v) {
            return Err(format!("clause {clause:?} fails in state {state:?}"));
        }
    }
    Ok(())
}

/// Concrete replay: run `restarts` random executions of `steps` steps
/// each from the reset state (free latches and inputs randomized) and
/// check every clause in every visited state that satisfies the
/// environment constraints.
fn replay(sys: &AigSystem, clauses: &[LatchClause], seed: u64) -> Result<(), String> {
    let mut bits = Bits(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let (restarts, steps) = (25usize, 40usize); // 1000 visited states
    for _ in 0..restarts {
        let mut state: Vec<bool> = sys
            .latches
            .iter()
            .map(|l| l.init.unwrap_or_else(|| bits.next()))
            .collect();
        for _ in 0..steps {
            // The current state was reached through constrained
            // transitions (or is a reset state), so the invariant must
            // hold in it unconditionally.
            clauses_hold(clauses, &state)?;
            let inputs: Vec<bool> = (0..sys.inputs.len()).map(|_| bits.next()).collect();
            // A successor under a constraint-violating input is not a
            // reachable state: restart the execution instead.
            if !sys.constraints_in(&state, &inputs) {
                break;
            }
            state = sys.step(&state, &inputs);
        }
    }
    Ok(())
}

/// The candidates mined on `sys`, and what a fresh certifier on `tpl`
/// admits of them under `limits`.
fn admit(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    limits: &Limits,
) -> (aig::StaticInvariant, Vec<LatchClause>, crate::CertifyReport) {
    let inv = aig::analyze(sys, tpl, &AnalysisConfig::default(), &Limits::default());
    let (admitted, rep) = Certifier::with_template(sys, tpl, false).admit(&inv.clauses, limits);
    (inv, admitted, rep)
}

proptest! {
    /// Every subset an admission keeps of the candidates mined on a
    /// random netlist (a) passes the strict certificate check against
    /// the raw template and (b) holds on ~1000 random concrete
    /// simulation steps.
    #[test]
    fn mined_invariants_certify_and_hold_concretely(seed in 0u64..64) {
        let sys = random_system(seed);
        let tpl = TransitionTemplate::compile(&sys);
        let (inv, admitted, rep) = admit(&sys, &tpl, &Limits::default());
        prop_assert!(!inv.stats.cancelled, "uncancelled run reported cancelled");
        prop_assert_eq!(inv.stats.retained as usize, inv.clauses.len());
        prop_assert!(rep.ok, "the admission was interrupted: {:?}", rep.failure);
        prop_assert!(admitted.iter().all(|c| inv.clauses.contains(c)));

        let rep = certify_invariant(&sys, &tpl, &admitted);
        prop_assert!(
            rep.ok,
            "admitted invariant failed the certificate check: {:?}",
            rep.failure
        );
        if let Err(why) = replay(&sys, &admitted, seed) {
            prop_assert!(false, "concrete replay falsified the invariant: {why}");
        }
    }

    /// Fault injection: an admission whose solvers are cancelled from
    /// under it admits nothing — never a half-filtered clause set.
    /// Admissions that beat the injection threshold must still certify.
    #[test]
    fn cancelled_analysis_is_clean_or_absent(seed in 0u64..32, chaos_seed in 0u64..4) {
        let sys = random_system(seed);
        let tpl = TransitionTemplate::compile(&sys);
        let limits = Limits {
            chaos: Some(Chaos { seed: chaos_seed, period: 2 }),
            ..Limits::default()
        };
        let (_, admitted, rep) = admit(&sys, &tpl, &limits);
        if rep.ok {
            let rep = certify_invariant(&sys, &tpl, &admitted);
            prop_assert!(
                rep.ok,
                "chaotic-but-complete admission failed its certificate: {:?}",
                rep.failure
            );
        } else {
            prop_assert!(
                admitted.is_empty(),
                "interrupted admission leaked clauses: {:?}",
                admitted
            );
        }
    }
}
