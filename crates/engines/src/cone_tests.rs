//! Tests that pin the cone-of-influence cut of [`Blasted::of`]: on the
//! cut template every bit-level engine reaches the verdicts it reaches
//! on the raw one, its counterexamples replay on the whole netlist, and
//! its Safe witnesses certify against the raw template. A regression
//! pins what the cut is for: a deep bug beside a wide datapath the
//! property never reads.

use crate::bmc::Bmc;
use crate::certify::{certify_with, LatchClause};
use crate::itp::Interpolation;
use crate::kind::KInduction;
use crate::pdr::Pdr;
use crate::pdr_baseline::PerFramePdr;
use crate::result::{Blasted, Budget, CheckOutcome, Checker, Verdict};
use aig::{AigLit, AigSystem, Latch, TransitionTemplate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlir::{Sort, TransitionSystem};

/// A random netlist plus `extra` latches that nothing reads: their next
/// states mix inputs, old latches and each other, and may reset or not.
fn random_with_unobserved_latches(rng: &mut StdRng, extra: usize) -> AigSystem {
    let cfg = aig::testutil::RandomSystemConfig {
        max_constraints: 1,
        ..aig::testutil::RandomSystemConfig::default()
    };
    let mut sys = aig::testutil::random_system(rng, &cfg);
    let mut lits: Vec<AigLit> = sys.inputs.clone();
    lits.extend(sys.latches.iter().map(|l| l.output));
    let outputs: Vec<AigLit> = (0..extra).map(|_| sys.aig.new_ci()).collect();
    lits.extend(&outputs);
    for (k, output) in outputs.into_iter().enumerate() {
        let a = lits[rng.gen_range(0..lits.len())];
        let b = lits[rng.gen_range(0..lits.len())];
        let next = if rng.gen_bool(0.5) {
            sys.aig.xor(a, b)
        } else {
            sys.aig.and(a, !b)
        };
        sys.latches.push(Latch {
            output,
            next,
            init: rng.gen_bool(0.8).then(|| rng.gen_bool(0.5)),
            name: format!("u{k}"),
        });
    }
    sys
}

/// Runs one engine on a template with the given strengthening.
type Run = fn(&AigSystem, &TransitionTemplate, &[LatchClause]) -> CheckOutcome;

/// Small bounds, plus a deadline as a guard; an Unknown answer is fine
/// here.
fn bounded() -> Budget {
    Budget {
        timeout: Some(std::time::Duration::from_secs(10)),
        max_depth: 12,
        ..Budget::default()
    }
}

const ENGINES: [(&str, Run); 5] = [
    ("bmc", |s, t, i| Bmc::new(bounded()).run(s, t, i)),
    ("kind", |s, t, i| KInduction::new(bounded()).run(s, t, i)),
    ("itp", |s, t, i| Interpolation::new(bounded()).run(s, t, i)),
    ("pdr", |s, t, i| Pdr::new(bounded()).run(s, t, i)),
    ("pdr-frames", |s, t, i| {
        PerFramePdr::new(bounded()).run(s, t, i)
    }),
];

#[test]
fn engines_on_the_cut_template_agree_with_the_raw_one() {
    let mut rng = StdRng::seed_from_u64(13);
    let (mut cut_rounds, mut definite) = (0, 0);
    for round in 0..40 {
        let extra = rng.gen_range(0..=3);
        let sys = random_with_unobserved_latches(&mut rng, extra);
        let raw = TransitionTemplate::compile(&sys);
        let blasted = Blasted::of_netlist(sys.clone()).certified();
        assert!(blasted.invariant_certified, "round {round}");
        if sys.latch_coi().contains(&false) {
            cut_rounds += 1;
        }
        for (name, run) in ENGINES {
            let cut = run(&blasted.sys, &blasted.template, blasted.strengthening());
            let whole = run(&sys, &raw, &[]);
            match (&cut.outcome, &whole.outcome) {
                (Verdict::Safe, Verdict::Unsafe(_)) | (Verdict::Unsafe(_), Verdict::Safe) => {
                    panic!(
                        "round {round} {name}: cut {} vs raw {}",
                        cut.outcome, whole.outcome
                    )
                }
                _ => {}
            }
            match &cut.outcome {
                Verdict::Unsafe(trace) => {
                    definite += 1;
                    assert!(trace.replays_on(&sys), "round {round} {name}: replay");
                }
                Verdict::Safe => {
                    definite += 1;
                    let rep = certify_with(&sys, &raw, &cut);
                    assert!(
                        rep.ok && rep.witnessed,
                        "round {round} {name}: witness fails on the raw template: {:?}",
                        rep.failure
                    );
                }
                Verdict::Unknown(_) => {}
            }
        }
    }
    assert!(cut_rounds >= 25, "only {cut_rounds} rounds cut a latch");
    assert!(definite >= 100, "only {definite} definite answers");
}

/// A 4-bit counter whose bad fires at 9, beside a shadow copy nobody
/// reads, declared first so its bits have the lower latch indices:
/// `shadow <= cnt + 1` from the same reset. Mining proves
/// `shadow == cnt`, and the cut frees the shadow.
fn shadowed_counter() -> TransitionSystem {
    let mut ts = TransitionSystem::new("shadowed");
    let shadow = ts.add_state("shadow", Sort::Bv(4));
    let cnt = ts.add_state("cnt", Sort::Bv(4));
    let p = ts.pool_mut();
    let cntv = p.var(cnt);
    let one = p.constv(4, 1);
    let next = p.add(cntv, one);
    let nine = p.constv(4, 9);
    let bad = p.eq(cntv, nine);
    let zero = p.constv(4, 0);
    for s in [shadow, cnt] {
        ts.set_init(s, zero);
        ts.set_next(s, next);
    }
    ts.add_bad(bad, "count reaches 9");
    ts
}

/// Lifting a cube through the invariant may keep a freed shadow bit in
/// place of the counter bit it equals; an obligation on that bit would
/// target a free next-state literal, which any predecessor satisfies.
/// PDR must therefore keep its obligations in the cone and return a
/// trace that replays.
///
/// [`Blasted::of`] mines only inside the cone, which the shadow is
/// outside. The blast here pairs the cut, preprocessed template with
/// `shadow == cnt`, written by hand and certified on the raw template,
/// an image any caller may build.
#[test]
fn pdr_obligations_stay_in_the_cone() {
    let ts = shadowed_counter();
    let sys = aig::blast_system(&ts);
    let raw = TransitionTemplate::compile(&sys);
    // Shadow bit `i` is latch `i`, the counter's the latch `i + 4`.
    let clauses: Vec<LatchClause> = (0..4)
        .flat_map(|i| {
            [
                vec![(i, false), (i + 4, true)],
                vec![(i, true), (i + 4, false)],
            ]
        })
        .collect();
    assert!(crate::certify::certify_invariant(&sys, &raw, &clauses).ok);
    let invariant = aig::StaticInvariant::new(clauses, aig::AnalysisStats::default());
    let pre = TransitionTemplate::compile(&aig::refine_with_constants(&sys, &[])).preprocess();
    let blasted = Blasted {
        sys: std::sync::Arc::new(sys),
        template: std::sync::Arc::new(pre.template),
        preproc_stats: pre.stats,
        invariant: std::sync::Arc::new(invariant),
        invariant_certified: true,
    };
    assert_eq!(
        blasted.template.latch_coi(),
        [[false; 4], [true; 4]].concat(),
        "the shadow is freed"
    );
    match Pdr::default().check_blasted(&ts, &blasted).outcome {
        Verdict::Unsafe(trace) => {
            assert!(trace.replays_on(&blasted.sys), "replay");
        }
        other => panic!("expected the count-9 bug, got {other}"),
    }
}

/// A counter whose sticky error flag fires at cycle `bug`, optionally
/// beside a 16-bit `acc <= acc * dat + dat` the property never reads.
pub(crate) fn deep_bug(bug: u64, with_acc: bool) -> TransitionSystem {
    let mut ts = TransitionSystem::new("deep-bug");
    let pos = ts.add_state("pos", Sort::Bv(10));
    let err = ts.add_state("err", Sort::BOOL);
    let p = ts.pool_mut();
    let (posv, errv) = (p.var(pos), p.var(err));
    let one = p.constv(10, 1);
    let pos_next = p.add(posv, one);
    let hit_at = p.constv(10, bug - 1);
    let hit = p.eq(posv, hit_at);
    let set = p.constv(1, 1);
    let err_next = p.ite(hit, set, errv);
    let (zero10, zero1) = (p.constv(10, 0), p.constv(1, 0));
    ts.set_init(pos, zero10);
    ts.set_next(pos, pos_next);
    ts.set_init(err, zero1);
    ts.set_next(err, err_next);
    ts.add_bad(errv, "error flag set");
    if with_acc {
        let dat = ts.add_input("dat", Sort::Bv(16));
        let acc = ts.add_state("acc", Sort::Bv(16));
        let p = ts.pool_mut();
        let (datv, accv) = (p.var(dat), p.var(acc));
        let prod = p.mul(accv, datv);
        let acc_next = p.add(prod, datv);
        let zero16 = p.constv(16, 0);
        ts.set_init(acc, zero16);
        ts.set_next(acc, acc_next);
    }
    ts
}

#[test]
fn unobserved_accumulator_never_reaches_the_solver() {
    let plain = Blasted::of(&deep_bug(420, false));
    let ts = deep_bug(420, true);
    let beside = Blasted::of(&ts);
    assert!(
        beside.sys.latch_coi().contains(&false),
        "acc is outside the cone"
    );
    assert_eq!(
        beside.template.num_frame_clauses(),
        plain.template.num_frame_clauses(),
        "the accumulator's logic must be cut from the engine template"
    );
    let out = Bmc::new(Budget {
        timeout: None,
        ..Budget::default()
    })
    .check_blasted(&ts, &beside);
    match &out.outcome {
        Verdict::Unsafe(trace) => {
            assert_eq!(trace.length(), 420);
            assert!(
                trace.replays_on(&beside.sys),
                "trace replays on the whole netlist"
            );
        }
        other => panic!("expected the cycle-420 bug, got {other}"),
    }
    assert_eq!(
        out.stats.conflicts, 0,
        "the counter alone decides every frame"
    );
}
