//! Correctness gate over the bundled designs. Every check runs on the
//! image the system ships ([`Blasted::of`]), with the strengthening it
//! mined proven the way a solo caller proves it
//! ([`Blasted::certified`]); performance is perfbench's job, not this
//! one's.
//!
//! Per design:
//!
//! 1. **Strengthening.** The invariant `Blasted::of` mined must pass
//!    `Blasted::certified`, and certify again against a freshly compiled
//!    raw template.
//! 2. **Engine sweep.** BMC, k-induction, interpolation, PDR and the
//!    per-frame PDR each check the shipped image. Every definite verdict
//!    must match the ground truth, an Unsafe trace must replay on the
//!    netlist, and the witness must pass **paranoid** certification
//!    against the raw template: every obligation's refutation is
//!    replayed by `satb::proofcheck`. Because each verdict is checked
//!    against the raw, un-preprocessed template, preprocessing and
//!    strengthening stay gated on real designs.
//! 3. **Arena.** Wherever the per-frame PDR got past frame 0, PDR's peak
//!    clause arena must be strictly below the per-frame engine's.
//! 4. **Portfolio.** The certifying portfolio, all four engines seated
//!    whatever the host's core count, runs three legs: calm (a
//!    correct, certified answer with no seat demoted or crashed), under
//!    seeded fault injection (a definite answer must be certified and
//!    agree with the calm one), and with a seat that panics (the crash
//!    is reported and the calm answer kept, certified).
//! 5. **Proof.** Three frames of the shipped template are unrolled in a
//!    proof-logging solver, frame 0 in partition A and the later frames
//!    and the bad in B. The resolution proof must replay, and on UNSAT
//!    so must the interpolant's side conditions.
//!
//! Prints one line per design and one line per failure, and exits 2 if
//! any check failed.
//!
//! Usage: `cargo run --release -p bench --bin gates [-- --timeout SECS] [design]`

use aig::{AigSystem, TransitionTemplate};
use bmarks::{Benchmark, Expected};
use engines::bmc::Bmc;
use engines::certify::{certify_invariant, certify_with_mode};
use engines::itp::Interpolation;
use engines::kind::KInduction;
use engines::pdr::Pdr;
use engines::pdr_baseline::PerFramePdr;
use engines::portfolio::{Portfolio, PortfolioOutcome};
use engines::{Blasted, CheckOutcome, Checker, Unknown, Verdict};
use rtlir::TransitionSystem;
use satb::{Chaos, Part, SolveResult, Solver};
use std::fmt::Write as _;

fn main() {
    let (timeout, benchmarks) = bench::parse_args(6);
    // The panic seat fires by design on every panic leg; keep its
    // backtrace out of the log without hiding real panics.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() != Some("portfolio-panic-seat") {
            default_hook(info);
        }
    }));
    let (mut definite, mut failures) = (0, 0);
    for (seed, b) in (0u64..).zip(&benchmarks) {
        let (line, answered, failed) = gate_design(b, seed, timeout);
        println!("{:<14}{line}", b.name);
        for why in &failed {
            println!("!! {}: {why}", b.name);
        }
        definite += answered;
        failures += failed.len();
    }
    println!("{definite} definite engine verdicts, {failures} failures");
    if failures > 0 {
        std::process::exit(2);
    }
}

/// Runs every check on one design. Returns its report line, the number
/// of definite engine verdicts and every failure.
fn gate_design(b: &Benchmark, seed: u64, timeout: u64) -> (String, usize, Vec<String>) {
    let ts = b.compile().expect("benchmark compiles");
    let blasted = Blasted::of(&ts).certified();
    let raw = TransitionTemplate::compile(&blasted.sys);
    let mut failures = judge_strengthening(&blasted, &raw);

    let budget = bench::budget(timeout);
    let checkers: [Box<dyn Checker>; 5] = [
        Box::new(Bmc::new(budget.clone())),
        Box::new(KInduction::new(budget.clone())),
        Box::new(Interpolation::new(budget.clone())),
        Box::new(Pdr::new(budget.clone())),
        Box::new(PerFramePdr::new(budget)),
    ];
    let mut line = String::new();
    let mut definite = 0;
    let mut outs = Vec::with_capacity(checkers.len());
    for c in &checkers {
        let out = c.check_blasted(&ts, &blasted);
        let _ = write!(line, "  {}: {}", c.name(), out.outcome);
        definite += usize::from(!matches!(out.outcome, Verdict::Unknown(_)));
        if let Err(why) = judge_verdict(b.expected, &out, &blasted.sys, &raw) {
            failures.push(format!("{}: {why}", c.name()));
        }
        outs.push(out);
    }
    // PDR and the per-frame PDR are the last two checkers.
    failures.extend(judge_arena(&outs[3], &outs[4]).err());

    let legs = portfolio_legs(&ts, seed, timeout);
    let _ = write!(line, "  portfolio: {}", legs.calm.verdict);
    failures.extend(judge_portfolio(b.expected, &legs));

    match proof_leg(&blasted.sys, &blasted.template) {
        Ok(result) => {
            let _ = write!(line, "  proof: {result:?}");
        }
        Err(why) => failures.push(why),
    }
    (line, definite, failures)
}

/// Step 1: the strengthening shipped with the image.
fn judge_strengthening(blasted: &Blasted, raw: &TransitionTemplate) -> Vec<String> {
    let mut failures = Vec::new();
    if !blasted.invariant_certified {
        failures.push("Blasted::certified dropped a mined invariant that failed its proof".into());
    }
    let rep = certify_invariant(&blasted.sys, raw, &blasted.invariant.clauses);
    if !rep.ok {
        failures.push(format!(
            "mined invariant fails re-certification: {}",
            rep.failure.unwrap_or_default()
        ));
    }
    failures
}

/// Step 2: one engine's answer. An Unknown answer passes; a definite
/// one must match the ground truth, replay if it is a trace, and carry
/// a witness that passes paranoid certification against `raw`.
fn judge_verdict(
    expected: Expected,
    out: &CheckOutcome,
    sys: &AigSystem,
    raw: &TransitionTemplate,
) -> Result<(), String> {
    match (&out.outcome, expected) {
        (Verdict::Unknown(_), _) => return Ok(()),
        (Verdict::Safe, Expected::Unsafe) | (Verdict::Unsafe(_), Expected::Safe) => {
            return Err(format!("{} contradicts the ground truth", out.outcome));
        }
        (Verdict::Unsafe(trace), _) if !trace.replays_on(sys) => {
            return Err("the trace does not replay on the netlist".into());
        }
        _ => {}
    }
    let rep = certify_with_mode(sys, raw, out, true);
    match (rep.ok, rep.witnessed) {
        (true, true) => Ok(()),
        (true, false) => Err(format!("{} carries no witness", out.outcome)),
        (false, _) => Err(format!(
            "paranoid certification failed: {}",
            rep.failure.unwrap_or_default()
        )),
    }
}

/// Step 3: one solver with activation literals must hold less clause
/// arena than one solver per frame, wherever the per-frame engine built
/// more than its frame-0 solver.
fn judge_arena(pdr: &CheckOutcome, per_frame: &CheckOutcome) -> Result<(), String> {
    let (single, frames) = (pdr.stats.arena_peak_bytes, per_frame.stats.arena_peak_bytes);
    if per_frame.stats.depth >= 1 && single >= frames {
        return Err(format!(
            "PDR's arena peak {single} B is not below per-frame PDR's {frames} B"
        ));
    }
    Ok(())
}

/// The three portfolio runs of step 4.
#[derive(Clone)]
struct Legs {
    calm: PortfolioOutcome,
    chaos: PortfolioOutcome,
    panicked: PortfolioOutcome,
}

/// A seat that panics the moment it is scheduled.
struct PanicSeat;

impl Checker for PanicSeat {
    fn name(&self) -> &'static str {
        "panic-seat"
    }
    fn check(&self, _ts: &TransitionSystem) -> CheckOutcome {
        panic!("injected seat failure");
    }
}

fn portfolio_legs(ts: &TransitionSystem, seed: u64, timeout: u64) -> Legs {
    // Aggressive enough to hit real queries, loose enough that trivial
    // ones still finish.
    let chaos = bench::budget(timeout).with_chaos(Chaos { seed, period: 200 });
    let mut panicking = Portfolio::with_engines(bench::budget(timeout), 4);
    panicking.push(PanicSeat);
    Legs {
        calm: Portfolio::with_engines(bench::budget(timeout), 4).check_detailed(ts),
        chaos: Portfolio::with_engines(chaos, 4).check_detailed(ts),
        panicked: panicking.check_detailed(ts),
    }
}

fn same_answer(a: &Verdict, b: &Verdict) -> bool {
    matches!(
        (a, b),
        (Verdict::Safe, Verdict::Safe) | (Verdict::Unsafe(_), Verdict::Unsafe(_))
    )
}

/// Step 4: the calm leg answers correctly and certified, with no seat
/// demoted or crashed; a definite chaos answer is certified and agrees
/// with it; the panic leg reports the crash and keeps the answer.
fn judge_portfolio(expected: Expected, legs: &Legs) -> Vec<String> {
    let mut failures = Vec::new();
    let calm = &legs.calm;
    let truth = matches!(
        (&calm.verdict, expected),
        (Verdict::Safe, Expected::Safe) | (Verdict::Unsafe(_), Expected::Unsafe)
    );
    if !truth {
        failures.push(format!("calm portfolio answered {}", calm.verdict));
    }
    if !calm.certified {
        failures.push("calm portfolio answer is not certified".into());
    }
    if calm.disagreement {
        failures.push("calm portfolio seats disagreed".into());
    }
    for e in &calm.engines {
        if let Verdict::Unknown(u @ (Unknown::CertificateFailed(_) | Unknown::Crashed(_))) =
            &e.outcome.outcome
        {
            failures.push(format!("calm portfolio seat {}: {u}", e.name));
        }
    }
    let chaos = &legs.chaos;
    let chaos_ok = matches!(chaos.verdict, Verdict::Unknown(_))
        || (chaos.certified && same_answer(&chaos.verdict, &calm.verdict));
    if !chaos_ok {
        failures.push(format!(
            "chaos leg answered {} (certified: {}) where the calm leg answered {}",
            chaos.verdict, chaos.certified, calm.verdict
        ));
    }
    let panicked = &legs.panicked;
    let crash_reported = panicked
        .engines
        .iter()
        .any(|e| matches!(e.outcome.outcome, Verdict::Unknown(Unknown::Crashed(_))));
    if !crash_reported {
        failures.push("panic leg did not report the crashed seat".into());
    }
    if !(panicked.certified && same_answer(&panicked.verdict, &calm.verdict)) {
        failures.push(format!(
            "panic leg answered {} (certified: {}) where the calm leg answered {}",
            panicked.verdict, panicked.certified, calm.verdict
        ));
    }
    failures
}

/// Step 5: unrolls three frames of `tpl` in a proof-logging solver and
/// replays the proof, and on UNSAT the interpolant, with the
/// independent checker.
fn proof_leg(sys: &AigSystem, tpl: &TransitionTemplate) -> Result<SolveResult, String> {
    let mut s = Solver::with_proof();
    let mut frame = tpl.instantiate(&mut s, Part::A, 0);
    frame.assert_init(sys, &mut s);
    for d in 1..=3 {
        let cur = frame.latch_next.clone();
        frame = tpl.instantiate_bound(&mut s, Part::B, d, &cur);
    }
    s.add_clause_in(&[frame.any_bad], Part::B);
    let result = s.solve();
    let report = s.check_proof().expect("proof logging is on");
    if let Some(why) = report.first_failure() {
        return Err(format!("proof replay failed: {why}"));
    }
    if result == SolveResult::Unsat {
        let itp = s.interpolant().expect("UNSAT records a refutation");
        let proof = s.proof().expect("proof logging is on");
        if let Some(why) = satb::proofcheck::check_with_interpolant(proof, &itp).first_failure() {
            return Err(format!("interpolant check failed: {why}"));
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::{Certificate, ClausalInvariant, EngineStats};

    /// A bundled design, its shipped image and the raw template the
    /// judge certifies against.
    fn shipped(name: &str) -> (Benchmark, TransitionSystem, Blasted, TransitionTemplate) {
        let b = bmarks::by_name(name).expect("bundled design");
        let ts = b.compile().expect("compiles");
        let blasted = Blasted::of(&ts).certified();
        let raw = TransitionTemplate::compile(&blasted.sys);
        (b, ts, blasted, raw)
    }

    /// PDR's certified Safe answer on Vending.
    fn vending_safe() -> (Blasted, TransitionTemplate, CheckOutcome) {
        let (_, ts, blasted, raw) = shipped("Vending");
        let out = Pdr::new(bench::budget(30)).check_blasted(&ts, &blasted);
        assert_eq!(out.outcome, Verdict::Safe);
        (blasted, raw, out)
    }

    /// BMC's counterexample on traffic-light.
    fn traffic_light_bug() -> (Blasted, TransitionTemplate, CheckOutcome) {
        let (_, ts, blasted, raw) = shipped("traffic-light");
        let out = Bmc::new(bench::budget(30)).check_blasted(&ts, &blasted);
        assert!(matches!(out.outcome, Verdict::Unsafe(_)), "{}", out.outcome);
        (blasted, raw, out)
    }

    fn arena(depth: u32, arena_peak_bytes: u64) -> CheckOutcome {
        CheckOutcome {
            outcome: Verdict::Unknown(Unknown::Timeout),
            stats: EngineStats {
                depth,
                arena_peak_bytes,
                ..EngineStats::default()
            },
            certificate: None,
        }
    }

    #[test]
    fn correct_outcomes_pass() {
        let (blasted, raw, safe) = vending_safe();
        assert_eq!(judge_strengthening(&blasted, &raw), Vec::<String>::new());
        assert_eq!(
            judge_verdict(Expected::Safe, &safe, &blasted.sys, &raw),
            Ok(())
        );
        let unknown = arena(0, 0);
        assert_eq!(
            judge_verdict(Expected::Safe, &unknown, &blasted.sys, &raw),
            Ok(())
        );
        let (bug_blasted, bug_raw, bug) = traffic_light_bug();
        assert_eq!(
            judge_verdict(Expected::Unsafe, &bug, &bug_blasted.sys, &bug_raw),
            Ok(())
        );
        assert_eq!(judge_arena(&arena(3, 100), &arena(3, 400)), Ok(()));
        // A per-frame run that never left frame 0 proves nothing.
        assert_eq!(judge_arena(&arena(0, 400), &arena(0, 400)), Ok(()));
        let (_, ts, ..) = shipped("Vending");
        let legs = portfolio_legs(&ts, 0, 30);
        assert_eq!(judge_portfolio(Expected::Safe, &legs), Vec::<String>::new());
        assert!(proof_leg(&blasted.sys, &blasted.template).is_ok());
    }

    #[test]
    fn safe_verdict_on_an_unsafe_design_fails() {
        // The witness is genuine, so only the ground truth catches it.
        let (blasted, raw, safe) = vending_safe();
        let err = judge_verdict(Expected::Unsafe, &safe, &blasted.sys, &raw).unwrap_err();
        assert!(err.contains("ground truth"), "{err}");
        let (bug_blasted, bug_raw, bug) = traffic_light_bug();
        assert!(judge_verdict(Expected::Safe, &bug, &bug_blasted.sys, &bug_raw).is_err());
    }

    #[test]
    fn safe_verdict_without_a_witness_fails() {
        let (blasted, raw, mut safe) = vending_safe();
        safe.certificate = None;
        let err = judge_verdict(Expected::Safe, &safe, &blasted.sys, &raw).unwrap_err();
        assert!(err.contains("no witness"), "{err}");
    }

    #[test]
    fn witness_the_certifier_rejects_fails() {
        // The empty clause set claims no state is bad.
        let (blasted, raw, mut safe) = vending_safe();
        safe.certificate = Some(Certificate::Clausal(ClausalInvariant {
            clauses: Vec::new(),
        }));
        let err = judge_verdict(Expected::Safe, &safe, &blasted.sys, &raw).unwrap_err();
        assert!(err.contains("certification failed"), "{err}");
    }

    #[test]
    fn trace_that_does_not_replay_fails() {
        let (blasted, raw, mut bug) = traffic_light_bug();
        let Verdict::Unsafe(trace) = &mut bug.outcome else {
            unreachable!("checked by traffic_light_bug")
        };
        trace.states.pop();
        trace.inputs.pop();
        let err = judge_verdict(Expected::Unsafe, &bug, &blasted.sys, &raw).unwrap_err();
        assert!(err.contains("does not replay"), "{err}");
    }

    #[test]
    fn faulty_portfolio_legs_fail() {
        let (_, ts, ..) = shipped("Vending");
        let legs = portfolio_legs(&ts, 0, 30);
        let fails = |edit: fn(&mut Legs)| {
            let mut bad = legs.clone();
            edit(&mut bad);
            !judge_portfolio(Expected::Safe, &bad).is_empty()
        };
        assert!(fails(|l| {
            l.calm.engines[0].outcome.outcome =
                Verdict::Unknown(Unknown::CertificateFailed("forged".into()));
        }));
        assert!(fails(|l| {
            l.calm.engines[1].outcome.outcome = Verdict::Unknown(Unknown::Crashed("boom".into()));
        }));
        assert!(fails(|l| l.calm.certified = false));
        assert!(fails(|l| {
            l.calm.verdict = Verdict::Unknown(Unknown::Timeout);
        }));
        assert!(fails(|l| {
            l.chaos.verdict = Verdict::Unsafe(engines::Trace {
                states: vec![Vec::new()],
                inputs: vec![Vec::new()],
                bad_index: 0,
            });
            l.chaos.certified = true;
        }));
        assert!(fails(|l| {
            for e in &mut l.panicked.engines {
                e.outcome.outcome = Verdict::Unknown(Unknown::Cancelled);
            }
        }));
        // A chaos leg that gave up is a budget artifact, not a failure.
        assert!(!fails(|l| {
            l.chaos.verdict = Verdict::Unknown(Unknown::Cancelled);
        }));
    }

    #[test]
    fn arena_regression_fails() {
        assert!(judge_arena(&arena(2, 400), &arena(2, 400)).is_err());
        assert!(judge_arena(&arena(1, 500), &arena(1, 400)).is_err());
    }
}
