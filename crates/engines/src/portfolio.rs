//! Parallel engine portfolio — the paper's best "hybrid" configuration
//! (Figure 5): several analyzers race on worker threads over the same
//! [`TransitionSystem`], the first definite verdict wins, and the
//! losers are cooperatively cancelled.
//!
//! Cancellation rides on the `satb` stop flag: every member engine gets
//! a clone of this portfolio's [`Budget`] carrying one shared
//! `Arc<AtomicBool>`, which [`Budget::sat_limits`] threads into each
//! SAT query. When the winner reports, the flag is raised and every
//! in-flight solve returns `Unknown(Cancelled)` within one solver-loop
//! iteration — no loser outlives the winner by more than one
//! conflict-check interval.
//!
//! # Line-up
//!
//! Seats join in one committed order of measured coverage: PDR proves
//! every safe design measured, BMC finds the deep bugs, and
//! interpolation and k-induction, alone, answer 11 and 10 of the 12
//! bundled designs. [`Portfolio::with_engines`] races the first `seats`
//! of them, at least 2 and at most 4; [`Portfolio::with_default_engines`]
//! races one per core of the host ([`aig::split::cores`]). No flag,
//! variable or setting chooses the seats: a caller whose coverage must
//! not depend on the host passes the count itself.
//!
//! A seat beyond the core count only takes time from the seats that
//! answer: on 2 cores, five seats made the race take about twice as
//! long as PDR alone. The floor is 2 because neither engine covers the
//! other's answers in time: alone, PDR took 109–133 s over 8 deep bugs
//! that BMC finds in milliseconds, while two seats sharing one core
//! cost at most about twice the faster one. Racing complementary
//! engines mirrors ABC's `dprove`, CPAchecker 3.0's strategy portfolio
//! and rIC3: whichever technique fits the design answers first.
//!
//! The race is *certifying* (see [`crate::certify`]): a definite
//! verdict only wins after its witness re-checks against the raw
//! transition template with an independent solver. One [`Certifier`]
//! checks every seat's witness. Before the seats start, it proves the
//! static strengthening that [`Blasted::of`] mined and left unproven,
//! split across every core, under the race's deadline and its caller's
//! stop flag: the one proof of the set on this path. The seats assert
//! the set only when that admission passed, and each witness is checked
//! relative to it, so the winner's check is short and the losers are
//! cancelled as soon as the winner answers (see [known
//! clauses](crate::certify#known-clauses)). A member whose
//! witness fails is demoted to [`Unknown::CertificateFailed`] and the
//! race goes on with the remaining seats; contradicting definite
//! verdicts are resolved by trusting the side whose witness checked,
//! and only certified-vs-certified contradictions raise the
//! [`PortfolioOutcome::disagreement`] alarm. Seat panics are isolated
//! with `catch_unwind` and surfaced as [`Unknown::Crashed`] — a
//! crashing member degrades the portfolio instead of killing it.
//!
//! # Example
//!
//! ```
//! use engines::portfolio::Portfolio;
//! use engines::{Checker, Verdict};
//! use rtlir::{Sort, TransitionSystem};
//!
//! // A counter with a bug at depth 5: BMC wins the race.
//! let mut ts = TransitionSystem::new("c");
//! let s = ts.add_state("count", Sort::Bv(8));
//! let sv = ts.pool_mut().var(s);
//! let one = ts.pool_mut().constv(8, 1);
//! let next = ts.pool_mut().add(sv, one);
//! let zero = ts.pool_mut().constv(8, 0);
//! ts.set_init(s, zero);
//! ts.set_next(s, next);
//! let five = ts.pool_mut().constv(8, 5);
//! let bad = ts.pool_mut().eq(sv, five);
//! ts.add_bad(bad, "reaches 5");
//!
//! let report = Portfolio::default().check_detailed(&ts);
//! assert!(report.verdict.is_unsafe());
//! assert!(report.winner.is_some());
//! ```

use crate::bmc::Bmc;
use crate::certify::{Certificate, Certifier, CertifyReport};
use crate::itp::Interpolation;
use crate::kind::KInduction;
use crate::pdr::Pdr;
use crate::result::{Blasted, Budget, CheckOutcome, Checker, EngineStats, Unknown, Verdict};
use rtlir::TransitionSystem;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// One member engine's result within a portfolio run.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The member's engine name (`Checker::name`).
    pub name: &'static str,
    /// Its verdict and statistics (losers typically report
    /// `Unknown(Cancelled)`; a member whose witness failed its
    /// re-check reports `Unknown(CertificateFailed)`, a panicked one
    /// `Unknown(Crashed)`).
    pub outcome: CheckOutcome,
    /// Whether this member produced the winning verdict.
    pub winner: bool,
    /// The independent witness re-check of this member's definite
    /// verdict (`None` when the member never answered definitely).
    pub certify: Option<CertifyReport>,
}

/// The combined answer of a portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The winning definite verdict, or the merged `Unknown` when no
    /// member answered.
    pub verdict: Verdict,
    /// Aggregated statistics: the winner's depth, and every counter
    /// summed over the members.
    pub stats: EngineStats,
    /// Name of the member that answered first, if any.
    pub winner: Option<&'static str>,
    /// Every member's own verdict and statistics.
    pub engines: Vec<EngineReport>,
    /// Set when two members produced contradicting definite verdicts
    /// that *both* survived their witness re-checks — a soundness
    /// alarm worth surfacing. Contradictions where only one side's
    /// witness checked are resolved silently in its favour.
    pub disagreement: bool,
    /// Whether the winning verdict is backed by a witness that passed
    /// the independent re-check (`false` for winners that cannot
    /// produce one — word-level k-induction, seated software
    /// analyzers — and for merged-Unknown results).
    pub certified: bool,
    /// The winner's checked Safe witness, when there is one (Unsafe
    /// winners carry their witness trace inside the verdict).
    pub certificate: Option<Certificate>,
    /// CNF preprocessing counters of the shared transition template
    /// every member solved on (all zeros for a raw, unsimplified
    /// blast).
    pub preproc: satb::PreprocStats,
    /// Static strengthening clauses the race admitted and handed to the
    /// members (see [`aig::analysis`]): 0 when the admission failed or
    /// was interrupted, since then no member asserts any.
    pub invariant_clauses: u32,
    /// Constant-latch facts among [`invariant_clauses`] (singleton
    /// clauses), counted like them. The members assert them like every
    /// other clause: [`Blasted::of`] folds no constant into the shared
    /// template.
    ///
    /// [`invariant_clauses`]: PortfolioOutcome::invariant_clauses
    pub invariant_constants: u32,
    /// Whether witness re-checks ran in paranoid mode (see
    /// [`Portfolio::with_paranoid`]); the summary always prints the
    /// proof-replay line when set, even for conflict-free runs that
    /// produced zero chains.
    pub paranoid: bool,
}

impl PortfolioOutcome {
    /// A compact multi-line report: winner, then one line per member
    /// with depth / SAT queries / conflicts / arena footprint, plus the
    /// queries PDR answered with a standing predecessor when there are
    /// any.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "verdict {} (winner: {}, {}{})",
            self.verdict,
            self.winner.unwrap_or("none"),
            if self.certified {
                "certified"
            } else {
                "uncertified"
            },
            if self.disagreement {
                ", DISAGREEMENT"
            } else {
                ""
            }
        );
        let _ = writeln!(
            out,
            "  shared blast: preproc elim {} subsumed {} strengthened {}, \
             static invariant {} clauses ({} constants)",
            self.preproc.elim_vars,
            self.preproc.subsumed,
            self.preproc.strengthened,
            self.invariant_clauses,
            self.invariant_constants,
        );
        let replayed: u64 = self
            .engines
            .iter()
            .filter_map(|e| e.certify.as_ref())
            .map(|c| c.proof_chains)
            .sum();
        if self.paranoid || replayed > 0 || self.stats.proof_bytes > 0 {
            let _ = writeln!(
                out,
                "  proof: {} chains replayed by the paranoid checker, \
                 engines logged {} chains ({} B)",
                replayed, self.stats.proof_chains, self.stats.proof_bytes,
            );
        }
        for e in &self.engines {
            let cert = match &e.certify {
                Some(r) if r.ok && r.witnessed => " cert✓",
                Some(r) if !r.ok => " cert✗",
                _ => "",
            };
            let reused = match e.outcome.stats.preds_reused {
                0 => String::new(),
                n => format!("  reused {n}"),
            };
            let _ = writeln!(
                out,
                "  {:<10} {:<22} depth {:>4}  queries {:>6}{}  conflicts {:>8}  arena {:>9} B  {:.2}s{}",
                e.name,
                format!("{}{}", e.outcome.outcome, if e.winner { " *" } else { "" }),
                e.outcome.stats.depth,
                e.outcome.stats.sat_queries,
                reused,
                e.outcome.stats.conflicts,
                e.outcome.stats.arena_peak_bytes,
                e.outcome.stats.time.as_secs_f64(),
                cert,
            );
        }
        out
    }
}

/// Parallel portfolio checker.
///
/// Run it like any other engine via [`Checker::check`], or with
/// [`Portfolio::check_detailed`] for the per-engine breakdown.
///
/// Concurrent `check` calls on the *same* `Portfolio` value share the
/// cancellation flag and would cancel each other; use one `Portfolio`
/// per concurrent run.
pub struct Portfolio {
    budget: Budget,
    /// The portfolio's own flag, raised when a winner reports; member
    /// budgets carry a clone of this one.
    stop: Arc<AtomicBool>,
    /// A stop flag the *caller* supplied on the budget (e.g. this
    /// portfolio is itself a member of a larger race); polled during
    /// the run and forwarded to the members.
    external: Option<Arc<AtomicBool>>,
    engines: Vec<(&'static str, Box<dyn Checker + Send + Sync>)>,
    /// Witness re-checks run in paranoid mode: every certification
    /// obligation solver logs a resolution proof that is replayed by
    /// the independent checker in [`satb::proofcheck`] before the
    /// verdict is trusted (see [`Certifier::new`]).
    paranoid: bool,
}

impl Default for Portfolio {
    fn default() -> Portfolio {
        Portfolio::with_default_engines(Budget::default())
    }
}

impl Portfolio {
    /// An empty portfolio with the given budget; add members with
    /// [`push`](Portfolio::push). A stop flag already attached to
    /// `budget` cancels the whole portfolio from outside.
    pub fn new(mut budget: Budget) -> Portfolio {
        let external = budget.stop.take();
        Portfolio {
            stop: Arc::new(AtomicBool::new(false)),
            external,
            budget,
            engines: Vec::new(),
            paranoid: false,
        }
    }

    /// Turns the witness re-checks paranoid: certification obligation
    /// solvers log resolution proofs and [`satb::proofcheck`] replays
    /// every chain before a verdict may win. A refutation whose proof
    /// fails the replay demotes the member to
    /// [`Unknown::CertificateFailed`] exactly like a bad witness.
    pub fn with_paranoid(mut self, on: bool) -> Portfolio {
        self.paranoid = on;
        self
    }

    /// Whether witness re-checks run in paranoid mode.
    pub fn paranoid(&self) -> bool {
        self.paranoid
    }

    /// The paper's hybrid line-up sized to `seats`: the first
    /// `seats.clamp(2, 4)` of PDR, BMC, interpolation and k-induction,
    /// in that order (see [Line-up](self#line-up)), as independent
    /// seats under `budget` and the shared cancellation flag.
    pub fn with_engines(budget: Budget, seats: usize) -> Portfolio {
        let mut p = Portfolio::new(budget);
        let b = p.engine_budget();
        p.push(Pdr::new(b.clone()));
        p.push(Bmc::new(b.clone()));
        if seats >= 3 {
            p.push(Interpolation::new(b.clone()));
        }
        if seats >= 4 {
            p.push(KInduction::new(b));
        }
        p
    }

    /// The hybrid line-up with one seat per core of the host:
    /// [`with_engines`](Portfolio::with_engines) at
    /// [`aig::split::cores`]. A 2-core host races PDR beside BMC, a host
    /// with 4 or more cores all four engines.
    pub fn with_default_engines(budget: Budget) -> Portfolio {
        Portfolio::with_engines(budget, aig::split::cores())
    }

    /// A clone of the portfolio's budget carrying the shared stop
    /// flag. Engines added via [`push`](Portfolio::push) should be
    /// built from this so the portfolio can cancel them.
    pub fn engine_budget(&self) -> Budget {
        self.budget.clone().with_stop(self.stop.clone())
    }

    /// Adds a member engine. Build it from
    /// [`engine_budget`](Portfolio::engine_budget) or it will ignore
    /// cancellation and only stop at its own limits.
    pub fn push<C: Checker + Send + Sync + 'static>(&mut self, checker: C) {
        self.engines.push((checker.name(), Box::new(checker)));
    }

    /// Member names, in spawn order.
    pub fn members(&self) -> Vec<&'static str> {
        self.engines.iter().map(|(n, _)| *n).collect()
    }

    /// Races every member on `ts` and returns the full breakdown.
    ///
    /// The netlist is blasted and its transition template compiled
    /// exactly **once**, here; every member receives the shared
    /// [`Blasted`] through [`Checker::check_blasted`] instead of
    /// re-encoding the system from scratch.
    ///
    /// The reported [`EngineStats::time`] counts from entry, so it
    /// covers building the shared blast as well as the admission of its
    /// strengthening and the race.
    pub fn check_detailed(&self, ts: &TransitionSystem) -> PortfolioOutcome {
        let started = Instant::now();
        let blasted = Blasted::of(ts);
        let mut out = self.check_detailed_blasted(ts, &blasted);
        out.stats.time = started.elapsed();
        out
    }

    /// Like [`check_detailed`](Portfolio::check_detailed) with a
    /// caller-provided shared blast (e.g. reused across several runs).
    ///
    /// Before any seat starts, the race's [`Certifier`]
    /// [admits](Certifier::admit) [`Blasted::invariant`] against the
    /// raw template, whatever [`Blasted::invariant_certified`] says (see
    /// [known clauses](crate::certify#known-clauses)). The admission
    /// runs under the portfolio's timeout, counted from this call, and
    /// the stop flag its caller put on the budget; fault injection stays
    /// with the seats. Every seat gets the blast with
    /// [`Blasted::invariant_certified`] set to whether the admission
    /// passed, so a set that failed or was interrupted reaches no seat.
    /// The reported time covers the admission and the race, not the
    /// blast.
    pub fn check_detailed_blasted(
        &self,
        ts: &TransitionSystem,
        blasted: &Blasted,
    ) -> PortfolioOutcome {
        let started = Instant::now();
        self.stop.store(false, Ordering::Relaxed);
        if self.engines.is_empty() {
            return PortfolioOutcome {
                verdict: Verdict::Unknown(Unknown::Inconclusive("empty portfolio".into())),
                stats: EngineStats::default(),
                winner: None,
                engines: Vec::new(),
                disagreement: false,
                certified: false,
                certificate: None,
                preproc: blasted.preproc_stats,
                invariant_clauses: 0,
                invariant_constants: 0,
                paranoid: self.paranoid,
            };
        }

        let mut outcomes: Vec<Option<CheckOutcome>> = Vec::new();
        outcomes.resize_with(self.engines.len(), || None);
        let mut certifications: Vec<Option<CertifyReport>> = Vec::new();
        certifications.resize_with(self.engines.len(), || None);
        let mut winner_idx: Option<usize> = None;
        let mut winner_witnessed = false;
        let mut disagreement = false;
        // The race's witness checker proves the strengthening before any
        // seat claims a core, so the admission splits across every core
        // and each witness is then checked relative to it. It runs under
        // the race's deadline and the caller's stop flag; a set that
        // fails or is interrupted reaches no seat.
        let mut certifier = Certifier::new(&blasted.sys, self.paranoid);
        let admission = satb::Limits {
            deadline: self.budget.deadline_from(started),
            stop: self.external.clone(),
            ..satb::Limits::default()
        };
        let admitted = certifier.admit(&blasted.invariant.clauses, &admission).ok;
        let blasted = &Blasted {
            invariant_certified: admitted,
            ..blasted.clone()
        };
        // A stop the caller raised by now reaches the seats before they
        // start.
        if admission.stop_requested() {
            self.stop.store(true, Ordering::Relaxed);
        }

        let (tx, rx) = mpsc::channel::<(usize, CheckOutcome)>();
        thread::scope(|scope| {
            for (i, (name, checker)) in self.engines.iter().enumerate() {
                let tx = tx.clone();
                let checker = checker.as_ref();
                thread::Builder::new()
                    .name(format!("portfolio-{name}"))
                    .spawn_scoped(scope, move || {
                        // The seat keeps a core busy: a witness checked
                        // meanwhile is not split onto it.
                        let _core = aig::split::CoreClaim::claim();
                        // A panicking member must degrade the race, not
                        // kill it: catch the unwind and report it as a
                        // crash so the seat stays visible in the
                        // breakdown (and the dispatcher keeps its
                        // every-member-reports invariant).
                        let seat_started = Instant::now();
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            checker.check_blasted(ts, blasted)
                        }))
                        .unwrap_or_else(|_| {
                            CheckOutcome::finish(
                                Verdict::Unknown(Unknown::Crashed((*name).into())),
                                EngineStats::default(),
                                seat_started,
                            )
                        });
                        // The portfolio may already have dropped the
                        // receiver only if it panicked; ignore.
                        let _ = tx.send((i, out));
                    })
                    .expect("spawn portfolio worker");
            }
            drop(tx);
            // Collect every member: losers come back quickly once the
            // stop flag is up, so this also joins the race. When the
            // caller supplied their own stop flag, poll it and forward
            // a raise to the members.
            let recv_next = || match &self.external {
                None => rx.recv().ok(),
                Some(ext) => loop {
                    if ext.load(Ordering::Relaxed) {
                        self.stop.store(true, Ordering::Relaxed);
                    }
                    match rx.recv_timeout(std::time::Duration::from_millis(5)) {
                        Ok(msg) => break Some(msg),
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(mpsc::RecvTimeoutError::Disconnected) => break None,
                    }
                },
            };
            while let Some((i, mut out)) = recv_next() {
                if !matches!(out.outcome, Verdict::Unknown(_)) {
                    // Certify before declaring a winner: the race is
                    // only called for answers whose witness survives
                    // the independent re-check (members without a
                    // witness are accepted uncertified).
                    let report = certifier.check(&out);
                    if !report.ok {
                        // Demote: withdraw the verdict, keep racing on
                        // the remaining seats.
                        let why = report.failure.clone().unwrap_or_default();
                        out.outcome = Verdict::Unknown(Unknown::CertificateFailed(why));
                        out.certificate = None;
                        certifications[i] = Some(report);
                    } else {
                        let witnessed = report.witnessed;
                        certifications[i] = Some(report);
                        match winner_idx {
                            None => {
                                winner_idx = Some(i);
                                winner_witnessed = witnessed;
                                // First certified verdict: call the
                                // race, cancel everyone still running.
                                self.stop.store(true, Ordering::Relaxed);
                            }
                            Some(w) => {
                                let agree = matches!(
                                    (
                                        &outcomes[w].as_ref().expect("winner stored").outcome,
                                        &out.outcome
                                    ),
                                    (Verdict::Safe, Verdict::Safe)
                                        | (Verdict::Unsafe(_), Verdict::Unsafe(_))
                                );
                                if !agree {
                                    if witnessed && !winner_witnessed {
                                        // Trust the certifying side: an
                                        // uncertified winner yields to a
                                        // contradicting checked witness.
                                        winner_idx = Some(i);
                                        winner_witnessed = true;
                                    } else {
                                        disagreement = true;
                                    }
                                }
                            }
                        }
                    }
                }
                outcomes[i] = Some(out);
            }
        });

        let mut stats = EngineStats::default();
        let mut engines = Vec::with_capacity(self.engines.len());
        for (((name, _), out), cert) in self.engines.iter().zip(outcomes).zip(certifications) {
            let out = out.expect("every portfolio worker reports");
            stats += &out.stats;
            engines.push(EngineReport {
                name,
                outcome: out,
                winner: false,
                certify: cert,
            });
        }

        let verdict = match winner_idx {
            Some(w) => {
                engines[w].winner = true;
                stats.depth = engines[w].outcome.stats.depth;
                engines[w].outcome.outcome.clone()
            }
            None => {
                stats.depth = engines
                    .iter()
                    .map(|e| e.outcome.stats.depth)
                    .max()
                    .unwrap_or(0);
                Verdict::Unknown(merge_unknowns(&engines))
            }
        };
        stats.time = started.elapsed();
        PortfolioOutcome {
            verdict,
            stats,
            winner: winner_idx.map(|w| engines[w].name),
            certified: winner_witnessed,
            certificate: winner_idx.and_then(|w| engines[w].outcome.certificate.clone()),
            engines,
            disagreement,
            preproc: blasted.preproc_stats,
            invariant_clauses: blasted.strengthening().len() as u32,
            invariant_constants: if admitted {
                blasted.invariant.constants.len() as u32
            } else {
                0
            },
            paranoid: self.paranoid,
        }
    }
}

/// Picks the most informative `Unknown` reason when no member answered.
/// Priority: a withdrawn certificate (someone *claimed* an answer that
/// failed its check — the loudest alarm), then a crashed seat, then
/// timeout, bound reached, conflict limit, inherent incompleteness, and
/// finally "someone cancelled us" (which should not be the whole story
/// of an un-won race).
fn merge_unknowns(engines: &[EngineReport]) -> Unknown {
    fn rank(u: &Unknown) -> u8 {
        match u {
            Unknown::CertificateFailed(_) => 6,
            Unknown::Crashed(_) => 5,
            Unknown::Timeout => 4,
            Unknown::BoundReached => 3,
            Unknown::ConflictLimit => 2,
            Unknown::Inconclusive(_) => 1,
            Unknown::Cancelled => 0,
        }
    }
    engines
        .iter()
        .filter_map(|e| match &e.outcome.outcome {
            Verdict::Unknown(u) => Some(u),
            _ => None,
        })
        .max_by_key(|u| rank(u))
        .cloned()
        .unwrap_or(Unknown::Cancelled)
}

impl Checker for Portfolio {
    fn name(&self) -> &'static str {
        "portfolio"
    }

    fn check(&self, ts: &TransitionSystem) -> CheckOutcome {
        let d = self.check_detailed(ts);
        CheckOutcome {
            outcome: d.verdict,
            stats: d.stats,
            certificate: d.certificate,
        }
    }

    /// A portfolio nested inside a larger race forwards the shared
    /// blast to its own members rather than re-blasting.
    fn check_blasted(&self, ts: &TransitionSystem, blasted: &Blasted) -> CheckOutcome {
        let d = self.check_detailed_blasted(ts, blasted);
        CheckOutcome {
            outcome: d.verdict,
            stats: d.stats,
            certificate: d.certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    fn unlimited(max_depth: u32) -> Budget {
        Budget {
            timeout: None,
            max_depth,
            ..Budget::default()
        }
    }

    #[test]
    fn lineup_follows_the_core_count() {
        let b = Budget::default();
        for seats in 0..=6 {
            let expected: &[&str] = match seats {
                0..=2 => &["abc-pdr", "bmc"],
                3 => &["abc-pdr", "bmc", "abc-itp"],
                _ => &["abc-pdr", "bmc", "abc-itp", "abc-kind"],
            };
            let members = Portfolio::with_engines(b.clone(), seats).members();
            assert_eq!(members, expected, "{seats} seats");
        }
        assert_eq!(
            Portfolio::with_default_engines(b.clone()).members(),
            Portfolio::with_engines(b, aig::split::cores()).members()
        );
    }

    #[test]
    fn portfolio_finds_bmc_winnable_bug() {
        // A counter bug at depth 6: pure reachability, the racing
        // provers cannot answer faster than the bug hunters.
        let ts = crate::bmc::tests::counter_ts(6, 8);
        let report = Portfolio::with_engines(Budget::default(), 4).check_detailed(&ts);
        match &report.verdict {
            Verdict::Unsafe(trace) => {
                assert_eq!(trace.length(), 6, "bug at documented depth");
                let sys = aig::blast_system(&ts);
                assert!(trace.replays_on(&sys), "winning trace must replay");
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
        assert!(report.winner.is_some());
        assert!(!report.disagreement);
        assert_eq!(report.engines.len(), 4);
    }

    #[test]
    fn portfolio_proves_trap_where_plain_kind_diverges() {
        // The unreachable-loop design: k-induction *without* the
        // simple-path strengthening never converges on the bare
        // template (it hits its bound with counterexamples-to-induction
        // of every length), while PDR and interpolation prove it
        // directly. The portfolio must return Safe and the diverging
        // member must not be the winner. An *unstrengthened* blast pins
        // the divergence — see the companion test for what the mined
        // static invariant changes.
        let ts = crate::kind::tests::trap_ts();
        let sys = aig::blast_system(&ts);
        let pre = aig::TransitionTemplate::compile(&sys).preprocess();
        let blasted = Blasted {
            sys: Arc::new(sys),
            template: Arc::new(pre.template),
            preproc_stats: pre.stats,
            invariant: Arc::new(aig::StaticInvariant::default()),
            invariant_certified: true,
        };
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(KInduction {
            budget: Budget {
                max_depth: 30,
                ..b.clone()
            },
            simple_path: false,
        });
        p.push(Interpolation::new(b.clone()));
        p.push(Pdr::new(b));
        let report = p.check_detailed_blasted(&ts, &blasted);
        assert_eq!(report.verdict, Verdict::Safe);
        let w = report.winner.expect("someone wins");
        assert_ne!(w, "abc-kind", "diverging k-induction must not win");
        assert!(!report.disagreement);
        assert_eq!(report.invariant_clauses, 0, "unstrengthened blast");
    }

    #[test]
    fn static_invariant_rescues_plain_kind_on_trap() {
        // Same design, default (strengthened) blast: the mined
        // invariant pins the unreachable-loop states away, so even
        // k-induction without simple-path converges — the portfolio
        // result stays Safe, certified, with the strengthening counts
        // surfaced on the outcome.
        let ts = crate::kind::tests::trap_ts();
        let blasted = Blasted::of(&ts).certified();
        assert!(blasted.invariant_certified);
        assert!(
            !blasted.invariant.clauses.is_empty(),
            "trap_ts has minable unreachable-state facts"
        );
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(KInduction {
            budget: Budget { max_depth: 30, ..b },
            simple_path: false,
        });
        let report = p.check_detailed_blasted(&ts, &blasted);
        assert_eq!(report.verdict, Verdict::Safe);
        assert!(report.certified, "strengthened proof must still certify");
        assert!(report.invariant_clauses > 0);
        assert!(report.summary().contains("static invariant"));
    }

    /// A checker that never answers until it is interrupted: a
    /// deterministic stand-in for a diverging engine, used to pin down
    /// cancellation behaviour without SAT-solver timing noise.
    struct Grinder {
        budget: Budget,
    }

    impl Checker for Grinder {
        fn name(&self) -> &'static str {
            "grinder"
        }
        fn check(&self, _ts: &TransitionSystem) -> CheckOutcome {
            let started = Instant::now();
            loop {
                if let Some(u) = self.budget.interruption(started) {
                    return CheckOutcome::finish(
                        Verdict::Unknown(u),
                        EngineStats::default(),
                        started,
                    );
                }
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn losers_are_cancelled_when_winner_finishes() {
        // BMC finds the depth-2 bug almost instantly; the grinder would
        // spin forever (its budget has no timeout). Only cooperative
        // cancellation can end the run — and must do so quickly.
        let ts = crate::bmc::tests::counter_ts(2, 8);
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Bmc::new(b.clone()));
        p.push(Grinder { budget: b });
        let t0 = Instant::now();
        let report = p.check_detailed(&ts);
        assert!(report.verdict.is_unsafe());
        assert_eq!(report.winner, Some("bmc"));
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "losers must be cancelled, not awaited"
        );
        let grinder = report
            .engines
            .iter()
            .find(|e| e.name == "grinder")
            .expect("grinder reported");
        assert_eq!(
            grinder.outcome.outcome,
            Verdict::Unknown(Unknown::Cancelled),
            "loser must report cancellation, not timeout"
        );
    }

    #[test]
    fn cancelled_sat_engine_stops_within_one_check_interval() {
        // An engine whose budget's stop flag is already raised must
        // give up on its first check without doing real solver work.
        let ts = crate::kind::tests::trap_ts();
        let stop = Arc::new(AtomicBool::new(true));
        let budget = unlimited(4000).with_stop(stop);
        for out in [
            Bmc::new(budget.clone()).check(&ts),
            KInduction::new(budget.clone()).check(&ts),
            Interpolation::new(budget.clone()).check(&ts),
            Pdr::new(budget.clone()).check(&ts),
        ] {
            assert_eq!(out.outcome, Verdict::Unknown(Unknown::Cancelled));
            assert!(
                out.stats.conflicts <= 1,
                "a pre-cancelled engine must not accumulate conflicts: {:?}",
                out.stats
            );
        }
    }

    #[test]
    fn external_stop_flag_cancels_whole_portfolio() {
        // A stop flag supplied on the portfolio's own budget must end
        // the race from outside: the grinder never answers and has no
        // timeout, so only the forwarded external raise can stop it.
        let ts = crate::bmc::tests::counter_ts(2, 8);
        let outer = Arc::new(AtomicBool::new(false));
        let mut p = Portfolio::new(unlimited(4000).with_stop(outer.clone()));
        let b = p.engine_budget();
        p.push(Grinder { budget: b });
        let flag = outer.clone();
        let raiser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, Ordering::Relaxed);
        });
        let t0 = Instant::now();
        let report = p.check_detailed(&ts);
        raiser.join().unwrap();
        assert_eq!(report.verdict, Verdict::Unknown(Unknown::Cancelled));
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "external cancellation must end the race"
        );
    }

    /// A member that records when the portfolio offered it the shared
    /// blast.
    struct BlastProbe {
        offered: Arc<Mutex<Option<Instant>>>,
    }

    impl Checker for BlastProbe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn check(&self, _ts: &TransitionSystem) -> CheckOutcome {
            CheckOutcome {
                outcome: Verdict::Unknown(Unknown::Inconclusive("probe".into())),
                stats: EngineStats::default(),
                certificate: None,
            }
        }
        fn check_blasted(&self, ts: &TransitionSystem, _blasted: &Blasted) -> CheckOutcome {
            *self.offered.lock().expect("probe lock") = Some(Instant::now());
            self.check(ts)
        }
    }

    /// One `blast_system` call per portfolio run: the dispatching
    /// thread blasts once (thread-local counter), and every member is
    /// handed the shared blast through `check_blasted`.
    #[test]
    fn portfolio_blasts_once_and_shares_it() {
        let ts = crate::bmc::tests::counter_ts(2, 8);
        let offered = Arc::new(Mutex::new(None));
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Bmc::new(b));
        p.push(BlastProbe {
            offered: offered.clone(),
        });
        let before = aig::seq::blast_count();
        let report = p.check_detailed(&ts);
        assert_eq!(
            aig::seq::blast_count() - before,
            1,
            "exactly one blast on the dispatching thread"
        );
        assert!(report.verdict.is_unsafe());
        assert!(
            offered.lock().expect("probe lock").is_some(),
            "members must be offered the shared blast"
        );
    }

    /// The reported time of `check_detailed` covers the shared blast:
    /// it is at least the time from the call to the moment a member
    /// starts. Blasting and mining beside a 16-bit multiply-accumulator
    /// takes milliseconds, far longer than the probe's race.
    #[test]
    fn reported_time_covers_the_shared_blast() {
        let ts = crate::cone_tests::deep_bug(20, true);
        let offered = Arc::new(Mutex::new(None));
        let mut p = Portfolio::new(unlimited(4000));
        p.push(BlastProbe {
            offered: offered.clone(),
        });
        let called = Instant::now();
        let report = p.check_detailed(&ts);
        let member_started = offered.lock().expect("probe lock").expect("probe ran");
        assert!(
            report.stats.time >= member_started - called,
            "reported {:?}, but the member started {:?} after the call",
            report.stats.time,
            member_started - called
        );
    }

    /// Every bit-level member reuses a pre-blasted system: handed a
    /// `Blasted`, none of them calls `blast_system` again (checked with
    /// the per-thread blast counter, engines run on this thread).
    #[test]
    fn engines_reuse_shared_blast_without_reblasting() {
        let ts = crate::bmc::tests::counter_ts(2, 8);
        let blasted = Blasted::of(&ts);
        let budget = unlimited(4000);
        let before = aig::seq::blast_count();
        let outs = [
            Bmc::new(budget.clone()).check_blasted(&ts, &blasted),
            KInduction::new(budget.clone()).check_blasted(&ts, &blasted),
            Interpolation::new(budget.clone()).check_blasted(&ts, &blasted),
            Pdr::new(budget.clone()).check_blasted(&ts, &blasted),
        ];
        assert_eq!(
            aig::seq::blast_count(),
            before,
            "a shared blast must never be re-blasted"
        );
        for out in outs {
            assert!(out.outcome.is_unsafe(), "got {:?}", out.outcome);
        }
    }

    #[test]
    fn empty_portfolio_is_inconclusive() {
        let ts = crate::bmc::tests::counter_ts(1, 4);
        let report = Portfolio::new(Budget::default()).check_detailed(&ts);
        assert!(matches!(
            report.verdict,
            Verdict::Unknown(Unknown::Inconclusive(_))
        ));
        assert!(report.winner.is_none());
    }

    #[test]
    fn merge_prefers_informative_reasons() {
        let mk = |u: Unknown| EngineReport {
            name: "x",
            outcome: CheckOutcome {
                outcome: Verdict::Unknown(u),
                stats: EngineStats::default(),
                certificate: None,
            },
            winner: false,
            certify: None,
        };
        assert_eq!(
            merge_unknowns(&[mk(Unknown::Cancelled), mk(Unknown::Timeout)]),
            Unknown::Timeout
        );
        assert_eq!(
            merge_unknowns(&[mk(Unknown::Cancelled), mk(Unknown::BoundReached)]),
            Unknown::BoundReached
        );
        assert_eq!(
            merge_unknowns(&[mk(Unknown::Cancelled), mk(Unknown::Cancelled)]),
            Unknown::Cancelled
        );
        assert_eq!(
            merge_unknowns(&[
                mk(Unknown::Timeout),
                mk(Unknown::Crashed("x".into())),
                mk(Unknown::CertificateFailed("why".into())),
            ]),
            Unknown::CertificateFailed("why".into())
        );
    }

    #[test]
    fn portfolio_agrees_with_best_single_engine() {
        // Same-verdict check on designs with known ground truth: the
        // portfolio answer must match what a lone engine derives.
        let bug = crate::bmc::tests::counter_ts(3, 8);
        let p = Portfolio::with_engines(Budget::default(), 4);
        let solo = Bmc::new(Budget::default()).check(&bug);
        let port = p.check(&bug);
        match (&solo.outcome, &port.outcome) {
            (Verdict::Unsafe(a), Verdict::Unsafe(b)) => {
                assert_eq!(a.length(), b.length());
            }
            other => panic!("expected matching Unsafe verdicts, got {other:?}"),
        }

        let safe = crate::kind::tests::trap_ts();
        let p = Portfolio::with_engines(Budget::default(), 4);
        assert_eq!(p.check(&safe).outcome, Verdict::Safe);
    }

    #[test]
    fn outcome_stats_sum_every_counter_over_the_members() {
        // An input-driven bug: whichever seat wins, its model has to
        // decide input values, so the decision counter cannot be zero.
        use rtlir::Sort;
        let mut ts = TransitionSystem::new("acc");
        let i = ts.add_input("in", Sort::Bv(4));
        let s = ts.add_state("acc", Sort::Bv(4));
        let p = ts.pool_mut();
        let (iv, sv) = (p.var(i), p.var(s));
        let next = p.add(sv, iv);
        let (zero, ten) = (p.constv(4, 0), p.constv(4, 10));
        let bad = p.ugt(sv, ten);
        ts.set_init(s, zero);
        ts.set_next(s, next);
        ts.add_bad(bad, "acc > 10");
        let report = Portfolio::with_engines(Budget::default(), 4).check_detailed(&ts);
        assert!(report.verdict.is_unsafe());
        type Counter = fn(&EngineStats) -> u64;
        let counters: [(&str, Counter); 14] = [
            ("sat_queries", |s| s.sat_queries),
            ("conflicts", |s| s.conflicts),
            ("decisions", |s| s.decisions),
            ("propagations", |s| s.propagations),
            ("reduces", |s| s.reduces),
            ("deleted", |s| s.deleted),
            ("arena_bytes", |s| s.arena_bytes),
            ("arena_peak_bytes", |s| s.arena_peak_bytes),
            ("act_recycled", |s| s.act_recycled),
            ("proof_bytes", |s| s.proof_bytes),
            ("proof_chains", |s| s.proof_chains),
            ("ternary_drops", |s| s.ternary_drops),
            ("lifted_lits", |s| s.lifted_lits),
            ("preds_reused", |s| s.preds_reused),
        ];
        for (name, get) in counters {
            let members: u64 = report.engines.iter().map(|e| get(&e.outcome.stats)).sum();
            assert_eq!(get(&report.stats), members, "{name}");
        }
        assert!(report.stats.decisions > 0, "the run must make decisions");
    }

    #[test]
    fn winner_certificate_is_checked_and_exposed() {
        // A safe design through all four engines: the winner's
        // witness must survive the independent re-check and surface on
        // the portfolio outcome.
        let ts = crate::kind::tests::trap_ts();
        let report = Portfolio::with_engines(Budget::default(), 4).check_detailed(&ts);
        assert_eq!(report.verdict, Verdict::Safe);
        assert!(
            report.certified,
            "winning Safe must carry a checked witness"
        );
        assert!(report.certificate.is_some());
        let w = report.engines.iter().find(|e| e.winner).expect("winner");
        let cert = w.certify.as_ref().expect("winner was certified");
        assert!(cert.ok && cert.witnessed);
    }

    /// The race admits the strengthening before its seats start and
    /// checks each witness relative to it. PDR's certificate on the
    /// 16-bit shadow pair carries all 128 mined clauses; re-admitting
    /// them would cost two obligations per clause, so a winner's check
    /// below one per clause shows they were admitted up front.
    #[test]
    fn race_admits_the_strengthening_before_its_seats_start() {
        let ts = crate::certify::tests::shadow_pair_of(16);
        let report = Portfolio::with_engines(Budget::default(), 2).check_detailed(&ts);
        assert_eq!(report.verdict, Verdict::Safe, "{}", report.summary());
        assert!(report.certified);
        assert_eq!(report.winner, Some("abc-pdr"));
        let clauses = report.invariant_clauses as usize;
        assert!(clauses >= 128, "{clauses} mined clauses");
        let w = report.engines.iter().find(|e| e.winner).expect("winner");
        let cert = w.certify.as_ref().expect("winner was certified");
        assert!(cert.ok && cert.witnessed);
        assert!(
            cert.obligations < clauses,
            "the winner's check paid {} obligations for {clauses} clauses",
            cert.obligations
        );
    }

    /// The race proves the strengthening once, before its seats start,
    /// and hands it to them only when the proof passed. A caller-built
    /// blast whose strengthening adds a non-inductive clause and claims
    /// to be proven fails that admission: no seat asserts the set, so
    /// no witness names the forged clause or fails on it, and the pair,
    /// which is safe, can only be answered with a certified Safe.
    #[test]
    fn forged_strengthening_fails_the_admission_and_reaches_no_seat() {
        let ts = crate::certify::tests::shadow_pair();
        let honest = Blasted::of(&ts);
        let forged_clause = crate::certify::tests::forged_clause(&honest.sys);
        let mut invariant = (*honest.invariant).clone();
        invariant.clauses.push(forged_clause.clone());
        let forged = Blasted {
            invariant: Arc::new(invariant),
            invariant_certified: true,
            ..honest
        };
        let mut p = Portfolio::new(Budget {
            max_depth: 30,
            ..Budget::default()
        });
        let b = p.engine_budget();
        p.push(Pdr::new(b.clone()));
        p.push(KInduction::new(b.clone()));
        p.push(Interpolation::new(b));
        let report = p.check_detailed_blasted(&ts, &forged);
        assert_eq!(report.invariant_clauses, 0, "{}", report.summary());
        for e in &report.engines {
            if let Some(why) = e.certify.as_ref().and_then(|c| c.failure.as_ref()) {
                assert!(!why.starts_with("invariant "), "{}: {why}", e.name);
            }
            let named: &[crate::certify::LatchClause] = match &e.outcome.certificate {
                Some(Certificate::Clausal(inv)) => &inv.clauses,
                Some(Certificate::Formula(inv)) => &inv.invariant,
                Some(Certificate::KInductive { invariant, .. }) => invariant,
                None => &[],
            };
            assert!(!named.contains(&forged_clause), "{}", e.name);
        }
        if !matches!(report.verdict, Verdict::Unknown(_)) {
            assert_eq!(report.verdict, Verdict::Safe, "{}", report.summary());
            assert!(report.certified, "{}", report.summary());
        }
    }

    /// The admission runs under the race's budget: a caller's stop flag
    /// raised before the call, or a zero timeout, interrupts it before
    /// it proves any of the 16-bit shadow pair's mined clauses, and the
    /// seats race without them.
    #[test]
    fn interrupted_admission_admits_nothing() {
        let ts = crate::certify::tests::shadow_pair_of(16);
        let blasted = Blasted::of(&ts);
        assert!(blasted.invariant.clauses.len() >= 128);
        let stopped = Budget::default().with_stop(Arc::new(AtomicBool::new(true)));
        let expired = Budget {
            timeout: Some(Duration::ZERO),
            ..Budget::default()
        };
        for (leg, budget) in [("stop flag", stopped), ("zero timeout", expired)] {
            let report = Portfolio::with_engines(budget, 2).check_detailed_blasted(&ts, &blasted);
            assert!(
                matches!(report.verdict, Verdict::Unknown(_)),
                "{leg}: {}",
                report.summary()
            );
            assert_eq!(report.invariant_clauses, 0, "{leg}");
        }
    }

    /// A seat that panics mid-check: the portfolio must isolate the
    /// unwind, report the seat as crashed, and still win the race with
    /// a healthy member.
    struct PanicSeat;

    impl Checker for PanicSeat {
        fn name(&self) -> &'static str {
            "panic-seat"
        }
        fn check(&self, _ts: &TransitionSystem) -> CheckOutcome {
            panic!("injected seat failure");
        }
    }

    #[test]
    fn panicking_seat_degrades_to_crashed_and_race_continues() {
        let ts = crate::bmc::tests::counter_ts(2, 8);
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(PanicSeat);
        p.push(Bmc::new(b));
        let report = p.check_detailed(&ts);
        assert!(report.verdict.is_unsafe());
        assert_eq!(report.winner, Some("bmc"));
        assert!(report.certified, "bug trace must replay");
        assert!(!report.disagreement);
        let crashed = report
            .engines
            .iter()
            .find(|e| e.name == "panic-seat")
            .expect("crashed seat reported");
        assert_eq!(
            crashed.outcome.outcome,
            Verdict::Unknown(Unknown::Crashed("panic-seat".into())),
            "panic must surface as a crash, not kill the portfolio"
        );
    }

    /// A seat that lies: claims a verdict it cannot witness correctly.
    struct Liar {
        verdict: Verdict,
        certificate: Option<Certificate>,
    }

    impl Checker for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn check(&self, _ts: &TransitionSystem) -> CheckOutcome {
            let mut out =
                CheckOutcome::finish(self.verdict.clone(), EngineStats::default(), Instant::now());
            out.certificate = self.certificate.clone();
            out
        }
    }

    #[test]
    fn lying_safe_seat_is_demoted_and_real_engine_prevails() {
        // The design is unsafe; the liar instantly claims Safe with a
        // trivial "true" invariant. The check rejects it (safety
        // obligation fails), the claim is demoted, and BMC's real
        // counterexample wins — with no disagreement alarm, because a
        // withdrawn verdict is not a verdict.
        let ts = crate::bmc::tests::counter_ts(2, 8);
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Liar {
            verdict: Verdict::Safe,
            certificate: Some(Certificate::Clausal(crate::certify::ClausalInvariant {
                clauses: Vec::new(),
            })),
        });
        p.push(Bmc::new(b));
        let report = p.check_detailed(&ts);
        assert!(report.verdict.is_unsafe(), "got {:?}", report.verdict);
        assert_eq!(report.winner, Some("bmc"));
        assert!(report.certified);
        assert!(
            !report.disagreement,
            "a demoted claim must not raise the alarm"
        );
        let liar = report.engines.iter().find(|e| e.name == "liar").unwrap();
        assert!(matches!(
            liar.outcome.outcome,
            Verdict::Unknown(Unknown::CertificateFailed(_))
        ));
        assert!(
            liar.certify.as_ref().is_some_and(|c| !c.ok),
            "failed check must be recorded on the seat"
        );
    }

    #[test]
    fn paranoid_portfolio_certifies_with_replayed_proofs() {
        // Same safe design as the plain certification test, but with
        // the paranoid knob on: the winner must still certify, the
        // obligation solvers' resolution proofs must have been
        // replayed, and the summary must surface the proof line.
        let ts = crate::kind::tests::trap_ts();
        let report = Portfolio::with_engines(Budget::default(), 4)
            .with_paranoid(true)
            .check_detailed(&ts);
        assert_eq!(report.verdict, Verdict::Safe);
        assert!(report.certified, "paranoid pass must still certify");
        let w = report.engines.iter().find(|e| e.winner).expect("winner");
        let cert = w.certify.as_ref().expect("winner was certified");
        assert!(cert.ok && cert.witnessed);
        assert!(
            report.summary().contains("paranoid"),
            "summary must report the proof replay:\n{}",
            report.summary()
        );
    }

    /// A trace that fires the bad only by breaking an `assume` is no
    /// counterexample: one latch `seen <= seen | kick` under `assume
    /// !kick`, bad when `seen` is set, is safe.
    #[test]
    fn trace_breaking_an_assume_is_demoted() {
        use rtlir::Sort;
        let mut ts = TransitionSystem::new("assumed-quiet");
        let kick = ts.add_input("kick", Sort::BOOL);
        let seen = ts.add_state("seen", Sort::BOOL);
        let p = ts.pool_mut();
        let (kv, sv) = (p.var(kick), p.var(seen));
        let next = p.or(sv, kv);
        let quiet = p.not(kv);
        let off = p.constv(1, 0);
        ts.set_init(seen, off);
        ts.set_next(seen, next);
        ts.add_constraint(quiet);
        ts.add_bad(sv, "seen");
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Liar {
            verdict: Verdict::Unsafe(crate::result::Trace {
                states: vec![vec![false], vec![true]],
                inputs: vec![vec![true], vec![false]],
                bad_index: 0,
            }),
            certificate: None,
        });
        p.push(Pdr::new(b));
        let report = p.check_detailed(&ts);
        assert_eq!(report.verdict, Verdict::Safe, "{}", report.summary());
        assert!(report.certified);
        let liar = report.engines.iter().find(|e| e.name == "liar").unwrap();
        assert!(matches!(
            liar.outcome.outcome,
            Verdict::Unknown(Unknown::CertificateFailed(_))
        ));
    }

    /// A trace whose state vectors are narrower than the netlist is
    /// demoted like any other bad witness instead of crashing the
    /// dispatcher.
    #[test]
    fn malformed_trace_is_demoted_not_a_crash() {
        let ts = crate::bmc::tests::counter_ts(6, 8);
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Liar {
            verdict: Verdict::Unsafe(crate::result::Trace {
                states: vec![vec![]],
                inputs: vec![vec![]],
                bad_index: 0,
            }),
            certificate: None,
        });
        p.push(Bmc::new(b));
        let report = p.check_detailed(&ts);
        assert!(report.verdict.is_unsafe(), "got {:?}", report.verdict);
        assert_eq!(report.winner, Some("bmc"));
        assert!(report.certified);
        let liar = report.engines.iter().find(|e| e.name == "liar").unwrap();
        assert!(matches!(
            liar.outcome.outcome,
            Verdict::Unknown(Unknown::CertificateFailed(_))
        ));
    }

    /// A formula certificate whose root lies outside its AIG is
    /// demoted like any other bad witness instead of crashing the
    /// dispatcher.
    #[test]
    fn malformed_formula_is_demoted_not_a_crash() {
        let ts = crate::bmc::tests::counter_ts(6, 8);
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Liar {
            verdict: Verdict::Safe,
            certificate: Some(Certificate::Formula(crate::certify::FormulaInvariant {
                aig: aig::Aig::new(),
                root: aig::AigLit::from_code(2000),
                invariant: Vec::new(),
            })),
        });
        p.push(Bmc::new(b));
        let report = p.check_detailed(&ts);
        assert!(report.verdict.is_unsafe(), "got {:?}", report.verdict);
        assert_eq!(report.winner, Some("bmc"));
        assert!(report.certified);
        let liar = report.engines.iter().find(|e| e.name == "liar").unwrap();
        assert!(matches!(
            liar.outcome.outcome,
            Verdict::Unknown(Unknown::CertificateFailed(_))
        ));
    }

    #[test]
    fn lying_unsafe_seat_is_demoted_on_safe_design() {
        // The design is safe; the liar claims a bug with a garbage
        // trace. Replay rejects it and the provers' Safe wins.
        let ts = crate::kind::tests::trap_ts();
        let mut p = Portfolio::new(unlimited(4000));
        let b = p.engine_budget();
        p.push(Liar {
            verdict: Verdict::Unsafe(crate::result::Trace {
                states: vec![vec![true, true, true]],
                inputs: vec![vec![]],
                bad_index: 0,
            }),
            certificate: None,
        });
        p.push(Pdr::new(b));
        let report = p.check_detailed(&ts);
        assert_eq!(report.verdict, Verdict::Safe);
        assert_eq!(report.winner, Some("abc-pdr"));
        assert!(report.certified);
        assert!(!report.disagreement);
        let liar = report.engines.iter().find(|e| e.name == "liar").unwrap();
        assert!(matches!(
            liar.outcome.outcome,
            Verdict::Unknown(Unknown::CertificateFailed(_))
        ));
    }
}
