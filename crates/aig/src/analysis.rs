//! Netlist abstract interpretation: candidate latch invariants.
//!
//! The cheapest software-analysis technique the DATE 2016 paper's
//! premise points at — abstract interpretation over a static fixpoint —
//! applied directly to the bit-level netlist. The pass produces a
//! [`StaticInvariant`]: a set of candidate clauses over latch variables,
//! cheap enough to compute up front, whose inductive part is strong
//! enough to prune work from every SAT engine that consumes the netlist
//! afterwards. The pass issues no SAT query: `engines::certify`'s
//! admission keeps the greatest inductive subset of the candidates and
//! is its proof.
//!
//! # Domains
//!
//! Two abstract domains feed the candidate pool:
//!
//! 1. **Ternary reachability** ([`TernarySim`]): starting from the
//!    X-initialized reset state (uninitialized latches and all primary
//!    inputs held at X), the latch state vector is stepped through the
//!    three-valued transition function and *joined* with its
//!    predecessor until a fixpoint. Values only ever move definite → X,
//!    so the fixpoint arrives within `L` rounds. Latches still definite
//!    at the fixpoint are **stuck-at-constant** in every reachable
//!    state — a sound fact, found without a single SAT call.
//! 2. **Random concrete simulation**: a deterministic xorshift-seeded
//!    walk (several restarts from random concretizations of the reset
//!    state, random inputs) collects per-latch value signatures.
//!    Latches with equal / complementary / implied signatures yield
//!    candidate equivalence, antivalence and implication clauses;
//!    constant signatures yield candidate stuck-at facts the ternary
//!    domain was too coarse to see. These are *guesses*, not facts.
//!
//! # Candidates
//!
//! A candidate enters the pool only if it passes a syntactic
//! **initiation** filter (a clause holds in every initial state iff one
//! of its literals is pinned true by a reset value); the pool is
//! deduplicated and capped at [`AnalysisConfig::max_candidates`]. Of the
//! capped pool, [`analyze`] keeps the clauses whose latches all lie in
//! the template's cone of influence ([`TransitionTemplate::latch_coi`]).
//! On the cone-cut image the engines solve, a latch outside the cone
//! has a free next state, so a clause naming one would rest on nothing
//! the engines see.
//!
//! # Soundness
//!
//! The candidates are advisory: no engine asserts them before an
//! admission has kept their inductive subset against the raw,
//! un-preprocessed template with independent solvers, once per check
//! (a portfolio race's, or `engines::Blasted::certified`'s for a solo
//! caller), so a bug here can cost strength but never soundness. A
//! caller's stop flag, raised before the call, returns an **empty**
//! invariant with [`AnalysisStats::cancelled`] set.
//!
//! [`refine_with_constants`] rebuilds the netlist the engines solve on:
//! every latch the bads and constraints cannot observe gets a free next
//! state — a cone-of-influence cut that only ever adds behaviours — and
//! the AIG is rebuilt cone-first. `engines::Blasted::of` cuts with no
//! constant, preprocesses the cut template, and runs [`analyze`] on
//! that image, the one the engines instantiate. Given certified
//! stuck-at facts, [`refine_with_constants`] also substitutes the
//! constants into every cone (folding logic away) and strips the
//! constraints that fold to `true`. Such a system is only sound for
//! engines that assert the invariant on every frame they instantiate
//! and read counterexample states off the original netlist by
//! simulation, which is exactly the contract `engines::Blasted` sets.

use crate::graph::{Aig, AigLit};
use crate::seq::{AigSystem, Latch};
use crate::sim::{Tern, TernarySim};
use crate::template::TransitionTemplate;

/// A clause over latches: `(latch index, polarity)` literals, true when
/// some latch holds its polarity. Mirrors `engines::certify`'s clausal
/// certificate shape.
pub type LatchClause = Vec<(usize, bool)>;

/// Tuning knobs for [`analyze`].
#[derive(Clone, Debug)]
pub struct AnalysisConfig {
    /// Cap on the number of candidate clauses mined.
    pub max_candidates: usize,
    /// Concrete-simulation restarts used for candidate mining.
    pub sim_restarts: usize,
    /// Steps per concrete-simulation restart.
    pub sim_steps: usize,
    /// Latch-count ceiling for the pairwise implication scan (the
    /// equivalence scan sorts signatures and has no such ceiling).
    pub max_implication_latches: usize,
    /// Seed for the deterministic simulation PRNG.
    pub seed: u64,
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            max_candidates: 512,
            sim_restarts: 8,
            sim_steps: 48,
            max_implication_latches: 96,
            seed: 0x5EED_1A7C,
        }
    }
}

/// Counters of one [`analyze`] run, and of the admission that proves
/// its result.
#[derive(Clone, Debug, Default)]
pub struct AnalysisStats {
    /// Ternary-reachability rounds until the fixpoint.
    pub ternary_rounds: u32,
    /// Latches proven stuck-at-constant by the ternary fixpoint alone.
    pub ternary_constants: u32,
    /// Candidate clauses mined (after the initiation filter and cap).
    pub mined: u32,
    /// Clauses the invariant holds: the mined candidates inside the
    /// template's cone after [`analyze`], the clauses it kept after an
    /// admission.
    pub retained: u32,
    /// SAT queries spent on the invariant: none by [`analyze`], the
    /// obligations the admission that proved it discharged after one.
    pub sat_queries: u64,
    /// Whether the run was cut short: a stop flag raised before
    /// [`analyze`], or a limit that interrupted the admission. A
    /// cancelled run reports an empty invariant.
    pub cancelled: bool,
}

/// Mined latch clauses: candidates from [`analyze`], or the inductive
/// subset of them an admission kept.
///
/// Every clause holds in the initial states and names only latches in
/// the cone of the template it was mined for. After [`analyze`] the
/// clauses are guesses; no engine asserts them before an admission has
/// proven the subset it keeps against the raw template (see
/// `engines::Blasted`). `constants` is the view of the singleton clauses
/// as stuck-at facts, which [`refine_with_constants`] can fold into a
/// netlist; `engines::Blasted::of` folds none, and engines assert a
/// singleton clause like every other.
#[derive(Clone, Debug, Default)]
pub struct StaticInvariant {
    /// The invariant: a conjunction of latch clauses.
    pub clauses: Vec<LatchClause>,
    /// Stuck-at-constant latches (singleton clauses of `clauses`).
    pub constants: Vec<(usize, bool)>,
    /// How the invariant was found.
    pub stats: AnalysisStats,
}

impl StaticInvariant {
    /// The invariant of `clauses`, with its constants read off them and
    /// [`AnalysisStats::retained`] set to their count.
    pub fn new(clauses: Vec<LatchClause>, stats: AnalysisStats) -> StaticInvariant {
        let constants = clauses
            .iter()
            .filter(|c| c.len() == 1)
            .map(|c| c[0])
            .collect();
        StaticInvariant {
            stats: AnalysisStats {
                retained: clauses.len() as u32,
                ..stats
            },
            clauses,
            constants,
        }
    }

    /// Whether the invariant carries no information.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }
}

/// Deterministic xorshift64 PRNG: the production-side stand-in for the
/// (test-only) `rand` stub, so the simulation schedule is reproducible
/// from [`AnalysisConfig::seed`] alone.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Three-valued join: definite values agreeing stay definite,
/// everything else widens to X.
fn join(a: Tern, b: Tern) -> Tern {
    if a == b {
        a
    } else {
        Tern::X
    }
}

/// Ternary-reachability fixpoint from the X-initialized reset state.
/// Returns the per-latch fixpoint values and the round count.
fn ternary_fixpoint(sys: &AigSystem, sim: &mut TernarySim) -> (Vec<Tern>, u32) {
    let mut state: Vec<Tern> = sys
        .latches
        .iter()
        .map(|l| l.init.map_or(Tern::X, Tern::from_bool))
        .collect();
    let mut rounds = 0u32;
    loop {
        rounds += 1;
        sim.eval(sys, &state, &[]);
        let mut changed = false;
        let next: Vec<Tern> = sys
            .latches
            .iter()
            .zip(&state)
            .map(|(l, &cur)| {
                let widened = join(cur, sim.value(l.next));
                changed |= widened != cur;
                widened
            })
            .collect();
        state = next;
        if !changed {
            return (state, rounds);
        }
    }
}

/// Per-latch value signatures from deterministic random simulation:
/// bit `t` of `sigs[i]` word `t / 64` is latch `i`'s value in the
/// `t`-th visited state.
fn simulate_signatures(sys: &AigSystem, cfg: &AnalysisConfig) -> (Vec<Vec<u64>>, usize) {
    let n = sys.latches.len();
    let total = cfg.sim_restarts * (cfg.sim_steps + 1);
    let words = total.div_ceil(64);
    let mut sigs = vec![vec![0u64; words]; n];
    let mut rng = XorShift::new(cfg.seed);
    let mut t = 0usize;
    for _ in 0..cfg.sim_restarts {
        let mut state: Vec<bool> = sys
            .latches
            .iter()
            .map(|l| l.init.unwrap_or_else(|| rng.next_bool()))
            .collect();
        for step in 0..=cfg.sim_steps {
            for (i, &v) in state.iter().enumerate() {
                if v {
                    sigs[i][t / 64] |= 1u64 << (t % 64);
                }
            }
            t += 1;
            if step < cfg.sim_steps {
                let inputs: Vec<bool> = (0..sys.inputs.len()).map(|_| rng.next_bool()).collect();
                state = sys.step(&state, &inputs);
            }
        }
    }
    (sigs, total)
}

/// Whether a latch clause holds in **every** initial state: some
/// literal must be pinned true by a reset value (an uninitialized latch
/// is free to take either value at reset).
fn holds_at_init(sys: &AigSystem, clause: &LatchClause) -> bool {
    clause.iter().any(|&(i, v)| sys.latches[i].init == Some(v))
}

/// Mines candidate clauses from the ternary fixpoint and the simulation
/// signatures, initiation-filtered, deduplicated and capped.
fn mine_candidates(
    sys: &AigSystem,
    fix: &[Tern],
    sigs: &[Vec<u64>],
    total_states: usize,
    cfg: &AnalysisConfig,
) -> Vec<LatchClause> {
    let n = sys.latches.len();
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<LatchClause> = Vec::new();
    let mut push = |clause: LatchClause, out: &mut Vec<LatchClause>| {
        if out.len() < cfg.max_candidates
            && holds_at_init(sys, &clause)
            && seen.insert(clause.clone())
        {
            out.push(clause);
        }
    };

    // Stuck-at facts from the ternary fixpoint (sound already, but fed
    // through the admission like everything else: the constant subset
    // is self-supporting there, so it survives unharmed).
    for (i, &t) in fix.iter().enumerate() {
        if let Some(v) = t.known() {
            push(vec![(i, v)], &mut out);
        }
    }

    // Constant signatures the ternary domain missed.
    let all_ones_mask = |w: usize| -> u64 {
        let used = total_states - w * 64;
        if used >= 64 {
            u64::MAX
        } else {
            (1u64 << used) - 1
        }
    };
    for i in 0..n {
        if fix[i].known().is_some() {
            continue;
        }
        let always_true = sigs[i]
            .iter()
            .enumerate()
            .all(|(w, &s)| s == all_ones_mask(w));
        let always_false = sigs[i].iter().all(|&s| s == 0);
        if always_true {
            push(vec![(i, true)], &mut out);
        } else if always_false {
            push(vec![(i, false)], &mut out);
        }
    }

    // Equivalences and antivalences: group by (normalized) signature.
    // Each group contributes a chain of pairwise candidates.
    let mut keyed: Vec<(Vec<u64>, bool, usize)> = (0..n)
        .map(|i| {
            // Normalize so complementary signatures collide: flip when
            // the first state bit is set.
            let flip = sigs[i].first().is_some_and(|&w| w & 1 == 1);
            let key: Vec<u64> = if flip {
                sigs[i]
                    .iter()
                    .enumerate()
                    .map(|(w, &s)| !s & all_ones_mask(w))
                    .collect()
            } else {
                sigs[i].clone()
            };
            (key, flip, i)
        })
        .collect();
    keyed.sort();
    for pair in keyed.windows(2) {
        let (ka, fa, a) = (&pair[0].0, pair[0].1, pair[0].2);
        let (kb, fb, b) = (&pair[1].0, pair[1].1, pair[1].2);
        if ka != kb {
            continue;
        }
        if fa == fb {
            // a ≡ b: (¬a ∨ b) ∧ (a ∨ ¬b).
            push(vec![(a, false), (b, true)], &mut out);
            push(vec![(a, true), (b, false)], &mut out);
        } else {
            // a ≡ ¬b: (a ∨ b) ∧ (¬a ∨ ¬b).
            push(vec![(a, true), (b, true)], &mut out);
            push(vec![(a, false), (b, false)], &mut out);
        }
    }

    // Implications (a → b as ¬a ∨ b), pairwise-scanned only on small
    // designs — the scan is quadratic in the latch count.
    if n <= cfg.max_implication_latches {
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let implies = sigs[a].iter().zip(&sigs[b]).all(|(&sa, &sb)| sa & !sb == 0);
                let nontrivial = sigs[a].iter().any(|&s| s != 0)
                    && sigs[b]
                        .iter()
                        .enumerate()
                        .any(|(w, &s)| s != all_ones_mask(w));
                if implies && nontrivial {
                    push(vec![(a, false), (b, true)], &mut out);
                }
            }
        }
    }
    out
}

/// Runs the static analysis: ternary fixpoint, candidate mining, and
/// the cone filter of `tpl` ([`TransitionTemplate::latch_coi`]). Issues
/// no SAT query.
///
/// Of `limits`, only the stop flag is read: raised before the call, it
/// returns an empty, cancelled invariant.
pub fn analyze(
    sys: &AigSystem,
    tpl: &TransitionTemplate,
    cfg: &AnalysisConfig,
    limits: &satb::Limits,
) -> StaticInvariant {
    let mut stats = AnalysisStats::default();
    if limits.stop_requested() {
        stats.cancelled = true;
        return StaticInvariant::new(Vec::new(), stats);
    }
    let mut sim = TernarySim::new(sys);
    let (fix, rounds) = ternary_fixpoint(sys, &mut sim);
    stats.ternary_rounds = rounds;
    stats.ternary_constants = fix.iter().filter(|t| t.known().is_some()).count() as u32;

    let (sigs, total_states) = simulate_signatures(sys, cfg);
    let candidates = mine_candidates(sys, &fix, &sigs, total_states, cfg);
    stats.mined = candidates.len() as u32;
    let coi = tpl.latch_coi();
    let clauses = candidates
        .into_iter()
        .filter(|c| c.iter().all(|&(i, _)| coi[i]))
        .collect();
    StaticInvariant::new(clauses, stats)
}

/// Rebuilds `sys` into the netlist the engines solve on: certified
/// stuck-at-constant latches substituted into every cone, then cut to
/// the property's sequential cone of influence.
///
/// * Every CI keeps its ordinal (the blaster's input/latch ordering is
///   load-bearing for traces and frame variables), and every latch
///   keeps its plain-CI `output` — only *references* to a constant
///   latch inside next/constraint/bad cones become the constant.
/// * AND nodes are rebuilt cone-first through the strashed builder, so
///   logic the constants fold away — and nodes outside any cone of
///   interest — vanish, and the surviving nodes are renumbered
///   compactly.
/// * Constraints folding to `true` are stripped (they are implied by
///   the invariant the engines assert anyway); constraints folding to
///   `false` are kept, preserving vacuous-safety semantics. Bad cones
///   are kept positionally even when they fold, so trace bad-indices
///   stay valid.
/// * After the substitution, every latch outside the cone of influence
///   of the bads and constraints ([`AigSystem::latch_coi`] of the
///   rebuilt graph, constant latches included) gets a **free** next
///   state: a fresh CI, appended after the original ordinals, that is
///   neither an input nor a latch output. Its logic is dropped, and
///   [`TransitionTemplate::compile`] turns the CI into an unconstrained
///   variable per frame.
///
/// On states satisfying the constant facts, the result has every
/// transition of `sys` and then some: the cone latches, bads and
/// constraints step exactly as in `sys`, the freed latches take any
/// value. Consumers must therefore assert the invariant on every frame
/// they instantiate, and read counterexample states off `sys` by
/// simulation, never off a model of the result.
pub fn refine_with_constants(sys: &AigSystem, constants: &[(usize, bool)]) -> AigSystem {
    let mut const_of_ci: Vec<Option<bool>> = vec![None; sys.aig.num_cis()];
    for &(latch, v) in constants {
        if let Some(ci) = sys.aig.ci_index(sys.latches[latch].output) {
            const_of_ci[ci] = Some(v);
        }
    }
    let substituted = rebuild(sys, &const_of_ci, &vec![true; sys.latches.len()]);
    let coi = substituted.latch_coi();
    if coi.iter().all(|&c| c) {
        return substituted;
    }
    rebuild(&substituted, &vec![None; sys.aig.num_cis()], &coi)
}

/// Copies the cones of `sys` into a fresh AIG, CIs first in ordinal
/// order: CI `c` becomes the constant `const_of_ci[c]` wherever that is
/// set, latch `i` keeps its next-state cone when `keep_next[i]` and gets
/// a fresh, free CI otherwise.
fn rebuild(sys: &AigSystem, const_of_ci: &[Option<bool>], keep_next: &[bool]) -> AigSystem {
    let mut aig = Aig::new();
    let new_ci: Vec<AigLit> = (0..sys.aig.num_cis()).map(|_| aig.new_ci()).collect();
    let ci_of = |l: AigLit| new_ci[sys.aig.ci_index(l).expect("inputs and latches are CIs")];
    let mut map: Vec<AigLit> = vec![AigLit::FALSE; sys.aig.num_nodes()];
    for (ci, old) in sys.aig.ci_lits().into_iter().enumerate() {
        map[old.node() as usize] = const_of_ci[ci].map_or(new_ci[ci], AigLit::constant);
    }
    let remap = |map: &[AigLit], l: AigLit| {
        let base = map[l.node() as usize];
        if l.is_compl() {
            !base
        } else {
            base
        }
    };

    // Map the cones of interest node-by-node in topological order.
    let mut roots: Vec<AigLit> = sys
        .latches
        .iter()
        .zip(keep_next)
        .filter(|&(_, &keep)| keep)
        .map(|(l, _)| l.next)
        .collect();
    roots.extend(&sys.constraints);
    roots.extend(&sys.bads);
    for node in sys.aig.cone(&roots) {
        let (a, b) = sys.aig.and_fanins_of_node(node).expect("cone yields ANDs");
        map[node as usize] = aig.and(remap(&map, a), remap(&map, b));
    }

    let latches: Vec<Latch> = sys
        .latches
        .iter()
        .zip(keep_next)
        .map(|(l, &keep)| Latch {
            output: ci_of(l.output),
            next: if keep {
                remap(&map, l.next)
            } else {
                aig.new_ci()
            },
            init: l.init,
            name: l.name.clone(),
        })
        .collect();
    AigSystem {
        inputs: sys.inputs.iter().map(|&l| ci_of(l)).collect(),
        input_names: sys.input_names.clone(),
        latches,
        constraints: sys
            .constraints
            .iter()
            .map(|&c| remap(&map, c))
            .filter(|&c| c != AigLit::TRUE)
            .collect(),
        bads: sys.bads.iter().map(|&b| remap(&map, b)).collect(),
        bad_names: sys.bad_names.clone(),
        name: sys.name.clone(),
        aig,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::Latch;
    use crate::Aig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A hand-rolled system: latch 0 stuck at 0 (self-loop from reset
    /// 0), latch 1 free-running on an input, latch 2 mirroring latch 1
    /// one cycle behind... except both reset to 0 and share the input,
    /// so 1 ≡ 2 never holds; instead latch 3 duplicates latch 1
    /// exactly (same next function, same reset).
    fn shaped_system() -> AigSystem {
        let mut aig = Aig::new();
        let inp = aig.new_ci();
        let l0 = aig.new_ci();
        let l1 = aig.new_ci();
        let l3 = aig.new_ci();
        let n1 = aig.xor(l1, inp);
        let n3 = aig.xor(l3, inp);
        let bad = aig.and(l0, l1);
        AigSystem {
            aig,
            inputs: vec![inp],
            input_names: vec!["i".into()],
            latches: vec![
                Latch {
                    output: l0,
                    next: l0,
                    init: Some(false),
                    name: "stuck".into(),
                },
                Latch {
                    output: l1,
                    next: n1,
                    init: Some(false),
                    name: "a".into(),
                },
                Latch {
                    output: l3,
                    next: n3,
                    init: Some(false),
                    name: "b".into(),
                },
            ],
            constraints: vec![],
            bads: vec![bad],
            bad_names: vec!["bad".into()],
            name: "shaped".into(),
        }
    }

    #[test]
    fn finds_stuck_latch_and_equivalence() {
        // With a bad that also reads b, all three latches are in the
        // cone: the stuck latch and both directions of a ≡ b are mined.
        let mut sys = shaped_system();
        let [l1, l3] = [1, 2].map(|i| sys.latches[i].output);
        let both = sys.aig.and(l1, l3);
        sys.bads = vec![sys.aig.or(sys.bads[0], both)];
        let tpl = TransitionTemplate::compile(&sys);
        let inv = analyze(
            &sys,
            &tpl,
            &AnalysisConfig::default(),
            &satb::Limits::default(),
        );
        assert!(!inv.stats.cancelled);
        assert_eq!(inv.stats.sat_queries, 0, "mining issues no SAT query");
        assert!(
            inv.constants.contains(&(0, false)),
            "latch 0 is stuck at 0: {inv:?}"
        );
        let a_is_b = [vec![(1, false), (2, true)], vec![(1, true), (2, false)]];
        assert!(
            a_is_b.iter().all(|c| inv.clauses.contains(c)),
            "a ≡ b must be mined: {:?}",
            inv.clauses
        );
        assert_eq!(inv.stats.retained as usize, inv.clauses.len());
        assert_eq!(inv.stats.mined as usize, inv.clauses.len());

        // Bad = l0 & l1 leaves b outside the cone: the same candidates
        // are mined, and every clause naming b is left out.
        let sys = shaped_system();
        let tpl = TransitionTemplate::compile(&sys);
        let cut = analyze(
            &sys,
            &tpl,
            &AnalysisConfig::default(),
            &satb::Limits::default(),
        );
        assert_eq!(cut.stats.mined, inv.stats.mined);
        assert!(cut.constants.contains(&(0, false)), "{cut:?}");
        let inside: Vec<LatchClause> = inv
            .clauses
            .iter()
            .filter(|c| c.iter().all(|&(i, _)| i != 2))
            .cloned()
            .collect();
        assert!(inside.len() < inv.clauses.len());
        assert_eq!(cut.clauses, inside);
    }

    #[test]
    fn ternary_fixpoint_is_sound_on_shift_register() {
        // Reset-0 shift register fed by constant 0: everything stuck.
        let mut aig = Aig::new();
        let l0 = aig.new_ci();
        let l1 = aig.new_ci();
        let sys = AigSystem {
            aig,
            inputs: vec![],
            input_names: vec![],
            latches: vec![
                Latch {
                    output: l0,
                    next: crate::graph::AigLit::FALSE,
                    init: Some(false),
                    name: "s0".into(),
                },
                Latch {
                    output: l1,
                    next: l0,
                    init: Some(false),
                    name: "s1".into(),
                },
            ],
            constraints: vec![],
            bads: vec![l1],
            bad_names: vec!["b".into()],
            name: "shift".into(),
        };
        let mut sim = TernarySim::new(&sys);
        let (fix, _) = ternary_fixpoint(&sys, &mut sim);
        assert_eq!(fix, vec![Tern::F, Tern::F]);
    }

    #[test]
    fn cancelled_analysis_returns_clean_empty_invariant() {
        let sys = shaped_system();
        let tpl = TransitionTemplate::compile(&sys);
        let stop = Arc::new(AtomicBool::new(true));
        let limits = satb::Limits {
            stop: Some(stop.clone()),
            ..satb::Limits::default()
        };
        let inv = analyze(&sys, &tpl, &AnalysisConfig::default(), &limits);
        assert!(inv.stats.cancelled);
        assert!(inv.is_empty() && inv.constants.is_empty());
        stop.store(false, Ordering::Relaxed);
    }

    /// Whether latch `i`'s next state is a free CI: neither an input nor
    /// a latch output.
    fn is_freed(sys: &AigSystem, i: usize) -> bool {
        let next = sys.latches[i].next;
        sys.aig.ci_index(next).is_some()
            && !sys.inputs.contains(&next)
            && sys.latches.iter().all(|l| l.output != next)
    }

    /// Runs `sys` and `refined` in lockstep from reset under random
    /// inputs and checks that the latches in `refined`'s cone of
    /// influence and the bad outputs agree on every step. Returns how
    /// many latches were checked.
    fn lockstep_on_cone(sys: &AigSystem, refined: &AigSystem) -> usize {
        let coi = refined.latch_coi();
        let mut state = sys.initial_state();
        let mut rng = XorShift::new(7);
        for _ in 0..64 {
            let inputs: Vec<bool> = sys.inputs.iter().map(|_| rng.next_bool()).collect();
            assert_eq!(
                sys.bads_in(&state, &inputs),
                refined.bads_in(&state, &inputs)
            );
            let a = sys.step(&state, &inputs);
            let b = refined.step(&state, &inputs);
            for i in (0..a.len()).filter(|&i| coi[i]) {
                assert_eq!(a[i], b[i], "cone latch {i} diverges on an invariant state");
            }
            state = a;
        }
        coi.iter().filter(|&&c| c).count()
    }

    #[test]
    fn refinement_preserves_ci_ordinals_and_strips_folded_constraints() {
        let sys = shaped_system();
        let refined = refine_with_constants(&sys, &[(0, false)]);
        for (a, b) in sys.latches.iter().zip(&refined.latches) {
            assert_eq!(
                sys.aig.ci_index(a.output),
                refined.aig.ci_index(b.output),
                "latch CI ordinals must be preserved"
            );
        }
        // The bad cone and(l0, l1) folds to FALSE under l0 = 0, so no
        // latch is observable any more: every one is freed, each with a
        // fresh CI appended after the original ordinals.
        assert_eq!(refined.bads[0], AigLit::FALSE);
        assert_eq!(refined.aig.num_cis(), sys.aig.num_cis() + sys.latches.len());
        assert!((0..sys.latches.len()).all(|i| is_freed(&refined, i)));
        assert_eq!(lockstep_on_cone(&sys, &refined), 0);
    }

    #[test]
    fn cone_cut_frees_exactly_the_unobserved_latches() {
        // Without constants, bad = l0 & l1 reads latches 0 and 1 (each
        // feeding itself); latch 2 is outside the cone.
        let sys = shaped_system();
        assert_eq!(sys.latch_coi(), vec![true, true, false]);
        let refined = refine_with_constants(&sys, &[]);
        assert_eq!(refined.aig.num_cis(), sys.aig.num_cis() + 1);
        assert!(!is_freed(&refined, 0) && !is_freed(&refined, 1));
        assert!(is_freed(&refined, 2));
        assert_eq!(lockstep_on_cone(&sys, &refined), 2);
        // Nothing outside the cone is left in the netlist: l3's xor is
        // gone.
        assert_eq!(refined.aig.num_ands(), sys.aig.num_ands() - 3);
    }

    #[test]
    fn constants_fold_before_the_cut_and_cone_latches_keep_their_step() {
        // bad = (l0 & l3) | l1 reads every latch, but under the
        // certified l0 = 0 it reads l1 alone: l0 and l3 are freed, l1
        // keeps its next state and steps as in the netlist.
        let mut sys = shaped_system();
        let [l0, l1, l3] = [0, 1, 2].map(|i| sys.latches[i].output);
        let gated = sys.aig.and(l0, l3);
        sys.bads = vec![sys.aig.or(gated, l1)];
        assert_eq!(sys.latch_coi(), vec![true, true, true]);
        let refined = refine_with_constants(&sys, &[(0, false)]);
        assert_eq!(refined.bads[0], refined.latches[1].output);
        assert!(is_freed(&refined, 0) && is_freed(&refined, 2));
        assert!(!is_freed(&refined, 1));
        assert_eq!(lockstep_on_cone(&sys, &refined), 1);
    }
}
