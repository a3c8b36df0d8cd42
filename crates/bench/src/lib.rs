//! Experiment harness: runs hardware engines and software analyzers on
//! the twelve benchmarks and classifies the results the way the
//! paper's Figures 3–5 do (solved-with-time, timeout, unknown, error,
//! wrong).
//!
//! The binaries `fig3_kinduction`, `fig4_interpolation`, `fig5_hybrid`
//! and `sec3c_equivalence` regenerate the corresponding figure/claim,
//! `portfolio` races the hybrid portfolio with all five seats, and
//! `gates` runs the correctness checks over the bundled designs (ground
//! truth, paranoid witness certification, fault injection, proof
//! replay). Timing is the end-to-end benchmark's job (`perfbench/`),
//! which races [`hybrid_portfolio`]: one seat per core, in the order
//! PDR, BMC, interpolation, k-induction and the software seat, and never
//! fewer than PDR beside BMC (see [`hybrid_seats`]).

#![forbid(unsafe_code)]

use bmarks::{Benchmark, Expected};
use engines::{Budget, CheckOutcome, Checker, Unknown, Verdict};
use std::time::Duration;
use swan::Analyzer;

/// How a run is classified, mirroring the paper's figure annotations.
#[derive(Clone, Debug, PartialEq)]
pub enum Classification {
    /// Correct verdict within budget; seconds taken.
    Solved(f64),
    /// Ran out of time (or bound) without an answer.
    Timeout,
    /// Inconclusive result (abstraction alarms, refinement failure).
    UnknownResult,
    /// Wrong verdict (e.g. a false negative from lossy abstraction).
    Wrong,
}

impl Classification {
    /// Short cell label for tables.
    pub fn label(&self) -> String {
        match self {
            Classification::Solved(t) => format!("{t:.2}s"),
            Classification::Timeout => "TO".to_string(),
            Classification::UnknownResult => "UNK".to_string(),
            Classification::Wrong => "WRONG".to_string(),
        }
    }
}

/// One engine entry of a figure: a named closure over a benchmark.
pub struct Tool {
    /// Display name (the paper's legend label).
    pub name: &'static str,
    /// Runs the tool on a compiled benchmark.
    pub run: Box<dyn Fn(&Benchmark) -> CheckOutcome>,
}

impl Tool {
    /// Wraps a hardware-level engine (operates on the transition
    /// system, like ABC/EBMC on the synthesized netlist).
    pub fn hw<C: Checker + 'static>(name: &'static str, checker: C) -> Tool {
        Tool {
            name,
            run: Box::new(move |b: &Benchmark| {
                let ts = b.compile().expect("benchmark compiles");
                checker.check(&ts)
            }),
        }
    }

    /// Wraps a software analyzer (operates on the v2c software-netlist).
    pub fn sw<A: Analyzer + 'static>(name: &'static str, analyzer: A) -> Tool {
        Tool {
            name,
            run: Box::new(move |b: &Benchmark| {
                let ts = b.compile().expect("benchmark compiles");
                let prog = v2c::SwProgram::from_ts(ts);
                analyzer.check(&prog)
            }),
        }
    }
}

/// Runs one tool on one benchmark and classifies the outcome against
/// the ground truth (replaying counterexample traces on the bit-level
/// model to tell real bugs from false negatives).
pub fn run_and_classify(tool: &Tool, b: &Benchmark) -> (Classification, CheckOutcome) {
    let out = (tool.run)(b);
    let secs = out.stats.time.as_secs_f64();
    let class = match (&out.outcome, b.expected) {
        (Verdict::Safe, Expected::Safe) => Classification::Solved(secs),
        (Verdict::Safe, Expected::Unsafe) => Classification::Wrong,
        (Verdict::Unsafe(trace), expected) => {
            let sys = aig::blast_system(&b.compile().expect("compiles"));
            let replays = trace.replays_on(&sys);
            match (replays, expected) {
                (true, Expected::Unsafe) => Classification::Solved(secs),
                (true, Expected::Safe) => {
                    // A replaying trace on a "safe" benchmark would mean
                    // our ground truth is wrong; flag loudly.
                    eprintln!(
                        "!! ground-truth violation: {} found a real cex on {}",
                        tool.name, b.name
                    );
                    Classification::Wrong
                }
                (false, _) => Classification::Wrong, // false negative
            }
        }
        (Verdict::Unknown(Unknown::Timeout), _) => Classification::Timeout,
        (Verdict::Unknown(Unknown::BoundReached), _) => Classification::Timeout,
        (Verdict::Unknown(Unknown::ConflictLimit), _) => Classification::Timeout,
        (Verdict::Unknown(Unknown::Cancelled), _) => Classification::UnknownResult,
        (Verdict::Unknown(Unknown::Inconclusive(_)), _) => Classification::UnknownResult,
        // A withdrawn certificate or a crashed seat is a tool failure,
        // not a solved instance: classify as unknown so the score table
        // shows the gap instead of papering over it.
        (Verdict::Unknown(Unknown::CertificateFailed(_)), _) => Classification::UnknownResult,
        (Verdict::Unknown(Unknown::Crashed(_)), _) => Classification::UnknownResult,
    };
    (class, out)
}

/// A budget scaled for the reproduction (seconds instead of the
/// paper's 5 hours; same role).
pub fn budget(timeout_secs: u64) -> Budget {
    Budget {
        timeout: Some(Duration::from_secs(timeout_secs)),
        max_depth: 4000,
        ..Budget::default()
    }
}

/// The paper's hybrid portfolio sized to `seats`: the hardware
/// line-up of [`Portfolio::with_engines`] (the first `seats.clamp(2, 4)`
/// of PDR, BMC, interpolation and k-induction), joined from 5 seats on
/// by a **software-analyzer seat** (CPAChecker-style predicate
/// abstraction over the v2c path), all racing under one
/// cooperative-cancellation flag.
///
/// [`Portfolio::with_engines`]: engines::portfolio::Portfolio::with_engines
pub fn hybrid_seats(timeout_secs: u64, seats: usize) -> engines::portfolio::Portfolio {
    let mut p = engines::portfolio::Portfolio::with_engines(budget(timeout_secs), seats);
    if seats >= 5 {
        let b = p.engine_budget();
        p.push(swan::SwSeat::new(swan::predabs::PredAbs::new(
            b,
            swan::predabs::RefineMode::Wp,
        )));
    }
    p
}

/// The hybrid portfolio with one seat per core of the host
/// ([`hybrid_seats`] at [`aig::split::cores`]): a 2-core host races PDR
/// beside BMC, and a host with 5 or more cores races all five seats.
/// Seats beyond the core count would only share cores with the seats
/// that answer; see the [portfolio's line-up](engines::portfolio#line-up)
/// for the order and the floor of 2.
pub fn hybrid_portfolio(timeout_secs: u64) -> engines::portfolio::Portfolio {
    hybrid_seats(timeout_secs, aig::split::cores())
}

/// The Figure 3 tool set: k-induction at bit level (ABC), word level
/// (EBMC) and software level (CBMC, 2LS-kind).
pub fn fig3_tools(timeout_secs: u64) -> Vec<Tool> {
    let b = budget(timeout_secs);
    vec![
        Tool::hw("ABC-kind", engines::kind::KInduction::new(b.clone())),
        Tool::hw("EBMC-kind", engines::word::WordKInduction::new(b.clone())),
        Tool::sw("CBMC-kind", swan::cbmc::CbmcKind::new(b.clone())),
        Tool::sw(
            "2LS-kind",
            swan::twols::TwoLs {
                budget: b,
                use_invariants: false,
                ..swan::twols::TwoLs::default()
            },
        ),
    ]
}

/// The Figure 4 tool set: interpolation at bit level (ABC) and
/// software level (CPAChecker interpolation, IMPARA).
pub fn fig4_tools(timeout_secs: u64) -> Vec<Tool> {
    let b = budget(timeout_secs);
    vec![
        Tool::hw("ABC-itp", engines::itp::Interpolation::new(b.clone())),
        Tool::sw(
            "CPA-itp",
            swan::predabs::PredAbs::new(b.clone(), swan::predabs::RefineMode::Interpolant),
        ),
        Tool::sw("IMPARA", swan::impact::Impact::new(b)),
    ]
}

/// The Figure 5 tool set: PDR at bit level (ABC) and software level
/// (SeaHorn), plus the hybrid techniques (CPA predicate abstraction,
/// 2LS kIkI).
pub fn fig5_tools(timeout_secs: u64) -> Vec<Tool> {
    let b = budget(timeout_secs);
    vec![
        Tool::hw("ABC-pdr", engines::pdr::Pdr::new(b.clone())),
        Tool::sw("SeaHorn-pdr", swan::seahorn::SeaHorn::new(b.clone())),
        Tool::sw(
            "CPA-predabs",
            swan::predabs::PredAbs::new(b.clone(), swan::predabs::RefineMode::Wp),
        ),
        Tool::sw("2LS-kiki", swan::twols::TwoLs::new(b)),
    ]
}

/// Runs a whole figure: every tool on every benchmark. Prints a table
/// and returns the classification matrix (benchmark-major).
pub fn run_figure(
    title: &str,
    tools: &[Tool],
    benchmarks: &[Benchmark],
) -> Vec<Vec<Classification>> {
    println!("== {title} ==");
    print!("{:<14}", "benchmark");
    for t in tools {
        print!("{:>14}", t.name);
    }
    println!();
    let mut matrix = Vec::new();
    for b in benchmarks {
        print!("{:<14}", b.name);
        let mut row = Vec::new();
        for t in tools {
            let (class, _) = run_and_classify(t, b);
            print!("{:>14}", class.label());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            row.push(class);
        }
        println!();
        matrix.push(row);
    }
    // Summary: solved per tool.
    print!("{:<14}", "solved");
    for ti in 0..tools.len() {
        let solved = matrix
            .iter()
            .filter(|row| matches!(row[ti], Classification::Solved(_)))
            .count();
        print!("{:>14}", format!("{solved}/{}", matrix.len()));
    }
    println!();
    matrix
}

/// Parses `--timeout N` and an optional benchmark-name filter from the
/// command line. Malformed arguments print the problem and exit with
/// code 1: a `--timeout` without a whole number of seconds, or a
/// filter that names no bundled benchmark (a typo must not turn a run
/// into one that checks nothing).
pub fn parse_args(default_timeout: u64) -> (u64, Vec<Benchmark>) {
    parse_arg_list(std::env::args().skip(1), default_timeout).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(1);
    })
}

/// [`parse_args`] over an explicit argument list (program name
/// excluded).
fn parse_arg_list(
    args: impl IntoIterator<Item = String>,
    default_timeout: u64,
) -> Result<(u64, Vec<Benchmark>), String> {
    let mut timeout = default_timeout;
    let mut filter: Option<String> = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--timeout" {
            let secs = args.next().ok_or("--timeout needs whole seconds")?;
            timeout = secs
                .parse()
                .map_err(|_| format!("--timeout needs whole seconds, got `{secs}`"))?;
        } else {
            filter = Some(arg);
        }
    }
    let benchmarks = match filter {
        Some(f) => vec![bmarks::by_name(&f).ok_or(format!("no bundled benchmark is named `{f}`"))?],
        None => bmarks::all(),
    };
    Ok((timeout, benchmarks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_sets_match_paper_legends() {
        assert_eq!(fig3_tools(1).len(), 4);
        assert_eq!(fig4_tools(1).len(), 3);
        assert_eq!(fig5_tools(1).len(), 4);
    }

    #[test]
    fn classification_labels() {
        assert_eq!(Classification::Timeout.label(), "TO");
        assert!(Classification::Solved(1.5).label().contains("1.50"));
    }

    fn parse(args: &[&str]) -> Result<(u64, Vec<Benchmark>), String> {
        parse_arg_list(args.iter().map(ToString::to_string), 6)
    }

    #[test]
    fn arguments_name_a_benchmark_or_fail() {
        let (timeout, all) = parse(&[]).expect("no arguments");
        assert_eq!((timeout, all.len()), (6, 12));
        let (timeout, one) = parse(&["--timeout", "9", "vending"]).expect("case-insensitive name");
        assert_eq!(timeout, 9);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].name, "Vending");
        let typo = parse(&["Vendng"]).expect_err("a misspelled name checks nothing");
        assert!(typo.contains("Vendng"), "{typo}");
        let secs = parse(&["--timeout", "abc"]).expect_err("non-numeric timeout");
        assert!(secs.contains("abc"), "{secs}");
        assert!(parse(&["--timeout"]).is_err(), "timeout without a value");
    }

    #[test]
    fn hybrid_lineup_follows_the_core_count() {
        for seats in 0..=6 {
            let expected: &[&str] = match seats {
                0..=2 => &["abc-pdr", "bmc"],
                3 => &["abc-pdr", "bmc", "abc-itp"],
                4 => &["abc-pdr", "bmc", "abc-itp", "abc-kind"],
                _ => &["abc-pdr", "bmc", "abc-itp", "abc-kind", "cpa-predabs"],
            };
            assert_eq!(hybrid_seats(1, seats).members(), expected, "{seats} seats");
        }
        assert_eq!(
            hybrid_portfolio(1).members(),
            hybrid_seats(1, aig::split::cores()).members()
        );
    }

    #[test]
    fn easy_benchmark_solved_by_pdr_quickly() {
        use engines::{itp::Interpolation, kind::KInduction, pdr::Pdr};
        // Figure cells no other test requires ride along: k-induction
        // proves Vending, interpolation proves Heap.
        for (design, tool) in [
            ("Vending", Tool::hw("ABC-pdr", Pdr::new(budget(30)))),
            ("Vending", Tool::hw("ABC-kind", KInduction::new(budget(30)))),
            ("Heap", Tool::hw("ABC-itp", Interpolation::new(budget(30)))),
        ] {
            let b = bmarks::by_name(design).expect("exists");
            let (class, _) = run_and_classify(&tool, &b);
            assert!(
                matches!(class, Classification::Solved(_)),
                "{design} must be easy for {}: {class:?}",
                tool.name
            );
        }
    }

    #[test]
    fn unsafe_benchmark_found_by_bmc_family() {
        let b = bmarks::by_name("traffic-light").expect("exists");
        let tool = Tool::hw("ABC-kind", engines::kind::KInduction::new(budget(60)));
        let (class, out) = run_and_classify(&tool, &b);
        assert!(
            matches!(class, Classification::Solved(_)),
            "traffic-light bug must be found: {class:?} ({:?})",
            out.outcome
        );
    }
}
