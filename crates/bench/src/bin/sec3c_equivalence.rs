//! Regenerates the paper's §III-C translation-validation evidence:
//! on unsafe benchmarks the bug manifests in the same clock cycle for
//! the hardware model and the software-netlist; on (easy) safe
//! benchmarks the property is k-inductive with the same k on both.
//!
//! The `equal` column reads `NO` when the two models disagree: a
//! different verdict, bug cycle or inductive k. A row where one side
//! gave no answer (`-`) cannot disagree and reads `yes`. The bin exits
//! 1 if any row reads `NO`.
//!
//! Usage: `sec3c_equivalence [--timeout SECS]`

use engines::{CheckOutcome, Checker, Verdict};
use swan::Analyzer;

fn main() {
    let (timeout, benchmarks) = bench::parse_args(20);
    let b = bench::budget(timeout);
    println!("== Section III-C: Verilog vs software-netlist equivalence ==");
    println!(
        "{:<14}{:>10}{:>16}{:>16}{:>10}",
        "benchmark", "expected", "hw k / cycle", "sw k / cycle", "equal"
    );
    let mut disagreements = 0;
    for bm in &benchmarks {
        let ts = bm.compile().expect("compiles");
        let prog = v2c::SwProgram::from_ts(ts.clone());
        let hw = engines::kind::KInduction::new(b.clone()).check(&ts);
        let sw = swan::cbmc::CbmcKind::new(b.clone()).check(&prog);
        let fmt = |o: &CheckOutcome| match &o.outcome {
            Verdict::Safe => format!("k={}", o.stats.depth),
            Verdict::Unsafe(t) => format!("cycle={}", t.length()),
            Verdict::Unknown(_) => "-".to_string(),
        };
        let disagree = disagree(&hw, &sw);
        disagreements += usize::from(disagree);
        println!(
            "{:<14}{:>10}{:>16}{:>16}{:>10}",
            bm.name,
            format!("{:?}", bm.expected),
            fmt(&hw),
            fmt(&sw),
            if disagree { "NO" } else { "yes" }
        );
    }
    if disagreements > 0 {
        eprintln!("{disagreements} row(s) where the two models disagree");
        std::process::exit(1);
    }
}

/// Whether the hardware and software outcomes contradict each other.
/// Unsafe answers must agree on the manifestation cycle and Safe ones
/// on the inductive k; a Safe answer against an Unsafe one is a
/// disagreement. An Unknown side is not comparable under this budget:
/// bit-level k-induction adds simple-path constraints and CBMC does
/// not, so CBMC-kind runs out of time where only simple paths prove
/// the property.
fn disagree(hw: &CheckOutcome, sw: &CheckOutcome) -> bool {
    match (&hw.outcome, &sw.outcome) {
        (Verdict::Unknown(_), _) | (_, Verdict::Unknown(_)) => false,
        (Verdict::Unsafe(a), Verdict::Unsafe(c)) => a.length() != c.length(),
        (Verdict::Safe, Verdict::Safe) => hw.stats.depth != sw.stats.depth,
        (Verdict::Safe, Verdict::Unsafe(_)) | (Verdict::Unsafe(_), Verdict::Safe) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engines::{EngineStats, Trace, Unknown};
    use std::time::Instant;

    fn outcome(v: Verdict, depth: u32) -> CheckOutcome {
        let stats = EngineStats {
            depth,
            ..EngineStats::default()
        };
        CheckOutcome::finish(v, stats, Instant::now())
    }

    fn bug_at(cycle: usize) -> CheckOutcome {
        let trace = Trace {
            states: vec![Vec::new(); cycle + 1],
            inputs: vec![Vec::new(); cycle + 1],
            bad_index: 0,
        };
        outcome(Verdict::Unsafe(trace), cycle as u32)
    }

    fn safe_at(k: u32) -> CheckOutcome {
        outcome(Verdict::Safe, k)
    }

    #[test]
    fn safe_against_unsafe_is_a_disagreement() {
        assert!(disagree(&safe_at(1), &bug_at(1)));
        assert!(disagree(&bug_at(1), &safe_at(1)));
    }

    #[test]
    fn rows_compare_cycles_and_k_and_skip_unknown_sides() {
        assert!(!disagree(&bug_at(64), &bug_at(64)));
        assert!(disagree(&bug_at(64), &bug_at(63)));
        assert!(!disagree(&safe_at(1), &safe_at(1)));
        assert!(disagree(&safe_at(1), &safe_at(2)));
        let unknown = outcome(Verdict::Unknown(Unknown::Timeout), 15);
        assert!(!disagree(&unknown, &safe_at(1)));
        assert!(!disagree(&bug_at(3), &unknown));
    }
}
