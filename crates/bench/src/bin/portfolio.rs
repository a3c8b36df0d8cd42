//! Portfolio mode of the benchmark runner: races BMC, k-induction,
//! interpolation, PDR **and a seated software analyzer**
//! (CPAChecker-style predicate abstraction over the v2c path) with
//! cooperative cancellation on each benchmark and prints the winner
//! plus the per-engine breakdown — the paper's "hybrid" configuration
//! as one tool.
//!
//! Usage: `portfolio [--timeout SECS] [benchmark]`
//!
//! Exits nonzero when nothing was solved (or the filter matched no
//! benchmark), with code 2 on an engine disagreement, and with code 3
//! when a seat's witness failed its check or a seat crashed, so CI
//! smoke runs fail on more than just panics.

use engines::Verdict;

fn main() {
    let (timeout, benchmarks) = bench::parse_args(15);
    if benchmarks.is_empty() {
        eprintln!("no benchmark matched the filter");
        std::process::exit(1);
    }
    println!("== Portfolio (hybrid) mode, timeout {timeout}s ==");
    println!(
        "{:<14}{:>10}{:>12}{:>10}{:>10}{:>12}{:>12}",
        "benchmark", "verdict", "winner", "time", "depth", "queries", "conflicts"
    );
    let mut solved = 0usize;
    let mut disagreed = false;
    let mut faulted = false;
    for b in &benchmarks {
        let ts = match b.compile() {
            Ok(ts) => ts,
            Err(e) => {
                println!("{:<14}{:>10}   compile error: {e}", b.name, "ERR");
                continue;
            }
        };
        let p = bench::hybrid_portfolio(timeout);
        let report = p.check_detailed(&ts);
        let verdict = match &report.verdict {
            Verdict::Safe => "SAFE".to_string(),
            Verdict::Unsafe(t) => format!("bug@{}", t.length()),
            Verdict::Unknown(u) => format!("UNK({u})"),
        };
        if !matches!(report.verdict, Verdict::Unknown(_)) {
            solved += 1;
        }
        println!(
            "{:<14}{:>10}{:>12}{:>9.2}s{:>10}{:>12}{:>12}",
            b.name,
            verdict,
            report.winner.unwrap_or("-"),
            report.stats.time.as_secs_f64(),
            report.stats.depth,
            report.stats.sat_queries,
            report.stats.conflicts,
        );
        for e in &report.engines {
            println!(
                "{:<14}{:>10}{:>12}{:>9.2}s{:>10}{:>12}{:>12}",
                format!("  · {}", e.name),
                format!("{}", ClassLabel(&e.outcome.outcome)),
                if e.winner { "*" } else { "" },
                e.outcome.stats.time.as_secs_f64(),
                e.outcome.stats.depth,
                e.outcome.stats.sat_queries,
                e.outcome.stats.conflicts,
            );
            if let Verdict::Unknown(
                u @ (engines::Unknown::CertificateFailed(_) | engines::Unknown::Crashed(_)),
            ) = &e.outcome.outcome
            {
                println!("!! seat {} on {}: {u}", e.name, b.name);
                faulted = true;
            }
        }
        if report.disagreement {
            println!("!! engines disagreed on {} — soundness alarm", b.name);
            disagreed = true;
        }
    }
    println!("solved {solved}/{}", benchmarks.len());
    if disagreed {
        std::process::exit(2);
    }
    if faulted {
        std::process::exit(3);
    }
    if solved == 0 {
        std::process::exit(1);
    }
}

/// Compact verdict cell for the per-engine rows.
struct ClassLabel<'a>(&'a Verdict);

impl std::fmt::Display for ClassLabel<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Verdict::Safe => write!(f, "safe"),
            Verdict::Unsafe(t) => write!(f, "bug@{}", t.length()),
            Verdict::Unknown(u) => match u {
                engines::Unknown::Cancelled => write!(f, "cancel"),
                engines::Unknown::Timeout => write!(f, "t/o"),
                engines::Unknown::BoundReached => write!(f, "bound"),
                engines::Unknown::ConflictLimit => write!(f, "confl"),
                engines::Unknown::Inconclusive(_) => write!(f, "unk"),
                engines::Unknown::CertificateFailed(_) => write!(f, "cert✗"),
                engines::Unknown::Crashed(_) => write!(f, "crash"),
            },
        }
    }
}
