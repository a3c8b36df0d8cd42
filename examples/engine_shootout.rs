//! A miniature of the paper's Figures 3-5: every engine class on a
//! selection of benchmarks. (The full sweeps live in the `bench`
//! crate's fig3/fig4/fig5 binaries.)
//!
//! Run with: `cargo run --release --example engine_shootout`

use hwsw::engines::{
    itp::Interpolation, kind::KInduction, pdr::Pdr, portfolio::Portfolio, Blasted, Budget, Checker,
};
use hwsw::swan::Analyzer;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let budget = Budget {
        timeout: Some(Duration::from_secs(5)),
        max_depth: 4000,
        ..Budget::default()
    };
    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>12}{:>16}",
        "benchmark", "kind", "itp", "pdr", "2ls-kiki", "hybrid(winner)"
    );
    for name in ["Vending", "Dekker", "FIFOs", "DAIO"] {
        let b = hwsw::bmarks::by_name(name).expect("exists");
        let ts = b.compile()?;
        let prog = hwsw::v2c::SwProgram::from_ts(ts.clone());
        // One blast + one compiled transition template per design,
        // shared by every bit-level engine and the portfolio, with the
        // inductive part of its mined strengthening admitted for the
        // solo engines.
        let blasted = Blasted::of(&ts).certified();
        let r1 = KInduction::new(budget.clone()).check_blasted(&ts, &blasted);
        let r2 = Interpolation::new(budget.clone()).check_blasted(&ts, &blasted);
        let r3 = Pdr::new(budget.clone()).check_blasted(&ts, &blasted);
        let r4 = hwsw::swan::twols::TwoLs::new(budget.clone()).check(&prog);
        // The default hybrid configuration: one hardware engine per
        // core races (PDR and BMC first, never fewer), the first
        // definite verdict wins and cancels the rest.
        let hybrid =
            Portfolio::with_default_engines(budget.clone()).check_detailed_blasted(&ts, &blasted);
        let s = |o: &hwsw::engines::Verdict| match o {
            hwsw::engines::Verdict::Safe => "safe".to_string(),
            hwsw::engines::Verdict::Unsafe(t) => format!("bug@{}", t.length()),
            hwsw::engines::Verdict::Unknown(_) => "t/o".to_string(),
        };
        println!(
            "{:<14}{:>12}{:>12}{:>12}{:>12}{:>16}",
            name,
            s(&r1.outcome),
            s(&r2.outcome),
            s(&r3.outcome),
            s(&r4.outcome),
            format!("{} ({})", s(&hybrid.verdict), hybrid.winner.unwrap_or("-")),
        );
    }
    Ok(())
}
