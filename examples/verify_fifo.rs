//! The paper's headline comparison on one hard benchmark: the FIFO
//! controller is not k-inductive, so k-induction engines diverge while
//! PDR proves it — and the hybrid portfolio answers as fast as its
//! best member by racing them with cooperative cancellation.
//!
//! Run with: `cargo run --release --example verify_fifo`

use hwsw::engines::{kind::KInduction, pdr::Pdr, portfolio::Portfolio, Blasted, Budget, Checker};
use hwsw::swan::Analyzer;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let b = hwsw::bmarks::by_name("FIFOs").expect("benchmark exists");
    let ts = b.compile()?;
    let prog = hwsw::v2c::SwProgram::from_ts(ts.clone());
    let budget = Budget {
        timeout: Some(Duration::from_secs(5)),
        max_depth: 4000,
        ..Budget::default()
    };

    // Blast the netlist and compile its CNF transition template once;
    // every bit-level engine below instantiates the same template. The
    // solo engines assert only what an admission proved of the mined
    // strengthening; the portfolio admits it again itself.
    let blasted = Blasted::of(&ts).certified();

    let kind = KInduction::new(budget.clone()).check_blasted(&ts, &blasted);
    println!(
        "ABC-style k-induction : {} (k reached {})",
        kind.outcome, kind.stats.depth
    );

    let pdr = Pdr::new(budget.clone()).check_blasted(&ts, &blasted);
    println!(
        "ABC-style PDR         : {} ({} frames, {} SAT queries)",
        pdr.outcome, pdr.stats.depth, pdr.stats.sat_queries
    );

    let kiki = hwsw::swan::twols::TwoLs::new(budget.clone()).check(&prog);
    println!("2LS-style kIkI        : {}", kiki.outcome);

    // The default configuration: one engine per core (PDR and BMC
    // first, never fewer) races over the shared blast, the first
    // definite verdict wins, the losers are cancelled mid-solve.
    let hybrid = Portfolio::with_default_engines(budget).check_detailed_blasted(&ts, &blasted);
    println!("hybrid portfolio      : {}", hybrid.summary().trim_end());
    Ok(())
}
