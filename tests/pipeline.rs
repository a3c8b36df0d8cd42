//! Cross-crate integration tests: the complete paper pipeline.

use hwsw::engines::{Budget, Checker, Verdict};
use hwsw::swan::Analyzer;
use std::time::Duration;

fn budget(secs: u64) -> Budget {
    Budget {
        timeout: Some(Duration::from_secs(secs)),
        max_depth: 4000,
        ..Budget::default()
    }
}

/// The portfolio (the paper's hybrid configuration), all four engines
/// seated, must answer every design its best member answers: bugs with
/// a replaying trace, proofs where k-induction diverges, with the
/// losers cancelled.
#[test]
fn portfolio_hybrid_matches_best_member() {
    use hwsw::engines::portfolio::Portfolio;

    // Unsafe: traffic-light has a documented bug cycle.
    let b = hwsw::bmarks::by_name("traffic-light").expect("exists");
    let expected = b.bug_cycle.expect("unsafe benchmark");
    let ts = b.compile().expect("compiles");
    let report = Portfolio::with_engines(budget(60), 4).check_detailed(&ts);
    match &report.verdict {
        Verdict::Unsafe(t) => assert_eq!(t.length() as u64, expected, "bug cycle"),
        other => panic!("portfolio must find the bug, got {other:?}"),
    }
    assert!(report.winner.is_some());
    assert!(!report.disagreement);

    // Safe and not k-inductive: the FIFO needs PDR; k-induction
    // diverges (pipeline test below pins that) yet must not block the
    // portfolio's answer.
    let b = hwsw::bmarks::by_name("FIFOs").expect("exists");
    let ts = b.compile().expect("compiles");
    let report = Portfolio::with_engines(budget(60), 4).check_detailed(&ts);
    assert_eq!(report.verdict, Verdict::Safe, "{}", report.summary());
    // Every loser is accounted for: definite, cancelled, or at a limit.
    assert_eq!(report.engines.len(), 4);
}

/// Verilog -> TS -> C -> parsed SwProgram -> verified, end to end.
#[test]
fn full_pipeline_on_counter() {
    let src = r#"
    module top(input clk, input en);
      reg [3:0] c;
      initial c = 0;
      always @(posedge clk) if (en && c < 9) c <= c + 1;
      assert property (c <= 9);
    endmodule
    "#;
    let ts = hwsw::vfront::compile(src, "top").expect("compiles");
    let mods = hwsw::vfront::parse(src).expect("parses");
    let design = hwsw::vfront::elaborate(&mods, "top").expect("elaborates");
    let c_text = hwsw::v2c::emit_c(&design, hwsw::v2c::MainStyle::Verifier).expect("emits");
    let prog = hwsw::cfront::parse_software_netlist(&c_text).expect("parses back");

    // Hardware path proves it.
    let hw = hwsw::engines::pdr::Pdr::new(budget(30)).check(&ts);
    assert_eq!(hw.outcome, Verdict::Safe);
    // Software path (through the C text!) proves it too.
    let sw = hwsw::swan::twols::TwoLs::new(budget(30)).check(&prog);
    assert_eq!(sw.outcome, Verdict::Safe);
}

/// Unsafe benchmarks: every engine family finds the planted bug at the
/// documented cycle (paper §III-C: same cycle on both models).
#[test]
fn unsafe_benchmarks_same_cycle_everywhere() {
    for name in ["DAIO", "traffic-light"] {
        let b = hwsw::bmarks::by_name(name).expect("exists");
        let expected = b.bug_cycle.expect("unsafe");
        let ts = b.compile().expect("compiles");
        let prog = hwsw::v2c::SwProgram::from_ts(ts.clone());

        let hw = hwsw::engines::kind::KInduction::new(budget(60)).check(&ts);
        match hw.outcome {
            Verdict::Unsafe(t) => assert_eq!(t.length() as u64, expected, "{name} hw"),
            other => panic!("{name}: hardware engine says {other:?}"),
        }
        let sw = hwsw::swan::cbmc::CbmcKind::new(budget(60)).check(&prog);
        match sw.outcome {
            Verdict::Unsafe(t) => assert_eq!(t.length() as u64, expected, "{name} sw"),
            other => panic!("{name}: software analyzer says {other:?}"),
        }
    }
}

/// PDR proves the hard FIFO benchmark that k-induction cannot.
#[test]
fn pdr_beats_kinduction_on_fifo() {
    let b = hwsw::bmarks::by_name("FIFOs").expect("exists");
    let ts = b.compile().expect("compiles");
    let pdr = hwsw::engines::pdr::Pdr::new(budget(60)).check(&ts);
    assert_eq!(pdr.outcome, Verdict::Safe, "PDR must prove the FIFO");
    let kind = hwsw::engines::kind::KInduction::new(budget(3)).check(&ts);
    assert!(
        matches!(kind.outcome, Verdict::Unknown(_)),
        "k-induction must diverge on the FIFO, got {:?}",
        kind.outcome
    );
}

/// The SeaHorn-mode abstraction produces its documented false negative
/// on a bit-heavy design while exact PDR, and 2LS's kIkI on the same
/// software netlist, prove it.
#[test]
fn seahorn_false_negative_reproduced() {
    let b = hwsw::bmarks::by_name("TicTacToe").expect("exists");
    let ts = b.compile().expect("compiles");
    let prog = hwsw::v2c::SwProgram::from_ts(ts.clone());
    let exact = hwsw::engines::pdr::Pdr::new(budget(60)).check(&ts);
    assert_eq!(exact.outcome, Verdict::Safe);
    let sea = hwsw::swan::seahorn::SeaHorn::new(budget(60)).check(&prog);
    assert!(
        sea.outcome.is_unsafe(),
        "expected a false negative, got {:?}",
        sea.outcome
    );
    let kiki = hwsw::swan::twols::TwoLs::new(budget(30)).check(&prog);
    assert_eq!(kiki.outcome, Verdict::Safe, "2LS kIkI proves TicTacToe");
}

/// All twelve benchmarks make it through the v2c C emitter and back.
#[test]
fn all_benchmarks_roundtrip_through_c() {
    for b in hwsw::bmarks::all() {
        let mods = hwsw::vfront::parse(b.source).expect("parses");
        let design = hwsw::vfront::elaborate(&mods, b.top).expect("elaborates");
        let c_text = hwsw::v2c::emit_c(&design, hwsw::v2c::MainStyle::Verifier).expect("emits");
        let prog = hwsw::cfront::parse_software_netlist(&c_text)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let direct = b.compile().expect("compiles");
        assert_eq!(
            prog.ts.bads().len(),
            direct.bads().len(),
            "{}: property count differs",
            b.name
        );
    }
}
