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

/// CBMC-kind and 2LS-kind run the engines' word-level k-induction loop
/// and report the SAT counters of its queries, not only their number.
#[test]
fn software_kinduction_reports_sat_counters() {
    let b = hwsw::bmarks::by_name("DAIO").expect("exists");
    let prog = hwsw::v2c::SwProgram::from_ts(b.compile().expect("compiles"));
    let twols_kind = hwsw::swan::twols::TwoLs {
        use_invariants: false,
        ..hwsw::swan::twols::TwoLs::new(budget(60))
    };
    let runs = [
        hwsw::swan::cbmc::CbmcKind::new(budget(60)).check(&prog),
        twols_kind.check(&prog),
    ];
    for out in runs {
        assert!(out.outcome.is_unsafe(), "{:?}", out.outcome);
        assert_eq!(out.stats.sat_queries, 129, "base and step per bound");
        assert!(out.stats.decisions > 0, "{:?}", out.stats);
        assert!(out.stats.propagations > 0, "{:?}", out.stats);
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

/// On the FIFO, pushes and ctg checks that an earlier predecessor
/// still refutes recur, and PDR answers them without the solver; the
/// proof it exports still certifies against the raw netlist.
#[test]
fn pdr_reuses_standing_predecessors_on_fifo() {
    let b = hwsw::bmarks::by_name("FIFOs").expect("exists");
    let ts = b.compile().expect("compiles");
    let blasted = hwsw::engines::Blasted::of(&ts);
    let pdr = hwsw::engines::pdr::Pdr::new(budget(60)).check_blasted(&ts, &blasted);
    assert_eq!(pdr.outcome, Verdict::Safe, "PDR must prove the FIFO");
    assert!(
        pdr.stats.preds_reused > 0,
        "failed pushes must reuse their predecessors: {:?}",
        pdr.stats
    );
    let report = hwsw::engines::certify::certify(&blasted.sys, &pdr);
    assert!(report.ok && report.witnessed, "{report:?}");
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

/// All twelve benchmarks make it through the v2c C emitter and back,
/// and, where a C compiler is installed, both harness styles compile
/// without a warning.
#[test]
fn all_benchmarks_roundtrip_through_c() {
    use hwsw::v2c::MainStyle;
    let dir = std::env::temp_dir().join(format!("v2c_warnings_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cc = std::process::Command::new("cc")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success());
    if !cc {
        eprintln!("no C compiler: the emitted C is only parsed back");
    }
    for b in hwsw::bmarks::all() {
        let mods = hwsw::vfront::parse(b.source).expect("parses");
        let design = hwsw::vfront::elaborate(&mods, b.top).expect("elaborates");
        let c_text = hwsw::v2c::emit_c(&design, MainStyle::Verifier).expect("emits");
        let prog = hwsw::cfront::parse_software_netlist(&c_text)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let direct = b.compile().expect("compiles");
        assert_eq!(
            prog.ts.bads().len(),
            direct.bads().len(),
            "{}: property count differs",
            b.name
        );
        for style in [MainStyle::Verifier, MainStyle::Cosim]
            .into_iter()
            .filter(|_| cc)
        {
            let c_path = dir.join(format!("{}_{style:?}.c", b.top));
            std::fs::write(&c_path, hwsw::v2c::emit_c(&design, style).expect("emits"))
                .expect("write C");
            let out = std::process::Command::new("cc")
                .args(["-std=c99", "-Wall", "-Wextra", "-Werror", "-c", "-o"])
                .arg(c_path.with_extension("o"))
                .arg(&c_path)
                .output()
                .expect("run cc");
            assert!(
                out.status.success(),
                "{} ({style:?}): {}",
                b.name,
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `case` label wider than the scrutinee never matches it: Verilog
/// compares both at the wider width. BMC on the C round trip must agree
/// with BMC on the synthesized model that the assertion holds.
#[test]
fn wide_case_label_translates_like_the_verilog() {
    use hwsw::engines::Unknown;
    let src = r#"
    module top(input clk, input [1:0] s);
      reg hit;
      initial hit = 0;
      always @(posedge clk)
        case (s)
          3'b100: hit <= 1;
        endcase
      assert property (!hit);
    endmodule
    "#;
    let ts = hwsw::vfront::compile(src, "top").expect("compiles");
    let mods = hwsw::vfront::parse(src).expect("parses");
    let design = hwsw::vfront::elaborate(&mods, "top").expect("elaborates");
    let c_text = hwsw::v2c::emit_c(&design, hwsw::v2c::MainStyle::Verifier).expect("emits");
    let prog = hwsw::cfront::parse_software_netlist(&c_text).expect("parses back");
    let bmc = hwsw::engines::bmc::Bmc::new(Budget {
        max_depth: 8,
        ..budget(30)
    });
    let bound = Verdict::Unknown(Unknown::BoundReached);
    assert_eq!(bmc.check(&ts).outcome, bound, "Verilog model");
    assert_eq!(bmc.check(&prog.ts).outcome, bound, "C model:\n{c_text}");
}

/// `Blasted::of` mines the strengthening and proves nothing: on
/// designs whose mined set is below the 128 clauses a split needs, it
/// builds one solver on the calling thread, Houdini's, and ships the
/// set unproven.
#[test]
fn blasted_of_builds_only_the_mining_solver() {
    for name in ["Huffman", "DAIO", "Dekker", "traffic-light"] {
        let ts = hwsw::bmarks::by_name(name)
            .expect("bundled design")
            .compile()
            .expect("compiles");
        let before = hwsw::satb::solver_count();
        let blasted = hwsw::engines::Blasted::of(&ts);
        assert_eq!(hwsw::satb::solver_count() - before, 1, "{name}");
        assert!(!blasted.invariant.clauses.is_empty(), "{name}");
        assert!(!blasted.invariant_certified, "{name}");
        assert!(blasted.strengthening().is_empty(), "{name}");
    }
}

/// What `Blasted::of` ships on the bundled designs: mined on the cut
/// image the engines solve, the strengthening is the one mined on the
/// raw template minus every clause that names a latch outside the cone
/// of influence, and it holds no constant. Only three designs mine a
/// clause outside the cone.
#[test]
fn shipped_strengthening_is_the_raw_one_inside_the_cone() {
    use hwsw::aig::{analyze, blast_system, AnalysisConfig, TransitionTemplate};
    let mut changed = Vec::new();
    for b in hwsw::bmarks::all() {
        let ts = b.compile().expect("compiles");
        let sys = blast_system(&ts);
        let raw = TransitionTemplate::compile(&sys);
        let mined = analyze(
            &sys,
            &raw,
            &AnalysisConfig::default(),
            &hwsw::satb::Limits::default(),
        );
        let coi = sys.latch_coi();
        let inside: Vec<_> = mined
            .clauses
            .iter()
            .filter(|c| c.iter().all(|&(i, _)| coi[i]))
            .cloned()
            .collect();
        let shipped = hwsw::engines::Blasted::of(&ts).certified();
        assert!(shipped.invariant_certified, "{}", b.name);
        assert_eq!(shipped.invariant.clauses, inside, "{}", b.name);
        assert!(shipped.invariant.constants.is_empty(), "{}", b.name);
        if inside.len() != mined.clauses.len() {
            changed.push((b.name, mined.clauses.len(), inside.len()));
        }
    }
    assert_eq!(
        changed,
        [("Dekker", 3, 1), ("Heap", 1, 0), ("Huffman", 19, 9)]
    );
}
