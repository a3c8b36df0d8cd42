//! Synthesis and the C emitter agree on mutated sources: seeded
//! single-token edits of every bundled design and co-simulation
//! fixture, every prefix of it that ends at a token boundary, and
//! random streams of its tokens never make `vfront::compile` or
//! `v2c::emit_c` panic, and both return the same error or both accept.
//! This is the gate for the frontends' shared rules (`vfront` crate
//! docs): a rule that only one of them checks, or that they word
//! differently, shows up here as a disagreement. The fixtures add what
//! the single-module bundled designs lack: combinational processes, an
//! instance with a clock port, a memory and output registers.

mod fixtures;
mod mutants;

use std::panic::catch_unwind;

/// Mutants per design.
const MUTANTS: usize = 200;

/// Random token streams per design.
const STREAMS: usize = 300;

/// The mutated designs, as `(top, source)`: the bundled ones, then the
/// fixtures.
fn designs() -> Vec<(&'static str, &'static str)> {
    let bundled = bmarks::all().into_iter().map(|b| (b.top, b.source));
    bundled
        .chain(fixtures::ALL.iter().map(|f| (f.top, f.source)))
        .collect()
}

/// Runs both entry points on `src`: neither may panic, and both must
/// accept it or both reject it with the same error.
fn assert_agree(top: &str, src: &str) {
    let (compiled, emitted) = catch_unwind(|| {
        let compiled = vfront::compile(src, top).map(|_| ());
        let emitted = vfront::parse(src)
            .and_then(|modules| vfront::elaborate(&modules, top))
            .and_then(|design| v2c::emit_c(&design, v2c::MainStyle::Verifier))
            .map(|_| ());
        (compiled, emitted)
    })
    .unwrap_or_else(|_| panic!("{top}: a frontend panicked on\n{src}"));
    assert_eq!(
        compiled, emitted,
        "{top}: compile {compiled:?}, emit_c {emitted:?} on\n{src}"
    );
}

#[test]
fn compile_and_emit_c_agree_on_mutated_designs() {
    for (seed, (top, src)) in (0u64..).zip(designs()) {
        for mutant in mutants::mutants(src, seed, MUTANTS) {
            assert_agree(top, &mutant);
        }
    }
}

#[test]
fn compile_and_emit_c_agree_on_truncated_designs_and_token_streams() {
    for (seed, (top, src)) in (0u64..).zip(designs()) {
        let streams = mutants::token_streams(src, seed, STREAMS);
        for mutant in mutants::prefixes(src).into_iter().chain(streams) {
            assert_agree(top, &mutant);
        }
    }
}
