//! Synthesis and the C emitter agree on mutated sources: seeded
//! single-token edits of every bundled design, every prefix of it that
//! ends at a token boundary, and random streams of its tokens never
//! make `vfront::compile` or `v2c::emit_c` panic, and `compile` accepts
//! a source exactly when `emit_c` does. This is the gate for the
//! frontends' shared rules (`vfront` crate docs): a rule that only one
//! of them checks shows up here as a disagreement.

mod mutants;

use std::panic::catch_unwind;

/// Mutants per bundled design.
const MUTANTS: usize = 200;

/// Random token streams per bundled design.
const STREAMS: usize = 300;

/// Runs both entry points on `src`: neither may panic, and both must
/// accept it or both reject it.
fn assert_agree(b: &bmarks::Benchmark, src: &str) {
    let (compiled, emitted) = catch_unwind(|| {
        let compiled = vfront::compile(src, b.top).map(|_| ());
        let emitted = vfront::parse(src)
            .and_then(|modules| vfront::elaborate(&modules, b.top))
            .and_then(|design| v2c::emit_c(&design, v2c::MainStyle::Verifier))
            .map(|_| ());
        (compiled, emitted)
    })
    .unwrap_or_else(|_| panic!("{}: a frontend panicked on\n{src}", b.name));
    assert_eq!(
        compiled.is_ok(),
        emitted.is_ok(),
        "{}: compile {compiled:?}, emit_c {emitted:?} on\n{src}",
        b.name
    );
}

#[test]
fn compile_and_emit_c_agree_on_mutated_designs() {
    for (seed, b) in (0u64..).zip(bmarks::all()) {
        for src in mutants::mutants(b.source, seed, MUTANTS) {
            assert_agree(&b, &src);
        }
    }
}

#[test]
fn compile_and_emit_c_agree_on_truncated_designs_and_token_streams() {
    for (seed, b) in (0u64..).zip(bmarks::all()) {
        let streams = mutants::token_streams(b.source, seed, STREAMS);
        for src in mutants::prefixes(b.source).into_iter().chain(streams) {
            assert_agree(&b, &src);
        }
    }
}
