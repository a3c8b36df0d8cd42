//! The C frontend answers every mutated program: seeded single-token
//! edits of the C that v2c emits for every bundled design, every prefix
//! of it that ends at a token boundary, and random streams of its
//! tokens make `parse_software_netlist` return a program or an error,
//! never panic.

#[path = "../../v2c/tests/mutants/mod.rs"]
mod mutants;

use std::panic::catch_unwind;

/// Mutants per bundled design.
const MUTANTS: usize = 200;

/// Random token streams per bundled design.
const STREAMS: usize = 300;

/// The C that v2c emits for each bundled design, with its name.
fn emitted_c() -> Vec<(&'static str, String)> {
    bmarks::all()
        .into_iter()
        .map(|b| {
            let modules = vfront::parse(b.source).expect("parses");
            let design = vfront::elaborate(&modules, b.top).expect("elaborates");
            let c = v2c::emit_c(&design, v2c::MainStyle::Verifier).expect("emits");
            (b.name, c)
        })
        .collect()
}

fn assert_answers(name: &str, src: &str) {
    if catch_unwind(|| cfront::parse_software_netlist(src).map(|_| ())).is_err() {
        panic!("{name}: cfront panicked on\n{src}");
    }
}

#[test]
fn mutated_emitted_c_never_panics() {
    for (seed, (name, c)) in (0u64..).zip(emitted_c()) {
        for src in mutants::mutants(&c, seed, MUTANTS) {
            assert_answers(name, &src);
        }
    }
}

#[test]
fn truncated_emitted_c_and_token_streams_never_panic() {
    for (seed, (name, c)) in (0u64..).zip(emitted_c()) {
        let streams = mutants::token_streams(&c, seed, STREAMS);
        for src in mutants::prefixes(&c).into_iter().chain(streams) {
            assert_answers(name, &src);
        }
    }
}
