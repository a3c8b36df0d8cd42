//! The C frontend answers every mutated program: seeded single-token
//! edits of the C that v2c emits for every bundled design make
//! `parse_software_netlist` return a program or an error, never panic.

#[path = "../../v2c/tests/mutants/mod.rs"]
mod mutants;

use std::panic::catch_unwind;

/// Mutants per bundled design.
const MUTANTS: usize = 200;

#[test]
fn mutated_emitted_c_never_panics() {
    for (seed, b) in (0u64..).zip(bmarks::all()) {
        let modules = vfront::parse(b.source).expect("parses");
        let design = vfront::elaborate(&modules, b.top).expect("elaborates");
        let c = v2c::emit_c(&design, v2c::MainStyle::Verifier).expect("emits");
        for src in mutants::mutants(&c, seed, MUTANTS) {
            if catch_unwind(|| cfront::parse_software_netlist(&src).map(|_| ())).is_err() {
                panic!("{}: cfront panicked on\n{src}", b.name);
            }
        }
    }
}
