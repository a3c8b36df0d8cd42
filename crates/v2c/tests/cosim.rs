//! Translation validation (§III-C of the paper): the generated C
//! software-netlist is compiled with a real C compiler and co-simulated
//! against the word-level reference simulator under random stimulus.
//! Assertion flags and the complete architectural state must agree
//! every clock cycle — "the bug is manifested in the same clock cycle
//! for both models".
//!
//! These tests are skipped when no C compiler is installed.

mod fixtures;

use fixtures::Fixture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtlir::{Simulator, Sort, Value};
use std::io::Write as _;
use std::process::{Command, Stdio};

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Compiles `f` both ways and co-simulates `cycles` random cycles.
fn cosim(f: &Fixture, cycles: u64, seed: u64) {
    let (src, top) = (f.source, f.top);
    if !have_cc() {
        eprintln!("skipping cosim test: no C compiler");
        return;
    }
    let ts = vfront::compile(src, top).expect("verilog compiles");
    let modules = vfront::parse(src).expect("parses");
    let design = vfront::elaborate(&modules, top).expect("elaborates");
    let c_code = v2c::emit_c(&design, v2c::MainStyle::Cosim).expect("emits C");

    // Build the C binary in a temp dir.
    let dir = std::env::temp_dir().join(format!("v2c_cosim_{top}_{seed}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let c_path = dir.join("netlist.c");
    let bin_path = dir.join("netlist");
    std::fs::write(&c_path, &c_code).expect("write C");
    let status = Command::new("cc")
        .arg("-O1")
        .arg("-o")
        .arg(&bin_path)
        .arg(&c_path)
        .status()
        .expect("run cc");
    assert!(status.success(), "C compilation failed for:\n{c_code}");

    // Random stimulus.
    let mut rng = StdRng::seed_from_u64(seed);
    let input_sorts: Vec<Sort> = ts.inputs().iter().map(|&v| ts.pool().var_sort(v)).collect();
    let mut stim_lines = String::new();
    let mut stim_values: Vec<Vec<Value>> = Vec::new();
    for _ in 0..cycles {
        let mut vals = Vec::new();
        let mut words = Vec::new();
        for sort in &input_sorts {
            let w = sort.width();
            let v: u64 = rng.gen::<u64>() & rtlir::value::mask(w);
            vals.push(Value::bv(w, v));
            words.push(format!("{v:x}"));
        }
        stim_lines.push_str(&words.join(" "));
        stim_lines.push('\n');
        stim_values.push(vals);
    }
    if input_sorts.is_empty() {
        stim_lines = format!("{cycles}\n");
    }

    // Run the C model.
    let mut child = Command::new(&bin_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn netlist");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stim_lines.as_bytes())
        .expect("write stimulus");
    let out = child.wait_with_output().expect("run netlist");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let c_lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(c_lines.len() as u64, cycles, "one output line per cycle");

    // Reference simulation, comparing every cycle.
    let mut sim = Simulator::new(&ts);
    for (cycle, line) in c_lines.iter().enumerate() {
        let inputs = stim_values.get(cycle).cloned().unwrap_or_default();
        let ref_bads = sim.bad_states_with_inputs(&inputs);
        sim.step(&inputs);

        let mut parts = line.split_whitespace();
        let flags = parts.next().expect("bad flags field");
        if flags != "-" {
            let c_bads: Vec<bool> = flags.chars().map(|c| c == '1').collect();
            assert_eq!(
                c_bads, ref_bads,
                "cycle {cycle}: assertion flags diverge (C vs reference)"
            );
        }
        // State words in flat order; memories expand to 2^aw elements.
        let mut c_state: Vec<u64> = Vec::new();
        for p in parts {
            c_state.push(u64::from_str_radix(p, 16).expect("hex word"));
        }
        let mut ref_state: Vec<u64> = Vec::new();
        for st in ts.states() {
            match ts.pool().var_sort(st.var) {
                Sort::Bv(_) => ref_state.push(sim.state_value(st.var).bits()),
                Sort::Array { index_width, .. } => {
                    let arr = sim.state_value(st.var);
                    let arr = arr.as_array();
                    for i in 0..(1u64 << index_width) {
                        ref_state.push(arr.read(i));
                    }
                }
            }
        }
        assert_eq!(
            c_state, ref_state,
            "cycle {cycle}: architectural state diverges (C vs reference)"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn counter_with_reset() {
    cosim(&fixtures::COUNTER, 200, 0xC0511);
}

#[test]
fn hierarchical_accumulators() {
    cosim(&fixtures::ACCUMULATORS, 300, 0xACC5);
}

#[test]
fn memory_write_read() {
    cosim(&fixtures::MEMORY, 400, 0x3E3);
}

#[test]
fn comb_process_case_and_selects() {
    cosim(&fixtures::ALU, 400, 0xA1B2);
}

#[test]
fn comb_processes_with_else_and_default() {
    cosim(&fixtures::BRANCHES, 400, 0xB4A7);
}

#[test]
fn shifts_mul_div_operators() {
    cosim(&fixtures::OPS, 400, 0x5417);
}

#[test]
fn unsafe_bug_fires_in_same_cycle_as_word_level() {
    // A design with a deterministic bug at a known cycle: both models
    // must flag it at exactly that cycle (the paper's §III-C check).
    // Reference: cycle of first violation.
    let ts = vfront::compile(fixtures::BUGGY.source, "buggy").expect("compiles");
    let mut sim = Simulator::new(&ts);
    let ref_cycle = sim.run_until_bad(200, |_| vec![]).expect("bug exists");
    assert_eq!(ref_cycle, 64);
    // The cosim checks equality of the bad flags on every cycle, which
    // subsumes "same clock cycle"; run it.
    cosim(&fixtures::BUGGY, 100, 1);
}

#[test]
fn nonblocking_selects_read_the_old_values() {
    // A bit, part or concatenated non-blocking write reads the values
    // from before the clock edge, even of registers the same process
    // has already scheduled a new value for.
    cosim(&fixtures::NONBLOCKING, 300, 0x0B5E);
}

#[test]
fn out_of_range_bit_selects_read_zero_and_write_nothing() {
    // Indices past the msb, below the lsb (of `t`, below any offset a
    // 2-bit index can hold) and past bit 63 (of `u`).
    cosim(&fixtures::BITS, 300, 0xB175);
}

#[test]
fn frozen_output_register_keeps_its_initial_value() {
    // An output `reg` that only `initial` sets is a register of both
    // models: its reset value holds on every cycle, so the property
    // never fails in either.
    cosim(&fixtures::FROZEN_OUTPUT, 50, 0xF0);
}

#[test]
fn narrow_signal_keeps_the_low_bits_of_a_wider_output() {
    cosim(&fixtures::NARROW_OUTPUT, 100, 0x4A5);
}

#[test]
fn blocking_registers_read_their_old_values_elsewhere() {
    cosim(&fixtures::BLOCKING, 300, 0xB10C);
}

#[test]
fn names_that_clash_in_c_are_renamed() {
    cosim(&fixtures::CLASHING_NAMES, 300, 0xC1A5);
}
