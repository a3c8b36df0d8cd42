//! Translation validation (§III-C of the paper): the generated C
//! software-netlist is compiled with a real C compiler and co-simulated
//! against the word-level reference simulator under random stimulus.
//! Assertion flags and the complete architectural state must agree
//! every clock cycle — "the bug is manifested in the same clock cycle
//! for both models".
//!
//! These tests are skipped when no C compiler is installed.

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

/// Compiles `src` both ways and co-simulates `cycles` random cycles.
fn cosim(src: &str, top: &str, cycles: u64, seed: u64) {
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
    cosim(
        r#"
        module counter(input clk, input rst, input en, output wrap);
          reg [3:0] c;
          initial c = 0;
          always @(posedge clk) begin
            if (rst) c <= 0;
            else if (en) c <= c + 1;
          end
          assign wrap = (c == 4'hF);
          assert property (c != 4'd13);
        endmodule
        "#,
        "counter",
        200,
        0xC0511,
    );
}

#[test]
fn hierarchical_accumulators() {
    cosim(
        r#"
        module acc(input clk, input [3:0] a, output [3:0] y);
          reg [3:0] r;
          initial r = 0;
          always @(posedge clk) r <= r + a;
          assign y = r;
          assert property (r != 4'd11);
        endmodule
        module top(input clk, input [3:0] x);
          wire [3:0] s1;
          wire [3:0] s2;
          acc u1 (.clk(clk), .a(x), .y(s1));
          acc u2 (.clk(clk), .a(s1), .y(s2));
          assert property (s2 != 4'd7);
        endmodule
        "#,
        "top",
        300,
        0xACC5,
    );
}

#[test]
fn memory_write_read() {
    cosim(
        r#"
        module m(input clk, input we, input [2:0] wa, input [2:0] ra,
                 input [7:0] d, output [7:0] q);
          reg [7:0] mem [0:7];
          reg [7:0] last;
          initial last = 0;
          assign q = mem[ra];
          always @(posedge clk) begin
            if (we) mem[wa] <= d;
            last <= q;
          end
          assert property (last != 8'hEE);
        endmodule
        "#,
        "m",
        400,
        0x3E3,
    );
}

#[test]
fn comb_process_case_and_selects() {
    cosim(
        r#"
        module alu(input clk, input [1:0] op, input [7:0] a, input [7:0] b);
          reg [7:0] r;
          reg [7:0] res;
          initial r = 0;
          always @* begin
            res = 0;
            case (op)
              2'd0: res = a + b;
              2'd1: res = a - b;
              2'd2: res = a & b;
              2'd3: res = {a[3:0], b[7:4]};
            endcase
          end
          always @(posedge clk) r <= res;
          assert property (r != 8'h5A);
        endmodule
        "#,
        "alu",
        400,
        0xA1B2,
    );
}

#[test]
fn shifts_mul_div_operators() {
    cosim(
        r#"
        module ops(input clk, input [7:0] a, input [7:0] b);
          reg [7:0] r1; reg [7:0] r2; reg [7:0] r3; reg [7:0] r4;
          initial begin r1 = 0; r2 = 0; r3 = 0; r4 = 0; end
          always @(posedge clk) begin
            r1 <= a << b[2:0];
            r2 <= a >> b[3:0];
            r3 <= a * b;
            r4 <= a / (b & 8'h0F);
          end
          assert property (r3 != 8'hF0);
        endmodule
        "#,
        "ops",
        400,
        0x5417,
    );
}

#[test]
fn unsafe_bug_fires_in_same_cycle_as_word_level() {
    // A design with a deterministic bug at a known cycle: both models
    // must flag it at exactly that cycle (the paper's §III-C check).
    let src = r#"
        module buggy(input clk);
          reg [6:0] t;
          initial t = 0;
          always @(posedge clk) t <= t + 1;
          assert property (t != 7'd64);
        endmodule
    "#;
    // Reference: cycle of first violation.
    let ts = vfront::compile(src, "buggy").expect("compiles");
    let mut sim = Simulator::new(&ts);
    let ref_cycle = sim.run_until_bad(200, |_| vec![]).expect("bug exists");
    assert_eq!(ref_cycle, 64);
    // The cosim checks equality of the bad flags on every cycle, which
    // subsumes "same clock cycle"; run it.
    cosim(src, "buggy", 100, 1);
}

#[test]
fn nonblocking_selects_read_the_old_values() {
    // A bit, part or concatenated non-blocking write reads the values
    // from before the clock edge, even of registers the same process
    // has already scheduled a new value for.
    cosim(
        r#"
        module nb(input clk, input [3:0] x);
          reg [3:0] a; reg [3:0] b; reg [3:0] c; reg [1:0] d; reg [1:0] e;
          initial begin a = 0; b = 0; c = 0; d = 0; e = 0; end
          always @(posedge clk) begin
            a <= a + x;
            b[0] <= a[0];
            c[3:2] <= a[1:0];
            {d, e} <= a;
          end
          assert property (b != 4'd1 || c != 4'd12);
        endmodule
        "#,
        "nb",
        300,
        0x0B5E,
    );
}

#[test]
fn out_of_range_bit_selects_read_zero_and_write_nothing() {
    // Indices past the msb, below the lsb (of `t`, below any offset a
    // 2-bit index can hold) and past bit 63 (of `u`).
    cosim(
        r#"
        module bits(input clk, input [2:0] i, input [1:0] j, input [7:0] k, input v);
          reg [3:0] r; reg [7:4] s; reg [11:8] t; reg [7:0] u; reg [3:0] q;
          initial begin r = 0; s = 0; t = 0; u = 8'hA5; q = 0; end
          always @(posedge clk) begin
            r[i] <= v;
            s[i] <= v;
            t[j] <= v;
            q <= {r[i], s[i], t[j], u[k]};
          end
          assert property (r != 4'hF);
        endmodule
        "#,
        "bits",
        300,
        0xB175,
    );
}
