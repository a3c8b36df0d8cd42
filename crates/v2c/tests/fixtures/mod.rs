//! Small designs shared by this crate's tests: the co-simulation in
//! `cosim.rs` runs each of them, and `mutation.rs` mutates them beside
//! the bundled designs. Together they cover what the bundled designs
//! lack: combinational processes with `if`/`else` and `case`/`default`,
//! child instances with clock ports, memories, output registers and
//! registers assigned with `=`.

/// A design: its top module and its Verilog source.
pub struct Fixture {
    /// Top module name.
    pub top: &'static str,
    /// Verilog source text.
    pub source: &'static str,
}

pub const COUNTER: Fixture = Fixture {
    top: "counter",
    source: r#"
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
};

pub const ACCUMULATORS: Fixture = Fixture {
    top: "top",
    source: r#"
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
};

pub const MEMORY: Fixture = Fixture {
    top: "m",
    source: r#"
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
};

pub const ALU: Fixture = Fixture {
    top: "alu",
    source: r#"
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
};

/// Combinational processes whose branches assign every target: an
/// `if`/`else`, and a `case` with a `default` into an output `reg`.
pub const BRANCHES: Fixture = Fixture {
    top: "branches",
    source: r#"
        module branches(input clk, input [1:0] op, input [7:0] a, input [7:0] b,
                        output reg [7:0] y);
          reg [7:0] m;
          reg [7:0] r;
          initial r = 0;
          always @* begin
            if (op[0]) m = a + b;
            else m = a ^ b;
          end
          always @* begin
            case (op)
              2'd0: y = m;
              2'd1: y = a & b;
              default: y = {m[3:0], a[7:4]};
            endcase
          end
          always @(posedge clk) r <= y;
          assert property (r != 8'hC3);
        endmodule
        "#,
};

pub const OPS: Fixture = Fixture {
    top: "ops",
    source: r#"
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
};

/// A deterministic bug at cycle 64.
pub const BUGGY: Fixture = Fixture {
    top: "buggy",
    source: r#"
        module buggy(input clk);
          reg [6:0] t;
          initial t = 0;
          always @(posedge clk) t <= t + 1;
          assert property (t != 7'd64);
        endmodule
        "#,
};

pub const NONBLOCKING: Fixture = Fixture {
    top: "nb",
    source: r#"
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
};

pub const BITS: Fixture = Fixture {
    top: "bits",
    source: r#"
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
};

/// An output `reg` that only `initial` sets: a register that keeps its
/// reset value, so the property holds on every cycle.
pub const FROZEN_OUTPUT: Fixture = Fixture {
    top: "top",
    source: r#"
        module top(input clk, input a, output reg o);
          initial o = 1;
          reg p;
          initial p = 0;
          always @(posedge clk) p <= a;
          assert property (o);
        endmodule
        "#,
};

/// An instance output wider than the signal it drives, which keeps the
/// output's low bits.
pub const NARROW_OUTPUT: Fixture = Fixture {
    top: "top",
    source: r#"
        module add3(input [7:0] a, output [7:0] y);
          assign y = a + 8'd3;
        endmodule
        module top(input clk, input [7:0] x);
          wire [3:0] w;
          reg [7:0] r;
          initial r = 0;
          add3 u(.a(x), .y(w));
          always @(posedge clk) r <= w;
          assert property (r < 8'd16);
        endmodule
        "#,
};

/// Registers assigned with `=`: another process, and the parent of
/// `sub`, read their values from before the clock edge, and the process
/// that writes a memory row with `=` reads the new row back.
pub const BLOCKING: Fixture = Fixture {
    top: "top",
    source: r#"
        module sub(input clk, input [3:0] d, output reg [3:0] q);
          initial q = 0;
          always @(posedge clk) q = d;
        endmodule
        module top(input clk, input [1:0] i, input [3:0] x);
          reg [3:0] m [0:3];
          reg [3:0] a; reg [3:0] b; reg [3:0] r;
          wire [3:0] w;
          initial begin a = 0; b = 0; r = 0; end
          sub u(.clk(clk), .d(x), .q(w));
          always @(posedge clk) a = x;
          always @(posedge clk) begin
            m[i] = x;
            r <= m[i] ^ w;
            b <= a;
          end
          assert property (b != 4'd9 || r != 4'd0);
        endmodule
        "#,
};

/// Every fixture.
#[allow(dead_code)]
pub const ALL: &[Fixture] = &[
    COUNTER,
    ACCUMULATORS,
    MEMORY,
    ALU,
    BRANCHES,
    OPS,
    BUGGY,
    NONBLOCKING,
    BITS,
    FROZEN_OUTPUT,
    NARROW_OUTPUT,
    BLOCKING,
];
