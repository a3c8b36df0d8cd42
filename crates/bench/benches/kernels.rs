//! Criterion micro-benchmarks on the verification kernels: the SAT
//! solver, bit-blasting, CNF encoding and the Verilog frontend.

use criterion::{criterion_group, criterion_main, Criterion};
use satb::{Lit, Solver, Var};

/// Pigeonhole-principle CNF `PHP(holes+1, holes)` — always UNSAT,
/// forces real clause learning.
fn pigeonhole_cnf(holes: usize) -> (usize, Vec<Vec<Lit>>) {
    let pigeons = holes + 1;
    let var = |p: usize, h: usize| p * holes + h;
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push(
            (0..holes)
                .map(|h| Lit::pos(Var::from_index(var(p, h))))
                .collect(),
        );
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                clauses.push(vec![
                    Lit::neg(Var::from_index(var(p1, h))),
                    Lit::neg(Var::from_index(var(p2, h))),
                ]);
            }
        }
    }
    (pigeons * holes, clauses)
}

fn bench_sat(c: &mut Criterion) {
    let (nvars, cnf) = pigeonhole_cnf(7);
    c.bench_function("sat/pigeonhole-7", |b| {
        b.iter(|| {
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            for cl in &cnf {
                s.add_clause(cl);
            }
            assert_eq!(s.solve(), satb::SolveResult::Unsat);
        });
    });
}

fn bench_frontend(c: &mut Criterion) {
    let fifo = bmarks::by_name("FIFOs").expect("exists");
    c.bench_function("vfront/compile-fifo", |b| {
        b.iter(|| fifo.compile().expect("compiles"));
    });
    let rcu = bmarks::by_name("RCU").expect("exists");
    c.bench_function("aig/blast-rcu", |b| {
        let ts = rcu.compile().expect("compiles");
        b.iter(|| aig::blast_system(&ts));
    });
}

fn bench_v2c(c: &mut Criterion) {
    let huff = bmarks::by_name("Huffman").expect("exists");
    let mods = vfront::parse(huff.source).expect("parses");
    let design = vfront::elaborate(&mods, huff.top).expect("elaborates");
    c.bench_function("v2c/emit-huffman", |b| {
        b.iter(|| v2c::emit_c(&design, v2c::MainStyle::Verifier).expect("emits"));
    });
    let text = v2c::emit_c(&design, v2c::MainStyle::Verifier).expect("emits");
    c.bench_function("cfront/parse-huffman", |b| {
        b.iter(|| cfront::parse_software_netlist(&text).expect("parses"));
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_sat, bench_frontend, bench_v2c
}
criterion_main!(kernels);
