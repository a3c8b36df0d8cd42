//! The and-inverter graph.

use std::collections::HashMap;
use std::fmt;

/// A literal in an [`Aig`]: a node index with a complement flag,
/// encoded as `node << 1 | complemented`.
///
/// Node 0 is the constant-false node, so [`AigLit::FALSE`] is code 0
/// and [`AigLit::TRUE`] is code 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant false literal.
    pub const FALSE: AigLit = AigLit(0);
    /// The constant true literal.
    pub const TRUE: AigLit = AigLit(1);

    fn new(node: u32, compl: bool) -> AigLit {
        AigLit(node << 1 | compl as u32)
    }
    /// The node index this literal points at.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }
    /// Whether the literal is complemented.
    pub fn is_compl(self) -> bool {
        self.0 & 1 == 1
    }
    /// The literal for a constant.
    pub fn constant(b: bool) -> AigLit {
        if b {
            AigLit::TRUE
        } else {
            AigLit::FALSE
        }
    }
    /// Whether this is one of the two constant literals.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
    /// The raw code, for dense side tables.
    pub fn code(self) -> usize {
        self.0 as usize
    }
    /// Reconstructs a literal from a raw code previously obtained via
    /// [`code`](AigLit::code).
    pub fn from_code(code: usize) -> AigLit {
        AigLit(code as u32)
    }
    /// The literal's value in a per-node buffer filled by
    /// [`Aig::eval_nodes`].
    pub(crate) fn value_in(self, node_values: &[bool]) -> bool {
        node_values[self.node() as usize] != self.is_compl()
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

impl fmt::Display for AigLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_compl() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

/// Kind of an AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKind {
    Const,
    /// Combinational input (primary input or latch output), with its
    /// CI ordinal.
    Ci(u32),
    And(AigLit, AigLit),
}

/// A structurally hashed and-inverter graph.
///
/// Nodes are constants, combinational inputs (CIs) and two-input AND
/// gates; inversion lives on edges. The builder methods perform
/// constant propagation and simple local rewrites, plus structural
/// hashing, so equivalent-by-construction gates share a node.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<NodeKind>,
    num_cis: u32,
    strash: HashMap<(AigLit, AigLit), AigLit>,
}

impl Default for Aig {
    fn default() -> Aig {
        Aig::new()
    }
}

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![NodeKind::Const],
            num_cis: 0,
            strash: HashMap::new(),
        }
    }

    /// Total number of nodes (constant + CIs + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of combinational inputs created so far.
    pub fn num_cis(&self) -> usize {
        self.num_cis as usize
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.num_cis as usize
    }

    /// Creates a fresh combinational input and returns its literal.
    pub fn new_ci(&mut self) -> AigLit {
        let node = self.nodes.len() as u32;
        self.nodes.push(NodeKind::Ci(self.num_cis));
        self.num_cis += 1;
        AigLit::new(node, false)
    }

    /// The CI ordinal of a literal's node, if it is a CI.
    pub fn ci_index(&self, l: AigLit) -> Option<usize> {
        match self.nodes[l.node() as usize] {
            NodeKind::Ci(i) => Some(i as usize),
            _ => None,
        }
    }

    /// The (non-complemented) literals of all CIs, in ordinal order.
    pub fn ci_lits(&self) -> Vec<AigLit> {
        let mut out = vec![AigLit::FALSE; self.num_cis as usize];
        for (n, kind) in self.nodes.iter().enumerate() {
            if let NodeKind::Ci(i) = kind {
                out[*i as usize] = AigLit::from_code(n << 1);
            }
        }
        out
    }

    /// The fanins of an AND node given a raw node index.
    pub fn and_fanins_of_node(&self, node: u32) -> Option<(AigLit, AigLit)> {
        match self.nodes[node as usize] {
            NodeKind::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// AND of two literals (with folding and structural hashing).
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        if let Some(&l) = self.strash.get(&(x, y)) {
            return l;
        }
        let node = self.nodes.len() as u32;
        self.nodes.push(NodeKind::And(x, y));
        let l = AigLit::new(node, false);
        self.strash.insert((x, y), l);
        l
    }

    /// OR of two literals.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// XOR of two literals (two AND gates).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// Multiplexer: `c ? t : e`.
    pub fn mux(&mut self, c: AigLit, t: AigLit, e: AigLit) -> AigLit {
        if t == e {
            return t;
        }
        let n1 = self.and(c, t);
        let n2 = self.and(!c, e);
        self.or(n1, n2)
    }

    /// AND over a slice of literals.
    pub fn and_all(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// OR over a slice of literals.
    pub fn or_all(&mut self, lits: &[AigLit]) -> AigLit {
        let mut acc = AigLit::FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Evaluates a literal given values for all CIs (indexed by CI
    /// ordinal), with one pass over every node in index order. The
    /// three-valued variant PDR uses for cube generalization lives in
    /// [`crate::sim::TernarySim`].
    pub fn eval(&self, root: AigLit, ci_values: &[bool]) -> bool {
        let mut vals = vec![false; self.nodes.len()];
        for (n, kind) in self.nodes.iter().enumerate() {
            if let NodeKind::Ci(i) = *kind {
                vals[n] = ci_values[i as usize];
            }
        }
        self.eval_nodes(&mut vals);
        root.value_in(&vals)
    }

    /// Evaluates every AND node once, in index order, into
    /// `node_values` (one slot per node). The caller presets the CI
    /// slots and leaves slot 0, the constant node, `false`; read
    /// results back with [`AigLit::value_in`]. Index order is
    /// topological by construction — [`and`](Aig::and) only references
    /// nodes that already exist — so one linear pass evaluates every
    /// root at once, with no per-root walk or cache.
    pub(crate) fn eval_nodes(&self, node_values: &mut [bool]) {
        for (n, kind) in self.nodes.iter().enumerate() {
            if let NodeKind::And(a, b) = *kind {
                node_values[n] = a.value_in(node_values) && b.value_in(node_values);
            }
        }
    }

    /// The nodes in the transitive fanin cone of `roots` (AND nodes
    /// only), in topological order.
    pub fn cone(&self, roots: &[AigLit]) -> Vec<u32> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack: Vec<(u32, bool)> = roots.iter().map(|l| (l.node(), false)).collect();
        while let Some((n, expanded)) = stack.pop() {
            if seen[n as usize] {
                continue;
            }
            if let NodeKind::And(a, b) = self.nodes[n as usize] {
                if expanded {
                    seen[n as usize] = true;
                    order.push(n);
                } else {
                    stack.push((n, true));
                    stack.push((a.node(), false));
                    stack.push((b.node(), false));
                }
            } else {
                seen[n as usize] = true;
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_identities() {
        let mut g = Aig::new();
        let a = g.new_ci();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(a, AigLit::TRUE), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.or(a, AigLit::TRUE), AigLit::TRUE);
        assert_eq!(g.num_ands(), 0, "identities must not allocate gates");
    }

    #[test]
    fn structural_hashing() {
        let mut g = Aig::new();
        let a = g.new_ci();
        let b = g.new_ci();
        let c1 = g.and(a, b);
        let c2 = g.and(b, a);
        assert_eq!(c1, c2);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn truth_tables() {
        let mut g = Aig::new();
        let a = g.new_ci();
        let b = g.new_ci();
        let and = g.and(a, b);
        let or = g.or(a, b);
        let xor = g.xor(a, b);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let cis = [va, vb];
            assert_eq!(g.eval(and, &cis), va && vb);
            assert_eq!(g.eval(or, &cis), va || vb);
            assert_eq!(g.eval(xor, &cis), va ^ vb);
            assert_eq!(g.eval(!and, &cis), !(va && vb));
        }
    }

    #[test]
    fn mux_truth_table() {
        let mut g = Aig::new();
        let c = g.new_ci();
        let t = g.new_ci();
        let e = g.new_ci();
        let m = g.mux(c, t, e);
        for i in 0..8u32 {
            let cis = [(i & 1) != 0, (i & 2) != 0, (i & 4) != 0];
            let want = if cis[0] { cis[1] } else { cis[2] };
            assert_eq!(g.eval(m, &cis), want, "mux({cis:?})");
        }
    }

    #[test]
    fn cone_topological() {
        let mut g = Aig::new();
        let a = g.new_ci();
        let b = g.new_ci();
        let x = g.and(a, b);
        let y = g.and(x, !a);
        let cone = g.cone(&[y]);
        assert_eq!(cone.len(), 2);
        // x must come before y.
        assert_eq!(cone[0], x.node());
        assert_eq!(cone[1], y.node());
    }

    #[test]
    fn deep_eval_no_stack_overflow() {
        let mut g = Aig::new();
        let a = g.new_ci();
        let b = g.new_ci();
        let mut acc = g.and(a, b);
        for _ in 0..100_000 {
            acc = g.and(acc, a);
            // acc stays the same node due to a&a folding; vary with xor.
            acc = g.xor(acc, b);
        }
        let _ = g.eval(acc, &[true, false]);
    }
}
