//! Data-dependence graph: edges and adjacency view.

use std::fmt;
use std::sync::OnceLock;

use crate::kernel::LoopKernel;
use crate::op::OpId;

/// The kind of a dependence edge.
///
/// The paper's example DDG (Figure 3) uses register-flow (RF), register-anti
/// (RA) and memory-anti (MA) edges; the full set also includes register
/// output and memory flow/output dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Register flow (true) dependence: producer's value is read.
    RegFlow,
    /// Register anti dependence: a read must not follow the next write.
    /// Two register anti-dependent instructions may share a cycle (§4.3.3).
    RegAnti,
    /// Register output dependence (write after write).
    RegOut,
    /// Memory flow dependence (store → load, possibly unresolved).
    MemFlow,
    /// Memory anti dependence (load → store).
    MemAnti,
    /// Memory output dependence (store → store).
    MemOut,
}

impl DepKind {
    /// Whether this is a register dependence.
    pub fn is_register(self) -> bool {
        matches!(self, DepKind::RegFlow | DepKind::RegAnti | DepKind::RegOut)
    }

    /// Whether this is a memory dependence. Memory dependences define the
    /// *memory dependent chains* of §4.3.2.
    pub fn is_memory(self) -> bool {
        !self.is_register()
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::RegFlow => "RF",
            DepKind::RegAnti => "RA",
            DepKind::RegOut => "RO",
            DepKind::MemFlow => "MF",
            DepKind::MemAnti => "MA",
            DepKind::MemOut => "MO",
        };
        f.write_str(s)
    }
}

/// A dependence edge `from → to` with an iteration distance.
///
/// A distance of `d` means the instance of `to` in iteration `i + d` depends
/// on the instance of `from` in iteration `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Source operation.
    pub from: OpId,
    /// Destination operation.
    pub to: OpId,
    /// Dependence kind.
    pub kind: DepKind,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
}

impl DepEdge {
    /// Creates an edge.
    pub fn new(from: OpId, to: OpId, kind: DepKind, distance: u32) -> Self {
        DepEdge {
            from,
            to,
            kind,
            distance,
        }
    }
}

impl fmt::Display for DepEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -{}:d{}-> {}",
            self.from, self.kind, self.distance, self.to
        )
    }
}

/// Adjacency view of a kernel's dependence graph.
///
/// The view *borrows* the kernel's edge list (no copy) and stores the
/// per-operation adjacency in compressed sparse row (CSR) form: one flat
/// index array per direction plus `n_ops + 1` offsets, instead of a
/// `Vec<Vec<_>>` of per-node heap allocations. Built once per kernel and
/// shared by the MII computation, the node ordering and the scheduling
/// engine — all of which are on the scheduler's restart path, so building
/// must be cheap and allocation-light.
///
/// For each operation the edge indices (into
/// [`LoopKernel::edges`](crate::LoopKernel::edges)) appear in edge-list
/// order, exactly as the old nested-`Vec` layout produced them.
///
/// The strongly connected components ([`Ddg::sccs`]) are computed on
/// first use and cached, so a view built only to validate edge endpoints
/// never pays for them.
#[derive(Debug, Clone)]
pub struct Ddg<'k> {
    n_ops: usize,
    edges: &'k [DepEdge],
    // CSR adjacency: node v's outgoing edge indices are
    // succ_idx[succ_off[v]..succ_off[v+1]] (incoming: pred_*).
    succ_off: Vec<u32>,
    succ_idx: Vec<u32>,
    pred_off: Vec<u32>,
    pred_idx: Vec<u32>,
    sccs: OnceLock<Sccs>,
}

/// The strongly connected components (SCCs) of a dependence graph.
///
/// Every operation belongs to exactly one component. Components are
/// numbered in the order of their smallest member, and each component's
/// members are listed in ascending id order. A component is a
/// *recurrence* when at least one edge has both ends inside it: a
/// component of two or more operations always has one, a single
/// operation only through a self-edge. The recurrences are exactly the
/// node sets of the graph's elementary circuits, grouped by "shares a
/// node".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sccs {
    // component id per operation
    comp: Vec<u32>,
    // position of each operation inside its component's member list
    local: Vec<u32>,
    // component c's members are members[off[c]..off[c+1]]
    off: Vec<u32>,
    members: Vec<OpId>,
    // edges with both ends inside the component
    internal: Vec<u32>,
}

impl Sccs {
    /// Iterative Tarjan over the CSR successor lists.
    fn build(ddg: &Ddg<'_>) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let n = ddg.n_ops;
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        // DFS frames: (node, next position in its successor list)
        let mut frames: Vec<(u32, u32)> = Vec::new();
        let mut raw = vec![UNSEEN; n];
        let mut n_comps = 0u32;
        let mut next = 0u32;
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root as u32);
            on_stack[root] = true;
            frames.push((root as u32, ddg.succ_off[root]));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0 as usize;
                if frame.1 < ddg.succ_off[v + 1] {
                    let w = ddg.edges[ddg.succ_idx[frame.1 as usize] as usize]
                        .to
                        .index();
                    frame.1 += 1;
                    if index[w] == UNSEEN {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w as u32);
                        on_stack[w] = true;
                        frames.push((w as u32, ddg.succ_off[w]));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(u, _)) = frames.last() {
                    low[u as usize] = low[u as usize].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("v is on the stack") as usize;
                        on_stack[w] = false;
                        raw[w] = n_comps;
                        if w == v {
                            break;
                        }
                    }
                    n_comps += 1;
                }
            }
        }
        // renumber by smallest member, then list members by counting sort
        let mut renum = vec![UNSEEN; n_comps as usize];
        let mut comp = vec![0u32; n];
        let mut off = vec![0u32; n_comps as usize + 1];
        let mut fresh = 0u32;
        for v in 0..n {
            let r = &mut renum[raw[v] as usize];
            if *r == UNSEEN {
                *r = fresh;
                fresh += 1;
            }
            comp[v] = *r;
            off[*r as usize + 1] += 1;
        }
        for c in 0..n_comps as usize {
            off[c + 1] += off[c];
        }
        let mut cursor = off.clone();
        let mut members = vec![OpId::new(0); n];
        let mut local = vec![0u32; n];
        for v in 0..n {
            let c = comp[v] as usize;
            local[v] = cursor[c] - off[c];
            members[cursor[c] as usize] = OpId::new(v);
            cursor[c] += 1;
        }
        let mut internal = vec![0u32; n_comps as usize];
        for e in ddg.edges {
            let c = comp[e.from.index()];
            if c == comp[e.to.index()] {
                internal[c as usize] += 1;
            }
        }
        Sccs {
            comp,
            local,
            off,
            members,
            internal,
        }
    }

    /// Number of components (one per operation when the graph has no
    /// cycle).
    pub fn len(&self) -> usize {
        self.internal.len()
    }

    /// Whether the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.internal.is_empty()
    }

    /// The component `op` belongs to.
    pub fn component_of(&self, op: OpId) -> usize {
        self.comp[op.index()] as usize
    }

    /// `op`'s position inside [`Sccs::members`] of its component.
    pub fn local_index(&self, op: OpId) -> usize {
        self.local[op.index()] as usize
    }

    /// The members of component `c`, in ascending id order.
    pub fn members(&self, c: usize) -> &[OpId] {
        &self.members[self.off[c] as usize..self.off[c + 1] as usize]
    }

    /// Number of edges with both ends in component `c` (self-edges
    /// included).
    pub fn internal_edges(&self, c: usize) -> usize {
        self.internal[c] as usize
    }

    /// Whether component `c` carries a recurrence (has an internal edge).
    pub fn is_recurrence(&self, c: usize) -> bool {
        self.internal[c] > 0
    }

    /// The recurrence components, in component order.
    pub fn recurrences(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(|&c| self.is_recurrence(c))
    }
}

/// Builds one CSR direction: `key(edge)` is the node an edge is filed
/// under. Counting sort over nodes keeps edge indices in edge-list order.
fn csr(n_ops: usize, edges: &[DepEdge], key: impl Fn(&DepEdge) -> usize) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n_ops + 1];
    for e in edges {
        off[key(e) + 1] += 1;
    }
    for v in 0..n_ops {
        off[v + 1] += off[v];
    }
    let mut idx = vec![0u32; edges.len()];
    let mut cursor = off.clone();
    for (i, e) in edges.iter().enumerate() {
        let k = key(e);
        idx[cursor[k] as usize] = i as u32;
        cursor[k] += 1;
    }
    (off, idx)
}

impl<'k> Ddg<'k> {
    /// Builds the adjacency view for `kernel`, borrowing its edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an operation id outside the kernel.
    pub fn build(kernel: &'k LoopKernel) -> Self {
        Self::from_edges(kernel.ops.len(), &kernel.edges)
    }

    /// Builds the adjacency view over an explicit edge slice (`n_ops`
    /// operations).
    ///
    /// # Panics
    ///
    /// Panics if an edge references an operation id `>= n_ops`.
    pub fn from_edges(n_ops: usize, edges: &'k [DepEdge]) -> Self {
        for e in edges {
            assert!(e.from.index() < n_ops, "edge {e} references unknown source");
            assert!(e.to.index() < n_ops, "edge {e} references unknown target");
        }
        let (succ_off, succ_idx) = csr(n_ops, edges, |e| e.from.index());
        let (pred_off, pred_idx) = csr(n_ops, edges, |e| e.to.index());
        Ddg {
            n_ops,
            edges,
            succ_off,
            succ_idx,
            pred_off,
            pred_idx,
            sccs: OnceLock::new(),
        }
    }

    /// The strongly connected components, computed on first use.
    pub fn sccs(&self) -> &Sccs {
        self.sccs.get_or_init(|| Sccs::build(self))
    }

    /// The edges with both ends inside component `c` of [`Ddg::sccs`],
    /// as indices into [`Ddg::edges`]: each member's outgoing edges in
    /// edge-list order, members in ascending id order.
    pub fn component_edges(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        let sccs = self.sccs();
        let c32 = c as u32;
        sccs.members(c).iter().flat_map(move |&v| {
            let v = v.index();
            self.succ_idx[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
                .iter()
                .map(|&i| i as usize)
                .filter(move |&i| sccs.comp[self.edges[i].to.index()] == c32)
        })
    }

    /// Number of operations in the underlying kernel.
    pub fn n_ops(&self) -> usize {
        self.n_ops
    }

    /// All edges.
    pub fn edges(&self) -> &'k [DepEdge] {
        self.edges
    }

    /// Outgoing edges of `op`.
    pub fn succ_edges(&self, op: OpId) -> impl Iterator<Item = &'k DepEdge> + '_ {
        let v = op.index();
        self.succ_idx[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Incoming edges of `op`.
    pub fn pred_edges(&self, op: OpId) -> impl Iterator<Item = &'k DepEdge> + '_ {
        let v = op.index();
        self.pred_idx[self.pred_off[v] as usize..self.pred_off[v + 1] as usize]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Every edge incident to `op`: incoming edges first (in edge-list
    /// order), then outgoing. Self-edges appear once in each half. This is
    /// the view a placement searcher walks when it computes `op`'s
    /// feasible window against already-placed neighbors.
    pub fn incident_edges(&self, op: OpId) -> impl Iterator<Item = &'k DepEdge> + '_ {
        self.pred_edges(op).chain(self.succ_edges(op))
    }

    /// Number of edges incident to `op` (in-degree + out-degree; a
    /// self-edge counts twice). Cheap — two offset subtractions — so
    /// callers can size neighbor buffers before walking the edges.
    pub fn degree(&self, op: OpId) -> usize {
        let v = op.index();
        (self.pred_off[v + 1] - self.pred_off[v]) as usize
            + (self.succ_off[v + 1] - self.succ_off[v]) as usize
    }

    /// Successor operations of `op` (with repetitions if multiple edges).
    pub fn succs(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.succ_edges(op).map(|e| e.to)
    }

    /// Predecessor operations of `op` (with repetitions if multiple edges).
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        self.pred_edges(op).map(|e| e.from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::op::Opcode;

    #[test]
    fn dep_kind_classification() {
        assert!(DepKind::RegFlow.is_register());
        assert!(DepKind::RegAnti.is_register());
        assert!(DepKind::RegOut.is_register());
        assert!(DepKind::MemFlow.is_memory());
        assert!(DepKind::MemAnti.is_memory());
        assert!(DepKind::MemOut.is_memory());
    }

    #[test]
    fn adjacency_roundtrip() {
        let mut b = KernelBuilder::new("t");
        let (o1, r1) = b.int_const("c1");
        let (o2, r2) = b.int_op("a", Opcode::Add, &[r1.into()]);
        let (o3, _) = b.int_op("b", Opcode::Sub, &[r1.into(), r2.into()]);
        let k = b.finish(10.0);
        let g = Ddg::build(&k);
        assert_eq!(g.n_ops(), 3);
        let s1: Vec<_> = g.succs(o1).collect();
        assert!(s1.contains(&o2) && s1.contains(&o3));
        let p3: Vec<_> = g.preds(o3).collect();
        assert_eq!(p3.len(), 2);
        assert!(g.succ_edges(o2).all(|e| e.kind == DepKind::RegFlow));
    }

    #[test]
    fn csr_preserves_edge_list_order() {
        // two edges out of one node, plus a loop-carried back edge: the
        // succ/pred iterators must yield edges in edge-list order
        let mut b = KernelBuilder::new("t");
        let (o1, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_o2, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let (o3, _) = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let mut k = b.finish(1.0);
        k.edges.push(DepEdge::new(o3, o1, DepKind::RegFlow, 1));
        let g = Ddg::build(&k);
        let out1: Vec<_> = g.succ_edges(o1).collect();
        let expect: Vec<_> = k.edges.iter().filter(|e| e.from == o1).collect();
        assert_eq!(out1, expect, "succ edges keep edge-list order");
        let in1: Vec<_> = g.pred_edges(o1).map(|e| (e.from, e.distance)).collect();
        assert_eq!(in1, [(o3, 1)]);
        // edge slice is borrowed, not copied
        assert_eq!(g.edges().as_ptr(), k.edges.as_ptr());
    }

    #[test]
    fn incident_view_and_degree() {
        let mut b = KernelBuilder::new("t");
        let (o1, r1) = b.int_op("a", Opcode::Add, &[]);
        let (o2, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let (o3, _) = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let mut k = b.finish(1.0);
        k.edges.push(DepEdge::new(o3, o1, DepKind::RegFlow, 2));
        let g = Ddg::build(&k);
        assert_eq!(g.degree(o1), 3); // in: o3; out: o2, o3
        assert_eq!(g.degree(o2), 2);
        let inc: Vec<_> = g.incident_edges(o1).map(|e| (e.from, e.to)).collect();
        assert_eq!(inc, [(o3, o1), (o1, o2), (o1, o3)], "preds then succs");
        // degrees sum to twice the edge count
        let total: usize = (0..g.n_ops()).map(|i| g.degree(OpId::new(i))).sum();
        assert_eq!(total, 2 * k.edges.len());
    }

    /// Components by brute force: u and v share one iff each reaches the
    /// other (every node reaches itself).
    fn reach_components(g: &Ddg<'_>) -> Vec<Vec<bool>> {
        let n = g.n_ops();
        let mut reach = vec![vec![false; n]; n];
        for (s, row) in reach.iter_mut().enumerate() {
            let mut stack = vec![s];
            row[s] = true;
            while let Some(v) = stack.pop() {
                for w in g.succs(OpId::new(v)) {
                    if !row[w.index()] {
                        row[w.index()] = true;
                        stack.push(w.index());
                    }
                }
            }
        }
        reach
    }

    #[test]
    fn sccs_match_mutual_reachability() {
        // two 3-node cycles joined by a one-way edge, a self-loop, a chain
        let mut b = KernelBuilder::new("t");
        let ids: Vec<OpId> = (0..9)
            .map(|i| b.int_op(format!("n{i}"), Opcode::Add, &[]).0)
            .collect();
        let mut k = b.finish(1.0);
        let e = |f: usize, t: usize, d: u32| DepEdge::new(ids[f], ids[t], DepKind::RegFlow, d);
        k.edges = vec![
            e(0, 1, 0),
            e(1, 2, 0),
            e(2, 0, 1),
            e(2, 5, 0),
            e(5, 3, 1),
            e(3, 4, 0),
            e(4, 5, 0),
            e(6, 6, 1),
            e(7, 8, 0),
        ];
        let g = Ddg::build(&k);
        let sccs = g.sccs();
        let reach = reach_components(&g);
        for u in 0..9 {
            for v in 0..9 {
                let same = sccs.component_of(ids[u]) == sccs.component_of(ids[v]);
                assert_eq!(same, reach[u][v] && reach[v][u], "n{u} n{v}");
            }
        }
        // numbered by smallest member, members ascending
        let firsts: Vec<OpId> = (0..sccs.len()).map(|c| sccs.members(c)[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sccs.len(), 5);
        assert_eq!(sccs.members(1), [ids[3], ids[4], ids[5]]);
        for c in 0..sccs.len() {
            for (i, &v) in sccs.members(c).iter().enumerate() {
                assert_eq!(sccs.local_index(v), i);
            }
        }
        let internal: Vec<usize> = (0..sccs.len()).map(|c| sccs.internal_edges(c)).collect();
        assert_eq!(internal, [3, 3, 1, 0, 0]);
        assert_eq!(sccs.recurrences().collect::<Vec<_>>(), [0, 1, 2]);
        let edges: Vec<usize> = g.component_edges(1).collect();
        assert_eq!(edges, [5, 6, 4], "members ascending, edge-list order");
    }

    #[test]
    fn sccs_are_cached_and_cover_a_long_chain() {
        // a long cycle would overflow a recursive DFS on a small stack
        let mut b = KernelBuilder::new("t");
        let (first, mut r) = b.int_op("n0", Opcode::Add, &[]);
        let mut last = first;
        for i in 1..20_000 {
            let (o, v) = b.int_op(format!("n{i}"), Opcode::Add, &[r.into()]);
            last = o;
            r = v;
        }
        b.raw_edge(last, first, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert!(std::ptr::eq(g.sccs(), g.sccs()));
        assert_eq!(g.sccs().len(), 1);
        assert_eq!(g.sccs().internal_edges(0), 20_000);
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn build_rejects_dangling_edges() {
        let mut b = KernelBuilder::new("t");
        let (_, r) = b.int_const("c");
        let _ = b.int_op("a", Opcode::Add, &[r.into()]);
        let mut k = b.finish(1.0);
        k.edges.push(DepEdge::new(
            OpId::new(0),
            OpId::new(99),
            DepKind::RegFlow,
            0,
        ));
        let _ = Ddg::build(&k);
    }
}
