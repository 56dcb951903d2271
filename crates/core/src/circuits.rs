//! Elementary-circuit enumeration (recurrences of the dependence graph).
//!
//! The latency-assignment step (§4.3.1, step 2) works "one recurrence at a
//! time, starting with the recurrence that has the highest II value", so it
//! needs the actual circuits, not just the RecMII bound. This module implements Johnson's algorithm extended to
//! multigraphs (parallel dependence edges are distinguished), with caps on
//! count and length as a safety valve for adversarial graphs.
//!
//! Every circuit lies inside one strongly connected component of the
//! DDG ([`Ddg::sccs`]), so the search starts only from members of
//! recurrence components and follows only edges that stay inside the
//! start node's component: an edge that leaves it can never lead back.
//! The RecMII ([`crate::mii::rec_mii`]) and the SMS recurrence sets
//! ([`crate::order::sms_order`]) come from the components directly, so
//! [`EnumLimits`] bounds only the circuits latency assignment works on.

use vliw_ir::{Ddg, OpId};

/// One elementary circuit of the dependence graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    /// Operations on the circuit, in traversal order.
    pub nodes: Vec<OpId>,
    /// Indices into [`Ddg::edges`] of the traversed edges;
    /// `edges[k]` goes from `nodes[k]` to `nodes[(k+1) % len]`.
    pub edges: Vec<usize>,
    /// Total iteration distance around the circuit (> 0 for any legal DDG).
    pub total_distance: u32,
}

impl Circuit {
    /// Whether `op` lies on this circuit.
    pub fn contains(&self, op: OpId) -> bool {
        self.nodes.contains(&op)
    }

    /// The initiation-interval bound imposed by this circuit under the
    /// given per-edge latency function: `ceil(Σ latency / Σ distance)`.
    pub fn ii_bound(&self, mut edge_latency: impl FnMut(usize) -> u32) -> u32 {
        let lat: u64 = self.edges.iter().map(|&e| edge_latency(e) as u64).sum();
        let dist = self.total_distance as u64;
        debug_assert!(
            dist > 0,
            "circuit with zero total distance is an illegal DDG"
        );
        lat.div_ceil(dist) as u32
    }
}

/// Limits for circuit enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EnumLimits {
    /// Maximum number of circuits returned.
    pub max_circuits: usize,
    /// Maximum circuit length in nodes.
    pub max_len: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_circuits: 50_000,
            max_len: 256,
        }
    }
}

/// Enumerates the elementary circuits of `ddg` (Johnson's algorithm over
/// the edge multigraph). Circuits come grouped by their smallest node, in
/// ascending order. Circuits whose total distance is zero would make the
/// loop unschedulable; they are reported by panicking in debug builds and
/// skipped in release builds.
pub fn elementary_circuits(ddg: &Ddg<'_>, limits: EnumLimits) -> Vec<Circuit> {
    let n = ddg.n_ops();
    let sccs = ddg.sccs();
    let mut result = Vec::new();
    // intra-component adjacency as (edge index, target) pairs, in
    // edge-list order
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for c in sccs.recurrences() {
        for i in ddg.component_edges(c) {
            let e = &ddg.edges()[i];
            adj[e.from.index()].push((i, e.to.index()));
        }
    }

    // Johnson's algorithm: for each start node s (ascending), find circuits
    // whose minimum node is s, restricted to nodes >= s.
    let mut blocked = vec![false; n];
    let mut block_list: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stack_nodes: Vec<usize> = Vec::new();
    let mut stack_edges: Vec<usize> = Vec::new();

    fn unblock(v: usize, blocked: &mut [bool], block_list: &mut [Vec<usize>]) {
        blocked[v] = false;
        let pending = std::mem::take(&mut block_list[v]);
        for w in pending {
            if blocked[w] {
                unblock(w, blocked, block_list);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn circuit(
        v: usize,
        s: usize,
        adj: &[Vec<(usize, usize)>],
        ddg: &Ddg<'_>,
        blocked: &mut Vec<bool>,
        block_list: &mut Vec<Vec<usize>>,
        stack_nodes: &mut Vec<usize>,
        stack_edges: &mut Vec<usize>,
        result: &mut Vec<Circuit>,
        limits: &EnumLimits,
    ) -> bool {
        if result.len() >= limits.max_circuits || stack_nodes.len() >= limits.max_len {
            return true; // pretend we found something so callers unblock
        }
        let mut found = false;
        stack_nodes.push(v);
        blocked[v] = true;
        for &(ei, w) in &adj[v] {
            if w < s {
                continue;
            }
            if w == s {
                // closed a circuit
                let mut edges = stack_edges.clone();
                edges.push(ei);
                let nodes: Vec<OpId> = stack_nodes.iter().map(|&i| OpId::new(i)).collect();
                let total_distance: u32 = edges.iter().map(|&e| ddg.edges()[e].distance).sum();
                if total_distance == 0 {
                    debug_assert!(
                        false,
                        "zero-distance circuit through {nodes:?}: illegal dependence graph"
                    );
                } else {
                    result.push(Circuit {
                        nodes,
                        edges,
                        total_distance,
                    });
                }
                found = true;
                if result.len() >= limits.max_circuits {
                    break;
                }
            } else if !blocked[w] {
                stack_edges.push(ei);
                if circuit(
                    w,
                    s,
                    adj,
                    ddg,
                    blocked,
                    block_list,
                    stack_nodes,
                    stack_edges,
                    result,
                    limits,
                ) {
                    found = true;
                }
                stack_edges.pop();
            }
        }
        if found {
            unblock(v, blocked, block_list);
        } else {
            for &(_, w) in &adj[v] {
                if w >= s && !block_list[w].contains(&v) {
                    block_list[w].push(v);
                }
            }
        }
        stack_nodes.pop();
        found
    }

    for s in 0..n {
        if result.len() >= limits.max_circuits {
            break;
        }
        let comp = sccs.component_of(OpId::new(s));
        if !sccs.is_recurrence(comp) {
            continue;
        }
        // the search from s never leaves s's component
        for &v in sccs.members(comp) {
            blocked[v.index()] = false;
            block_list[v.index()].clear();
        }
        circuit(
            s,
            s,
            &adj,
            ddg,
            &mut blocked,
            &mut block_list,
            &mut stack_nodes,
            &mut stack_edges,
            &mut result,
            &limits,
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{DepKind, KernelBuilder, Opcode};

    #[test]
    fn self_loop_is_one_circuit() {
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op_carried("acc", Opcode::Add, &[], 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].nodes.len(), 1);
        assert_eq!(cs[0].total_distance, 1);
    }

    #[test]
    fn two_node_cycle() {
        let mut b = KernelBuilder::new("t");
        let (a, ra) = b.int_op("a", Opcode::Add, &[]);
        let (bb, rb) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        // close the cycle: a reads b's previous value
        b.raw_edge(bb, a, DepKind::RegFlow, 1);
        let _ = rb;
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].nodes.len(), 2);
        assert_eq!(cs[0].total_distance, 1);
    }

    #[test]
    fn parallel_edges_yield_distinct_circuits() {
        let mut b = KernelBuilder::new("t");
        let (a, ra) = b.int_op("a", Opcode::Add, &[]);
        let (bb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(bb, a, DepKind::RegFlow, 1);
        b.raw_edge(bb, a, DepKind::RegAnti, 2);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        // two back edges -> two circuits through {a, b}
        assert_eq!(cs.len(), 2);
        let dists: Vec<u32> = cs.iter().map(|c| c.total_distance).collect();
        assert!(dists.contains(&1) && dists.contains(&2));
    }

    #[test]
    fn dag_has_no_circuits() {
        let mut b = KernelBuilder::new("t");
        let (_, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let _ = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert!(elementary_circuits(&g, EnumLimits::default()).is_empty());
    }

    #[test]
    fn ii_bound_rounds_up() {
        let mut b = KernelBuilder::new("t");
        let (a, ra) = b.int_op("a", Opcode::Add, &[]);
        let (bb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(bb, a, DepKind::RegFlow, 2);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        // latencies 3 per edge, total 6 over distance 2 -> II 3; 7 over 2 -> 4
        assert_eq!(cs[0].ii_bound(|_| 3), 3);
        let mut i = 0;
        assert_eq!(
            cs[0].ii_bound(|_| {
                i += 1;
                if i == 1 {
                    3
                } else {
                    4
                }
            }),
            4
        );
    }

    #[test]
    fn enumeration_respects_caps() {
        // complete-ish graph with back edges: many circuits
        let mut b = KernelBuilder::new("t");
        let mut ids = Vec::new();
        for i in 0..8 {
            let (id, _) = b.int_op(format!("n{i}"), Opcode::Add, &[]);
            ids.push(id);
        }
        for &u in &ids {
            for &v in &ids {
                if u != v {
                    b.raw_edge(u, v, DepKind::RegFlow, 1);
                }
            }
        }
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(
            &g,
            EnumLimits {
                max_circuits: 100,
                max_len: 8,
            },
        );
        assert!(cs.len() <= 100);
        assert!(!cs.is_empty());
    }

    #[test]
    fn figure3_has_two_recurrences() {
        // the shape of the paper's Figure 3: two disjoint recurrences
        let mut b = KernelBuilder::new("fig3");
        let (n1, r1) = b.int_op("n1", Opcode::Add, &[]);
        let (_n2, r2) = b.int_op("n2", Opcode::Add, &[r1.into()]);
        let (_n3, r3) = b.int_op("n3", Opcode::Add, &[r2.into()]);
        let (_n5, r5) = b.int_op("n5", Opcode::Sub, &[r3.into()]);
        let (n4, _) = b.int_op("n4", Opcode::Add, &[r5.into()]);
        b.raw_edge(n4, n1, DepKind::RegAnti, 1);
        let (n6, r6) = b.int_op("n6", Opcode::Add, &[]);
        let (_n7, r7) = b.int_op("n7", Opcode::Div, &[r6.into()]);
        let (n8, _) = b.int_op("n8", Opcode::Add, &[r7.into()]);
        b.raw_edge(n8, n6, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assert_eq!(cs.len(), 2);
        let sizes: Vec<usize> = cs.iter().map(|c| c.nodes.len()).collect();
        assert!(sizes.contains(&5) && sizes.contains(&3));
    }
}
