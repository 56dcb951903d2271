//! Minimum initiation interval: resource bound and recurrence bound.

use vliw_ir::{Ddg, DepEdge, DepKind, FuKind, LoopKernel, OpId};
use vliw_machine::MachineConfig;

/// The latency a dependence edge imposes on the schedule
/// (`t(to) ≥ t(from) + latency − II × distance`), given a per-operation
/// execution-latency function.
///
/// * register flow: the producer's latency;
/// * register anti: 0 — "two register anti-dependent instructions can be
///   scheduled in the same cycle" (§4.3.3);
/// * register output: 1;
/// * memory flow/output: 1 — within-cluster serialization only requires
///   issue order (the chain constraint puts both ends in one cluster);
/// * memory anti: 0 — the reader may issue in the same cycle slot group
///   (the single memory unit per cluster already serializes same-cycle
///   conflicts).
pub fn edge_latency(edge: &DepEdge, mut lat_of: impl FnMut(OpId) -> u32) -> u32 {
    match edge.kind {
        DepKind::RegFlow => lat_of(edge.from),
        DepKind::RegAnti => 0,
        DepKind::RegOut => 1,
        DepKind::MemFlow | DepKind::MemOut => 1,
        DepKind::MemAnti => 0,
    }
}

/// Resource-constrained MII: for each functional-unit kind, the ops of that
/// kind divided by the machine-wide unit count, rounded up.
pub fn res_mii(kernel: &LoopKernel, machine: &MachineConfig) -> u32 {
    let n = machine.clusters.n_clusters;
    let mut worst = 1u32;
    for kind in FuKind::ALL {
        let ops = kernel.ops.iter().filter(|o| o.fu_kind() == kind).count();
        let units = machine.clusters.fu_count(kind) * n;
        if units == 0 {
            assert_eq!(ops, 0, "ops of kind {kind} but no units");
            continue;
        }
        worst = worst.max(ops.div_ceil(units) as u32);
    }
    worst
}

/// Exact recurrence-constrained MII under the given per-op latency
/// function: the smallest `II` such that no dependence cycle has
/// `Σ latency > II × Σ distance`, i.e. the largest
/// [`component_rec_mii`] over the recurrence components of
/// [`Ddg::sccs`] (0 for a graph without cycles). Every cycle lies inside
/// one component, so the value is exact and needs no circuit list.
pub fn rec_mii(ddg: &Ddg<'_>, mut lat_of: impl FnMut(OpId) -> u32) -> u32 {
    ddg.sccs()
        .recurrences()
        .map(|c| component_rec_mii(ddg, c, &mut lat_of))
        .max()
        .unwrap_or(0)
}

/// The recurrence MII of one strongly connected component `c` of
/// [`Ddg::sccs`]: the largest `⌈Σ latency / Σ distance⌉` over the
/// circuits inside it (0 for a component without an internal edge).
///
/// A component with as many internal edges as members is one simple
/// cycle, and the closed form is exact. Otherwise a binary search over
/// II runs Bellman-Ford positive-cycle detection on the component's
/// edges only. A zero-distance cycle of positive latency (an illegal
/// graph) makes every II infeasible; the result then exceeds the
/// component's total latency.
pub fn component_rec_mii(ddg: &Ddg<'_>, c: usize, mut lat_of: impl FnMut(OpId) -> u32) -> u32 {
    let sccs = ddg.sccs();
    let all = ddg.edges();
    let edges: Vec<(usize, usize, i64, i64)> = ddg
        .component_edges(c)
        .map(|i| {
            let e = &all[i];
            (
                sccs.local_index(e.from),
                sccs.local_index(e.to),
                edge_latency(e, &mut lat_of) as i64,
                e.distance as i64,
            )
        })
        .collect();
    let n = sccs.members(c).len();
    let total_lat: i64 = edges.iter().map(|e| e.2).sum();
    let total_dist: i64 = edges.iter().map(|e| e.3).sum();
    if sccs.internal_edges(c) == n && total_dist > 0 {
        return (total_lat as u64).div_ceil(total_dist as u64) as u32;
    }
    let (mut lo, mut hi) = (0i64, total_lat.max(0) + 1);
    // invariant: hi is feasible, lo-1 ... search smallest feasible
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(n, &edges, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// Longest-path Bellman-Ford: does any cycle have positive total weight
/// `Σ (lat − II·dist)`?
fn has_positive_cycle(n: usize, edges: &[(usize, usize, i64, i64)], ii: i64) -> bool {
    if n == 0 {
        return false;
    }
    let mut dist = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for &(u, v, lat, d) in edges {
            let w = lat - ii * d;
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, KernelBuilder, Opcode};

    fn lat1(_: OpId) -> u32 {
        1
    }

    #[test]
    fn res_mii_counts_fu_pressure() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        // 5 loads on 4 memory units -> ResMII 2
        for i in 0..5 {
            let _ = b.load(format!("ld{i}"), a, 4 * i, 4, 4);
        }
        // 3 int ops on 4 int units -> 1
        for i in 0..3 {
            let _ = b.int_op(format!("i{i}"), Opcode::Add, &[]);
        }
        let k = b.finish(1.0);
        let m = MachineConfig::word_interleaved_4();
        assert_eq!(res_mii(&k, &m), 2);
    }

    #[test]
    fn rec_mii_zero_for_dag() {
        let mut b = KernelBuilder::new("t");
        let (_, r) = b.int_op("a", Opcode::Add, &[]);
        let _ = b.int_op("b", Opcode::Sub, &[r.into()]);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, lat1), 0);
    }

    #[test]
    fn rec_mii_simple_cycle() {
        // a -> b (lat 1) -> a (lat 1, dist 1): II >= 2
        let mut b = KernelBuilder::new("t");
        let (na, ra) = b.int_op("a", Opcode::Add, &[]);
        let (nb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(nb, na, vliw_ir::DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, lat1), 2);
        // with 5-cycle ops: (5+5)/1 = 10
        assert_eq!(rec_mii(&g, |_| 5), 10);
    }

    #[test]
    fn rec_mii_distance_divides() {
        // self-recurrence at distance 3 with latency 7 -> ceil(7/3) = 3
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op_carried("acc", Opcode::Add, &[], 3);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, |_| 7), 3);
        assert_eq!(rec_mii(&g, |_| 6), 2);
    }

    #[test]
    fn rec_mii_takes_worst_recurrence() {
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op_carried("fast", Opcode::Add, &[], 2); // ceil(l/2)
        let _ = b.int_op_carried("slow", Opcode::Add, &[], 1); // l
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert_eq!(rec_mii(&g, |_| 4), 4);
    }

    #[test]
    fn component_rec_mii_per_recurrence() {
        // component {a, b}: two circuits, 4/1 and 3/2 -> 4; a self-loop 5/2 -> 3
        let mut b = KernelBuilder::new("t");
        let (na, ra) = b.int_op("a", Opcode::Add, &[]);
        let (nb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(nb, na, vliw_ir::DepKind::RegFlow, 1);
        b.raw_edge(nb, na, vliw_ir::DepKind::RegOut, 2);
        let _ = b.int_op_carried("acc", Opcode::Add, &[], 2);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        let lat = |op: OpId| [2, 2, 5][op.index()];
        let sccs = g.sccs();
        assert_eq!(component_rec_mii(&g, sccs.component_of(na), lat), 4);
        assert_eq!(
            component_rec_mii(&g, sccs.component_of(OpId::new(2)), lat),
            3
        );
        assert_eq!(rec_mii(&g, lat), 4);
    }

    #[test]
    fn closed_form_agrees_with_the_search_on_simple_cycles() {
        // a 3-cycle (one simple cycle) at several latencies and distances
        for dist in 1..4 {
            for l in 0u32..7 {
                let mut b = KernelBuilder::new("t");
                let (n0, r0) = b.int_op("a", Opcode::Add, &[]);
                let (_, r1) = b.int_op("b", Opcode::Add, &[r0.into()]);
                let (n2, _) = b.int_op("c", Opcode::Add, &[r1.into()]);
                b.raw_edge(n2, n0, vliw_ir::DepKind::RegFlow, dist);
                let k = b.finish(1.0);
                let g = Ddg::build(&k);
                let sccs = g.sccs();
                assert_eq!(sccs.internal_edges(0), sccs.members(0).len());
                let ratio = (3 * l).div_ceil(dist);
                assert_eq!(rec_mii(&g, |_| l), ratio, "lat {l} dist {dist}");
                // a parallel zero-latency edge leaves the bound unchanged
                // but forces the Bellman-Ford path
                let mut k2 = k.clone();
                k2.edges
                    .push(DepEdge::new(n2, n0, vliw_ir::DepKind::RegAnti, dist));
                assert_eq!(rec_mii(&Ddg::build(&k2), |_| l), ratio);
            }
        }
    }

    #[test]
    fn anti_edges_are_free() {
        let mut b = KernelBuilder::new("t");
        let (na, ra) = b.int_op("a", Opcode::Add, &[]);
        let (nb, _) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        b.raw_edge(nb, na, vliw_ir::DepKind::RegAnti, 1);
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        // circuit latency = lat(a->b flow) + 0 (anti) = lat(a)
        assert_eq!(rec_mii(&g, |_| 3), 3);
    }

    #[test]
    fn edge_latency_kinds() {
        use vliw_ir::DepKind::*;
        let e = |kind| DepEdge::new(OpId::new(0), OpId::new(1), kind, 0);
        assert_eq!(edge_latency(&e(RegFlow), |_| 9), 9);
        assert_eq!(edge_latency(&e(RegAnti), |_| 9), 0);
        assert_eq!(edge_latency(&e(RegOut), |_| 9), 1);
        assert_eq!(edge_latency(&e(MemFlow), |_| 9), 1);
        assert_eq!(edge_latency(&e(MemAnti), |_| 9), 0);
        assert_eq!(edge_latency(&e(MemOut), |_| 9), 1);
    }
}
