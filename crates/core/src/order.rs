//! Swing-Modulo-Scheduling node ordering (§4.3.1 step 3, after \[13\]).
//!
//! The ordering gives priority to recurrences according to the constraints
//! they impose on the II (most constraining first) and guarantees that most
//! nodes — all except one per recurrence — have only predecessors or only
//! successors placed before them in the ordered list, which keeps register
//! pressure low and scheduling windows tight.
//!
//! Implementation outline (faithful to the published algorithm, in the
//! style of production SMS implementations):
//!
//! 1. The *recurrence sets* are the recurrence components of the DDG
//!    ([`Ddg::sccs`]): grouping circuits that share a node yields exactly
//!    the strongly connected components that contain a circuit. Each set's
//!    priority is its exact recurrence II ([`mii::component_rec_mii`]),
//!    which equals the largest circuit II inside it. Sets are sorted by
//!    descending priority, then size, then smallest node. No circuit list
//!    is needed, so a capped enumeration cannot hide a recurrence.
//! 2. Before ordering each set, pull in the nodes lying on intra-iteration
//!    paths between already-ordered nodes and the set.
//! 3. Remaining nodes form per-weakly-connected-component sets at the end.
//! 4. Within the accumulated work list, alternate top-down sweeps (pick
//!    highest *height* first) and bottom-up sweeps (pick highest *depth*
//!    first), seeding the direction from how the set connects to the nodes
//!    already ordered.
//!
//! All set bookkeeping is dense: per-node flags and set labels indexed by
//! op id. Every pick breaks ties by op id, so the order does not depend on
//! the order in which candidates are collected.

use vliw_ir::{Ddg, OpId};

use crate::circuits::Circuit;
use crate::mii;

/// Depth/height over the intra-iteration (distance-0) subgraph, and its
/// adjacency without duplicate pairs.
#[derive(Debug, Clone)]
struct DagInfo {
    depth: Vec<i64>,
    height: Vec<i64>,
    preds0: Vec<Vec<usize>>,
    succs0: Vec<Vec<usize>>,
}

fn dag_info(ddg: &Ddg<'_>, lat_of: &dyn Fn(OpId) -> u32) -> DagInfo {
    let n = ddg.n_ops();
    // Distance-0 edges always point forward in construction order (the
    // builder creates defs before uses), so this subgraph is acyclic and
    // id order is a topological order; backward ones from hand-built
    // graphs are ignored. Parallel edges between one pair count once, at
    // the latency of the first in edge-list order: the CSR walks keep
    // edge-list order, and `seen[u] == v` marks pairs already taken.
    let mut preds0 = vec![Vec::new(); n];
    let mut succs0 = vec![Vec::new(); n];
    let mut seen = vec![usize::MAX; n];
    let mut depth = vec![0i64; n];
    for v in 0..n {
        for e in ddg.pred_edges(OpId::new(v)) {
            let p = e.from.index();
            if e.distance != 0 || p >= v || seen[p] == v {
                continue;
            }
            seen[p] = v;
            preds0[v].push(p);
            let l = mii::edge_latency(e, lat_of) as i64;
            depth[v] = depth[v].max(depth[p] + l.max(1));
        }
    }
    seen.fill(usize::MAX);
    let mut height = vec![0i64; n];
    for v in (0..n).rev() {
        for e in ddg.succ_edges(OpId::new(v)) {
            let s = e.to.index();
            if e.distance != 0 || s <= v || seen[s] == v {
                continue;
            }
            seen[s] = v;
            succs0[v].push(s);
            let l = mii::edge_latency(e, lat_of) as i64;
            height[v] = height[v].max(height[s] + l.max(1));
        }
    }
    DagInfo {
        depth,
        height,
        preds0,
        succs0,
    }
}

/// Marks every node reachable from `stack` over `adj` (the seeds
/// included), skipping nodes already marked.
fn mark_reachable(stack: &mut Vec<usize>, adj: &[Vec<usize>], marked: &mut [bool]) {
    while let Some(v) = stack.pop() {
        for &w in &adj[v] {
            if !marked[w] {
                marked[w] = true;
                stack.push(w);
            }
        }
    }
}

/// Union-find root with path halving.
fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Computes the SMS node order for a kernel.
///
/// `lat_of` gives the (assigned) per-op latencies, which set the
/// recurrence priorities and the depth/height keys. The recurrences come
/// from the DDG's strongly connected components, so `_circuits` is
/// ignored; the parameter stays until the benchmark's hand replay of the
/// front end, which passes it, is rewritten.
pub fn sms_order(ddg: &Ddg<'_>, _circuits: &[Circuit], lat_of: impl Fn(OpId) -> u32) -> Vec<OpId> {
    const NONE: u32 = u32::MAX;
    let n = ddg.n_ops();
    if n == 0 {
        return Vec::new();
    }
    let info = dag_info(ddg, &lat_of);

    // --- step 1: recurrence sets ------------------------------------------------
    let sccs = ddg.sccs();
    let mut rec_sets: Vec<(u32, &[OpId])> = sccs
        .recurrences()
        .map(|c| (mii::component_rec_mii(ddg, c, &lat_of), sccs.members(c)))
        .collect();
    rec_sets.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(b.1.len().cmp(&a.1.len()))
            .then(a.1[0].cmp(&b.1[0]))
    });

    // --- steps 2-3: build the processing sets ------------------------------------
    // `set_of[v]` is the processing set v joined (NONE while untaken)
    let mut set_of = vec![NONE; n];
    let mut process_sets: Vec<Vec<usize>> = Vec::new();
    // nodes reachable from / reaching a taken node over distance-0 edges
    let mut below_taken = vec![false; n];
    let mut above_taken = vec![false; n];
    let mut visited = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for (_, members) in &rec_sets {
        let id = process_sets.len() as u32;
        let mut s: Vec<usize> = members
            .iter()
            .map(|o| o.index())
            .filter(|&v| set_of[v] == NONE)
            .collect();
        if s.is_empty() {
            continue;
        }
        for &v in &s {
            set_of[v] = id;
        }
        if !process_sets.is_empty() {
            // nodes on intra-iteration paths from ordered nodes into s (the
            // ancestors of s below a taken node), then from s down to
            // ordered nodes (the descendants of the grown s above one)
            for (adj, on_path) in [(&info.preds0, &below_taken), (&info.succs0, &above_taken)] {
                visited.fill(false);
                for &v in &s {
                    visited[v] = true;
                }
                stack.extend_from_slice(&s);
                while let Some(v) = stack.pop() {
                    for &w in &adj[v] {
                        if !visited[w] {
                            visited[w] = true;
                            stack.push(w);
                            if on_path[w] && set_of[w] == NONE {
                                set_of[w] = id;
                                s.push(w);
                            }
                        }
                    }
                }
            }
        }
        for (adj, marked) in [
            (&info.succs0, &mut below_taken),
            (&info.preds0, &mut above_taken),
        ] {
            for &v in &s {
                if !marked[v] {
                    marked[v] = true;
                    stack.push(v);
                }
            }
            mark_reachable(&mut stack, adj, marked);
        }
        process_sets.push(s);
    }
    // remaining nodes: weakly-connected components over all edges, in
    // order of their smallest node
    if set_of.contains(&NONE) {
        let mut parent: Vec<usize> = (0..n).collect();
        for e in ddg.edges() {
            let (a, b) = (
                find(&mut parent, e.from.index()),
                find(&mut parent, e.to.index()),
            );
            if a != b {
                parent[a] = b;
            }
        }
        let mut set_of_root = vec![NONE; n];
        for v in 0..n {
            if set_of[v] != NONE {
                continue;
            }
            let root = find(&mut parent, v);
            if set_of_root[root] == NONE {
                set_of_root[root] = process_sets.len() as u32;
                process_sets.push(Vec::new());
            }
            set_of[v] = set_of_root[root];
            process_sets[set_of[v] as usize].push(v);
        }
    }

    // --- step 4: the swing ordering ----------------------------------------------
    #[derive(PartialEq, Clone, Copy)]
    enum Dir {
        TopDown,
        BottomUp,
    }
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ordered = vec![false; n];
    let mut in_r = vec![false; n];
    for (si, s) in process_sets.iter().enumerate() {
        let in_s = |v: usize| set_of[v] == si as u32;
        // unordered members of s with an ordered node among `adj[v]`
        let touching = |adj: &[Vec<usize>], ordered: &[bool]| -> Vec<usize> {
            s.iter()
                .copied()
                .filter(|&v| !ordered[v] && adj[v].iter().any(|&w| ordered[w]))
                .collect()
        };
        // seed: how does this set connect to what is already ordered?
        // Seed priority follows SMS: prefer sweeping bottom-up from the
        // set's nodes that feed already-ordered nodes. This keeps each
        // recurrence circuit contiguous so that its closing node's window
        // is bounded by the circuit (II >= RecMII suffices), instead of by
        // unrelated far-apart anchors.
        let pred_of_ordered = touching(&info.succs0, &ordered);
        let succ_of_ordered = touching(&info.preds0, &ordered);
        let (mut r, mut dir);
        if !pred_of_ordered.is_empty() {
            r = pred_of_ordered;
            dir = Dir::BottomUp;
        } else if !succ_of_ordered.is_empty() {
            r = succ_of_ordered;
            dir = Dir::TopDown;
        } else {
            // start bottom-up from the node with the greatest ASAP (the tail
            // of the set's longest chain), as SMS does; deterministic
            // tie-break by height then id
            let seed = s.iter().copied().filter(|&v| !ordered[v]).max_by(|&a, &b| {
                info.depth[a]
                    .cmp(&info.depth[b])
                    .then(info.height[b].cmp(&info.height[a]))
                    .then(b.cmp(&a))
            });
            match seed {
                Some(v) => r = vec![v],
                None => continue,
            }
            dir = Dir::BottomUp;
        }
        for &v in &r {
            in_r[v] = true;
        }
        let mut left = s.iter().filter(|&&v| !ordered[v]).count();
        loop {
            while !r.is_empty() {
                // pick by height (top-down) or depth (bottom-up)
                let (i, v) = r
                    .iter()
                    .copied()
                    .enumerate()
                    .max_by(|&(_, a), &(_, b)| {
                        let (ka, kb) = match dir {
                            Dir::TopDown => (info.height[a], info.height[b]),
                            Dir::BottomUp => (info.depth[a], info.depth[b]),
                        };
                        ka.cmp(&kb)
                            .then(match dir {
                                Dir::TopDown => info.depth[b].cmp(&info.depth[a]),
                                Dir::BottomUp => info.height[b].cmp(&info.height[a]),
                            })
                            .then(b.cmp(&a))
                    })
                    .expect("nonempty");
                r.swap_remove(i);
                in_r[v] = false;
                if ordered[v] {
                    continue;
                }
                order.push(v);
                ordered[v] = true;
                left -= 1;
                let next = match dir {
                    Dir::TopDown => &info.succs0[v],
                    Dir::BottomUp => &info.preds0[v],
                };
                for &w in next {
                    if in_s(w) && !ordered[w] && !in_r[w] {
                        in_r[w] = true;
                        r.push(w);
                    }
                }
            }
            if left == 0 {
                break;
            }
            // swing: reverse direction, restart from the frontier
            dir = match dir {
                Dir::TopDown => Dir::BottomUp,
                Dir::BottomUp => Dir::TopDown,
            };
            r = match dir {
                Dir::TopDown => touching(&info.preds0, &ordered),
                Dir::BottomUp => touching(&info.succs0, &ordered),
            };
            if r.is_empty() {
                // disconnected leftover inside the set: reseed
                let seed = s
                    .iter()
                    .copied()
                    .filter(|&v| !ordered[v])
                    .max_by(|&a, &b| info.height[a].cmp(&info.height[b]).then(b.cmp(&a)));
                match seed {
                    Some(v) => r.push(v),
                    None => break,
                }
            }
            for &v in &r {
                in_r[v] = true;
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every op must be ordered");
    order.into_iter().map(OpId::new).collect()
}

/// Checks the SMS invariant the paper relies on: every node except (at
/// most) one per recurrence has, at the moment of its placement in the
/// order, only predecessors or only successors among the earlier nodes
/// (intra-iteration edges). Returns the number of violating nodes.
pub fn order_violations(ddg: &Ddg<'_>, order: &[OpId]) -> usize {
    let mut placed = vec![false; ddg.n_ops()];
    let mut bad = 0;
    for &v in order {
        let has_p = ddg
            .pred_edges(v)
            .any(|e| e.distance == 0 && placed[e.from.index()]);
        let has_s = ddg
            .succ_edges(v)
            .any(|e| e.distance == 0 && placed[e.to.index()]);
        if has_p && has_s {
            bad += 1;
        }
        placed[v.index()] = true;
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use crate::circuits::{elementary_circuits, EnumLimits};
    use vliw_ir::{DepKind, KernelBuilder, Opcode};

    fn order_of(k: &vliw_ir::LoopKernel) -> (Vec<OpId>, Ddg<'_>) {
        let g = Ddg::build(k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        let o = sms_order(&g, &cs, |_| 1);
        (o, g)
    }

    #[test]
    fn all_ops_ordered_exactly_once() {
        let mut b = KernelBuilder::new("t");
        let (_, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let _ = b.int_op("c", Opcode::Mul, &[r1.into(), r2.into()]);
        let _ = b.int_op_carried("acc", Opcode::Add, &[r2.into()], 1);
        let k = b.finish(1.0);
        let (o, _) = order_of(&k);
        assert_eq!(o.len(), 4);
        let set: HashSet<_> = o.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn recurrence_nodes_come_first() {
        let mut b = KernelBuilder::new("t");
        // free chain
        let (f1, rf) = b.int_op("f1", Opcode::Add, &[]);
        let (f2, _) = b.int_op("f2", Opcode::Sub, &[rf.into()]);
        // a recurrence with higher priority
        let (r1, rr) = b.int_op("r1", Opcode::Div, &[]);
        let (r2, _) = b.int_op("r2", Opcode::Add, &[rr.into()]);
        b.raw_edge(r2, r1, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let (o, _) = order_of(&k);
        let pos = |id: vliw_ir::OpId| o.iter().position(|&x| x == id).unwrap();
        assert!(pos(r1) < pos(f1));
        assert!(pos(r2) < pos(f2));
    }

    #[test]
    fn higher_ii_recurrence_ordered_first() {
        let mut b = KernelBuilder::new("t");
        // REC A: short (II = 2 at lat 1)
        let (a1, ra) = b.int_op("a1", Opcode::Add, &[]);
        let (a2, _) = b.int_op("a2", Opcode::Add, &[ra.into()]);
        b.raw_edge(a2, a1, DepKind::RegFlow, 1);
        // REC B: long (II = 4 at lat 1)
        let (b1, rb1) = b.int_op("b1", Opcode::Add, &[]);
        let (b2, rb2) = b.int_op("b2", Opcode::Add, &[rb1.into()]);
        let (b3, rb3) = b.int_op("b3", Opcode::Add, &[rb2.into()]);
        let (b4, _) = b.int_op("b4", Opcode::Add, &[rb3.into()]);
        b.raw_edge(b4, b1, DepKind::RegFlow, 1);
        let k = b.finish(1.0);
        let (o, _) = order_of(&k);
        let pos = |id: vliw_ir::OpId| o.iter().position(|&x| x == id).unwrap();
        for x in [b1, b2, b3, b4] {
            for y in [a1, a2] {
                assert!(pos(x) < pos(y), "REC B (higher II) must be ordered first");
            }
        }
    }

    #[test]
    fn sms_invariant_holds_on_diamond() {
        // diamond: a -> b, a -> c, b -> d, c -> d: only the closing node may
        // see both sides
        let mut b = KernelBuilder::new("t");
        let (_, ra) = b.int_op("a", Opcode::Add, &[]);
        let (_, rb) = b.int_op("b", Opcode::Sub, &[ra.into()]);
        let (_, rc) = b.int_op("c", Opcode::Mul, &[ra.into()]);
        let _ = b.int_op("d", Opcode::Add, &[rb.into(), rc.into()]);
        let k = b.finish(1.0);
        let (o, g) = order_of(&k);
        assert!(order_violations(&g, &o) <= 1);
    }

    #[test]
    fn chain_is_ordered_monotonically() {
        let mut b = KernelBuilder::new("t");
        let (n1, r1) = b.int_op("n1", Opcode::Add, &[]);
        let (n2, r2) = b.int_op("n2", Opcode::Add, &[r1.into()]);
        let (n3, r3) = b.int_op("n3", Opcode::Add, &[r2.into()]);
        let (n4, _) = b.int_op("n4", Opcode::Add, &[r3.into()]);
        let k = b.finish(1.0);
        let (o, g) = order_of(&k);
        // a pure chain: either all top-down or all bottom-up, and the SMS
        // invariant holds with zero violations
        assert_eq!(order_violations(&g, &o), 0);
        let pos = |id: vliw_ir::OpId| o.iter().position(|&x| x == id).unwrap();
        let ps = [pos(n1), pos(n2), pos(n3), pos(n4)];
        let increasing = ps.windows(2).all(|w| w[0] < w[1]);
        let decreasing = ps.windows(2).all(|w| w[0] > w[1]);
        assert!(increasing || decreasing);
    }

    #[test]
    fn empty_kernel_orders_nothing() {
        let b = KernelBuilder::new("t");
        let k = b.finish(1.0);
        let g = Ddg::build(&k);
        assert!(sms_order(&g, &[], |_| 1).is_empty());
    }
}
