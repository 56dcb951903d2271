//! Register-pressure estimation for modulo schedules.
//!
//! §4.1 of the paper lists register pressure alongside II and SC as the
//! parameters that most affect a modulo-scheduled loop: a schedule needing
//! more registers than the machine has forces spill code or a larger II.
//! The standard estimate is **MaxLive** — the maximum number of
//! simultaneously live values in the steady-state kernel (Rau's
//! methodology): a value produced at cycle `p` and last consumed at cycle
//! `c` (its consumer `d` iterations later reads it at `c + d·II`) is live
//! in `ceil((span)/II)` overlapped iterations, contributing to every
//! kernel slot its lifetime crosses.

use vliw_ir::{DepKind, LoopKernel};

use crate::schedule::Schedule;

/// MaxLive of a schedule: the maximum over kernel slots of simultaneously
/// live register values (inter-cluster copies count in the destination
/// cluster from the copy's completion).
///
/// Values with no consumer are live for one cycle (their definition slot).
/// Live-in (loop-invariant) registers are excluded — they occupy
/// non-rotating registers whose count is II-independent.
pub fn max_live(kernel: &LoopKernel, schedule: &Schedule) -> usize {
    let ii = schedule.ii as i64;
    let mut pressure = vec![0i64; schedule.ii as usize];
    for op in &kernel.ops {
        if op.dst.is_none() {
            continue;
        }
        let def = schedule.op(op.id);
        let born = def.cycle as i64;
        // the value dies at its last read (in schedule space, reads happen
        // at consumer cycle + II * edge distance)
        let mut death = born + 1; // at least one cycle live
        for e in kernel
            .edges
            .iter()
            .filter(|e| e.from == op.id && e.kind == DepKind::RegFlow)
        {
            let cons = schedule.op(e.to);
            death = death.max(cons.cycle as i64 + ii * e.distance as i64);
        }
        // every kernel slot in [born, death) hosts one live copy per
        // crossed iteration
        let span = death - born;
        let full_turns = span / ii;
        let rem = span % ii;
        for (slot, p) in pressure.iter_mut().enumerate() {
            let slot = slot as i64;
            let covered = full_turns
                + if rem == 0 {
                    0
                } else {
                    let s = (slot - born).rem_euclid(ii);
                    (s < rem) as i64
                };
            *p += covered;
        }
    }
    pressure.into_iter().max().unwrap_or(0) as usize
}

/// Per-cluster MaxLive: pressure against each cluster's local register
/// file (the clustered architecture's actual constraint). A value lives in
/// its producer's cluster, and a copied value additionally lives in every
/// destination cluster from the copy onward.
pub fn max_live_per_cluster(
    kernel: &LoopKernel,
    schedule: &Schedule,
    n_clusters: usize,
) -> Vec<usize> {
    let ii = schedule.ii as i64;
    let mut pressure = vec![vec![0i64; schedule.ii as usize]; n_clusters];
    for op in &kernel.ops {
        if op.dst.is_none() {
            continue;
        }
        let def = schedule.op(op.id);
        // lifetime per cluster: in the producer's cluster from def to the
        // last same-cluster read or last copy departure; in each consumer
        // cluster from copy arrival to last read there
        let mut death_by_cluster: Vec<Option<(i64, i64)>> = vec![None; n_clusters];
        let born_home = def.cycle as i64;
        death_by_cluster[def.cluster] = Some((born_home, born_home + 1));
        for e in kernel
            .edges
            .iter()
            .filter(|e| e.from == op.id && e.kind == DepKind::RegFlow)
        {
            let cons = schedule.op(e.to);
            let read = cons.cycle as i64 + ii * e.distance as i64;
            if cons.cluster == def.cluster {
                let entry = death_by_cluster[def.cluster].get_or_insert((born_home, born_home + 1));
                entry.1 = entry.1.max(read);
            } else if let Some(copy) = schedule.copy_for(op.id, cons.cluster) {
                // producer side: live until the copy leaves
                let entry = death_by_cluster[def.cluster].get_or_insert((born_home, born_home + 1));
                entry.1 = entry.1.max(copy.cycle as i64);
                // consumer side: live from copy arrival to the read
                let arrive = copy.cycle as i64;
                let centry = death_by_cluster[cons.cluster].get_or_insert((arrive, arrive + 1));
                centry.0 = centry.0.min(arrive);
                centry.1 = centry.1.max(read);
            }
        }
        for (c, range) in death_by_cluster.iter().enumerate() {
            let Some((born, death)) = *range else {
                continue;
            };
            let span = (death - born).max(1);
            let full_turns = span / ii;
            let rem = span % ii;
            for (slot, p) in pressure[c].iter_mut().enumerate() {
                let slot = slot as i64;
                let covered = full_turns
                    + if rem == 0 {
                        0
                    } else {
                        let s = (slot - born).rem_euclid(ii);
                        (s < rem) as i64
                    };
                *p += covered;
            }
        }
    }
    pressure
        .into_iter()
        .map(|v| v.into_iter().max().unwrap_or(0) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy, ScheduleOptions};
    use vliw_ir::{ArrayKind, KernelBuilder, MemProfile, Opcode};
    use vliw_machine::MachineConfig;

    fn schedule(k: &LoopKernel) -> Schedule {
        let m = MachineConfig::word_interleaved_4();
        schedule_outcome(k, &m, ScheduleOptions::new(ClusterPolicy::Free))
            .unwrap()
            .schedule
    }

    #[test]
    fn chain_pressure_is_small() {
        // a -> b -> c, latencies 1: at II 1 each value lives ~1 cycle
        let mut b = KernelBuilder::new("t");
        let (_, r1) = b.int_op("a", Opcode::Add, &[]);
        let (_, r2) = b.int_op("b", Opcode::Sub, &[r1.into()]);
        let _ = b.int_op("c", Opcode::Xor, &[r2.into()]);
        let k = b.finish(16.0);
        let s = schedule(&k);
        let ml = max_live(&k, &s);
        assert!((2..=6).contains(&ml), "chain MaxLive {ml}");
    }

    #[test]
    fn long_latency_values_overlap_iterations() {
        // a load with a 15-cycle promise consumed at distance 0: at II 1
        // roughly 15 copies of the value are in flight
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 4096, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 16, 4);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        let _ = b.int_op("use", Opcode::Add, &[v.into()]);
        let k = b.finish(64.0);
        let s = schedule(&k);
        let expect = (s.op(vliw_ir::OpId::new(0)).assumed_latency as usize) / s.ii as usize;
        let ml = max_live(&k, &s);
        assert!(
            ml >= expect,
            "MaxLive {ml} must cover ~{expect} in-flight values"
        );
    }

    #[test]
    fn per_cluster_sums_bound_total() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 4096, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("m", Opcode::Mul, &[v.into()]);
        let (_, x) = b.int_op("n", Opcode::Add, &[w.into(), v.into()]);
        b.store("st", a, 2048, 4, 4, x);
        let k = b.finish(64.0);
        let s = schedule(&k);
        let total = max_live(&k, &s);
        let per = max_live_per_cluster(&k, &s, 4);
        // per-cluster peaks can exceed the global peak in sum (copies add
        // replicas) but each cluster alone never exceeds total + copies
        assert!(per.iter().sum::<usize>() >= total);
        assert!(per.iter().all(|&p| p <= total + s.n_comms() + 1));
    }

    #[test]
    fn storeless_values_live_one_cycle() {
        let mut b = KernelBuilder::new("t");
        let _ = b.int_op("lonely", Opcode::Add, &[]);
        let k = b.finish(8.0);
        let s = schedule(&k);
        assert_eq!(max_live(&k, &s), 1);
    }
}
