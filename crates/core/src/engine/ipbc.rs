//! IPBC — Interleaved Pre-Build Chains (§4.3.2).
//!
//! Chains are computed *before* scheduling and pinned to their average
//! preferred cluster — each member votes with its profiled preferred
//! cluster and the majority wins (ties to the lowest-numbered cluster).
//! Chains with no profile data, and all non-memory operations, fall back
//! to the BASE ranking.

use vliw_ir::LoopKernel;

use super::policy::ClusterAssign;
use crate::chains::MemChains;

/// The IPBC policy (used by `ClusterPolicy::PreBuildChains`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ipbc;

impl ClusterAssign for Ipbc {
    fn name(&self) -> &'static str {
        "IPBC"
    }

    fn precompute_pins(
        &self,
        kernel: &LoopKernel,
        chains: &MemChains,
        n_clusters: usize,
    ) -> Vec<Option<usize>> {
        let mut pins = vec![None; kernel.ops.len()];
        for (cid, members) in chains.iter() {
            if let Some(c) = chains.preferred_cluster(cid, kernel, n_clusters) {
                for &m in members {
                    pins[m.index()] = Some(c);
                }
            }
        }
        pins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy, ScheduleOptions};
    use crate::examples_443::{figure3_kernel, figure3_machine};

    /// §4.3.3 worked example under IPBC: the n1–n2–n4 chain (preferences
    /// {0, 0, 1}) is pre-pinned to its average preferred cluster 0, n6 goes
    /// to its preferred cluster 1, and the schedule reaches the MII of 8.
    #[test]
    fn figure3_ipbc_pins_chain_to_average_preferred_cluster() {
        let (k, ops) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::PreBuildChains))
            .expect("schedulable")
            .schedule;
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        assert_eq!(s.op(ops.n1).cluster, 0);
        assert_eq!(s.op(ops.n2).cluster, 0);
        assert_eq!(s.op(ops.n4).cluster, 0);
        assert_eq!(
            s.op(ops.n6).cluster,
            1,
            "n6 pinned to its preferred cluster"
        );
        assert_eq!(s.ii, 8, "schedule achieves the MII");
    }

    /// The precomputed pins match the chain votes directly.
    #[test]
    fn figure3_precomputed_pins_follow_the_votes() {
        let (k, ops) = figure3_kernel();
        let chains = MemChains::build(&k);
        let pins = Ipbc.precompute_pins(&k, &chains, 2);
        assert_eq!(pins[ops.n1.index()], Some(0));
        assert_eq!(pins[ops.n2.index()], Some(0));
        assert_eq!(
            pins[ops.n4.index()],
            Some(0),
            "outvoted member follows the chain"
        );
        assert_eq!(pins[ops.n6.index()], Some(1));
        assert_eq!(
            pins[ops.n3.index()],
            None,
            "non-memory ops are never pinned"
        );
    }
}
