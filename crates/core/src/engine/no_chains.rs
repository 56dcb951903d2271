//! The chain-less ablation (Figures 4 and 7).
//!
//! Every memory operation is pinned to its *own* profiled preferred
//! cluster, ignoring memory dependent chains entirely. **Not correct for
//! execution** on the interleaved machine — memory serialization is only
//! guaranteed within a cluster — but the paper uses it to quantify what
//! chains cost in local hits and workload balance.

use vliw_ir::LoopKernel;

use super::policy::ClusterAssign;
use crate::chains::MemChains;

/// The analysis-only no-chains policy (used by `ClusterPolicy::NoChains`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoChains;

impl ClusterAssign for NoChains {
    fn name(&self) -> &'static str {
        "no-chains"
    }

    fn precompute_pins(
        &self,
        kernel: &LoopKernel,
        _chains: &MemChains,
        n_clusters: usize,
    ) -> Vec<Option<usize>> {
        let mut pins = vec![None; kernel.ops.len()];
        for op in kernel.mem_ops() {
            if let Some(c) = op.mem.as_ref().and_then(|m| m.preferred_cluster()) {
                pins[op.id.index()] = Some(c.min(n_clusters - 1));
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

    /// §4.3.3 worked example under the ablation: chain membership is
    /// ignored, so n4 (preference 1) splits away from n1/n2 (preference 0)
    /// — exactly the split the chain constraint exists to forbid.
    #[test]
    fn figure3_no_chains_splits_the_chain_to_preferences() {
        let (k, ops) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::NoChains))
            .expect("schedulable")
            .schedule;
        assert!(s.verify(&k, &m).is_empty(), "resource/dependence legal");
        assert_eq!(s.op(ops.n1).cluster, 0);
        assert_eq!(s.op(ops.n2).cluster, 0);
        assert_eq!(s.op(ops.n4).cluster, 1, "n4 follows its own preference");
        assert_eq!(s.op(ops.n6).cluster, 1);
    }

    /// Pins come from per-op preferences, clamped to the machine.
    #[test]
    fn pins_are_per_op_preferences() {
        let (k, ops) = figure3_kernel();
        let chains = MemChains::build(&k);
        let pins = NoChains.precompute_pins(&k, &chains, 2);
        assert_eq!(pins[ops.n1.index()], Some(0));
        assert_eq!(pins[ops.n2.index()], Some(0));
        assert_eq!(pins[ops.n4.index()], Some(1), "chain membership ignored");
        assert_eq!(pins[ops.n6.index()], Some(1));
    }
}
