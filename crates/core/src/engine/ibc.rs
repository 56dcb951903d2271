//! IBC — Interleaved Build Chains (§4.3.2).
//!
//! Memory operations use the BASE communication/balance ranking, but all
//! members of a memory dependent chain follow the cluster chosen for the
//! chain's *first-scheduled* member: the first placement pins the chain,
//! and every later member inherits the pin. Profile information is not
//! consulted — IBC is the "build the chains as you go" heuristic.

use vliw_ir::OpId;

use super::policy::{AssignContext, AssignState, ClusterAssign};

/// The IBC policy (used by `ClusterPolicy::BuildChains`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ibc;

impl ClusterAssign for Ibc {
    fn name(&self) -> &'static str {
        "IBC"
    }

    fn constrains_chains_dynamically(&self) -> bool {
        true
    }

    fn pin(
        &self,
        op: OpId,
        ctx: &AssignContext<'_>,
        _pins: &[Option<usize>],
        state: &AssignState,
    ) -> Option<usize> {
        if ctx.kernel.op(op).is_mem() {
            ctx.chains
                .chain_id(op)
                .and_then(|c| state.chain_pin.get(&c).copied())
        } else {
            None
        }
    }

    fn commit(&self, op: OpId, cluster: usize, ctx: &AssignContext<'_>, state: &mut AssignState) {
        if ctx.kernel.op(op).is_mem() {
            if let Some(cid) = ctx.chains.chain_id(op) {
                state.chain_pin.entry(cid).or_insert(cluster);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{schedule_outcome, ClusterPolicy, ScheduleOptions};
    use crate::examples_443::{figure3_kernel, figure3_machine};

    /// §4.3.3 worked example under IBC: the n1–n2–n4 chain stays together
    /// in whichever cluster its first-scheduled member landed, REC2's load
    /// n6 lands in the other cluster purely for balance, and the schedule
    /// reaches the MII of 8.
    #[test]
    fn figure3_ibc_keeps_chain_together_at_mii() {
        let (k, ops) = figure3_kernel();
        let m = figure3_machine();
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::BuildChains))
            .expect("schedulable")
            .schedule;
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        let c = s.op(ops.n1).cluster;
        assert_eq!(s.op(ops.n2).cluster, c, "chain member n2 follows n1");
        assert_eq!(s.op(ops.n4).cluster, c, "chain member n4 follows n1");
        assert_ne!(
            s.op(ops.n6).cluster,
            c,
            "n6 balances into the other cluster"
        );
        assert_eq!(s.ii, 8, "schedule achieves the MII");
    }
}
