//! BASE (§4.2): the plain communication/balance heuristic.
//!
//! Memory operations are placed like any other operation — the candidate
//! ranking minimizes new inter-cluster copies, then maximizes affinity,
//! then balances workload. No chain constraint and no preferred-cluster
//! pins, so this is only *memory-correct* on machines whose cache serializes
//! accesses globally: the unified-cache and multiVLIW configurations.

use super::policy::ClusterAssign;

/// The BASE policy (used by `ClusterPolicy::Free`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Base;

impl ClusterAssign for Base {
    fn name(&self) -> &'static str {
        "BASE"
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{schedule_outcome, ClusterPolicy, ScheduleOptions};
    use crate::examples_443::{figure3_kernel, figure3_machine};

    /// §4.3.3 worked example under BASE: the schedule is legal and reaches
    /// the MII of 8, but nothing keeps the n1–n2–n4 memory chain together —
    /// BASE is the unified/multiVLIW policy, where chains need no pinning.
    #[test]
    fn figure3_base_reaches_mii_with_no_chain_guarantee() {
        let (k, _ops, m) = {
            let (k, ops) = figure3_kernel();
            (k, ops, figure3_machine())
        };
        let s = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free))
            .expect("schedulable")
            .schedule;
        assert!(s.verify(&k, &m).is_empty(), "legal schedule");
        assert_eq!(s.ii, 8, "BASE also achieves the MII on Figure 3");
    }
}
