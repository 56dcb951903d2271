//! Shared plumbing for the bench targets and the `repro` binary.
//!
//! The bench targets (`sched`, `simulator`, `mshr`) use the
//! dependency-free [`harness`] (the workspace builds with no registry
//! access, so Criterion is out of reach). The paper's artifacts are
//! regenerated by the `repro` binary — run
//! `cargo run --release -p vliw-bench --bin repro full all`.

pub mod harness;

use std::time::{Duration, Instant};

use vliw_experiments::ExperimentContext;
use vliw_ir::LoopKernel;
use vliw_machine::MachineConfig;
use vliw_sched::{schedule_outcome, ClusterPolicy, SchedStats, ScheduleOptions};
use vliw_workloads::{profile_kernel, ArrayLayout};

/// The scheduling-throughput workload over the full 14-benchmark suite —
/// the population the `sched` bench measures.
pub fn sched_workload() -> (Vec<LoopKernel>, MachineConfig) {
    sched_workload_for(&ExperimentContext::full())
}

/// The scheduling-throughput workload for one context: every loop of the
/// context's benchmarks, profiled, at factor 1 plus an OUF-unrolled
/// variant when the OUF exceeds 1 (the `repro … sched` target shares
/// this builder).
///
/// # Panics
///
/// Panics, naming the kernel and the policy, if any policy fails to
/// schedule a workload kernel: every policy must measure the same
/// population, and a failure is a scheduler bug.
pub fn sched_workload_for(ctx: &ExperimentContext) -> (Vec<LoopKernel>, MachineConfig) {
    let mut profile = ctx.profile;
    profile.iteration_cap = 64;
    let mut kernels = Vec::new();
    for model in ctx.models() {
        for lw in &model.loops {
            let ouf = vliw_sched::optimal_unroll_factor(&lw.kernel, &ctx.machine);
            let mut factors = vec![1u32];
            if ouf > 1 {
                factors.push(ouf);
            }
            for f in factors {
                let mut k = vliw_ir::unroll(&lw.kernel, f);
                let layout = ArrayLayout::new(&k, &ctx.machine, true, ctx.workloads.profile_input);
                profile_kernel(&mut k, &ctx.machine, &layout, &profile);
                for p in ClusterPolicy::ALL {
                    schedule_outcome(&k, &ctx.machine, ScheduleOptions::new(p)).unwrap_or_else(
                        |e| panic!("workload kernel {} fails under {p:?}: {e}", k.name),
                    );
                }
                kernels.push(k);
            }
        }
    }
    (kernels, ctx.machine.clone())
}

/// One timed scheduling pass: every workload kernel under `policy`, with
/// the work counters summed. Shared by `benches/sched.rs` and the
/// `repro … sched` target so the bench printout and the tracked
/// `BENCH_repro.json` trajectory measure exactly the same thing.
///
/// # Panics
///
/// Panics if a kernel fails to schedule — [`sched_workload_for`] checks
/// that every policy schedules every workload kernel, so a failure is a
/// scheduler bug.
pub fn sched_pass(
    kernels: &[LoopKernel],
    machine: &MachineConfig,
    policy: ClusterPolicy,
) -> (SchedStats, Duration) {
    let mut stats = SchedStats::default();
    let t = Instant::now();
    for k in kernels {
        let outcome = schedule_outcome(
            std::hint::black_box(k),
            std::hint::black_box(machine),
            ScheduleOptions::new(policy),
        )
        .expect("every workload kernel schedules under every policy");
        std::hint::black_box(&outcome.schedule);
        stats.merge(&outcome.stats);
    }
    (stats, t.elapsed())
}
