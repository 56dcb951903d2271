//! The paper's core contribution: modulo-scheduling techniques for an
//! interleaved-cache clustered VLIW processor.
//!
//! This crate implements §4 of *"Effective Instruction Scheduling Techniques
//! for an Interleaved Cache Clustered VLIW Processor"* (Gibert, Sánchez &
//! González, MICRO-35, 2002):
//!
//! 1. **Selective loop unrolling** ([`unroll_select`]) — per-loop optimal
//!    unrolling factors (`Ui = N×I / gcd(N×I, Si mod N×I)`, `OUF = lcm Ui`)
//!    and the three-way selection among no unrolling, unroll×N and OUF by
//!    the execution-time estimate `Texec = (avgiter + SC − 1) × II`.
//! 2. **Latency assignment** ([`latency`]) — loads start at the remote-miss
//!    latency; recurrences are relaxed to the all-local-hit MII by repeatedly
//!    applying the change with the best benefit `B = ΔII / Δstall`, then
//!    de-slacked to sit exactly at the MII.
//! 3. **SMS node ordering** ([`order`]) after Llosa et al.
//! 4. **Cluster assignment + scheduling** ([`engine`]) in a single
//!    no-backtracking pass with explicit inter-cluster copies on
//!    half-frequency register buses, under four policies: BASE (unified /
//!    multiVLIW), IBC, IPBC and the chain-less ablation. The whole
//!    pipeline sits behind the [`SchedulerBackend`] seam: [`SwingModulo`]
//!    is the paper's heuristic, [`ExactBnB`] an exact branch-and-bound
//!    reference that measures its optimality gap.
//! 5. **Memory dependent chains** ([`chains`]) for memory correctness, and
//!    **Attraction-Buffer hints** ([`hints`]) for the §5.2 overflow fix.
//!
//! The [`examples_443`] module rebuilds the paper's Figure 3 worked example;
//! its tests assert every number in §4.3.3 (the MII of 8, recurrence IIs of
//! 5/8/33/22, the benefit table, final latencies of n1 = 4 / n2 = 1 / n6 = 1
//! and the IBC/IPBC placements).
//!
//! # Example
//!
//! Schedule a simple strided loop for the paper's 4-cluster machine with
//! the IPBC heuristic:
//!
//! ```
//! use vliw_ir::{ArrayKind, KernelBuilder, Opcode};
//! use vliw_machine::MachineConfig;
//! use vliw_sched::{schedule_outcome, ClusterPolicy, ScheduleOptions};
//!
//! let mut b = KernelBuilder::new("saxpy");
//! let x = b.array("x", 4096, ArrayKind::Heap);
//! let y = b.array("y", 4096, ArrayKind::Heap);
//! let (_, xv) = b.load("ld_x", x, 0, 4, 4);
//! let (_, yv) = b.load("ld_y", y, 0, 4, 4);
//! let (_, p) = b.int_op("mul", Opcode::Mul, &[xv.into()]);
//! let (_, s) = b.int_op("add", Opcode::Add, &[p.into(), yv.into()]);
//! b.store("st_y", y, 0, 4, 4, s);
//! let kernel = b.finish(1024.0);
//!
//! let machine = MachineConfig::word_interleaved_4();
//! let sched = schedule_outcome(&kernel, &machine, ScheduleOptions::new(ClusterPolicy::PreBuildChains))?.schedule;
//! assert!(sched.verify(&kernel, &machine).is_empty());
//! # Ok::<(), vliw_sched::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod chains;
pub mod circuits;
pub mod engine;
pub mod examples_443;
pub mod hints;
pub mod latency;
pub mod mii;
pub mod mrt;
pub mod order;
pub mod pressure;
pub mod schedule;
pub mod unroll_select;

pub use balance::weighted_workload_balance;
pub use chains::MemChains;
pub use circuits::{elementary_circuits, Circuit, EnumLimits};
pub use engine::{
    schedule_outcome, schedule_outcome_traced, schedule_problem, AssignContext, AssignState,
    ClusterAssign, ClusterPolicy, DelayTracking, ExactBnB, FallbackPolicy, Neighbor, SchedBackend,
    SchedQuality, SchedStats, ScheduleOptions, ScheduleOutcome, ScheduleProblem, SchedulerBackend,
    SwingModulo, DEFAULT_NODE_BUDGET,
};
pub use hints::{attraction_hints, AttractionHints};
pub use latency::{
    assign_latencies_with_pins, assign_profiled_latencies, delay_tracking_latency, BenefitStep,
    CandidateEval, LatencyAssignment,
};
pub use mii::{component_rec_mii, edge_latency, rec_mii, res_mii};
pub use mrt::{Mrt, MrtSavepoint};
pub use order::sms_order;
pub use pressure::{max_live, max_live_per_cluster};
pub use schedule::{Schedule, ScheduleError, ScheduledCopy, ScheduledOp};
pub use unroll_select::{
    individual_unroll_factor, optimal_unroll_factor, prefer_variant, unroll_candidates,
    UnrollChoice,
};
