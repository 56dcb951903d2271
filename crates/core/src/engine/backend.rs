//! The scheduler-backend extension seam.
//!
//! [`SchedulerBackend`] abstracts the *entire* kernel → [`Schedule`]
//! transformation — front-end included — so whole alternative pipeliners
//! (not just cluster-assignment heuristics, which plug in one level lower
//! via [`ClusterAssign`](super::ClusterAssign)) are a single trait
//! implementation plus one [`SchedBackend`] arm. Two backends ship:
//!
//! * [`SwingModulo`] — the paper's §4.3.1 pipeline (latency assignment →
//!   SMS ordering → no-backtracking cluster assignment + slot placement);
//!   its output is pinned by the golden digests of `tests/golden/`.
//! * [`ExactBnB`] — an exact branch-and-bound modulo scheduler used as
//!   the optimality yardstick for the `optgap` study (see the
//!   [`bnb`](super::bnb) module).
//!
//! Backends return a [`ScheduleOutcome`] whose [`SchedQuality`] records
//! what the result *claims*: a heuristic makes no claim, an exact search
//! either proves optimality or reports that a node-budget cutoff limited
//! the proof. Cutoffs are first-class, counted outcomes
//! ([`SchedStats::cutoffs`](super::SchedStats)) — never a silent fallback.

use vliw_ir::LoopKernel;
use vliw_machine::MachineConfig;
use vliw_trace::Trace;

use super::{ExactBnB, SchedStats, ScheduleOptions};
use crate::schedule::{Schedule, ScheduleError};

/// A complete modulo-scheduling pipeline: everything between a profiled
/// kernel and a verified [`Schedule`].
///
/// Implementations must be stateless (`Sync`) — one static instance per
/// backend is handed out by [`SchedBackend::backend`], exactly like the
/// [`ClusterAssign`](super::ClusterAssign) policy objects one seam below.
pub trait SchedulerBackend: std::fmt::Debug + Sync {
    /// Short backend name (reports, memo diagnostics, bench labels).
    fn name(&self) -> &'static str;

    /// Schedules `kernel` for `machine`, returning the schedule together
    /// with the work counters and the backend's quality claim. Backends
    /// emit their per-stage spans and telemetry to `trace`; with
    /// [`Trace::off`] the call must be behaviorally identical to an
    /// uninstrumented one (the `tests/trace_overhead.rs` digest test pins
    /// this).
    ///
    /// # Errors
    ///
    /// [`ScheduleError::EmptyKernel`] for empty kernels;
    /// [`ScheduleError::NoSchedule`] when the search space is exhausted up
    /// to the II limit; [`ScheduleError::SearchCutoff`] when an exact
    /// backend ran out of node budget before finding any schedule.
    fn schedule(
        &self,
        kernel: &LoopKernel,
        machine: &MachineConfig,
        options: &ScheduleOptions,
        trace: Trace<'_>,
    ) -> Result<ScheduleOutcome, ScheduleError>;
}

/// What a backend's result claims about schedule quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedQuality {
    /// Produced by a heuristic pipeline; no optimality claim.
    Heuristic,
    /// The II is proven minimal: every smaller II ≥ MII was exhaustively
    /// refuted (or the II already equals the MII lower bound).
    ProvenOptimal,
    /// A feasible schedule, but the exact search hit its node budget at
    /// some smaller II, so optimality is unproven. The cutoff count is in
    /// [`SchedStats::cutoffs`](super::SchedStats).
    CutoffFeasible,
    /// The exact search exhausted its budget ladder
    /// ([`FallbackPolicy::RetryReducedBudget`]) and the service degraded
    /// to the heuristic incumbent — the [`SwingModulo`] schedule computed
    /// as the search's warm start. A *counted* degradation, never a
    /// silent one: the retry rungs are in
    /// [`SchedStats::fallback_retries`](super::SchedStats) and the
    /// cutoffs that forced them in
    /// [`SchedStats::cutoffs`](super::SchedStats).
    DegradedFallback,
}

impl SchedQuality {
    /// Whether this result carries an optimality proof.
    pub fn is_proven(self) -> bool {
        matches!(self, SchedQuality::ProvenOptimal)
    }
}

/// What an exact backend does when its deterministic deadline — the node
/// budget composed with [`ScheduleOptions::cost_ceiling`] — runs out
/// before the II question is decided.
///
/// The ladder is entirely wall-clock-free: every rung is measured in
/// candidate cells examined, so the same inputs exhaust the same rungs in
/// the same order on any machine, and a degraded answer is bit-identical
/// across runs (the determinism contract the fault-injection harness
/// asserts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FallbackPolicy {
    /// Exhaustion is an error: return
    /// [`ScheduleError::SearchCutoff`](crate::schedule::ScheduleError)
    /// even when a feasible incumbent exists. For callers that would
    /// rather fail a request than serve an unproven answer.
    Fail,
    /// Exhaustion serves the heuristic incumbent as
    /// [`SchedQuality::CutoffFeasible`] (the historical behavior, and the
    /// default); with no incumbent the cutoff is an error.
    #[default]
    Heuristic,
    /// Exhaustion walks a counted retry ladder before degrading: the
    /// search is re-run up to `max_retries` times, the budget divided by
    /// `factor` at each rung (a deterministic search re-explores a prefix
    /// of the same tree, so each rung is a cheap, bounded confirmation of
    /// the cutoff — the service analogue of retrying at cheaper tiers).
    /// When every rung confirms exhaustion the heuristic incumbent is
    /// served as [`SchedQuality::DegradedFallback`]; with no incumbent
    /// the cutoff is an error. Rungs are counted in
    /// [`SchedStats::fallback_retries`](super::SchedStats).
    RetryReducedBudget {
        /// Budget divisor per rung (clamped to ≥ 2 so the ladder always
        /// descends).
        factor: u32,
        /// Maximum rungs before degrading to the incumbent.
        max_retries: u32,
    },
}

/// A backend's full result: the schedule, the work counters, and the
/// quality claim.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The schedule produced.
    pub schedule: Schedule,
    /// Work counters (trial cycles, attempts, rollbacks, placements,
    /// cutoffs).
    pub stats: SchedStats,
    /// What the backend claims about the result.
    pub quality: SchedQuality,
    /// Rau's MaxLive ([`crate::pressure::max_live`]) of the returned
    /// schedule, populated by the exact backend — for
    /// [`SchedQuality::ProvenOptimal`] results it is additionally the
    /// minimum over a bounded tie-break enumeration at the optimal II, so
    /// proven-optimal schedules also minimize register lifetimes.
    /// Heuristic backends report `None` (callers can compute it on
    /// demand).
    pub max_live: Option<u32>,
}

/// The scheduler backends, as a value the experiment grid can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedBackend {
    /// The paper's heuristic pipeline ([`SwingModulo`]).
    SwingModulo,
    /// The exact branch-and-bound pipeliner ([`ExactBnB`]).
    ExactBnB,
    /// The load-delay-tracking pipeliner
    /// ([`DelayTracking`](super::DelayTracking)): swing placement over
    /// measured expected/percentile load latencies instead of the §4.3.3
    /// class latencies.
    DelayTracking,
}

impl SchedBackend {
    /// The [`SchedulerBackend`] implementation behind this value.
    pub fn backend(&self) -> &'static dyn SchedulerBackend {
        match self {
            SchedBackend::SwingModulo => &SwingModulo,
            SchedBackend::ExactBnB => &ExactBnB,
            SchedBackend::DelayTracking => &super::DelayTracking,
        }
    }

    /// Short name (same as the backend object's).
    pub fn name(&self) -> &'static str {
        self.backend().name()
    }

    /// Relative per-cell cost rank, used by the experiment grid to shard
    /// its work queue: heavier backends are dispatched first so their
    /// long-running cells do not become the parallel sweep's tail while
    /// cheap heuristic cells back-fill the workers. Only the order
    /// matters, not the magnitudes.
    pub fn cost_rank(&self) -> u8 {
        match self {
            SchedBackend::SwingModulo => 0,
            SchedBackend::DelayTracking => 1,
            SchedBackend::ExactBnB => 2,
        }
    }

    /// Every backend, the heuristic pipeline first.
    pub const ALL: [SchedBackend; 3] = [
        SchedBackend::SwingModulo,
        SchedBackend::ExactBnB,
        SchedBackend::DelayTracking,
    ];
}

/// The paper's §4.3.1 pipeline as a [`SchedulerBackend`], its output
/// pinned by the golden-digest and grid-determinism tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwingModulo;

impl SchedulerBackend for SwingModulo {
    fn name(&self) -> &'static str {
        "swing"
    }

    fn schedule(
        &self,
        kernel: &LoopKernel,
        machine: &MachineConfig,
        options: &ScheduleOptions,
        trace: Trace<'_>,
    ) -> Result<ScheduleOutcome, ScheduleError> {
        super::swing_schedule(kernel, machine, options, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{schedule_outcome, ClusterPolicy};
    use vliw_ir::{ArrayKind, KernelBuilder};

    fn kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Heap);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 512, 4, 4, v);
        b.finish(16.0)
    }

    #[test]
    fn swing_backend_is_bit_identical_to_direct_entry_point() {
        let k = kernel();
        let m = MachineConfig::word_interleaved_4();
        let opts = ScheduleOptions::new(ClusterPolicy::PreBuildChains);
        let direct = schedule_outcome(&k, &m, opts).unwrap();
        let via_trait = SwingModulo.schedule(&k, &m, &opts, Trace::off()).unwrap();
        assert_eq!(direct.schedule, via_trait.schedule);
    }

    #[test]
    fn heuristic_outcome_makes_no_optimality_claim() {
        let k = kernel();
        let m = MachineConfig::word_interleaved_4();
        let o = schedule_outcome(&k, &m, ScheduleOptions::new(ClusterPolicy::Free)).unwrap();
        assert_eq!(o.quality, SchedQuality::Heuristic);
        assert!(!o.quality.is_proven());
        assert_eq!(o.stats.cutoffs, 0, "heuristics never cut off");
    }

    #[test]
    fn backend_enum_resolves_names() {
        assert_eq!(SchedBackend::SwingModulo.name(), "swing");
        assert_eq!(SchedBackend::ExactBnB.name(), "bnb");
        assert_eq!(SchedBackend::DelayTracking.name(), "delay");
        assert_eq!(SchedBackend::ALL.len(), 3);
        // the exact search outranks both heuristics in the shard order
        assert!(SchedBackend::ExactBnB.cost_rank() > SchedBackend::DelayTracking.cost_rank());
        assert!(SchedBackend::DelayTracking.cost_rank() > SchedBackend::SwingModulo.cost_rank());
    }
}
