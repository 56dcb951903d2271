//! The scheduling engine: cluster assignment and slot placement in a single
//! step (§4.2 and §4.3.1 step 4), with no backtracking — any failure bumps
//! the II and restarts, exactly as the paper describes.
//!
//! Cluster-assignment heuristics are pluggable: the engine drives a
//! [`ClusterAssign`] trait object, one implementation per policy module
//! ([`base`], [`ibc`], [`ipbc`], [`no_chains`]). [`ClusterPolicy`] is the
//! thin enum mapping the paper's names onto those implementations; adding a
//! heuristic is one new module plus one enum arm.
//!
//! # Hot-loop data layout
//!
//! The II loop restarts the whole placement pipeline on every bump, so the
//! engine is built for zero steady-state allocation: every trial
//! reservation goes through the [`Mrt`] transaction journal (no table
//! clones), candidate cycles come from the table's word-parallel free-mask
//! walk ([`Mrt::next_free_fu_cycle`] — occupied stretches are skipped a
//! `u64` word at a time and never counted as trial work), and all
//! per-attempt / per-op vectors live in one private `Scratch` workspace
//! that is cleared — never reallocated — across attempts.
//!
//! There is one placement path. Its output is pinned against history by
//! committed golden digests (`tests/golden/mod.rs`): every schedule
//! and all six [`SchedStats`] counters of a 780-case population must stay
//! bit-identical, so a changed candidate walk or a journal undo that
//! restores the wrong bits fails there.

pub mod backend;
pub mod base;
pub mod bnb;
pub mod delay;
pub mod ibc;
pub mod ipbc;
pub mod no_chains;
pub mod policy;

use std::collections::HashMap;

use vliw_ir::{Ddg, DepKind, LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_trace::Trace;

use crate::chains::MemChains;
use crate::circuits::{elementary_circuits, EnumLimits};
use crate::latency::LatencyAssignment;
use crate::mii;
use crate::mrt::Mrt;
use crate::order::sms_order;
use crate::schedule::{Schedule, ScheduleError, ScheduledCopy, ScheduledOp};

pub use backend::{
    FallbackPolicy, SchedBackend, SchedQuality, ScheduleOutcome, SchedulerBackend, SwingModulo,
};
pub use bnb::{ExactBnB, DEFAULT_NODE_BUDGET};
pub use delay::DelayTracking;
pub use policy::{AssignContext, AssignState, ClusterAssign, Neighbor};

/// How memory instructions are assigned to clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterPolicy {
    /// BASE (§4.2): memory ops are placed like any other op — best
    /// communication/balance trade-off, no chain constraint. Used for the
    /// unified-cache and multiVLIW machines.
    Free,
    /// IBC — Interleaved Build Chains: memory ops use the communication/
    /// balance heuristic, but all members of a memory dependent chain
    /// follow the cluster chosen for the chain's first-scheduled member.
    BuildChains,
    /// IPBC — Interleaved Pre-Build Chains: chains are computed before
    /// scheduling and pinned to their average preferred cluster.
    PreBuildChains,
    /// Analysis-only ablation (Figures 4 and 7, fourth/third bars): every
    /// memory op goes to its own preferred cluster, ignoring chains.
    /// **Not correct for execution** — used to quantify the cost of chains.
    NoChains,
}

impl ClusterPolicy {
    /// The [`ClusterAssign`] implementation behind this policy.
    pub fn assigner(&self) -> &'static dyn ClusterAssign {
        match self {
            ClusterPolicy::Free => &base::Base,
            ClusterPolicy::BuildChains => &ibc::Ibc,
            ClusterPolicy::PreBuildChains => &ipbc::Ipbc,
            ClusterPolicy::NoChains => &no_chains::NoChains,
        }
    }

    /// All four paper policies, in the paper's presentation order.
    pub const ALL: [ClusterPolicy; 4] = [
        ClusterPolicy::Free,
        ClusterPolicy::BuildChains,
        ClusterPolicy::PreBuildChains,
        ClusterPolicy::NoChains,
    ];
}

/// Counters describing how much work one [`schedule_outcome`] call did —
/// the scheduler's throughput denominators (see the `sched` bench and the
/// `repro … sched` target).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Candidate `(cluster, cycle)` slots examined across all attempts —
    /// the innermost unit of scheduling work.
    pub trial_cycles: u64,
    /// Placement attempts run (II bumps × retry reorderings).
    pub attempts: u64,
    /// Trial probes that failed and were unwound.
    pub rollbacks: u64,
    /// Operations successfully placed (committed probes), summed over all
    /// attempts including abandoned ones.
    pub placements: u64,
    /// II levels at which an exact search hit its node budget and stopped
    /// without an infeasibility proof. Always 0 for heuristic backends;
    /// nonzero means the result's [`SchedQuality`] cannot claim
    /// optimality. Surfaced (never silently absorbed) by the `optgap`
    /// report.
    pub cutoffs: u64,
    /// Retry rungs walked by [`FallbackPolicy::RetryReducedBudget`] after
    /// a budget cutoff, before the result degraded to the heuristic
    /// incumbent. Always 0 under the other policies.
    pub fallback_retries: u64,
}

impl SchedStats {
    /// Accumulates another call's counters.
    pub fn merge(&mut self, other: &SchedStats) {
        self.trial_cycles += other.trial_cycles;
        self.attempts += other.attempts;
        self.rollbacks += other.rollbacks;
        self.placements += other.placements;
        self.cutoffs += other.cutoffs;
        self.fallback_retries += other.fallback_retries;
    }
}

/// Options for [`schedule_outcome`].
#[derive(Debug, Clone, Copy)]
pub struct ScheduleOptions {
    /// Cluster-assignment policy.
    pub policy: ClusterPolicy,
    /// Caps on the circuits latency assignment enumerates. The RecMII
    /// and the SMS order come from the DDG's strongly connected
    /// components and do not depend on them.
    pub enum_limits: EnumLimits,
    /// Which [`SchedulerBackend`] runs the kernel → [`Schedule`]
    /// transformation (default [`SchedBackend::SwingModulo`], the paper's
    /// pipeline).
    pub backend: SchedBackend,
    /// Deterministic per-call deadline for the exact backend: a hard
    /// ceiling on candidate cells examined, composed by `min` with the
    /// size-scaled node budget of [`ExactBnB::resolved_node_budget`] (so a caller-supplied deadline can only
    /// tighten the search, never extend it). Node counts, not wall-clock:
    /// the same request hits the same deadline on any machine. `None`
    /// (the default) leaves the node budget alone. Ignored by heuristic
    /// backends.
    pub cost_ceiling: Option<u64>,
    /// What the exact backend does when the deadline runs out before the
    /// II question is decided (default [`FallbackPolicy::Heuristic`], the
    /// historical serve-the-incumbent behavior). Ignored by heuristic
    /// backends.
    pub fallback: FallbackPolicy,
    /// The [`DelayTracking`] backend's latency knob: `None` schedules
    /// each load at the *expectation* of its measured latency
    /// distribution, `Some(p)` at the p-th percentile (`p ∈ [0, 1]`;
    /// higher = more conservative, fewer broken promises, larger II).
    /// Ignored by the other backends.
    pub delay_percentile: Option<f64>,
}

impl ScheduleOptions {
    /// Options for the given policy with default limits.
    pub fn new(policy: ClusterPolicy) -> Self {
        ScheduleOptions {
            policy,
            enum_limits: EnumLimits::default(),
            backend: SchedBackend::SwingModulo,
            cost_ceiling: None,
            fallback: FallbackPolicy::Heuristic,
            delay_percentile: None,
        }
    }

    /// The same options routed through a different backend.
    pub fn with_backend(mut self, backend: SchedBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions::new(ClusterPolicy::Free)
    }
}

/// Modulo-schedules `kernel` for `machine`, returning the full
/// [`ScheduleOutcome`] — schedule, work counters and the backend's
/// quality claim (heuristic / proven optimal / cutoff).
///
/// Dispatches to the backend selected by [`ScheduleOptions::backend`]
/// (default: [`SwingModulo`], the paper's §4.3.1 pipeline of latency
/// assignment, SMS node ordering, then cluster assignment + scheduling at
/// increasing II). The cluster-assignment policy is resolved through
/// [`ClusterPolicy::assigner`] — see [`ClusterAssign`] for that extension
/// seam, and [`SchedulerBackend`] for the whole-pipeline seam.
///
/// # Errors
///
/// [`ScheduleError::EmptyKernel`] for empty kernels,
/// [`ScheduleError::NoSchedule`] if no legal schedule exists up to the II
/// limit `2 × MII + 96` (pathological resource pressure), and
/// [`ScheduleError::SearchCutoff`] when an exact backend exhausts its node
/// budget with no schedule at all.
pub fn schedule_outcome(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: ScheduleOptions,
) -> Result<ScheduleOutcome, ScheduleError> {
    schedule_outcome_traced(kernel, machine, options, Trace::off())
}

/// [`schedule_outcome`] with a [`Trace`] handle attached: the backend's
/// per-stage spans and telemetry go to the handle's sink. With
/// [`Trace::off`] (what [`schedule_outcome`] passes) every probe reduces
/// to a skipped branch and the call is behaviorally identical.
///
/// # Errors
///
/// Same as [`schedule_outcome`].
pub fn schedule_outcome_traced(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: ScheduleOptions,
    trace: Trace<'_>,
) -> Result<ScheduleOutcome, ScheduleError> {
    // checked at the dispatch point so every backend — current and
    // future — honors the EmptyKernel contract structurally
    if kernel.ops.is_empty() {
        return Err(ScheduleError::EmptyKernel);
    }
    options
        .backend
        .backend()
        .schedule(kernel, machine, &options, trace)
}

/// The front-end's output as a self-contained public snapshot: what an
/// *external* solver needs to restate the placement problem — MII
/// bounds, the policy's cluster pins, and the latency assignment (whose
/// [`LatencyAssignment::edge_latency`](crate::latency::LatencyAssignment)
/// prices every dependence edge). Consumed by the experiments crate's
/// SMT-LIB exporter, which serializes the problem for off-the-shelf
/// SMT solvers as an independent yardstick beside [`ExactBnB`].
#[derive(Debug, Clone)]
pub struct ScheduleProblem {
    /// Resource-constrained MII component.
    pub res_mii: u32,
    /// Recurrence-constrained MII component.
    pub rec_mii: u32,
    /// `max(res, rec, 1)` — the II search floor.
    pub mii: u32,
    /// The II search ceiling, `2 × MII + 96`.
    pub max_ii: u32,
    /// Per-op cluster pins known before scheduling (IPBC / NoChains).
    pub pins: Vec<Option<usize>>,
    /// The §4.3.3 latency assignment the backends schedule against.
    pub latencies: LatencyAssignment,
    /// SMS placement order (documentation of the heuristic's search
    /// order; an external solver is free to ignore it).
    pub order: Vec<OpId>,
}

/// Runs the shared front-end and returns its output as a public
/// [`ScheduleProblem`] snapshot (see there).
pub fn schedule_problem(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
) -> ScheduleProblem {
    let (_, prep) = prepare(kernel, machine, options, Trace::off());
    ScheduleProblem {
        res_mii: prep.res,
        rec_mii: prep.rec,
        mii: prep.mii0,
        max_ii: prep.max_ii,
        pins: prep.pins,
        latencies: prep.latencies,
        order: prep.order,
    }
}

/// The shared §4.3.1 front-end every backend runs before placement:
/// circuits → policy pins → latency assignment → MII bounds → SMS node
/// ordering. The circuits feed latency assignment only; RecMII and the
/// order's recurrence sets come from the DDG's strongly connected
/// components ([`Ddg::sccs`]), which the circuit stage computes first
/// and the later stages reuse. Extracted so [`SwingModulo`] and [`ExactBnB`] prepare
/// bit-identically (same latencies, same MII, same order) and differ only
/// in how they search the placement space. `Clone` so the exact backend
/// runs its heuristic incumbent off the same preparation instead of
/// recomputing it.
#[derive(Clone)]
pub(crate) struct Prep {
    /// Memory dependent chains (§4.3.2).
    pub chains: MemChains,
    /// Per-op cluster pins known before scheduling (IPBC / NoChains).
    pub pins: Vec<Option<usize>>,
    /// The latency assignment (§4.3.3) computed against those pins.
    pub latencies: LatencyAssignment,
    /// Resource-constrained MII component.
    pub res: u32,
    /// Recurrence-constrained MII component.
    pub rec: u32,
    /// `max(res, rec, 1)` — the II search floor.
    pub mii0: u32,
    /// The II search ceiling, `2 × MII + 96`.
    pub max_ii: u32,
    /// SMS placement order.
    pub order: Vec<OpId>,
}

/// Runs the front-end for `kernel`. The returned [`Ddg`] borrows the
/// kernel's edge list. Each stage runs under its own span:
/// `prepare.ddg`, `prepare.circuits`, `prepare.chains`, `prepare.pins`,
/// `prepare.latency`, `prepare.mii` (whose close carries the resolved
/// bounds) and `prepare.order`. With [`Trace::off`] each span is two
/// skipped branches.
pub(crate) fn prepare<'k>(
    kernel: &'k LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
    trace: Trace<'_>,
) -> (Ddg<'k>, Prep) {
    let ddg = {
        let _s = trace.span("prepare.ddg");
        Ddg::build(kernel)
    };
    let circuits = {
        let _s = trace.span("prepare.circuits");
        elementary_circuits(&ddg, options.enum_limits)
    };
    let chains = {
        let _s = trace.span("prepare.chains");
        MemChains::build(kernel)
    };
    let assigner = options.policy.assigner();

    // pre-computed pins (IPBC / NoChains) — known before scheduling, so
    // the latency assignment can estimate stall against the real cluster
    let n = machine.clusters.n_clusters;
    let pins = {
        let _s = trace.span("prepare.pins");
        assigner.precompute_pins(kernel, &chains, n)
    };

    // the latency model is the one front-end stage backends may replace:
    // the delay-tracking backend schedules loads at measured expected /
    // percentile latencies instead of running the §4.3.3 class reduction
    let latencies = {
        let _s = trace.span("prepare.latency");
        match options.backend {
            SchedBackend::DelayTracking => crate::latency::assign_profiled_latencies(
                kernel,
                &ddg,
                machine,
                &pins,
                options.delay_percentile,
            ),
            _ => {
                crate::latency::assign_latencies_with_pins(kernel, &ddg, machine, &circuits, &pins)
            }
        }
    };

    let _mii_span = trace.span("prepare.mii");
    let res = mii::res_mii(kernel, machine);
    let rec = mii::rec_mii(&ddg, |op| latencies.latency_of(op));
    let mii0 = res.max(rec).max(1);
    let max_ii = 2 * mii0 + 96;
    if trace.on() {
        trace.instant(
            "prepare.mii.bounds",
            &[
                ("res", res as f64),
                ("rec", rec as f64),
                ("mii", mii0 as f64),
                ("max_ii", max_ii as f64),
            ],
        );
    }
    drop(_mii_span);

    let order = {
        let _s = trace.span("prepare.order");
        sms_order(&ddg, &circuits, |op| latencies.latency_of(op))
    };
    (
        ddg,
        Prep {
            chains,
            pins,
            latencies,
            res,
            rec,
            mii0,
            max_ii,
            order,
        },
    )
}

/// The Swing-Modulo-Scheduling pipeline behind the [`SwingModulo`] and
/// [`DelayTracking`] backends: front-end, then [`swing_with_prep`]. The
/// outcome makes no optimality claim.
///
/// # Errors
///
/// Same as [`schedule_outcome`].
pub(crate) fn swing_schedule(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
    trace: Trace<'_>,
) -> Result<ScheduleOutcome, ScheduleError> {
    if kernel.ops.is_empty() {
        return Err(ScheduleError::EmptyKernel);
    }
    let (ddg, prep) = prepare(kernel, machine, options, trace);
    let (schedule, stats) = swing_with_prep(kernel, machine, options, &ddg, prep, trace)?;
    Ok(ScheduleOutcome {
        schedule,
        stats,
        quality: SchedQuality::Heuristic,
        max_live: None,
    })
}

/// The swing placement over an already-computed front-end: one
/// no-backtracking placement pass per II, with up to six hoist-and-retry
/// reorderings per II. The exact backend runs its incumbent through this
/// entry, so preparation runs once per call, not once per backend.
pub(crate) fn swing_with_prep(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    options: &ScheduleOptions,
    ddg: &Ddg<'_>,
    prep: Prep,
    trace: Trace<'_>,
) -> Result<(Schedule, SchedStats), ScheduleError> {
    let mut stats = SchedStats::default();
    let Prep {
        chains,
        pins,
        latencies,
        res,
        rec,
        mii0,
        max_ii,
        order,
    } = prep;
    let assigner = options.policy.assigner();

    // Span granularity stops here: probes wrap whole placement attempts,
    // never the inside of `TryState::run`, so the zero-allocation hot loop
    // is byte-identical with or without a sink attached.
    let _backend_span = if trace.on() {
        Some(trace.span_with(
            "backend.swing",
            &[("mii", mii0 as f64), ("max_ii", max_ii as f64)],
        ))
    } else {
        None
    };

    let mut scratch = Scratch::new(kernel.ops.len(), machine);
    let mut attempt_order: Vec<OpId> = Vec::with_capacity(order.len());
    for ii in mii0..=max_ii {
        // Up to six placement attempts per II: when an op cannot be
        // placed (its window was squeezed shut by loosely-connected
        // neighbors anchored earlier), hoist it to the front of the order
        // and retry — the constraint then lands on the neighbors, whose
        // loop-carried edges leave II-wide slack. This keeps the scheduler
        // backtracking-free per attempt while avoiding the pathological
        // II inflation of a single rigid order.
        attempt_order.clear();
        attempt_order.extend_from_slice(&order);
        for _retry in 0..6 {
            stats.attempts += 1;
            if trace.on() {
                trace.instant(
                    "swing.attempt",
                    &[("ii", ii as f64), ("retry", _retry as f64)],
                );
            }
            let attempt = TryState {
                kernel,
                ddg,
                machine,
                latencies: &latencies,
                chains: &chains,
                assigner,
                pins: &pins,
                order: &attempt_order,
            };
            match attempt.run(ii, &mut scratch, &mut stats) {
                Ok((ops, copies)) => {
                    if trace.on() {
                        trace.instant(
                            "swing.found",
                            &[
                                ("ii", ii as f64),
                                ("placements", stats.placements as f64),
                                ("trial_cycles", stats.trial_cycles as f64),
                            ],
                        );
                    }
                    return Ok((
                        Schedule {
                            ii,
                            ops,
                            copies,
                            mii: mii0,
                            res_mii: res,
                            rec_mii: rec,
                            latencies,
                        },
                        stats,
                    ));
                }
                Err(failed) => {
                    let pos = attempt_order
                        .iter()
                        .position(|&o| o == failed)
                        .expect("in order");
                    if pos == 0 {
                        break; // already first: retries cannot help
                    }
                    attempt_order.remove(pos);
                    attempt_order.insert(0, failed);
                }
            }
        }
    }
    Err(ScheduleError::NoSchedule {
        loop_name: kernel.name.clone(),
        max_ii,
    })
}

struct TryState<'a> {
    kernel: &'a LoopKernel,
    ddg: &'a Ddg<'a>,
    machine: &'a MachineConfig,
    latencies: &'a LatencyAssignment,
    chains: &'a MemChains,
    assigner: &'a dyn ClusterAssign,
    pins: &'a [Option<usize>],
    order: &'a [OpId],
}

#[derive(Debug, Clone, Copy)]
struct Placement {
    cluster: usize,
    cycle: i64,
}

/// An already-placed dependence neighbor of the op being placed, with the
/// timing fields the window computation needs.
struct Nbr {
    other_cluster: usize,
    other_cycle: i64,
    lat: i64,
    dist: i64,
    regflow: bool,
    other: OpId,
}

/// The engine's reusable workspace: every vector the placement loop needs,
/// owned across attempts and II bumps. Buffers are cleared (`clear`) but
/// never shrunk, so after the first attempt the steady state allocates
/// nothing.
struct Scratch {
    /// The live reservation table, reset per attempt.
    mrt: Mrt,
    placed: Vec<Option<Placement>>,
    copies: Vec<ScheduledCopy>,
    /// Parallel to `copies`: raw (pre-normalization) cycles.
    copy_cycles: Vec<i64>,
    copy_map: HashMap<(OpId, usize), usize>,
    assign_state: AssignState,
    load_count: Vec<usize>,
    // per-op buffers
    preds: Vec<Nbr>,
    succs: Vec<Nbr>,
    nbr_preds: Vec<Neighbor>,
    nbr_succs: Vec<Neighbor>,
    candidates: Vec<usize>,
    // per-trial buffers
    new_copies: Vec<(OpId, usize, usize, i64, usize)>,
    seen_pred: Vec<OpId>,
    dest_bounds: Vec<(usize, i64)>,
}

impl Scratch {
    fn new(n_ops: usize, machine: &MachineConfig) -> Self {
        Scratch {
            mrt: Mrt::new(1, machine),
            placed: Vec::with_capacity(n_ops),
            copies: Vec::new(),
            copy_cycles: Vec::new(),
            copy_map: HashMap::new(),
            assign_state: AssignState::default(),
            load_count: Vec::new(),
            preds: Vec::new(),
            succs: Vec::new(),
            nbr_preds: Vec::new(),
            nbr_succs: Vec::new(),
            candidates: Vec::new(),
            new_copies: Vec::new(),
            seen_pred: Vec::new(),
            dest_bounds: Vec::new(),
        }
    }

    /// Resets the attempt-lifetime state for a fresh placement attempt.
    fn reset_attempt(&mut self, ii: u32, n_ops: usize, machine: &MachineConfig) {
        self.mrt.reset(ii, machine);
        self.placed.clear();
        self.placed.resize(n_ops, None);
        self.copies.clear();
        self.copy_cycles.clear();
        self.copy_map.clear();
        self.assign_state.chain_pin.clear();
        self.load_count.clear();
        self.load_count.resize(machine.clusters.n_clusters, 0);
    }
}

impl TryState<'_> {
    /// One no-backtracking placement attempt; `Err` carries the op that
    /// could not be placed.
    fn run(
        &self,
        ii: u32,
        scratch: &mut Scratch,
        stats: &mut SchedStats,
    ) -> Result<(Vec<ScheduledOp>, Vec<ScheduledCopy>), OpId> {
        let n_ops = self.kernel.ops.len();
        let n = self.machine.clusters.n_clusters;
        let transfer = self.machine.buses.transfer_cycles as i64;
        let iii = ii as i64;

        scratch.reset_attempt(ii, n_ops, self.machine);

        for &op_id in self.order {
            let op = self.kernel.op(op_id);
            let kind = op.fu_kind();
            let lat_self = self.latencies.latency_of(op_id) as i64;

            // gather placed neighbors
            scratch.preds.clear();
            scratch.succs.clear();
            for e in self.ddg.pred_edges(op_id) {
                if e.from == op_id {
                    continue; // self-edge constrains nothing within an II
                }
                if let Some(p) = scratch.placed[e.from.index()] {
                    scratch.preds.push(Nbr {
                        other_cluster: p.cluster,
                        other_cycle: p.cycle,
                        lat: self.latencies.edge_latency(e, self.kernel) as i64,
                        dist: e.distance as i64,
                        regflow: e.kind == DepKind::RegFlow,
                        other: e.from,
                    });
                }
            }
            for e in self.ddg.succ_edges(op_id) {
                if e.to == op_id {
                    continue;
                }
                if let Some(s) = scratch.placed[e.to.index()] {
                    scratch.succs.push(Nbr {
                        other_cluster: s.cluster,
                        other_cycle: s.cycle,
                        lat: self.latencies.edge_latency(e, self.kernel) as i64,
                        dist: e.distance as i64,
                        regflow: e.kind == DepKind::RegFlow,
                        other: e.to,
                    });
                }
            }

            // candidate clusters, chosen by the policy
            scratch.nbr_preds.clear();
            scratch
                .nbr_preds
                .extend(scratch.preds.iter().map(|p| Neighbor {
                    other: p.other,
                    cluster: p.other_cluster,
                    regflow: p.regflow,
                }));
            scratch.nbr_succs.clear();
            scratch
                .nbr_succs
                .extend(scratch.succs.iter().map(|s| Neighbor {
                    other: s.other,
                    cluster: s.other_cluster,
                    regflow: s.regflow,
                }));
            // the context borrows the mutable bookkeeping immutably, so it
            // is rebuilt at each policy call site instead of held across
            // the placement scan
            macro_rules! assign_ctx {
                ($has_copy:ident) => {
                    AssignContext {
                        kernel: self.kernel,
                        chains: self.chains,
                        n_clusters: n,
                        preds: &scratch.nbr_preds,
                        succs: &scratch.nbr_succs,
                        has_copy: &$has_copy,
                        load_count: &scratch.load_count,
                    }
                };
            }
            {
                let copy_map = &scratch.copy_map;
                let has_copy =
                    |producer: OpId, cluster: usize| copy_map.contains_key(&(producer, cluster));
                let ctx = assign_ctx!(has_copy);
                self.assigner.candidates_into(
                    op_id,
                    &ctx,
                    self.pins,
                    &scratch.assign_state,
                    &mut scratch.candidates,
                );
            }

            // compute placement window per cluster and scan
            let mut done = false;
            for ci in 0..scratch.candidates.len() {
                let cluster = scratch.candidates[ci];
                let mut estart: Option<i64> = None;
                for p in &scratch.preds {
                    let extra = if p.regflow && p.other_cluster != cluster {
                        transfer
                    } else {
                        0
                    };
                    let e = p.other_cycle + p.lat + extra - iii * p.dist;
                    estart = Some(estart.map_or(e, |x: i64| x.max(e)));
                }
                let mut lstart: Option<i64> = None;
                for s in &scratch.succs {
                    let extra = if s.regflow && s.other_cluster != cluster {
                        transfer
                    } else {
                        0
                    };
                    // s.lat already accounts for edge kind (flow edges carry
                    // this op's latency, since this op is the producer)
                    let l = s.other_cycle - s.lat - extra + iii * s.dist;
                    lstart = Some(lstart.map_or(l, |x: i64| x.min(l)));
                }

                // The candidate window, iterated lazily (no materialized
                // range). `descending` scans from `hi` down to `lo`.
                let (lo, hi, descending) = match (estart, lstart) {
                    (Some(e), Some(l)) => {
                        if e > l {
                            continue;
                        }
                        // Both sides constrained: place as close to the
                        // consumers as possible (descending). The window can
                        // be II-wide when the pred side connects through a
                        // loop-carried edge; placing at its bottom would
                        // stretch the value's lifetime by up to a whole II
                        // and starve the (pred-side) ops ordered after this
                        // one of their windows.
                        (e, l.min(e + iii - 1), true)
                    }
                    (Some(e), None) => (e, e + iii - 1, false),
                    (None, Some(l)) => (l - iii + 1, l, true),
                    (None, None) => (0, iii - 1, false),
                };

                // walk the window over the row's free-mask: occupied
                // stretches are skipped a word at a time and cost no trial
                // work — `trial_cycles` counts free cells actually probed
                let limit = if descending { lo } else { hi };
                let mut cursor = if descending { hi } else { lo };
                'cycle: while let Some(cycle) = scratch
                    .mrt
                    .next_free_fu_cycle(cluster, kind, cursor, limit, descending)
                {
                    cursor = if descending { cycle - 1 } else { cycle + 1 };
                    stats.trial_cycles += 1;
                    // open a trial: reservations are provisional until the
                    // whole op (slot + every needed copy) fits
                    scratch.mrt.begin();
                    macro_rules! trial_fail {
                        () => {{
                            stats.rollbacks += 1;
                            scratch.mrt.rollback();
                            continue 'cycle;
                        }};
                    }
                    scratch.mrt.fu_reserve(cluster, kind, cycle);
                    scratch.new_copies.clear();

                    // copies for cross-cluster flow predecessors
                    scratch.seen_pred.clear();
                    for pi in 0..scratch.preds.len() {
                        let p = &scratch.preds[pi];
                        if !(p.regflow && p.other_cluster != cluster) {
                            continue;
                        }
                        if scratch.seen_pred.contains(&p.other) {
                            continue;
                        }
                        scratch.seen_pred.push(p.other);
                        // all edges from this producer to op in this cluster:
                        // bound = min over them
                        let bound = scratch
                            .preds
                            .iter()
                            .filter(|q| q.regflow && q.other == p.other)
                            .map(|q| cycle + iii * q.dist - transfer)
                            .min()
                            .unwrap();
                        if let Some(&idx) = scratch.copy_map.get(&(p.other, cluster)) {
                            if scratch.copy_cycles[idx] <= bound {
                                continue; // reuse existing copy
                            }
                            trial_fail!(); // existing copy too late
                        }
                        let ready = p.other_cycle + p.lat; // producer completion
                        let (other, other_cluster) = (p.other, p.other_cluster);
                        let mut found = false;
                        let mut tc = ready;
                        while tc <= bound {
                            if let Some(bus) = scratch.mrt.bus_find(tc) {
                                scratch.mrt.bus_reserve(bus, tc);
                                scratch
                                    .new_copies
                                    .push((other, other_cluster, cluster, tc, bus));
                                found = true;
                                break;
                            }
                            tc += 1;
                        }
                        if !found {
                            trial_fail!();
                        }
                    }

                    // copies for cross-cluster flow successors (op is the
                    // producer): one copy per destination cluster
                    scratch.dest_bounds.clear();
                    for s in scratch
                        .succs
                        .iter()
                        .filter(|s| s.regflow && s.other_cluster != cluster)
                    {
                        let b = s.other_cycle + iii * s.dist - transfer;
                        match scratch
                            .dest_bounds
                            .iter_mut()
                            .find(|(c, _)| *c == s.other_cluster)
                        {
                            Some((_, bound)) => *bound = (*bound).min(b),
                            None => scratch.dest_bounds.push((s.other_cluster, b)),
                        }
                    }
                    for di in 0..scratch.dest_bounds.len() {
                        let (dest, bound) = scratch.dest_bounds[di];
                        let ready = cycle + lat_self;
                        let mut found = false;
                        let mut tc = ready;
                        while tc <= bound {
                            if let Some(bus) = scratch.mrt.bus_find(tc) {
                                scratch.mrt.bus_reserve(bus, tc);
                                scratch.new_copies.push((op_id, cluster, dest, tc, bus));
                                found = true;
                                break;
                            }
                            tc += 1;
                        }
                        if !found {
                            trial_fail!();
                        }
                    }

                    // success: commit
                    scratch.mrt.commit();
                    stats.placements += 1;
                    scratch.placed[op_id.index()] = Some(Placement { cluster, cycle });
                    scratch.load_count[cluster] += 1;
                    for (prod, from, to, tc, bus) in scratch.new_copies.drain(..) {
                        scratch.copy_map.insert((prod, to), scratch.copies.len());
                        scratch.copy_cycles.push(tc);
                        // real cycle is fixed after normalization below
                        scratch.copies.push(ScheduledCopy {
                            producer: prod,
                            from,
                            to,
                            cycle: 0,
                            bus,
                        });
                    }
                    {
                        let copy_map = &scratch.copy_map;
                        let has_copy = |producer: OpId, cluster: usize| {
                            copy_map.contains_key(&(producer, cluster))
                        };
                        let ctx = assign_ctx!(has_copy);
                        self.assigner
                            .commit(op_id, cluster, &ctx, &mut scratch.assign_state);
                    }
                    done = true;
                    break;
                }
                if done {
                    break;
                }
            }
            if !done {
                return Err(op_id);
            }
        }

        // normalize cycles to start at 0
        let min_cycle = scratch
            .placed
            .iter()
            .map(|p| p.unwrap().cycle)
            .chain(scratch.copy_cycles.iter().copied())
            .min()
            .unwrap_or(0);
        let ops: Vec<ScheduledOp> = scratch
            .placed
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let p = p.expect("all ops placed");
                ScheduledOp {
                    cluster: p.cluster,
                    cycle: (p.cycle - min_cycle) as u32,
                    assumed_latency: self.latencies.latency_of(OpId::new(i)),
                }
            })
            .collect();
        let copies: Vec<ScheduledCopy> = scratch
            .copies
            .drain(..)
            .zip(scratch.copy_cycles.drain(..))
            .map(|(mut c, raw)| {
                c.cycle = (raw - min_cycle) as u32;
                c
            })
            .collect();
        Ok((ops, copies))
    }
}
