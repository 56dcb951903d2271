//! `exact`: the branch-and-bound pipeliner (`SchedBackend::ExactBnB`,
//! default adaptive node budget) on factor-1 suite kernels under all 4
//! policies, one closed-loop client calling `schedule_outcome` directly.
//!
//! The free policies (BASE, IBC) get symmetry pruning and the pinned
//! ones (IPBC, no-chains) cannot, so the one backend is exercised two
//! ways. Each cell also gets a swing schedule (untimed) as the II it
//! must not exceed.

use std::time::{Duration, Instant};

use vliw_experiments::ExperimentContext;
use vliw_ir::LoopKernel;
use vliw_sched::{
    schedule_outcome, schedule_problem, ClusterPolicy, SchedBackend, SchedQuality, SchedStats,
    ScheduleOptions,
};
use vliw_workloads::{profile_kernel, ArrayLayout};

use crate::input;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{tail, Tally};

/// Cells solved per pass: enough that the p95 has ten solves beyond it.
pub const CELLS: usize = 216;
/// Passes every run makes. The gated figure, `exact_proven_frac`, is
/// deterministic, so one pass suffices; the solve times it yields are
/// reported by the traced run only.
const PASSES: usize = 1;

/// The seeded cell list.
pub struct ExactInput {
    ctx: ExperimentContext,
    kernels: Vec<LoopKernel>,
    /// `(kernel index, policy)` in solve order.
    cells: Vec<(usize, ClusterPolicy)>,
}

impl ExactInput {
    /// Cells per pass.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }
}

/// Builds the cell list for `seed`: suite loops at factor 1, profiled on
/// the profile input as `optgap::factor1_kernels` profiles them, × the
/// 4 policies. A fixed draw of [`CELLS`] of those cells (half of them, all
/// policies alike) is solved in a seeded order.
pub fn setup(seed: u64) -> ExactInput {
    let ctx = input::context(seed);
    let kernels: Vec<LoopKernel> = input::corpus(&ctx, seed, 1)
        .into_iter()
        .map(|mut k| {
            let layout = ArrayLayout::new(&k, &ctx.machine, true, ctx.workloads.profile_input);
            profile_kernel(&mut k, &ctx.machine, &layout, &ctx.profile);
            k
        })
        .collect();
    let all: Vec<(usize, ClusterPolicy)> = (0..kernels.len())
        .flat_map(|k| ClusterPolicy::ALL.map(|p| (k, p)))
        .collect();
    let chosen: Vec<(usize, ClusterPolicy)> =
        input::permutation(&mut input::generator(input::DEV_SEED, 105), all.len())
            .into_iter()
            .take(CELLS)
            .map(|i| all[i])
            .collect();
    let cells = input::permutation(&mut input::generator(seed, 102), chosen.len())
        .into_iter()
        .map(|i| chosen[i])
        .collect();
    ExactInput {
        ctx,
        kernels,
        cells,
    }
}

fn options(
    ctx: &ExperimentContext,
    policy: ClusterPolicy,
    backend: SchedBackend,
) -> ScheduleOptions {
    ScheduleOptions {
        enum_limits: ctx.enum_limits,
        ..ScheduleOptions::new(policy)
    }
    .with_backend(backend)
}

/// The scenario's measurements across passes over the cell list. Proof
/// quality and work counters come from the first pass, so they repeat
/// exactly for a seed; a cell's solve time is its best over the passes.
pub struct Exact<'a> {
    input: &'a ExactInput,
    swing_ii: Vec<u32>,
    best: Vec<Duration>,
    stats: SchedStats,
    proven: u64,
    better: u64,
    bnb: Vec<Duration>,
    passes: usize,
    busy: Duration,
}

impl<'a> Exact<'a> {
    /// Schedules every cell with the swing backend (untimed): the II
    /// each exact solve must not exceed.
    pub fn new(input: &'a ExactInput, tally: &mut Tally) -> Self {
        let machine = &input.ctx.machine;
        let mut swing_ii = Vec::with_capacity(input.n_cells());
        for &(k, policy) in &input.cells {
            let opts = options(&input.ctx, policy, SchedBackend::SwingModulo);
            let ii = schedule_outcome(&input.kernels[k], machine, opts).map(|o| o.schedule.ii);
            tally.op(ii.is_ok(), || {
                format!("exact: swing failed on cell {k}/{policy:?}")
            });
            swing_ii.push(ii.unwrap_or(u32::MAX));
        }
        Exact {
            input,
            swing_ii,
            best: vec![Duration::MAX; input.n_cells()],
            stats: SchedStats::default(),
            proven: 0,
            better: 0,
            bnb: Vec::new(),
            passes: 0,
            busy: Duration::ZERO,
        }
    }

    /// Whether another pass is due: fewer than [`PASSES`] so far, or,
    /// for the run's named workload, less than `window` spent in passes.
    pub fn wants(&self, window: Option<Duration>) -> bool {
        self.passes < PASSES || window.is_some_and(|w| self.busy < w)
    }

    /// One pass over the cells.
    pub fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let input = self.input;
        let machine = &input.ctx.machine;
        let start = Instant::now();
        for (c, &(k, policy)) in input.cells.iter().enumerate() {
            let kernel = &input.kernels[k];
            let opts = options(&input.ctx, policy, SchedBackend::ExactBnB);
            rec.request(c as u64);
            let t = Instant::now();
            let outcome = schedule_outcome(kernel, machine, opts);
            let d = t.elapsed();
            rec.record("exact.solve", t, d);
            self.best[c] = self.best[c].min(d);
            let ok = match &outcome {
                Ok(o) => {
                    o.schedule.ii <= self.swing_ii[c]
                        && o.schedule.verify(kernel, machine).is_empty()
                }
                Err(_) => false,
            };
            tally.op(ok, || {
                format!("exact: cell {k}/{policy:?} failed or beat by swing")
            });
            if self.passes > 0 {
                continue;
            }
            if let Ok(o) = &outcome {
                self.stats.merge(&o.stats);
                self.proven += u64::from(o.quality == SchedQuality::ProvenOptimal);
                self.better += u64::from(o.schedule.ii < self.swing_ii[c]);
            }
            if rec.on() {
                let (_, d_problem) = rec.span("schedule_problem", |_| {
                    schedule_problem(kernel, machine, &opts)
                });
                self.bnb.push(d.saturating_sub(d_problem));
            }
        }
        self.passes += 1;
        self.busy += start.elapsed();
    }

    /// Reports the end-to-end metrics and, when tracing, the per-layer
    /// ones.
    pub fn finish(self, rec: &Recorder, tally: &mut Tally, e2e: &mut Values, layers: &mut Values) {
        e2e.insert(
            "exact_proven_frac",
            self.proven as f64 / self.input.n_cells() as f64,
        );
        eprintln!(
            "exact: {} passes of {} cells, {:.2}s, {} proven",
            self.passes,
            self.input.n_cells(),
            self.busy.as_secs_f64(),
            self.proven
        );
        if !rec.on() {
            return;
        }
        let bnb_s: f64 = self.bnb.iter().map(Duration::as_secs_f64).sum();
        let bnb_us: Vec<f64> = self.bnb.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        let stats = &self.stats;
        layers.insert("bnb.us", median(&bnb_us));
        layers.insert("bnb.trial_cycles", stats.trial_cycles as f64);
        layers.insert("bnb.nodes_per_s", stats.trial_cycles as f64 / bnb_s);
        layers.insert("bnb.fallback_retries", stats.fallback_retries as f64);
        layers.insert("bnb.cutoffs", stats.cutoffs as f64);
        layers.insert("bnb.proven", self.proven as f64);
        layers.insert("bnb.better", self.better as f64);
        let solves: Vec<f64> = self.best.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        layers.insert("traced.exact_solve_p50_ms", median(&solves));
        layers.insert(
            "traced.exact_solve_p95_ms",
            tail(&solves, 0.95, "traced.exact_solve_p95_ms", tally),
        );
    }
}
