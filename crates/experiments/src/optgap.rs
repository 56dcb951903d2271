//! The optimality-gap study: how far from optimal are the paper's
//! heuristics?
//!
//! For every factor-1 loop of the context's suite and every §4 cluster
//! policy, this driver schedules the loop twice under the *same*
//! front-end (pins, latency assignment, MII, SMS order): once with the
//! heuristic [`SwingModulo`](vliw_sched::SwingModulo) pipeline and once
//! with the exact [`ExactBnB`](vliw_sched::ExactBnB) branch-and-bound
//! reference. Because the exact search is seeded with the heuristic
//! incumbent and only explores strictly smaller IIs, its result is never
//! worse — the ratio `heuristic II / exact II` is a per-loop optimality
//! gap, and a [`SchedQuality::ProvenOptimal`] outcome turns "the
//! heuristic looks good" into "the heuristic is provably ≤ x from
//! optimal on this loop".
//!
//! Cutoffs (the exact search's node budget running out before the
//! smaller IIs are decided) are counted per policy and reported in their
//! own column — a cell that cut off contributes no ratio and no proof,
//! visibly.
//!
//! The table also carries a second backend: per policy, the
//! [`DelayTracking`](vliw_sched::DelayTracking) pipeliner scheduling the
//! *measured* factor-1 kernels (profiles collected by `vliw-profile`),
//! compared against the same exact reference on the same kernels. Because
//! delay-tracking schedules loads at measured expected latencies —
//! usually far below the class model's worst case — its recurrence MII
//! can undercut the class-latency optimum: a ratio *below 1* in a delay
//! row is the measured latency model buying II the class model provably
//! cannot reach.
//!
//! `repro [quick|full] optgap` prints the table, writes
//! `results/optgap.csv` and records the per-policy ratios and
//! proven-optimal fractions into the `optgap` section of
//! `BENCH_repro.json`.

use std::fmt;

use vliw_ir::LoopKernel;
use vliw_sched::{
    schedule_outcome, ClusterPolicy, SchedBackend, SchedQuality, ScheduleOptions,
    DEFAULT_NODE_BUDGET,
};
use vliw_workloads::{profile_kernel, ArrayLayout};

use crate::context::ExperimentContext;
use crate::report::{f3, Table};

/// One policy's aggregate over the factor-1 suite kernels.
#[derive(Debug, Clone)]
pub struct OptGapRow {
    /// Policy name (`IPBC`, `IBC`, `BASE`, `no-chains`).
    pub policy: &'static str,
    /// The backend in the ratio's numerator (`swing` on synthetic
    /// profiles, `delay` on measured profiles).
    pub backend: &'static str,
    /// Kernels the heuristic scheduled (the cell population).
    pub kernels: usize,
    /// Cells where the exact backend proved the optimal II.
    pub proven: usize,
    /// Cells where the node budget cut the proof off (feasible schedule,
    /// no optimality claim).
    pub cutoff: usize,
    /// Cells where the exact search beat the heuristic II outright.
    pub better: usize,
    /// Cells (among `proven`) where the heuristic already achieved the
    /// optimal II.
    pub matched: usize,
    /// Arithmetic mean of `heuristic II / optimal II` over proven cells
    /// (`NaN` when nothing was proven).
    pub mean_ratio: f64,
    /// Total II levels at which the exact search hit its budget.
    pub cutoff_iis: u64,
    /// Arithmetic mean of the exact backend's reported MaxLive
    /// ([`ScheduleOutcome::max_live`](vliw_sched::ScheduleOutcome)) over
    /// every cell with an exact schedule — for proven cells this is the
    /// tie-break minimum at the optimal II (`NaN` when no cell produced
    /// an exact schedule).
    pub mean_max_live: f64,
}

impl OptGapRow {
    /// Fraction of cells with a proven-optimal II.
    pub fn proven_fraction(&self) -> f64 {
        if self.kernels == 0 {
            f64::NAN
        } else {
            self.proven as f64 / self.kernels as f64
        }
    }
}

/// The whole study: one row per policy over a shared kernel population.
#[derive(Debug, Clone)]
pub struct OptGapResult {
    /// Per-policy aggregates, in the paper's policy order.
    pub rows: Vec<OptGapRow>,
    /// Factor-1 kernels in the population.
    pub n_kernels: usize,
}

impl OptGapResult {
    /// Fraction of all `(kernel, policy)` cells proven optimal — the
    /// headline number the acceptance bar tracks.
    pub fn proven_fraction(&self) -> f64 {
        let cells: usize = self.rows.iter().map(|r| r.kernels).sum();
        let proven: usize = self.rows.iter().map(|r| r.proven).sum();
        if cells == 0 {
            f64::NAN
        } else {
            proven as f64 / cells as f64
        }
    }

    /// The study as a rendered table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Optimality gap vs exact B&B ({} factor-1 kernels, budget {})",
                self.n_kernels, DEFAULT_NODE_BUDGET
            ),
            &[
                "policy", "backend", "kernels", "proven", "proven%", "matched", "better", "cutoff",
                "II ratio", "max_live",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.policy.to_string(),
                r.backend.to_string(),
                r.kernels.to_string(),
                r.proven.to_string(),
                f3(r.proven_fraction()),
                r.matched.to_string(),
                r.better.to_string(),
                r.cutoff.to_string(),
                f3(r.mean_ratio),
                f3(r.mean_max_live),
            ]);
        }
        t
    }
}

impl fmt::Display for OptGapResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// The factor-1 study population: every loop of the context's
/// benchmarks, profiled on the profile input (the same front-door the
/// scheduling pipeline uses).
pub fn factor1_kernels(ctx: &ExperimentContext) -> Vec<LoopKernel> {
    let mut out = Vec::new();
    for model in ctx.models() {
        for lw in &model.loops {
            let mut k = lw.kernel.clone();
            let layout = ArrayLayout::new(&k, &ctx.machine, true, ctx.workloads.profile_input);
            profile_kernel(&mut k, &ctx.machine, &layout, &ctx.profile);
            out.push(k);
        }
    }
    out
}

/// One `(policy, numerator backend)` aggregate over `kernels`.
fn policy_row(
    policy: ClusterPolicy,
    numerator: SchedBackend,
    kernels: &[LoopKernel],
    ctx: &ExperimentContext,
) -> OptGapRow {
    let machine = &ctx.machine;
    let heuristic_opts = ScheduleOptions {
        enum_limits: ctx.enum_limits,
        ..ScheduleOptions::new(policy)
    }
    .with_backend(numerator);
    let exact_opts = heuristic_opts.with_backend(SchedBackend::ExactBnB);
    let mut row = OptGapRow {
        policy: policy.assigner().name(),
        backend: numerator.name(),
        kernels: 0,
        proven: 0,
        cutoff: 0,
        better: 0,
        matched: 0,
        mean_ratio: f64::NAN,
        cutoff_iis: 0,
        mean_max_live: f64::NAN,
    };
    let mut ratio_sum = 0.0;
    let mut live_sum = 0.0;
    let mut live_cells = 0usize;
    for kernel in kernels {
        // the heuristic II is the numerator; a (pathological) heuristic
        // failure leaves no cell to compare
        let Ok(heuristic) = schedule_outcome(kernel, machine, heuristic_opts) else {
            continue;
        };
        row.kernels += 1;
        match schedule_outcome(kernel, machine, exact_opts) {
            Ok(o) => {
                row.cutoff_iis += o.stats.cutoffs;
                if let Some(live) = o.max_live {
                    live_sum += live as f64;
                    live_cells += 1;
                }
                if o.schedule.ii < heuristic.schedule.ii {
                    row.better += 1;
                }
                match o.quality {
                    SchedQuality::ProvenOptimal => {
                        row.proven += 1;
                        if heuristic.schedule.ii == o.schedule.ii {
                            row.matched += 1;
                        }
                        ratio_sum += heuristic.schedule.ii as f64 / o.schedule.ii as f64;
                    }
                    // the optgap study runs the default (Heuristic)
                    // fallback policy, under which exhaustion surfaces
                    // as a cutoff; a degraded result is the same
                    // exhaustion seen through `RetryReducedBudget`, so
                    // it lands in the same column
                    SchedQuality::CutoffFeasible | SchedQuality::DegradedFallback => {
                        row.cutoff += 1
                    }
                    SchedQuality::Heuristic => {
                        unreachable!("exact backend cannot claim Heuristic")
                    }
                }
            }
            // a cutoff with no schedule at all still counts — the
            // exact column must never silently shrink the population
            Err(_) => row.cutoff += 1,
        }
    }
    if row.proven > 0 {
        row.mean_ratio = ratio_sum / row.proven as f64;
    }
    if live_cells > 0 {
        row.mean_max_live = live_sum / live_cells as f64;
    }
    row
}

/// Runs the study over the context's suite: per policy, the swing
/// pipeline on synthetic profiles and the delay-tracking pipeline on
/// measured profiles, each against the exact reference on its own kernel
/// population.
pub fn optgap(ctx: &ExperimentContext) -> OptGapResult {
    let kernels = factor1_kernels(ctx);
    let measured = crate::profile_fidelity::measured_factor1_kernels(ctx);
    let mut rows = Vec::new();
    for policy in ClusterPolicy::ALL {
        rows.push(policy_row(policy, SchedBackend::SwingModulo, &kernels, ctx));
    }
    for policy in ClusterPolicy::ALL {
        rows.push(policy_row(
            policy,
            SchedBackend::DelayTracking,
            &measured,
            ctx,
        ));
    }
    OptGapResult {
        rows,
        n_kernels: kernels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optgap_runs_on_a_reduced_context() {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.profile.iteration_cap = 32;
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        let g = optgap(&ctx);
        assert_eq!(g.rows.len(), 8, "one row per policy per backend");
        assert!(g.n_kernels > 0);
        for r in &g.rows {
            assert_eq!(r.kernels, g.n_kernels, "factor-1 always schedules");
            assert_eq!(r.proven + r.cutoff, r.kernels, "every cell is decided");
            if r.backend == "swing" && r.proven > 0 {
                // the exact search never returns a worse II than the
                // incumbent it was seeded with, so swing rows sit at ≥ 1;
                // delay rows may legitimately drop below 1 (the measured
                // latency model can beat the class-latency optimum)
                assert!(r.mean_ratio >= 1.0, "{}: {}", r.policy, r.mean_ratio);
            }
            // every decided cell carries the exact backend's MaxLive, so
            // the column is populated (at least one value alive per row)
            assert!(
                r.mean_max_live >= 1.0,
                "{}/{}: max_live column empty",
                r.policy,
                r.backend
            );
        }
        assert!(g.rows[..4].iter().all(|r| r.backend == "swing"));
        assert!(g.rows[4..].iter().all(|r| r.backend == "delay"));
        // the table renders with one line per row plus headers
        let rendered = g.table().render();
        assert_eq!(rendered.lines().count(), 3 + 8);
    }
}
