//! The profile-fidelity study: what does *measuring* profiles buy over
//! inventing them?
//!
//! The study closes the feedback-directed scheduling loop end to end and
//! quantifies every link:
//!
//! 1. **Collection** ([`collect_suite`]): every factor-1 loop of the
//!    context's suite is profiled synthetically (the functional-cache
//!    pass), then *measured* — its synthetic-pipeline schedule runs in
//!    the timing simulator on the profile input while a `vliw-profile`
//!    collector records per-load class mixes, home-cluster histograms and
//!    latency distributions. The measurements land in a versioned
//!    [`ProfileStore`] (persisted under `results/profiles/` by the
//!    `repro … profile` target, and diffed against a fresh collection in
//!    CI).
//! 2. **Divergence**: per benchmark, how far the synthetic profiles sit
//!    from the measured truth — hit-rate deltas, preferred-cluster
//!    agreement, locality deltas, and the measured expected latencies the
//!    class model never sees.
//! 3. **Cycle deltas per policy**: each §4 cluster policy runs the
//!    factor-1 suite under [`ProfileSource::Synthetic`] and
//!    [`ProfileSource::Measured`], plus the
//!    [`DelayTracking`](vliw_sched::DelayTracking) backend on measured
//!    profiles — the simulated total cycles of feedback-directed
//!    scheduling vs the synthetic baseline.
//! 4. **Delay-tracking suite check**: the `DelayTracking` backend
//!    schedules every measured factor-1 kernel, every schedule is
//!    verified, and its II is compared against the swing pipeline on the
//!    same measured kernels.

use std::fmt;

use vliw_ir::LoopKernel;
use vliw_profile::{attach_measurements, measure_kernel_on_input, MeasureOptions, ProfileStore};
use vliw_sched::{schedule_outcome, ClusterPolicy, SchedBackend, ScheduleOptions};
use vliw_workloads::{profile_kernel, ArrayLayout};

use crate::context::{ExperimentContext, ProfileSource, RunConfig, UnrollMode};
use crate::grid::RunGrid;
use crate::report::{f3, fcycles, Table};

/// One factor-1 loop in both profile worlds.
#[derive(Debug, Clone)]
pub struct MeasuredLoop {
    /// The benchmark the loop belongs to.
    pub bench: String,
    /// The kernel with synthetic (functional-cache) profiles.
    pub synthetic: LoopKernel,
    /// The same kernel with measured profiles attached.
    pub measured: LoopKernel,
}

/// The collection result: the store plus both kernel populations.
#[derive(Debug, Clone)]
pub struct CollectedSuite {
    /// Every loop's measurements, keyed and sorted.
    pub store: ProfileStore,
    /// The loops, in model order.
    pub loops: Vec<MeasuredLoop>,
    /// Loops whose bootstrap schedule failed (no measurement possible).
    pub skipped: usize,
}

/// Collects measured profiles for every factor-1 loop of the context's
/// suite (bootstrap policy: IPBC, the paper's headline configuration, so
/// one canonical store describes the whole suite).
pub fn collect_suite(ctx: &ExperimentContext) -> CollectedSuite {
    let opts = MeasureOptions {
        policy: ClusterPolicy::PreBuildChains,
        enum_limits: ctx.enum_limits,
        sim: ctx.sim,
    };
    let mut store = ProfileStore::new();
    let mut loops = Vec::new();
    let mut skipped = 0;
    for model in ctx.models() {
        for lw in &model.loops {
            let mut synthetic = lw.kernel.clone();
            let layout =
                ArrayLayout::new(&synthetic, &ctx.machine, true, ctx.workloads.profile_input);
            profile_kernel(&mut synthetic, &ctx.machine, &layout, &ctx.profile);
            match measure_kernel_on_input(
                &synthetic,
                &ctx.machine,
                true,
                ctx.workloads.profile_input,
                &opts,
            ) {
                Ok(profile) => {
                    let mut measured = synthetic.clone();
                    attach_measurements(&mut measured, &profile)
                        .expect("fresh measurement attaches");
                    store.insert(profile);
                    loops.push(MeasuredLoop {
                        bench: model.name.clone(),
                        synthetic,
                        measured,
                    });
                }
                Err(_) => skipped += 1,
            }
        }
    }
    CollectedSuite {
        store,
        loops,
        skipped,
    }
}

/// The measured factor-1 kernel population (the `optgap` study's
/// delay-tracking rows schedule these).
pub fn measured_factor1_kernels(ctx: &ExperimentContext) -> Vec<LoopKernel> {
    collect_suite(ctx)
        .loops
        .into_iter()
        .map(|l| l.measured)
        .collect()
}

/// Per-benchmark synthetic-vs-measured profile divergence over loads.
#[derive(Debug, Clone)]
pub struct DivergenceRow {
    /// Benchmark name.
    pub bench: String,
    /// Loads compared.
    pub loads: usize,
    /// Mean `|synthetic hit rate − measured hit rate|`.
    pub mean_hit_delta: f64,
    /// Fraction of loads whose preferred cluster agrees.
    pub pref_agreement: f64,
    /// Mean `|synthetic concentration − measured concentration|`.
    pub mean_local_delta: f64,
    /// Mean measured expected latency (cycles) — the quantity the class
    /// model approximates with 1/5/10/15.
    pub mean_expected_latency: f64,
}

/// One policy's simulated cycles under each profile source.
#[derive(Debug, Clone)]
pub struct PolicyDelta {
    /// Policy name.
    pub policy: &'static str,
    /// Arithmetic-mean total cycles, synthetic profiles.
    pub synthetic_cycles: f64,
    /// Arithmetic-mean total cycles, measured profiles.
    pub measured_cycles: f64,
    /// Arithmetic-mean total cycles, measured profiles + delay-tracking
    /// backend.
    pub delay_cycles: f64,
}

impl PolicyDelta {
    /// `(measured − synthetic) / synthetic`, in percent (negative =
    /// measurement helped).
    pub fn measured_delta_pct(&self) -> f64 {
        100.0 * (self.measured_cycles - self.synthetic_cycles) / self.synthetic_cycles
    }

    /// `(delay-tracking − synthetic) / synthetic`, in percent.
    pub fn delay_delta_pct(&self) -> f64 {
        100.0 * (self.delay_cycles - self.synthetic_cycles) / self.synthetic_cycles
    }
}

/// The percentiles the delay-tracking sweep schedules at.
pub const DELAY_PERCENTILES: [f64; 5] = [0.5, 0.75, 0.9, 0.95, 0.99];

/// One point of the delay-percentile sweep: the `DelayTracking` backend
/// re-schedules the measured factor-1 suite (IPBC) promising each load
/// its *p*-th observed-latency percentile instead of the expectation —
/// the knob trading stall risk against II.
#[derive(Debug, Clone)]
pub struct PercentileRow {
    /// The percentile fed to [`ScheduleOptions::delay_percentile`].
    pub p: f64,
    /// Arithmetic-mean simulated total cycles at that percentile.
    pub cycles: f64,
}

/// The delay-tracking backend over the whole measured factor-1 suite.
#[derive(Debug, Clone)]
pub struct DelaySuiteSummary {
    /// Kernels scheduled.
    pub kernels: usize,
    /// Schedules that failed verification (must be 0).
    pub verify_failures: usize,
    /// Kernels where delay-tracking achieved a smaller II than swing on
    /// the same measured kernel.
    pub better: usize,
    /// Kernels where it needed a larger II.
    pub worse: usize,
    /// Measured kernels dropped because one of the two backends failed
    /// to schedule them (0 on the shipped suite; nonzero must be
    /// visible, never silently shrinking the population).
    pub skipped: usize,
    /// Mean `delay II / swing II` (1.0 = parity, < 1 = delay wins).
    pub mean_ii_ratio: f64,
}

/// The whole study.
#[derive(Debug)]
pub struct ProfileFidelityResult {
    /// Per-benchmark profile divergence.
    pub divergence: Vec<DivergenceRow>,
    /// Per-policy cycle deltas.
    pub policies: Vec<PolicyDelta>,
    /// Delay-percentile sweep, one row per [`DELAY_PERCENTILES`] entry.
    pub percentiles: Vec<PercentileRow>,
    /// The expectation-based delay-tracking cycles the sweep compares
    /// against (the IPBC `delay-tracking` cell of the policy table).
    pub percentile_baseline: f64,
    /// Delay-tracking suite summary.
    pub delay: DelaySuiteSummary,
    /// The collected store (persisted by the repro driver).
    pub store: ProfileStore,
    /// Whether serialize → parse reproduced the store exactly.
    pub roundtrip_ok: bool,
    /// Loops skipped during collection (bootstrap failures).
    pub skipped: usize,
}

impl ProfileFidelityResult {
    /// The divergence table.
    pub fn divergence_table(&self) -> Table {
        let mut t = Table::new(
            "Profile divergence: synthetic vs measured (factor-1 loads)",
            &[
                "bench",
                "loads",
                "|d hit|",
                "pref agree",
                "|d local|",
                "E[lat] meas",
            ],
        );
        for r in &self.divergence {
            t.row(vec![
                r.bench.clone(),
                r.loads.to_string(),
                f3(r.mean_hit_delta),
                f3(r.pref_agreement),
                f3(r.mean_local_delta),
                f3(r.mean_expected_latency),
            ]);
        }
        t
    }

    /// The delay-percentile sweep table (`profile_percentiles.csv`).
    pub fn percentile_table(&self) -> Table {
        let mut t = Table::new(
            "Delay-tracking latency percentile sweep (IPBC, measured, factor-1, amean)",
            &["percentile", "cycles", "d vs E[lat] %"],
        );
        for r in &self.percentiles {
            let delta = 100.0 * (r.cycles - self.percentile_baseline) / self.percentile_baseline;
            t.row(vec![f3(r.p), fcycles(r.cycles), f3(delta)]);
        }
        t
    }

    /// The per-policy cycle table (the headline `profile_fidelity.csv`).
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Cycles by policy and profile source (factor-1, amean)",
            &[
                "policy",
                "synthetic",
                "measured",
                "d meas %",
                "delay-tracking",
                "d delay %",
            ],
        );
        for p in &self.policies {
            t.row(vec![
                p.policy.to_string(),
                fcycles(p.synthetic_cycles),
                fcycles(p.measured_cycles),
                f3(p.measured_delta_pct()),
                fcycles(p.delay_cycles),
                f3(p.delay_delta_pct()),
            ]);
        }
        t
    }
}

impl fmt::Display for ProfileFidelityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.divergence_table().render())?;
        f.write_str(&self.table().render())?;
        f.write_str(&self.percentile_table().render())?;
        writeln!(
            f,
            "store: {} loops ({} skipped), round-trip {}",
            self.store.len(),
            self.skipped,
            if self.roundtrip_ok { "exact" } else { "BROKEN" }
        )?;
        writeln!(
            f,
            "delay-tracking suite: {} kernels, {} verify failures, \
             {} better / {} worse II vs swing (mean ratio {:.3}), {} dropped",
            self.delay.kernels,
            self.delay.verify_failures,
            self.delay.better,
            self.delay.worse,
            self.delay.mean_ii_ratio,
            self.delay.skipped
        )
    }
}

fn divergence_rows(suite: &CollectedSuite) -> Vec<DivergenceRow> {
    let mut rows: Vec<DivergenceRow> = Vec::new();
    for l in &suite.loops {
        let row = match rows.iter_mut().find(|r| r.bench == l.bench) {
            Some(r) => r,
            None => {
                rows.push(DivergenceRow {
                    bench: l.bench.clone(),
                    loads: 0,
                    mean_hit_delta: 0.0,
                    pref_agreement: 0.0,
                    mean_local_delta: 0.0,
                    mean_expected_latency: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        for (syn_op, meas_op) in l.synthetic.ops.iter().zip(&l.measured.ops) {
            if !syn_op.is_load() {
                continue;
            }
            let (Some(sm), Some(mm)) = (&syn_op.mem, &meas_op.mem) else {
                continue;
            };
            let (Some(sp), Some(mp)) = (&sm.profile, &mm.profile) else {
                continue;
            };
            row.loads += 1;
            row.mean_hit_delta += (sp.hit_rate - mp.hit_rate).abs();
            if sp.preferred_cluster() == mp.preferred_cluster() {
                row.pref_agreement += 1.0;
            }
            row.mean_local_delta += (sp.concentration() - mp.concentration()).abs();
            row.mean_expected_latency += mp
                .latency
                .as_ref()
                .and_then(|lp| lp.expected())
                .unwrap_or(0.0);
        }
    }
    for r in &mut rows {
        if r.loads > 0 {
            let n = r.loads as f64;
            r.mean_hit_delta /= n;
            r.pref_agreement /= n;
            r.mean_local_delta /= n;
            r.mean_expected_latency /= n;
        }
    }
    rows
}

fn delay_suite(suite: &CollectedSuite, ctx: &ExperimentContext) -> DelaySuiteSummary {
    let swing_opts = ScheduleOptions {
        enum_limits: ctx.enum_limits,
        ..ScheduleOptions::new(ClusterPolicy::PreBuildChains)
    };
    let delay_opts = swing_opts.with_backend(SchedBackend::DelayTracking);
    let mut out = DelaySuiteSummary {
        kernels: 0,
        verify_failures: 0,
        better: 0,
        worse: 0,
        skipped: 0,
        mean_ii_ratio: f64::NAN,
    };
    let mut ratio_sum = 0.0;
    for l in &suite.loops {
        let Ok(swing) = schedule_outcome(&l.measured, &ctx.machine, swing_opts) else {
            out.skipped += 1;
            continue;
        };
        let Ok(delay) = schedule_outcome(&l.measured, &ctx.machine, delay_opts) else {
            out.skipped += 1;
            continue;
        };
        out.kernels += 1;
        if !delay.schedule.verify(&l.measured, &ctx.machine).is_empty() {
            out.verify_failures += 1;
        }
        match delay.schedule.ii.cmp(&swing.schedule.ii) {
            std::cmp::Ordering::Less => out.better += 1,
            std::cmp::Ordering::Greater => out.worse += 1,
            std::cmp::Ordering::Equal => {}
        }
        ratio_sum += delay.schedule.ii as f64 / swing.schedule.ii as f64;
    }
    if out.kernels > 0 {
        out.mean_ii_ratio = ratio_sum / out.kernels as f64;
    }
    out
}

/// Schedules the restricted delay-tracking cell (IPBC, measured
/// profiles, factor 1) once per sweep percentile. The percentile lives on
/// the *context* (not [`RunConfig`], which stays `Copy + Hash` for the
/// schedule cache), so each point clones the context.
fn percentile_sweep(ctx: &ExperimentContext) -> Vec<PercentileRow> {
    let cfg = RunConfig {
        unroll: UnrollMode::NoUnroll,
        ..RunConfig::ipbc()
    }
    .with_source(ProfileSource::Measured)
    .with_backend(SchedBackend::DelayTracking);
    DELAY_PERCENTILES
        .iter()
        .map(|&p| {
            let mut pctx = ctx.clone();
            pctx.delay_percentile = Some(p);
            let res = RunGrid::new("delay-percentile")
                .config(format!("p{p}"), cfg)
                .run(&pctx);
            PercentileRow {
                p,
                cycles: res.amean_by_config(|r| r.total_cycles())[0],
            }
        })
        .collect()
}

/// Runs the whole study on the context's suite.
pub fn profile_fidelity(ctx: &ExperimentContext) -> ProfileFidelityResult {
    let suite = collect_suite(ctx);
    let roundtrip_ok = ProfileStore::from_text(&suite.store.to_text()).as_ref() == Ok(&suite.store);

    // per-policy cycles through the grid, one config triple per policy
    // (factor-1 so the simulated kernels match the collected store)
    let mut grid = RunGrid::new("profile-fidelity");
    for policy in ClusterPolicy::ALL {
        let name = policy.assigner().name();
        let base = RunConfig {
            policy,
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        grid = grid
            .config(format!("{name}/synthetic"), base)
            .config(
                format!("{name}/measured"),
                base.with_source(ProfileSource::Measured),
            )
            .config(
                format!("{name}/delay"),
                base.with_source(ProfileSource::Measured)
                    .with_backend(SchedBackend::DelayTracking),
            );
    }
    let res = grid.run(ctx);
    let means = res.amean_by_config(|r| r.total_cycles());
    let policies = ClusterPolicy::ALL
        .iter()
        .enumerate()
        .map(|(i, policy)| PolicyDelta {
            policy: policy.assigner().name(),
            synthetic_cycles: means[3 * i],
            measured_cycles: means[3 * i + 1],
            delay_cycles: means[3 * i + 2],
        })
        .collect();

    let ipbc = ClusterPolicy::ALL
        .iter()
        .position(|p| *p == ClusterPolicy::PreBuildChains)
        .expect("IPBC is a suite policy");

    ProfileFidelityResult {
        divergence: divergence_rows(&suite),
        percentiles: percentile_sweep(ctx),
        percentile_baseline: means[3 * ipbc + 2],
        policies,
        delay: delay_suite(&suite, ctx),
        roundtrip_ok,
        skipped: suite.skipped,
        store: suite.store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 48;
        ctx.sim.warmup_iterations = 48;
        ctx.profile.iteration_cap = 48;
        ctx
    }

    #[test]
    fn fidelity_study_runs_and_round_trips() {
        let ctx = tiny_ctx();
        let r = profile_fidelity(&ctx);
        assert!(r.roundtrip_ok, "store must round-trip exactly");
        assert_eq!(r.skipped, 0, "factor-1 loops always measure");
        assert!(!r.store.is_empty());
        assert_eq!(r.policies.len(), 4);
        for p in &r.policies {
            assert!(p.synthetic_cycles > 0.0);
            assert!(p.measured_cycles > 0.0);
            assert!(p.delay_cycles > 0.0);
        }
        assert_eq!(r.percentiles.len(), DELAY_PERCENTILES.len());
        assert!(r.percentile_baseline > 0.0);
        for row in &r.percentiles {
            assert!(row.cycles > 0.0, "p={} produced no cycles", row.p);
        }
        assert_eq!(r.delay.verify_failures, 0, "delay schedules must verify");
        assert_eq!(r.delay.kernels, r.store.len());
        assert_eq!(r.delay.skipped, 0, "no kernel silently dropped");
        // divergence rows cover the benchmark and found its loads
        assert_eq!(r.divergence.len(), 1);
        assert!(r.divergence[0].loads > 0);
        assert!(r.divergence[0].mean_expected_latency >= 1.0);
    }

    #[test]
    fn collection_is_deterministic() {
        let ctx = tiny_ctx();
        let a = collect_suite(&ctx);
        let b = collect_suite(&ctx);
        assert_eq!(a.store, b.store);
        assert_eq!(a.store.to_text(), b.store.to_text());
    }
}
