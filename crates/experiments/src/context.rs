//! The experiment pipeline: profile → unroll → schedule → simulate.

use std::cell::OnceCell;
use std::sync::Arc;

use vliw_ir::{unroll, LoopKernel};
use vliw_machine::MachineConfig;
use vliw_mem::build_cache;
use vliw_sched::{
    attraction_hints, prefer_variant, schedule_outcome_traced, unroll_candidates, AttractionHints,
    ClusterPolicy, EnumLimits, FallbackPolicy, SchedBackend, SchedQuality, Schedule, ScheduleError,
    ScheduleOptions, UnrollChoice,
};
use vliw_sim::{simulate_loop, LoopSimResult, SimOptions};
use vliw_trace::Trace;
use vliw_workloads::{
    address_streams, profile_kernel, suite, synthesize, ArrayLayout, BenchmarkModel,
    ProfileOptions, WorkloadConfig,
};

use crate::schedcache::SchedCache;

/// How loops are unrolled in an experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnrollMode {
    /// No unrolling (factor 1).
    NoUnroll,
    /// Always the optimal unrolling factor.
    Ouf,
    /// The paper's selective unrolling: evaluate no-unroll / ×N / OUF and
    /// keep the variant with the lowest `Texec` estimate.
    Selective,
}

/// Which of the three cache organizations a run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchVariant {
    /// The word-interleaved distributed cache.
    WordInterleaved,
    /// The multiVLIW (coherent per-cluster caches).
    MultiVliw,
    /// The unified cache at the given access latency (1 or 5).
    Unified(u32),
}

/// Where the per-load profiles the scheduler consumes come from — the
/// feedback-directed axis of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileSource {
    /// No profile information at all: loads carry no hit rates, no
    /// preferred clusters. The ablation measuring what profiling buys.
    None,
    /// The functional-cache profiling pass (`vliw-workloads`): timeless
    /// hit/miss replay of the profile input. The historical default —
    /// selecting it keeps every schedule bit-identical to the
    /// pre-measurement pipeline.
    Synthetic,
    /// Measured profiles (`vliw-profile`): the synthetic pipeline's
    /// schedule is executed in the *timing* simulator on the profile
    /// input, per-load class mixes / home-cluster histograms / latency
    /// distributions are collected, and the scheduler re-runs against the
    /// measurements — the closed feedback loop.
    Measured,
}

/// One experiment configuration: architecture, scheduling policy,
/// unrolling, alignment and Attraction Buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Target cache organization.
    pub arch: ArchVariant,
    /// Cluster-assignment policy (IPBC / IBC / no-chains / BASE).
    pub policy: ClusterPolicy,
    /// Scheduler backend (the paper's heuristic pipeline or the exact
    /// branch-and-bound reference).
    pub backend: SchedBackend,
    /// Where the per-load profiles the scheduler consumes come from.
    pub source: ProfileSource,
    /// Unrolling mode.
    pub unroll: UnrollMode,
    /// Variable alignment (§4.3.4 padding) on or off.
    pub padding: bool,
    /// Attraction Buffers `(entries, associativity)`, word-interleaved only.
    pub attraction_buffers: Option<(usize, usize)>,
    /// Whether the §5.2 compiler hints gate buffer allocation.
    pub use_hints: bool,
}

impl RunConfig {
    /// The paper's headline interleaved configuration: IPBC, selective
    /// unrolling, alignment, no buffers.
    pub fn ipbc() -> Self {
        RunConfig {
            arch: ArchVariant::WordInterleaved,
            policy: ClusterPolicy::PreBuildChains,
            backend: SchedBackend::SwingModulo,
            source: ProfileSource::Synthetic,
            unroll: UnrollMode::Selective,
            padding: true,
            attraction_buffers: None,
            use_hints: false,
        }
    }

    /// IBC, selective unrolling, alignment, no buffers.
    pub fn ibc() -> Self {
        RunConfig {
            policy: ClusterPolicy::BuildChains,
            ..Self::ipbc()
        }
    }

    /// The multiVLIW bar of Figure 8 (scheduled with IBC, as in §5.1).
    pub fn multivliw() -> Self {
        RunConfig {
            arch: ArchVariant::MultiVliw,
            policy: ClusterPolicy::BuildChains,
            ..Self::ipbc()
        }
    }

    /// A unified-cache bar (BASE scheduling) at the given latency.
    pub fn unified(latency: u32) -> Self {
        RunConfig {
            arch: ArchVariant::Unified(latency),
            policy: ClusterPolicy::Free,
            ..Self::ipbc()
        }
    }

    /// Adds 16-entry 2-way Attraction Buffers.
    pub fn with_buffers(mut self) -> Self {
        self.attraction_buffers = Some((16, 2));
        self
    }

    /// The same configuration routed through a different scheduler
    /// backend.
    pub fn with_backend(mut self, backend: SchedBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The same configuration fed from a different profile source.
    pub fn with_source(mut self, source: ProfileSource) -> Self {
        self.source = source;
        self
    }
}

/// Scale knobs for the whole experiment suite.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// The word-interleaved machine experiments derive variants from.
    pub machine: MachineConfig,
    /// Workload build configuration (seeds; padding is overridden per run).
    pub workloads: WorkloadConfig,
    /// Simulated iterations per loop.
    pub sim: SimOptions,
    /// Profiled iterations per loop.
    pub profile: ProfileOptions,
    /// Benchmarks to run (subset of the suite for quick modes).
    pub benchmarks: Vec<String>,
    /// Circuit-enumeration caps passed to the scheduler.
    pub enum_limits: EnumLimits,
    /// The `DelayTracking` backend's latency knob (see
    /// [`ScheduleOptions::delay_percentile`]): `None` schedules at the
    /// expectation of each measured latency distribution, `Some(p)` at
    /// the p-th percentile. Part of the schedule-cache key.
    pub delay_percentile: Option<f64>,
    /// Deterministic deadline for the exact backend (see
    /// [`ScheduleOptions::cost_ceiling`]): a hard node-count ceiling
    /// composed by `min` with the resolved budget. Part of the
    /// schedule-cache key.
    pub cost_ceiling: Option<u64>,
    /// What the exact backend does when its deadline runs out (see
    /// [`vliw_sched::FallbackPolicy`]). Part of the schedule-cache key.
    pub fallback: FallbackPolicy,
}

impl ExperimentContext {
    /// The full 14-benchmark context at paper scale.
    pub fn full() -> Self {
        ExperimentContext {
            machine: MachineConfig::word_interleaved_4(),
            workloads: WorkloadConfig::default(),
            sim: SimOptions {
                iteration_cap: 512,
                warmup_iterations: 256,
            },
            profile: ProfileOptions { iteration_cap: 256 },
            benchmarks: suite().iter().map(|s| s.name.to_string()).collect(),
            enum_limits: EnumLimits {
                max_circuits: 4000,
                max_len: 64,
            },
            delay_percentile: None,
            cost_ceiling: None,
            fallback: FallbackPolicy::Heuristic,
        }
    }

    /// A reduced context for tests: four representative benchmarks, short
    /// simulations.
    pub fn quick() -> Self {
        let mut ctx = Self::full();
        ctx.sim.iteration_cap = 96;
        ctx.profile.iteration_cap = 96;
        ctx.benchmarks = ["epicdec", "gsmdec", "jpegenc", "mpeg2dec"]
            .into_iter()
            .map(String::from)
            .collect();
        ctx
    }

    /// The benchmark models of this context.
    pub fn models(&self) -> Vec<BenchmarkModel> {
        suite()
            .iter()
            .filter(|s| self.benchmarks.iter().any(|b| b == s.name))
            .map(|s| synthesize(s, &self.workloads, &self.machine))
            .collect()
    }

    /// Builds the machine variant for a run configuration.
    pub fn machine_for(&self, cfg: &RunConfig) -> MachineConfig {
        match cfg.arch {
            ArchVariant::WordInterleaved => {
                let mut m = self.machine.clone();
                if let Some((entries, assoc)) = cfg.attraction_buffers {
                    m = m.with_attraction_buffers(entries, assoc);
                }
                m
            }
            ArchVariant::MultiVliw => MachineConfig::multi_vliw_4(),
            ArchVariant::Unified(lat) => MachineConfig::unified_4(lat),
        }
    }
}

/// A fully prepared (unrolled + profiled + scheduled) loop.
#[derive(Debug, Clone)]
pub struct PreparedLoop {
    /// The kernel actually scheduled (after unrolling), with profiles.
    pub kernel: LoopKernel,
    /// Its schedule.
    pub schedule: Schedule,
    /// The backend's quality claim for that schedule
    /// ([`SchedQuality::Heuristic`] for the paper pipeline; proven-optimal
    /// or counted-cutoff for the exact backend — never a silent
    /// fallback).
    pub quality: SchedQuality,
    /// Which unrolling variant won.
    pub choice: UnrollChoice,
    /// The unroll factor applied.
    pub factor: u32,
}

/// Replaces `kernel`'s synthetic profiles with *measured* ones: runs the
/// synthetic pipeline's schedule through the timing simulator on the
/// profile input (`vliw-profile`) and attaches the derived measurements.
/// The bootstrap schedule uses the configuration's own policy, so the
/// measurements describe the code the policy would actually run.
///
/// # Errors
///
/// Propagates bootstrap scheduling failures (the measurement run needs a
/// schedule; a kernel the policy cannot schedule has no measurement).
fn measured(
    mut kernel: LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
) -> Result<LoopKernel, ScheduleError> {
    let opts = vliw_profile::MeasureOptions {
        policy: cfg.policy,
        enum_limits: ctx.enum_limits,
        sim: ctx.sim,
    };
    let profile = vliw_profile::measure_kernel_on_input(
        &kernel,
        machine,
        cfg.padding,
        ctx.workloads.profile_input,
        &opts,
    )?;
    vliw_profile::attach_measurements(&mut kernel, &profile)
        .expect("a fresh measurement always matches its kernel");
    Ok(kernel)
}

/// Builds the unroll variants of one original kernel per a
/// configuration's profile source, profiling each distinct kernel once.
///
/// The factor-1 kernel is profiled on first use (the OUF analysis and the
/// factor-1 variant share that one pass); an unrolled variant is
/// profiled from the raw original, which is sound because [`unroll`]
/// copies profiles without reading them and [`profile_kernel`] overwrites
/// every memory operation's. Every pass records a `prepare.profile` span.
///
/// For the `Measured` source, factor 1 is measured **once** (on first
/// use) and kept as a [`StreamProfile`]; the measurements of every
/// unrolled variant are then *derived* by residue-slicing that stream
/// ([`StreamProfile::derive_unrolled`]) instead of paying another
/// bootstrap schedule + timing simulation per variant. A stream the
/// derivation rejects (mis-aligned sample counts) falls back to direct
/// re-measurement of that variant.
pub(crate) struct VariantBuilder<'a> {
    raw: &'a LoopKernel,
    original: OnceCell<LoopKernel>,
    stream: Option<vliw_profile::StreamProfile>,
    machine: &'a MachineConfig,
    cfg: &'a RunConfig,
    ctx: &'a ExperimentContext,
    trace: Trace<'a>,
}

use vliw_profile::StreamProfile;

impl<'a> VariantBuilder<'a> {
    /// Wraps the raw `original` for variant building; nothing is
    /// profiled yet.
    pub(crate) fn new(
        original: &'a LoopKernel,
        machine: &'a MachineConfig,
        cfg: &'a RunConfig,
        ctx: &'a ExperimentContext,
        trace: Trace<'a>,
    ) -> Self {
        VariantBuilder {
            raw: original,
            original: OnceCell::new(),
            stream: None,
            machine,
            cfg,
            ctx,
            trace,
        }
    }

    /// `kernel` profiled on the profile input under a `prepare.profile`
    /// span.
    fn profiled(&self, mut kernel: LoopKernel) -> LoopKernel {
        let _span = if self.trace.on() {
            Some(self.trace.span("prepare.profile"))
        } else {
            None
        };
        let layout = ArrayLayout::new(
            &kernel,
            self.machine,
            self.cfg.padding,
            self.ctx.workloads.profile_input,
        );
        profile_kernel(&mut kernel, self.machine, &layout, &self.ctx.profile);
        kernel
    }

    /// The factor-1 kernel: synthetically profiled (on first use) unless
    /// the source is `None`. Hit rates steer the OUF analysis, which
    /// always runs on synthetic profiles — measurement needs a
    /// per-variant schedule, which does not exist yet at that point.
    pub(crate) fn original(&self) -> &LoopKernel {
        match self.cfg.source {
            ProfileSource::None => self.raw,
            _ => self
                .original
                .get_or_init(|| self.profiled(self.raw.clone())),
        }
    }

    /// The factor-1 measurement stream, taken on first use.
    fn stream(&mut self) -> Result<&StreamProfile, ScheduleError> {
        if self.stream.is_none() {
            let opts = vliw_profile::MeasureOptions {
                policy: self.cfg.policy,
                enum_limits: self.ctx.enum_limits,
                sim: self.ctx.sim,
            };
            self.stream = Some(vliw_profile::measure_kernel_stream_on_input(
                self.original(),
                self.machine,
                self.cfg.padding,
                self.ctx.workloads.profile_input,
                &opts,
            )?);
        }
        Ok(self.stream.as_ref().expect("stream just taken"))
    }

    /// One unrolled variant's kernel, profiled per the source axis.
    ///
    /// # Errors
    ///
    /// Propagates bootstrap scheduling failures of the measurement run.
    pub(crate) fn build(&mut self, factor: u32) -> Result<LoopKernel, ScheduleError> {
        if self.cfg.source == ProfileSource::None {
            return Ok(unroll(self.raw, factor));
        }
        let mut kernel = if factor == 1 {
            self.original().clone()
        } else {
            self.profiled(unroll(self.raw, factor))
        };
        if self.cfg.source == ProfileSource::Measured {
            let (machine, ctx, cfg) = (self.machine, self.ctx, self.cfg);
            match self.stream()?.derive_unrolled(&kernel, factor, machine) {
                Ok(lp) => vliw_profile::attach_measurements(&mut kernel, &lp)
                    .expect("a derived measurement matches the kernel it was derived for"),
                Err(_) => kernel = measured(kernel, machine, cfg, ctx)?,
            }
        }
        Ok(kernel)
    }
}

/// The scheduler options a configuration resolves to.
pub(crate) fn schedule_options(cfg: &RunConfig, ctx: &ExperimentContext) -> ScheduleOptions {
    ScheduleOptions {
        enum_limits: ctx.enum_limits,
        backend: cfg.backend,
        delay_percentile: ctx.delay_percentile,
        cost_ceiling: ctx.cost_ceiling,
        fallback: ctx.fallback,
        ..ScheduleOptions::new(cfg.policy)
    }
}

/// Runs unrolling (per `cfg.unroll`), profiling and scheduling for one
/// original kernel.
///
/// # Errors
///
/// Propagates scheduling failures (pathological kernels only).
pub fn prepare_loop(
    original: &LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
) -> Result<PreparedLoop, ScheduleError> {
    prepare_loop_traced(original, machine, cfg, ctx, Trace::off())
}

/// [`prepare_loop`] with an attached [`Trace`] handle: every candidate
/// unroll variant is scheduled under a `prepare_loop` span, with one
/// `unroll.variant` instant per candidate recording the factor, Texec
/// and whether it became the incumbent.
///
/// # Errors
///
/// Propagates scheduling failures (pathological kernels only).
pub fn prepare_loop_traced(
    original: &LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> Result<PreparedLoop, ScheduleError> {
    let _loop_span = if trace.on() {
        Some(trace.span("prepare_loop"))
    } else {
        None
    };
    let opts = schedule_options(cfg, ctx);
    let mut builder = VariantBuilder::new(original, machine, cfg, ctx, trace);
    let ouf = vliw_sched::optimal_unroll_factor(builder.original(), machine);
    let candidates: Vec<(UnrollChoice, u32)> = match cfg.unroll {
        UnrollMode::NoUnroll => vec![(UnrollChoice::None, 1)],
        UnrollMode::Ouf => vec![(UnrollChoice::Ouf, ouf)],
        UnrollMode::Selective => unroll_candidates(builder.original(), machine),
    };
    let mut best: Option<PreparedLoop> = None;
    let mut last_err = None;
    for (choice, factor) in candidates {
        let kernel = match builder.build(factor) {
            Ok(k) => k,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        // an unschedulable variant is simply not a candidate (giant pinned
        // chains after deep unrolling can defeat the no-backtracking
        // scheduler); factor 1 virtually always schedules
        let (schedule, quality) = match schedule_outcome_traced(&kernel, machine, opts, trace) {
            Ok(o) => (o.schedule, o.quality),
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        let texec = schedule.texec(kernel.avg_trip);
        let better = best.as_ref().is_none_or(|b| {
            prefer_variant(
                ouf,
                factor,
                texec,
                b.factor,
                b.schedule.texec(b.kernel.avg_trip),
            )
        });
        if trace.on() {
            trace.instant(
                "unroll.variant",
                &[
                    ("factor", f64::from(factor)),
                    ("ii", f64::from(schedule.ii)),
                    ("texec", texec),
                    ("best", if better { 1.0 } else { 0.0 }),
                ],
            );
        }
        if better {
            best = Some(PreparedLoop {
                kernel,
                schedule,
                quality,
                choice,
                factor,
            });
        }
    }
    match best {
        Some(b) => Ok(b),
        None => {
            // no variant scheduled: retry factor 1 explicitly (covers the
            // Ouf-only mode whose single candidate failed)
            let kernel = builder.build(1).map_err(|e| last_err.take().unwrap_or(e))?;
            let outcome = schedule_outcome_traced(&kernel, machine, opts, trace)
                .map_err(|_| last_err.expect("at least one failure recorded"))?;
            Ok(PreparedLoop {
                kernel,
                schedule: outcome.schedule,
                quality: outcome.quality,
                choice: UnrollChoice::None,
                factor: 1,
            })
        }
    }
}

/// The outcome of one loop under one configuration.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// Loop name.
    pub name: String,
    /// Aggregation weight (dynamic operations).
    pub weight: f64,
    /// The prepared loop (kernel + schedule), possibly shared with other
    /// runs through a [`SchedCache`].
    pub prepared: Arc<PreparedLoop>,
    /// Simulation result (cycles, stalls, access mix).
    pub sim: LoopSimResult,
}

/// The outcome of a whole benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Benchmark name.
    pub name: String,
    /// Per-loop outcomes.
    pub loops: Vec<LoopRun>,
}

impl BenchRun {
    /// Total scaled cycles (compute + stall).
    pub fn total_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.sim.total_cycles()).sum()
    }

    /// Total scaled compute cycles.
    pub fn compute_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.sim.compute_cycles).sum()
    }

    /// Total scaled stall cycles.
    pub fn stall_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.sim.stall_cycles).sum()
    }

    /// Scaled access-class counts `[LH, RH, LM, RM, combined]`.
    pub fn access_mix(&self) -> [f64; 5] {
        use vliw_machine::AccessClass as C;
        let mut out = [0.0; 5];
        for l in &self.loops {
            let s = &l.sim.mem;
            let w = l.sim.scale;
            out[0] += s.count(C::LocalHit) as f64 * w;
            out[1] += s.count(C::RemoteHit) as f64 * w;
            out[2] += s.count(C::LocalMiss) as f64 * w;
            out[3] += s.count(C::RemoteMiss) as f64 * w;
            out[4] += s.combined() as f64 * w;
        }
        out
    }

    /// Scaled MSHR activity summed over loops: `[fills, merged waiters,
    /// full-stall cycles]`.
    pub fn mshr_mix(&self) -> [f64; 3] {
        let mut out = [0.0; 3];
        for l in &self.loops {
            let m = l.sim.mshr();
            let w = l.sim.scale;
            out[0] += m.fills as f64 * w;
            out[1] += m.merged_waiters as f64 * w;
            out[2] += m.full_stall_cycles as f64 * w;
        }
        out
    }

    /// Highest per-cluster MSHR occupancy any loop observed.
    pub fn mshr_peak_occupancy(&self) -> u64 {
        self.loops
            .iter()
            .map(|l| l.sim.mshr().peak_occupancy)
            .max()
            .unwrap_or(0)
    }

    /// Scaled stall breakdown summed over loops.
    pub fn stall_breakdown(&self) -> vliw_sim::StallBreakdown {
        let mut out = vliw_sim::StallBreakdown::default();
        for l in &self.loops {
            out.merge(&l.sim.stall_by);
        }
        out
    }

    /// Per-quality loop counts `[heuristic, proven optimal, cutoff,
    /// degraded]` — how many of this run's schedules carry which backend
    /// claim. The cutoff and degraded columns are how exact-backend
    /// budget exhaustion surfaces in aggregated reports (never a silent
    /// fallback).
    pub fn quality_counts(&self) -> [usize; 4] {
        let mut out = [0usize; 4];
        for l in &self.loops {
            match l.prepared.quality {
                SchedQuality::Heuristic => out[0] += 1,
                SchedQuality::ProvenOptimal => out[1] += 1,
                SchedQuality::CutoffFeasible => out[2] += 1,
                SchedQuality::DegradedFallback => out[3] += 1,
            }
        }
        out
    }

    /// Weighted workload balance over loops.
    pub fn workload_balance(&self, n_clusters: usize) -> f64 {
        vliw_sched::weighted_workload_balance(
            self.loops
                .iter()
                .map(|l| (l.weight, l.prepared.schedule.workload_balance(n_clusters))),
        )
    }
}

/// Runs one benchmark model under one configuration: prepares every loop
/// and simulates it on the *execution* input.
pub fn run_benchmark(model: &BenchmarkModel, cfg: &RunConfig, ctx: &ExperimentContext) -> BenchRun {
    run_benchmark_memo(model, cfg, ctx, None)
}

/// [`run_benchmark`] with an optional shared [`SchedCache`], so grids
/// sweeping buffer/hint axes schedule each loop once per distinct
/// preparation key. Results are identical with or without the memo.
pub fn run_benchmark_memo(
    model: &BenchmarkModel,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    memo: Option<&SchedCache>,
) -> BenchRun {
    let machine = ctx.machine_for(cfg);
    let mut loops = Vec::new();
    for lw in &model.loops {
        let prepared = match memo {
            Some(m) => m.prepare(&lw.kernel, &machine, cfg, ctx),
            None => prepare_loop(&lw.kernel, &machine, cfg, ctx).map(Arc::new),
        };
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                // pathological loop: report and skip rather than abort the
                // whole benchmark
                eprintln!("warning: skipping {}: {e}", lw.kernel.name);
                continue;
            }
        };
        let hints = if cfg.use_hints {
            attraction_hints(&prepared.kernel, &prepared.schedule, &machine)
        } else {
            AttractionHints::allow_all(&prepared.kernel)
        };
        let layout = ArrayLayout::new(
            &prepared.kernel,
            &machine,
            cfg.padding,
            ctx.workloads.exec_input,
        );
        let mut cache = build_cache(&machine);
        let mut addresses = address_streams(&prepared.kernel, &layout);
        let sim = simulate_loop(
            &prepared.kernel,
            &prepared.schedule,
            &machine,
            cache.as_mut(),
            &mut addresses,
            &hints,
            &ctx.sim,
        );
        loops.push(LoopRun {
            name: prepared.kernel.name.clone(),
            weight: prepared.kernel.dynamic_ops(),
            prepared,
            sim,
        });
    }
    BenchRun {
        name: model.name.clone(),
        loops,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;

    #[test]
    fn quick_context_prepares_and_runs_a_benchmark() {
        let ctx = ExperimentContext::quick();
        let models = ctx.models();
        assert_eq!(models.len(), 4);
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let run = run_benchmark(gsm, &RunConfig::ipbc(), &ctx);
        assert_eq!(run.loops.len(), gsm.loops.len(), "no loop skipped");
        assert!(run.total_cycles() > 0.0);
        let mix = run.access_mix();
        assert!(mix.iter().sum::<f64>() > 0.0);
        // every schedule is legal
        let m = ctx.machine_for(&RunConfig::ipbc());
        for l in &run.loops {
            assert!(l
                .prepared
                .schedule
                .verify(&l.prepared.kernel, &m)
                .is_empty());
        }
    }

    #[test]
    fn backends_never_share_a_memo_slot() {
        // same loop, same cell, two backends: the memo must keep two
        // entries and serve zero cross-backend hits
        let mut ctx = ExperimentContext::quick();
        ctx.profile.iteration_cap = 32;
        let models = ctx.models();
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let kernel = &gsm.loops[0].kernel;
        let swing = RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        let bnb = swing.with_backend(SchedBackend::ExactBnB);
        let machine = ctx.machine_for(&swing);
        let memo = SchedCache::new();
        let a = memo.prepare(kernel, &machine, &swing, &ctx).unwrap();
        let b = memo.prepare(kernel, &machine, &bnb, &ctx).unwrap();
        assert_eq!(memo.len(), 2, "one slot per backend");
        assert_eq!(memo.hits(), 0, "no cross-backend sharing");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.quality, SchedQuality::Heuristic);
        assert_ne!(b.quality, SchedQuality::Heuristic);
        // the exact backend never reports a worse II
        assert!(b.schedule.ii <= a.schedule.ii);
        // a repeat on either key is a hit on its own slot
        let a2 = memo.prepare(kernel, &machine, &swing, &ctx).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn unroll_modes_differ() {
        let ctx = ExperimentContext::quick();
        let models = ctx.models();
        let gsm = models.iter().find(|m| m.name == "gsmdec").unwrap();
        let machine = ctx.machine.clone();
        let base = RunConfig::ipbc();
        let no = RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..base
        };
        let ouf = RunConfig {
            unroll: UnrollMode::Ouf,
            ..base
        };
        let k = &gsm.loops[0].kernel;
        let p_no = prepare_loop(k, &machine, &no, &ctx).unwrap();
        let p_ouf = prepare_loop(k, &machine, &ouf, &ctx).unwrap();
        assert_eq!(p_no.factor, 1);
        assert!(p_ouf.factor >= 1);
        assert_eq!(p_ouf.kernel.ops.len(), k.ops.len() * p_ouf.factor as usize);
    }

    #[test]
    fn selection_prefers_lower_texec() {
        // A simple strided loop: unrolling amortizes the stage count and
        // packs more work per II, so selective unrolling must land on a
        // variant whose Texec is minimal among the candidates.
        use vliw_ir::{ArrayKind, KernelBuilder, Opcode};
        let machine = MachineConfig::word_interleaved_4();
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 65536, ArrayKind::Heap);
        let out = b.array("b", 65536, ArrayKind::Heap);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        b.store("st", out, 0, 4, 4, w);
        let k = b.finish(1024.0);
        let cfg = RunConfig {
            policy: ClusterPolicy::Free,
            source: ProfileSource::None,
            ..RunConfig::ipbc()
        };
        let chosen = prepare_loop(&k, &machine, &cfg, &ExperimentContext::quick()).unwrap();

        let candidates = unroll_candidates(&k, &machine);
        assert_eq!(candidates.len(), 2); // factor 1 and OUF = 4
        let min_texec = candidates
            .iter()
            .map(|&(_, factor)| {
                let unrolled = unroll(&k, factor);
                let options = ScheduleOptions::new(cfg.policy);
                let outcome = vliw_sched::schedule_outcome(&unrolled, &machine, options).unwrap();
                outcome.schedule.texec(unrolled.avg_trip)
            })
            .fold(f64::INFINITY, f64::min);
        let chosen_texec = chosen.schedule.texec(chosen.kernel.avg_trip);
        assert!(chosen_texec <= min_texec * 1.01 + 1e-9);
    }
}
