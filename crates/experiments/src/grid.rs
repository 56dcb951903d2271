//! Declarative experiment grids: enumerate `RunConfig` cross-products,
//! execute every `(benchmark, config)` cell — in parallel, with schedules
//! memoized across cells — and feed the shared aggregation backbone every
//! figure driver sits on.
//!
//! A [`RunGrid`] is built from labeled configurations (figure bars) or a
//! [`GridAxes`] cross-product, then executed with [`RunGrid::run`]
//! (parallel) or [`RunGrid::run_serial`]. Cells run on the same job queue
//! as the batch drains: workers claim cells most expensive first and each
//! result lands in its cell's slot. Cells are independent and
//! deterministic, and the schedule memo only *shares* results, so a
//! parallel run is bit-identical to a serial one —
//! [`GridResult::fingerprint`] makes that checkable.
//!
//! ```no_run
//! use vliw_experiments::{ExperimentContext, RunConfig, RunGrid};
//!
//! let ctx = ExperimentContext::quick();
//! let result = RunGrid::new("demo")
//!     .config("IPBC", RunConfig::ipbc())
//!     .config("IPBC+AB", RunConfig::ipbc().with_buffers())
//!     .run(&ctx);
//! for (bench, runs) in result.by_bench() {
//!     println!("{bench}: {:.0} vs {:.0} cycles", runs[0].total_cycles(), runs[1].total_cycles());
//! }
//! ```

use vliw_sched::{ClusterPolicy, SchedBackend};
use vliw_trace::Trace;
use vliw_workloads::{spec_by_name, synthesize, BenchmarkModel};

use crate::context::{
    run_benchmark_memo, ArchVariant, BenchRun, ExperimentContext, ProfileSource, RunConfig,
    UnrollMode,
};
use crate::queue::run_queue;
use crate::report::amean;
use crate::schedcache::SchedCache;

/// Axes of a declarative `RunConfig` cross-product. Every axis defaults to
/// the corresponding value of a base configuration; widened axes multiply.
///
/// ```
/// use vliw_experiments::{GridAxes, RunConfig, UnrollMode};
///
/// let configs = GridAxes::from(RunConfig::ipbc())
///     .unrolls(&[UnrollMode::NoUnroll, UnrollMode::Ouf])
///     .paddings(&[false, true])
///     .enumerate();
/// assert_eq!(configs.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct GridAxes {
    arches: Vec<ArchVariant>,
    policies: Vec<ClusterPolicy>,
    backends: Vec<SchedBackend>,
    sources: Vec<ProfileSource>,
    unrolls: Vec<UnrollMode>,
    paddings: Vec<bool>,
    buffers: Vec<Option<(usize, usize)>>,
    hints: Vec<bool>,
}

impl GridAxes {
    /// Axes fixed to `base`'s values; widen individual axes from here.
    pub fn from(base: RunConfig) -> Self {
        GridAxes {
            arches: vec![base.arch],
            policies: vec![base.policy],
            backends: vec![base.backend],
            sources: vec![base.source],
            unrolls: vec![base.unroll],
            paddings: vec![base.padding],
            buffers: vec![base.attraction_buffers],
            hints: vec![base.use_hints],
        }
    }

    /// Sweeps the architecture axis.
    pub fn arches(mut self, values: &[ArchVariant]) -> Self {
        self.arches = values.to_vec();
        self
    }

    /// Sweeps the cluster-assignment policy axis.
    pub fn policies(mut self, values: &[ClusterPolicy]) -> Self {
        self.policies = values.to_vec();
        self
    }

    /// Sweeps the scheduler-backend axis.
    pub fn backends(mut self, values: &[SchedBackend]) -> Self {
        self.backends = values.to_vec();
        self
    }

    /// Sweeps the profile-source axis (none / synthetic / measured).
    pub fn sources(mut self, values: &[ProfileSource]) -> Self {
        self.sources = values.to_vec();
        self
    }

    /// Sweeps the unrolling-mode axis.
    pub fn unrolls(mut self, values: &[UnrollMode]) -> Self {
        self.unrolls = values.to_vec();
        self
    }

    /// Sweeps the §4.3.4 alignment (padding) axis.
    pub fn paddings(mut self, values: &[bool]) -> Self {
        self.paddings = values.to_vec();
        self
    }

    /// Sweeps the Attraction-Buffer axis (`None` = no buffers).
    pub fn buffers(mut self, values: &[Option<(usize, usize)>]) -> Self {
        self.buffers = values.to_vec();
        self
    }

    /// Sweeps the §5.2 compiler-hints axis.
    pub fn hints(mut self, values: &[bool]) -> Self {
        self.hints = values.to_vec();
        self
    }

    /// Enumerates the full cross-product, architecture-major, in axis
    /// order (arch × policy × backend × source × unroll × padding ×
    /// buffers × hints).
    pub fn enumerate(&self) -> Vec<RunConfig> {
        let mut out = Vec::new();
        for &arch in &self.arches {
            for &policy in &self.policies {
                for &backend in &self.backends {
                    for &source in &self.sources {
                        for &unroll in &self.unrolls {
                            for &padding in &self.paddings {
                                for &attraction_buffers in &self.buffers {
                                    for &use_hints in &self.hints {
                                        out.push(RunConfig {
                                            arch,
                                            policy,
                                            backend,
                                            source,
                                            unroll,
                                            padding,
                                            attraction_buffers,
                                            use_hints,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// How a grid's cells are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// One cell at a time, on the calling thread.
    Serial,
    /// A fixed number of worker threads.
    Threads(usize),
    /// One worker per available core.
    Auto,
}

impl Parallelism {
    /// [`Parallelism::Auto`], unless the `VLIW_GRID_SERIAL` environment
    /// variable is set (the `repro --serial` determinism check).
    pub fn from_env() -> Self {
        if std::env::var_os("VLIW_GRID_SERIAL").is_some() {
            Parallelism::Serial
        } else {
            Parallelism::Auto
        }
    }

    fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// A declarative experiment grid: labeled configurations × benchmarks.
#[derive(Debug, Clone)]
pub struct RunGrid {
    label: String,
    configs: Vec<(String, RunConfig)>,
    benchmarks: Option<Vec<String>>,
}

impl RunGrid {
    /// An empty grid named `label` (the label shows up in diagnostics).
    pub fn new(label: impl Into<String>) -> Self {
        RunGrid {
            label: label.into(),
            configs: Vec::new(),
            benchmarks: None,
        }
    }

    /// Adds one labeled configuration (one figure bar).
    pub fn config(mut self, label: impl Into<String>, cfg: RunConfig) -> Self {
        self.configs.push((label.into(), cfg));
        self
    }

    /// Adds every configuration of a cross-product, with generated labels.
    pub fn cross(mut self, axes: &GridAxes) -> Self {
        for cfg in axes.enumerate() {
            let label = format!(
                "{:?}/{:?}/{}/{:?}/{:?}/pad={}/ab={:?}/hints={}",
                cfg.arch,
                cfg.policy,
                cfg.backend.name(),
                cfg.source,
                cfg.unroll,
                cfg.padding,
                cfg.attraction_buffers,
                cfg.use_hints
            );
            self.configs.push((label, cfg));
        }
        self
    }

    /// Restricts the grid to the named benchmarks (default: the context's).
    pub fn benchmarks(mut self, names: &[&str]) -> Self {
        self.benchmarks = Some(names.iter().map(|s| s.to_string()).collect());
        self
    }

    /// The grid's name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The labeled configurations, in declaration order.
    pub fn configs(&self) -> &[(String, RunConfig)] {
        &self.configs
    }

    /// Synthesizes the benchmark models this grid runs over — the shared
    /// model-building step every driver (including the tables) goes
    /// through.
    /// # Panics
    ///
    /// Panics if a name passed to [`RunGrid::benchmarks`] is not in the
    /// suite — a typo must fail loudly, not produce a blank report.
    pub fn models(&self, ctx: &ExperimentContext) -> Vec<BenchmarkModel> {
        match &self.benchmarks {
            None => ctx.models(),
            Some(names) => names
                .iter()
                .map(|n| {
                    let spec = spec_by_name(n).unwrap_or_else(|| {
                        panic!("grid '{}': unknown benchmark '{n}'", self.label)
                    });
                    synthesize(&spec, &ctx.workloads, &ctx.machine)
                })
                .collect(),
        }
    }

    /// Executes every cell in parallel (one worker per core; serial when
    /// `VLIW_GRID_SERIAL` is set).
    pub fn run(&self, ctx: &ExperimentContext) -> GridResult {
        self.run_with(ctx, Parallelism::from_env())
    }

    /// Executes every cell serially, on the calling thread.
    pub fn run_serial(&self, ctx: &ExperimentContext) -> GridResult {
        self.run_with(ctx, Parallelism::Serial)
    }

    /// Executes every cell with the given parallelism.
    pub fn run_with(&self, ctx: &ExperimentContext, par: Parallelism) -> GridResult {
        let models = self.models(ctx);
        self.run_on_models(&models, ctx, par)
    }

    /// Executes the grid over explicit (possibly filtered or synthetic)
    /// models instead of synthesizing them from the context.
    pub fn run_on_models(
        &self,
        models: &[BenchmarkModel],
        ctx: &ExperimentContext,
        par: Parallelism,
    ) -> GridResult {
        let n_cfg = self.configs.len();
        let memo = SchedCache::new();

        // Cells are bench-major: cell `j` is benchmark `j / n_cfg` under
        // config `j % n_cfg`. The dispatch order is sorted by per-cell
        // cost: heavy cells (the exact search, and any cell whose
        // measured profile source runs a whole profiling simulation per
        // loop) go first and cheap heuristic cells back-fill the workers,
        // so a sweep over `SchedBackend::ALL` does not end on a long tail
        // of one worker grinding exact cells while the rest sit idle. The
        // sort is stable over a config-major enumeration, so within a
        // cost class concurrent workers start on *different* benchmarks,
        // rarely contending on a memo slot, and a benchmark's later
        // configs hit warm entries (or block on the in-flight computation
        // instead of repeating it). The queue returns cells in index
        // order, so the dispatch order cannot change any result — serial
        // and parallel runs stay bit-identical.
        let cell_cost = |cfg: &RunConfig| {
            let measure = match cfg.source {
                ProfileSource::Measured => 3,
                ProfileSource::Synthetic | ProfileSource::None => 0,
            };
            cfg.backend.cost_rank() + measure
        };
        let mut order: Vec<usize> = (0..n_cfg)
            .flat_map(|c| (0..models.len()).map(move |b| b * n_cfg + c))
            .collect();
        order.sort_by_key(|&j| std::cmp::Reverse(cell_cost(&self.configs[j % n_cfg].1)));

        let cells = run_queue(&order, par.workers(), Trace::off(), |j, _| {
            let (b, c) = (j / n_cfg, j % n_cfg);
            run_benchmark_memo(&models[b], &self.configs[c].1, ctx, Some(&memo))
        });
        GridResult {
            benches: models.iter().map(|m| m.name.clone()).collect(),
            configs: self.configs.clone(),
            cells,
            memoized_schedules: memo.len(),
            memo_hits: memo.hits(),
        }
    }
}

/// The outcome of a grid run: one [`BenchRun`] per `(benchmark, config)`
/// cell, bench-major, plus the aggregation backbone the figure drivers
/// share.
#[derive(Debug)]
pub struct GridResult {
    benches: Vec<String>,
    configs: Vec<(String, RunConfig)>,
    cells: Vec<BenchRun>,
    memoized_schedules: usize,
    memo_hits: usize,
}

impl GridResult {
    /// Benchmark names, in model order.
    pub fn benches(&self) -> &[String] {
        &self.benches
    }

    /// The labeled configurations, in declaration order.
    pub fn configs(&self) -> &[(String, RunConfig)] {
        &self.configs
    }

    /// Number of distinct schedules the run actually computed (the rest
    /// were memo hits across cells).
    pub fn memoized_schedules(&self) -> usize {
        self.memoized_schedules
    }

    /// Number of loop preparations served from the schedule memo instead
    /// of being recomputed — the scheduling work the grid skipped.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits
    }

    /// The cell for benchmark index `b` under config index `c`.
    pub fn cell(&self, b: usize, c: usize) -> &BenchRun {
        &self.cells[b * self.configs.len() + c]
    }

    /// Iterates `(benchmark name, its runs in config order)`.
    pub fn by_bench(&self) -> impl Iterator<Item = (&str, &[BenchRun])> {
        let n = self.configs.len();
        self.benches
            .iter()
            .enumerate()
            .map(move |(b, name)| (name.as_str(), &self.cells[b * n..(b + 1) * n]))
    }

    /// All runs of config index `c`, one per benchmark.
    pub fn by_config(&self, c: usize) -> impl Iterator<Item = &BenchRun> {
        let n = self.configs.len();
        self.cells.iter().skip(c).step_by(n.max(1))
    }

    /// Arithmetic mean of `f` over benchmarks, per configuration.
    pub fn amean_by_config(&self, f: impl Fn(&BenchRun) -> f64) -> Vec<f64> {
        (0..self.configs.len())
            .map(|c| amean(self.by_config(c).map(&f)))
            .collect()
    }

    /// Per-configuration MSHR activity summed over benchmarks:
    /// `[fills, merged waiters, full-stall cycles]` (scaled counts, like
    /// [`BenchRun::mshr_mix`]).
    pub fn mshr_by_config(&self) -> Vec<[f64; 3]> {
        (0..self.configs.len())
            .map(|c| {
                let mut out = [0.0; 3];
                for run in self.by_config(c) {
                    let m = run.mshr_mix();
                    for (o, v) in out.iter_mut().zip(m) {
                        *o += v;
                    }
                }
                out
            })
            .collect()
    }

    /// Highest per-cluster MSHR occupancy any cell of config `c` observed.
    pub fn mshr_peak_by_config(&self, c: usize) -> u64 {
        self.by_config(c)
            .map(|r| r.mshr_peak_occupancy())
            .max()
            .unwrap_or(0)
    }

    /// Per-configuration schedule-quality counts
    /// `[heuristic, proven optimal, cutoff, degraded]`, summed over
    /// benchmarks — how the backend axis surfaces in aggregation. A
    /// nonzero cutoff or degraded column is the visible record of
    /// exact-search budget exhaustion.
    pub fn quality_by_config(&self) -> Vec<[usize; 4]> {
        (0..self.configs.len())
            .map(|c| {
                let mut out = [0usize; 4];
                for run in self.by_config(c) {
                    let q = run.quality_counts();
                    for (o, v) in out.iter_mut().zip(q) {
                        *o += v;
                    }
                }
                out
            })
            .collect()
    }

    /// A canonical, bit-exact digest of every cell: per loop, the II, the
    /// cluster of every operation, and the exact bits of the cycle
    /// counters. Two runs produce equal fingerprints iff their reports are
    /// bit-identical — the serial/parallel determinism contract.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (b, bench) in self.benches.iter().enumerate() {
            for (c, (label, _)) in self.configs.iter().enumerate() {
                let run = self.cell(b, c);
                let _ = write!(out, "{bench}|{label}:");
                for l in &run.loops {
                    let clusters: Vec<usize> =
                        l.prepared.schedule.ops.iter().map(|o| o.cluster).collect();
                    let _ = write!(
                        out,
                        "{}#ii={},f={},cl={:?},cc={:016x},sc={:016x};",
                        l.name,
                        l.prepared.schedule.ii,
                        l.prepared.factor,
                        clusters,
                        l.sim.compute_cycles.to_bits(),
                        l.sim.stall_cycles.to_bits(),
                    );
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_cross_product_enumerates_in_order() {
        let configs = GridAxes::from(RunConfig::ipbc())
            .policies(&[ClusterPolicy::PreBuildChains, ClusterPolicy::BuildChains])
            .paddings(&[true, false])
            .enumerate();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].policy, ClusterPolicy::PreBuildChains);
        assert!(configs[0].padding);
        assert!(!configs[1].padding);
        assert_eq!(configs[2].policy, ClusterPolicy::BuildChains);
        // untouched axes keep the base value everywhere
        assert!(configs.iter().all(|c| c.unroll == UnrollMode::Selective));
    }

    #[test]
    fn backend_axis_multiplies_and_reaches_cells() {
        let configs = GridAxes::from(RunConfig::ipbc())
            .backends(&[SchedBackend::SwingModulo, SchedBackend::ExactBnB])
            .paddings(&[true, false])
            .enumerate();
        assert_eq!(configs.len(), 4);
        assert_eq!(configs[0].backend, SchedBackend::SwingModulo);
        assert_eq!(configs[2].backend, SchedBackend::ExactBnB);
        // untouched axes keep the base value everywhere
        assert!(configs.iter().all(|c| c.policy == RunConfig::ipbc().policy));
    }

    #[test]
    fn quality_aggregation_distinguishes_backends() {
        let mut ctx = ExperimentContext::quick();
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        ctx.profile.iteration_cap = 32;
        let base = RunConfig {
            unroll: crate::UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        let grid = RunGrid::new("t")
            .benchmarks(&["gsmdec"])
            .config("swing", base)
            .config("bnb", base.with_backend(SchedBackend::ExactBnB));
        let res = grid.run_serial(&ctx);
        let q = res.quality_by_config();
        let n_loops = res.cell(0, 0).loops.len();
        assert_eq!(q[0], [n_loops, 0, 0, 0], "heuristic cells claim nothing");
        assert_eq!(q[1][0], 0, "exact cells never claim Heuristic");
        assert_eq!(q[1][1] + q[1][2], n_loops, "proven + cutoff covers all");
        assert_eq!(q[1][3], 0, "default fallback policy never degrades");
        // distinct backends must not have shared a memo slot
        for (a, b) in res.cell(0, 0).loops.iter().zip(&res.cell(0, 1).loops) {
            assert!(!std::sync::Arc::ptr_eq(&a.prepared, &b.prepared));
            assert!(b.prepared.schedule.ii <= a.prepared.schedule.ii);
        }
    }

    #[test]
    fn grid_runs_and_indexes_cells() {
        let mut ctx = ExperimentContext::quick();
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        ctx.profile.iteration_cap = 32;
        let grid = RunGrid::new("t")
            .benchmarks(&["gsmdec"])
            .config("IPBC", RunConfig::ipbc())
            .config("IBC", RunConfig::ibc());
        let res = grid.run_serial(&ctx);
        assert_eq!(res.benches(), ["gsmdec"]);
        assert_eq!(res.configs().len(), 2);
        assert!(res.cell(0, 0).total_cycles() > 0.0);
        assert_eq!(res.by_bench().count(), 1);
        assert_eq!(res.by_config(1).count(), 1);
        assert_eq!(res.amean_by_config(|r| r.total_cycles()).len(), 2);
    }

    #[test]
    fn memo_shares_schedules_across_buffer_axis() {
        let mut ctx = ExperimentContext::quick();
        ctx.sim.iteration_cap = 32;
        ctx.sim.warmup_iterations = 32;
        ctx.profile.iteration_cap = 32;
        let grid = RunGrid::new("t")
            .benchmarks(&["gsmdec"])
            .config("IPBC", RunConfig::ipbc())
            .config("IPBC+AB", RunConfig::ipbc().with_buffers());
        let res = grid.run_serial(&ctx);
        let n_loops = res.cell(0, 0).loops.len();
        // both configs share one preparation per loop
        assert_eq!(res.memoized_schedules(), n_loops);
        // ...so exactly one prepare per loop was a memo hit
        assert_eq!(res.memo_hits(), n_loops);
        // ...and the shared schedule is literally the same allocation
        for (a, b) in res.cell(0, 0).loops.iter().zip(&res.cell(0, 1).loops) {
            assert!(std::sync::Arc::ptr_eq(&a.prepared, &b.prepared));
        }
    }
}
