//! `simulate`: `simulate_loop` over every suite loop under the union of
//! the Figure 6 and Figure 8 configurations plus one hints-on
//! configuration, one closed-loop client. Schedules are prepared during
//! set-up, so the timed part runs the hints, the address streams, the
//! cache models and the simulator only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vliw_experiments::{ExperimentContext, PreparedLoop, RunConfig, SchedCache};
use vliw_machine::{AccessClass, MachineConfig};
use vliw_mem::{build_cache, AccessOutcome, AccessRequest, DataCache, MemStats};
use vliw_sched::{attraction_hints, AttractionHints};
use vliw_sim::{simulate_loop, LoopSimResult};
use vliw_workloads::{address_for, ArrayLayout};

use crate::input;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{tail, Tally};

/// Threads preparing schedules during set-up (set-up is not timed per
/// request, so it may use every core the load model allows).
const SETUP_THREADS: usize = 2;

/// Passes every run makes.
const PASSES: usize = 3;

/// Configurations each loop is simulated under.
pub const CONFIGS: usize = 8;

/// IBC, IBC+AB, IPBC, IPBC+AB, IPBC+AB+hints, multiVLIW, unified L=5 and
/// unified L=1: all three cache organizations, the Attraction Buffers
/// and the hint path.
fn configs() -> [RunConfig; CONFIGS] {
    [
        RunConfig::ibc(),
        RunConfig::ibc().with_buffers(),
        RunConfig::ipbc(),
        RunConfig::ipbc().with_buffers(),
        RunConfig {
            use_hints: true,
            ..RunConfig::ipbc().with_buffers()
        },
        RunConfig::multivliw(),
        RunConfig::unified(5),
        RunConfig::unified(1),
    ]
}

/// One simulation job.
struct Item {
    prepared: Arc<PreparedLoop>,
    cfg: RunConfig,
    machine: MachineConfig,
}

/// The prepared jobs, in seeded order.
pub struct SimInput {
    ctx: ExperimentContext,
    items: Vec<Item>,
}

/// Builds the run seed's loop corpus and prepares every (loop,
/// configuration) schedule through one cache (configurations that
/// differ only downstream of scheduling share a preparation).
pub fn setup(seed: u64, tally: &mut Tally) -> SimInput {
    let ctx = input::context(seed);
    let jobs: Vec<(vliw_ir::LoopKernel, RunConfig)> = input::corpus(&ctx, seed, 1)
        .into_iter()
        .flat_map(|k| configs().map(|cfg| (k.clone(), cfg)))
        .collect();
    let memo = SchedCache::new();
    let next = AtomicUsize::new(0);
    let mut prepared: Vec<Option<Item>> = (0..jobs.len()).map(|_| None).collect();
    let parts: Vec<Vec<(usize, Option<Item>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SETUP_THREADS)
            .map(|_| {
                let (next, jobs, memo, ctx) = (&next, &jobs, &memo, &ctx);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((kernel, cfg)) = jobs.get(i) else {
                            break;
                        };
                        let machine = ctx.machine_for(cfg);
                        let item = memo.prepare(kernel, &machine, cfg, ctx).ok().map(|p| Item {
                            prepared: p,
                            cfg: *cfg,
                            machine,
                        });
                        out.push((i, item));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a set-up thread panicked"))
            .collect()
    });
    for (i, item) in parts.into_iter().flatten() {
        prepared[i] = item;
    }
    let mut items = Vec::new();
    for (i, item) in prepared.into_iter().enumerate() {
        let ok = item.as_ref().is_some_and(|it| {
            it.prepared
                .schedule
                .verify(&it.prepared.kernel, &it.machine)
                .is_empty()
        });
        tally.op(ok, || format!("simulate: preparing job {i} failed"));
        items.extend(item.filter(|_| ok));
    }
    let order = input::permutation(&mut input::generator(seed, 103), items.len());
    let mut slots: Vec<Option<Item>> = items.into_iter().map(Some).collect();
    let items = order
        .into_iter()
        .map(|i| {
            slots[i]
                .take()
                .expect("a permutation visits each index once")
        })
        .collect();
    SimInput { ctx, items }
}

impl SimInput {
    /// Jobs per pass.
    pub fn n_jobs(&self) -> usize {
        self.items.len()
    }
}

/// One timed job as the experiment pipeline runs it: hints, execution
/// layout, a fresh cache model and the simulation.
fn simulate(item: &Item, ctx: &ExperimentContext) -> LoopSimResult {
    let p = &item.prepared;
    let hints = if item.cfg.use_hints {
        attraction_hints(&p.kernel, &p.schedule, &item.machine)
    } else {
        AttractionHints::allow_all(&p.kernel)
    };
    let layout = ArrayLayout::new(
        &p.kernel,
        &item.machine,
        item.cfg.padding,
        ctx.workloads.exec_input,
    );
    let mut cache = build_cache(&item.machine);
    let mut addresses = |op, iter| address_for(&p.kernel, &layout, op, iter);
    simulate_loop(
        &p.kernel,
        &p.schedule,
        &item.machine,
        cache.as_mut(),
        &mut addresses,
        &hints,
        &ctx.sim,
    )
}

/// A cache model that times every access it forwards.
struct TimedCache {
    inner: Box<dyn DataCache>,
    busy: Duration,
    calls: u64,
}

impl DataCache for TimedCache {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let t = Instant::now();
        let out = self.inner.access(req);
        self.busy += t.elapsed();
        self.calls += 1;
        out
    }

    fn flush_loop_boundary(&mut self) {
        self.inner.flush_loop_boundary()
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
}

/// Per-layer time of the traced pass.
#[derive(Default)]
struct Parts {
    hints: Vec<Duration>,
    layout: Vec<Duration>,
    build: Vec<Duration>,
    access: Duration,
    accesses: u64,
    address: Duration,
    address_calls: u64,
    simulate: Duration,
}

/// [`simulate`] with each layer timed: hints, layout and cache build as
/// spans, and every cache access and address computation inside the
/// simulation timed by a wrapper.
fn simulate_traced(
    item: &Item,
    ctx: &ExperimentContext,
    rec: &mut Recorder,
    parts: &mut Parts,
) -> LoopSimResult {
    let p = &item.prepared;
    let (hints, d) = rec.span("hints", |_| {
        if item.cfg.use_hints {
            attraction_hints(&p.kernel, &p.schedule, &item.machine)
        } else {
            AttractionHints::allow_all(&p.kernel)
        }
    });
    if item.cfg.use_hints {
        parts.hints.push(d);
    }
    let (layout, d) = rec.span("layout", |_| {
        ArrayLayout::new(
            &p.kernel,
            &item.machine,
            item.cfg.padding,
            ctx.workloads.exec_input,
        )
    });
    parts.layout.push(d);
    let (inner, d) = rec.span("mem.build", |_| build_cache(&item.machine));
    parts.build.push(d);
    let mut cache = TimedCache {
        inner,
        busy: Duration::ZERO,
        calls: 0,
    };
    let (mut addr_busy, mut addr_calls) = (Duration::ZERO, 0u64);
    let mut addresses = |op, iter| {
        let t = Instant::now();
        let a = address_for(&p.kernel, &layout, op, iter);
        addr_busy += t.elapsed();
        addr_calls += 1;
        a
    };
    let (result, d) = rec.span("simulate_loop", |_| {
        simulate_loop(
            &p.kernel,
            &p.schedule,
            &item.machine,
            &mut cache,
            &mut addresses,
            &hints,
            &ctx.sim,
        )
    });
    parts.simulate += d;
    parts.access += cache.busy;
    parts.accesses += cache.calls;
    parts.address += addr_busy;
    parts.address_calls += addr_calls;
    result
}

/// The bits a simulator-speed-only change must leave identical.
fn fingerprint(r: &LoopSimResult) -> (u64, u64, u64, MemStats, vliw_sim::StallBreakdown) {
    (
        r.sim_iterations,
        r.compute_cycles.to_bits(),
        r.stall_cycles.to_bits(),
        r.mem,
        r.stall_by.clone(),
    )
}

/// The scenario's measurements across passes over the jobs. Each job's
/// host time is its best over the passes, which filters interference
/// from other tenants of the host; passes are interleaved with the other
/// scenarios' so that they fall in different phases of it. Simulated
/// cycles and the memory and stall counts come from the first pass;
/// later passes must repeat them bit for bit.
pub struct Simulate<'a> {
    input: &'a SimInput,
    best: Vec<Duration>,
    first: Vec<LoopSimResult>,
    passes: usize,
    busy: Duration,
}

impl<'a> Simulate<'a> {
    /// No passes yet.
    pub fn new(input: &'a SimInput) -> Self {
        Simulate {
            input,
            best: vec![Duration::MAX; input.n_jobs()],
            first: Vec::with_capacity(input.n_jobs()),
            passes: 0,
            busy: Duration::ZERO,
        }
    }

    /// Whether another pass is due: fewer than [`PASSES`] so far, or,
    /// for the run's named workload, less than `window` spent in passes.
    pub fn wants(&self, window: Option<Duration>) -> bool {
        self.passes < PASSES || window.is_some_and(|w| self.busy < w)
    }

    /// One pass over the jobs.
    pub fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let start = Instant::now();
        for (i, item) in self.input.items.iter().enumerate() {
            rec.request(i as u64);
            let t = Instant::now();
            let result = simulate(item, &self.input.ctx);
            let d = t.elapsed();
            rec.record("simulate.loop", t, d);
            self.best[i] = self.best[i].min(d);
            let ok = result.total_cycles().is_finite() && result.sim_iterations > 0;
            tally.op(ok, || format!("simulate: job {i} produced no cycles"));
            if self.passes == 0 {
                self.first.push(result);
            } else {
                tally.op(fingerprint(&self.first[i]) == fingerprint(&result), || {
                    format!("simulate: job {i} differs between passes")
                });
            }
        }
        self.passes += 1;
        self.busy += start.elapsed();
    }

    /// Reports the end-to-end metrics and, when tracing, runs the traced
    /// pass and reports the per-layer ones.
    pub fn finish(
        self,
        rec: &mut Recorder,
        tally: &mut Tally,
        e2e: &mut Values,
        layers: &mut Values,
    ) {
        let (input, first) = (self.input, &self.first);
        let ctx = &input.ctx;
        let cycles: f64 = first.iter().map(LoopSimResult::total_cycles).sum();
        e2e.insert("sim_cycles", cycles);
        eprintln!(
            "simulate: {} passes of {} jobs, {:.2}s, {cycles:.0} cycles",
            self.passes,
            input.n_jobs(),
            self.busy.as_secs_f64()
        );
        if !rec.on() {
            return;
        }

        let lat: Vec<f64> = self.best.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let host: f64 = self.best.iter().map(Duration::as_secs_f64).sum();
        let iterations: u64 = first.iter().map(|r| r.sim_iterations).sum();
        let mut parts = Parts::default();
        for (i, item) in input.items.iter().enumerate() {
            rec.request(i as u64);
            let (result, _) = rec.span("simulate.traced", |rec| {
                simulate_traced(item, ctx, rec, &mut parts)
            });
            tally.op(fingerprint(&first[i]) == fingerprint(&result), || {
                format!("simulate: traced job {i} differs from the untraced run")
            });
        }
        let mut mem = MemStats::new();
        let mut stall = vliw_sim::StallBreakdown::default();
        let (mut compute, mut stalls) = (0.0, 0.0);
        for r in first {
            mem.merge(&r.mem);
            stall.merge(&r.stall_by);
            compute += r.compute_cycles;
            stalls += r.stall_cycles;
        }
        let total = mem.total() as f64;
        let us =
            |d: &[Duration]| median(&d.iter().map(|d| d.as_secs_f64() * 1e6).collect::<Vec<_>>());
        let self_ns = parts
            .simulate
            .saturating_sub(parts.access + parts.address)
            .as_secs_f64()
            * 1e9;
        layers.insert("hints.us", us(&parts.hints));
        layers.insert("layout.us", us(&parts.layout));
        layers.insert("mem.build_us", us(&parts.build));
        layers.insert(
            "mem.access_ns",
            parts.access.as_secs_f64() * 1e9 / parts.accesses as f64,
        );
        layers.insert(
            "address.ns_per_call",
            parts.address.as_secs_f64() * 1e9 / parts.address_calls as f64,
        );
        layers.insert("address.calls", parts.address_calls as f64);
        layers.insert("sim.self_ns_per_iter", self_ns / iterations as f64);
        layers.insert("sim.iterations", iterations as f64);
        layers.insert("mem.accesses", total);
        layers.insert(
            "mem.local_hit_ratio",
            mem.count(AccessClass::LocalHit) as f64 / total,
        );
        layers.insert(
            "mem.remote_ratio",
            (mem.count(AccessClass::RemoteHit) + mem.count(AccessClass::RemoteMiss)) as f64 / total,
        );
        layers.insert("mem.ab_hits", mem.ab_hits() as f64);
        layers.insert("mem.combined", mem.combined() as f64);
        layers.insert("mem.mshr_fills", mem.mshr().fills as f64);
        layers.insert(
            "mem.mshr_full_stall_cycles",
            mem.mshr().full_stall_cycles as f64,
        );
        layers.insert("sim.compute_cycles", compute);
        layers.insert("sim.stall_cycles", stalls);
        layers.insert("sim.stall.local_miss", stall.of(AccessClass::LocalMiss));
        layers.insert("sim.stall.remote_hit", stall.of(AccessClass::RemoteHit));
        layers.insert("sim.stall.remote_miss", stall.of(AccessClass::RemoteMiss));
        layers.insert("sim.stall.combined", stall.combined);
        layers.insert("sim.stall.mshr", stall.mshr_full);
        layers.insert("traced.sim_loop_p50_ms", median(&lat));
        layers.insert(
            "traced.sim_loop_p95_ms",
            tail(&lat, 0.95, "traced.sim_loop_p95_ms", tally),
        );
        layers.insert("traced.sim_iters_per_s", iterations as f64 / host);
    }
}
