//! `serve`: the scheduling service through one `SchedCache`.
//!
//! The request population follows `batch::build_requests`: two perturbed
//! variants of every suite loop × the 4 policies × {NoUnroll,
//! Selective}, swing backend. Two closed-loop clients drain it in three
//! phases:
//! cold (each key once: all inserts), warm (a Zipf-skewed replay: all
//! reads) and restore (export → text → salvage parse → a store-backed
//! cache, then one replay served by store rebuilds, all in memory).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vliw_experiments::{
    prepare_loop, CacheKey, ExperimentContext, PreparedLoop, RunConfig, SchedCache, ScheduleStore,
    UnrollMode,
};
use vliw_ir::{kernel_fingerprint, unroll, Ddg, LoopKernel};
use vliw_machine::MachineConfig;
use vliw_sched::{
    assign_latencies_with_pins, elementary_circuits, rec_mii, res_mii, schedule_outcome,
    schedule_problem, sms_order, unroll_candidates, ClusterPolicy, MemChains, SchedStats,
    ScheduleError,
};
use vliw_workloads::{profile_kernel, ArrayLayout};

use crate::input;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{digest, schedule_options, tail, Tally};

/// Perturbed variants of each suite loop in the population.
const VARIANTS: usize = 2;
/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Reads in the warm replay.
const WARM_READS: usize = 20_000;
/// Zipf exponent of the warm replay.
const ZIPF_S: f64 = 1.1;
/// Requests the 1-client cold pass re-serves to cross-check digests.
const CHECK_REQUESTS: usize = 200;
/// Requests the traced run decomposes layer by layer.
const DECOMPOSE_REQUESTS: usize = 96;
/// Restore loads per pass (the best over all passes is reported).
const RESTORE_LOADS: usize = 16;
/// Passes every run makes.
const PASSES: usize = 3;
/// Hits per batch when timing the cache hit path in a tight loop.
const HIT_BATCH: usize = 4000;

/// One scheduling request.
struct Request {
    kernel: LoopKernel,
    cfg: RunConfig,
    machine: MachineConfig,
}

/// The seeded request population and replay sequences.
pub struct ServeInput {
    ctx: ExperimentContext,
    /// One request per cache key.
    requests: Vec<Request>,
    /// The cold arrival order.
    arrival: Vec<usize>,
    /// The warm replay: indices into `requests`.
    warm: Vec<usize>,
    /// The restore replay order.
    restore: Vec<usize>,
    /// The 1-client cross-check subset.
    check: Vec<usize>,
    /// The traced decomposition sample.
    decompose: Vec<usize>,
}

impl ServeInput {
    /// Keys in the population.
    pub fn n_keys(&self) -> usize {
        self.requests.len()
    }

    /// Reads in the warm replay.
    pub fn warm_reads(&self) -> usize {
        self.warm.len()
    }
}

/// Builds the population for `seed`: two perturbed variants of every
/// suite loop × 8 configurations, arriving in a seeded order.
pub fn setup(seed: u64) -> ServeInput {
    let ctx = input::context(seed);
    let configs: Vec<RunConfig> = ClusterPolicy::ALL
        .iter()
        .flat_map(|&policy| {
            [UnrollMode::NoUnroll, UnrollMode::Selective].map(|unroll| RunConfig {
                policy,
                unroll,
                ..RunConfig::ipbc()
            })
        })
        .collect();
    let mut requests = Vec::new();
    for kernel in input::corpus(&ctx, seed, VARIANTS) {
        for cfg in &configs {
            requests.push(Request {
                kernel: kernel.clone(),
                cfg: *cfg,
                machine: ctx.machine_for(cfg),
            });
        }
    }
    let n = requests.len();
    // which keys are hot, and which requests the traced run decomposes,
    // are fixed across seeds, so per-seed spread reflects the inputs'
    // data and order rather than a different hot set
    let mut fixed = input::generator(input::DEV_SEED, 104);
    let ranked = input::permutation(&mut fixed, n);
    let mut decompose = input::permutation(&mut fixed, n);
    decompose.truncate(DECOMPOSE_REQUESTS);
    let mut rng = input::generator(seed, 101);
    let arrival = input::permutation(&mut rng, n);
    let warm = input::zipf(&mut rng, &ranked, WARM_READS, ZIPF_S);
    let restore = input::permutation(&mut rng, n);
    let mut check = input::permutation(&mut rng, n);
    check.truncate(CHECK_REQUESTS);
    ServeInput {
        ctx,
        requests,
        arrival,
        warm,
        restore,
        check,
        decompose,
    }
}

type Answer = Result<Arc<PreparedLoop>, ScheduleError>;

/// What one client of a drain returns: `(position, latency, answer)`
/// per request it sent, and its spans.
type ClientLog = (Vec<(usize, Duration, Answer)>, Recorder);

/// One drain of `order` by `clients` closed-loop clients: each client
/// sends its next request when the previous one is answered. Returns,
/// per position of `order`, the latency and the answer, and the wall
/// time of the drain.
fn drain(
    cache: &SchedCache,
    input: &ServeInput,
    order: &[usize],
    clients: usize,
    rec: &mut Recorder,
    phase: &'static str,
) -> (Vec<(Duration, Answer)>, Duration) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mut r = rec.fork(c as u32 + 1);
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = order.get(pos) else { break };
                        let req = &input.requests[idx];
                        let t = Instant::now();
                        let answer = cache.prepare(&req.kernel, &req.machine, &req.cfg, &input.ctx);
                        let lat = t.elapsed();
                        r.request(idx as u64);
                        r.record(phase, t, lat);
                        out.push((pos, lat, answer));
                    }
                    (out, r)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut answers: Vec<Option<(Duration, Answer)>> = order.iter().map(|_| None).collect();
    for (part, r) in parts {
        for (pos, lat, answer) in part {
            answers[pos] = Some((lat, answer));
        }
        rec.absorb(r);
    }
    let answers = answers
        .into_iter()
        .map(|a| a.expect("every position is answered once"))
        .collect();
    (answers, wall)
}

fn micros(d: &[Duration]) -> Vec<f64> {
    d.iter().map(|d| d.as_secs_f64() * 1e6).collect()
}

/// Checks every answer of a drain of `order` against the first digest
/// seen for its key (so every phase must serve the cold schedules), and
/// lowers `best[pos]` to each latency: a drain repeated in every pass
/// keeps, per position, its best over the passes.
#[allow(clippy::too_many_arguments)]
fn check_answers(
    answers: &[(Duration, Answer)],
    order: &[usize],
    best: &mut Vec<Duration>,
    reference: &mut HashMap<usize, u64>,
    input: &ServeInput,
    verify: bool,
    phase: &str,
    tally: &mut Tally,
) {
    best.resize(order.len(), Duration::MAX);
    // hits share one `Arc` per key: digest each prepared loop once
    let mut memo: HashMap<*const PreparedLoop, u64> = HashMap::new();
    for ((pos, (d, answer)), &idx) in answers.iter().enumerate().zip(order) {
        best[pos] = best[pos].min(*d);
        let ok = match answer {
            Ok(p) => {
                let dg = *memo.entry(Arc::as_ptr(p)).or_insert_with(|| digest(p));
                let same = *reference.entry(idx).or_insert(dg) == dg;
                same && (!verify
                    || p.schedule
                        .verify(&p.kernel, &input.requests[idx].machine)
                        .is_empty())
            }
            Err(_) => false,
        };
        tally.op(ok, || {
            format!("serve {phase}: request {idx} failed or diverged")
        });
    }
}

/// The scenario's measurements across passes. Each pass drains a cold
/// round on a fresh cache, one warm replay on it, and a restore from it
/// (store loads, then one replay). Every request's latency is its best
/// over the passes, which filters interference from other tenants of
/// the host; passes are interleaved with the other scenarios' so that
/// they fall in different phases of it.
pub struct Serve<'a> {
    input: &'a ServeInput,
    digests: HashMap<usize, u64>,
    cold: Vec<Duration>,
    warm: Vec<Duration>,
    restore: Vec<Duration>,
    best_rate: f64,
    load_ms: f64,
    export_ms: f64,
    parse_ms: f64,
    warm_hits: usize,
    passes: usize,
    busy: Duration,
    /// The last pass's cache, store-backed cache and store text.
    last: Option<(SchedCache, SchedCache, String)>,
}

impl<'a> Serve<'a> {
    /// No passes yet.
    pub fn new(input: &'a ServeInput) -> Self {
        Serve {
            input,
            digests: HashMap::new(),
            cold: Vec::new(),
            warm: Vec::new(),
            restore: Vec::new(),
            best_rate: 0.0,
            load_ms: f64::MAX,
            export_ms: f64::MAX,
            parse_ms: f64::MAX,
            warm_hits: 0,
            passes: 0,
            busy: Duration::ZERO,
            last: None,
        }
    }

    /// Whether another pass is due: fewer than [`PASSES`] so far, or,
    /// for the run's named workload, less than `window` spent in passes.
    pub fn wants(&self, window: Option<Duration>) -> bool {
        self.passes < PASSES || window.is_some_and(|w| self.busy < w)
    }

    /// One pass.
    pub fn pass(&mut self, rec: &mut Recorder, tally: &mut Tally) {
        let input = self.input;
        let start = Instant::now();
        let first = self.passes == 0;
        let cache = SchedCache::new();
        let (answers, wall) = drain(&cache, input, &input.arrival, CLIENTS, rec, "serve.cold");
        check_answers(
            &answers,
            &input.arrival,
            &mut self.cold,
            &mut self.digests,
            input,
            first,
            "cold",
            tally,
        );
        self.best_rate = self
            .best_rate
            .max(input.n_keys() as f64 / wall.as_secs_f64());

        let (answers, _) = drain(&cache, input, &input.warm, CLIENTS, rec, "serve.warm");
        check_answers(
            &answers,
            &input.warm,
            &mut self.warm,
            &mut self.digests,
            input,
            false,
            "warm",
            tally,
        );
        let hits = cache.hits();
        self.warm_hits += hits;
        tally.op(hits == input.warm.len(), || {
            format!("serve warm: {hits} hits of {} reads", input.warm.len())
        });

        if first {
            // the same keys through one client on a fresh cache must give
            // the same schedules as two clients did
            let single = SchedCache::new();
            let (answers, _) = drain(&single, input, &input.check, 1, rec, "serve.cold.1client");
            let mut unused = Vec::new();
            check_answers(
                &answers,
                &input.check,
                &mut unused,
                &mut self.digests,
                input,
                false,
                "1-client cold",
                tally,
            );
        }

        let mut restored = None;
        for _ in 0..RESTORE_LOADS {
            let t = Instant::now();
            let text = cache.export_store().to_text();
            let exported = t.elapsed();
            let (store, report) = ScheduleStore::from_text_salvage(&text);
            let parsed = t.elapsed() - exported;
            let kept = store.len();
            let rcache = SchedCache::with_store(store);
            self.load_ms = self.load_ms.min(t.elapsed().as_secs_f64() * 1e3);
            self.export_ms = self.export_ms.min(exported.as_secs_f64() * 1e3);
            self.parse_ms = self.parse_ms.min(parsed.as_secs_f64() * 1e3);
            rec.record("store.restart", t, t.elapsed());
            tally.op(report.dropped() == 0 && kept == input.n_keys(), || {
                format!(
                    "serve restore: salvage kept {kept}, dropped {}",
                    report.dropped()
                )
            });
            restored = Some((rcache, text));
        }
        let (rcache, text) = restored.expect("at least one restore load");
        let (answers, _) = drain(
            &rcache,
            input,
            &input.restore,
            CLIENTS,
            rec,
            "serve.restore",
        );
        check_answers(
            &answers,
            &input.restore,
            &mut self.restore,
            &mut self.digests,
            input,
            first,
            "restore",
            tally,
        );
        tally.op(
            rcache.store_hits() == input.n_keys() as u64 && rcache.stale() == 0,
            || {
                format!(
                    "serve restore: {} store hits, {} stale",
                    rcache.store_hits(),
                    rcache.stale()
                )
            },
        );
        self.last = Some((cache, rcache, text));
        self.passes += 1;
        self.busy += start.elapsed();
    }

    /// Reports the end-to-end metrics and, when tracing, the per-layer
    /// ones (running the decomposition).
    pub fn finish(
        self,
        rec: &mut Recorder,
        tally: &mut Tally,
        e2e: &mut Values,
        layers: &mut Values,
    ) {
        let input = self.input;
        let cold_us = micros(&self.cold);
        let warm_us = micros(&self.warm);
        e2e.insert("cold_req_p50_us", median(&cold_us));
        e2e.insert("warm_req_p50_us", median(&warm_us));
        e2e.insert(
            "warm_req_p99_us",
            tail(&warm_us, 0.99, "warm_req_p99_us", tally),
        );
        e2e.insert("restore_req_p50_us", median(&micros(&self.restore)));
        eprintln!(
            "serve: {} passes of {} keys and {} warm reads, {:.2}s",
            self.passes,
            input.n_keys(),
            input.warm.len(),
            self.busy.as_secs_f64()
        );
        if !rec.on() {
            return;
        }
        let (cache, rcache, text) = self.last.expect("at least one pass");
        let counters = cache
            .shard_counters()
            .into_iter()
            .chain(rcache.shard_counters());
        let (waits, contended) = counters.fold((0, 0), |(w, c), s| {
            (w + s.inflight_waits, c + s.map_contended)
        });
        layers.insert("schedcache.inflight_waits", waits as f64);
        layers.insert("schedcache.map_contended", contended as f64);
        layers.insert("schedcache.prepares", cache.prepares() as f64);
        layers.insert(
            "schedcache.hit_ratio",
            self.warm_hits as f64 / (self.passes * input.warm.len()) as f64,
        );
        layers.insert("schedcache.store_hits", rcache.store_hits() as f64);
        layers.insert("schedcache.stale", rcache.stale() as f64);
        layers.insert("traced.restore_load_ms", self.load_ms);
        layers.insert(
            "traced.cold_req_p99_us",
            tail(&cold_us, 0.99, "traced.cold_req_p99_us", tally),
        );
        layers.insert("traced.cold_req_per_s", self.best_rate);
        layers.insert("store.export_ms", self.export_ms);
        layers.insert("store.parse_ms", self.parse_ms);
        layers.insert("store.bytes", text.len() as f64);
        layers.insert("traced.cold_req_p50_us", median(&cold_us));
        layers.insert("traced.warm_req_p50_us", median(&warm_us));
        layers.insert("schedcache.hit_ns", hit_ns(&cache, input, rec));
        let (store, _) = ScheduleStore::from_text_salvage(&text);
        decompose(input, &store, &self.digests, rec, tally, layers);
    }
}

/// Per-hit cost of the cache hit path, timed over batches of
/// back-to-back hits from one thread (median batch).
fn hit_ns(cache: &SchedCache, input: &ServeInput, rec: &mut Recorder) -> f64 {
    let mut per_hit = Vec::new();
    for batch in input
        .warm
        .chunks(HIT_BATCH)
        .filter(|b| b.len() == HIT_BATCH)
    {
        let (_, d) = rec.span("schedcache.hit_batch", |_| {
            for &idx in batch {
                let req = &input.requests[idx];
                let hit = cache.prepare(&req.kernel, &req.machine, &req.cfg, &input.ctx);
                std::hint::black_box(hit.is_ok());
            }
        });
        per_hit.push(d.as_secs_f64() * 1e9 / HIT_BATCH as f64);
    }
    median(&per_hit)
}

/// `kernel` profiled on the profile input, as the preparation pipeline
/// does it for the synthetic profile source.
fn profiled(
    rec: &mut Recorder,
    t: &mut Times,
    mut kernel: LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
) -> LoopKernel {
    let (layout, _) = rec.span("layout", |_| {
        ArrayLayout::new(&kernel, machine, cfg.padding, ctx.workloads.profile_input)
    });
    let (_, d) = rec.span("profile_kernel", |_| {
        profile_kernel(&mut kernel, machine, &layout, &ctx.profile)
    });
    t.profile.push(d);
    kernel
}

/// Per-call timings and counters of the decomposition.
#[derive(Default)]
struct Times {
    miss_overhead: Vec<f64>,
    self_us: Vec<f64>,
    profile: Vec<Duration>,
    unroll: Vec<Duration>,
    ddg: Vec<Duration>,
    circuits: Vec<Duration>,
    chains: Vec<Duration>,
    latency: Vec<Duration>,
    mii: Vec<Duration>,
    order: Vec<Duration>,
    swing: Vec<Duration>,
    rebuild: Vec<Duration>,
    frontend: Duration,
    requests: Duration,
    variants: u64,
    circuit_count: u64,
    latency_steps: u64,
    ii_over_mii: Vec<f64>,
    stats: SchedStats,
}

fn us(d: &[Duration]) -> f64 {
    median(&micros(d))
}

/// The traced decomposition of sampled cold requests, layer by layer:
/// the cache miss against `prepare_loop` alone, then `prepare_loop`
/// re-run by hand — variant builds, the front-end stage by stage
/// (checked against `schedule_problem`), and the swing backend — and the
/// store rebuild of the same key.
fn decompose(
    input: &ServeInput,
    store: &ScheduleStore,
    digests: &HashMap<usize, u64>,
    rec: &mut Recorder,
    tally: &mut Tally,
    layers: &mut Values,
) {
    let ctx = &input.ctx;
    let cache = SchedCache::new();
    let mut t = Times::default();
    for &idx in &input.decompose {
        let req = &input.requests[idx];
        let (kernel, machine, cfg) = (&req.kernel, &req.machine, &req.cfg);
        rec.request(idx as u64);
        let (miss, t_miss) = rec.span("schedcache.prepare", |_| {
            cache.prepare(kernel, machine, cfg, ctx)
        });
        let (direct, t_direct) =
            rec.span("prepare_loop", |_| prepare_loop(kernel, machine, cfg, ctx));
        let same = match (&miss, &direct) {
            (Ok(m), Ok(d)) => digest(m) == digest(d) && digests.get(&idx) == Some(&digest(d)),
            _ => false,
        };
        tally.op(same, || {
            format!("serve decomposition: request {idx} diverged")
        });
        t.miss_overhead
            .push((t_miss.as_secs_f64() - t_direct.as_secs_f64()) * 1e6);
        t.requests += t_miss;

        let mut built = Duration::ZERO;
        let mut scheduled = Duration::ZERO;
        let (original, d) = rec.span("variant.build", |rec| {
            profiled(rec, &mut t, kernel.clone(), machine, cfg, ctx)
        });
        built += d;
        let candidates = match cfg.unroll {
            UnrollMode::Selective => unroll_candidates(&original, machine),
            _ => vec![(vliw_sched::UnrollChoice::None, 1)],
        };
        let opts = schedule_options(cfg, ctx);
        for (_, factor) in candidates {
            t.variants += 1;
            let (k, d) = rec.span("variant.build", |rec| {
                let (u, d) = rec.span("unroll", |_| unroll(&original, factor));
                t.unroll.push(d);
                profiled(rec, &mut t, u, machine, cfg, ctx)
            });
            built += d;
            let (problem, d_problem) =
                rec.span("schedule_problem", |_| schedule_problem(&k, machine, &opts));
            let (ddg, d) = rec.span("frontend.ddg", |_| Ddg::build(&k));
            t.ddg.push(d);
            let (circuits, d) = rec.span("frontend.circuits", |_| {
                elementary_circuits(&ddg, opts.enum_limits)
            });
            t.circuits.push(d);
            t.circuit_count += circuits.len() as u64;
            let (_, d) = rec.span("frontend.chains", |_| MemChains::build(&k));
            t.chains.push(d);
            let (lat, d) = rec.span("frontend.latency", |_| {
                assign_latencies_with_pins(&k, &ddg, machine, &circuits, &problem.pins)
            });
            t.latency.push(d);
            t.latency_steps += lat.steps.len() as u64;
            let ((res, recur), d) = rec.span("frontend.mii", |_| {
                (res_mii(&k, machine), rec_mii(&ddg, |op| lat.latency_of(op)))
            });
            t.mii.push(d);
            let (order, d) = rec.span("frontend.order", |_| {
                sms_order(&ddg, &circuits, |op| lat.latency_of(op))
            });
            t.order.push(d);
            t.frontend += d_problem;
            // a decomposition that timed different work than the
            // scheduler runs would attribute time wrongly
            let reproduced = lat == problem.latencies
                && res == problem.res_mii
                && recur == problem.rec_mii
                && res.max(recur).max(1) == problem.mii
                && order == problem.order;
            tally.op(reproduced, || {
                format!("serve decomposition: front-end re-run of request {idx} x{factor} differs")
            });
            let (outcome, d_out) =
                rec.span("schedule_outcome", |_| schedule_outcome(&k, machine, opts));
            scheduled += d_out;
            if let Ok(o) = outcome {
                t.swing.push(d_out.saturating_sub(d_problem));
                t.stats.merge(&o.stats);
                t.ii_over_mii
                    .push(f64::from(o.schedule.ii) / f64::from(problem.mii));
            }
        }
        t.self_us
            .push((t_direct.as_secs_f64() - built.as_secs_f64() - scheduled.as_secs_f64()) * 1e6);

        let key = CacheKey::of(kernel, machine, cfg, ctx);
        if let Some(entry) = store.get(&key) {
            let (ok, d) = rec.span("store.rebuild", |rec| {
                let mut scratch = Times::default();
                let original = profiled(rec, &mut scratch, kernel.clone(), machine, cfg, ctx);
                let k = profiled(
                    rec,
                    &mut scratch,
                    unroll(&original, entry.factor),
                    machine,
                    cfg,
                    ctx,
                );
                kernel_fingerprint(&k) == entry.prepared_fp
                    && entry.schedule.verify(&k, machine).is_empty()
            });
            t.rebuild.push(d);
            tally.op(ok, || {
                format!("serve decomposition: rebuild of request {idx} failed")
            });
        }
    }
    let s = &t.stats;
    layers.insert("schedcache.miss_overhead_us", median(&t.miss_overhead));
    layers.insert("store.rebuild_us", us(&t.rebuild));
    layers.insert("prepare_loop.variants", t.variants as f64);
    layers.insert("prepare_loop.self_us", median(&t.self_us));
    layers.insert("unroll.us", us(&t.unroll));
    layers.insert("profile_kernel.us", us(&t.profile));
    layers.insert("ddg.build_us", us(&t.ddg));
    layers.insert("frontend.circuits_us", us(&t.circuits));
    layers.insert("frontend.circuits", t.circuit_count as f64);
    layers.insert("frontend.chains_us", us(&t.chains));
    layers.insert("frontend.latency_us", us(&t.latency));
    layers.insert("frontend.latency_steps", t.latency_steps as f64);
    layers.insert("frontend.mii_us", us(&t.mii));
    layers.insert("frontend.order_us", us(&t.order));
    layers.insert(
        "frontend.share",
        t.frontend.as_secs_f64() / t.requests.as_secs_f64(),
    );
    layers.insert("swing.us", us(&t.swing));
    layers.insert("swing.trial_cycles", s.trial_cycles as f64);
    layers.insert("swing.placements", s.placements as f64);
    layers.insert("swing.rollbacks", s.rollbacks as f64);
    layers.insert("swing.attempts", s.attempts as f64);
    layers.insert(
        "swing.place_ratio",
        s.placements as f64 / s.trial_cycles as f64,
    );
    layers.insert(
        "swing.ii_over_mii",
        t.ii_over_mii.iter().sum::<f64>() / t.ii_over_mii.len() as f64,
    );
}
