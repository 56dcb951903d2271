//! The batch scheduling service: drain a large kernel×config request
//! queue through the sharded schedule cache ([`crate::schedcache`]) with
//! parallel workers, and prove the answers identical cold, warm and
//! reloaded-from-disk.
//!
//! The workload replicates the suite: every factor-1 loop of the context
//! is cloned into perturbed variants (fresh name → fresh array placement
//! and fingerprint; jittered trip count), and each variant is requested
//! under every §4 cluster policy × unroll mode — the shape of a
//! compiler-server clientele, thousands of near-duplicate jobs with a
//! long cost tail.
//!
//! Every pass drains the requests in one order, most expensive first
//! (backend [`cost_rank`](vliw_sched::SchedBackend::cost_rank), then
//! dynamic size), through the crate's one job queue: workers claim the
//! next request from a shared cursor, so the expensive head spreads over
//! the workers and the cheap tail back-fills them. Four passes over the
//! *same* request list:
//!
//! 1. **cold serial** — fresh cache, one worker: the reference answers
//!    and the throughput floor;
//! 2. **cold parallel** — fresh cache, every worker;
//! 3. **warm memory** — the pass-2 cache drained again: every request is
//!    an in-memory hit (hit rate exactly 1.0);
//! 4. **warm disk** — the cache is exported to a [`ScheduleStore`],
//!    reloaded through its text form, and a *fresh* cache backed by it
//!    drains the queue: no candidate scheduling, only rebuild+verify.
//!
//! Every pass folds its per-request schedule digests (in request order)
//! into one fingerprint; all four must be bit-identical. Per-shard
//! hit/contention counters from the cold parallel pass expose how the
//! lock striping behaved under real load.

use std::hash::Hasher as _;
use std::time::Instant;

use vliw_ir::{kernel_fingerprint, LoopKernel, StableHasher};
use vliw_sched::{ClusterPolicy, ScheduleError};
use vliw_trace::Trace;

use crate::context::{ExperimentContext, RunConfig, UnrollMode};
use crate::queue::run_queue;
use crate::schedcache::{SchedCache, ScheduleStore, ShardCounters};

/// How many times one request re-attempts a preparation whose previous
/// attempt panicked (the cache contains the panic and marks the slot
/// failed; the retry adopts and refills it). Transient faults — the
/// fault harness's once-per-generation panic shims, or a real bug tied
/// to lost in-memory state — heal within one retry; a deterministic
/// panic exhausts the retries and fails the request, never the worker.
pub const PANIC_RETRIES: u32 = 3;

/// One job: schedule `kernel` under `cfg`.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The (possibly perturbed) original kernel.
    pub kernel: LoopKernel,
    /// The configuration to prepare it under.
    pub cfg: RunConfig,
}

/// Knobs of the batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Minimum request count; the suite is replicated into perturbed
    /// variants until the queue is at least this long.
    pub target_requests: usize,
    /// Worker threads of the parallel passes.
    pub workers: usize,
}

impl BatchOptions {
    /// Paper-scale defaults: 10k+ requests, one worker per core.
    pub fn full() -> Self {
        BatchOptions {
            target_requests: 10_000,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }

    /// CI-scale defaults: a few hundred requests, bounded workers.
    pub fn quick() -> Self {
        BatchOptions {
            target_requests: 256,
            workers: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(8),
        }
    }
}

/// One timed drain of the queue.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// Wall time of the drain.
    pub seconds: f64,
    /// Requests per second.
    pub per_sec: f64,
    /// The order-sensitive fold of all request digests.
    pub fingerprint: u64,
}

/// The whole batch study.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Requests drained per pass.
    pub requests: usize,
    /// Distinct cache keys the queue resolves to.
    pub unique_keys: usize,
    /// Perturbed variants per suite loop.
    pub variants: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Cache shards used.
    pub shards: usize,
    /// Pass 1: cold, one thread, request order.
    pub cold_serial: PassReport,
    /// Pass 2: cold, every worker.
    pub cold_parallel: PassReport,
    /// Pass 3: pass-2 cache drained again (all in-memory hits).
    pub warm_mem: PassReport,
    /// Pass 4: fresh cache fed by the round-tripped store.
    pub warm_disk: PassReport,
    /// In-memory hit rate of the warm-memory pass (must be 1.0).
    pub warm_hit_rate: f64,
    /// Fraction of warm-disk requests served by store rebuilds.
    pub store_hit_rate: f64,
    /// Store entries rejected as stale in the warm-disk pass.
    pub store_stale: u64,
    /// Entries in the exported store.
    pub store_entries: usize,
    /// Whether the store's text form survived serialize → parse intact.
    pub store_roundtrip_ok: bool,
    /// Whether all four pass fingerprints agree.
    pub deterministic: bool,
    /// Requests whose preparation failed (hashed into the fingerprint;
    /// 0 on the shipped suite).
    pub failures: u64,
    /// Preparation panics contained at the cache's slot boundary, summed
    /// over every pass's cache (0 without injected faults).
    pub panics_contained: u64,
    /// Failed slots recovered (reset + re-attempted) by later requests,
    /// summed over every pass's cache.
    pub slots_recovered: u64,
    /// Re-attempts the drivers made after a
    /// [`ScheduleError::PreparationPanicked`] answer (bounded by
    /// [`PANIC_RETRIES`] per request).
    pub panic_retries: u64,
    /// Panics that escaped the cache's containment and were caught at
    /// the worker-loop boundary instead (the belt-and-braces layer; 0 in
    /// every shipped configuration). Whatever this counts, no worker
    /// thread dies.
    pub worker_panics: u64,
    /// Slots still marked failed after all passes drained — the "zero
    /// unrecovered slots" acceptance gate (retries re-adopt every failed
    /// slot, so this must be 0).
    pub unrecovered_slots: u64,
    /// Per-shard counters captured after the cold parallel pass.
    pub cold_shards: Vec<ShardCounters>,
    /// Panic reasons of slots still marked failed after all passes
    /// (the diagnostic payload behind `unrecovered_slots`; empty on
    /// clean runs).
    pub failed_slot_reasons: Vec<String>,
}

impl BatchReport {
    /// Warm-memory throughput over cold parallel throughput — the
    /// headline "what does the cache buy a batch server" ratio.
    pub fn warm_over_cold(&self) -> f64 {
        self.warm_mem.per_sec / self.cold_parallel.per_sec
    }

    /// The per-shard counter CSV (`results/batch_shards.csv`).
    pub fn shard_csv(&self) -> String {
        let mut out = String::from(
            "shard,entries,hits,store_hits,prepares,stale,inflight_waits,map_contended,\
             panics_contained,slots_recovered\n",
        );
        for (i, s) in self.cold_shards.iter().enumerate() {
            out.push_str(&format!(
                "{i},{},{},{},{},{},{},{},{},{}\n",
                s.entries,
                s.hits,
                s.store_hits,
                s.prepares,
                s.stale,
                s.inflight_waits,
                s.map_contended,
                s.panics_contained,
                s.slots_recovered,
            ));
        }
        out
    }

    /// The `batch` metrics of `BENCH_repro.json`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let b = |x: bool| if x { 1.0 } else { 0.0 };
        vec![
            ("requests".into(), self.requests as f64),
            ("unique_keys".into(), self.unique_keys as f64),
            ("variants".into(), self.variants as f64),
            ("workers".into(), self.workers as f64),
            ("shards".into(), self.shards as f64),
            ("cold_serial_seconds".into(), self.cold_serial.seconds),
            ("cold_serial_per_sec".into(), self.cold_serial.per_sec),
            ("cold_seconds".into(), self.cold_parallel.seconds),
            ("cold_schedules_per_sec".into(), self.cold_parallel.per_sec),
            ("warm_seconds".into(), self.warm_mem.seconds),
            ("warm_schedules_per_sec".into(), self.warm_mem.per_sec),
            ("warm_hit_rate".into(), self.warm_hit_rate),
            ("warm_over_cold".into(), self.warm_over_cold()),
            ("disk_seconds".into(), self.warm_disk.seconds),
            ("disk_schedules_per_sec".into(), self.warm_disk.per_sec),
            ("store_hit_rate".into(), self.store_hit_rate),
            ("store_stale".into(), self.store_stale as f64),
            ("store_entries".into(), self.store_entries as f64),
            ("store_roundtrip_ok".into(), b(self.store_roundtrip_ok)),
            ("deterministic".into(), b(self.deterministic)),
            ("failures".into(), self.failures as f64),
            ("panics_contained".into(), self.panics_contained as f64),
            ("slots_recovered".into(), self.slots_recovered as f64),
            ("panic_retries".into(), self.panic_retries as f64),
            ("worker_panics".into(), self.worker_panics as f64),
            ("unrecovered_slots".into(), self.unrecovered_slots as f64),
            (
                "inflight_waits".into(),
                self.cold_shards
                    .iter()
                    .map(|s| s.inflight_waits)
                    .sum::<u64>() as f64,
            ),
            (
                "map_contended".into(),
                self.cold_shards
                    .iter()
                    .map(|s| s.map_contended)
                    .sum::<u64>() as f64,
            ),
        ]
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} requests ({} unique keys, {} variants/loop), \
             {} workers x {} shards",
            self.requests, self.unique_keys, self.variants, self.workers, self.shards
        )?;
        writeln!(
            f,
            "  cold serial   {:>9.1} req/s ({:.3}s)",
            self.cold_serial.per_sec, self.cold_serial.seconds
        )?;
        writeln!(
            f,
            "  cold parallel {:>9.1} req/s ({:.3}s)",
            self.cold_parallel.per_sec, self.cold_parallel.seconds
        )?;
        writeln!(
            f,
            "  warm memory   {:>9.1} req/s ({:.3}s, hit rate {:.3}, {:.1}x cold)",
            self.warm_mem.per_sec,
            self.warm_mem.seconds,
            self.warm_hit_rate,
            self.warm_over_cold()
        )?;
        writeln!(
            f,
            "  warm disk     {:>9.1} req/s ({:.3}s, store hit rate {:.3}, {} stale)",
            self.warm_disk.per_sec, self.warm_disk.seconds, self.store_hit_rate, self.store_stale
        )?;
        writeln!(
            f,
            "  store: {} entries, round-trip {}; determinism {}; {} failures",
            self.store_entries,
            if self.store_roundtrip_ok {
                "exact"
            } else {
                "BROKEN"
            },
            if self.deterministic { "ok" } else { "BROKEN" },
            self.failures
        )?;
        if self.panics_contained + self.slots_recovered + self.worker_panics > 0 {
            writeln!(
                f,
                "  faults: {} panics contained, {} slots recovered, {} retries, \
                 {} worker-level catches, {} unrecovered",
                self.panics_contained,
                self.slots_recovered,
                self.panic_retries,
                self.worker_panics,
                self.unrecovered_slots
            )?;
        }
        Ok(())
    }
}

/// Builds the request queue: every suite loop × perturbed variant ×
/// (policy × unroll) configuration, at least `target` requests long.
pub fn build_requests(ctx: &ExperimentContext, target: usize) -> (Vec<BatchRequest>, usize) {
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
    let loops: Vec<LoopKernel> = ctx
        .models()
        .into_iter()
        .flat_map(|m| m.loops.into_iter().map(|l| l.kernel))
        .collect();
    let per_variant = loops.len() * configs.len();
    let variants = target.div_ceil(per_variant.max(1)).max(1);
    let mut requests = Vec::with_capacity(per_variant * variants);
    for v in 0..variants {
        for kernel in &loops {
            let kernel = perturb(kernel, v);
            for cfg in &configs {
                requests.push(BatchRequest {
                    kernel: kernel.clone(),
                    cfg: *cfg,
                });
            }
        }
    }
    (requests, variants)
}

/// Variant `v` of a suite kernel: `v == 0` is the kernel itself; later
/// variants get a fresh name (fresh array placement, fresh fingerprint)
/// and a jittered trip count — distinct cache keys doing comparable work,
/// like near-duplicate loops across a program population.
fn perturb(kernel: &LoopKernel, v: usize) -> LoopKernel {
    if v == 0 {
        return kernel.clone();
    }
    let mut k = kernel.clone();
    k.name = format!("{}_v{v}", kernel.name);
    k.avg_trip = (kernel.avg_trip * (1.0 + 0.03 * ((v % 7) as f64))).max(8.0);
    k
}

/// The deterministic digest of one answered request.
fn digest(
    result: &Result<std::sync::Arc<crate::context::PreparedLoop>, vliw_sched::ScheduleError>,
) -> u64 {
    let mut h = StableHasher::new();
    match result {
        Ok(p) => {
            h.write_str(&p.schedule.to_compact_text());
            h.write_u64(kernel_fingerprint(&p.kernel));
        }
        Err(e) => h.write_str(&format!("err {e}")),
    }
    h.finish()
}

/// Most-expensive-first drain order: backend cost rank, then dynamic
/// size. Ties keep queue order, so the order is deterministic.
fn cost_order(requests: &[BatchRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| {
        let r = &requests[i];
        let size = (r.kernel.ops.len() as u64) * (r.kernel.avg_trip as u64).max(1);
        (
            std::cmp::Reverse(r.cfg.backend.cost_rank()),
            std::cmp::Reverse(size),
            i,
        )
    });
    order
}

pub(crate) struct Drain {
    pub(crate) digests: Vec<u64>,
    pub(crate) seconds: f64,
    pub(crate) failures: u64,
    pub(crate) panic_retries: u64,
    pub(crate) worker_panics: u64,
}

/// Answers one request: prepare through the cache, re-attempting after a
/// contained panic (bounded by [`PANIC_RETRIES`]), the whole body under
/// its own `catch_unwind` so even a panic escaping the cache's
/// containment fails this request rather than the worker thread.
/// Returns `(digest, failed, panic_retries, worker_panic)`.
fn answer(
    cache: &SchedCache,
    req: &BatchRequest,
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> (u64, bool, u64, bool) {
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let machine = ctx.machine_for(&req.cfg);
        let mut retries = 0u64;
        let mut result = cache.prepare_traced(&req.kernel, &machine, &req.cfg, ctx, trace);
        while matches!(&result, Err(ScheduleError::PreparationPanicked { .. }))
            && retries < u64::from(PANIC_RETRIES)
        {
            retries += 1;
            result = cache.prepare_traced(&req.kernel, &machine, &req.cfg, ctx, trace);
        }
        (digest(&result), result.is_err(), retries)
    }));
    match attempt {
        Ok((d, failed, retries)) => (d, failed, retries, false),
        Err(_) => {
            // the belt-and-braces layer: whatever unwound to here, the
            // worker survives and the request is the only casualty
            let mut h = StableHasher::new();
            h.write_str("err worker-level panic");
            (h.finish(), true, 0, true)
        }
    }
}

/// One drain of the whole queue through `cache` on `workers` workers, in
/// [`cost_order`]. Digests come back in request order, so every worker
/// count folds to the same fingerprint.
///
/// With an attached trace, worker `w` records on track `w + 1` (track 0
/// stays the main pipeline) and samples the unclaimed request count as a
/// `batch.queue_depth` counter before each claim.
pub(crate) fn drain(
    cache: &SchedCache,
    requests: &[BatchRequest],
    ctx: &ExperimentContext,
    workers: usize,
    trace: Trace<'_>,
) -> Drain {
    let t0 = Instant::now();
    let answers = run_queue(&cost_order(requests), workers, trace, |i, trace| {
        answer(cache, &requests[i], ctx, trace)
    });
    let mut d = Drain {
        digests: Vec::with_capacity(answers.len()),
        seconds: t0.elapsed().as_secs_f64(),
        failures: 0,
        panic_retries: 0,
        worker_panics: 0,
    };
    for (digest, failed, retries, panicked) in answers {
        d.digests.push(digest);
        d.failures += u64::from(failed);
        d.panic_retries += retries;
        d.worker_panics += u64::from(panicked);
    }
    d
}

pub(crate) fn fold(digests: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    for &d in digests {
        h.write_u64(d);
    }
    h.finish()
}

pub(crate) fn pass(d: &Drain, n: usize) -> PassReport {
    PassReport {
        seconds: d.seconds,
        per_sec: n as f64 / d.seconds.max(1e-9),
        fingerprint: fold(&d.digests),
    }
}

/// Runs the whole batch study. See the module docs for the four passes.
pub fn run_batch(ctx: &ExperimentContext, opts: &BatchOptions) -> BatchReport {
    let (requests, variants) = build_requests(ctx, opts.target_requests);
    let n = requests.len();

    // pass 1: cold serial (the reference answers)
    let serial_cache = SchedCache::new();
    let serial = drain(&serial_cache, &requests, ctx, 1, Trace::off());

    // pass 2: cold parallel
    let cache = SchedCache::new();
    let cold = drain(&cache, &requests, ctx, opts.workers, Trace::off());
    let cold_shards = cache.shard_counters();
    let unique_keys = cache.len();

    // pass 3: warm memory (same cache; every request hits)
    let hits_before = cache.hits();
    let warm = drain(&cache, &requests, ctx, opts.workers, Trace::off());
    let warm_hit_rate = (cache.hits() - hits_before) as f64 / n as f64;

    // pass 4: warm disk (export -> text round-trip -> fresh cache)
    let store = cache.export_store();
    let reloaded = ScheduleStore::from_text(&store.to_text());
    let store_roundtrip_ok = reloaded
        .as_ref()
        .map(|r| r.to_text() == store.to_text())
        .unwrap_or(false);
    let disk_cache = SchedCache::new().into_stored(reloaded.unwrap_or_else(|_| store.clone()));
    let disk = drain(&disk_cache, &requests, ctx, opts.workers, Trace::off());
    let store_hit_rate = disk_cache.store_hits() as f64 / n as f64;
    let store_stale = disk_cache.stale();

    let fps = [
        fold(&serial.digests),
        fold(&cold.digests),
        fold(&warm.digests),
        fold(&disk.digests),
    ];
    BatchReport {
        requests: n,
        unique_keys,
        variants,
        workers: opts.workers,
        shards: cache.n_shards(),
        cold_serial: pass(&serial, n),
        cold_parallel: pass(&cold, n),
        warm_mem: pass(&warm, n),
        warm_disk: pass(&disk, n),
        warm_hit_rate,
        store_hit_rate,
        store_stale,
        store_entries: store.len(),
        store_roundtrip_ok,
        deterministic: fps.iter().all(|&f| f == fps[0]),
        failures: serial
            .failures
            .max(cold.failures)
            .max(warm.failures)
            .max(disk.failures),
        panics_contained: serial_cache.panics_contained()
            + cache.panics_contained()
            + disk_cache.panics_contained(),
        slots_recovered: serial_cache.slots_recovered()
            + cache.slots_recovered()
            + disk_cache.slots_recovered(),
        panic_retries: serial.panic_retries
            + cold.panic_retries
            + warm.panic_retries
            + disk.panic_retries,
        worker_panics: serial.worker_panics
            + cold.worker_panics
            + warm.worker_panics
            + disk.worker_panics,
        unrecovered_slots: (serial_cache.failed_slots()
            + cache.failed_slots()
            + disk_cache.failed_slots()) as u64,
        cold_shards,
        failed_slot_reasons: [&serial_cache, &cache, &disk_cache]
            .iter()
            .flat_map(|c| c.failed_slot_reasons())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        let mut ctx = ExperimentContext::quick();
        ctx.benchmarks = vec!["gsmdec".into()];
        ctx.sim.iteration_cap = 48;
        ctx.profile.iteration_cap = 48;
        ctx
    }

    #[test]
    fn batch_is_deterministic_and_fully_warm() {
        let ctx = tiny_ctx();
        let opts = BatchOptions {
            target_requests: 64,
            workers: 4,
        };
        let r = run_batch(&ctx, &opts);
        assert!(r.requests >= 64);
        assert!(r.deterministic, "pass fingerprints diverged");
        assert_eq!(r.failures, 0);
        // clean runs never trip the containment machinery
        assert_eq!(r.panics_contained, 0);
        assert_eq!(r.slots_recovered, 0);
        assert_eq!(r.worker_panics, 0);
        assert_eq!(r.unrecovered_slots, 0);
        assert!(
            (r.warm_hit_rate - 1.0).abs() < 1e-12,
            "warm pass must hit every request"
        );
        assert!(r.store_roundtrip_ok);
        assert_eq!(r.store_entries, r.unique_keys);
        assert!(
            r.store_hit_rate > 0.9,
            "disk pass should rebuild from the store (rate {})",
            r.store_hit_rate
        );
        assert_eq!(r.store_stale, 0, "fresh store entries must never be stale");
        // every request answered exactly once across shards
        let total: u64 = r.cold_shards.iter().map(|s| s.hits + s.prepares).sum();
        assert_eq!(total, r.requests as u64);
    }

    #[test]
    fn request_queue_reaches_target_and_perturbs_fingerprints() {
        let ctx = tiny_ctx();
        let (reqs, variants) = build_requests(&ctx, 100);
        assert!(reqs.len() >= 100);
        assert!(variants >= 2);
        let fp0 = kernel_fingerprint(&reqs[0].kernel);
        let other = reqs
            .iter()
            .find(|r| r.kernel.name != reqs[0].kernel.name)
            .expect("multiple kernels");
        assert_ne!(fp0, kernel_fingerprint(&other.kernel));
    }
}
