//! The schedule cache: sharded in memory, versioned on disk.
//!
//! This is the orchestration layer of "scheduling as a service": the
//! single-map schedule memo of earlier revisions, promoted to a
//! content-addressed cache that (a) scales across worker threads by lock
//! striping, and (b) outlives a process via a persistent store in the
//! same integers-only text discipline as the measured-profile store.
//!
//! * **Key** ([`CacheKey`]): `kernel_fingerprint × env fingerprint ×
//!   (arch, policy, backend, profile source, unroll, padding)`. Both
//!   fingerprints are structural FNV-1a digests
//!   ([`vliw_ir::StableHasher`]) — no `Debug`-string hashing, no
//!   per-lookup formatting allocation, stable across toolchains. The env
//!   fingerprint masks Attraction Buffers and MSHRs (consumed by the
//!   cache timing model, downstream of scheduling), so buffer/hint/MSHR
//!   sweeps share preparations exactly as before.
//! * **Shards** ([`SchedCache`]): the key's stable hash picks one of N
//!   independently locked shards; a shard's map lock is held only to
//!   resolve the key to a slot. Each slot's own mutex doubles as the
//!   in-flight guard: concurrent requests for the *same* cell block on
//!   the first computer (one preparation per key, ever), while requests
//!   for other cells — even in the same shard — proceed as soon as the
//!   map lock is released. `try_lock` front-ends count real contention
//!   per shard. A completed cell stays resident for the life of the
//!   cache.
//! * **Store** ([`ScheduleStore`]): completed cells can be exported to a
//!   versioned text form and fed back into a fresh cache. A warm hit
//!   rebuilds the prepared kernel (unroll + profile — no candidate
//!   scheduling) and accepts the stored schedule only if the rebuilt
//!   kernel's fingerprint matches the stored one *and* the schedule
//!   verifies against it; anything else counts as stale and falls
//!   through to a cold preparation. Schedules therefore survive across
//!   runs, and a stale store can only cost time, never correctness.
//! * **Failure containment**: a slot fill runs under `catch_unwind`, so
//!   a panicking preparation fails its own request
//!   ([`ScheduleError::PreparationPanicked`]), marks the slot `Failed`
//!   (counted in [`ShardCounters::panics_contained`]) and leaves the
//!   mutex clean; the next request for the key recovers the slot
//!   ([`ShardCounters::slots_recovered`]) and re-attempts. Store records
//!   carry per-record checksums (format v2) and exports are atomic
//!   (temp file + rename), so a torn file is salvageable record by
//!   record — see [`ScheduleStore::from_text_salvage`]. DESIGN.md
//!   ("Failure model & degradation ladder") walks the full lifecycle.

use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use vliw_ir::{kernel_fingerprint, LoopKernel, StableHasher};
use vliw_machine::MachineConfig;
use vliw_sched::{
    ClusterPolicy, SchedBackend, SchedQuality, Schedule, ScheduleError, UnrollChoice,
};

use vliw_trace::Trace;

use crate::context::{
    prepare_loop_traced, ArchVariant, ExperimentContext, PreparedLoop, ProfileSource, RunConfig,
    UnrollMode, VariantBuilder,
};

/// On-disk format version of [`ScheduleStore`], the only one this build
/// reads. Each record carries a `check <u64>` line (a [`StableHasher`]
/// digest of its header and schedule lines) so the salvage loader can
/// tell a torn or bit-flipped record from a good one.
pub const SCHED_STORE_VERSION: u32 = 2;

/// Lines per store record: `entry` header, four schedule lines, `check`,
/// `endentry`.
const STORE_RECORD_LINES: usize = 7;

/// Default shard count of a [`SchedCache`].
pub const DEFAULT_SHARDS: usize = 16;

/// The preparation-relevant identity of one cache cell.
///
/// `kernel_fp` is the structural fingerprint of the *original* (factor-1,
/// profile-blind) kernel; `env_fp` digests the masked machine and every
/// context knob preparation reads (workload seeds/inputs, profiling and
/// simulation caps, enumeration limits, the delay percentile). The
/// remaining axes are the `RunConfig` fields preparation depends on —
/// not Attraction Buffers, MSHRs or hints, which act downstream of
/// scheduling. Backend and source are part of the key: two backends on
/// the same cell produce different schedules and must never share a slot
/// (`backends_never_share_a_memo_slot` pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`kernel_fingerprint`] of the original kernel.
    pub kernel_fp: u64,
    /// Stable digest of the masked machine + context knobs.
    pub env_fp: u64,
    /// Target cache organization.
    pub arch: ArchVariant,
    /// Cluster-assignment policy.
    pub policy: ClusterPolicy,
    /// Scheduler backend.
    pub backend: SchedBackend,
    /// Profile source.
    pub source: ProfileSource,
    /// Unrolling mode.
    pub unroll: UnrollMode,
    /// §4.3.4 padding flag.
    pub padding: bool,
}

/// The environment fingerprint: masked machine (buffers and MSHRs zeroed
/// — they do not affect preparation) plus every context knob the
/// preparation pipeline reads. Computed with the derived `Hash` of
/// `MachineConfig` fed into a [`StableHasher`], so it is structural and
/// toolchain-stable.
fn env_fingerprint(machine: &MachineConfig, ctx: &ExperimentContext) -> u64 {
    let mut masked = machine.clone();
    masked.attraction_buffers = None;
    masked.mshrs = Default::default();
    let mut h = StableHasher::new();
    masked.hash(&mut h);
    ctx.workloads.hash(&mut h);
    ctx.profile.hash(&mut h);
    ctx.sim.hash(&mut h);
    ctx.enum_limits.hash(&mut h);
    h.write_opt_u64(ctx.delay_percentile.map(f64::to_bits));
    h.write_opt_u64(ctx.cost_ceiling);
    ctx.fallback.hash(&mut h);
    h.finish()
}

fn arch_token(arch: ArchVariant) -> String {
    match arch {
        ArchVariant::WordInterleaved => "wi".into(),
        ArchVariant::MultiVliw => "mv".into(),
        ArchVariant::Unified(lat) => format!("uni{lat}"),
    }
}

fn parse_arch(tok: &str) -> Result<ArchVariant, String> {
    match tok {
        "wi" => Ok(ArchVariant::WordInterleaved),
        "mv" => Ok(ArchVariant::MultiVliw),
        _ => tok
            .strip_prefix("uni")
            .and_then(|l| l.parse().ok())
            .map(ArchVariant::Unified)
            .ok_or_else(|| format!("unknown arch token `{tok}`")),
    }
}

fn policy_token(policy: ClusterPolicy) -> &'static str {
    match policy {
        ClusterPolicy::Free => "base",
        ClusterPolicy::BuildChains => "ibc",
        ClusterPolicy::PreBuildChains => "ipbc",
        ClusterPolicy::NoChains => "nochains",
    }
}

fn parse_policy(tok: &str) -> Result<ClusterPolicy, String> {
    match tok {
        "base" => Ok(ClusterPolicy::Free),
        "ibc" => Ok(ClusterPolicy::BuildChains),
        "ipbc" => Ok(ClusterPolicy::PreBuildChains),
        "nochains" => Ok(ClusterPolicy::NoChains),
        _ => Err(format!("unknown policy token `{tok}`")),
    }
}

fn backend_token(backend: SchedBackend) -> &'static str {
    match backend {
        SchedBackend::SwingModulo => "swing",
        SchedBackend::ExactBnB => "bnb",
        SchedBackend::DelayTracking => "delay",
    }
}

fn parse_backend(tok: &str) -> Result<SchedBackend, String> {
    match tok {
        "swing" => Ok(SchedBackend::SwingModulo),
        "bnb" => Ok(SchedBackend::ExactBnB),
        "delay" => Ok(SchedBackend::DelayTracking),
        _ => Err(format!("unknown backend token `{tok}`")),
    }
}

fn source_token(source: ProfileSource) -> &'static str {
    match source {
        ProfileSource::None => "none",
        ProfileSource::Synthetic => "syn",
        ProfileSource::Measured => "meas",
    }
}

fn parse_source(tok: &str) -> Result<ProfileSource, String> {
    match tok {
        "none" => Ok(ProfileSource::None),
        "syn" => Ok(ProfileSource::Synthetic),
        "meas" => Ok(ProfileSource::Measured),
        _ => Err(format!("unknown source token `{tok}`")),
    }
}

fn unroll_token(unroll: UnrollMode) -> &'static str {
    match unroll {
        UnrollMode::NoUnroll => "no",
        UnrollMode::Ouf => "ouf",
        UnrollMode::Selective => "sel",
    }
}

fn parse_unroll(tok: &str) -> Result<UnrollMode, String> {
    match tok {
        "no" => Ok(UnrollMode::NoUnroll),
        "ouf" => Ok(UnrollMode::Ouf),
        "sel" => Ok(UnrollMode::Selective),
        _ => Err(format!("unknown unroll token `{tok}`")),
    }
}

fn choice_token(choice: UnrollChoice) -> &'static str {
    match choice {
        UnrollChoice::None => "none",
        UnrollChoice::TimesN => "xn",
        UnrollChoice::Ouf => "ouf",
    }
}

fn parse_choice(tok: &str) -> Result<UnrollChoice, String> {
    match tok {
        "none" => Ok(UnrollChoice::None),
        "xn" => Ok(UnrollChoice::TimesN),
        "ouf" => Ok(UnrollChoice::Ouf),
        _ => Err(format!("unknown choice token `{tok}`")),
    }
}

fn quality_token(quality: SchedQuality) -> &'static str {
    match quality {
        SchedQuality::Heuristic => "heur",
        SchedQuality::ProvenOptimal => "opt",
        SchedQuality::CutoffFeasible => "cutoff",
        SchedQuality::DegradedFallback => "degraded",
    }
}

fn parse_quality(tok: &str) -> Result<SchedQuality, String> {
    match tok {
        "heur" => Ok(SchedQuality::Heuristic),
        "opt" => Ok(SchedQuality::ProvenOptimal),
        "cutoff" => Ok(SchedQuality::CutoffFeasible),
        "degraded" => Ok(SchedQuality::DegradedFallback),
        _ => Err(format!("unknown quality token `{tok}`")),
    }
}

impl CacheKey {
    /// The key of `(original, machine, cfg, ctx)`.
    pub fn of(
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
    ) -> Self {
        CacheKey {
            kernel_fp: kernel_fingerprint(original),
            env_fp: env_fingerprint(machine, ctx),
            arch: cfg.arch,
            policy: cfg.policy,
            backend: cfg.backend,
            source: cfg.source,
            unroll: cfg.unroll,
            padding: cfg.padding,
        }
    }

    /// A toolchain-stable hash of the key (used for shard selection, so
    /// shard assignment — and with it the per-shard counters — is
    /// reproducible across runs).
    pub fn stable_hash(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.kernel_fp);
        h.write_u64(self.env_fp);
        h.write_str(&arch_token(self.arch));
        h.write_str(policy_token(self.policy));
        h.write_str(backend_token(self.backend));
        h.write_str(source_token(self.source));
        h.write_str(unroll_token(self.unroll));
        h.write_u8(u8::from(self.padding));
        h.finish()
    }
}

use std::hash::Hasher as _;

/// Locks `m`, recovering from poison: a mutex poisoned by some panic
/// elsewhere still holds coherent data here, because every fill path
/// contains its panics *inside* the guard scope (`catch_unwind` around
/// the computation, never around the lock) and writes a whole
/// [`SlotState`] or nothing. Recovery is therefore always safe, and no
/// waiter ever sees `PoisonError`.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The lifecycle of one cache cell.
#[derive(Debug, Default)]
enum SlotState {
    /// No completed preparation; the slot mutex being held is what marks
    /// a fill in flight.
    #[default]
    Empty,
    /// A completed preparation, served to every later request.
    Ready(Arc<PreparedLoop>),
    /// The last filler panicked (contained at the slot boundary). The
    /// next thread to take the slot observes this, counts the recovery,
    /// resets the slot to [`SlotState::Empty`] and re-attempts — a panic
    /// can fail its own request but never wedges the cell.
    Failed(String),
}

/// One key's entry. The slot's own mutex is the in-flight guard.
type Slot = Mutex<SlotState>;

#[derive(Debug, Default)]
struct ShardStats {
    hits: AtomicU64,
    store_hits: AtomicU64,
    prepares: AtomicU64,
    stale: AtomicU64,
    inflight_waits: AtomicU64,
    map_contended: AtomicU64,
    panics_contained: AtomicU64,
    slots_recovered: AtomicU64,
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<CacheKey, Arc<Slot>>>,
    stats: ShardStats,
}

/// A per-shard counter snapshot (see [`SchedCache::shard_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Completed cells resident in the shard.
    pub entries: u64,
    /// Prepares served from a completed in-memory slot.
    pub hits: u64,
    /// Prepares served by rebuilding a persistent-store entry.
    pub store_hits: u64,
    /// Cold preparations computed.
    pub prepares: u64,
    /// Store entries rejected as stale (fingerprint/verify mismatch).
    pub stale: u64,
    /// Times a thread blocked on another's in-flight preparation of the
    /// same cell (work deduplicated, not duplicated).
    pub inflight_waits: u64,
    /// Times the shard's map lock was busy on arrival (real lock-striping
    /// contention; the map lock is only held to resolve key → slot).
    pub map_contended: u64,
    /// Preparation panics contained at the slot boundary (`catch_unwind`):
    /// each one failed its own request with
    /// [`ScheduleError::PreparationPanicked`] and marked the slot
    /// `Failed` instead of poisoning it.
    pub panics_contained: u64,
    /// Times a thread found a slot a previous filler had marked failed,
    /// reset it, and re-attempted the preparation.
    pub slots_recovered: u64,
}

/// Signature of the function a cache invokes to fill a cold slot —
/// the preparation seam. The default is
/// [`prepare_loop`](crate::context::prepare_loop); the
/// fault-injection harness (and the panic-storm test) swap in shims that
/// panic or starve on selected keys, exercising exactly the containment
/// paths production code runs.
pub type PrepareFn = dyn Fn(
        &LoopKernel,
        &MachineConfig,
        &RunConfig,
        &ExperimentContext,
    ) -> Result<PreparedLoop, ScheduleError>
    + Send
    + Sync;

/// The sharded, persistable schedule cache. See the module docs.
pub struct SchedCache {
    shards: Vec<Shard>,
    store: Option<ScheduleStore>,
    /// Slot-fill override (`None` =
    /// [`prepare_loop`](crate::context::prepare_loop)).
    preparer: Option<Arc<PrepareFn>>,
}

impl std::fmt::Debug for SchedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedCache")
            .field("shards", &self.shards.len())
            .field("store", &self.store.as_ref().map(ScheduleStore::len))
            .field("custom_preparer", &self.preparer.is_some())
            .finish()
    }
}

impl Default for SchedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedCache {
    /// An empty cache with [`DEFAULT_SHARDS`] shards and no backing
    /// store.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty cache with `n` shards (`n ≥ 1`).
    pub fn with_shards(n: usize) -> Self {
        SchedCache {
            shards: (0..n.max(1)).map(|_| Shard::default()).collect(),
            store: None,
            preparer: None,
        }
    }

    /// A cache warmed by `store`: lookups that miss in memory consult the
    /// store and rebuild its schedules instead of re-scheduling.
    pub fn with_store(store: ScheduleStore) -> Self {
        Self::new().into_stored(store)
    }

    /// This cache, backed by `store` (keeps the shard layout).
    pub fn into_stored(mut self, store: ScheduleStore) -> Self {
        self.store = Some(store);
        self
    }

    /// This cache, filling cold slots through `preparer` instead of
    /// [`prepare_loop`](crate::context::prepare_loop) — the
    /// fault-injection seam. Panics thrown by the
    /// preparer are contained exactly like panics from the real pipeline.
    pub fn into_preparer(mut self, preparer: Arc<PrepareFn>) -> Self {
        self.preparer = Some(preparer);
        self
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of cached schedules (completed preparations).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let map = lock_recover(&s.map);
                map.values()
                    .filter(|slot| matches!(*lock_recover(slot), SlotState::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sum(&self, f: impl Fn(&ShardStats) -> &AtomicU64) -> u64 {
        self.shards
            .iter()
            .map(|s| f(&s.stats).load(Ordering::Relaxed))
            .sum()
    }

    /// Prepares served from a completed in-memory slot — the scheduler
    /// work the cache saved within this run.
    pub fn hits(&self) -> usize {
        self.sum(|s| &s.hits) as usize
    }

    /// Prepares served by rebuilding persistent-store entries — the
    /// scheduler work a previous run saved this one.
    pub fn store_hits(&self) -> u64 {
        self.sum(|s| &s.store_hits)
    }

    /// Cold preparations computed.
    pub fn prepares(&self) -> u64 {
        self.sum(|s| &s.prepares)
    }

    /// Persistent-store entries rejected as stale.
    pub fn stale(&self) -> u64 {
        self.sum(|s| &s.stale)
    }

    /// Preparation panics contained at the slot boundary.
    pub fn panics_contained(&self) -> u64 {
        self.sum(|s| &s.panics_contained)
    }

    /// Failed slots observed, reset and re-attempted by a later request.
    pub fn slots_recovered(&self) -> u64 {
        self.sum(|s| &s.slots_recovered)
    }

    /// Slots still marked failed (no request has come back to recover
    /// them). The batch driver drains every request to completion, so
    /// after a batch this must be 0 — the "zero unrecovered slots"
    /// acceptance gate.
    pub fn failed_slots(&self) -> usize {
        self.failed_slot_reasons().len()
    }

    /// The panic reasons of every slot still marked failed — the
    /// diagnostic surface for post-mortems ([`failed_slots`] is its
    /// length).
    ///
    /// [`failed_slots`]: SchedCache::failed_slots
    pub fn failed_slot_reasons(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| {
                let map = lock_recover(&s.map);
                map.values()
                    .filter_map(|slot| match &*lock_recover(slot) {
                        SlotState::Failed(reason) => Some(reason.clone()),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.shards
            .iter()
            .map(|s| {
                let entries = {
                    let map = lock_recover(&s.map);
                    map.values()
                        .filter(|slot| matches!(*lock_recover(slot), SlotState::Ready(_)))
                        .count() as u64
                };
                ShardCounters {
                    entries,
                    hits: s.stats.hits.load(Ordering::Relaxed),
                    store_hits: s.stats.store_hits.load(Ordering::Relaxed),
                    prepares: s.stats.prepares.load(Ordering::Relaxed),
                    stale: s.stats.stale.load(Ordering::Relaxed),
                    inflight_waits: s.stats.inflight_waits.load(Ordering::Relaxed),
                    map_contended: s.stats.map_contended.load(Ordering::Relaxed),
                    panics_contained: s.stats.panics_contained.load(Ordering::Relaxed),
                    slots_recovered: s.stats.slots_recovered.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Looks up or computes the prepared loop for `(original, cfg)` —
    /// the service entry point. Same-key requests dedupe onto one
    /// preparation; different keys never serialize against each other
    /// beyond their shard's key→slot resolution.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures (pathological kernels only), and
    /// reports a contained preparation panic as
    /// [`ScheduleError::PreparationPanicked`]. Failures are not cached:
    /// they are deterministic and rare, so a retry by a later waiter is
    /// harmless. A panic marks the slot `Failed` — the next request for
    /// the key observes that, counts the recovery and re-attempts.
    pub fn prepare(
        &self,
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
    ) -> Result<Arc<PreparedLoop>, ScheduleError> {
        self.prepare_traced(original, machine, cfg, ctx, Trace::off())
    }

    /// [`prepare`](SchedCache::prepare) with an attached [`Trace`] handle:
    /// the slot lifecycle becomes visible as events. A served request emits
    /// exactly one of `cache.hit`, `cache.store_hit` or a `cache.miss`
    /// followed by a `cache.fill` span around the cold preparation; waiting
    /// on another thread's in-flight fill is a `cache.wait` span; observing
    /// and resetting a failed slot is `cache.recovered`; a contained panic
    /// is `cache.failed`; a rejected store entry is `cache.stale`. Every
    /// instant carries the shard index.
    ///
    /// # Errors
    ///
    /// As [`prepare`](SchedCache::prepare).
    pub fn prepare_traced(
        &self,
        original: &LoopKernel,
        machine: &MachineConfig,
        cfg: &RunConfig,
        ctx: &ExperimentContext,
        trace: Trace<'_>,
    ) -> Result<Arc<PreparedLoop>, ScheduleError> {
        let key = CacheKey::of(original, machine, cfg, ctx);
        let shard_idx = (key.stable_hash() % self.shards.len() as u64) as usize;
        let shard = &self.shards[shard_idx];
        let sh = shard_idx as f64;
        let slot = {
            let mut map = match shard.map.try_lock() {
                Ok(g) => g,
                Err(TryLockError::WouldBlock) => {
                    shard.stats.map_contended.fetch_add(1, Ordering::Relaxed);
                    lock_recover(&shard.map)
                }
                Err(TryLockError::Poisoned(e)) => e.into_inner(),
            };
            Arc::clone(map.entry(key).or_default())
        };
        // the slot lock is held across the computation: waiters for the
        // same key block here (instead of duplicating the dominant cost),
        // while cells with other keys proceed untouched
        let mut guard = match slot.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                shard.stats.inflight_waits.fetch_add(1, Ordering::Relaxed);
                // the wait span brackets blocking on another thread's fill
                // of the same cell — waiter wake latency in trace time
                let _wait = if trace.on() {
                    Some(trace.span("cache.wait"))
                } else {
                    None
                };
                lock_recover(&slot)
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        match &*guard {
            SlotState::Ready(hit) => {
                shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                trace.instant("cache.hit", &[("shard", sh)]);
                return Ok(Arc::clone(hit));
            }
            SlotState::Failed(_) => {
                // a previous filler panicked; this request adopts the
                // cell and re-attempts from scratch
                shard.stats.slots_recovered.fetch_add(1, Ordering::Relaxed);
                trace.instant("cache.recovered", &[("shard", sh)]);
                *guard = SlotState::Empty;
            }
            SlotState::Empty => {}
        }
        if let Some(entry) = self.store.as_ref().and_then(|s| s.get(&key)) {
            match rebuild(entry, original, machine, cfg, ctx, trace) {
                Ok(p) => {
                    shard.stats.store_hits.fetch_add(1, Ordering::Relaxed);
                    trace.instant("cache.store_hit", &[("shard", sh)]);
                    let p = Arc::new(p);
                    *guard = SlotState::Ready(Arc::clone(&p));
                    return Ok(p);
                }
                Err(_) => {
                    shard.stats.stale.fetch_add(1, Ordering::Relaxed);
                    trace.instant("cache.stale", &[("shard", sh)]);
                }
            }
        }
        shard.stats.prepares.fetch_add(1, Ordering::Relaxed);
        trace.instant("cache.miss", &[("shard", sh)]);
        let fill_span = if trace.on() {
            Some(trace.span("cache.fill"))
        } else {
            None
        };
        // the panic boundary: the computation — and only the computation —
        // runs under `catch_unwind`, inside the guard scope, so a panic
        // can neither unwind through (poisoning the mutex and wedging
        // every waiter) nor kill the calling worker thread. The shared
        // state a panic could have left half-written is the closure's
        // own; the slot is updated only from a completed result.
        let computed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &self.preparer {
                // custom preparers (fault-injection shims) take no trace
                Some(f) => f(original, machine, cfg, ctx),
                None => prepare_loop_traced(original, machine, cfg, ctx, trace),
            }));
        drop(fill_span);
        let prepared = match computed {
            Ok(Ok(p)) => Arc::new(p),
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                let reason = panic_reason(payload.as_ref());
                shard.stats.panics_contained.fetch_add(1, Ordering::Relaxed);
                trace.instant("cache.failed", &[("shard", sh)]);
                *guard = SlotState::Failed(reason.clone());
                return Err(ScheduleError::PreparationPanicked {
                    loop_name: original.name.clone(),
                    reason,
                });
            }
        };
        *guard = SlotState::Ready(Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Exports every completed cell into a [`ScheduleStore`].
    pub fn export_store(&self) -> ScheduleStore {
        let mut store = ScheduleStore::new();
        for shard in &self.shards {
            let map = lock_recover(&shard.map);
            for (key, slot) in map.iter() {
                if let SlotState::Ready(p) = &*lock_recover(slot) {
                    store.insert(StoreEntry {
                        name: p.kernel.name.clone(),
                        key: *key,
                        choice: p.choice,
                        factor: p.factor,
                        prepared_fp: kernel_fingerprint(&p.kernel),
                        quality: p.quality,
                        schedule: p.schedule.clone(),
                    });
                }
            }
        }
        store
    }
}

/// Rebuilds a [`PreparedLoop`] from a store entry: re-derives the
/// prepared kernel (unroll + profile at the stored factor only — one
/// profiling pass, no candidate scheduling), then accepts the stored
/// schedule only if the rebuilt kernel's fingerprint matches and the
/// schedule verifies against it.
fn rebuild(
    entry: &StoreEntry,
    original: &LoopKernel,
    machine: &MachineConfig,
    cfg: &RunConfig,
    ctx: &ExperimentContext,
    trace: Trace<'_>,
) -> Result<PreparedLoop, String> {
    let mut builder = VariantBuilder::new(original, machine, cfg, ctx, trace);
    let kernel = builder.build(entry.factor).map_err(|e| e.to_string())?;
    let fp = kernel_fingerprint(&kernel);
    if fp != entry.prepared_fp {
        return Err(format!(
            "stale: rebuilt kernel fingerprint {fp} != stored {}",
            entry.prepared_fp
        ));
    }
    if !entry.schedule.verify(&kernel, machine).is_empty() {
        return Err("stale: stored schedule fails verification".into());
    }
    Ok(PreparedLoop {
        kernel,
        schedule: entry.schedule.clone(),
        quality: entry.quality,
        choice: entry.choice,
        factor: entry.factor,
    })
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads; anything else gets a placeholder).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One persisted cell: its key, the unrolling decision, the fingerprint
/// of the prepared (unrolled) kernel the schedule belongs to, and the
/// schedule itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Original kernel name (readability + sort key; no whitespace).
    pub name: String,
    /// The cache key.
    pub key: CacheKey,
    /// Which unrolling variant won.
    pub choice: UnrollChoice,
    /// The unroll factor applied.
    pub factor: u32,
    /// [`kernel_fingerprint`] of the prepared (unrolled) kernel — the
    /// staleness gate: a rebuilt kernel must hash to this before the
    /// stored schedule is trusted.
    pub prepared_fp: u64,
    /// The backend's quality claim.
    pub quality: SchedQuality,
    /// The schedule.
    pub schedule: Schedule,
}

impl StoreEntry {
    fn header_line(&self) -> String {
        format!(
            "entry {} kfp {} efp {} arch {} policy {} backend {} source {} unroll {} pad {} \
             choice {} factor {} pfp {} quality {}",
            self.name,
            self.key.kernel_fp,
            self.key.env_fp,
            arch_token(self.key.arch),
            policy_token(self.key.policy),
            backend_token(self.key.backend),
            source_token(self.key.source),
            unroll_token(self.key.unroll),
            u8::from(self.key.padding),
            choice_token(self.choice),
            self.factor,
            self.prepared_fp,
            quality_token(self.quality),
        )
    }

    /// Parses one record's header line and schedule block.
    fn parse(line: &str, sched_text: &str) -> Result<Self, String> {
        let t: Vec<&str> = line.split_whitespace().collect();
        if t.len() != 26 || t[0] != "entry" {
            return Err(format!("bad entry header: `{line}`"));
        }
        let field = |tag: usize, name: &str| -> Result<&str, String> {
            if t[tag] != name {
                return Err(format!(
                    "entry header: expected `{name}`, found `{}`",
                    t[tag]
                ));
            }
            Ok(t[tag + 1])
        };
        let int = |s: &str| s.parse::<u64>().map_err(|e| format!("entry header: {e}"));
        let key = CacheKey {
            kernel_fp: int(field(2, "kfp")?)?,
            env_fp: int(field(4, "efp")?)?,
            arch: parse_arch(field(6, "arch")?)?,
            policy: parse_policy(field(8, "policy")?)?,
            backend: parse_backend(field(10, "backend")?)?,
            source: parse_source(field(12, "source")?)?,
            unroll: parse_unroll(field(14, "unroll")?)?,
            padding: match field(16, "pad")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("bad pad flag `{other}`")),
            },
        };
        Ok(StoreEntry {
            name: t[1].to_string(),
            key,
            choice: parse_choice(field(18, "choice")?)?,
            factor: u32::try_from(int(field(20, "factor")?)?)
                .map_err(|e| format!("entry header: factor: {e}"))?,
            prepared_fp: int(field(22, "pfp")?)?,
            quality: parse_quality(field(24, "quality")?)?,
            schedule: Schedule::from_compact_text(sched_text)
                .map_err(|e| format!("entry `{}`: {e}", t[1]))?,
        })
    }
}

/// The versioned on-disk form of a [`SchedCache`] — same discipline as
/// the measured-profile store: plain text, integers only, deterministic
/// (entries sorted), byte-exact round-trips, committed-file diffable.
///
/// Format (version 2, the only version read):
///
/// ```text
/// vliw-sched-store 2
/// entries <N>
/// entry <name> kfp <u64> efp <u64> arch <tok> policy <tok> backend <tok>
///       source <tok> unroll <tok> pad <0|1> choice <tok> factor <k>
///       pfp <u64> quality <tok>          (one line)
/// sched ii … (4 lines, `Schedule::to_compact_text`)
/// check <u64>                            (digest of the 5 lines above)
/// endentry
/// ```
///
/// Both loaders run the same record scan. [`ScheduleStore::from_text_salvage`]
/// never errors — it skips records that fail their checksum or parse,
/// stops at broken framing, counts everything it dropped in a
/// [`SalvageReport`], and serves the surviving records.
/// [`ScheduleStore::from_text`] is strict: it rejects the file unless the
/// scan dropped nothing and the declared count equals the number of
/// distinct keys (the loader for stores this build wrote). A torn or
/// bit-flipped store therefore degrades hit rate, never correctness or
/// availability.
#[derive(Debug, Clone, Default)]
pub struct ScheduleStore {
    entries: Vec<StoreEntry>,
    index: HashMap<CacheKey, usize>,
}

/// What [`ScheduleStore::from_text_salvage`] recovered and dropped.
/// Every record of the damaged file lands in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Records recovered intact (checksum and parse both good).
    pub recovered: usize,
    /// Records skipped because their checksum or parse failed while the
    /// record framing was still intact (bit flips, tampered fields).
    pub dropped_corrupt: usize,
    /// Records lost to truncation or broken framing: the partial record
    /// at the damage point plus every declared record after it.
    pub dropped_truncated: usize,
    /// The store prelude named a version this build does not read (or
    /// was itself damaged); nothing was salvaged.
    pub version_rejected: bool,
}

impl SalvageReport {
    /// Total records dropped (everything except `recovered`).
    pub fn dropped(&self) -> usize {
        self.dropped_corrupt + self.dropped_truncated
    }
}

/// The per-record integrity digest: a [`StableHasher`] pass over the
/// header line and the schedule block exactly as serialized.
fn record_checksum(header: &str, sched_text: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(header);
    h.write_str(sched_text);
    h.finish()
}

/// One pass over a store's text, shared by both loaders.
#[derive(Default)]
struct StoreScan {
    /// Every record that passed its checksum and parse.
    store: ScheduleStore,
    /// Where every record went.
    report: SalvageReport,
    /// The `entries <N>` count, if that line parses.
    declared: Option<usize>,
    /// Why the prelude or the first dropped record failed — the strict
    /// loader's error.
    first_error: Option<String>,
}

impl StoreScan {
    fn run(text: &str) -> Self {
        let mut scan = StoreScan::default();
        let lines: Vec<&str> = text.lines().collect();
        let Some(&prelude) = lines.first() else {
            scan.reject_version("empty store".into());
            return scan;
        };
        match prelude
            .strip_prefix("vliw-sched-store ")
            .map(str::parse::<u32>)
        {
            Some(Ok(SCHED_STORE_VERSION)) => {}
            Some(Ok(version)) => {
                scan.reject_version(format!(
                    "store version {version}, this build reads version {SCHED_STORE_VERSION}"
                ));
                return scan;
            }
            _ => {
                scan.reject_version(format!("bad header: `{prelude}`"));
                return scan;
            }
        }
        scan.declared = lines
            .get(1)
            .and_then(|l| l.strip_prefix("entries "))
            .and_then(|n| n.parse().ok());
        let mut i = 2;
        while i < lines.len() {
            let line_no = i + 1;
            let Some(record) = lines.get(i..i + STORE_RECORD_LINES) else {
                scan.drop_truncated(format!("line {line_no}: truncated record"));
                break;
            };
            let header = record[0];
            if !header.starts_with("entry ") || record[STORE_RECORD_LINES - 1] != "endentry" {
                scan.drop_truncated(format!("line {line_no}: broken record framing"));
                break;
            }
            let sched_text = record[1..5].join("\n") + "\n";
            let stored = record[5]
                .strip_prefix("check ")
                .and_then(|c| c.parse::<u64>().ok());
            let computed = record_checksum(header, &sched_text);
            let entry = if stored == Some(computed) {
                StoreEntry::parse(header, &sched_text)
            } else {
                Err("checksum mismatch".into())
            };
            match entry {
                Ok(e) => {
                    scan.store.insert(e);
                    scan.report.recovered += 1;
                }
                Err(e) => {
                    scan.report.dropped_corrupt += 1;
                    scan.note(format!("record at line {line_no}: {e}"));
                }
            }
            i += STORE_RECORD_LINES;
        }
        // records the damage swallowed wholesale (truncation past whole
        // records): the declared count still names them
        if let Some(n) = scan.declared {
            let rep = &scan.report;
            let seen = rep.recovered + rep.dropped_corrupt + rep.dropped_truncated;
            if seen < n {
                scan.report.dropped_truncated += n - seen;
                scan.note(format!("store declares {n} entries but holds {seen}"));
            }
        }
        scan
    }

    fn reject_version(&mut self, err: String) {
        self.report.version_rejected = true;
        self.note(err);
    }

    fn drop_truncated(&mut self, err: String) {
        self.report.dropped_truncated += 1;
        self.note(err);
    }

    fn note(&mut self, err: String) {
        self.first_error.get_or_insert(err);
    }
}

impl ScheduleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry under `key`, if present.
    pub fn get(&self, key: &CacheKey) -> Option<&StoreEntry> {
        self.index.get(key).map(|&i| &self.entries[i])
    }

    /// All entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &StoreEntry> {
        self.entries.iter()
    }

    /// Inserts (or replaces) an entry.
    pub fn insert(&mut self, entry: StoreEntry) {
        match self.index.get(&entry.key) {
            Some(&i) => self.entries[i] = entry,
            None => {
                self.index.insert(entry.key, self.entries.len());
                self.entries.push(entry);
            }
        }
    }

    /// Serializes the store (entries sorted by header line, so the text
    /// is deterministic regardless of insertion or shard order).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut sorted: Vec<&StoreEntry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| e.header_line());
        let mut out = String::new();
        let _ = writeln!(out, "vliw-sched-store {SCHED_STORE_VERSION}");
        let _ = writeln!(out, "entries {}", sorted.len());
        for e in sorted {
            assert!(
                !e.name.chars().any(char::is_whitespace),
                "kernel names must not contain whitespace"
            );
            let header = e.header_line();
            let sched = e.schedule.to_compact_text();
            let check = record_checksum(&header, &sched);
            out.push_str(&header);
            out.push('\n');
            out.push_str(&sched);
            let _ = writeln!(out, "check {check}");
            out.push_str("endentry\n");
        }
        out
    }

    /// Parses a store serialized by [`ScheduleStore::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first framing, token or checksum
    /// error, of a declared entry count that differs from the number of
    /// distinct keys, or of a version mismatch (stale major format, not
    /// silently reinterpreted).
    pub fn from_text(text: &str) -> Result<Self, String> {
        let scan = StoreScan::run(text);
        if let Some(err) = scan.first_error {
            return Err(err);
        }
        match scan.declared {
            Some(n) if n == scan.store.len() => Ok(scan.store),
            Some(n) => Err(format!(
                "store declares {n} entries but {} distinct keys",
                scan.store.len()
            )),
            None => Err("missing or bad entry count line".into()),
        }
    }

    /// Parses a (possibly damaged) store, recovering every record whose
    /// framing, checksum and tokens are intact. Never errors: damage is
    /// counted, not propagated.
    ///
    /// Rules:
    ///
    /// * A prelude naming another version — or too damaged to parse —
    ///   salvages nothing (`version_rejected`; a reinterpreted framing
    ///   would be worse than an empty cache).
    /// * A record whose framing is intact but whose checksum or tokens
    ///   fail is skipped (`dropped_corrupt`) and the scan continues —
    ///   later records survive. The checksum is checked before any token
    ///   is parsed.
    /// * Broken framing (a line where `entry`/`endentry` should be, or
    ///   end-of-file mid-record) ends the scan: alignment downstream of
    ///   the break cannot be trusted. The partial record and every
    ///   declared record after it count as `dropped_truncated`.
    ///
    /// The serving path still verifies every salvaged schedule against
    /// the rebuilt kernel before trusting it (`rebuild`).
    pub fn from_text_salvage(text: &str) -> (Self, SalvageReport) {
        let scan = StoreScan::run(text);
        (scan.store, scan.report)
    }

    /// Writes the store to `path`, creating parent directories. The
    /// write is crash-safe: the text goes to a temporary file in the
    /// same directory which is then atomically renamed over `path`, so a
    /// crash mid-export leaves either the old store or the new one —
    /// never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the temporary file is cleaned up).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = Self::temp_sibling(path);
        let result =
            std::fs::write(&tmp, self.to_text()).and_then(|()| std::fs::rename(&tmp, path));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Fault-injection seam for the crash-mid-export regression test:
    /// performs [`ScheduleStore::save`]'s first phase but dies before the
    /// rename, leaving only `truncate_at` bytes of the temporary file
    /// behind (the debris a real crash would leave). The destination is
    /// never touched. Always returns the interruption as an error.
    ///
    /// # Errors
    ///
    /// Always — the simulated crash.
    pub fn save_interrupted(&self, path: &Path, truncate_at: usize) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let text = self.to_text();
        let cut = truncate_at.min(text.len());
        std::fs::write(Self::temp_sibling(path), &text.as_bytes()[..cut])?;
        Err(std::io::Error::other("export interrupted by fault plan"))
    }

    /// The temporary-file path [`ScheduleStore::save`] writes before the
    /// rename: a sibling of `path` (same filesystem, so the rename is
    /// atomic), suffixed with the process id.
    pub(crate) fn temp_sibling(path: &Path) -> std::path::PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    }

    /// Reads a store from `path` with the strict parser.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures as strings.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_text(&text)
    }

    /// Reads a store from `path` with the salvage parser: parse damage
    /// is absorbed into the [`SalvageReport`], only I/O failure errors.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as strings.
    pub fn load_salvage(path: &Path) -> Result<(Self, SalvageReport), String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self::from_text_salvage(&text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMPTY_SCHED: &str =
        "sched ii 1 mii 1 res 1 rec 1 tmii 1 nops 0 ncopies 0\nops\nlats\ncopies\n";

    /// A one-record store text whose checksum matches `header` + `sched`,
    /// so the loaders get past the integrity check and reach the tokens.
    fn one_record_store(header: &str, sched: &str) -> String {
        let check = record_checksum(header, sched);
        format!("vliw-sched-store {SCHED_STORE_VERSION}\nentries 1\n{header}\n{sched}check {check}\nendentry\n")
    }

    fn header() -> String {
        StoreEntry {
            name: "k".into(),
            key: CacheKey {
                kernel_fp: 1,
                env_fp: 2,
                arch: ArchVariant::WordInterleaved,
                policy: ClusterPolicy::PreBuildChains,
                backend: SchedBackend::SwingModulo,
                source: ProfileSource::Synthetic,
                unroll: UnrollMode::Selective,
                padding: true,
            },
            choice: UnrollChoice::None,
            factor: 1,
            prepared_fp: 3,
            quality: SchedQuality::Heuristic,
            schedule: Schedule::from_compact_text(EMPTY_SCHED).expect("empty schedule parses"),
        }
        .header_line()
    }

    #[test]
    fn out_of_range_record_fields_are_refused() {
        let healthy = one_record_store(&header(), EMPTY_SCHED);
        assert_eq!(ScheduleStore::from_text(&healthy).map(|s| s.len()), Ok(1));

        let cases = [
            // nops × 3 overflows: must not panic
            one_record_store(
                &header(),
                &EMPTY_SCHED.replace("nops 0", "nops 6148914691236517206"),
            ),
            // 2^32 + 1 must not wrap to II 1
            one_record_store(
                &header(),
                &EMPTY_SCHED.replace("sched ii 1", "sched ii 4294967297"),
            ),
            // nor to factor 1
            one_record_store(
                &header().replace("factor 1", "factor 4294967297"),
                EMPTY_SCHED,
            ),
        ];
        for text in &cases {
            assert!(ScheduleStore::from_text(text).is_err(), "{text}");
            let (store, rep) = ScheduleStore::from_text_salvage(text);
            assert!(store.is_empty(), "{text}");
            assert_eq!(rep.dropped_corrupt, 1, "{text}");
        }
    }
}
