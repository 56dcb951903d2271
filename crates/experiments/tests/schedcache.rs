//! Integration tests of the sharded schedule cache: concurrency safety
//! (exactly one preparation per key under thread storms), persistence
//! (byte-exact round-trips, rebuilds from disk, staleness rejection) and
//! the structural key (same-name kernels with different bodies never
//! collide — the failure mode of name-keyed memoization), and the
//! profiling work of cold preparation and rebuilds.

use std::path::PathBuf;
use std::sync::Arc;

use vliw_experiments::batch::build_requests;
use vliw_experiments::{
    ExperimentContext, PreparedLoop, RunConfig, SchedCache, ScheduleStore, UnrollMode,
};
use vliw_ir::{kernel_fingerprint, LoopKernel};
use vliw_sched::{unroll_candidates, ClusterPolicy};
use vliw_trace::{RecordingSink, Trace};
use vliw_workloads::{profile_kernel, ArrayLayout};

fn ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick();
    ctx.benchmarks = vec!["gsmdec".into()];
    ctx.sim.iteration_cap = 48;
    ctx.profile.iteration_cap = 48;
    ctx
}

fn kernels(ctx: &ExperimentContext) -> Vec<LoopKernel> {
    ctx.models()
        .into_iter()
        .flat_map(|m| m.loops.into_iter().map(|l| l.kernel))
        .collect()
}

fn configs() -> Vec<RunConfig> {
    vec![
        RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        },
        RunConfig {
            policy: ClusterPolicy::BuildChains,
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        },
    ]
}

fn identical(a: &PreparedLoop, b: &PreparedLoop) -> bool {
    a.schedule.to_compact_text() == b.schedule.to_compact_text()
        && kernel_fingerprint(&a.kernel) == kernel_fingerprint(&b.kernel)
        && a.factor == b.factor
        && a.choice == b.choice
}

/// M threads race on the same request list: each key is prepared exactly
/// once, every other request is a hit, and every thread observes answers
/// bit-identical to a serial reference.
#[test]
fn thread_storm_prepares_each_key_exactly_once() {
    let ctx = ctx();
    let kernels = kernels(&ctx);
    let configs = configs();
    let n_keys = kernels.len() * configs.len();
    assert!(n_keys >= 4, "suite too small to stress");

    // serial reference
    let reference: Vec<Arc<PreparedLoop>> = {
        let cache = SchedCache::new();
        configs
            .iter()
            .flat_map(|cfg| {
                let machine = ctx.machine_for(cfg);
                kernels
                    .iter()
                    .map(|k| cache.prepare(k, &machine, cfg, &ctx).expect("schedules"))
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    const THREADS: usize = 8;
    let cache = SchedCache::with_shards(4);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, ctx, kernels, configs, reference) =
                (&cache, &ctx, &kernels, &configs, &reference);
            s.spawn(move || {
                // every thread walks the requests in a different rotation
                // so first-preparers vary per key
                for i in 0..n_keys {
                    let j = (i + t * 3) % n_keys;
                    let cfg = &configs[j / kernels.len()];
                    let kernel = &kernels[j % kernels.len()];
                    let machine = ctx.machine_for(cfg);
                    let got = cache
                        .prepare(kernel, &machine, cfg, ctx)
                        .expect("schedules");
                    assert!(
                        identical(&got, &reference[j]),
                        "thread {t} got a non-reference answer for request {j}"
                    );
                }
            });
        }
    });

    assert_eq!(cache.len(), n_keys, "one completed cell per key");
    assert_eq!(
        cache.prepares(),
        n_keys as u64,
        "each key prepared exactly once"
    );
    assert_eq!(
        cache.hits(),
        THREADS * n_keys - n_keys,
        "every non-first request is an in-memory hit"
    );
    assert_eq!(cache.store_hits(), 0);
    assert_eq!(cache.stale(), 0);
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vliw-schedcache-{}-{name}", std::process::id()))
}

/// Persist → reload is byte-identical, and a fresh cache fed by the
/// reloaded store answers every request by rebuild (no scheduling), with
/// answers bit-identical to the cold ones.
#[test]
fn store_round_trips_and_serves_rebuilds() {
    let ctx = ctx();
    let kernels = kernels(&ctx);
    let cfg = configs()[0];
    let machine = ctx.machine_for(&cfg);

    let cache = SchedCache::new();
    let cold: Vec<Arc<PreparedLoop>> = kernels
        .iter()
        .map(|k| cache.prepare(k, &machine, &cfg, &ctx).expect("schedules"))
        .collect();

    let store = cache.export_store();
    assert_eq!(store.len(), kernels.len());
    let path = temp_path("roundtrip.store");
    store.save(&path).expect("store saves");
    let reloaded = ScheduleStore::load(&path).expect("store loads");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        store.to_text(),
        reloaded.to_text(),
        "byte-identical round-trip"
    );

    let warm_cache = SchedCache::with_store(reloaded);
    for (k, cold_p) in kernels.iter().zip(&cold) {
        let warm_p = warm_cache
            .prepare(k, &machine, &cfg, &ctx)
            .expect("rebuilds");
        assert!(
            identical(&warm_p, cold_p),
            "{}: warm answer drifted",
            k.name
        );
    }
    assert_eq!(warm_cache.store_hits(), kernels.len() as u64);
    assert_eq!(
        warm_cache.prepares(),
        0,
        "no request fell back to scheduling"
    );
    assert_eq!(warm_cache.stale(), 0);
}

/// A rebuild re-derives the prepared kernel *with its profiles* equal to
/// the cold path's. `kernel_fingerprint` ignores profiles, so neither the
/// staleness gate nor a schedule digest would notice a rebuild that
/// profiled differently; this compares the whole kernel.
#[test]
fn restored_kernels_equal_cold_kernels_profiles_included() {
    let ctx = ctx();
    let (requests, _) = build_requests(&ctx, 1);
    for padding in [true, false] {
        let cache = SchedCache::new();
        let cfgs: Vec<RunConfig> = requests
            .iter()
            .map(|r| RunConfig { padding, ..r.cfg })
            .collect();
        let cold: Vec<Arc<PreparedLoop>> = requests
            .iter()
            .zip(&cfgs)
            .map(|(r, cfg)| {
                let machine = ctx.machine_for(cfg);
                cache
                    .prepare(&r.kernel, &machine, cfg, &ctx)
                    .expect("schedules")
            })
            .collect();
        let store = ScheduleStore::from_text(&cache.export_store().to_text()).expect("parses");
        let restored_cache = SchedCache::with_store(store);
        for ((r, cfg), cold) in requests.iter().zip(&cfgs).zip(&cold) {
            let machine = ctx.machine_for(cfg);
            let restored = restored_cache
                .prepare(&r.kernel, &machine, cfg, &ctx)
                .expect("rebuilds");
            assert!(
                restored.kernel == cold.kernel,
                "{} {:?} padding {padding}: rebuilt kernel differs from the cold one",
                r.kernel.name,
                cfg.unroll
            );
        }
        assert_eq!(restored_cache.store_hits(), requests.len() as u64);
        assert_eq!(restored_cache.prepares(), 0, "every request was rebuilt");
    }
}

/// `prepare.profile` spans recorded while `run` executes.
fn profile_passes(run: impl FnOnce(Trace<'_>)) -> f64 {
    let sink = RecordingSink::logical();
    run(Trace::new(&sink));
    sink.metrics()
        .get("span_count/prepare.profile")
        .unwrap_or(0.0)
}

/// Each distinct kernel is profiled once: a `NoUnroll` request profiles
/// only the original (the OUF analysis's pass doubles as the factor-1
/// variant's), a `Selective` request profiles each candidate factor once,
/// and a store rebuild profiles only the stored factor.
#[test]
fn each_distinct_kernel_is_profiled_once() {
    let ctx = ctx();
    for unroll in [UnrollMode::NoUnroll, UnrollMode::Selective] {
        let cfg = RunConfig {
            unroll,
            ..RunConfig::ipbc()
        };
        let machine = ctx.machine_for(&cfg);
        for kernel in kernels(&ctx) {
            let expected = match unroll {
                UnrollMode::Selective => {
                    let mut k = kernel.clone();
                    let layout =
                        ArrayLayout::new(&k, &machine, cfg.padding, ctx.workloads.profile_input);
                    profile_kernel(&mut k, &machine, &layout, &ctx.profile);
                    unroll_candidates(&k, &machine).len() as f64
                }
                _ => 1.0,
            };
            let cache = SchedCache::new();
            let cold = profile_passes(|trace| {
                cache
                    .prepare_traced(&kernel, &machine, &cfg, &ctx, trace)
                    .expect("schedules");
            });
            assert_eq!(cold, expected, "{} {unroll:?}: cold passes", kernel.name);

            let restored_cache = SchedCache::with_store(cache.export_store());
            let rebuilt = profile_passes(|trace| {
                restored_cache
                    .prepare_traced(&kernel, &machine, &cfg, &ctx, trace)
                    .expect("rebuilds");
            });
            assert_eq!(restored_cache.store_hits(), 1);
            assert_eq!(rebuilt, 1.0, "{} {unroll:?}: rebuild passes", kernel.name);
        }
    }
}

/// A store whose prepared-kernel fingerprints no longer match (the kernel
/// changed since the store was written) is rejected entry by entry: the
/// cache falls back to cold preparation, counts the staleness, and still
/// produces correct answers.
#[test]
fn stale_fingerprints_are_rejected() {
    let ctx = ctx();
    let kernels = kernels(&ctx);
    let cfg = configs()[0];
    let machine = ctx.machine_for(&cfg);

    let cache = SchedCache::new();
    let cold: Vec<Arc<PreparedLoop>> = kernels
        .iter()
        .map(|k| cache.prepare(k, &machine, &cfg, &ctx).expect("schedules"))
        .collect();

    // shift every stored prepared-kernel fingerprint and re-serialize
    // (the shape of a stale committed store after a kernel change: it
    // was *validly written* — checksums intact — against kernels that
    // no longer exist)
    let mut shifted = ScheduleStore::new();
    for e in cache.export_store().entries() {
        let mut e = e.clone();
        e.prepared_fp = e.prepared_fp.wrapping_add(1);
        shifted.insert(e);
    }
    let stale_store =
        ScheduleStore::from_text(&shifted.to_text()).expect("stale store still parses");

    let warm_cache = SchedCache::with_store(stale_store);
    for (k, cold_p) in kernels.iter().zip(&cold) {
        let p = warm_cache
            .prepare(k, &machine, &cfg, &ctx)
            .expect("schedules");
        assert!(identical(&p, cold_p), "{}: stale fallback drifted", k.name);
    }
    assert_eq!(
        warm_cache.stale(),
        kernels.len() as u64,
        "every entry rejected"
    );
    assert_eq!(warm_cache.store_hits(), 0);
    assert_eq!(
        warm_cache.prepares(),
        kernels.len() as u64,
        "all fell back cold"
    );
}

/// A version bump is stale wholesale: the loader refuses the file rather
/// than reinterpreting another format's framing.
#[test]
fn store_version_mismatch_is_an_error() {
    let text = "vliw-sched-store 999\nentries 0\n";
    let err = ScheduleStore::from_text(text).expect_err("future version must not parse");
    assert!(err.contains("version"), "unhelpful error: {err}");
}

/// The key is structural, not nominal: two kernels sharing a name but
/// differing in body get distinct cache cells — the collision a
/// name-keyed (or `Debug`-string-keyed) memo would suffer.
#[test]
fn same_name_different_body_never_collides() {
    let ctx = ctx();
    let kernels = kernels(&ctx);
    let cfg = configs()[0];
    let machine = ctx.machine_for(&cfg);

    let a = kernels[0].clone();
    let mut b = a.clone();
    b.avg_trip *= 2.0; // same name, different body
    assert_eq!(a.name, b.name);
    assert_ne!(kernel_fingerprint(&a), kernel_fingerprint(&b));

    let cache = SchedCache::new();
    let pa = cache.prepare(&a, &machine, &cfg, &ctx).expect("schedules");
    let pb = cache.prepare(&b, &machine, &cfg, &ctx).expect("schedules");
    assert_eq!(cache.len(), 2, "distinct bodies must occupy distinct cells");
    assert_eq!(
        cache.hits(),
        0,
        "the second kernel must not hit the first's cell"
    );
    assert_ne!(
        kernel_fingerprint(&pa.kernel),
        kernel_fingerprint(&pb.kernel),
        "each cell serves its own kernel"
    );
}

/// An export that dies before the atomic rename (simulated through the
/// [`ScheduleStore::save_interrupted`] fault seam) leaves the previously
/// committed store byte-intact and loadable; the next healthy export
/// replaces it atomically.
#[test]
fn interrupted_export_never_touches_the_destination() {
    let ctx = ctx();
    let kernels = kernels(&ctx);
    let configs = configs();
    let path = temp_path("interrupted.store");

    // commit a first-generation store
    let cache = SchedCache::new();
    let machine = ctx.machine_for(&configs[0]);
    for k in &kernels {
        cache
            .prepare(k, &machine, &configs[0], &ctx)
            .expect("schedules");
    }
    let committed = cache.export_store();
    committed.save(&path).expect("first export commits");
    let committed_text = committed.to_text();

    // grow a second generation, then kill its export partway — at every
    // interesting cut point the destination must stay the committed text
    let machine1 = ctx.machine_for(&configs[1]);
    for k in &kernels {
        cache
            .prepare(k, &machine1, &configs[1], &ctx)
            .expect("schedules");
    }
    let grown = cache.export_store();
    assert!(grown.len() > committed.len());
    let grown_text = grown.to_text();
    for cut in [0, 1, grown_text.len() / 2, grown_text.len() - 1] {
        grown
            .save_interrupted(&path, cut)
            .expect_err("the simulated crash must surface as an error");
        assert_eq!(
            std::fs::read_to_string(&path).expect("destination still readable"),
            committed_text,
            "cut at {cut} corrupted the committed store"
        );
        let reloaded = ScheduleStore::load(&path).expect("destination still loads strictly");
        assert_eq!(reloaded.to_text(), committed_text);
    }

    // the next healthy export atomically replaces the old generation
    grown.save(&path).expect("healthy export commits");
    assert_eq!(
        std::fs::read_to_string(&path).expect("readable"),
        grown_text
    );
    // no temp debris left behind by either the crash or the commit
    let debris: Vec<_> = std::fs::read_dir(path.parent().expect("parent"))
        .expect("listable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| {
            n.starts_with(&format!(
                "{}.tmp.",
                path.file_name().expect("name").to_string_lossy()
            ))
        })
        .collect();
    std::fs::remove_file(&path).ok();
    for d in &debris {
        std::fs::remove_file(path.parent().expect("parent").join(d)).ok();
    }
    assert!(
        debris.len() <= 1,
        "at most the one interrupted temp file may remain: {debris:?}"
    );
}

/// Eight threads storm a cache whose preparer panics once on a victim
/// key: the panic is contained (no worker dies, no mutex poisons, no
/// deadlock), the slot is marked failed, the next request recovers it,
/// and every thread converges on answers bit-identical to a clean
/// serial reference.
#[test]
fn panic_storm_is_contained_and_recovered() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use vliw_experiments::prepare_loop;
    use vliw_sched::ScheduleError;

    let ctx = ctx();
    let kernels = kernels(&ctx);
    let configs = configs();
    let n_keys = kernels.len() * configs.len();
    let victim = kernels[0].name.clone();

    // clean serial reference
    let reference: Vec<Arc<PreparedLoop>> = {
        let cache = SchedCache::new();
        configs
            .iter()
            .flat_map(|cfg| {
                let machine = ctx.machine_for(cfg);
                kernels
                    .iter()
                    .map(|k| cache.prepare(k, &machine, cfg, &ctx).expect("schedules"))
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    let armed = AtomicBool::new(true);
    let cache = SchedCache::with_shards(4).into_preparer(Arc::new(
        move |k: &_, m: &_, cfg: &_, ctx: &_| {
            if k.name == victim && armed.swap(false, Ordering::SeqCst) {
                panic!("fault plan: injected preparation panic");
            }
            prepare_loop(k, m, cfg, ctx)
        },
    ));

    const THREADS: usize = 8;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cache, ctx, kernels, configs, reference) =
                (&cache, &ctx, &kernels, &configs, &reference);
            s.spawn(move || {
                for i in 0..n_keys {
                    let j = (i + t * 3) % n_keys;
                    let cfg = &configs[j / kernels.len()];
                    let kernel = &kernels[j % kernels.len()];
                    let machine = ctx.machine_for(cfg);
                    let mut attempts = 0;
                    let got = loop {
                        match cache.prepare(kernel, &machine, cfg, ctx) {
                            Ok(p) => break p,
                            Err(ScheduleError::PreparationPanicked { reason, .. }) => {
                                attempts += 1;
                                assert!(attempts <= 2, "panic must not recur: {reason}");
                            }
                            Err(e) => panic!("unexpected failure: {e}"),
                        }
                    };
                    assert!(
                        identical(&got, &reference[j]),
                        "thread {t} got a non-reference answer for request {j}"
                    );
                }
            });
        }
    });

    assert_eq!(cache.panics_contained(), 1, "exactly the injected panic");
    assert_eq!(
        cache.slots_recovered(),
        1,
        "the failed slot is adopted exactly once"
    );
    assert_eq!(cache.failed_slots(), 0, "no unrecovered slot survives");
    assert!(cache.failed_slot_reasons().is_empty());
    assert_eq!(
        cache.prepares(),
        n_keys as u64 + 1,
        "every key prepared once, plus the panicked attempt"
    );
    assert_eq!(cache.len(), n_keys, "every cell completed");
}

/// Truncation property: for *every* byte boundary of a healthy store,
/// the salvage loader never panics, recovers exactly the records whose
/// lines survived whole, serves them bit-identical to the originals,
/// and accounts for every declared record once the prelude is intact.
#[test]
fn salvage_recovers_exactly_the_intact_prefix() {
    use vliw_experiments::schedcache::SalvageReport;

    let ctx = ctx();
    let kernels = kernels(&ctx);
    let configs = configs();
    let cache = SchedCache::new();
    for cfg in &configs {
        let machine = ctx.machine_for(cfg);
        for k in &kernels {
            cache.prepare(k, &machine, cfg, &ctx).expect("schedules");
        }
    }
    let text = cache.export_store().to_text();
    // compare against the round-tripped form: serialization drops the
    // latency-assignment derivation trace, so the persisted record is
    // the baseline a salvaged record must match bit-for-bit
    let store = ScheduleStore::from_text(&text).expect("healthy store parses");
    let n_records = store.len();
    assert!(n_records >= 4, "population too small to exercise salvage");

    // byte offsets: end of each line (incl. newline), then per record
    let lines: Vec<&str> = text.lines().collect();
    let mut ends = Vec::with_capacity(lines.len());
    let mut off = 0usize;
    for l in &lines {
        off += l.len() + 1;
        ends.push(off);
    }
    const REC_LINES: usize = 7; // entry + 4 sched + check + endentry
    assert_eq!(lines.len(), 2 + n_records * REC_LINES);
    let prelude_end = ends[1];
    let record_end = |r: usize| ends[2 + r * REC_LINES + (REC_LINES - 1)];

    let verify_served = |salvaged: &ScheduleStore, rep: &SalvageReport| {
        assert_eq!(salvaged.len(), rep.recovered);
        for e in salvaged.entries() {
            let orig = store.get(&e.key).expect("salvage invented a record");
            assert_eq!(e, orig, "served record drifted from the original");
        }
    };

    for cut in 0..=text.len() {
        let (salvaged, rep) = ScheduleStore::from_text_salvage(&text[..cut]);
        verify_served(&salvaged, &rep);
        let expected = if cut < prelude_end {
            0
        } else {
            (0..n_records).filter(|&r| cut + 1 >= record_end(r)).count()
        };
        assert_eq!(rep.recovered, expected, "cut at byte {cut}");
        if cut >= prelude_end {
            assert_eq!(
                rep.recovered + rep.dropped(),
                n_records,
                "cut at byte {cut}: every declared record must be accounted for"
            );
            assert!(!rep.version_rejected);
        }
    }

    // seeded random single-bit flips over the record region: salvage
    // must never panic and never serve a record that fails its checksum
    let mut rng = vliw_workloads::rng::StdRng::seed_from_u64(0xFAA57);
    for _ in 0..200 {
        let byte = rng.random_range(prelude_end..text.len());
        let bit = rng.random_range(0..8u32);
        let mut damaged = text.clone().into_bytes();
        damaged[byte] ^= 1 << bit;
        let damaged = String::from_utf8_lossy(&damaged).into_owned();
        let (salvaged, rep) = ScheduleStore::from_text_salvage(&damaged);
        verify_served(&salvaged, &rep);
        assert!(rep.recovered < n_records || rep.dropped() == 0);
    }

    // deterministic corrupt-middle check: flip one digit inside the
    // first record's schedule block — that record alone drops as
    // corrupt, everything after it still loads
    let target = ends[2]; // first byte of the first sched line
    let mut damaged = text.clone().into_bytes();
    let digit = (target..ends[3])
        .find(|&i| damaged[i].is_ascii_digit())
        .expect("schedule lines carry digits");
    damaged[digit] = if damaged[digit] == b'9' { b'8' } else { b'9' };
    let damaged = String::from_utf8(damaged).expect("still utf8");
    let (salvaged, rep) = ScheduleStore::from_text_salvage(&damaged);
    verify_served(&salvaged, &rep);
    assert_eq!(
        rep.dropped_corrupt, 1,
        "the flipped record drops as corrupt"
    );
    assert_eq!(rep.dropped_truncated, 0);
    assert_eq!(rep.recovered, n_records - 1, "the scan continues past it");
}

/// Version-1 stores (no per-record checksum) are no longer read: the
/// strict loader refuses the file naming its version, and the salvage
/// loader rejects the prelude instead of reinterpreting the shorter
/// framing.
#[test]
fn version1_store_is_refused() {
    let ctx = ctx();
    let kernels = kernels(&ctx);
    let cfg = configs()[0];
    let machine = ctx.machine_for(&cfg);
    let cache = SchedCache::new();
    for k in &kernels {
        cache.prepare(k, &machine, &cfg, &ctx).expect("schedules");
    }
    let v2_text = cache.export_store().to_text();
    assert!(
        ScheduleStore::from_text(&v2_text).is_ok(),
        "v2 store parses"
    );

    // rewrite the v2 text in v1 form: drop the check lines, bump the
    // version token down
    let v1_text = v2_text
        .lines()
        .filter(|l| !l.starts_with("check "))
        .map(|l| {
            if l.starts_with("vliw-sched-store ") {
                "vliw-sched-store 1".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";

    let err = ScheduleStore::from_text(&v1_text).expect_err("v1 stores are not read");
    assert!(
        err.contains("version 1"),
        "error must name the version: {err}"
    );

    let (salvaged, rep) = ScheduleStore::from_text_salvage(&v1_text);
    assert!(rep.version_rejected);
    assert_eq!(rep.recovered, 0);
    assert!(salvaged.is_empty());
}
