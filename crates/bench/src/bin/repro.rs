//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage: `repro [quick|full] [--serial] [table1|table2|example433|fig4|fig5|fig6|fig7|fig8|hints|chains|interleave|mshr|sched|optgap|smt|profile|batch|trace|all]`
//!
//! Results print to stdout and are also written as CSV under `results/`.
//! Every run additionally emits `BENCH_repro.json` — a machine-readable
//! record of per-figure wall time and headline cycle metrics, so the perf
//! trajectory of the full pipeline can be tracked across commits.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use vliw_experiments::{
    batch, chains_exp, example433, faults, fig4, fig5, fig6, fig7, fig8, hints_exp,
    interleave_study, optgap, profile_fidelity, report, smt, tables, trace_exp, ExperimentContext,
    RunConfig, RunGrid, SchedCache, UnrollMode,
};
use vliw_sched::{ClusterPolicy, SchedBackend, SchedStats};

/// The scheduler-throughput record: schedules the suite under every policy
/// (wall time + work counters from [`SchedStats`]) and probes the schedule
/// memo, returning `BENCH_repro.json` metrics and a CSV table.
fn sched_record(ctx: &ExperimentContext) -> (Vec<(String, f64)>, String) {
    let (kernels, machine) = vliw_bench::sched_workload_for(ctx);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut csv = String::from("policy,kernels,seconds,schedules_per_sec,trial_cycles\n");
    let mut total = SchedStats::default();
    let mut total_secs = 0.0;
    let mut total_schedules = 0u64;
    for policy in ClusterPolicy::ALL {
        let label = policy.assigner().name();
        let (stats, elapsed) = vliw_bench::sched_pass(&kernels, &machine, policy);
        let secs = elapsed.as_secs_f64();
        let per_sec = kernels.len() as f64 / secs;
        println!(
            "sched {label}: {} kernels in {secs:.3}s = {per_sec:.1} schedules/sec, \
             {} trial cycles",
            kernels.len(),
            stats.trial_cycles
        );
        let _ = writeln!(
            csv,
            "{label},{},{secs},{per_sec},{}",
            kernels.len(),
            stats.trial_cycles
        );
        metrics.push((format!("schedules_per_sec/{label}"), per_sec));
        metrics.push((format!("trial_cycles/{label}"), stats.trial_cycles as f64));
        total.merge(&stats);
        total_secs += secs;
        total_schedules += kernels.len() as u64;
    }
    metrics.push(("schedules".into(), total_schedules as f64));
    metrics.push((
        "schedules_per_sec".into(),
        total_schedules as f64 / total_secs,
    ));
    metrics.push(("trial_cycles".into(), total.trial_cycles as f64));
    metrics.push((
        "trial_cycles_per_sec".into(),
        total.trial_cycles as f64 / total_secs,
    ));
    metrics.push(("attempts".into(), total.attempts as f64));
    metrics.push(("rollbacks".into(), total.rollbacks as f64));
    metrics.push(("placements".into(), total.placements as f64));
    metrics.push(("cutoffs".into(), total.cutoffs as f64));
    metrics.push(("fallback_retries".into(), total.fallback_retries as f64));

    // memo probe: two configs differing only in a non-preparation axis
    // share every preparation, so the second sweep is all memo hits
    let memo = SchedCache::new();
    let base = RunConfig {
        unroll: UnrollMode::NoUnroll,
        ..RunConfig::ipbc()
    };
    for cfg in [base, base.with_buffers()] {
        let machine = ctx.machine_for(&cfg);
        for model in ctx.models() {
            for lw in &model.loops {
                let _ = memo.prepare(&lw.kernel, &machine, &cfg, ctx);
            }
        }
    }
    println!("sched memo: {} prepared, {} hits", memo.len(), memo.hits());
    metrics.push(("memo_prepared".into(), memo.len() as f64));
    metrics.push(("memo_hits".into(), memo.hits() as f64));
    (metrics, csv)
}

fn save(name: &str, csv: String) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[saved results/{name}.csv]");
        }
    }
}

/// One figure's machine-readable record.
struct FigureRecord {
    name: &'static str,
    wall_seconds: f64,
    metrics: Vec<(String, f64)>,
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn write_bench_json(scale: &str, n_benchmarks: usize, serial: bool, figures: &[FigureRecord]) {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"vliw-bench-repro/1\",");
    let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(scale));
    let _ = writeln!(out, "  \"benchmarks\": {n_benchmarks},");
    let _ = writeln!(out, "  \"serial\": {serial},");
    let total: f64 = figures.iter().map(|f| f.wall_seconds).sum();
    let _ = writeln!(out, "  \"total_wall_seconds\": {},", json_number(total));
    out.push_str("  \"figures\": {\n");
    for (i, f) in figures.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", json_escape(f.name));
        let _ = write!(
            out,
            "      \"wall_seconds\": {}",
            json_number(f.wall_seconds)
        );
        if f.metrics.is_empty() {
            out.push('\n');
        } else {
            out.push_str(",\n      \"metrics\": {\n");
            for (j, (k, v)) in f.metrics.iter().enumerate() {
                let comma = if j + 1 < f.metrics.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "        \"{}\": {}{comma}",
                    json_escape(k),
                    json_number(*v)
                );
            }
            out.push_str("      }\n");
        }
        let comma = if i + 1 < figures.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    let path = "BENCH_repro.json";
    if let Err(e) = fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("[saved {path}]");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = "full";
    let mut serial = false;
    let mut targets: Vec<&str> = Vec::new();
    for a in &args {
        match a.as_str() {
            "quick" | "full" => scale = a,
            "--serial" => serial = true,
            other => targets.push(other),
        }
    }
    if targets.is_empty() {
        targets.push("all");
    }
    const KNOWN: [&str; 20] = [
        "all",
        "batch",
        "faults",
        "trace",
        "table1",
        "table2",
        "example433",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "hints",
        "chains",
        "interleave",
        "mshr",
        "sched",
        "optgap",
        "smt",
        "profile",
    ];
    if let Some(bad) = targets.iter().find(|t| !KNOWN.contains(t)) {
        eprintln!(
            "error: unknown target '{bad}' (expected one of: {})",
            KNOWN.join(", ")
        );
        std::process::exit(2);
    }
    if serial {
        // the figure drivers consult this to pick serial grid execution;
        // used by the determinism check in CI
        std::env::set_var("VLIW_GRID_SERIAL", "1");
    }
    let ctx = if scale == "quick" {
        ExperimentContext::quick()
    } else {
        ExperimentContext::full()
    };
    println!("# scale: {scale} ({} benchmarks)\n", ctx.benchmarks.len());

    let want = |t: &str| targets.contains(&"all") || targets.contains(&t);
    let mut records: Vec<FigureRecord> = Vec::new();
    let mut record = |name: &'static str, started: Instant, metrics: Vec<(String, f64)>| {
        records.push(FigureRecord {
            name,
            wall_seconds: started.elapsed().as_secs_f64(),
            metrics,
        });
    };

    if want("table1") {
        let t0 = Instant::now();
        let t = tables::table1(&ctx);
        println!("{t}");
        save("table1", t.table().to_csv());
        record("table1", t0, Vec::new());
    }
    if want("table2") {
        let t0 = Instant::now();
        let t = tables::table2(&ctx);
        println!("{t}");
        save("table2", t.table().to_csv());
        record("table2", t0, Vec::new());
    }
    if want("example433") {
        let t0 = Instant::now();
        let e = example433::example433();
        println!("{e}");
        save("example433", e.table().to_csv());
        record("example433", t0, Vec::new());
    }
    if want("fig4") {
        let t0 = Instant::now();
        let f = fig4::fig4(&ctx);
        println!("{f}");
        save("fig4", f.table().to_csv());
        let mut m = vec![
            ("alignment_gain".into(), f.alignment_gain()),
            ("unrolling_gain".into(), f.unrolling_gain()),
        ];
        for (b, label) in fig4::BAR_LABELS.iter().enumerate() {
            m.push((format!("local_hit_amean/{label}"), f.amean[b][0]));
        }
        record("fig4", t0, m);
    }
    if want("fig5") {
        let t0 = Instant::now();
        let f = fig5::fig5(&ctx);
        println!("{f}");
        save("fig5", f.table().to_csv());
        let mut m = Vec::new();
        for r in &f.rows {
            m.push((format!("stall_ibc/{}", r.bench), r.stall.0));
            m.push((format!("stall_ipbc/{}", r.bench), r.stall.1));
        }
        record("fig5", t0, m);
    }
    if want("fig6") {
        let t0 = Instant::now();
        let f = fig6::fig6(&ctx);
        println!("{f}");
        save("fig6", f.table().to_csv());
        record(
            "fig6",
            t0,
            vec![
                ("remote_hit_share_ibc".into(), f.remote_hit_share(0)),
                ("remote_hit_share_ipbc".into(), f.remote_hit_share(2)),
                ("ab_reduction_ibc".into(), f.ab_reduction(0)),
                ("ab_reduction_ipbc".into(), f.ab_reduction(2)),
            ],
        );
    }
    if want("fig7") {
        let t0 = Instant::now();
        let f = fig7::fig7(&ctx);
        println!("{f}");
        save("fig7", f.table().to_csv());
        let m = fig7::CONFIG_LABELS
            .iter()
            .enumerate()
            .map(|(i, label)| (format!("wb_amean/{label}"), f.amean[i]))
            .collect();
        record("fig7", t0, m);
    }
    if want("fig8") {
        let t0 = Instant::now();
        let f = fig8::fig8(&ctx);
        println!("{f}");
        save("fig8", f.table().to_csv());
        let mut m = vec![
            ("ipbc_vs_unified5".into(), f.speedup(0, 3)),
            ("ibc_vs_unified5".into(), f.speedup(1, 3)),
            ("ipbc_vs_multivliw".into(), f.vs_multivliw()),
        ];
        for r in &f.rows {
            m.push((format!("unified1_cycles/{}", r.bench), r.unified1_cycles));
            for (i, label) in fig8::BAR_LABELS.iter().enumerate() {
                m.push((
                    format!("cycles/{}/{label}", r.bench),
                    r.bars[i].total() * r.unified1_cycles,
                ));
            }
        }
        record("fig8", t0, m);
    }
    if want("hints") {
        let t0 = Instant::now();
        let h = hints_exp::hints_experiment(&ctx);
        println!("{h}");
        save("hints", h.table().to_csv());
        let mut m = Vec::new();
        for heuristic in ["IPBC", "IBC"] {
            for entries in [8usize, 16] {
                if let Some(r) = h.reduction(heuristic, entries) {
                    m.push((format!("hint_reduction/{heuristic}/{entries}"), r));
                }
            }
        }
        record("hints", t0, m);
    }
    if want("interleave") {
        let t0 = Instant::now();
        let s = interleave_study::interleave_study(&ctx);
        println!("{s}");
        save("interleave", s.table().to_csv());
        let m = s
            .rows
            .iter()
            .map(|r| (format!("cycles/{}/{}B", r.bench, r.interleave), r.cycles))
            .collect();
        record("interleave", t0, m);
    }
    if want("mshr") {
        // in-flight request tracking summary over the Figure 6 bars, on a
        // machine with a deliberately tight MSHR budget so capacity
        // back-pressure is visible
        let t0 = Instant::now();
        let mut mshr_ctx = ctx.clone();
        mshr_ctx.machine = mshr_ctx.machine.clone().with_mshrs(2);
        let res = fig6::fig6_grid().run(&mshr_ctx);
        let t = report::mshr_table(&res);
        print!("{}", t.render());
        save("mshr", t.to_csv());
        let mix = res.mshr_by_config();
        let mut m = Vec::new();
        for (c, (label, _)) in res.configs().iter().enumerate() {
            m.push((format!("fills/{label}"), mix[c][0]));
            m.push((format!("merged/{label}"), mix[c][1]));
            m.push((format!("full_stall/{label}"), mix[c][2]));
            m.push((
                format!("peak_occupancy/{label}"),
                res.mshr_peak_by_config(c) as f64,
            ));
        }
        record("mshr", t0, m);
    }
    if want("sched") {
        // scheduler-throughput record: modulo-schedule the whole workload
        // suite under every policy, plus a memo-effectiveness probe — the
        // tracked perf trajectory of the scheduler core
        let t0 = Instant::now();
        let (s, csv) = sched_record(&ctx);
        save("sched", csv);
        record("sched", t0, s);
    }
    if want("optgap") {
        // optimality-gap study: heuristic II vs the exact branch-and-bound
        // backend under the same front-end, per policy, with cutoffs as a
        // first-class column
        let t0 = Instant::now();
        let g = optgap::optgap(&ctx);
        println!("{g}");
        save("optgap", g.table().to_csv());
        let mut m = vec![
            ("kernels".into(), g.n_kernels as f64),
            ("node_budget".into(), vliw_sched::DEFAULT_NODE_BUDGET as f64),
            ("proven_optimal_fraction".into(), g.proven_fraction()),
        ];
        for r in &g.rows {
            let key = format!("{}/{}", r.policy, r.backend);
            m.push((format!("ii_ratio/{key}"), r.mean_ratio));
            m.push((format!("proven_fraction/{key}"), r.proven_fraction()));
            m.push((format!("matched/{key}"), r.matched as f64));
            m.push((format!("better/{key}"), r.better as f64));
            m.push((format!("cutoff/{key}"), r.cutoff as f64));
            m.push((format!("cutoff_iis/{key}"), r.cutoff_iis as f64));
            m.push((format!("max_live/{key}"), r.mean_max_live));
        }
        // the backend axis end-to-end through the grid: one benchmark,
        // both backends, with the per-config quality summary rendered
        let base = RunConfig {
            unroll: UnrollMode::NoUnroll,
            ..RunConfig::ipbc()
        };
        let bench = ctx
            .benchmarks
            .first()
            .map(String::as_str)
            .unwrap_or("gsmdec");
        let res = RunGrid::new("backend-quality")
            .benchmarks(&[bench])
            .config("IPBC/swing", base)
            .config("IPBC/bnb", base.with_backend(SchedBackend::ExactBnB))
            .run(&ctx);
        let qt = report::backend_quality_table(&res);
        print!("{}", qt.render());
        save("backend_quality", qt.to_csv());
        let q = res.quality_by_config();
        m.push(("grid_proven/bnb".into(), q[1][1] as f64));
        m.push(("grid_cutoff/bnb".into(), q[1][2] as f64));
        record("optgap", t0, m);
    }
    if want("smt") {
        // SMT-LIB export: the factor-1 scheduling problems restated as
        // QF_LIA scripts at their MIIs, one file per kernel, for external
        // solvers to referee independently of the in-tree exact backend
        let t0 = Instant::now();
        let dir = Path::new("results").join("smt");
        match smt::export_suite(&ctx, &dir) {
            Ok(e) => {
                println!(
                    "smt: {} kernels -> {} files ({} bytes) under {}\n",
                    e.n_kernels,
                    e.files.len(),
                    e.bytes,
                    dir.display()
                );
                record(
                    "smt",
                    t0,
                    vec![
                        ("kernels".into(), e.n_kernels as f64),
                        ("files".into(), e.files.len() as f64),
                        ("bytes".into(), e.bytes as f64),
                    ],
                );
            }
            Err(e) => eprintln!("warning: smt export failed: {e}"),
        }
    }
    if want("profile") {
        // the measured-profile subsystem end to end: collect profiles
        // from the timing simulator, persist the versioned store, report
        // synthetic-vs-measured divergence and per-policy cycle deltas,
        // and run the delay-tracking backend over the measured suite
        let t0 = Instant::now();
        let p = profile_fidelity::profile_fidelity(&ctx);
        println!("{p}");
        save("profile_fidelity", p.table().to_csv());
        save("profile_divergence", p.divergence_table().to_csv());
        save("profile_percentiles", p.percentile_table().to_csv());
        let store_path = Path::new("results")
            .join("profiles")
            .join(format!("factor1-{scale}.profile"));
        match p.store.save(&store_path) {
            Ok(()) => println!("[saved {}]", store_path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", store_path.display()),
        }
        let mut m = vec![
            ("store_loops".into(), p.store.len() as f64),
            (
                "store_roundtrip_ok".into(),
                if p.roundtrip_ok { 1.0 } else { 0.0 },
            ),
            ("skipped".into(), p.skipped as f64),
            ("delay_kernels".into(), p.delay.kernels as f64),
            (
                "delay_verify_failures".into(),
                p.delay.verify_failures as f64,
            ),
            ("delay_better".into(), p.delay.better as f64),
            ("delay_skipped".into(), p.delay.skipped as f64),
            ("delay_worse".into(), p.delay.worse as f64),
            ("delay_mean_ii_ratio".into(), p.delay.mean_ii_ratio),
        ];
        for row in &p.percentiles {
            m.push((format!("cycles_delay_p{}", row.p), row.cycles));
        }
        for r in &p.divergence {
            m.push((format!("hit_delta/{}", r.bench), r.mean_hit_delta));
            m.push((format!("pref_agreement/{}", r.bench), r.pref_agreement));
            m.push((
                format!("expected_latency/{}", r.bench),
                r.mean_expected_latency,
            ));
        }
        for pd in &p.policies {
            m.push((
                format!("cycles_synthetic/{}", pd.policy),
                pd.synthetic_cycles,
            ));
            m.push((format!("cycles_measured/{}", pd.policy), pd.measured_cycles));
            m.push((format!("cycles_delay/{}", pd.policy), pd.delay_cycles));
            m.push((
                format!("measured_delta_pct/{}", pd.policy),
                pd.measured_delta_pct(),
            ));
            m.push((
                format!("delay_delta_pct/{}", pd.policy),
                pd.delay_delta_pct(),
            ));
        }
        record("profile", t0, m);
    }
    if want("batch") {
        // the scheduling-as-a-service study: drain a replicated suite
        // queue through the sharded schedule cache cold, warm and from
        // the round-tripped on-disk store, with parallel workers claiming
        // requests most expensive first
        let t0 = Instant::now();
        let mut opts = if scale == "quick" {
            batch::BatchOptions::quick()
        } else {
            batch::BatchOptions::full()
        };
        if serial {
            opts.workers = 1;
        }
        let b = batch::run_batch(&ctx, &opts);
        print!("{b}");
        let ht = report::shard_health_table(&b);
        print!("{}", ht.render());
        save("batch_shards", b.shard_csv());
        save("batch_health", ht.to_csv());
        record("batch", t0, b.metrics());
    }
    if want("trace") {
        // the instrumented pass: a deterministic logical-clock recording
        // of the whole service (cache lifecycle, prepare stages, backends,
        // batch worker, simulation windows), exported as Chrome trace JSON
        // plus a flat metrics snapshot
        let t0 = Instant::now();
        let tr = trace_exp::run_trace(&ctx, 1);
        print!("{tr}");
        let dir = Path::new("results").join("trace");
        let path = dir.join(format!("trace-{scale}.json"));
        if let Err(e) = fs::create_dir_all(&dir).and_then(|()| fs::write(&path, &tr.chrome_json)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[saved {}]", path.display());
        }
        record("trace", t0, tr.metrics);
    }
    if want("faults") {
        // the fault-injection audit: seeded panics, store corruption, an
        // interrupted export and budget starvation against the batch
        // workload; every fault must land in exactly one recovery counter
        // and the drain digests must stay bit-identical
        let t0 = Instant::now();
        let mut fopts = if scale == "quick" {
            faults::FaultOptions::quick()
        } else {
            faults::FaultOptions::full()
        };
        if serial {
            fopts.workers = 1;
        }
        // keep the planned panic spew out of the run log; anything
        // unplanned still prints
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let planned = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("fault plan:"));
            if !planned {
                default_hook(info);
            }
        }));
        let fr = faults::run_faults(&ctx, &fopts);
        let _ = std::panic::take_hook();
        print!("{fr}");
        save("faults", fr.table().to_csv());
        record("faults", t0, fr.metrics());
    }
    if want("chains") {
        let t0 = Instant::now();
        let c = chains_exp::chain_breaking(&ctx, "epicdec");
        println!("{c}");
        save("chains", c.table().to_csv());
        record(
            "chains",
            t0,
            vec![
                ("compute_with".into(), c.compute.0),
                ("compute_without".into(), c.compute.1),
                ("stall_with".into(), c.stall.0),
                ("stall_without".into(), c.stall.1),
            ],
        );
    }

    write_bench_json(scale, ctx.benchmarks.len(), serial, &records);
}
