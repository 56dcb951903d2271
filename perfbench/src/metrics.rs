//! The metric registry: every metric the benchmark reports, its unit and
//! direction, the scenario it is measured in and, for each per-layer
//! metric, the end-to-end metrics it should move. `BENCHMARK.json` lists
//! the same metrics; the crate's tests keep the two in step.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The scenario the metric describes (`all` for the run-wide ones).
    pub scenario: &'static str,
    /// For a tail percentile, its level; the run holds at least ten
    /// samples beyond it.
    pub tail: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    scenario: &'static str,
    tail: Option<f64>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        scenario,
        tail,
    }
}

/// The end-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("cold_req_p50_us", "us", Lower, "serve", None),
    e2e("warm_req_p50_us", "us", Lower, "serve", None),
    e2e("warm_req_p99_us", "us", Lower, "serve", Some(0.99)),
    e2e("restore_req_p50_us", "us", Lower, "serve", None),
    e2e("exact_proven_frac", "ratio", Higher, "exact", None),
    e2e("sim_cycles", "cycles", Lower, "simulate", None),
    e2e("setup_s", "s", Lower, "all", None),
    e2e("peak_rss_mb", "MiB", Lower, "all", None),
];

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name (`<layer>.<quantity>`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The scenario the layer is measured in.
    pub scenario: &'static str,
    /// The end-to-end metrics (or `traced.` end-to-end figures) a change
    /// in this one should move; empty for the `traced.` figures
    /// themselves.
    pub moves: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    scenario: &'static str,
    moves: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        scenario,
        moves,
    }
}

const COLD_P50: &[&str] = &["cold_req_p50_us"];
const COLD_ALL: &[&str] = &[
    "cold_req_p50_us",
    "traced.cold_req_p99_us",
    "traced.cold_req_per_s",
];
const COLD_TAIL: &[&str] = &["traced.cold_req_p99_us", "traced.cold_req_per_s"];
const TAILS: &[&str] = &["traced.cold_req_p99_us", "warm_req_p99_us"];
const WARM: &[&str] = &["warm_req_p50_us"];
const RESTORE: &[&str] = &["restore_req_p50_us"];
const LOAD: &[&str] = &["traced.restore_load_ms"];
const BUILD: &[&str] = &["cold_req_p50_us", "restore_req_p50_us"];
const EXACT_T: &[&str] = &["traced.exact_solve_p50_ms", "traced.exact_solve_p95_ms"];
const PROOF: &[&str] = &["exact_proven_frac"];
const SIM_T: &[&str] = &["traced.sim_iters_per_s", "traced.sim_loop_p50_ms"];
const ITERS: &[&str] = &["traced.sim_iters_per_s"];
const CYCLES: &[&str] = &["sim_cycles"];
const HINTS: &[&str] = &["traced.sim_loop_p50_ms"];
const NONE: &[&str] = &[];

/// The per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // vliw-experiments::schedcache
    layer(
        "schedcache.miss_overhead_us",
        "us",
        Lower,
        "serve",
        COLD_P50,
    ),
    layer("schedcache.hit_ns", "ns", Lower, "serve", WARM),
    layer("schedcache.hit_ratio", "ratio", Higher, "serve", WARM),
    layer("schedcache.inflight_waits", "count", Lower, "serve", TAILS),
    layer("schedcache.map_contended", "count", Lower, "serve", TAILS),
    layer(
        "schedcache.prepares",
        "count",
        Lower,
        "serve",
        &["traced.cold_req_per_s"],
    ),
    layer("schedcache.store_hits", "count", Higher, "serve", RESTORE),
    layer("schedcache.stale", "count", Lower, "serve", RESTORE),
    layer("store.rebuild_us", "us", Lower, "serve", RESTORE),
    layer("store.export_ms", "ms", Lower, "serve", LOAD),
    layer("store.parse_ms", "ms", Lower, "serve", LOAD),
    layer("store.bytes", "bytes", Lower, "serve", LOAD),
    // vliw-experiments::context
    layer("prepare_loop.variants", "count", Lower, "serve", COLD_TAIL),
    layer("prepare_loop.self_us", "us", Lower, "serve", COLD_P50),
    // vliw-ir / vliw-workloads
    layer("unroll.us", "us", Lower, "serve", BUILD),
    layer("profile_kernel.us", "us", Lower, "serve", BUILD),
    layer("ddg.build_us", "us", Lower, "serve", BUILD),
    layer("address.ns_per_call", "ns", Lower, "simulate", ITERS),
    layer("address.calls", "count", Lower, "simulate", ITERS),
    layer("layout.us", "us", Lower, "simulate", ITERS),
    layer("setup.synthesize_ms", "ms", Lower, "all", &["setup_s"]),
    // vliw-sched front-end, re-run stage by stage
    layer("frontend.circuits_us", "us", Lower, "serve", COLD_TAIL),
    layer("frontend.circuits", "count", Lower, "serve", COLD_TAIL),
    layer("frontend.chains_us", "us", Lower, "serve", COLD_TAIL),
    layer("frontend.latency_us", "us", Lower, "serve", COLD_TAIL),
    layer("frontend.latency_steps", "count", Lower, "serve", COLD_TAIL),
    layer("frontend.mii_us", "us", Lower, "serve", COLD_TAIL),
    layer("frontend.order_us", "us", Lower, "serve", COLD_TAIL),
    layer("frontend.share", "ratio", Lower, "serve", COLD_TAIL),
    // vliw-sched swing backend
    layer("swing.us", "us", Lower, "serve", COLD_ALL),
    layer("swing.trial_cycles", "count", Lower, "serve", COLD_ALL),
    layer("swing.placements", "count", Lower, "serve", COLD_ALL),
    layer("swing.rollbacks", "count", Lower, "serve", COLD_ALL),
    layer("swing.attempts", "count", Lower, "serve", COLD_ALL),
    layer("swing.place_ratio", "ratio", Higher, "serve", COLD_ALL),
    layer("swing.ii_over_mii", "ratio", Lower, "serve", CYCLES),
    // vliw-sched exact backend
    layer("bnb.us", "us", Lower, "exact", EXACT_T),
    layer("bnb.trial_cycles", "count", Lower, "exact", EXACT_T),
    layer("bnb.nodes_per_s", "1/s", Higher, "exact", EXACT_T),
    layer("bnb.fallback_retries", "count", Lower, "exact", EXACT_T),
    layer("bnb.cutoffs", "count", Lower, "exact", PROOF),
    layer("bnb.proven", "count", Higher, "exact", PROOF),
    layer("bnb.better", "count", Higher, "exact", PROOF),
    // vliw-sched hints
    layer("hints.us", "us", Lower, "simulate", HINTS),
    // vliw-mem
    layer("mem.access_ns", "ns", Lower, "simulate", SIM_T),
    layer("mem.build_us", "us", Lower, "simulate", SIM_T),
    layer("mem.accesses", "count", Lower, "simulate", CYCLES),
    layer("mem.local_hit_ratio", "ratio", Higher, "simulate", CYCLES),
    layer("mem.remote_ratio", "ratio", Lower, "simulate", CYCLES),
    layer("mem.ab_hits", "count", Higher, "simulate", CYCLES),
    layer("mem.combined", "count", Lower, "simulate", CYCLES),
    layer("mem.mshr_fills", "count", Lower, "simulate", CYCLES),
    layer(
        "mem.mshr_full_stall_cycles",
        "cycles",
        Lower,
        "simulate",
        CYCLES,
    ),
    // vliw-sim
    layer("sim.self_ns_per_iter", "ns", Lower, "simulate", ITERS),
    layer("sim.iterations", "count", Higher, "simulate", ITERS),
    layer("sim.compute_cycles", "cycles", Lower, "simulate", CYCLES),
    layer("sim.stall_cycles", "cycles", Lower, "simulate", CYCLES),
    layer("sim.stall.local_miss", "cycles", Lower, "simulate", CYCLES),
    layer("sim.stall.remote_hit", "cycles", Lower, "simulate", CYCLES),
    layer("sim.stall.remote_miss", "cycles", Lower, "simulate", CYCLES),
    layer("sim.stall.combined", "cycles", Lower, "simulate", CYCLES),
    layer("sim.stall.mshr", "cycles", Lower, "simulate", CYCLES),
    // the traced run's own end-to-end figures: the first two, beside the
    // untraced run's, give the tracing overhead; the others exist only
    // here, because their spread across runs on a shared host exceeded
    // the largest bound an end-to-end metric may have (see README.md)
    layer("traced.cold_req_p50_us", "us", Lower, "serve", NONE),
    layer("traced.warm_req_p50_us", "us", Lower, "serve", NONE),
    layer("traced.cold_req_p99_us", "us", Lower, "serve", NONE),
    layer("traced.cold_req_per_s", "req/s", Higher, "serve", NONE),
    layer("traced.restore_load_ms", "ms", Lower, "serve", NONE),
    layer("traced.sim_loop_p50_ms", "ms", Lower, "simulate", NONE),
    layer("traced.sim_loop_p95_ms", "ms", Lower, "simulate", NONE),
    layer("traced.sim_iters_per_s", "iter/s", Higher, "simulate", NONE),
    layer("traced.exact_solve_p50_ms", "ms", Lower, "exact", NONE),
    layer("traced.exact_solve_p95_ms", "ms", Lower, "exact", NONE),
];

/// The scenarios every run executes, in order.
pub const SCENARIOS: &[&str] = &["serve", "exact", "simulate"];

/// The workloads, in `BENCHMARK.json` order: each names the scenario
/// that keeps running until `--seconds` have elapsed.
pub const WORKLOADS: &[&str] = &["serve", "simulate"];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Writes a JSON number: finite values only (a non-finite value is a
/// benchmark bug and is reported by the caller as a failure).
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// one `{"value", "unit"}` per metric in `names`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(values[name])
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
