//! The lock-step VLIW execution engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vliw_ir::{DepKind, LoopKernel, OpId};
use vliw_machine::{AccessClass, MachineConfig};
use vliw_mem::{AccessRequest, DataCache};
use vliw_sched::{AttractionHints, Schedule};
use vliw_trace::Trace;

/// Accounting-window length of the traced simulator's stall attribution,
/// in multiples of the schedule's II: every `II × this` cycles of
/// measured simulated time, one `sim.window` instant reports the window's
/// stall deltas by cause.
pub const TRACE_WINDOW_IIS: u64 = 16;

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimOptions {
    /// Maximum kernel iterations actually simulated per loop; longer trip
    /// counts are scaled (the cache reaches steady state long before this).
    pub iteration_cap: u64,
    /// Un-measured iterations executed first to warm the module caches —
    /// the paper simulates whole programs, so loops almost always find
    /// their working set resident. Attraction Buffers still flush between
    /// the warm-up and the measured pass (the paper flushes them whenever
    /// a loop finishes). Set to 0 to measure cold.
    pub warmup_iterations: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            iteration_cap: 1024,
            warmup_iterations: 256,
        }
    }
}

/// Stall cycles by cause.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallBreakdown {
    by_class: [f64; 4],
    /// Stall caused by combined (merged in-flight) accesses.
    pub combined: f64,
    /// Stall caused by accesses that waited for a free miss-status
    /// register (MSHR capacity back-pressure).
    pub mshr_full: f64,
}

fn class_index(c: AccessClass) -> usize {
    match c {
        AccessClass::LocalHit => 0,
        AccessClass::RemoteHit => 1,
        AccessClass::LocalMiss => 2,
        AccessClass::RemoteMiss => 3,
    }
}

impl StallBreakdown {
    /// Stall cycles attributed to accesses of `class`.
    pub fn of(&self, class: AccessClass) -> f64 {
        self.by_class[class_index(class)]
    }

    /// Total stall cycles.
    pub fn total(&self) -> f64 {
        self.by_class.iter().sum::<f64>() + self.combined + self.mshr_full
    }

    /// Scales every component (used when extrapolating capped runs).
    pub fn scaled(&self, factor: f64) -> StallBreakdown {
        StallBreakdown {
            by_class: self.by_class.map(|x| x * factor),
            combined: self.combined * factor,
            mshr_full: self.mshr_full * factor,
        }
    }

    /// Adds another breakdown.
    pub fn merge(&mut self, other: &StallBreakdown) {
        for i in 0..4 {
            self.by_class[i] += other.by_class[i];
        }
        self.combined += other.combined;
        self.mshr_full += other.mshr_full;
    }
}

/// Result of simulating one loop.
#[derive(Debug, Clone)]
pub struct LoopSimResult {
    /// Iterations actually simulated.
    pub sim_iterations: u64,
    /// `total dynamic iterations / simulated iterations` — multiply cycle
    /// counts by this to extrapolate to the whole run (already applied to
    /// the public cycle fields).
    pub scale: f64,
    /// Schedule-determined cycles, scaled: `(iters + SC − 1) × II`.
    pub compute_cycles: f64,
    /// Stall cycles, scaled.
    pub stall_cycles: f64,
    /// Stall attribution by access class, scaled.
    pub stall_by: StallBreakdown,
    /// Per-operation stall attribution (scaled), indexed by `OpId` — feeds
    /// the Figure 5 factor classification.
    pub stall_by_op: Vec<f64>,
    /// Cache statistics of the simulated iterations (unscaled counts).
    pub mem: vliw_mem::MemStats,
}

impl LoopSimResult {
    /// Total (compute + stall) cycles, scaled.
    pub fn total_cycles(&self) -> f64 {
        self.compute_cycles + self.stall_cycles
    }

    /// In-flight request tracking (MSHR) counters of the measured pass
    /// (unscaled counts, like [`LoopSimResult::mem`]).
    pub fn mshr(&self) -> &vliw_mem::MshrStats {
        self.mem.mshr()
    }
}

/// Why a producer ran late: access class, combined flag, and the cycles
/// it waited for a miss-status register (`None` for non-memory
/// producers).
type LateCause = Option<(AccessClass, bool, u64)>;

struct Rings {
    size: u64,
    /// ready time of each op's recent instances
    ready: Vec<Vec<u64>>,
    /// absolute issue time of each op's recent instances
    issued: Vec<Vec<u64>>,
    /// cause of lateness of each op's recent instances (loads only)
    cause: Vec<Vec<LateCause>>,
}

impl Rings {
    fn new(n_ops: usize, size: u64) -> Self {
        let s = size as usize;
        Rings {
            size,
            ready: vec![vec![0; s]; n_ops],
            issued: vec![vec![0; s]; n_ops],
            cause: vec![vec![None; s]; n_ops],
        }
    }

    fn slot(&self, iter: u64) -> usize {
        (iter % self.size) as usize
    }
}

/// Simulates `schedule` for (a capped number of) `kernel.avg_trip`
/// iterations against `cache`.
///
/// `addresses(op, iteration)` supplies the byte address each memory
/// operation touches in each iteration (the workload crate's address
/// streams). `hints` gates Attraction-Buffer allocation per §5.2.
///
/// The engine processes issue groups in nominal schedule order; a whole
/// group stalls when any member needs an operand that is not ready —
/// the in-order, lock-step pipeline of the paper's VLIW.
pub fn simulate_loop(
    kernel: &LoopKernel,
    schedule: &Schedule,
    machine: &MachineConfig,
    cache: &mut dyn DataCache,
    addresses: &mut dyn FnMut(OpId, u64) -> u64,
    hints: &AttractionHints,
    options: &SimOptions,
) -> LoopSimResult {
    simulate_loop_traced(
        kernel,
        schedule,
        machine,
        cache,
        addresses,
        hints,
        options,
        Trace::off(),
    )
}

/// [`simulate_loop`] with per-accounting-window stall attribution wired
/// to `trace`: during the measured pass, every [`TRACE_WINDOW_IIS`] × II
/// cycles of simulated time one `sim.window` instant carries that
/// window's stall deltas split by cause (the four access classes,
/// combined accesses, and MSHR back-pressure). Timing and results are
/// identical to [`simulate_loop`] — the probes only read the
/// accumulators it maintains anyway.
#[allow(clippy::too_many_arguments)]
pub fn simulate_loop_traced(
    kernel: &LoopKernel,
    schedule: &Schedule,
    machine: &MachineConfig,
    cache: &mut dyn DataCache,
    addresses: &mut dyn FnMut(OpId, u64) -> u64,
    hints: &AttractionHints,
    options: &SimOptions,
    trace: Trace<'_>,
) -> LoopSimResult {
    let n_ops = kernel.ops.len();
    assert_eq!(schedule.ops.len(), n_ops, "schedule must match kernel");
    let ii = schedule.ii as u64;
    let sc = schedule.stage_count() as u64;
    let transfer = machine.buses.transfer_cycles as u64;

    let total_iters = (kernel.avg_trip * kernel.invocations).max(1.0);
    let sim_iters = (kernel.avg_trip.round() as u64).clamp(1, options.iteration_cap);
    let scale = total_iters / sim_iters as f64;

    // consumer-side dependence info: (producer, distance, arrival extra)
    struct Operand {
        producer: usize,
        distance: u64,
        // Some(rel) when the value crosses clusters: the copy fires `rel`
        // cycles after the producer's issue slot and takes `transfer`
        rel_copy: Option<u64>,
    }
    let mut operands: Vec<Vec<Operand>> = (0..n_ops).map(|_| Vec::new()).collect();
    let mut max_dist = 1u64;
    for e in &kernel.edges {
        if e.kind != DepKind::RegFlow {
            continue;
        }
        if e.from == e.to {
            continue; // self-dependences are honored by the MII
        }
        let from = schedule.op(e.from);
        let to = schedule.op(e.to);
        let rel_copy = if from.cluster != to.cluster {
            schedule
                .copy_for(e.from, to.cluster)
                .map(|c| (c.cycle as i64 - from.cycle as i64).max(0) as u64)
        } else {
            None
        };
        max_dist = max_dist.max(e.distance as u64);
        operands[e.to.index()].push(Operand {
            producer: e.from.index(),
            distance: e.distance as u64,
            rel_copy,
        });
    }

    // a producer's instance must stay readable until every consumer of it
    // has issued: consumers lag by up to SC-1 pipeline stages plus the
    // dependence distance
    let mut rings = Rings::new(n_ops, sc + max_dist + 2);

    // per-window counter marker (MemStats is Copy: a register snapshot,
    // not a structure clone)
    let mut window = *cache.stats();
    let mut delay: u64 = 0;
    let mut stall_by = StallBreakdown::default();
    let mut stall_by_op = vec![0.0f64; n_ops];
    let mut group: Vec<(usize, u64)> = Vec::new();
    let mut time_base: u64 = 0;

    let _sim_span = if trace.on() {
        Some(trace.span_with(
            "sim.loop",
            &[("ii", ii as f64), ("iters", sim_iters as f64)],
        ))
    } else {
        None
    };
    // stall-attribution accounting windows (traced measured pass only);
    // with tracing off the threshold parks at u64::MAX and the per-group
    // cost is one always-false compare
    let win_len = (ii * TRACE_WINDOW_IIS).max(1);
    let mut next_window = u64::MAX;
    let mut win_mark = StallBreakdown::default();
    let mut win_delay_mark: u64 = 0;

    let warmup = options.warmup_iterations.min(sim_iters);
    for measured in [false, true] {
        let iters = if measured { sim_iters } else { warmup };
        if iters == 0 {
            continue;
        }
        if measured && trace.on() {
            next_window = time_base + win_len;
            win_mark = stall_by.clone();
            win_delay_mark = 0;
        }

        // issue events in nominal order via a k-way merge over ops
        let mut heap: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
        for (i, s) in schedule.ops.iter().enumerate() {
            heap.push(Reverse((s.cycle as u64 + time_base, i, 0)));
        }
        delay = 0;

        while let Some(&Reverse((nominal, _, _))) = heap.peek() {
            // collect the whole issue group at this nominal cycle
            group.clear();
            while let Some(&Reverse((n, op, iter))) = heap.peek() {
                if n != nominal {
                    break;
                }
                heap.pop();
                group.push((op, iter));
                if iter + 1 < iters {
                    heap.push(Reverse((n + ii, op, iter + 1)));
                }
            }

            // phase 1: the group's issue time is gated by its least-ready operand
            let scheduled_issue = nominal + delay;
            let mut required = scheduled_issue;
            let mut cause: Option<(usize, LateCause)> = None;
            for &(op, iter) in &group {
                for operand in &operands[op] {
                    if operand.distance > iter {
                        continue; // produced before the loop: live-in, ready
                    }
                    let src_iter = iter - operand.distance;
                    let slot = rings.slot(src_iter);
                    let p = operand.producer;
                    let mut arrival = rings.ready[p][slot];
                    if let Some(rel) = operand.rel_copy {
                        let copy_issue = rings.issued[p][slot] + rel;
                        arrival = arrival.max(copy_issue) + transfer;
                    }
                    if arrival > required {
                        required = arrival;
                        cause = Some((p, rings.cause[p][slot]));
                    }
                }
            }
            if required > scheduled_issue {
                let stall = required - scheduled_issue;
                delay += stall;
                if let Some((p, klass)) = cause {
                    if !measured {
                        // warm-up pass: timing advances, nothing is recorded
                    } else {
                        stall_by_op[p] += stall as f64;
                        match klass {
                            Some((c, combined, mshr_delay)) => {
                                // back-pressure contributed at most its own
                                // waiting time to this stall; the rest is
                                // the access class (or the merged request)
                                let d = (mshr_delay as f64).min(stall as f64);
                                stall_by.mshr_full += d;
                                let rest = stall as f64 - d;
                                if combined {
                                    stall_by.combined += rest;
                                } else {
                                    stall_by.by_class[class_index(c)] += rest;
                                }
                            }
                            // non-memory producers only run late through copy
                            // timing; book those rare cycles as local hits
                            None => stall_by.by_class[0] += stall as f64,
                        }
                    }
                }
            }
            let issue_abs = nominal + delay;
            if issue_abs >= next_window {
                emit_sim_window(
                    trace,
                    issue_abs,
                    &stall_by,
                    &mut win_mark,
                    delay,
                    &mut win_delay_mark,
                );
                next_window = issue_abs + win_len;
            }

            // phase 2: issue every member (clusters issue in index order)
            for &(op, iter) in &group {
                let o = &kernel.ops[op];
                let s = schedule.ops[op];
                let slot = rings.slot(iter);
                rings.issued[op][slot] = issue_abs;
                if o.is_mem() {
                    let addr = addresses(OpId::new(op), iter);
                    let req = AccessRequest {
                        cluster: s.cluster,
                        addr,
                        size: o.mem.as_ref().map_or(4, |m| m.granularity),
                        is_store: o.is_store(),
                        attractable: hints.is_attractable(OpId::new(op)),
                        now: issue_abs,
                        // per-op attribution for observers (profiling mode)
                        tag: op as u32,
                    };
                    let out = cache.access(req);
                    rings.ready[op][slot] = out.ready_at;
                    rings.cause[op][slot] = Some((out.class, out.combined, out.mshr_delay));
                } else {
                    rings.ready[op][slot] = issue_abs + s.assumed_latency as u64;
                    rings.cause[op][slot] = None;
                }
            }
        }

        if measured && trace.on() {
            // flush the final partial window
            let end = time_base + (iters + sc) * ii + delay;
            emit_sim_window(
                trace,
                end,
                &stall_by,
                &mut win_mark,
                delay,
                &mut win_delay_mark,
            );
            next_window = u64::MAX;
        }

        // advance time past this pass and flush the Attraction Buffers
        // (the paper flushes them whenever a loop finishes)
        time_base += (iters + sc) * ii + delay + 1;
        cache.flush_loop_boundary();
        if !measured {
            window = *cache.stats();
        }
    }

    // isolate the measured pass's accesses from the running totals
    let mem = cache.stats().diff(&window);

    let compute = ((sim_iters + sc - 1) * ii) as f64 * scale;
    let stall = delay as f64 * scale;
    LoopSimResult {
        sim_iterations: sim_iters,
        scale,
        compute_cycles: compute,
        stall_cycles: stall,
        stall_by: stall_by.scaled(scale),
        stall_by_op: stall_by_op.iter().map(|&x| x * scale).collect(),
        mem,
    }
}

/// Emits one `sim.window` instant carrying the stall deltas accumulated
/// since the previous window mark, then advances the marks.
fn emit_sim_window(
    trace: Trace<'_>,
    t: u64,
    total: &StallBreakdown,
    mark: &mut StallBreakdown,
    delay: u64,
    delay_mark: &mut u64,
) {
    trace.instant(
        "sim.window",
        &[
            ("t", t as f64),
            ("stall", (delay - *delay_mark) as f64),
            ("local_hit", total.by_class[0] - mark.by_class[0]),
            ("remote_hit", total.by_class[1] - mark.by_class[1]),
            ("local_miss", total.by_class[2] - mark.by_class[2]),
            ("remote_miss", total.by_class[3] - mark.by_class[3]),
            ("combined", total.combined - mark.combined),
            ("mshr_full", total.mshr_full - mark.mshr_full),
        ],
    );
    *mark = total.clone();
    *delay_mark = delay;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{ArrayKind, KernelBuilder, MemProfile, Opcode};
    use vliw_mem::build_cache;
    use vliw_sched::{schedule_outcome, ClusterPolicy, ScheduleOptions};

    fn sim(
        kernel: &LoopKernel,
        machine: &MachineConfig,
        policy: ClusterPolicy,
        cap: u64,
    ) -> (Schedule, LoopSimResult) {
        let schedule = schedule_outcome(kernel, machine, ScheduleOptions::new(policy))
            .unwrap()
            .schedule;
        assert!(schedule.verify(kernel, machine).is_empty());
        let mut cache = build_cache(machine);
        let hints = AttractionHints::allow_all(kernel);
        let kernel2 = kernel.clone();
        let mut addr = move |op: OpId, iter: u64| -> u64 {
            let m = kernel2.op(op).mem.as_ref().unwrap();
            (m.offset + m.stride.unwrap_or(0) * iter as i64) as u64
        };
        let r = simulate_loop(
            kernel,
            &schedule,
            machine,
            cache.as_mut(),
            &mut addr,
            &hints,
            &SimOptions {
                iteration_cap: cap,
                warmup_iterations: 0,
            },
        );
        (schedule, r)
    }

    /// A loop whose accesses all stay in their home cluster (stride = N×I,
    /// ops pinned to the preferred cluster) and whose loads carry the
    /// remote-miss latency promise: nothing can run late, zero stall.
    #[test]
    fn overprovisioned_latency_never_stalls() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 8192, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 16, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 4096, 16, 4, w);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        b.set_profile(st, MemProfile::concentrated(1.0, 0, 4));
        let k = b.finish(128.0);
        let m = MachineConfig::word_interleaved_4();
        let (s, r) = sim(&k, &m, ClusterPolicy::NoChains, 128);
        // loads assumed at remote-miss latency: no promise can be broken
        assert_eq!(s.op(OpId::new(0)).assumed_latency, 15);
        assert_eq!(s.op(OpId::new(0)).cluster, 0, "pinned to its home cluster");
        assert_eq!(r.stall_cycles, 0.0);
        let expected = (128 + s.stage_count() as u64 - 1) * s.ii as u64;
        assert!((r.compute_cycles - expected as f64).abs() < 1e-9);
    }

    /// A recurrence forces the load to the local-hit latency; make its
    /// addresses remote (stride walks other clusters) and stalls appear.
    #[test]
    fn broken_promises_stall_and_attribute() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 8192, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 4096, 4, 4, w);
        b.mem_dep(st, ld, vliw_ir::DepKind::MemFlow, 1);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        let k = b.finish(256.0);
        let m = MachineConfig::word_interleaved_4();
        let (s, r) = sim(&k, &m, ClusterPolicy::PreBuildChains, 256);
        // the recurrence forced an optimistic latency on the load
        assert!(s.op(OpId::new(0)).assumed_latency < 15);
        // a 4-byte stride visits all four clusters: 3 in 4 accesses are
        // remote -> the too-optimistic promise breaks and the core stalls
        assert!(r.stall_cycles > 0.0, "remote accesses must stall");
        assert!(r.stall_by.total() > 0.0);
        assert!(
            r.stall_by.of(AccessClass::RemoteHit) + r.stall_by.of(AccessClass::RemoteMiss) > 0.0,
            "stall attributed to remote accesses"
        );
        // attribution identifies the load as the culprit
        assert!(r.stall_by_op[0] > 0.0);
        assert_eq!(r.stall_by_op[1], 0.0);
    }

    #[test]
    fn scaling_extrapolates_cycles() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 512, ArrayKind::Global);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 256, 4, 4, v);
        let k = b.finish(10_000.0);
        let m = MachineConfig::word_interleaved_4();
        let (_, r) = sim(&k, &m, ClusterPolicy::Free, 100);
        assert_eq!(r.sim_iterations, 100);
        assert!((r.scale - 100.0).abs() < 1e-9);
        // compute per simulated iteration times the scale
        assert!(r.compute_cycles > 9_000.0);
    }

    #[test]
    fn stores_never_stall_consumers() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 512, ArrayKind::Global);
        let (_, c) = b.int_const("c");
        b.store("st", a, 0, 4, 4, c);
        let k = b.finish(64.0);
        let m = MachineConfig::word_interleaved_4();
        let (_, r) = sim(&k, &m, ClusterPolicy::Free, 64);
        assert_eq!(r.stall_cycles, 0.0);
    }

    #[test]
    fn mem_stats_cover_all_accesses() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 2048, ArrayKind::Global);
        let (_, v) = b.load("ld1", a, 0, 4, 4);
        let (_, w) = b.load("ld2", a, 1024, 4, 4);
        let (_, x) = b.int_op("add", Opcode::Add, &[v.into(), w.into()]);
        b.store("st", a, 512, 4, 4, x);
        let k = b.finish(50.0);
        let m = MachineConfig::word_interleaved_4();
        let (_, r) = sim(&k, &m, ClusterPolicy::Free, 50);
        assert_eq!(r.mem.total(), 3 * 50);
    }
}
