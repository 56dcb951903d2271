//! Latency assignment for memory instructions (§4.3.1, step 2).
//!
//! Every load starts at the most expensive latency (remote miss on the
//! word-interleaved machine, miss on unified/multiVLIW machines). Then, one
//! recurrence at a time — most II-constraining first — individual loads are
//! lowered to cheaper classes, choosing at each step the change with the
//! best *benefit* `B = ΔII / Δstall`, until the recurrence II reaches the
//! loop MII computed with all-local-hit latencies. Finally the last lowered
//! load is raised again ("de-slacked") so the recurrence sits exactly at the
//! MII instead of below it.
//!
//! The stall estimator — which the paper omits "due to lack of space" — is
//! reconstructed from the worked example's benefit table (see `DESIGN.md`):
//! with `f` the profiled local-access ratio and `h` the hit rate, the four
//! class probabilities are `f·h, (1−f)·h, f·(1−h), (1−f)·(1−h)` and
//! `stall(L) = Σ p_c · max(0, latency_c − L)`.

use std::fmt;

use vliw_ir::{Ddg, DepEdge, DepKind, LoopKernel, OpId, Opcode};
use vliw_machine::{AccessClass, MachineConfig};

use crate::circuits::Circuit;
use crate::mii;

/// The per-operation latencies the scheduler will assume.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyAssignment {
    lat: Vec<u32>,
    /// The MII target the reduction aimed for
    /// (`max(ResMII, RecMII at all-local-hit latencies)`).
    pub target_mii: u32,
    /// Reduction log, for inspection and the §4.3.3 table reproduction.
    pub steps: Vec<BenefitStep>,
}

impl LatencyAssignment {
    /// The assumed latency of `op`.
    pub fn latency_of(&self, op: OpId) -> u32 {
        self.lat[op.index()]
    }

    /// The scheduling latency of a dependence edge under this assignment.
    pub fn edge_latency(&self, edge: &DepEdge, _kernel: &LoopKernel) -> u32 {
        mii::edge_latency(edge, |op| self.lat[op.index()])
    }

    /// Internal: mutable access for tests and the de-slack step.
    fn set(&mut self, op: OpId, lat: u32) {
        self.lat[op.index()] = lat;
    }

    /// Rebuilds an assignment from its persisted parts. The reduction log
    /// (`steps`) is not persisted — it exists for inspection of a live
    /// reduction, and nothing downstream of a finished schedule reads it —
    /// so a rebuilt assignment carries an empty log.
    pub fn from_raw(lat: Vec<u32>, target_mii: u32) -> Self {
        LatencyAssignment {
            lat,
            target_mii,
            steps: Vec::new(),
        }
    }

    /// The raw per-operation latency vector (the persisted form).
    pub fn raw(&self) -> &[u32] {
        &self.lat
    }
}

/// One candidate evaluation inside a reduction step (a row of the paper's
/// §4.3.3 benefit table).
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateEval {
    /// The load considered.
    pub op: OpId,
    /// The class considered as the new latency.
    pub to_class: AccessClass,
    /// Decrease in the recurrence II ("∇II").
    pub delta_ii: u32,
    /// Estimated increase in stall time per execution ("∆stall").
    pub delta_stall: f64,
    /// The benefit `∇II / ∆stall` (infinite when `∆stall ≤ 0`).
    pub benefit: f64,
}

impl fmt::Display for CandidateEval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {}: dII {} dStall {:.2} B {:.2}",
            self.op, self.to_class, self.delta_ii, self.delta_stall, self.benefit
        )
    }
}

/// One applied reduction step.
#[derive(Debug, Clone, PartialEq)]
pub struct BenefitStep {
    /// Which circuit (index into the enumerated list) was being reduced.
    pub circuit: usize,
    /// All candidates evaluated this step.
    pub candidates: Vec<CandidateEval>,
    /// The candidate applied (index into `candidates`).
    pub chosen: usize,
}

/// Estimated stall per execution of a load scheduled with latency
/// `assumed`, from its profile (hit rate × local-ratio class mix).
///
/// `cluster` is the cluster the operation is known to execute in, when the
/// policy fixes it before scheduling (IPBC pre-builds its chains): the
/// local fraction is then the profiled ratio of accesses to that cluster.
/// Without a pin the estimate optimistically assumes the preferred cluster
/// (the profile's concentration).
///
/// Accesses with granularity larger than the interleave factor are always
/// remote on the word-interleaved machine (§5.2), so their local fraction
/// is zero. On machines without remote accesses only hit/miss classes
/// exist. Loads without a profile use a local fraction of `1/N` (uniform).
pub fn stall_estimate(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    op: OpId,
    cluster: Option<usize>,
    assumed: u32,
) -> f64 {
    let Some(mem) = &kernel.op(op).mem else {
        return 0.0;
    };
    expected_stall(&class_mix(mem, machine, cluster), assumed)
}

/// `Σ p_c · max(0, latency_c − assumed)` over a class mix.
fn expected_stall(mix: &[(f64, u32)], assumed: u32) -> f64 {
    mix.iter()
        .map(|&(p, l)| p * (l.saturating_sub(assumed)) as f64)
        .sum()
}

/// The access-class probability mix of one memory operation, as
/// `(probability, class latency)` pairs — the §4.3.3 four-class model
/// (`f·h, (1−f)·h, f·(1−h), (1−f)·(1−h)`) built from the operation's
/// profile, shared by the stall estimator and the expected-latency
/// derivation of the delay-tracking backend.
fn class_mix(
    mem: &vliw_ir::MemAccessInfo,
    machine: &MachineConfig,
    cluster: Option<usize>,
) -> Vec<(f64, u32)> {
    let h = mem.hit_rate();
    let lats = &machine.mem_latencies;
    if machine.has_remote_accesses() {
        let f = if mem.granularity as usize > machine.cache.interleave_bytes {
            0.0
        } else {
            match (&mem.profile, cluster) {
                (Some(p), Some(c)) => p.local_ratio(c),
                (Some(p), None) => p.concentration(),
                (None, _) => 1.0 / machine.n_clusters() as f64,
            }
        };
        vec![
            (f * h, lats.local_hit),
            ((1.0 - f) * h, lats.remote_hit),
            (f * (1.0 - h), lats.local_miss),
            ((1.0 - f) * (1.0 - h), lats.remote_miss),
        ]
    } else {
        vec![(h, lats.local_hit), (1.0 - h, lats.local_miss)]
    }
}

/// The latency the delay-tracking backend schedules one load at.
///
/// Preference order:
/// 1. the *measured* latency distribution attached to the load's profile
///    (`percentile = None` takes the expectation, `Some(p)` the p-th
///    percentile — the knob trading stall risk against II). Measured
///    values are **not** capped at the class-model ceiling: observing
///    latencies above the remote-miss class (queueing, combining, MSHR
///    back-pressure) is precisely what measurement adds, and a high
///    percentile must be allowed to promise more than the class worst
///    case;
/// 2. with a profile but no measurements, the expectation of the §4.3.3
///    class mix (the best class-model estimate of the same quantity),
///    which is bounded by the class latencies by construction;
/// 3. with no profile at all, the most expensive class — exactly the
///    initial assumption of the class-based assignment.
///
/// The result is always at least 1.
pub fn delay_tracking_latency(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    op: OpId,
    cluster: Option<usize>,
    percentile: Option<f64>,
) -> u32 {
    let lats = &machine.mem_latencies;
    let max_class = *available_classes(machine).last().expect("classes");
    let ceiling = lats.of(max_class);
    let Some(mem) = &kernel.op(op).mem else {
        return ceiling;
    };
    let measured = mem.profile.as_ref().and_then(|p| p.latency.as_ref());
    let raw = match measured {
        Some(lp) if !lp.is_empty() => match percentile {
            Some(p) => lp.percentile(p).expect("nonempty") as f64,
            None => lp.expected().expect("nonempty"),
        },
        _ if mem.profile.is_some() => class_mix(mem, machine, cluster)
            .into_iter()
            .map(|(p, l)| p * l as f64)
            .sum(),
        _ => ceiling as f64,
    };
    (raw.round() as u32).max(1)
}

/// The delay-tracking latency assignment: every load scheduled at its
/// measured expected (or percentile) latency via
/// [`delay_tracking_latency`]; stores and non-memory operations take
/// their class/FU latencies exactly as in the class-based assignment.
///
/// Replaces the whole §4.3.3 benefit-driven reduction — there is no
/// per-recurrence lowering and no de-slack step, so `steps` is empty and
/// `target_mii` records the recurrence MII *at these latencies* (what
/// the measured model believes the loop can sustain).
pub fn assign_profiled_latencies(
    kernel: &LoopKernel,
    ddg: &Ddg<'_>,
    machine: &MachineConfig,
    pins: &[Option<usize>],
    percentile: Option<f64>,
) -> LatencyAssignment {
    let lat: Vec<u32> = kernel
        .ops
        .iter()
        .map(|o| match o.opcode {
            Opcode::Load => {
                let pin = pins.get(o.id.index()).copied().flatten();
                delay_tracking_latency(kernel, machine, o.id, pin, percentile)
            }
            op => machine.op_latencies.of(op),
        })
        .collect();
    let rec = mii::rec_mii(ddg, |op| lat[op.index()]);
    LatencyAssignment {
        lat,
        target_mii: mii::res_mii(kernel, machine).max(rec),
        steps: Vec::new(),
    }
}

/// The latency classes available for assignment on `machine`, cheapest
/// first: all four on the word-interleaved machine, hit/miss otherwise.
pub fn available_classes(machine: &MachineConfig) -> Vec<AccessClass> {
    if machine.has_remote_accesses() {
        AccessClass::ALL.to_vec()
    } else {
        vec![AccessClass::LocalHit, AccessClass::LocalMiss]
    }
}

/// Runs the latency-assignment step for `kernel`.
///
/// `circuits` must be the kernel's elementary circuits (recurrences); the
/// returned assignment also stores the MII target and the reduction log.
/// `pins` are the per-op cluster pins known before scheduling (IPBC
/// pre-built chains / per-op preferences), which sharpen the stall
/// estimates; pass `&[]` when no op is pinned.
pub fn assign_latencies_with_pins(
    kernel: &LoopKernel,
    ddg: &Ddg<'_>,
    machine: &MachineConfig,
    circuits: &[Circuit],
    pins: &[Option<usize>],
) -> LatencyAssignment {
    let classes = available_classes(machine);
    let max_class = *classes.last().expect("at least one class");
    let lats = &machine.mem_latencies;

    // base latencies: non-memory ops from the FU table, stores at the store
    // issue latency, loads initially at the most expensive class
    let base: Vec<u32> = kernel
        .ops
        .iter()
        .map(|o| match o.opcode {
            Opcode::Load => lats.of(max_class),
            op => machine.op_latencies.of(op),
        })
        .collect();

    // the target: MII as if every load were a (local) hit
    let hit = lats.of(AccessClass::LocalHit);
    let rec_target = mii::rec_mii(ddg, |op| {
        if kernel.op(op).is_load() {
            hit
        } else {
            base[op.index()]
        }
    });
    let target = mii::res_mii(kernel, machine).max(rec_target);

    let mut asg = LatencyAssignment {
        lat: base,
        target_mii: target,
        steps: Vec::new(),
    };

    // Each circuit's latency sum under `asg`, kept current as latencies
    // change. A load's latency enters a circuit's sum only through the
    // load's outgoing edge on it, and only when that edge is register
    // flow: those circuits are the load's `flows`.
    let edges = ddg.edges();
    let mut sums: Vec<u64> = circuits
        .iter()
        .map(|c| {
            c.edges
                .iter()
                .map(|&e| asg.edge_latency(&edges[e], kernel) as u64)
                .sum()
        })
        .collect();
    let mut flows: Vec<Vec<usize>> = vec![Vec::new(); kernel.ops.len()];
    for (ci, c) in circuits.iter().enumerate() {
        for (&node, &e) in c.nodes.iter().zip(&c.edges) {
            if kernel.op(node).is_load() && edges[e].kind == DepKind::RegFlow {
                flows[node.index()].push(ci);
            }
        }
    }
    let circuit_ii = |sum: u64, c: &Circuit| -> u32 {
        debug_assert!(
            c.total_distance > 0,
            "circuit with zero total distance is an illegal DDG"
        );
        sum.div_ceil(c.total_distance as u64) as u32
    };
    let set = |asg: &mut LatencyAssignment, sums: &mut [u64], m: OpId, to: u32| {
        let from = asg.latency_of(m);
        for &ci in &flows[m.index()] {
            sums[ci] = sums[ci] - from as u64 + to as u64;
        }
        asg.set(m, to);
    };
    // each load's class mix, built on first use (an op without memory
    // info has an empty mix and never stalls)
    let mut mixes: Vec<Option<Vec<(f64, u32)>>> = vec![None; kernel.ops.len()];

    // circuits that could not be reduced below the target (e.g. recurrences
    // through stores only) are skipped so the outer loop terminates
    let mut stuck = vec![false; circuits.len()];
    loop {
        // the most constraining recurrence still above the target
        let worst = circuits
            .iter()
            .enumerate()
            .filter(|&(i, _)| !stuck[i])
            .map(|(i, c)| (circuit_ii(sums[i], c), i))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .filter(|&(ii, _)| ii > target);
        let Some((_, ci)) = worst else { break };
        let circuit = &circuits[ci];
        // the circuit's loads (each node appears once on an elementary
        // circuit), and whether the load's latency enters its sum
        let loads: Vec<(OpId, bool)> = circuit
            .nodes
            .iter()
            .zip(&circuit.edges)
            .filter(|&(&o, _)| kernel.op(o).is_load())
            .map(|(&o, &e)| (o, edges[e].kind == DepKind::RegFlow))
            .collect();

        let mut last_changed: Option<OpId> = None;
        while circuit_ii(sums[ci], circuit) > target {
            let cur_ii = circuit_ii(sums[ci], circuit);
            let mut candidates = Vec::new();
            for &(m, flows_here) in &loads {
                let cur = asg.latency_of(m);
                let pin = pins.get(m.index()).copied().flatten();
                let mix = mixes[m.index()].get_or_insert_with(|| match &kernel.op(m).mem {
                    Some(mem) => class_mix(mem, machine, pin),
                    None => Vec::new(),
                });
                for &class in &classes {
                    let to = lats.of(class);
                    if to >= cur {
                        continue;
                    }
                    let new_ii = if flows_here {
                        circuit_ii(sums[ci] - cur as u64 + to as u64, circuit)
                    } else {
                        cur_ii
                    };
                    let delta_ii = cur_ii - new_ii;
                    let delta_stall = expected_stall(mix, to) - expected_stall(mix, cur);
                    let benefit = if delta_stall <= 1e-12 {
                        f64::INFINITY
                    } else {
                        delta_ii as f64 / delta_stall
                    };
                    candidates.push(CandidateEval {
                        op: m,
                        to_class: class,
                        delta_ii,
                        delta_stall,
                        benefit,
                    });
                }
            }
            if candidates.is_empty() {
                break; // recurrence cannot be reduced further (stores only…)
            }
            // best benefit; ties: larger II decrease, then lower op id,
            // then cheaper class
            let chosen = candidates
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.benefit
                        .partial_cmp(&b.benefit)
                        .unwrap()
                        .then(a.delta_ii.cmp(&b.delta_ii))
                        .then(b.op.cmp(&a.op))
                        .then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .expect("nonempty");
            let c = candidates[chosen].clone();
            if c.delta_ii == 0 && c.benefit.is_finite() {
                // no candidate makes progress on the II: stop to avoid
                // lowering latencies for nothing
                let best_dii = candidates.iter().map(|x| x.delta_ii).max().unwrap_or(0);
                if best_dii == 0 {
                    break;
                }
            }
            set(&mut asg, &mut sums, c.op, lats.of(c.to_class));
            last_changed = Some(c.op);
            asg.steps.push(BenefitStep {
                circuit: ci,
                candidates,
                chosen,
            });
        }

        if circuit_ii(sums[ci], circuit) > target {
            stuck[ci] = true;
        }

        // De-slack: raise the last-changed load so this recurrence sits at
        // exactly the target — bounded by every circuit whose sum the
        // load's latency enters.
        if let Some(m) = last_changed {
            let cur = asg.latency_of(m);
            let mut bound = lats.of(max_class);
            for &cj in &flows[m.index()] {
                let sum_others = sums[cj] as i64 - cur as i64;
                let max_here = (target as i64) * (circuits[cj].total_distance as i64) - sum_others;
                bound = bound.min(max_here.max(0) as u32);
            }
            if bound > cur {
                set(&mut asg, &mut sums, m, bound);
            }
        }
    }

    asg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{elementary_circuits, EnumLimits};
    use vliw_ir::{ArrayKind, DepKind, KernelBuilder, MemProfile};

    /// A single-recurrence kernel: ld -> add -> st -MF(d1)-> ld.
    fn rec_kernel(hit: f64, local: f64) -> LoopKernel {
        let mut b = KernelBuilder::new("rec");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v.into()]);
        let (st, _) = b.store("st", a, 4, 4, 4, w);
        b.mem_dep(st, ld, DepKind::MemFlow, 1);
        b.set_profile(ld, MemProfile::with_local_ratio(hit, 0, local, 4));
        b.finish(100.0)
    }

    fn run(k: &LoopKernel, m: &MachineConfig) -> LatencyAssignment {
        let g = Ddg::build(k);
        let cs = elementary_circuits(&g, EnumLimits::default());
        assign_latencies_with_pins(k, &g, m, &cs, &[])
    }

    #[test]
    fn non_recurrence_loads_keep_remote_miss() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, v) = b.load("ld", a, 0, 4, 4);
        let _ = b.int_op("add", Opcode::Add, &[v.into()]);
        let k = b.finish(10.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        assert_eq!(asg.latency_of(ld), 15);
        assert!(asg.steps.is_empty());
    }

    #[test]
    fn recurrence_load_reduced_to_target() {
        let k = rec_kernel(0.9, 0.9);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        let ld = OpId::new(0);
        // target: circuit = lh(ld) + 1 (add) + 1 (MF st->ld) over distance 1 = 3
        assert_eq!(asg.target_mii, 3);
        // after reduction the circuit II must be exactly the target:
        // ld latency de-slacked to 3*1 - 2 = 1
        assert_eq!(asg.latency_of(ld), 1);
        assert!(!asg.steps.is_empty());
    }

    #[test]
    fn deslack_raises_latency_to_fill_gap() {
        // Two recurrences with different lengths: the shorter one gets
        // de-slacked up to the global target.
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        // REC A: ld1 -> div -> st1 -MF-> ld1 (local-hit II = 1+6+1 = 8)
        let (ld1, v1) = b.load("ld1", a, 0, 4, 4);
        let (_, w1) = b.int_op("div", Opcode::Div, &[v1.into()]);
        let (st1, _) = b.store("st1", a, 256, 4, 4, w1);
        b.mem_dep(st1, ld1, DepKind::MemFlow, 1);
        // REC B: ld2 -> add -> st2 -MF-> ld2 (local-hit II = 1+1+1 = 3)
        let (ld2, v2) = b.load("ld2", a, 512, 4, 4);
        let (_, w2) = b.int_op("add", Opcode::Add, &[v2.into()]);
        let (st2, _) = b.store("st2", a, 768, 4, 4, w2);
        b.mem_dep(st2, ld2, DepKind::MemFlow, 1);
        b.set_profile(ld1, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        b.set_profile(ld2, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        assert_eq!(asg.target_mii, 8);
        // REC A: 15 + 6 + 1 = 22 > 8 -> reduce ld1, then de-slack to 8-7=1
        assert_eq!(asg.latency_of(OpId::new(0)), 1);
        // REC B: 15 + 1 + 1 = 17 > 8 -> reduce ld2; de-slack raises it so
        // the recurrence II equals 8: lat = 8 - 2 = 6
        assert_eq!(asg.latency_of(OpId::new(3)), 6);
    }

    #[test]
    fn two_class_machines_use_hit_miss_only() {
        let k = rec_kernel(0.5, 1.0);
        let m = MachineConfig::unified_4(5);
        let asg = run(&k, &m);
        // init = miss latency (15); target = 5 + 1 + 1 = 7; de-slack: 7-2=5
        assert_eq!(asg.target_mii, 7);
        assert_eq!(asg.latency_of(OpId::new(0)), 5);
        for s in &asg.steps {
            for c in &s.candidates {
                assert!(matches!(c.to_class, AccessClass::LocalHit));
            }
        }
    }

    #[test]
    fn stall_estimate_matches_worked_example_n2() {
        // n2: hit rate 0.9, local ratio 0.5 -> stall(10)=0.25, stall(5)=0.75,
        // stall(1)=2.95 (paper's STEP 1 column for n2)
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, _) = b.load("ld", a, 0, 4, 4);
        b.set_profile(ld, MemProfile::with_local_ratio(0.9, 0, 0.5, 2));
        let k = b.finish(1.0);
        let mut m = MachineConfig::word_interleaved(2);
        m.cache.block_bytes = 32;
        let s10 = stall_estimate(&k, &m, ld, None, 10);
        let s5 = stall_estimate(&k, &m, ld, None, 5);
        let s1 = stall_estimate(&k, &m, ld, None, 1);
        let s15 = stall_estimate(&k, &m, ld, None, 15);
        assert!((s15 - 0.0).abs() < 1e-6);
        assert!((s10 - 0.25).abs() < 1e-5, "stall(10) = {s10}");
        assert!((s5 - 0.75).abs() < 1e-5, "stall(5) = {s5}");
        assert!((s1 - 2.95).abs() < 1e-4, "stall(1) = {s1}");
    }

    #[test]
    fn oversized_granularity_is_always_remote() {
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld, _) = b.load("ld", a, 0, 8, 8); // double precision
        b.set_profile(ld, MemProfile::with_local_ratio(1.0, 0, 1.0, 4));
        let k = b.finish(1.0);
        let m = MachineConfig::word_interleaved_4();
        // perfect hit rate but f = 0: stall(1) = 1.0 * (5 - 1) = 4
        let s = stall_estimate(&k, &m, ld, None, 1);
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn benefit_prefers_high_hit_rate_loads() {
        // two loads in one recurrence; the hotter one is cheaper to lower
        let mut b = KernelBuilder::new("t");
        let a = b.array("a", 1024, ArrayKind::Global);
        let (ld1, v1) = b.load("ld1", a, 0, 4, 4);
        let (ld2, v2) = b.load("ld2", a, 4, 4, 4);
        let (_, w) = b.int_op("add", Opcode::Add, &[v1.into(), v2.into()]);
        let (st, _) = b.store("st", a, 512, 4, 4, w);
        b.mem_dep(st, ld1, DepKind::MemFlow, 1);
        b.mem_dep(st, ld2, DepKind::MemFlow, 1);
        b.raw_edge(ld1, ld2, DepKind::RegFlow, 0); // chain the loads serially
        b.set_profile(ld1, MemProfile::with_local_ratio(0.6, 0, 0.5, 4));
        b.set_profile(ld2, MemProfile::with_local_ratio(0.9, 0, 0.5, 4));
        let k = b.finish(100.0);
        let m = MachineConfig::word_interleaved_4();
        let asg = run(&k, &m);
        // first applied step must lower ld2 (hit rate 0.9 -> higher B)
        let first = &asg.steps[0];
        assert_eq!(first.candidates[first.chosen].op, ld2);
    }
}
