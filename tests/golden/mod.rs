//! Golden schedule digests: the placement engine's output pinned against
//! history. Every case schedules one kernel under one policy on one
//! machine and records a `StableHasher` digest of the schedule's compact
//! text beside all six `SchedStats` work counters (or the error, for an
//! unschedulable case). The tables are compared line for line with the
//! committed `tests/golden/schedule_digests.txt`.
//!
//! The digests were recorded while the engine still carried its
//! scalar-probe reservation table and clone-per-probe trial path, and
//! both were checked bit-identical to the word-parallel, journaled
//! default on this same population. The file is therefore the reference
//! those paths produced, and the word-parallel and journaled MRT
//! equivalence tests hold the current engine to it.
//!
//! Golden front-end digests pin the shared scheduler front end: every
//! case runs one profiled suite loop through circuit enumeration, latency
//! assignment, the MII bounds and SMS ordering under one policy, and
//! records one digest of the circuits, the latency assignment (reduction
//! log included) and the recurrence MII, beside a second digest of the
//! node order. They are compared with the committed
//! `tests/golden/frontend_digests.txt`.
//!
//! Golden profile digests pin the profiling pass the same way: every
//! case profiles one unroll variant of a suite loop on one input layout
//! and records a digest of the first addresses of every memory operation
//! beside the profile it produced. They are compared with the committed
//! `tests/golden/profile_digests.txt`.
//!
//! The golden files are read-only: a deliberate behaviour change replaces
//! them by hand from the fresh table a mismatch prints.

#![allow(dead_code)] // each test binary uses a subset

use std::hash::Hasher as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::ir::{
    unroll, ArrayKind, Ddg, KernelBuilder, LoopKernel, OpId, Opcode, SrcOperand, StableHasher,
};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{
    elementary_circuits, optimal_unroll_factor, schedule_outcome, schedule_problem, ClusterPolicy,
    EnumLimits, ScheduleOptions,
};
use interleaved_vliw::workloads::rng::StdRng;
use interleaved_vliw::workloads::{
    address_for, profile_kernel, spec_by_name, synthesize, ArrayLayout,
};

const GOLDEN: &str = include_str!("schedule_digests.txt");
const PROFILE_GOLDEN: &str = include_str!("profile_digests.txt");
const FRONTEND_GOLDEN: &str = include_str!("frontend_digests.txt");

/// Addresses per memory operation fed into a profile digest.
const PROFILE_ADDRESSES: u64 = 64;

/// The paper's machine configurations (§5): 4-cluster word-interleaved,
/// 2-cluster word-interleaved, multiVLIW, and both unified latencies.
pub fn machines() -> Vec<(&'static str, MachineConfig)> {
    vec![
        ("word4", MachineConfig::word_interleaved_4()),
        ("word2", MachineConfig::word_interleaved(2)),
        ("multivliw", MachineConfig::multi_vliw_4()),
        ("unified1", MachineConfig::unified_4(1)),
        ("unified5", MachineConfig::unified_4(5)),
    ]
}

/// One table line: `label digest trial_cycles attempts rollbacks
/// placements cutoffs fallback_retries`, or `label err <error>`.
fn case_line(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    policy: ClusterPolicy,
    label: &str,
) -> String {
    match schedule_outcome(kernel, machine, ScheduleOptions::new(policy))
        .map(|o| (o.schedule, o.stats))
    {
        Ok((s, st)) => {
            let mut h = StableHasher::new();
            h.write_str(&s.to_compact_text());
            format!(
                "{label} {:016x} {} {} {} {} {} {}",
                h.finish(),
                st.trial_cycles,
                st.attempts,
                st.rollbacks,
                st.placements,
                st.cutoffs,
                st.fallback_retries
            )
        }
        Err(e) => format!("{label} err {e}"),
    }
}

/// Profiled factor-1 and ×4-unrolled loops of gsmdec and epicdec on one
/// machine, under every policy.
pub fn suite_machine_lines(
    mname: &str,
    machine: &MachineConfig,
    ctx: &ExperimentContext,
) -> Vec<String> {
    let mut out = Vec::new();
    for bench in ["gsmdec", "epicdec"] {
        let spec = spec_by_name(bench).expect("suite benchmark");
        let model = synthesize(&spec, &ctx.workloads, machine);
        for lw in &model.loops {
            for factor in [1u32, 4] {
                let mut k = unroll(&lw.kernel, factor);
                let layout = ArrayLayout::new(&k, machine, true, ctx.workloads.profile_input);
                profile_kernel(&mut k, machine, &layout, &ctx.profile);
                for policy in ClusterPolicy::ALL {
                    let label = format!("suite/{mname}/{}/x{factor}/{policy:?}", lw.kernel.name);
                    out.push(case_line(&k, machine, policy, &label));
                }
            }
        }
    }
    out
}

/// The suite slice on every paper machine, one thread per machine; the
/// lines come back in machine order.
pub fn suite_lines() -> Vec<String> {
    let ctx = ExperimentContext::quick();
    let machines = machines();
    std::thread::scope(|s| {
        let handles: Vec<_> = machines
            .iter()
            .map(|(mname, machine)| s.spawn(|| suite_machine_lines(mname, machine, &ctx)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    })
}

/// One profile table line: `label digest`, the digest covering, per
/// memory operation in program order, its first [`PROFILE_ADDRESSES`]
/// addresses, its hit-rate bits and its cluster histogram.
fn profile_line(kernel: &LoopKernel, layout: &ArrayLayout, label: &str) -> String {
    let mut h = StableHasher::new();
    for op in kernel.mem_ops() {
        for i in 0..PROFILE_ADDRESSES {
            h.write_u64(address_for(kernel, layout, op.id, i));
        }
        let p = op
            .mem
            .as_ref()
            .and_then(|m| m.profile.as_ref())
            .expect("profiled memory operation");
        h.write_f64(p.hit_rate);
        h.write_u64(p.cluster_hist.len() as u64);
        for &c in &p.cluster_hist {
            h.write_u64(c);
        }
    }
    format!("{label} {:016x}", h.finish())
}

/// The gsmdec and epicdec loops on the 4-cluster word-interleaved
/// machine at factors {1, ×N, OUF}, with and without padding, profiled
/// on the profile and on the execution input.
pub fn profile_lines() -> Vec<String> {
    let ctx = ExperimentContext::quick();
    let machine = &ctx.machine;
    let n = machine.n_clusters() as u32;
    let inputs = [
        ("profile", ctx.workloads.profile_input),
        ("exec", ctx.workloads.exec_input),
    ];
    let mut out = Vec::new();
    for bench in ["gsmdec", "epicdec"] {
        let spec = spec_by_name(bench).expect("suite benchmark");
        let model = synthesize(&spec, &ctx.workloads, machine);
        for lw in &model.loops {
            for (pname, padding) in [("pad", true), ("nopad", false)] {
                let mut original = lw.kernel.clone();
                let layout = ArrayLayout::new(&original, machine, padding, inputs[0].1);
                profile_kernel(&mut original, machine, &layout, &ctx.profile);
                let mut factors = vec![1, n, optimal_unroll_factor(&original, machine)];
                factors.sort_unstable();
                factors.dedup();
                for factor in factors {
                    for (iname, input) in inputs {
                        let mut k = unroll(&lw.kernel, factor);
                        let layout = ArrayLayout::new(&k, machine, padding, input);
                        profile_kernel(&mut k, machine, &layout, &ctx.profile);
                        let label = format!("profile/{}/x{factor}/{pname}/{iname}", lw.kernel.name);
                        out.push(profile_line(&k, &layout, &label));
                    }
                }
            }
        }
    }
    out
}

/// One front-end case: its golden line and the SMS order it produced.
pub struct FrontendCase {
    /// `label circuits_digest order_digest circuit_count`, where the first
    /// digest covers the circuit list, the latency assignment (latencies,
    /// target MII and the reduction log with its `f64` bits) and the
    /// recurrence MII, and the second covers the SMS order.
    pub line: String,
    /// Operations in the kernel.
    pub n_ops: usize,
    /// The SMS order.
    pub order: Vec<OpId>,
}

/// The digests of one profiled kernel's front end under every policy,
/// with default [`ScheduleOptions`].
fn frontend_cases_of(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    label: &str,
) -> Vec<FrontendCase> {
    let ddg = Ddg::build(kernel);
    let circuits = elementary_circuits(&ddg, EnumLimits::default());
    let mut base = StableHasher::new();
    base.write_u64(circuits.len() as u64);
    for c in &circuits {
        base.write_u64(c.nodes.len() as u64);
        for (n, &e) in c.nodes.iter().zip(&c.edges) {
            base.write_u64(n.index() as u64);
            base.write_u64(e as u64);
        }
        base.write_u32(c.total_distance);
    }
    ClusterPolicy::ALL
        .iter()
        .map(|&policy| {
            let p = schedule_problem(kernel, machine, &ScheduleOptions::new(policy));
            let mut h = base.clone();
            for &l in p.latencies.raw() {
                h.write_u32(l);
            }
            h.write_u32(p.latencies.target_mii);
            h.write_u64(p.latencies.steps.len() as u64);
            for s in &p.latencies.steps {
                h.write_u64(s.circuit as u64);
                h.write_u64(s.chosen as u64);
                h.write_u64(s.candidates.len() as u64);
                for c in &s.candidates {
                    h.write_u64(c.op.index() as u64);
                    h.write_str(&format!("{:?}", c.to_class));
                    h.write_u32(c.delta_ii);
                    h.write_f64(c.delta_stall);
                    h.write_f64(c.benefit);
                }
            }
            h.write_u32(p.rec_mii);
            let mut o = StableHasher::new();
            for op in &p.order {
                o.write_u64(op.index() as u64);
            }
            FrontendCase {
                line: format!(
                    "{label}/{policy:?} {:016x} {:016x} {}",
                    h.finish(),
                    o.finish(),
                    circuits.len()
                ),
                n_ops: kernel.ops.len(),
                order: p.order,
            }
        })
        .collect()
}

/// Every loop of the full suite at factor 1 and at its OUF (when above 1),
/// profiled as the scheduling-throughput workload profiles them, each
/// labelled `loop/x<factor>`, on the suite's machine.
pub fn suite_variants() -> (Vec<(String, LoopKernel)>, MachineConfig) {
    let ctx = ExperimentContext::full();
    let machine = &ctx.machine;
    let mut profile = ctx.profile;
    profile.iteration_cap = 64;
    let mut out = Vec::new();
    for model in ctx.models() {
        for lw in &model.loops {
            let ouf = optimal_unroll_factor(&lw.kernel, machine);
            let mut factors = vec![1u32];
            if ouf > 1 {
                factors.push(ouf);
            }
            for f in factors {
                let mut k = unroll(&lw.kernel, f);
                let layout = ArrayLayout::new(&k, machine, true, ctx.workloads.profile_input);
                profile_kernel(&mut k, machine, &layout, &profile);
                out.push((format!("{}/x{f}", lw.kernel.name), k));
            }
        }
    }
    (out, ctx.machine)
}

/// The front-end cases of every [`suite_variants`] kernel under every
/// policy, labelled `frontend/loop/x<factor>/<policy>`. Two threads take
/// variants off one shared counter (the seven capped variants cost more
/// than all others together); the cases come back in suite order.
pub fn frontend_cases() -> Vec<FrontendCase> {
    let (variants, machine) = suite_variants();
    let next = AtomicUsize::new(0);
    let run = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((label, k)) = variants.get(i) else {
                return done;
            };
            done.push((
                i,
                frontend_cases_of(k, &machine, &format!("frontend/{label}")),
            ));
        }
    };
    let mut parts = std::thread::scope(|s| {
        let h = s.spawn(run);
        let mut parts = run();
        parts.extend(h.join().expect("worker"));
        parts
    });
    parts.sort_by_key(|&(i, _)| i);
    parts.into_iter().flat_map(|(_, cases)| cases).collect()
}

/// The golden front-end lines (every line that is not a comment).
pub fn golden_frontend_lines() -> Vec<&'static str> {
    FRONTEND_GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect()
}

/// Builds a small random kernel: a few loads feeding a random int
/// dataflow, optional carried recurrences, and a store. Dense dataflow
/// forces inter-cluster copies, whose 2-cycle transfers wrap the II
/// boundary at small IIs.
pub fn random_kernel(rng: &mut StdRng, case: usize) -> LoopKernel {
    let mut b = KernelBuilder::new(format!("mrtprop{case}"));
    let a = b.array("a", 4096, ArrayKind::Heap);
    let mut values = Vec::new();
    for i in 0..rng.random_range(1..3usize) {
        let (_, v) = b.load(format!("ld{i}"), a, 4 * i as i64, 4, 4);
        values.push(v);
    }
    let n_ops = rng.random_range(2..9usize);
    for i in 0..n_ops {
        let mut srcs: Vec<SrcOperand> = Vec::new();
        for _ in 0..rng.random_range(1..4usize) {
            srcs.push(values[rng.random_range(0..values.len())].into());
        }
        let (_, v) = if rng.random::<bool>() {
            b.int_op_carried(format!("c{i}"), Opcode::Add, &srcs, 1)
        } else {
            b.int_op(format!("c{i}"), Opcode::Mul, &srcs)
        };
        values.push(v);
    }
    let last = *values.last().expect("nonempty");
    b.store("st", a, 2048, 4, 4, last);
    b.finish(64.0)
}

/// Thirty seeded random kernels over three machines, under every policy.
pub fn random_lines() -> Vec<String> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x3a5c_0007);
    for case in 0..30 {
        let kernel = random_kernel(&mut rng, case);
        let (mname, machine) = match case % 3 {
            0 => ("word4", MachineConfig::word_interleaved_4()),
            1 => ("word2", MachineConfig::word_interleaved(2)),
            _ => ("multivliw", MachineConfig::multi_vliw_4()),
        };
        for policy in ClusterPolicy::ALL {
            let label = format!("random/{mname}/{}/{policy:?}", kernel.name);
            out.push(case_line(&kernel, &machine, policy, &label));
        }
    }
    out
}

/// The all-to-all `dense_bus` kernel on every paper machine under every
/// policy: five producers each feeding five consumers. Copy pressure
/// saturates the buses at the smallest IIs, so transfers start near the
/// II boundary and wrap while failed probes roll the split bus runs back.
pub fn dense_lines() -> Vec<String> {
    let mut b = KernelBuilder::new("dense_bus");
    let mut prods = Vec::new();
    for i in 0..5 {
        let (_, v) = b.int_op(format!("p{i}"), Opcode::Add, &[]);
        prods.push(v);
    }
    for j in 0..5 {
        let srcs: Vec<SrcOperand> = prods.iter().map(|&v| v.into()).collect();
        let _ = b.int_op(format!("c{j}"), Opcode::Add, &srcs);
    }
    let kernel = b.finish(64.0);
    let mut out = Vec::new();
    for (mname, machine) in machines() {
        for policy in ClusterPolicy::ALL {
            let label = format!("dense/{mname}/dense_bus/{policy:?}");
            out.push(case_line(&kernel, &machine, policy, &label));
        }
    }
    out
}

/// The golden lines whose label starts with `prefix`.
pub fn golden_lines(prefix: &str) -> Vec<&'static str> {
    GOLDEN.lines().filter(|l| l.starts_with(prefix)).collect()
}

/// The golden profile lines (every line that is not a comment).
pub fn golden_profile_lines() -> Vec<&'static str> {
    PROFILE_GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect()
}

/// Compares `fresh` with `golden` line for line; on a mismatch prints
/// the fresh table and names the first differing line.
pub fn assert_lines_match<G: AsRef<str>, F: AsRef<str>>(what: &str, golden: &[G], fresh: &[F]) {
    let diff = golden
        .iter()
        .zip(fresh)
        .position(|(g, f)| g.as_ref() != f.as_ref());
    if diff.is_some() || golden.len() != fresh.len() {
        println!("fresh {what} table:");
        for line in fresh {
            println!("{}", line.as_ref());
        }
        match diff {
            Some(i) => panic!(
                "golden {what} mismatch at line {i}:\n  golden {}\n  fresh  {}",
                golden[i].as_ref(),
                fresh[i].as_ref()
            ),
            None => panic!(
                "golden {what} table has {} lines, the fresh one {}",
                golden.len(),
                fresh.len()
            ),
        }
    }
}

/// Compares `fresh` with the golden lines under `prefix`.
pub fn assert_matches_golden(prefix: &str, fresh: &[String]) {
    assert_lines_match(prefix, &golden_lines(prefix), fresh);
}
