//! The recurrence contract behind the scheduler front end: the strongly
//! connected components of a DDG carry its recurrences. Each recurrence
//! component's exact RecMII equals the largest circuit II inside it, SMS
//! ordering needs no circuit list, and the loops whose circuit count
//! exceeds the enumeration cap schedule under every policy.

mod golden;

use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::ir::{unroll, Ddg, DepKind, KernelBuilder, LoopKernel, OpId, Opcode};
use interleaved_vliw::sched::{
    component_rec_mii, edge_latency, elementary_circuits, rec_mii, schedule_outcome, sms_order,
    ClusterPolicy, EnumLimits, ScheduleOptions,
};
use interleaved_vliw::workloads::rng::StdRng;
use interleaved_vliw::workloads::{profile_kernel, spec_by_name, synthesize, ArrayLayout};

/// An arbitrary but fixed per-op latency, so that circuits of one
/// component impose different IIs.
fn lat(op: OpId) -> u32 {
    1 + (op.index() as u32 * 7) % 5
}

/// A random graph of `2..10` int ops: forward distance-0 edges plus
/// loop-carried edges in either direction (self-edges included), at
/// distances 1 to 3, with parallel edges of every kind.
fn random_graph(rng: &mut StdRng, case: usize) -> LoopKernel {
    let mut b = KernelBuilder::new(format!("sccprop{case}"));
    let n = rng.random_range(2..10usize);
    let ids: Vec<OpId> = (0..n)
        .map(|i| b.int_op(format!("n{i}"), Opcode::Add, &[]).0)
        .collect();
    let kinds = [
        DepKind::RegFlow,
        DepKind::RegAnti,
        DepKind::RegOut,
        DepKind::MemFlow,
        DepKind::MemAnti,
        DepKind::MemOut,
    ];
    for _ in 0..rng.random_range(1..2 * n) {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        let kind = kinds[rng.random_range(0..kinds.len())];
        let distance = if u < v && rng.random::<bool>() {
            0
        } else {
            rng.random_range(1..4u32)
        };
        b.raw_edge(ids[u], ids[v], kind, distance);
    }
    b.finish(16.0)
}

/// Checks the component contract on one kernel whose enumeration is
/// complete, and returns how many recurrence components it has.
fn check_components(k: &LoopKernel, what: &str) -> usize {
    let ddg = Ddg::build(k);
    let sccs = ddg.sccs();
    let circuits = elementary_circuits(&ddg, EnumLimits::default());
    let mut worst = vec![None::<u32>; sccs.len()];
    for c in &circuits {
        let comp = sccs.component_of(c.nodes[0]);
        assert!(
            c.nodes.iter().all(|&o| sccs.component_of(o) == comp),
            "{what}: a circuit spans two components"
        );
        let ii = c.ii_bound(|e| edge_latency(&ddg.edges()[e], lat));
        worst[comp] = Some(worst[comp].map_or(ii, |w| w.max(ii)));
    }
    for (comp, w) in worst.iter().enumerate() {
        assert_eq!(
            w.is_some(),
            sccs.is_recurrence(comp),
            "{what}: component {comp} has circuits iff it has an internal edge"
        );
        if let Some(w) = *w {
            assert_eq!(
                component_rec_mii(&ddg, comp, lat),
                w,
                "{what}: component {comp}'s RecMII is its largest circuit II"
            );
        }
    }
    assert_eq!(
        rec_mii(&ddg, lat),
        worst.iter().flatten().copied().max().unwrap_or(0),
        "{what}: RecMII is the largest circuit II"
    );
    sccs.recurrences().count()
}

#[test]
fn component_rec_mii_is_the_largest_circuit_ii_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x5cc0_0001);
    let mut recurrences = 0;
    for case in 0..300 {
        recurrences += check_components(&random_graph(&mut rng, case), &format!("graph {case}"));
    }
    let mut rng = StdRng::seed_from_u64(0x3a5c_0007);
    for case in 0..30 {
        recurrences += check_components(&golden::random_kernel(&mut rng, case), "kernel");
    }
    assert!(recurrences > 300, "the population has recurrences");
}

#[test]
fn component_rec_mii_is_the_largest_circuit_ii_on_the_suite() {
    let (variants, _) = golden::suite_variants();
    let mut complete = 0;
    for (label, k) in &variants {
        let ddg = Ddg::build(k);
        if elementary_circuits(&ddg, EnumLimits::default()).len()
            == EnumLimits::default().max_circuits
        {
            continue; // capped: the list is incomplete
        }
        check_components(k, label);
        complete += 1;
    }
    assert_eq!(
        complete,
        variants.len() - 7,
        "all but the 7 capped variants"
    );
}

#[test]
fn sms_order_does_not_read_the_circuit_list() {
    let mut rng = StdRng::seed_from_u64(0x5cc0_0002);
    let kernels: Vec<LoopKernel> = (0..100).map(|c| random_graph(&mut rng, c)).collect();
    let (variants, _) = golden::suite_variants();
    let gsm = variants
        .iter()
        .filter(|(l, _)| l.starts_with("gsm"))
        .map(|(_, k)| k);
    for k in kernels.iter().chain(gsm) {
        let ddg = Ddg::build(k);
        let full = elementary_circuits(&ddg, EnumLimits::default());
        let one = elementary_circuits(
            &ddg,
            EnumLimits {
                max_circuits: 1,
                ..EnumLimits::default()
            },
        );
        let order = sms_order(&ddg, &full, lat);
        assert_eq!(order, sms_order(&ddg, &one, lat), "{}", k.name);
        assert_eq!(order, sms_order(&ddg, &[], lat), "{}", k.name);
    }
}

/// Loops whose enumeration hits the default circuit cap and that found no
/// schedule at any II while SMS ordering read the truncated list.
#[test]
fn capped_recurrence_loops_schedule_under_every_policy() {
    let ctx = ExperimentContext::full();
    let machine = &ctx.machine;
    let mut profile = ctx.profile;
    profile.iteration_cap = 64;
    for (bench, name, factor) in [("epicdec", "epicdec_l5", 8), ("rasta", "rasta_l1", 16)] {
        let spec = spec_by_name(bench).expect("suite benchmark");
        let model = synthesize(&spec, &ctx.workloads, machine);
        let lw = model
            .loops
            .iter()
            .find(|l| l.kernel.name == name)
            .expect("suite loop");
        let mut k = unroll(&lw.kernel, factor);
        let layout = ArrayLayout::new(&k, machine, true, ctx.workloads.profile_input);
        profile_kernel(&mut k, machine, &layout, &profile);
        let ddg = Ddg::build(&k);
        assert_eq!(
            elementary_circuits(&ddg, EnumLimits::default()).len(),
            EnumLimits::default().max_circuits,
            "{name} ×{factor} hits the circuit cap"
        );
        for policy in ClusterPolicy::ALL {
            let outcome = schedule_outcome(&k, machine, ScheduleOptions::new(policy))
                .unwrap_or_else(|e| panic!("{name} ×{factor} under {policy:?}: {e}"));
            let errors = outcome.schedule.verify(&k, machine);
            assert!(errors.is_empty(), "{name} ×{factor} {policy:?}: {errors:?}");
        }
    }
}
