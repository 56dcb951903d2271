//! A tour of step 1 of the paper's algorithm: individual unrolling
//! factors, the OUF, and the selective three-way choice.
//!
//! Run with `cargo run --example unrolling_tour`.

use interleaved_vliw::ir::{unroll, ArrayKind, KernelBuilder, Opcode};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::sched::{
    individual_unroll_factor, optimal_unroll_factor, prefer_variant, schedule_outcome,
    unroll_candidates, ClusterPolicy, ScheduleOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::word_interleaved_4();
    let ni = machine.ni_bytes();
    println!("N x I = {ni} bytes (4 clusters x 4-byte interleave)\n");

    // individual factors, as in §4.3.1's formula
    println!("individual unrolling factors Ui = NxI / gcd(NxI, Si mod NxI):");
    for stride in [1i64, 2, 4, 8, 12, 16, 24] {
        println!(
            "  stride {stride:>2} bytes -> Ui = {}",
            individual_unroll_factor(stride, ni)
        );
    }

    // a mixed loop: a 4-byte stream, a 2-byte stream and a double stream
    let mut b = KernelBuilder::new("mixed");
    let a = b.array("a", 8192, ArrayKind::Heap);
    let c = b.array("c", 8192, ArrayKind::Heap);
    let d = b.array("d", 8192, ArrayKind::Heap);
    let (_, x) = b.load("ld4", a, 0, 4, 4); // Ui = 4
    let (_, y) = b.load("ld2", c, 0, 2, 2); // Ui = 8
    let (_, z) = b.load("ld8", d, 0, 8, 8); // granularity 8 > I: not considered
    let (_, s) = b.int_op("sum", Opcode::Add, &[x.into(), y.into()]);
    let (_, t) = b.int_op("sum2", Opcode::Add, &[s.into(), z.into()]);
    b.store("st", a, 4096, 4, 4, t);
    let kernel = b.finish(512.0);

    let ouf = optimal_unroll_factor(&kernel, &machine);
    println!("\nloop OUF = lcm(4, 8) = {ouf}");

    // selective unrolling schedules every candidate variant and keeps the
    // one `prefer_variant` ranks best by Texec = (avgiter + SC - 1) x II —
    // the same rule the experiment pipeline's `prepare_loop` applies
    let options = ScheduleOptions::new(ClusterPolicy::PreBuildChains);
    println!("\nselective unrolling evaluated:");
    let mut best = None;
    for (choice, factor) in unroll_candidates(&kernel, &machine) {
        let unrolled = unroll(&kernel, factor);
        let schedule = schedule_outcome(&unrolled, &machine, options)?.schedule;
        let texec = schedule.texec(unrolled.avg_trip);
        println!(
            "  {:<14} factor {factor:>2}: II {:>3}, Texec {texec:>9.0}",
            choice.to_string(),
            schedule.ii
        );
        let better = best
            .as_ref()
            .is_none_or(|&(_, f, t, _, _)| prefer_variant(ouf, factor, texec, f, t));
        if better {
            best = Some((choice, factor, texec, schedule.ii, unrolled.ops.len()));
        }
    }
    let (choice, factor, _, ii, n_ops) = best.expect("factor 1 is always a candidate");
    println!("\nchosen: {choice} (factor {factor}) -> II {ii} with {n_ops} ops in the kernel");
    Ok(())
}
