//! Quickstart: build a loop, schedule it for the paper's 4-cluster
//! word-interleaved machine with the IPBC heuristic, and execute it.
//!
//! Run with `cargo run --example quickstart`.

use interleaved_vliw::ir::{ArrayKind, KernelBuilder, MemProfile, OpId, Opcode};
use interleaved_vliw::machine::MachineConfig;
use interleaved_vliw::mem::build_cache;
use interleaved_vliw::sched::{schedule_outcome, AttractionHints, ClusterPolicy, ScheduleOptions};
use interleaved_vliw::sim::{simulate_loop, SimOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A saxpy-like kernel: y[i] = a * x[i] + y[i], stride N×I so every
    //    static access stays in one cluster (as OUF unrolling would ensure).
    let mut b = KernelBuilder::new("saxpy16");
    let x = b.array("x", 8192, ArrayKind::Heap);
    let y = b.array("y", 8192, ArrayKind::Heap);
    let a = b.live_in(); // loop-invariant scalar
    let (ld_x, xv) = b.load("ld_x", x, 0, 16, 4);
    let (ld_y, yv) = b.load("ld_y", y, 4, 16, 4);
    let (_, p) = b.int_op("mul", Opcode::Mul, &[xv.into(), a.into()]);
    let (_, s) = b.int_op("add", Opcode::Add, &[p.into(), yv.into()]);
    let (st_y, _) = b.store("st_y", y, 4, 16, 4, s);
    // profiles normally come from the profiling pass; set them directly here
    b.set_profile(ld_x, MemProfile::concentrated(0.95, 0, 4));
    b.set_profile(ld_y, MemProfile::concentrated(0.95, 1, 4));
    b.set_profile(st_y, MemProfile::concentrated(1.0, 1, 4));
    let kernel = b.finish(1024.0);

    // 2. The paper's machine (Table 2) with 16-entry Attraction Buffers.
    let machine = MachineConfig::word_interleaved_4().with_attraction_buffers(16, 2);
    println!("{machine}\n");

    // 3. Modulo-schedule with IPBC (chains pinned to preferred clusters).
    let options = ScheduleOptions::new(ClusterPolicy::PreBuildChains);
    let schedule = schedule_outcome(&kernel, &machine, options)?.schedule;
    println!("{schedule}");
    assert!(
        schedule.verify(&kernel, &machine).is_empty(),
        "schedule is legal"
    );

    // 4. Execute it for the loop's trip count and report cycles and stalls.
    let mut cache = build_cache(&machine);
    let hints = AttractionHints::allow_all(&kernel);
    let kernel2 = kernel.clone();
    let mut addresses = move |op: OpId, iter: u64| {
        let m = kernel2.op(op).mem.as_ref().unwrap();
        0x10000 * (m.array.index() as u64 + 1) + (m.offset + m.stride.unwrap() * iter as i64) as u64
    };
    let result = simulate_loop(
        &kernel,
        &schedule,
        &machine,
        cache.as_mut(),
        &mut addresses,
        &hints,
        &SimOptions::default(),
    );
    println!(
        "compute {:.0} cycles + stall {:.0} cycles over {} simulated iterations",
        result.compute_cycles, result.stall_cycles, result.sim_iterations
    );
    println!("memory accesses: {}", result.mem);
    Ok(())
}
