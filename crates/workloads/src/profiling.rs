//! The profiling pass (the role IMPACT profiling plays in the paper).

use vliw_ir::{LoopKernel, MemProfile, OpId};
use vliw_machine::MachineConfig;
use vliw_mem::FunctionalCache;

use crate::address::{ArrayLayout, OpStream};

/// Profiling options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileOptions {
    /// Iterations replayed per loop (long loops converge quickly on the
    /// small caches of Table 2). At least one iteration is always
    /// replayed, so a cap of 0 acts as 1.
    pub iteration_cap: u64,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions { iteration_cap: 512 }
    }
}

/// Profiles `kernel` on the given (profile-input) layout: replays every
/// memory operation's address stream in program order through the
/// functional cache and attaches hit rates and preferred-cluster
/// histograms to the operations.
///
/// Run this on the *unrolled* kernel — per-copy preferred clusters only
/// exist after unrolling (before it, a unit-stride access sweeps every
/// cluster and the histogram is flat, which is exactly what the paper's
/// Figure 4 "no unrolling" bar shows).
pub fn profile_kernel(
    kernel: &mut LoopKernel,
    machine: &MachineConfig,
    layout: &ArrayLayout,
    options: &ProfileOptions,
) {
    let n = machine.n_clusters();
    let iters = (kernel.avg_trip.round() as u64).clamp(1, options.iteration_cap.max(1));
    let streams: Vec<(OpId, OpStream)> = kernel
        .mem_ops()
        .map(|o| (o.id, OpStream::new(kernel, layout, o.id)))
        .collect();
    let mut cache = FunctionalCache::new(machine);
    // `hits[m]` and `hist[m * n..(m + 1) * n]` belong to `streams[m]`
    let mut hist = vec![0u64; streams.len() * n];
    let mut hits = vec![0u64; streams.len()];

    for j in 0..iters {
        for (m, (_, stream)) in streams.iter().enumerate() {
            let (home, hit) = cache.access(stream.at(j));
            hist[m * n + home] += 1;
            hits[m] += hit as u64;
        }
    }

    for (m, &(op, _)) in streams.iter().enumerate() {
        let mem = kernel.ops[op.index()].mem.as_mut().expect("memory op");
        mem.profile = Some(MemProfile {
            hit_rate: hits[m] as f64 / iters as f64,
            cluster_hist: hist[m * n..(m + 1) * n].to_vec(),
            latency: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::{unroll, ArrayKind, KernelBuilder};

    fn machine() -> MachineConfig {
        MachineConfig::word_interleaved_4()
    }

    /// A unit-stride 4-byte loop: before unrolling the histogram is flat;
    /// after OUF (×4) unrolling each copy concentrates on one cluster.
    #[test]
    fn unrolling_concentrates_preferred_clusters() {
        let mut b = KernelBuilder::new("k");
        let a = b.array("a", 8192, ArrayKind::Heap);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 4096, 4, 4, v);
        let k = b.finish(512.0);
        let m = machine();

        let mut flat = k.clone();
        let layout = ArrayLayout::new(&flat, &m, true, 1);
        profile_kernel(&mut flat, &m, &layout, &ProfileOptions::default());
        let p = flat
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap();
        assert!(p.concentration() < 0.3, "unit stride sweeps all clusters");

        let mut unrolled = unroll(&k, 4);
        let layout = ArrayLayout::new(&unrolled, &m, true, 1);
        profile_kernel(&mut unrolled, &m, &layout, &ProfileOptions::default());
        for op in unrolled.mem_ops() {
            let p = op.mem.as_ref().unwrap().profile.as_ref().unwrap();
            assert!(
                p.concentration() > 0.99,
                "copy {} must access a single cluster",
                op.name
            );
        }
        // padded base: copy k prefers cluster k
        for (i, op) in unrolled.ops.iter().filter(|o| o.is_load()).enumerate() {
            let p = op.mem.as_ref().unwrap().profile.as_ref().unwrap();
            assert_eq!(p.preferred_cluster(), Some(i));
        }
    }

    #[test]
    fn zero_iteration_cap_profiles_one_iteration() {
        let mut b = KernelBuilder::new("k");
        let a = b.array("a", 4096, ArrayKind::Heap);
        let (_, v) = b.load("ld", a, 0, 4, 4);
        b.store("st", a, 2048, 4, 4, v);
        let mut k = b.finish(512.0);
        let m = machine();
        let layout = ArrayLayout::new(&k, &m, true, 1);
        let mut one = k.clone();
        profile_kernel(&mut k, &m, &layout, &ProfileOptions { iteration_cap: 0 });
        profile_kernel(&mut one, &m, &layout, &ProfileOptions { iteration_cap: 1 });
        assert_eq!(k, one, "a zero cap replays exactly one iteration");
        for op in k.mem_ops() {
            let p = op.mem.as_ref().unwrap().profile.as_ref().unwrap();
            assert_eq!(p.cluster_hist.iter().sum::<u64>(), 1);
        }
    }

    #[test]
    fn hit_rates_reflect_working_set() {
        let m = machine();
        // tiny array: second pass onward always hits -> high rate
        let mut b = KernelBuilder::new("small");
        let a = b.array("a", 512, ArrayKind::Global);
        let (_, _) = b.load("ld", a, 0, 4, 4);
        let mut k = b.finish(512.0);
        let layout = ArrayLayout::new(&k, &m, true, 1);
        profile_kernel(&mut k, &m, &layout, &ProfileOptions::default());
        let hot = k
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap()
            .hit_rate;
        assert!(hot > 0.7, "small array mostly hits, got {hot}");

        // huge array streamed once: mostly misses
        let mut b = KernelBuilder::new("big");
        let a = b.array("a", 1 << 20, ArrayKind::Global);
        let (_, _) = b.load("ld", a, 0, 32, 4);
        let mut k = b.finish(512.0);
        let layout = ArrayLayout::new(&k, &m, true, 1);
        profile_kernel(&mut k, &m, &layout, &ProfileOptions::default());
        let cold = k
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap()
            .hit_rate;
        assert!(cold < 0.2, "streaming access mostly misses, got {cold}");
    }

    #[test]
    fn alignment_shifts_preferred_cluster_between_inputs() {
        // the §4.3.4 gsmdec scenario: a 2-byte array accessed at stride 16;
        // without padding the preferred cluster depends on the input
        let m = machine();
        let mk = || {
            let mut b = KernelBuilder::new("gsm_like");
            let a = b.array("buf", 4096, ArrayKind::Heap);
            let _ = b.load("ld", a, 0, 16, 2);
            b.finish(256.0)
        };
        // find two inputs whose unpadded placements differ in word offset
        let k0 = mk();
        let (mut s1, mut s2) = (0, 0);
        'outer: for i in 1..20u64 {
            for j in (i + 1)..20u64 {
                let a = ArrayLayout::new(&k0, &m, false, i).base(0) / 4 % 4;
                let b = ArrayLayout::new(&k0, &m, false, j).base(0) / 4 % 4;
                if a != b {
                    (s1, s2) = (i, j);
                    break 'outer;
                }
            }
        }
        assert_ne!(s1, s2, "found two inputs with different placements");
        let mut ka = mk();
        let la = ArrayLayout::new(&ka, &m, false, s1);
        profile_kernel(&mut ka, &m, &la, &ProfileOptions::default());
        let mut kb = mk();
        let lb = ArrayLayout::new(&kb, &m, false, s2);
        profile_kernel(&mut kb, &m, &lb, &ProfileOptions::default());
        let pa = ka
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap();
        let pb = kb
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap();
        assert_ne!(
            pa.preferred_cluster(),
            pb.preferred_cluster(),
            "preferred cluster flips with the input when not padded"
        );
        // with padding both inputs agree
        let mut ka = mk();
        let la = ArrayLayout::new(&ka, &m, true, s1);
        profile_kernel(&mut ka, &m, &la, &ProfileOptions::default());
        let mut kb = mk();
        let lb = ArrayLayout::new(&kb, &m, true, s2);
        profile_kernel(&mut kb, &m, &lb, &ProfileOptions::default());
        let pa = ka
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap();
        let pb = kb
            .op(OpId::new(0))
            .mem
            .as_ref()
            .unwrap()
            .profile
            .as_ref()
            .unwrap();
        assert_eq!(pa.preferred_cluster(), pb.preferred_cluster());
    }
}
