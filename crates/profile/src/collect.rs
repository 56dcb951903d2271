//! Measurement collection: the [`AccessObserver`] that turns a timed
//! simulation into per-operation measurements, and the drivers that run a
//! kernel in profiling mode.

use vliw_ir::{LoopKernel, OpId};
use vliw_machine::MachineConfig;
use vliw_mem::{build_cache, AccessObserver, AccessOutcome, AccessRequest, ObservedCache};
use vliw_sched::{
    schedule_outcome, AttractionHints, ClusterPolicy, EnumLimits, SchedBackend, ScheduleError,
    ScheduleOptions,
};
use vliw_sim::{simulate_loop, SimOptions};
use vliw_workloads::{address_streams, ArrayLayout};

use crate::store::{class_index, kernel_fingerprint, LoopProfile, OpProfile};

/// The measurement sink: accumulates one [`OpProfile`] per operation from
/// the observation stream of an [`ObservedCache`].
///
/// The simulator runs a warm-up pass before the measured pass and calls
/// [`AccessObserver::loop_boundary`] at the end of each; the collector
/// keeps the segment closed by the *last* boundary, which is always the
/// measured pass (with a warm-up the first boundary closes the warm-up
/// segment and the second closes the measurement; without one, the single
/// boundary closes the measurement directly).
#[derive(Debug)]
pub struct Collector {
    n_clusters: usize,
    interleave: u64,
    current: Vec<OpProfile>,
    finished: Option<Vec<OpProfile>>,
    current_samples: Vec<Vec<AccessSample>>,
    finished_samples: Option<Vec<Vec<AccessSample>>>,
}

impl Collector {
    /// A collector for `n_ops` operations on `machine`'s geometry.
    pub fn new(n_ops: usize, machine: &MachineConfig) -> Self {
        Collector {
            n_clusters: machine.n_clusters(),
            interleave: machine.cache.interleave_bytes as u64,
            current: (0..n_ops)
                .map(|_| OpProfile::new(machine.n_clusters()))
                .collect(),
            finished: None,
            current_samples: (0..n_ops).map(|_| Vec::new()).collect(),
            finished_samples: None,
        }
    }

    /// The home cluster of `addr` under the collector's geometry.
    fn home_cluster(&self, addr: u64) -> usize {
        ((addr / self.interleave) % self.n_clusters as u64) as usize
    }

    /// The measured segment: the one closed by the last loop boundary, or
    /// the running segment if no boundary was seen yet.
    pub fn measurements(&self) -> &[OpProfile] {
        self.finished.as_deref().unwrap_or(&self.current)
    }

    /// Per-operation, per-iteration samples of the measured segment (same
    /// segment selection as [`Collector::measurements`]).
    pub fn samples(&self) -> &[Vec<AccessSample>] {
        self.finished_samples
            .as_deref()
            .unwrap_or(&self.current_samples)
    }
}

impl AccessObserver for Collector {
    fn observe(&mut self, req: &AccessRequest, out: &AccessOutcome) {
        if req.tag == AccessRequest::UNTAGGED {
            return;
        }
        let home = self.home_cluster(req.addr);
        let Some(p) = self.current.get_mut(req.tag as usize) else {
            return;
        };
        let class = class_index(out.class);
        let latency = (out.ready_at - req.now).min(u64::from(u32::MAX)) as u32;
        p.classes[class] = p.classes[class].saturating_add(1);
        p.cluster_hist[home] = p.cluster_hist[home].saturating_add(1);
        if out.combined {
            p.combined = p.combined.saturating_add(1);
        }
        if out.ab_hit {
            p.ab_hits = p.ab_hits.saturating_add(1);
        }
        p.latency.record(latency);
        self.current_samples[req.tag as usize].push(AccessSample {
            class: class as u8,
            home: home as u8,
            combined: out.combined,
            ab_hit: out.ab_hit,
            latency,
        });
    }

    fn loop_boundary(&mut self) {
        let fresh = (0..self.current.len())
            .map(|_| OpProfile::new(self.n_clusters))
            .collect();
        self.finished = Some(std::mem::replace(&mut self.current, fresh));
        let fresh_samples = (0..self.current_samples.len())
            .map(|_| Vec::new())
            .collect();
        self.finished_samples = Some(std::mem::replace(&mut self.current_samples, fresh_samples));
    }
}

/// One observed access of one operation in one measured iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSample {
    /// Access-class index (the `classes` slot order of [`OpProfile`](crate::OpProfile)).
    pub class: u8,
    /// Home cluster of the accessed address.
    pub home: u8,
    /// Whether the access was served by §5.2 combining.
    pub combined: bool,
    /// Whether an Attraction Buffer hit served it.
    pub ab_hit: bool,
    /// Observed latency (`ready_at − now`), contention included.
    pub latency: u32,
}

/// A factor-1 measurement that keeps the per-iteration sample stream, so
/// the measurements of *unrolled* variants can be **derived** instead of
/// re-measured.
///
/// Copy `k` of an unroll-by-`U` kernel executes exactly the original
/// iterations `≡ k (mod U)` (unrolling rewrites `offset += k·stride`,
/// `stride ×= U`), and the simulator replays iterations `0..cap` from
/// zero in the measured pass — so slicing the factor-1 stream by residue
/// reproduces each copy's access stream without another bootstrap
/// schedule + timing simulation per variant. What the derivation cannot
/// reproduce is the *timing context* of a factor-`U` bootstrap run
/// (contention under a different schedule); the samples carry the
/// factor-1 run's timing, which is the defined semantics of a derived
/// profile.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamProfile {
    /// Kernel name (of the factor-1 kernel).
    pub name: String,
    /// [`kernel_fingerprint`] of the factor-1 kernel measured.
    pub fingerprint: u64,
    /// Operation count of the factor-1 kernel.
    pub n_ops: usize,
    /// Per-operation sample streams, indexed by op; sample `j` is measured
    /// iteration `j`. Non-memory operations carry empty streams.
    pub samples: Vec<Vec<AccessSample>>,
}

impl StreamProfile {
    /// Aggregates one residue class of one op's stream into an
    /// [`OpProfile`].
    fn aggregate_residue(
        &self,
        op: usize,
        factor: usize,
        residue: usize,
        n_clusters: usize,
    ) -> OpProfile {
        let mut p = OpProfile::new(n_clusters);
        for s in self.samples[op]
            .iter()
            .enumerate()
            .filter(|(j, _)| j % factor == residue)
            .map(|(_, s)| s)
        {
            p.classes[s.class as usize] = p.classes[s.class as usize].saturating_add(1);
            p.cluster_hist[s.home as usize] = p.cluster_hist[s.home as usize].saturating_add(1);
            if s.combined {
                p.combined = p.combined.saturating_add(1);
            }
            if s.ab_hit {
                p.ab_hits = p.ab_hits.saturating_add(1);
            }
            p.latency.record(s.latency);
        }
        p
    }

    /// The aggregate [`LoopProfile`] of the factor-1 kernel itself —
    /// identical to what [`measure_kernel`] returns for the same run.
    pub fn to_loop_profile(&self, kernel: &LoopKernel, machine: &MachineConfig) -> LoopProfile {
        let n_clusters = machine.n_clusters();
        LoopProfile {
            name: self.name.clone(),
            fingerprint: self.fingerprint,
            n_ops: self.n_ops,
            ops: kernel
                .ops
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_mem())
                .map(|(i, _)| (i, self.aggregate_residue(i, 1, 0, n_clusters)))
                .collect(),
        }
    }

    /// Derives the measurement of `unrolled` (the factor-`factor` variant
    /// of the measured kernel) by residue-slicing the factor-1 streams:
    /// copy `k` of original op `i` (unrolled index `k·n + i`) receives the
    /// samples of iterations `≡ k (mod factor)`.
    ///
    /// # Errors
    ///
    /// Rejects an `unrolled` kernel whose shape does not match
    /// (`n_ops × factor`), or a stream in which some memory operation
    /// recorded a different number of samples than its peers (which would
    /// break the sample-index = iteration-index alignment the slicing
    /// relies on). Callers fall back to direct measurement.
    pub fn derive_unrolled(
        &self,
        unrolled: &LoopKernel,
        factor: u32,
        machine: &MachineConfig,
    ) -> Result<LoopProfile, String> {
        let n = self.n_ops;
        let u = factor as usize;
        if unrolled.ops.len() != n * u {
            return Err(format!(
                "unrolled kernel has {} ops, expected {} × {}",
                unrolled.ops.len(),
                n,
                u
            ));
        }
        let mut counts = self
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (i, s.len()));
        if let Some((_, first)) = counts.next() {
            if let Some((i, len)) = counts.find(|&(_, len)| len != first) {
                return Err(format!(
                    "op {i} recorded {len} samples where its peers recorded {first}; \
                     streams are not iteration-aligned"
                ));
            }
        }
        let n_clusters = machine.n_clusters();
        let mut ops = Vec::new();
        for (idx, op) in unrolled.ops.iter().enumerate() {
            if !op.is_mem() {
                continue;
            }
            let (copy, orig) = (idx / n, idx % n);
            ops.push((idx, self.aggregate_residue(orig, u, copy, n_clusters)));
        }
        Ok(LoopProfile {
            name: unrolled.name.clone(),
            fingerprint: kernel_fingerprint(unrolled),
            n_ops: unrolled.ops.len(),
            ops,
        })
    }
}

/// Knobs of one measurement run.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOptions {
    /// Cluster-assignment policy of the bootstrap schedule (the schedule
    /// the kernel executes under while being measured).
    pub policy: ClusterPolicy,
    /// Circuit-enumeration caps for the bootstrap schedule.
    pub enum_limits: EnumLimits,
    /// Simulation caps of the measurement run.
    pub sim: SimOptions,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            policy: ClusterPolicy::PreBuildChains,
            enum_limits: EnumLimits::default(),
            sim: SimOptions::default(),
        }
    }
}

/// Runs `kernel` in profiling mode: schedules it with the paper's
/// heuristic pipeline (the bootstrap — measurement needs *a* schedule,
/// and before any measurement exists the class-based pipeline is the only
/// one available), simulates it against an observed cache with
/// `addresses` supplying each operation's address stream, and returns the
/// per-operation measurements of the measured pass.
///
/// The kernel should carry its synthetic (functional) profiles, so the
/// bootstrap schedule is exactly the one the synthetic pipeline would
/// execute — the measurements then describe the feedback-directed loop's
/// real starting point.
///
/// # Errors
///
/// Propagates bootstrap scheduling failures.
pub fn measure_kernel(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    addresses: &mut dyn FnMut(OpId, u64) -> u64,
    options: &MeasureOptions,
) -> Result<LoopProfile, ScheduleError> {
    let sched_opts = ScheduleOptions {
        enum_limits: options.enum_limits,
        backend: SchedBackend::SwingModulo,
        ..ScheduleOptions::new(options.policy)
    };
    let schedule = schedule_outcome(kernel, machine, sched_opts)?.schedule;
    let hints = AttractionHints::allow_all(kernel);
    let mut cache = ObservedCache::new(
        build_cache(machine),
        Collector::new(kernel.ops.len(), machine),
    );
    simulate_loop(
        kernel,
        &schedule,
        machine,
        &mut cache,
        addresses,
        &hints,
        &options.sim,
    );
    let (_, collector) = cache.into_parts();
    let measured = collector.measurements();
    let ops = kernel
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_mem())
        .map(|(i, _)| (i, measured[i].clone()))
        .collect();
    Ok(LoopProfile {
        name: kernel.name.clone(),
        fingerprint: kernel_fingerprint(kernel),
        n_ops: kernel.ops.len(),
        ops,
    })
}

/// [`measure_kernel`] with the workload crate's address streams: lays the
/// kernel's arrays out for `input` (with or without §4.3.4 padding) and
/// measures against those addresses — the profile-input measurement run
/// of the feedback loop.
///
/// # Errors
///
/// Propagates bootstrap scheduling failures.
pub fn measure_kernel_on_input(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    padding: bool,
    input: u64,
    options: &MeasureOptions,
) -> Result<LoopProfile, ScheduleError> {
    let layout = ArrayLayout::new(kernel, machine, padding, input);
    let mut addresses = address_streams(kernel, &layout);
    measure_kernel(kernel, machine, &mut addresses, options)
}

/// [`measure_kernel`], but returning the full per-iteration sample stream
/// ([`StreamProfile`]) instead of only the aggregate — one measurement run
/// from which the profiles of every unroll variant can be derived.
///
/// # Errors
///
/// Propagates bootstrap scheduling failures.
pub fn measure_kernel_stream(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    addresses: &mut dyn FnMut(OpId, u64) -> u64,
    options: &MeasureOptions,
) -> Result<StreamProfile, ScheduleError> {
    let sched_opts = ScheduleOptions {
        enum_limits: options.enum_limits,
        backend: SchedBackend::SwingModulo,
        ..ScheduleOptions::new(options.policy)
    };
    let schedule = schedule_outcome(kernel, machine, sched_opts)?.schedule;
    let hints = AttractionHints::allow_all(kernel);
    let mut cache = ObservedCache::new(
        build_cache(machine),
        Collector::new(kernel.ops.len(), machine),
    );
    simulate_loop(
        kernel,
        &schedule,
        machine,
        &mut cache,
        addresses,
        &hints,
        &options.sim,
    );
    let (_, collector) = cache.into_parts();
    Ok(StreamProfile {
        name: kernel.name.clone(),
        fingerprint: kernel_fingerprint(kernel),
        n_ops: kernel.ops.len(),
        samples: collector.samples().to_vec(),
    })
}

/// [`measure_kernel_stream`] with the workload crate's address streams
/// (mirrors [`measure_kernel_on_input`]).
///
/// # Errors
///
/// Propagates bootstrap scheduling failures.
pub fn measure_kernel_stream_on_input(
    kernel: &LoopKernel,
    machine: &MachineConfig,
    padding: bool,
    input: u64,
    options: &MeasureOptions,
) -> Result<StreamProfile, ScheduleError> {
    let layout = ArrayLayout::new(kernel, machine, padding, input);
    let mut addresses = address_streams(kernel, &layout);
    measure_kernel_stream(kernel, machine, &mut addresses, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::attach_measurements;
    use vliw_ir::{ArrayKind, KernelBuilder, MemProfile};

    fn machine() -> MachineConfig {
        MachineConfig::word_interleaved_4()
    }

    /// A streaming kernel with an N×I stride: every access lands in the
    /// home cluster of its first address (a padded heap array, so that
    /// home is cluster 0 — globals are never padded, §4.3.4).
    fn kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("probe");
        let a = b.array("a", 8192, ArrayKind::Heap);
        let (ld, v) = b.load("ld", a, 0, 16, 4);
        let (st, _) = b.store("st", a, 4096, 16, 4, v);
        b.set_profile(ld, MemProfile::concentrated(1.0, 0, 4));
        b.set_profile(st, MemProfile::concentrated(1.0, 0, 4));
        b.finish(128.0)
    }

    fn opts() -> MeasureOptions {
        MeasureOptions {
            sim: SimOptions {
                iteration_cap: 128,
                warmup_iterations: 128,
            },
            ..MeasureOptions::default()
        }
    }

    #[test]
    fn measurement_counts_the_measured_pass_only() {
        let k = kernel();
        let m = machine();
        let lp = measure_kernel_on_input(&k, &m, true, 1, &opts()).unwrap();
        assert_eq!(lp.n_ops, 2);
        assert_eq!(lp.ops.len(), 2, "both memory ops measured");
        let (idx, ld) = &lp.ops[0];
        assert_eq!(*idx, 0);
        // exactly the 128 measured iterations, not warm-up + measured
        assert_eq!(ld.total(), 128);
        // N×I stride: every access in one cluster
        assert_eq!(ld.cluster_hist.iter().filter(|&&c| c > 0).count(), 1);
        // the warm-up already touched the whole (small) working set, so
        // the measured pass hits locally every time…
        assert!(ld.hit_rate() > 0.9, "hit rate {}", ld.hit_rate());
        assert_eq!(ld.classes[0], ld.total(), "all local hits");
        // …but the observed latency folds in real port contention with
        // the co-located store, which is exactly what measurement adds
        // over the 1-cycle class latency
        let median = ld.latency.percentile(0.5).unwrap();
        assert!((1..=5).contains(&median), "median latency {median}");
    }

    #[test]
    fn attach_feeds_measurements_back_into_the_kernel() {
        let mut k = kernel();
        let m = machine();
        let lp = measure_kernel_on_input(&k, &m, true, 1, &opts()).unwrap();
        attach_measurements(&mut k, &lp).unwrap();
        let p = k.ops[0].mem.as_ref().unwrap().profile.as_ref().unwrap();
        assert!(p.latency.as_ref().is_some_and(|l| !l.is_empty()));
        // attaching is idempotent: the fingerprint ignores profiles
        attach_measurements(&mut k, &lp).unwrap();
        // a different kernel body is rejected
        let mut other = kernel();
        other.ops[0].mem.as_mut().unwrap().offset = 4;
        let err = attach_measurements(&mut other, &lp).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn stream_aggregate_matches_direct_measurement() {
        let k = kernel();
        let m = machine();
        let direct = measure_kernel_on_input(&k, &m, true, 1, &opts()).unwrap();
        let stream = measure_kernel_stream_on_input(&k, &m, true, 1, &opts()).unwrap();
        assert_eq!(stream.to_loop_profile(&k, &m), direct);
        // deriving at factor 1 is the aggregate
        assert_eq!(stream.derive_unrolled(&k, 1, &m).unwrap(), direct);
    }

    #[test]
    fn derived_unroll_slices_by_residue() {
        let k = kernel();
        let m = machine();
        let stream = measure_kernel_stream_on_input(&k, &m, true, 1, &opts()).unwrap();
        let unrolled = vliw_ir::unroll(&k, 4);
        let lp = stream.derive_unrolled(&unrolled, 4, &m).unwrap();
        assert_eq!(lp.n_ops, k.ops.len() * 4);
        assert_eq!(lp.fingerprint, kernel_fingerprint(&unrolled));
        // each copy receives exactly a quarter of the 128 measured
        // iterations, and the total reconstructs the factor-1 aggregate
        let direct = stream.to_loop_profile(&k, &m);
        let copies_total: u64 = lp
            .ops
            .iter()
            .filter(|(idx, _)| idx % k.ops.len() == 0)
            .map(|(_, p)| p.total())
            .sum();
        assert_eq!(copies_total, direct.ops[0].1.total());
        for (_, p) in &lp.ops {
            assert_eq!(p.total(), 32);
        }
        // a wrong-shape kernel is rejected
        assert!(stream.derive_unrolled(&unrolled, 2, &m).is_err());
    }

    #[test]
    fn measurement_is_deterministic() {
        let k = kernel();
        let m = machine();
        let a = measure_kernel_on_input(&k, &m, true, 1, &opts()).unwrap();
        let b = measure_kernel_on_input(&k, &m, true, 1, &opts()).unwrap();
        assert_eq!(a, b);
    }
}
