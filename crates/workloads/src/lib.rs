//! Mediabench-equivalent synthetic workloads and the profiling pass.
//!
//! The paper evaluates on 14 Mediabench programs compiled with IMPACT and
//! profiled on a training input (Table 1). Neither that toolchain nor its
//! loop-level output is available, so this crate synthesizes, per
//! benchmark, a suite of modulo-schedulable loop kernels whose *measurable
//! characteristics match everything the paper publishes about each
//! program*:
//!
//! * the dominant access granularity and its share (Table 1);
//! * the double-precision share (mpeg2dec ≈ 50% — §5.2);
//! * the indirect-access share (jpegdec 40%, jpegenc 23%, pegwitdec 93%,
//!   pegwitenc 13% — §5.2);
//! * the preferred-cluster concentration (epicenc 0.57, jpegdec 0.81,
//!   jpegenc 0.78 — §5.2);
//! * heavy memory-dependent chains where the paper reports them hurting
//!   (epicdec −37%, pgpdec −25%, pgpenc −20%, rasta −29% local hits);
//! * the epicdec loop with 19 memory instructions in one cluster that
//!   overflows the Attraction Buffer (§5.2);
//! * negligible stall in g721dec/g721enc (§5.2).
//!
//! Every loop gets *two* address-space instantiations — the profile input
//! and the execution input — whose dynamic (heap/stack) base addresses
//! differ unless **variable alignment** (§4.3.4 padding to `N×I`) is on.
//! Global arrays keep the same base in both runs, as in the paper.
//!
//! The profiling pass ([`profile_kernel`]) replays the profile input's
//! address streams (one resolved [`OpStream`] per memory operation)
//! through the timeless [`FunctionalCache`](vliw_mem::FunctionalCache) and
//! attaches hit rates and preferred-cluster histograms to each memory
//! operation — the exact inputs the scheduling techniques consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod profiling;
pub mod rng;
mod spec;
mod suite;
mod synth;

pub use address::{address_for, address_streams, ArrayLayout, OpStream};
pub use profiling::{profile_kernel, ProfileOptions};
pub use spec::{BenchSpec, WorkloadConfig};
pub use suite::{spec_by_name, suite, SUITE_NAMES};
pub use synth::{synthesize, BenchmarkModel, LoopWorkload};
