//! Address-space instantiation and per-operation address streams.
//!
//! This module models the §4.3.4 mechanism: a loop's arrays receive base
//! addresses that depend on the *input data set* for heap and stack
//! objects, unless variable alignment pads them to an `N×I` boundary.
//! Globals always land at the same (input-independent) base.

use vliw_ir::{ArrayKind, LoopKernel, OpId};
use vliw_machine::MachineConfig;

/// Deterministic 64-bit mixer (splitmix64) — the only "randomness" in
/// address generation, so profile/execution runs are exactly reproducible.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The concrete placement of a kernel's arrays for one input data set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayLayout {
    bases: Vec<u64>,
    input_seed: u64,
}

impl ArrayLayout {
    /// Lays out `kernel`'s arrays for the given input.
    ///
    /// * Arrays are spread across a large address space with ample spacing
    ///   (no accidental overlap).
    /// * [`ArrayKind::Global`] bases depend only on the loop and array —
    ///   identical across inputs (the paper applies no padding to them, and
    ///   their `mod N×I` placement is an arbitrary but fixed value).
    /// * Heap/stack bases additionally take an input-dependent offset
    ///   within `N×I` — unless `padding` is on, which forces them to the
    ///   `N×I` boundary (the paper's variable alignment: aligned stack
    ///   frames and a modified `malloc`).
    pub fn new(
        kernel: &LoopKernel,
        machine: &MachineConfig,
        padding: bool,
        input_seed: u64,
    ) -> Self {
        let ni = machine.ni_bytes() as u64;
        let loop_id = hash_str(&kernel.name);
        let mut bases = Vec::with_capacity(kernel.arrays.len());
        let mut cursor = 0x1_0000u64; // leave page zero empty
        for a in &kernel.arrays {
            let slack = 4 * ni; // spacing so the jitter never overlaps
            let region = cursor;
            cursor += (a.size + slack).next_multiple_of(ni) + 4096;
            let jitter = match a.kind {
                ArrayKind::Global => {
                    // fixed, input-independent placement (word-aligned)
                    mix(loop_id ^ (a.id.index() as u64) << 8) % ni / 4 * 4
                }
                ArrayKind::Heap | ArrayKind::Stack => {
                    if padding {
                        0 // malloc/stack frames padded to N×I (§4.3.4)
                    } else {
                        mix(loop_id ^ ((a.id.index() as u64) << 8) ^ input_seed) % ni / 4 * 4
                    }
                }
            };
            bases.push(region + jitter);
        }
        ArrayLayout { bases, input_seed }
    }

    /// Base address of array `idx`.
    pub fn base(&self, idx: usize) -> u64 {
        self.bases[idx]
    }

    /// The input this layout was instantiated for.
    pub fn input_seed(&self) -> u64 {
        self.input_seed
    }
}

/// The address the memory operation `op` of `kernel` touches in
/// `iteration`, under `layout`: `OpStream::new(kernel, layout, op).at(iteration)`.
///
/// Callers replaying many iterations of one operation should resolve its
/// [`OpStream`] once instead.
///
/// # Panics
///
/// Panics if `op` is not a memory operation.
pub fn address_for(kernel: &LoopKernel, layout: &ArrayLayout, op: OpId, iteration: u64) -> u64 {
    OpStream::new(kernel, layout, op).at(iteration)
}

/// One memory operation's address stream under one layout, with
/// everything that does not depend on the iteration resolved up front.
///
/// Strided accesses walk `base + offset + stride × iteration`, wrapping so
/// they stay inside the array while preserving their `mod N×I` residue
/// (the property the unrolling analysis relies on). Indirect accesses
/// (`a[b[i]]`) produce an input-dependent pseudo-random element index —
/// a different stream per input data set, as a real data-dependent index
/// would be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStream(StreamKind);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamKind {
    /// `start + stride × (iteration mod period)`, where `start` is the
    /// array base plus the op's offset.
    Strided {
        start: i64,
        stride: i64,
        period: u64,
    },
    /// `base + (mix(seed ^ mix(iteration)) mod elems) × granularity`.
    Indirect {
        base: u64,
        seed: u64,
        elems: u64,
        granularity: u64,
    },
}

impl OpStream {
    /// Resolves the stream of memory operation `op` of `kernel` under
    /// `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a memory operation.
    pub fn new(kernel: &LoopKernel, layout: &ArrayLayout, op: OpId) -> Self {
        let operation = kernel.op(op);
        let mem = operation.mem.as_ref().expect("memory operation");
        let array = &kernel.arrays[mem.array.index()];
        let base = layout.base(mem.array.index());
        OpStream(match mem.stride {
            Some(stride) => {
                let s = stride.unsigned_abs();
                // wrap after `period` iterations: the largest stride-multiple
                // window that both fits the array and is a multiple of 16
                // strides keeps (addr mod N×I) periodic; a zero stride
                // touches one address
                let period = if s == 0 {
                    1
                } else {
                    let span = array.size.saturating_sub(mem.offset.unsigned_abs()).max(s);
                    let period = (span / s).max(1) / 16 * 16;
                    if period == 0 {
                        (span / s).max(1)
                    } else {
                        period
                    }
                };
                StreamKind::Strided {
                    start: base as i64 + mem.offset,
                    stride,
                    period,
                }
            }
            // data-dependent index, different per input
            None => StreamKind::Indirect {
                base,
                seed: hash_str(&operation.name) ^ layout.input_seed(),
                elems: (array.size / mem.granularity.max(1) as u64).max(1),
                granularity: mem.granularity as u64,
            },
        })
    }

    /// The address touched in `iteration`.
    #[inline]
    pub fn at(self, iteration: u64) -> u64 {
        match self.0 {
            StreamKind::Strided {
                start,
                stride,
                period,
            } => (start + stride * (iteration % period) as i64) as u64,
            StreamKind::Indirect {
                base,
                seed,
                elems,
                granularity,
            } => base + (mix(seed ^ mix(iteration)) % elems) * granularity,
        }
    }
}

/// The address streams of every memory operation of `kernel` under
/// `layout`, as the `(op, iteration) → address` function the simulator
/// and the measurement runs consume.
///
/// # Panics
///
/// The returned function panics when called for an operation that is not
/// a memory operation.
pub fn address_streams(kernel: &LoopKernel, layout: &ArrayLayout) -> impl Fn(OpId, u64) -> u64 {
    let streams: Vec<Option<OpStream>> = kernel
        .ops
        .iter()
        .map(|o| o.mem.is_some().then(|| OpStream::new(kernel, layout, o.id)))
        .collect();
    move |op, iteration| streams[op.index()].expect("memory operation").at(iteration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_ir::KernelBuilder;

    fn kernel() -> LoopKernel {
        let mut b = KernelBuilder::new("k");
        let g = b.array("glob", 4096, ArrayKind::Global);
        let h = b.array("heap", 4096, ArrayKind::Heap);
        let (_, idxv) = b.load("ld_g", g, 0, 4, 4);
        let (_, _) = b.load("ld_h", h, 0, 2, 2);
        let _ = b.load_indirect("ld_i", h, idxv, 4);
        b.finish(100.0)
    }

    fn machine() -> MachineConfig {
        MachineConfig::word_interleaved_4()
    }

    #[test]
    fn globals_stable_across_inputs() {
        let k = kernel();
        let m = machine();
        let l1 = ArrayLayout::new(&k, &m, false, 111);
        let l2 = ArrayLayout::new(&k, &m, false, 222);
        assert_eq!(l1.base(0), l2.base(0), "global base is input-independent");
    }

    #[test]
    fn unpadded_heap_moves_with_input() {
        let k = kernel();
        let m = machine();
        let l1 = ArrayLayout::new(&k, &m, false, 111);
        let l2 = ArrayLayout::new(&k, &m, false, 222);
        // different inputs place the heap array at different N×I residues
        // (for almost all seed pairs; these are chosen to differ)
        assert_ne!(l1.base(1) % 16, l2.base(1) % 16);
    }

    #[test]
    fn padding_pins_heap_to_ni_boundary() {
        let k = kernel();
        let m = machine();
        for seed in [1u64, 7, 42, 99] {
            let l = ArrayLayout::new(&k, &m, true, seed);
            assert_eq!(l.base(1) % 16, 0, "padded base is N×I-aligned");
        }
    }

    #[test]
    fn arrays_never_overlap() {
        let k = kernel();
        let m = machine();
        let l = ArrayLayout::new(&k, &m, false, 5);
        let r0 = l.base(0)..l.base(0) + 4096;
        let r1 = l.base(1)..l.base(1) + 4096;
        assert!(r0.end <= r1.start || r1.end <= r0.start);
    }

    #[test]
    fn strided_stream_preserves_ni_residue() {
        let k = kernel();
        let m = machine();
        let l = ArrayLayout::new(&k, &m, true, 3);
        let op = OpId::new(1); // 2-byte strided load
        let a0 = address_for(&k, &l, op, 0);
        // stride 2: iteration i sits at residue (a0 + 2 i) mod 16; after the
        // wrap the residue pattern repeats exactly
        for i in 0..2000 {
            let a = address_for(&k, &l, op, i);
            assert_eq!(a % 16, (a0 + 2 * (i % 8)) % 16, "iteration {i}");
            assert!(a >= l.base(1) && a < l.base(1) + 4096 + 16);
        }
    }

    #[test]
    fn indirect_stream_depends_on_input() {
        let k = kernel();
        let m = machine();
        let l1 = ArrayLayout::new(&k, &m, true, 111);
        let l2 = ArrayLayout::new(&k, &m, true, 222);
        let op = OpId::new(2);
        let differs = (0..64).any(|i| {
            address_for(&k, &l1, op, i) - l1.base(1) != address_for(&k, &l2, op, i) - l2.base(1)
        });
        assert!(differs, "indirect index stream must change with the input");
        // and is reproducible for the same input
        for i in 0..64 {
            assert_eq!(address_for(&k, &l1, op, i), address_for(&k, &l1, op, i));
        }
    }

    #[test]
    fn indirect_addresses_stay_inside_array() {
        let k = kernel();
        let m = machine();
        let l = ArrayLayout::new(&k, &m, true, 9);
        let op = OpId::new(2);
        for i in 0..500 {
            let a = address_for(&k, &l, op, i);
            assert!(a >= l.base(1) && a < l.base(1) + 4096);
        }
    }
}
