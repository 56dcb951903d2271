//! Modulo reservation table: functional-unit slots and register-bus slots.
//!
//! Occupancy is stored **word-parallel**: each (cluster, FU-kind) row and
//! each bus row is a run of `u64` words over the II's modulo slots
//! (`ceil(II / 64)` words per row), with a set bit meaning "slot at
//! capacity". A feasibility probe is one AND; a candidate-cycle scan is a
//! trailing-zeros (or leading-zeros, for descending windows) walk over the
//! row's free-mask, so fully-occupied stretches cost one word inspection
//! instead of one probe per slot. Functional units additionally keep a
//! `u16` counter per slot so capacities above one stay supported — the
//! counters feed the masks (`bit set ⇔ count == capacity`) and the hot
//! probes read only the masks.
//!
//! The unit tests keep the pre-bitmask one-scalar-per-probe table as a
//! private oracle: both tables pass one shared contract suite and must
//! agree probe for probe on randomized reservation traces.

use vliw_ir::FuKind;
use vliw_machine::MachineConfig;

/// Tracks resource usage of a partial modulo schedule at one II.
///
/// Functional units are per-(cluster, kind, modulo-slot) counters shadowed
/// by per-(cluster, kind) `u64` full-masks; register buses are per-bus
/// `u64` occupancy masks, and a transfer occupies
/// [`transfer_cycles`](vliw_machine::BusConfig::transfer_cycles) consecutive
/// slots on the same bus (the buses run at half the core frequency).
///
/// # Transactions
///
/// The scheduler probes thousands of candidate `(cluster, cycle)` slots per
/// placement, most of which fail on bus availability. Instead of cloning
/// the whole table per probe, open a transaction with [`Mrt::begin`]: every
/// [`Mrt::fu_reserve`] / [`Mrt::bus_reserve`] then appends an undo entry to
/// an internal journal, [`Mrt::rollback`] unwinds exactly those
/// reservations (O(reservations made), not O(table)), and [`Mrt::commit`]
/// makes them permanent. Transactions do not nest — one probe at a time —
/// and `commit`/`rollback` outside a transaction are no-ops, so a commit is
/// idempotent.
///
/// Bus reservations journal **word-level deltas**: one entry per `u64` word
/// a transfer touched, carrying the exact bits it set, so a wrapped
/// multi-slot transfer unwinds in at most two mask operations.
///
/// Backtracking searchers (the exact branch-and-bound backend) need more
/// than one probe of undo depth: [`Mrt::savepoint`] marks a position in
/// the open transaction's journal and [`Mrt::rollback_to`] unwinds back to
/// it while keeping the transaction open, so the journal doubles as the
/// search's undo stack — one savepoint per decision level.
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: u32,
    /// Words per occupancy row: `ceil(ii / 64)`.
    words: usize,
    n_clusters: usize,
    fu_cap: [usize; 3],
    /// Per-slot reservation counts, `[cluster][kind][slot]` — the source
    /// of truth for capacities above one. Probes never read this.
    fu_cnt: Vec<u16>,
    /// Per-(cluster, kind) full-masks, `[cluster][kind][word]`: bit set ⇔
    /// the slot is at capacity.
    fu_full: Vec<u64>,
    /// Per-bus occupancy masks, `[bus][word]`: bit set ⇔ slot occupied.
    bus: Vec<u64>,
    n_buses: usize,
    transfer: u32,
    // undo log of the open transaction (empty when none is open)
    journal: Vec<Undo>,
    in_txn: bool,
}

/// A position in an open transaction's journal, taken with
/// [`Mrt::savepoint`] and released (LIFO) with [`Mrt::rollback_to`].
#[derive(Debug, Clone, Copy)]
pub struct MrtSavepoint(usize);

/// One journal entry: the word-level delta a reservation applied.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// `fu_cnt[idx] += 1` happened (flat `[cluster][kind][slot]` index);
    /// undo decrements and clears the slot's full bit — after the
    /// decrement the count is strictly below capacity, so the clear is
    /// unconditional.
    Fu(u32),
    /// `bus[widx] |= bits` happened with every bit in `bits` previously
    /// clear; undo is `bus[widx] &= !bits`.
    BusWord {
        /// Flat word index into the bus mask array.
        widx: u32,
        /// The exact bits the reservation set in that word.
        bits: u64,
    },
}

fn kind_index(kind: FuKind) -> usize {
    match kind {
        FuKind::Int => 0,
        FuKind::Fp => 1,
        FuKind::Mem => 2,
    }
}

fn words_for(ii: u32) -> usize {
    (ii as usize).div_ceil(64)
}

impl Mrt {
    /// An empty table for the given II and machine.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn new(ii: u32, machine: &MachineConfig) -> Self {
        assert!(ii > 0, "II must be positive");
        let n = machine.clusters.n_clusters;
        let words = words_for(ii);
        Mrt {
            ii,
            words,
            n_clusters: n,
            fu_cap: [
                machine.clusters.int_units,
                machine.clusters.fp_units,
                machine.clusters.mem_units,
            ],
            fu_cnt: vec![0; n * 3 * ii as usize],
            fu_full: vec![0; n * 3 * words],
            bus: vec![0; machine.buses.reg_buses * words],
            n_buses: machine.buses.reg_buses,
            transfer: machine.buses.transfer_cycles,
            journal: Vec::new(),
            in_txn: false,
        }
    }

    /// Re-initializes the table for a (possibly different) II and machine,
    /// reusing the existing allocations — the scheduler resets one table
    /// per placement attempt instead of building a fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `ii == 0`.
    pub fn reset(&mut self, ii: u32, machine: &MachineConfig) {
        assert!(ii > 0, "II must be positive");
        let n = machine.clusters.n_clusters;
        let words = words_for(ii);
        self.ii = ii;
        self.words = words;
        self.n_clusters = n;
        self.fu_cap = [
            machine.clusters.int_units,
            machine.clusters.fp_units,
            machine.clusters.mem_units,
        ];
        self.fu_cnt.clear();
        self.fu_cnt.resize(n * 3 * ii as usize, 0);
        self.fu_full.clear();
        self.fu_full.resize(n * 3 * words, 0);
        self.bus.clear();
        self.bus.resize(machine.buses.reg_buses * words, 0);
        self.n_buses = machine.buses.reg_buses;
        self.transfer = machine.buses.transfer_cycles;
        self.journal.clear();
        self.in_txn = false;
    }

    /// Opens a transaction: subsequent reservations are journaled until
    /// [`Mrt::commit`] or [`Mrt::rollback`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open (transactions do not nest).
    pub fn begin(&mut self) {
        assert!(!self.in_txn, "MRT transactions do not nest");
        debug_assert!(self.journal.is_empty());
        self.in_txn = true;
    }

    /// Makes the open transaction's reservations permanent. A no-op when
    /// no transaction is open, so committing twice is harmless.
    pub fn commit(&mut self) {
        self.journal.clear();
        self.in_txn = false;
    }

    /// Unwinds every reservation made since [`Mrt::begin`], restoring the
    /// exact functional-unit counters and bus masks. A no-op when no
    /// transaction is open.
    pub fn rollback(&mut self) {
        while let Some(entry) = self.journal.pop() {
            self.undo(entry);
        }
        self.in_txn = false;
    }

    fn undo(&mut self, entry: Undo) {
        match entry {
            Undo::Fu(idx) => {
                let idx = idx as usize;
                self.fu_cnt[idx] -= 1;
                // count just dropped below capacity: the slot is free again
                let (row, slot) = (idx / self.ii as usize, idx % self.ii as usize);
                self.fu_full[row * self.words + slot / 64] &= !(1u64 << (slot % 64));
            }
            Undo::BusWord { widx, bits } => self.bus[widx as usize] &= !bits,
        }
    }

    /// Whether a transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.in_txn
    }

    /// Marks the current position in the open transaction's journal.
    /// [`Mrt::rollback_to`] unwinds back to the mark while leaving the
    /// transaction (and every reservation made before the mark) intact —
    /// the nested undo stack a backtracking searcher layers on top of the
    /// flat begin/commit/rollback probe protocol.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn savepoint(&self) -> MrtSavepoint {
        assert!(self.in_txn, "savepoint requires an open transaction");
        MrtSavepoint(self.journal.len())
    }

    /// Unwinds every reservation made since `sp`, restoring the exact
    /// functional-unit counters and bus masks at the mark. The transaction
    /// stays open; earlier savepoints of the same transaction remain
    /// valid.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open, or if the journal has already
    /// been unwound past `sp` (a savepoint must be released in LIFO
    /// order).
    pub fn rollback_to(&mut self, sp: MrtSavepoint) {
        assert!(self.in_txn, "rollback_to requires an open transaction");
        assert!(
            sp.0 <= self.journal.len(),
            "savepoint already unwound (LIFO order violated)"
        );
        while self.journal.len() > sp.0 {
            let entry = self.journal.pop().expect("journal entry");
            self.undo(entry);
        }
    }

    /// The II this table was built for.
    pub fn ii(&self) -> u32 {
        self.ii
    }

    fn slot(&self, cycle: i64) -> usize {
        cycle.rem_euclid(self.ii as i64) as usize
    }

    fn fu_row(&self, cluster: usize, kind: FuKind) -> usize {
        cluster * 3 + kind_index(kind)
    }

    /// Bits of word `w` that correspond to real slots (`< ii`); only the
    /// last word of a row can have a partial mask.
    fn valid_mask(&self, w: usize) -> u64 {
        let rem = self.ii as usize % 64;
        if w + 1 == self.words && rem != 0 {
            (1u64 << rem) - 1
        } else {
            !0
        }
    }

    /// Whether a `kind` unit is free in `cluster` at `cycle`.
    pub fn fu_free(&self, cluster: usize, kind: FuKind, cycle: i64) -> bool {
        let slot = self.slot(cycle);
        let word = self.fu_full[self.fu_row(cluster, kind) * self.words + slot / 64];
        word & (1u64 << (slot % 64)) == 0
    }

    /// Reserves a `kind` unit in `cluster` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if no unit is free (callers check [`Mrt::fu_free`] first).
    pub fn fu_reserve(&mut self, cluster: usize, kind: FuKind, cycle: i64) {
        assert!(
            self.fu_free(cluster, kind, cycle),
            "functional unit oversubscribed"
        );
        let slot = self.slot(cycle);
        let row = self.fu_row(cluster, kind);
        let idx = row * self.ii as usize + slot;
        self.fu_cnt[idx] += 1;
        if self.fu_cnt[idx] as usize == self.fu_cap[kind_index(kind)] {
            self.fu_full[row * self.words + slot / 64] |= 1u64 << (slot % 64);
        }
        if self.in_txn {
            self.journal.push(Undo::Fu(idx as u32));
        }
    }

    /// The first cycle with a free `kind` unit, walking from `from`
    /// towards `limit` inclusive (downwards when `descending`): a
    /// trailing-zeros (ascending) or leading-zeros (descending) walk over
    /// the row's free-mask, so occupied stretches are skipped a word at a
    /// time.
    pub fn next_free_fu_cycle(
        &self,
        cluster: usize,
        kind: FuKind,
        from: i64,
        limit: i64,
        descending: bool,
    ) -> Option<i64> {
        let row = self.fu_row(cluster, kind) * self.words;
        if descending {
            let mut cur = from;
            while cur >= limit {
                let slot = self.slot(cur);
                let (w, b) = (slot / 64, slot % 64);
                let free = !self.fu_full[row + w] & self.valid_mask(w);
                // bits at or below b — candidates within this word
                let masked = free & (!0u64 >> (63 - b));
                if masked != 0 {
                    let nb = 63 - masked.leading_zeros() as usize;
                    let cand = cur - (b - nb) as i64;
                    return (cand >= limit).then_some(cand);
                }
                // whole word occupied at/below b: jump below it (wrapping
                // from slot 0 to slot ii-1)
                cur -= b as i64 + 1;
            }
        } else {
            let mut cur = from;
            while cur <= limit {
                let slot = self.slot(cur);
                let (w, b) = (slot / 64, slot % 64);
                let free = !self.fu_full[row + w] & self.valid_mask(w);
                // bits at or above b — candidates within this word
                let masked = free & (!0u64 << b);
                if masked != 0 {
                    let nb = masked.trailing_zeros() as usize;
                    let cand = cur + (nb - b) as i64;
                    return (cand <= limit).then_some(cand);
                }
                // jump to the next word boundary (or wrap to slot 0)
                let boundary = ((w + 1) * 64).min(self.ii as usize);
                cur += (boundary - slot) as i64;
            }
        }
        None
    }

    /// Finds a register bus free for a whole transfer starting at `cycle`.
    pub fn bus_find(&self, cycle: i64) -> Option<usize> {
        (0..self.n_buses).find(|&b| self.bus_free(b, cycle))
    }

    /// Whether bus `bus` is free for a transfer starting at `cycle`.
    ///
    /// A transfer longer than the II can never fit: it would overlap its
    /// own next-iteration instance on the same bus (each static copy fires
    /// every II cycles).
    pub fn bus_free(&self, bus: usize, cycle: i64) -> bool {
        if self.transfer > self.ii {
            return false;
        }
        let row = bus * self.words;
        (0..self.transfer as i64).all(|k| {
            let slot = self.slot(cycle + k);
            self.bus[row + slot / 64] & (1u64 << (slot % 64)) == 0
        })
    }

    /// Reserves bus `bus` for a transfer starting at `cycle`, journaling
    /// one word-level delta per `u64` word the transfer touches.
    ///
    /// # Panics
    ///
    /// Panics if any needed slot is taken.
    pub fn bus_reserve(&mut self, bus: usize, cycle: i64) {
        assert!(self.bus_free(bus, cycle), "register bus oversubscribed");
        let start = self.slot(cycle) as u32;
        let t = self.transfer;
        // consecutive modulo slots split into at most two contiguous runs
        // (the wrap at the II boundary starts the second)
        let first = t.min(self.ii - start);
        self.bus_set_run(bus, start, first);
        if first < t {
            self.bus_set_run(bus, 0, t - first);
        }
    }

    /// Sets `len` consecutive slot bits of `bus` starting at `start`
    /// (no wrap within a run), one `|=` and journal entry per word.
    fn bus_set_run(&mut self, bus: usize, start: u32, len: u32) {
        let row = bus * self.words;
        let mut slot = start as usize;
        let end = (start + len) as usize;
        while slot < end {
            let w = slot / 64;
            let word_end = ((w + 1) * 64).min(end);
            let lo = slot % 64;
            let n = word_end - slot;
            let bits = if n == 64 {
                !0u64
            } else {
                ((1u64 << n) - 1) << lo
            };
            let widx = row + w;
            debug_assert_eq!(self.bus[widx] & bits, 0, "bus_free checked above");
            self.bus[widx] |= bits;
            if self.in_txn {
                self.journal.push(Undo::BusWord {
                    widx: widx as u32,
                    bits,
                });
            }
            slot = word_end;
        }
    }

    /// Number of clusters this table covers.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Compares occupancy state (counters and packed words) against
    /// `other` without allocating — the equivalence checks' hot path.
    pub fn state_eq(&self, other: &Mrt) -> bool {
        self.fu_cnt == other.fu_cnt && self.fu_full == other.fu_full && self.bus == other.bus
    }

    /// The packed occupancy words (FU full-masks, then bus masks), for
    /// hashing a partial schedule's resource signature without rebuilding
    /// any per-slot representation.
    pub fn occupancy_words(&self) -> (&[u64], &[u64]) {
        (&self.fu_full, &self.bus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-bitmask scalar-probe table, kept as the oracle the masked
    /// [`Mrt`] is checked against: per-slot `u16` counters and per-slot
    /// `bool` bus flags, probed one scalar at a time, with its own
    /// one-entry-per-slot journal. Transaction, savepoint and panic
    /// semantics match [`Mrt`] exactly.
    #[derive(Debug, Clone)]
    struct ScalarMrt {
        ii: u32,
        fu_cap: [usize; 3],
        // [cluster][kind][slot]
        fu: Vec<u16>,
        // [bus][slot]
        bus: Vec<bool>,
        n_buses: usize,
        transfer: u32,
        journal: Vec<ScalarUndo>,
        in_txn: bool,
    }

    /// A scalar journal entry: the flat index a reservation incremented
    /// (`Fu`) or set (`Bus`).
    #[derive(Debug, Clone, Copy)]
    enum ScalarUndo {
        Fu(usize),
        Bus(usize),
    }

    impl ScalarMrt {
        fn new(ii: u32, machine: &MachineConfig) -> Self {
            let mut t = ScalarMrt {
                ii,
                fu_cap: [0; 3],
                fu: Vec::new(),
                bus: Vec::new(),
                n_buses: 0,
                transfer: 0,
                journal: Vec::new(),
                in_txn: false,
            };
            t.reset(ii, machine);
            t
        }

        fn reset(&mut self, ii: u32, machine: &MachineConfig) {
            assert!(ii > 0, "II must be positive");
            let n = machine.clusters.n_clusters;
            self.ii = ii;
            self.fu_cap = [
                machine.clusters.int_units,
                machine.clusters.fp_units,
                machine.clusters.mem_units,
            ];
            self.fu.clear();
            self.fu.resize(n * 3 * ii as usize, 0);
            self.bus.clear();
            self.bus
                .resize(machine.buses.reg_buses * ii as usize, false);
            self.n_buses = machine.buses.reg_buses;
            self.transfer = machine.buses.transfer_cycles;
            self.journal.clear();
            self.in_txn = false;
        }

        fn begin(&mut self) {
            assert!(!self.in_txn, "MRT transactions do not nest");
            self.in_txn = true;
        }

        fn commit(&mut self) {
            self.journal.clear();
            self.in_txn = false;
        }

        fn rollback(&mut self) {
            while let Some(entry) = self.journal.pop() {
                self.undo(entry);
            }
            self.in_txn = false;
        }

        fn undo(&mut self, entry: ScalarUndo) {
            match entry {
                ScalarUndo::Fu(idx) => self.fu[idx] -= 1,
                ScalarUndo::Bus(idx) => self.bus[idx] = false,
            }
        }

        fn in_transaction(&self) -> bool {
            self.in_txn
        }

        fn savepoint(&self) -> MrtSavepoint {
            assert!(self.in_txn, "savepoint requires an open transaction");
            MrtSavepoint(self.journal.len())
        }

        fn rollback_to(&mut self, sp: MrtSavepoint) {
            assert!(self.in_txn, "rollback_to requires an open transaction");
            assert!(
                sp.0 <= self.journal.len(),
                "savepoint already unwound (LIFO order violated)"
            );
            while self.journal.len() > sp.0 {
                let entry = self.journal.pop().expect("journal entry");
                self.undo(entry);
            }
        }

        fn ii(&self) -> u32 {
            self.ii
        }

        fn slot(&self, cycle: i64) -> usize {
            cycle.rem_euclid(self.ii as i64) as usize
        }

        fn fu_idx(&self, cluster: usize, kind: FuKind, cycle: i64) -> usize {
            (cluster * 3 + kind_index(kind)) * self.ii as usize + self.slot(cycle)
        }

        fn fu_free(&self, cluster: usize, kind: FuKind, cycle: i64) -> bool {
            (self.fu[self.fu_idx(cluster, kind, cycle)] as usize) < self.fu_cap[kind_index(kind)]
        }

        fn fu_reserve(&mut self, cluster: usize, kind: FuKind, cycle: i64) {
            assert!(
                self.fu_free(cluster, kind, cycle),
                "functional unit oversubscribed"
            );
            let idx = self.fu_idx(cluster, kind, cycle);
            self.fu[idx] += 1;
            if self.in_txn {
                self.journal.push(ScalarUndo::Fu(idx));
            }
        }

        /// Probes one cycle at a time, visiting exactly the cycles the
        /// masked walk must yield.
        fn next_free_fu_cycle(
            &self,
            cluster: usize,
            kind: FuKind,
            from: i64,
            limit: i64,
            descending: bool,
        ) -> Option<i64> {
            let mut c = from;
            while (descending && c >= limit) || (!descending && c <= limit) {
                if self.fu_free(cluster, kind, c) {
                    return Some(c);
                }
                c += if descending { -1 } else { 1 };
            }
            None
        }

        fn bus_find(&self, cycle: i64) -> Option<usize> {
            (0..self.n_buses).find(|&b| self.bus_free(b, cycle))
        }

        fn bus_free(&self, bus: usize, cycle: i64) -> bool {
            if self.transfer > self.ii {
                return false;
            }
            (0..self.transfer as i64)
                .all(|k| !self.bus[bus * self.ii as usize + self.slot(cycle + k)])
        }

        fn bus_reserve(&mut self, bus: usize, cycle: i64) {
            assert!(self.bus_free(bus, cycle), "register bus oversubscribed");
            for k in 0..self.transfer as i64 {
                let idx = bus * self.ii as usize + self.slot(cycle + k);
                self.bus[idx] = true;
                if self.in_txn {
                    self.journal.push(ScalarUndo::Bus(idx));
                }
            }
        }

        fn state_eq(&self, other: &ScalarMrt) -> bool {
            self.fu == other.fu && self.bus == other.bus
        }
    }

    /// The shared behavioral suite, instantiated for both implementations:
    /// every contract the scheduler relies on — capacity, wrap, panic
    /// messages, transactions, savepoints, reset — must hold identically
    /// for the masked and the scalar table.
    macro_rules! mrt_contract_tests {
        ($modname:ident, $table:ty) => {
            mod $modname {
                use super::*;

                fn mrt(ii: u32) -> $table {
                    <$table>::new(ii, &MachineConfig::word_interleaved_4())
                }

                #[test]
                fn fu_capacity_is_one_per_kind() {
                    let mut t = mrt(4);
                    assert!(t.fu_free(0, FuKind::Mem, 2));
                    t.fu_reserve(0, FuKind::Mem, 2);
                    assert!(!t.fu_free(0, FuKind::Mem, 2));
                    // same slot, different cluster or kind is fine
                    assert!(t.fu_free(1, FuKind::Mem, 2));
                    assert!(t.fu_free(0, FuKind::Int, 2));
                    // modulo wrap: cycle 6 shares slot 2 at II 4
                    assert!(!t.fu_free(0, FuKind::Mem, 6));
                    // negative cycles wrap correctly: -2 ≡ 2 (mod 4)
                    assert!(!t.fu_free(0, FuKind::Mem, -2));
                }

                #[test]
                #[should_panic(expected = "oversubscribed")]
                fn fu_over_reservation_panics() {
                    let mut t = mrt(4);
                    t.fu_reserve(0, FuKind::Int, 1);
                    t.fu_reserve(0, FuKind::Int, 5); // same modulo slot
                }

                #[test]
                fn bus_transfer_occupies_two_slots() {
                    let mut t = mrt(4);
                    let b = t.bus_find(1).unwrap();
                    t.bus_reserve(b, 1);
                    // bus b busy at slots 1 and 2
                    assert!(!t.bus_free(b, 1));
                    assert!(!t.bus_free(b, 2)); // starting at 2 needs slots 2,3; 2 busy
                    assert!(t.bus_free(b, 3)); // slots 3,0 free
                                               // other buses unaffected
                    assert!(t.bus_find(1).is_some());
                }

                #[test]
                fn bus_exhaustion() {
                    let mut t = mrt(2);
                    // II=2: each transfer occupies both slots of a bus -> 4 transfers max
                    for _ in 0..4 {
                        let b = t.bus_find(0).expect("bus available");
                        t.bus_reserve(b, 0);
                    }
                    assert_eq!(t.bus_find(0), None);
                    assert_eq!(t.bus_find(1), None);
                }

                #[test]
                fn bus_wraps_around_ii() {
                    let mut t = mrt(3);
                    t.bus_reserve(0, 2); // occupies slots 2 and 0
                    assert!(!t.bus_free(0, 0));
                    assert!(!t.bus_free(0, 1)); // starting at 1 needs slots 1,2; 2 busy
                }

                #[test]
                #[should_panic(expected = "II must be positive")]
                fn zero_ii_rejected() {
                    let _ = mrt(0);
                }

                #[test]
                fn rollback_restores_exact_fu_and_bus_state() {
                    let mut t = mrt(4);
                    // committed baseline: one FU, one transfer
                    t.fu_reserve(0, FuKind::Int, 1);
                    t.bus_reserve(0, 3); // slots 3 and 0
                    let before = t.clone();
                    t.begin();
                    t.fu_reserve(1, FuKind::Mem, 2);
                    t.fu_reserve(1, FuKind::Int, 2);
                    let b = t.bus_find(1).expect("bus free");
                    t.bus_reserve(b, 1);
                    assert!(!t.state_eq(&before), "reservations visible in-flight");
                    t.rollback();
                    assert!(t.state_eq(&before), "rollback restores exact counters");
                    assert!(!t.in_transaction());
                    // the unwound resources are reservable again
                    assert!(t.fu_free(1, FuKind::Mem, 2));
                    assert!(t.bus_free(b, 1));
                }

                #[test]
                fn rollback_after_partial_multi_slot_bus_reservation() {
                    // II 3, transfer 2: a transfer starting at slot 2 wraps to slot 0.
                    // Roll back a transaction whose bus reservation spans the wrap plus
                    // an earlier whole transfer: every individual slot flag must clear.
                    let mut t = mrt(3);
                    let fresh = t.clone();
                    t.begin();
                    t.bus_reserve(0, 2); // slots 2 and (wrapping) 0 of bus 0
                    t.bus_reserve(1, 1); // slots 1 and 2 of bus 1
                    t.rollback();
                    assert!(t.state_eq(&fresh), "all bus slots cleared");
                    assert!(t.bus_free(0, 0) && t.bus_free(0, 1) && t.bus_free(0, 2));
                }

                #[test]
                fn commit_is_idempotent_and_keeps_reservations() {
                    let mut t = mrt(4);
                    t.begin();
                    t.fu_reserve(0, FuKind::Int, 0);
                    t.bus_reserve(0, 0);
                    t.commit();
                    let committed = t.clone();
                    t.commit(); // no open transaction: harmless
                    assert!(t.state_eq(&committed));
                    // a later rollback must not unwind committed reservations
                    t.rollback();
                    assert!(t.state_eq(&committed));
                    assert!(!t.fu_free(0, FuKind::Int, 0));
                }

                #[test]
                #[should_panic(expected = "do not nest")]
                fn nested_begin_panics() {
                    let mut t = mrt(4);
                    t.begin();
                    t.begin();
                }

                #[test]
                fn savepoints_unwind_in_lifo_order() {
                    let mut t = mrt(4);
                    t.begin();
                    t.fu_reserve(0, FuKind::Int, 0);
                    let after_first = t.clone();
                    let sp1 = t.savepoint();
                    t.fu_reserve(0, FuKind::Mem, 1);
                    t.bus_reserve(0, 2);
                    let sp2 = t.savepoint();
                    t.fu_reserve(1, FuKind::Fp, 3);
                    // inner level unwinds only its own reservations
                    t.rollback_to(sp2);
                    assert!(t.fu_free(1, FuKind::Fp, 3));
                    assert!(!t.fu_free(0, FuKind::Mem, 1), "outer level intact");
                    assert!(t.in_transaction(), "transaction stays open");
                    // outer level unwinds back to the first reservation
                    t.rollback_to(sp1);
                    assert!(t.state_eq(&after_first));
                    // a full rollback still unwinds everything before the savepoints
                    t.rollback();
                    assert!(t.fu_free(0, FuKind::Int, 0));
                }

                #[test]
                fn savepoint_rollback_restores_wrapped_bus_slots() {
                    // II 3, transfer 2: reservation at slot 2 wraps to slot 0
                    let mut t = mrt(3);
                    t.begin();
                    t.bus_reserve(1, 1);
                    let sp = t.savepoint();
                    t.bus_reserve(0, 2);
                    t.rollback_to(sp);
                    assert!(
                        t.bus_free(0, 0) && t.bus_free(0, 2),
                        "wrapped slots cleared"
                    );
                    assert!(!t.bus_free(1, 1), "pre-savepoint transfer intact");
                }

                #[test]
                #[should_panic(expected = "open transaction")]
                fn savepoint_outside_transaction_panics() {
                    let t = mrt(4);
                    let _ = t.savepoint();
                }

                #[test]
                #[should_panic(expected = "LIFO")]
                fn stale_savepoint_panics() {
                    let mut t = mrt(4);
                    t.begin();
                    t.fu_reserve(0, FuKind::Int, 0);
                    let sp_inner = {
                        let sp_outer = t.savepoint();
                        t.fu_reserve(0, FuKind::Int, 1);
                        let inner = t.savepoint();
                        t.rollback_to(sp_outer);
                        inner
                    };
                    t.rollback_to(sp_inner); // journal is shorter than the mark now
                }

                #[test]
                fn reset_reuses_table_for_new_ii() {
                    let mut t = mrt(3);
                    t.fu_reserve(0, FuKind::Int, 1);
                    t.begin();
                    t.fu_reserve(0, FuKind::Int, 2);
                    let m = MachineConfig::word_interleaved_4();
                    t.reset(5, &m);
                    assert_eq!(t.ii(), 5);
                    assert!(!t.in_transaction());
                    let fresh = <$table>::new(5, &m);
                    assert!(t.state_eq(&fresh), "reset == fresh table");
                }

                #[test]
                fn free_cycle_walk_skips_occupied_slots() {
                    let mut t = mrt(6);
                    t.fu_reserve(0, FuKind::Int, 0);
                    t.fu_reserve(0, FuKind::Int, 1);
                    t.fu_reserve(0, FuKind::Int, 3);
                    // ascending from 0: first free is 2, then 4
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 0, 5, false), Some(2));
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 3, 5, false), Some(4));
                    // descending from 3: first free at or below is 2
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 3, 0, true), Some(2));
                    // limits are inclusive and respected
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 0, 1, false), None);
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 3, 3, true), None);
                    // other kinds unaffected
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Mem, 0, 5, false), Some(0));
                }

                #[test]
                fn free_cycle_walk_wraps_modulo_slots() {
                    let mut t = mrt(4);
                    t.fu_reserve(0, FuKind::Int, 0); // slot 0
                    t.fu_reserve(0, FuKind::Int, 3); // slot 3
                                                     // window [3, 6]: slots 3,0,1,2 — first free cycle is 5 (slot 1)
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 3, 6, false), Some(5));
                    // descending window [−2, 1] from 1: slot 1 free
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 1, -2, true), Some(1));
                    // descending from 0 (slot 0 busy): wraps back to cycle −1 = slot 3
                    // (busy) then −2 = slot 2 (free)
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 0, -3, true), Some(-2));
                    // a fully-occupied row yields nothing over any window
                    t.fu_reserve(0, FuKind::Int, 1);
                    t.fu_reserve(0, FuKind::Int, 2);
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 0, 3, false), None);
                    assert_eq!(t.next_free_fu_cycle(0, FuKind::Int, 7, 4, true), None);
                }

                #[test]
                fn multi_word_rows_cover_large_iis() {
                    // II 130 spans three 64-bit words; exercise probes,
                    // walks and wrap behavior across word boundaries
                    let mut t = mrt(130);
                    for c in 0..64 {
                        t.fu_reserve(1, FuKind::Mem, c);
                    }
                    assert!(!t.fu_free(1, FuKind::Mem, 63));
                    assert!(t.fu_free(1, FuKind::Mem, 64));
                    assert_eq!(
                        t.next_free_fu_cycle(1, FuKind::Mem, 0, 129, false),
                        Some(64)
                    );
                    assert_eq!(t.next_free_fu_cycle(1, FuKind::Mem, 63, 0, true), None);
                    t.fu_reserve(1, FuKind::Mem, 129); // last slot (word 3, bit 1)
                    assert_eq!(
                        t.next_free_fu_cycle(1, FuKind::Mem, 129, 64, true),
                        Some(128)
                    );
                    // a bus transfer crossing the 64-bit word boundary
                    t.begin();
                    t.bus_reserve(2, 63); // slots 63 (word 0) and 64 (word 1)
                    assert!(!t.bus_free(2, 63));
                    assert!(!t.bus_free(2, 64));
                    t.rollback();
                    assert!(t.bus_free(2, 63) && t.bus_free(2, 64));
                }
            }
        };
    }

    mrt_contract_tests!(masked, Mrt);
    mrt_contract_tests!(scalar, ScalarMrt);

    /// Beyond the shared contract: the two implementations must agree
    /// probe-for-probe on a randomized reservation trace, including the
    /// exact cycles their candidate walks yield.
    #[test]
    fn masked_and_scalar_tables_agree_on_random_traces() {
        let machine = MachineConfig::word_interleaved_4();
        // deliberately includes IIs near and across the word boundary
        for ii in [1u32, 2, 3, 7, 31, 63, 64, 65, 97, 130] {
            let mut a = Mrt::new(ii, &machine);
            let mut b = ScalarMrt::new(ii, &machine);
            // a simple deterministic LCG so the trace is reproducible
            let mut state = 0x2545_f491_4f6c_dd1du64 ^ u64::from(ii);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            a.begin();
            b.begin();
            // each savepoint carries a whole-table snapshot of the masked
            // table: unwinding to the mark must restore exactly that state
            let mut sps: Vec<(MrtSavepoint, MrtSavepoint, Mrt)> = Vec::new();
            for _ in 0..400 {
                let cycle = next() as i64 % (2 * ii as i64 + 3) - ii as i64;
                match next() % 6 {
                    0 => {
                        let cluster = (next() % 4) as usize;
                        let kind = [FuKind::Int, FuKind::Fp, FuKind::Mem][(next() % 3) as usize];
                        assert_eq!(
                            a.fu_free(cluster, kind, cycle),
                            b.fu_free(cluster, kind, cycle)
                        );
                        if a.fu_free(cluster, kind, cycle) {
                            a.fu_reserve(cluster, kind, cycle);
                            b.fu_reserve(cluster, kind, cycle);
                        }
                    }
                    1 => {
                        assert_eq!(a.bus_find(cycle), b.bus_find(cycle));
                        if let Some(bus) = a.bus_find(cycle) {
                            a.bus_reserve(bus, cycle);
                            b.bus_reserve(bus, cycle);
                        }
                    }
                    2 => {
                        let cluster = (next() % 4) as usize;
                        let kind = [FuKind::Int, FuKind::Fp, FuKind::Mem][(next() % 3) as usize];
                        let span = (next() % (ii as u64 + 1)) as i64;
                        let descending = next() % 2 == 0;
                        let limit = if descending {
                            cycle - span
                        } else {
                            cycle + span
                        };
                        assert_eq!(
                            a.next_free_fu_cycle(cluster, kind, cycle, limit, descending),
                            b.next_free_fu_cycle(cluster, kind, cycle, limit, descending),
                            "walk diverged at ii={ii}"
                        );
                    }
                    3 => {
                        sps.push((a.savepoint(), b.savepoint(), a.clone()));
                    }
                    4 => {
                        if let Some((sa, sb, snapshot)) = sps.pop() {
                            a.rollback_to(sa);
                            b.rollback_to(sb);
                            assert!(
                                a.state_eq(&snapshot),
                                "rollback_to diverged from the savepoint snapshot at ii={ii}"
                            );
                        }
                    }
                    _ => {
                        let bus = (next() % 4) as usize;
                        assert_eq!(a.bus_free(bus, cycle), b.bus_free(bus, cycle));
                    }
                }
            }
            a.rollback();
            b.rollback();
            let fresh_a = Mrt::new(ii, &machine);
            let fresh_b = ScalarMrt::new(ii, &machine);
            assert!(a.state_eq(&fresh_a), "masked rollback left residue");
            assert!(b.state_eq(&fresh_b), "scalar rollback left residue");
        }
    }

    #[test]
    fn occupancy_words_expose_packed_state() {
        let machine = MachineConfig::word_interleaved_4();
        let mut t = Mrt::new(4, &machine);
        let (fu0, bus0) = {
            let (f, b) = t.occupancy_words();
            (f.to_vec(), b.to_vec())
        };
        assert!(fu0.iter().all(|&w| w == 0) && bus0.iter().all(|&w| w == 0));
        t.fu_reserve(0, FuKind::Int, 2);
        t.bus_reserve(1, 3); // slots 3 and 0
        let (fu, bus) = t.occupancy_words();
        assert_eq!(fu[0], 1 << 2); // row (cluster 0, Int) is row 0
        assert_eq!(bus[1], (1 << 3) | 1);
    }
}
