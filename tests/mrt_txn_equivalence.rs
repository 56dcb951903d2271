//! The journaled-MRT contract: schedules produced through the transaction
//! journal are bit-identical to those of the clone-per-probe reference
//! path, whose output the committed golden digest table records (see
//! `golden/mod.rs`), under every cluster-assignment policy on the
//! 4-cluster word-interleaved machine. If a rollback ever failed to
//! restore the exact reservation state, some later placement would see
//! a phantom (or missing) reservation and the schedules would diverge.
//! The other paper machines are covered by the word-parallel MRT
//! equivalence test; that an unwind equals a cloned snapshot is checked
//! table by table in `mrt.rs`'s randomized trace test.

use std::sync::OnceLock;

use interleaved_vliw::experiments::ExperimentContext;
use interleaved_vliw::machine::MachineConfig;

mod golden;

const PREFIX: &str = "suite/word4/";

/// The word4 suite slice, scheduled once and shared by both tests.
fn fresh() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let ctx = ExperimentContext::quick();
        golden::suite_machine_lines("word4", &MachineConfig::word_interleaved_4(), &ctx)
    })
}

/// Table columns: the label and the schedule digest.
const SCHEDULE: &[usize] = &[0, 1];
/// Table columns: the label and the six work counters.
const WORK: &[usize] = &[0, 2, 3, 4, 5, 6, 7];

/// The golden and fresh word4 tables reduced to the columns `cols`.
fn tables(cols: &[usize]) -> (Vec<String>, Vec<String>) {
    let project = |line: &str| {
        let f: Vec<&str> = line.split(' ').collect();
        cols.iter().map(|&c| f[c]).collect::<Vec<_>>().join(" ")
    };
    let golden = golden::golden_lines(PREFIX)
        .into_iter()
        .map(project)
        .collect();
    let fresh = fresh().iter().map(|l| project(l)).collect();
    (golden, fresh)
}

#[test]
fn journaled_schedules_are_bit_identical_to_clone_based() {
    assert_eq!(fresh().len(), 128, "16 loops × 2 factors × 4 policies");
    assert!(
        fresh().iter().all(|l| !l.contains(" err ")),
        "every suite case is schedulable"
    );
    let (golden, fresh) = tables(SCHEDULE);
    golden::assert_lines_match("schedule digest", &golden, &fresh);
}

#[test]
fn both_trial_modes_do_identical_placement_work() {
    // same decisions ⇒ same work counters (rollbacks included): the
    // journal only changes how a failed probe is discarded
    let (golden, counters) = tables(WORK);
    golden::assert_lines_match("work counter", &golden, &counters);
    for line in &counters {
        let f: Vec<u64> = line
            .split(' ')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect();
        // trial_cycles, then placements (fourth counter)
        assert!(f[0] > 0 && f[3] > 0, "no placement work recorded: {line}");
    }
}
