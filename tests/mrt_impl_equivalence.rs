//! The word-parallel MRT contract: schedules produced over the bitmask
//! reservation table are bit-identical — schedule *and* work counters —
//! to those of the scalar-probe reference table, across every
//! cluster-assignment policy, every paper machine configuration, and
//! seeded random kernels. The reference's output is the committed golden
//! digest table (see `golden/mod.rs`), recorded while both tables still
//! drove the engine and agreed. If the free-mask walk ever surfaced a
//! different candidate cycle than probing every slot in order, or a
//! word-level journal undo ever restored the wrong bits, some placement
//! would diverge and these comparisons would catch it. The tables
//! themselves are compared op by op in `mrt.rs`'s randomized trace test.

mod golden;

#[test]
fn masked_schedules_are_bit_identical_to_scalar_reference_on_the_suite() {
    let fresh = golden::suite_lines();
    assert_eq!(
        fresh.len(),
        640,
        "16 loops × 2 factors × 5 machines × 4 policies"
    );
    assert!(
        fresh.iter().all(|l| !l.contains(" err ")),
        "every suite case is schedulable"
    );
    golden::assert_matches_golden("suite/", &fresh);
}

#[test]
fn masked_matches_scalar_reference_on_seeded_random_kernels() {
    let fresh = golden::random_lines();
    assert_eq!(fresh.len(), 120, "30 random kernels × 4 policies");
    golden::assert_matches_golden("random/", &fresh);
}

#[test]
fn wrapped_bus_transfers_agree_under_rollback_churn() {
    let fresh = golden::dense_lines();
    assert_eq!(fresh.len(), 20, "5 machines × 4 policies");
    golden::assert_matches_golden("dense/", &fresh);
}
