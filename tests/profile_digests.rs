//! The profiling contract: every memory operation's address stream and
//! the profile the functional-cache replay derives from it are
//! bit-identical to the committed golden digests (see `golden/mod.rs`),
//! over the gsmdec and epicdec loops at every candidate unroll factor,
//! with and without padding, on both data inputs. Profiles steer latency
//! and cluster assignment, and the schedule-cache key fingerprints
//! kernels without them, so a drift here would change schedules without
//! any fingerprint noticing.

mod golden;

#[test]
fn address_streams_and_profiles_match_golden_digests() {
    let fresh = golden::profile_lines();
    assert_eq!(
        fresh.len(),
        164,
        "16 loops × 2 paddings × factors 1, ×N and OUF × 2 inputs"
    );
    golden::assert_lines_match("profile", &golden::golden_profile_lines(), &fresh);
}
