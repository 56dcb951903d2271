#!/usr/bin/env python3
"""Guard the scheduler- and schedule-cache-throughput trajectory.

Compares the `sched` section of a freshly generated BENCH_repro.json
against the committed baseline (ci/sched_baseline.json) and fails when:

* `trial_cycles` — a deterministic work counter, immune to machine
  speed — grew by more than the threshold (an algorithmic regression:
  the scheduler does more work for the same schedules), or
* `schedules_per_sec` regressed by more than the threshold. This is
  wall-clock, so it inherits the variance of whatever runner executes
  it; treat a failure here as a prompt to re-measure (and, if the
  slowdown is real, to either fix it or update the baseline with a
  justification in the PR).

Also guards the `batch` section (the schedule-cache service):

* `warm_over_cold` — warm-pass over cold-pass throughput, a ratio of
  two wall-clock rates on the same machine, so machine speed cancels —
  must stay at or above the hard floor (5x): a warm cache that is not
  at least 5x a cold run means cache hits are doing scheduling work;
* `warm_schedules_per_sec` must not regress more than the threshold
  against the baseline (wall-clock; same caveat as above);
* `deterministic` and `warm_hit_rate` must be exactly 1.

And the `optgap` section (the exact-search yardstick):

* hard floors on the proven-optimal fraction of the pinned policies
  under the swing numerator: IPBC must exceed 0.41 and no-chains must
  exceed 0.44 at quick scale. These are deterministic search-depth
  numbers (node budget fixed at 200k), not wall-clock: falling back to
  the old fractions means the dominance memoization stopped paying;
* the BASE and IBC proven fractions must not drop below the baseline —
  the pinned-policy gains must not come out of the free policies.

And the `trace` section (the vliw-trace observability subsystem): the
fresh record must carry it, with a nonzero event count and nonzero span
counts for the scheduler and simulator stages. Its presence is what
makes the schedules_per_sec guard meaningful under the
zero-overhead-when-off contract: the `sched` figure is produced by the
same binary that records the trace — tracing compiled in throughout,
enabled only for the trace pass, disabled (`Trace::off()`) for every
timed pass. A missing trace section means the guard measured a binary
without the probes, which is not the configuration that ships.

Finally, every section present in both records must still emit every
metric the baseline names: a baseline key the fresh record lacks is a
dead comparison (a retired metric), and must be deleted from the
baseline in the change that retires it.

Usage: check_sched_regression.py BASELINE.json FRESH.json [threshold]
"""

import json
import sys


def figures(path):
    with open(path) as f:
        return json.load(f).get("figures", {})


def figure_metrics(path, figure):
    try:
        return figures(path)[figure]["metrics"]
    except KeyError:
        return None


WARM_OVER_COLD_FLOOR = 5.0

# Deterministic floors on the quick-scale proven-optimal fraction of the
# pinned policies (swing numerator, 200k-node budget). The pre-bitmask
# scalar MRT plateaued at 0.40625 / 0.4375; the word-parallel search with
# dominance memoization must stay strictly above that plateau.
PROVEN_FRACTION_FLOORS = {
    "proven_fraction/IPBC/swing": 0.41,
    "proven_fraction/no-chains/swing": 0.44,
}
# The free policies must not pay for the pinned-policy gains.
PROVEN_FRACTION_NO_REGRESS = (
    "proven_fraction/BASE/swing",
    "proven_fraction/IBC/swing",
)


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.20
    failed = False

    baseline = figure_metrics(sys.argv[1], "sched")
    fresh = figure_metrics(sys.argv[2], "sched")
    if baseline is None:
        print("baseline has no sched section; nothing to compare, skipping")
        return 0
    if fresh is None:
        print("FAIL: fresh record has no sched section")
        return 1

    b_work, f_work = baseline.get("trial_cycles"), fresh.get("trial_cycles")
    if b_work and f_work:
        ratio = f_work / b_work
        print(
            f"trial cycles (deterministic): baseline {b_work:.0f} -> "
            f"current {f_work:.0f} ({ratio:.2f}x)"
        )
        if ratio > 1 + threshold:
            print(f"FAIL: scheduling work grew more than {threshold:.0%}")
            failed = True

    b_rate, f_rate = baseline.get("schedules_per_sec"), fresh.get("schedules_per_sec")
    if b_rate and f_rate:
        ratio = f_rate / b_rate
        print(
            f"schedules/sec (wall-clock): baseline {b_rate:.1f} -> "
            f"current {f_rate:.1f} ({ratio:.2f}x, threshold {1 - threshold:.2f}x)"
        )
        if ratio < 1 - threshold:
            print(f"FAIL: scheduling throughput regressed more than {threshold:.0%}")
            failed = True

    failed |= check_batch(
        figure_metrics(sys.argv[1], "batch"),
        figure_metrics(sys.argv[2], "batch"),
        threshold,
    )
    failed |= check_optgap(
        figure_metrics(sys.argv[1], "optgap"),
        figure_metrics(sys.argv[2], "optgap"),
    )
    failed |= check_trace(figure_metrics(sys.argv[2], "trace"))
    failed |= check_stale_keys(figures(sys.argv[1]), figures(sys.argv[2]))

    if failed:
        return 1
    print("OK")
    return 0


def check_batch(baseline, fresh, threshold):
    if fresh is None:
        if baseline is not None:
            print("FAIL: baseline has a batch section but the fresh record does not")
            return True
        print("no batch section; skipping cache guard")
        return False
    failed = False

    for key in ("deterministic", "warm_hit_rate", "store_roundtrip_ok"):
        if fresh.get(key) != 1:
            print(f"FAIL: batch {key} is {fresh.get(key)!r}, expected 1")
            failed = True

    ratio = fresh.get("warm_over_cold")
    if ratio is not None:
        print(
            f"warm/cold throughput (machine-speed-free): {ratio:.1f}x "
            f"(floor {WARM_OVER_COLD_FLOOR:.0f}x)"
        )
        if ratio < WARM_OVER_COLD_FLOOR:
            print("FAIL: warm cache passes must be at least 5x cold throughput")
            failed = True

    if baseline is not None:
        b_rate, f_rate = baseline.get("warm_schedules_per_sec"), fresh.get(
            "warm_schedules_per_sec"
        )
        if b_rate and f_rate:
            r = f_rate / b_rate
            print(
                f"warm schedules/sec (wall-clock): baseline {b_rate:.1f} -> "
                f"current {f_rate:.1f} ({r:.2f}x, threshold {1 - threshold:.2f}x)"
            )
            if r < 1 - threshold:
                print(f"FAIL: warm cache throughput regressed more than {threshold:.0%}")
                failed = True
    return failed


def check_optgap(baseline, fresh):
    if fresh is None:
        if baseline is not None:
            print("FAIL: baseline has an optgap section but the fresh record does not")
            return True
        print("no optgap section; skipping exact-search guard")
        return False
    failed = False

    for key, floor in PROVEN_FRACTION_FLOORS.items():
        got = fresh.get(key)
        if got is None:
            print(f"FAIL: optgap record is missing {key}")
            failed = True
            continue
        print(f"{key}: {got:.4f} (hard floor > {floor})")
        if got <= floor:
            print(f"FAIL: {key} fell to the pre-memoization plateau")
            failed = True

    if baseline is not None:
        for key in PROVEN_FRACTION_NO_REGRESS:
            b, f = baseline.get(key), fresh.get(key)
            if b is None or f is None:
                continue
            print(f"{key}: baseline {b:.4f} -> current {f:.4f} (must not drop)")
            if f < b - 1e-9:
                print(f"FAIL: {key} regressed below the baseline")
                failed = True
    return failed


def check_trace(fresh):
    """The throughput guard must measure the shipping configuration:
    tracing compiled in, disabled on every timed path. The trace section
    of the same record proves the probes are present in the binary."""
    if fresh is None:
        print(
            "FAIL: fresh record has no trace section — the schedules_per_sec "
            "guard must run against the tracing-compiled binary "
            "(regenerate with `repro quick all`)"
        )
        return True
    failed = False

    events = fresh.get("events_total", 0)
    print(f"trace events recorded by the instrumented pass: {events:.0f}")
    if events <= 0:
        print("FAIL: the trace pass recorded no events")
        failed = True

    for key in ("span_count/backend.swing", "span_count/sim.loop"):
        if fresh.get(key, 0) <= 0:
            print(f"FAIL: trace section has no {key} spans")
            failed = True

    if not failed:
        print(
            "sched guard measured with tracing compiled in and disabled "
            "(zero-overhead-when-off configuration)"
        )
    return failed


def check_stale_keys(baseline, fresh):
    """Every metric the baseline names in a section the fresh record also
    carries must still be emitted; otherwise the baseline holds a dead
    comparison that no guard reads."""
    failed = False
    for section in sorted(set(baseline) & set(fresh)):
        b = baseline[section].get("metrics", {})
        f = fresh[section].get("metrics", {})
        for key in sorted(set(b) - set(f)):
            print(
                f"FAIL: baseline {section} names `{key}`, which the fresh record "
                "lacks — delete the retired key from the baseline"
            )
            failed = True
    if not failed:
        print("baseline names no metric the fresh record lacks")
    return failed


if __name__ == "__main__":
    sys.exit(main())
