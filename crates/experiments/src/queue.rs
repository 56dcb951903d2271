//! The one job queue every experiment driver runs on: grid cells
//! ([`crate::grid`]), the batch and fault drains ([`crate::batch`],
//! [`crate::faults`]) and the instrumented trace pass.
//!
//! Jobs are the indices `0..n`. The caller passes a dispatch order (a
//! permutation of them — each driver sorts its own jobs most expensive
//! first) and workers claim positions of it through one atomic cursor.
//! Every result lands in its job's slot, so results come back in
//! job-index order whatever order the jobs ran in: with deterministic
//! jobs, the output does not depend on the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use vliw_trace::Trace;

/// Runs `job(i, trace)` once for every job index `i` of `order`, on
/// `workers` threads, and returns the results in job-index order.
///
/// Worker `w` records on track `w + 1` of `trace` (track 0 stays the main
/// pipeline). Before each claim it emits a `batch.queue_depth` counter
/// holding the number of jobs not yet claimed, so a single worker emits
/// `n, n − 1, …, 0`. A single worker runs on the calling thread, in
/// `order`.
///
/// # Panics
///
/// Panics if `order` is not a permutation of `0..order.len()`, and
/// propagates a panic of `job`.
pub(crate) fn run_queue<'t, T: Send + Sync>(
    order: &[usize],
    workers: usize,
    trace: Trace<'t>,
    job: impl Fn(usize, Trace<'t>) -> T + Sync,
) -> Vec<T> {
    let n = order.len();
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    // `Relaxed` suffices: the cursor only hands out distinct positions and
    // publishes no data; each result is published by its `OnceLock` and
    // the scope's join.
    let next = AtomicUsize::new(0);
    let work = |w: usize| {
        let trace = trace.with_track(w as u32 + 1);
        loop {
            let q = next.fetch_add(1, Ordering::Relaxed);
            trace.counter("batch.queue_depth", n.saturating_sub(q) as f64);
            let Some(&i) = order.get(q) else { break };
            assert!(
                slots[i].set(job(i, trace)).is_ok(),
                "job {i} dispatched twice"
            );
        }
    };
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        work(0);
    } else {
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || work(w));
            }
        });
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .unwrap_or_else(|| panic!("job {i} never dispatched"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use vliw_trace::{Phase, RecordingSink};

    use super::*;

    /// A fixed scramble of `0..n` (a permutation for every `n`).
    fn scrambled(n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (i * 7919) % 101);
        order
    }

    #[test]
    fn every_job_runs_exactly_once() {
        for workers in [1, 2, 8] {
            for n in [0, 1, 37] {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = run_queue(&scrambled(n), workers, Trace::off(), |i, _| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i
                });
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "workers {workers}, n {n}");
                for (i, r) in runs.iter().enumerate() {
                    assert_eq!(r.load(Ordering::Relaxed), 1, "job {i}, workers {workers}");
                }
            }
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        let n = 37;
        let reversed: Vec<usize> = (0..n).rev().collect();
        for order in [reversed, scrambled(n)] {
            for workers in [1, 2, 8] {
                let out = run_queue(&order, workers, Trace::off(), |i, _| i * i + 3);
                let want: Vec<usize> = (0..n).map(|i| i * i + 3).collect();
                assert_eq!(out, want, "workers {workers}");
            }
        }
    }

    #[test]
    fn one_worker_runs_in_dispatch_order_and_samples_depth() {
        let n = 37;
        let order = scrambled(n);
        let sink = RecordingSink::logical();
        let ran = Mutex::new(Vec::new());
        run_queue(&order, 1, Trace::new(&sink), |i, _| {
            ran.lock().expect("ran lock").push(i);
        });
        assert_eq!(*ran.lock().expect("ran lock"), order);
        let depths: Vec<f64> = sink
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Counter && e.name == "batch.queue_depth")
            .inspect(|e| assert_eq!(e.track, 1))
            .map(|e| e.args[0].1)
            .collect();
        let want: Vec<f64> = (0..=n).rev().map(|d| d as f64).collect();
        assert_eq!(depths, want);
    }
}
