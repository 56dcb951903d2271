//! The repository's benchmark: the scheduling service (`serve`), the
//! exact pipeliner (`exact`) and the simulator (`simulate`), driven
//! through the public entry points of the workspace crates with seeded,
//! generated inputs. See `README.md` for the metrics and the procedure.

pub mod exact;
pub mod input;
pub mod metrics;
pub mod serve;
pub mod simulate;
pub mod spans;
pub mod stats;

use std::hash::Hasher as _;
use vliw_experiments::{ExperimentContext, PreparedLoop, RunConfig};
use vliw_ir::{kernel_fingerprint, StableHasher};
use vliw_sched::ScheduleOptions;

/// Operations attempted and failed, with the first few failures named.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, solves, simulations, checks).
    pub attempted: u64,
    /// Operations that failed or failed a correctness check.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

/// The `q` tail quantile of `values`, counting a failure when fewer
/// than ten samples lie beyond it.
pub fn tail(values: &[f64], q: f64, what: &str, tally: &mut Tally) -> f64 {
    tally.op(stats::beyond(values.len(), q) >= 10, || {
        format!("{what}: {} samples are too few for its tail", values.len())
    });
    stats::quantile(values, q)
}

/// Identity of a served schedule: its compact text and the fingerprint
/// of the kernel it schedules.
pub fn digest(p: &PreparedLoop) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(&p.schedule.to_compact_text());
    h.write_u64(kernel_fingerprint(&p.kernel));
    h.finish()
}

/// The scheduler options the experiment pipeline resolves `cfg` to.
pub fn schedule_options(cfg: &RunConfig, ctx: &ExperimentContext) -> ScheduleOptions {
    ScheduleOptions {
        enum_limits: ctx.enum_limits,
        backend: cfg.backend,
        delay_percentile: ctx.delay_percentile,
        cost_ceiling: ctx.cost_ceiling,
        fallback: ctx.fallback,
        ..ScheduleOptions::new(cfg.policy)
    }
}
