//! Scheduler output: placed operations, inter-cluster copies, legality.

use std::collections::HashMap;
use std::fmt;

use vliw_ir::{DepKind, LoopKernel, OpId};
use vliw_machine::MachineConfig;

use crate::latency::LatencyAssignment;

/// Placement of one operation in the modulo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Cluster the operation executes in.
    pub cluster: usize,
    /// Schedule cycle (0-based; the kernel repeats every
    /// [`Schedule::ii`] cycles, so the stage is `cycle / ii`).
    pub cycle: u32,
    /// The latency the scheduler assumed for this operation. For loads this
    /// is the assigned class latency (possibly de-slacked); the simulator
    /// stalls when the actual latency exceeds it.
    pub assumed_latency: u32,
}

/// An inter-cluster register copy inserted by the scheduler.
///
/// The copy broadcasts `producer`'s result from its cluster to `to`,
/// occupying register bus `bus` for the machine's transfer time starting at
/// `cycle` (same modulo-schedule space as operations; the copy belongs to
/// the *producer's* iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledCopy {
    /// The operation whose result is copied.
    pub producer: OpId,
    /// Source cluster (the producer's cluster).
    pub from: usize,
    /// Destination cluster.
    pub to: usize,
    /// Cycle the bus transfer starts.
    pub cycle: u32,
    /// Register bus used.
    pub bus: usize,
}

/// A complete modulo schedule for one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Initiation interval.
    pub ii: u32,
    /// Per-operation placements, indexed by [`OpId`].
    pub ops: Vec<ScheduledOp>,
    /// Inter-cluster copies.
    pub copies: Vec<ScheduledCopy>,
    /// The lower bound `max(ResMII, RecMII)` the scheduler started from.
    pub mii: u32,
    /// Resource-constrained component of the MII.
    pub res_mii: u32,
    /// Recurrence-constrained component of the MII (at local-hit latency).
    pub rec_mii: u32,
    /// The latency assignment used.
    pub latencies: LatencyAssignment,
}

impl Schedule {
    /// The placement of `op`.
    pub fn op(&self, op: OpId) -> ScheduledOp {
        self.ops[op.index()]
    }

    /// Number of overlapped iterations (stage count).
    pub fn stage_count(&self) -> u32 {
        let max = self.ops.iter().map(|s| s.cycle).max().unwrap_or(0);
        max / self.ii + 1
    }

    /// Number of register-to-register communication operations added.
    pub fn n_comms(&self) -> usize {
        self.copies.len()
    }

    /// The paper's workload-balance metric for this schedule:
    /// `WB = insts in most-loaded cluster / total insts` (copies excluded,
    /// matching the paper's instruction counts), ranging from
    /// `1/n_clusters` (perfect) to 1.0 (all in one cluster).
    pub fn workload_balance(&self, n_clusters: usize) -> f64 {
        if self.ops.is_empty() {
            return 1.0 / n_clusters as f64;
        }
        let mut counts = vec![0usize; n_clusters];
        for s in &self.ops {
            counts[s.cluster] += 1;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        max as f64 / self.ops.len() as f64
    }

    /// The copy feeding `consumer_cluster` with `producer`'s value, if any.
    pub fn copy_for(&self, producer: OpId, consumer_cluster: usize) -> Option<&ScheduledCopy> {
        self.copies
            .iter()
            .find(|c| c.producer == producer && c.to == consumer_cluster)
    }

    /// Estimated execution time of `avg_trip` iterations:
    /// `(avg_trip + SC − 1) × II` — the paper's `Texec` formula used by
    /// selective unrolling.
    pub fn texec(&self, avg_trip: f64) -> f64 {
        (avg_trip + self.stage_count() as f64 - 1.0) * self.ii as f64
    }

    /// Checks the schedule against the kernel and machine, returning every
    /// violated constraint. An empty vector means the schedule is legal:
    ///
    /// * every dependence satisfied (`t(to) ≥ t(from) + lat − II·dist`,
    ///   with copy latency added for cross-cluster register flows);
    /// * no functional unit oversubscribed in any modulo slot;
    /// * no register bus oversubscribed;
    /// * copies start no earlier than their producer's completion.
    pub fn verify(&self, kernel: &LoopKernel, machine: &MachineConfig) -> Vec<String> {
        let mut errs = Vec::new();
        let ii = self.ii as i64;
        let n = machine.clusters.n_clusters;

        // dependence constraints
        for e in &kernel.edges {
            let from = self.op(e.from);
            let to = self.op(e.to);
            let base_lat = self.latencies.edge_latency(e, kernel) as i64;
            let mut lat = base_lat;
            if e.kind == DepKind::RegFlow && from.cluster != to.cluster {
                // value travels through a copy
                match self.copy_for(e.from, to.cluster) {
                    Some(c) => {
                        let copy_ready = c.cycle as i64 + machine.buses.transfer_cycles as i64;
                        if (c.cycle as i64) < from.cycle as i64 + base_lat {
                            errs.push(format!(
                                "copy of {} to cluster {} starts before producer completes",
                                e.from, to.cluster
                            ));
                        }
                        if to.cycle as i64 + ii * (e.distance as i64) < copy_ready {
                            errs.push(format!(
                                "consumer {} reads copy of {} before it arrives",
                                e.to, e.from
                            ));
                        }
                        continue;
                    }
                    None => {
                        errs.push(format!(
                            "cross-cluster flow {} -> {} has no copy",
                            e.from, e.to
                        ));
                        lat = base_lat; // still check the raw constraint below
                    }
                }
            }
            if to.cycle as i64 + ii * (e.distance as i64) < from.cycle as i64 + lat {
                errs.push(format!(
                    "dependence violated: {} (cycle {}) -> {} (cycle {}) lat {lat} dist {}",
                    e.from, from.cycle, e.to, to.cycle, e.distance
                ));
            }
        }

        // FU slots
        let mut fu_use: HashMap<(usize, vliw_ir::FuKind, u32), usize> = HashMap::new();
        for (i, s) in self.ops.iter().enumerate() {
            let kind = kernel.ops[i].fu_kind();
            if s.cluster >= n {
                errs.push(format!(
                    "op n{i} scheduled in nonexistent cluster {}",
                    s.cluster
                ));
                continue;
            }
            *fu_use
                .entry((s.cluster, kind, s.cycle % self.ii))
                .or_default() += 1;
        }
        for ((cluster, kind, slot), used) in fu_use {
            let cap = machine.clusters.fu_count(kind);
            if used > cap {
                errs.push(format!(
                    "{used} {kind} ops in cluster {cluster} slot {slot} (capacity {cap})"
                ));
            }
        }

        // register buses: each copy occupies `transfer_cycles` consecutive
        // modulo slots on its bus
        let mut bus_use: HashMap<(usize, u32), usize> = HashMap::new();
        for c in &self.copies {
            if c.bus >= machine.buses.reg_buses {
                errs.push(format!(
                    "copy of {} uses nonexistent bus {}",
                    c.producer, c.bus
                ));
                continue;
            }
            for k in 0..machine.buses.transfer_cycles {
                *bus_use.entry((c.bus, (c.cycle + k) % self.ii)).or_default() += 1;
            }
        }
        for ((bus, slot), used) in bus_use {
            if used > 1 {
                errs.push(format!(
                    "register bus {bus} oversubscribed in slot {slot} ({used} transfers)"
                ));
            }
        }

        errs
    }

    /// Serializes the schedule into the repo's integers-only text
    /// discipline (same rules as the profile store: whitespace-separated
    /// integers under named tokens, no floats, no Debug formatting), for
    /// persistence in the schedule cache.
    ///
    /// The latency-assignment reduction log (`latencies.steps`) is not
    /// serialized — see [`LatencyAssignment::from_raw`]. Two schedules are
    /// behaviourally identical iff their compact texts are byte-identical,
    /// which is the equality the cache's determinism contracts check.
    pub fn to_compact_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "sched ii {} mii {} res {} rec {} tmii {} nops {} ncopies {}",
            self.ii,
            self.mii,
            self.res_mii,
            self.rec_mii,
            self.latencies.target_mii,
            self.ops.len(),
            self.copies.len()
        );
        s.push_str("ops");
        for op in &self.ops {
            let _ = write!(s, " {} {} {}", op.cluster, op.cycle, op.assumed_latency);
        }
        s.push('\n');
        s.push_str("lats");
        for l in self.latencies.raw() {
            let _ = write!(s, " {l}");
        }
        s.push('\n');
        s.push_str("copies");
        for c in &self.copies {
            let _ = write!(
                s,
                " {} {} {} {} {}",
                c.producer.index(),
                c.from,
                c.to,
                c.cycle,
                c.bus
            );
        }
        s.push('\n');
        s
    }

    /// Parses a schedule serialized by [`Schedule::to_compact_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token or framing
    /// violation; never panics on corrupt input.
    pub fn from_compact_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty schedule text")?;
        let h: Vec<&str> = header.split_whitespace().collect();
        let expect = |idx: usize, tok: &str| -> Result<(), String> {
            if h.get(idx) != Some(&tok) {
                return Err(format!("schedule header: expected `{tok}` at {idx}"));
            }
            Ok(())
        };
        expect(0, "sched")?;
        expect(1, "ii")?;
        expect(3, "mii")?;
        expect(5, "res")?;
        expect(7, "rec")?;
        expect(9, "tmii")?;
        expect(11, "nops")?;
        expect(13, "ncopies")?;
        let int = |idx: usize| -> Result<u64, String> {
            h.get(idx)
                .ok_or_else(|| format!("schedule header: missing field {idx}"))?
                .parse::<u64>()
                .map_err(|e| format!("schedule header field {idx}: {e}"))
        };
        let int32 = |idx: usize| -> Result<u32, String> {
            u32::try_from(int(idx)?).map_err(|e| format!("schedule header field {idx}: {e}"))
        };
        let ii = int32(2)?;
        let mii = int32(4)?;
        let res_mii = int32(6)?;
        let rec_mii = int32(8)?;
        let target_mii = int32(10)?;
        let nops = usize::try_from(int(12)?).map_err(|e| format!("schedule header nops: {e}"))?;
        let ncopies =
            usize::try_from(int(14)?).map_err(|e| format!("schedule header ncopies: {e}"))?;
        if ii == 0 {
            return Err("schedule header: ii must be positive".into());
        }
        let count = |n: usize, per: usize, tag: &str| {
            n.checked_mul(per)
                .ok_or_else(|| format!("schedule header: {n} {tag} overflow"))
        };

        let mut ints_line = |tag: &str, count: usize| -> Result<Vec<u32>, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("missing `{tag}` line"))?;
            let mut it = line.split_whitespace();
            if it.next() != Some(tag) {
                return Err(format!("expected `{tag}` line"));
            }
            let vals: Result<Vec<u32>, _> = it.map(str::parse::<u32>).collect();
            let vals = vals.map_err(|e| format!("`{tag}` line: {e}"))?;
            if vals.len() != count {
                return Err(format!(
                    "`{tag}` line: expected {count} integers, found {}",
                    vals.len()
                ));
            }
            Ok(vals)
        };

        let op_ints = ints_line("ops", count(nops, 3, "ops")?)?;
        let lat = ints_line("lats", nops)?;
        let copy_ints = ints_line("copies", count(ncopies, 5, "copies")?)?;

        let ops = op_ints
            .chunks_exact(3)
            .map(|c| ScheduledOp {
                cluster: c[0] as usize,
                cycle: c[1],
                assumed_latency: c[2],
            })
            .collect();
        let copies = copy_ints
            .chunks_exact(5)
            .map(|c| ScheduledCopy {
                producer: OpId::new(c[0] as usize),
                from: c[1] as usize,
                to: c[2] as usize,
                cycle: c[3],
                bus: c[4] as usize,
            })
            .collect();

        Ok(Schedule {
            ii,
            ops,
            copies,
            mii,
            res_mii,
            rec_mii,
            latencies: LatencyAssignment::from_raw(lat, target_mii),
        })
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "II={} SC={} (MII={} = max(res {}, rec {})), {} copies",
            self.ii,
            self.stage_count(),
            self.mii,
            self.res_mii,
            self.rec_mii,
            self.copies.len()
        )?;
        for (i, s) in self.ops.iter().enumerate() {
            writeln!(
                f,
                "  n{i}: cluster {} cycle {} (slot {}) lat {}",
                s.cluster,
                s.cycle,
                s.cycle % self.ii,
                s.assumed_latency
            )?;
        }
        for c in &self.copies {
            writeln!(
                f,
                "  copy {}: {} -> {} at cycle {} bus {}",
                c.producer, c.from, c.to, c.cycle, c.bus
            )?;
        }
        Ok(())
    }
}

/// Errors produced by the scheduling entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No feasible schedule found up to the II search limit.
    NoSchedule {
        /// The loop that failed.
        loop_name: String,
        /// The largest II tried.
        max_ii: u32,
    },
    /// The kernel was empty.
    EmptyKernel,
    /// An exact backend exhausted its node budget before finding any
    /// schedule — a counted cutoff, distinct from a proof of
    /// infeasibility ([`ScheduleError::NoSchedule`]).
    SearchCutoff {
        /// The loop that cut off.
        loop_name: String,
        /// The node budget that ran out.
        node_budget: u64,
    },
    /// Preparation panicked and the panic was contained at the service
    /// boundary (`catch_unwind` in the schedule cache / batch driver):
    /// the request fails with this error instead of unwinding through —
    /// and poisoning — shared state. Counted, recoverable, retryable.
    PreparationPanicked {
        /// The loop whose preparation panicked.
        loop_name: String,
        /// The panic payload, downcast to text where possible.
        reason: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoSchedule { loop_name, max_ii } => {
                write!(
                    f,
                    "no feasible schedule for loop `{loop_name}` up to II {max_ii}"
                )
            }
            ScheduleError::EmptyKernel => write!(f, "cannot schedule an empty kernel"),
            ScheduleError::SearchCutoff {
                loop_name,
                node_budget,
            } => {
                write!(
                    f,
                    "exact search for loop `{loop_name}` cut off after {node_budget} nodes \
                     with no schedule found"
                )
            }
            ScheduleError::PreparationPanicked { loop_name, reason } => {
                write!(
                    f,
                    "preparation of loop `{loop_name}` panicked (contained): {reason}"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyAssignment;

    fn schedule() -> Schedule {
        Schedule {
            ii: 2,
            ops: vec![
                ScheduledOp {
                    cluster: 0,
                    cycle: 0,
                    assumed_latency: 2,
                },
                ScheduledOp {
                    cluster: 1,
                    cycle: 3,
                    assumed_latency: 1,
                },
            ],
            copies: vec![ScheduledCopy {
                producer: OpId::new(0),
                from: 0,
                to: 1,
                cycle: 2,
                bus: 1,
            }],
            mii: 2,
            res_mii: 1,
            rec_mii: 2,
            latencies: LatencyAssignment::from_raw(vec![2, 1], 2),
        }
    }

    #[test]
    fn compact_text_round_trips() {
        let s = schedule();
        let text = s.to_compact_text();
        let back = Schedule::from_compact_text(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(text, back.to_compact_text());
    }

    #[test]
    fn compact_text_rejects_corruption() {
        let s = schedule().to_compact_text();
        assert!(Schedule::from_compact_text("").is_err());
        assert!(Schedule::from_compact_text(&s.replace("ncopies 1", "ncopies 2")).is_err());
        assert!(Schedule::from_compact_text(&s.replace("sched ii", "sched xx")).is_err());
    }

    #[test]
    fn compact_text_rejects_out_of_range_fields() {
        let s = schedule().to_compact_text();
        // 2^32 + 1 must not wrap to II 1
        let wrapped = s.replace("sched ii 2", "sched ii 4294967297");
        assert!(Schedule::from_compact_text(&wrapped).is_err());
        let big_cycle = s.replace("ops 0 0 2 1 3 1", "ops 0 0 2 1 4294967299 1");
        assert!(Schedule::from_compact_text(&big_cycle).is_err());
        // nops × 3 overflows u64: an error, never a panic
        let overflow = s.replace("nops 2", "nops 6148914691236517206");
        assert!(Schedule::from_compact_text(&overflow).is_err());
    }
}
