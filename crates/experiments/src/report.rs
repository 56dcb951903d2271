//! Text-table and CSV rendering shared by the figure drivers.

use std::fmt::Write as _;

use crate::batch::BatchReport;
use crate::grid::GridResult;

/// A simple column-aligned text table with a title, built row by row —
/// the figures print in this form (one row per benchmark plus AMEAN).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (first cell is usually the benchmark name).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders as CSV (comma-separated, title as a comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a fraction with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a count/cycles value compactly.
pub fn fcycles(x: f64) -> String {
    if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.1}K", x / 1e3)
    } else {
        format!("{x:.0}")
    }
}

/// Renders the in-flight request tracking summary of a grid run: per
/// configuration, the scaled fill count, merged-waiter count, merge rate,
/// cycles lost to a full MSHR file and the peak per-cluster occupancy.
pub fn mshr_table(result: &GridResult) -> Table {
    let mut t = Table::new(
        "In-flight request tracking (MSHR) summary",
        &[
            "config",
            "fills",
            "merged",
            "merge rate",
            "full-stall",
            "peak occ",
        ],
    );
    let mix = result.mshr_by_config();
    for (c, (label, _)) in result.configs().iter().enumerate() {
        let [fills, merged, full_stall] = mix[c];
        let rate = if fills + merged > 0.0 {
            merged / (fills + merged)
        } else {
            0.0
        };
        t.row(vec![
            label.clone(),
            fcycles(fills),
            fcycles(merged),
            f3(rate),
            fcycles(full_stall),
            result.mshr_peak_by_config(c).to_string(),
        ]);
    }
    t
}

/// Renders the schedule-quality summary of a grid run: per configuration,
/// how many loop schedules are heuristic, proven optimal, limited by an
/// exact-search cutoff, or degraded to the heuristic by an exhausted
/// budget ladder. The cutoff and degraded columns are the report-level
/// surface of `SchedStats::cutoffs` / `SchedStats::fallback_retries` —
/// budget exhaustion is always visible, never a silent fallback to the
/// heuristic result.
pub fn backend_quality_table(result: &GridResult) -> Table {
    let mut t = Table::new(
        "Scheduler-backend quality summary",
        &[
            "config",
            "loops",
            "heuristic",
            "proven",
            "cutoff",
            "degraded",
        ],
    );
    let quality = result.quality_by_config();
    for (c, (label, _)) in result.configs().iter().enumerate() {
        let [heuristic, proven, cutoff, degraded] = quality[c];
        t.row(vec![
            label.clone(),
            (heuristic + proven + cutoff + degraded).to_string(),
            heuristic.to_string(),
            proven.to_string(),
            cutoff.to_string(),
            degraded.to_string(),
        ]);
    }
    t
}

/// Renders the schedule-cache health summary of a batch run: one row per
/// shard with the full counter set — including `inflight_waits` (threads
/// that blocked on another's in-flight fill of the same cell) — then one
/// `failed` row per slot still marked failed, carrying the contained
/// panic's reason in the `note` column. Clean runs have no `failed` rows.
pub fn shard_health_table(report: &BatchReport) -> Table {
    let headers = [
        "shard",
        "entries",
        "hits",
        "prepares",
        "inflight_waits",
        "map_contended",
        "panics",
        "recovered",
        "note",
    ];
    let mut t = Table::new("Schedule-cache shard health (cold parallel pass)", &headers);
    for (i, s) in report.cold_shards.iter().enumerate() {
        t.row(vec![
            i.to_string(),
            s.entries.to_string(),
            s.hits.to_string(),
            s.prepares.to_string(),
            s.inflight_waits.to_string(),
            s.map_contended.to_string(),
            s.panics_contained.to_string(),
            s.slots_recovered.to_string(),
            String::new(),
        ]);
    }
    for reason in &report.failed_slot_reasons {
        // every counter column is blank: between `shard` and `note`
        let mut row = vec!["failed".to_string()];
        row.extend((2..headers.len()).map(|_| "-".to_string()));
        row.push(reason.clone());
        t.row(row);
    }
    t
}

/// Arithmetic mean of an iterator (NaN on empty).
pub fn amean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test assertions may unwrap
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["bench", "value"]);
        t.row(vec!["gsmdec".into(), "0.5".into()]);
        t.row(vec!["x".into(), "12.125".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("gsmdec"));
        let lines: Vec<&str> = s.lines().collect();
        // all data lines have equal length (alignment)
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap() == "a,b");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn shard_health_table_renders_failed_slots() {
        let report = BatchReport {
            cold_shards: vec![Default::default(); 2],
            failed_slot_reasons: vec!["injected panic".into()],
            ..Default::default()
        };
        let t = shard_health_table(&report);
        let csv = t.to_csv();
        let failed = csv
            .lines()
            .find(|l| l.starts_with("failed,"))
            .expect("a failed row");
        let cells: Vec<&str> = failed.split(',').collect();
        assert_eq!(cells.len(), t.headers.len());
        assert_eq!(cells.last(), Some(&"injected panic"));
        assert!(
            cells[1..cells.len() - 1].iter().all(|&c| c == "-"),
            "{failed}"
        );
        assert!(t.render().contains("injected panic"));
    }

    #[test]
    fn amean_basics() {
        assert!((amean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!(amean([]).is_nan());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(fcycles(1_500_000.0), "1.50M");
        assert_eq!(fcycles(2_500.0), "2.5K");
        assert_eq!(fcycles(42.0), "42");
    }
}
