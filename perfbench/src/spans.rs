//! The benchmark's own tracer: spans around its calls into each layer,
//! kept in memory and written out when the run ends as Chrome
//! trace-event JSON and as a per-layer self-time table.
//!
//! Spans nest by closure scope on one thread; each client thread owns a
//! [`Recorder`] and the recorders are merged at the end.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    tid: u32,
    /// Request the span belongs to (spans of one request share it).
    req: u64,
    start: Duration,
    dur: Duration,
    parent: Option<usize>,
}

/// Records spans for one thread. A disabled recorder still runs and
/// times the closures it is given but keeps nothing.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Recorder {
    /// A recorder for thread `tid`, timing against `epoch`.
    pub fn new(epoch: Instant, tid: u32, on: bool) -> Self {
        Recorder {
            epoch,
            tid,
            on,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, tid: u32) -> Self {
        Recorder::new(self.epoch, tid, self.on)
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with request id `req`.
    pub fn request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span called `name` and returns its result with
    /// the span's duration.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, Duration) {
        let start = Instant::now();
        if !self.on {
            let r = f(self);
            return (r, start.elapsed());
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tid: self.tid,
            req: self.req,
            start: start - self.epoch,
            dur: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        let dur = start.elapsed();
        self.open.pop();
        self.spans[idx].dur = dur;
        (r, dur)
    }

    /// Records an already-timed leaf span (a timed call measured by the
    /// caller with its own `Instant`s).
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        if self.on {
            self.spans.push(Span {
                name,
                tid: self.tid,
                req: self.req,
                start: start - self.epoch,
                dur,
                parent: self.open.last().copied(),
            });
        }
    }

    /// Moves `other`'s spans into this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans kept.
    pub fn n_spans(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a Chrome trace-event JSON array of complete (`X`)
    /// events, one per line, loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"req\":{}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.tid,
                s.req
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }

    /// Per span name: calls, total time, self time (total minus the time
    /// its child spans cover) and self share of all self time, as CSV
    /// sorted by self time.
    pub fn self_time_csv(&self) -> String {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut rows: Vec<(&str, u64, f64, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let self_us = s.dur.saturating_sub(*c).as_secs_f64() * 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur.as_secs_f64() * 1e6;
                    r.3 += self_us;
                }
                None => rows.push((s.name, 1, s.dur.as_secs_f64() * 1e6, self_us)),
            }
        }
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        let all: f64 = rows.iter().map(|r| r.3).sum::<f64>().max(f64::MIN_POSITIVE);
        let mut out = String::from("span,calls,total_us,self_us,self_share\n");
        for (name, calls, total, own) in rows {
            let _ = writeln!(out, "{name},{calls},{total:.1},{own:.1},{:.4}", own / all);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now(), 0, true);
        r.span("outer", |r| {
            r.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let csv = r.self_time_csv();
        let outer = csv.lines().find(|l| l.starts_with("outer,")).unwrap();
        let fields: Vec<f64> = outer
            .split(',')
            .skip(2)
            .map(|f| f.parse().unwrap())
            .collect();
        assert!(
            fields[1] < fields[0],
            "self time excludes the child: {outer}"
        );
        assert!(r.chrome_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let (v, _) = r.span("x", |_| 7);
        assert_eq!(v, 7);
        assert_eq!(r.n_spans(), 0);
    }
}
