//! In-memory span recording and the order statistics the benchmark
//! reports.
//!
//! A span is one timed call from the benchmark into a layer: its name,
//! start and end (nanoseconds since the run's epoch), the span that
//! caused it, and the request it belongs to. Spans stay in memory until
//! the run ends and are then written out as one JSON document.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    /// Request id, for spans that belong to one served request.
    pub request: Option<u64>,
}

/// Collects spans when enabled; every call is a no-op otherwise, so the
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans
            .push(span_at(self.epoch, name, start, end, parent, request));
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`], so
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = nanos_since(self.epoch, Instant::now());
        }
    }

    /// Times `f`, records it as a span, and returns its result with the
    /// elapsed time.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (result, end - start)
    }

    /// Appends spans recorded on another thread against the same epoch.
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.extend(spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a JSON array of objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {request}}}{sep}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn nanos_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Builds a span against `epoch`, for threads that collect their own.
pub fn span_at(
    epoch: Instant,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: Option<u64>,
) -> Span {
    Span {
        name,
        start_ns: nanos_since(epoch, start),
        end_ns: nanos_since(epoch, end),
        parent,
        request,
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even
/// sizes); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
