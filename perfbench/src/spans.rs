//! The traced run's span recorder: one span (name, start, end, parent)
//! around each call the benchmark makes into a layer. Spans stay in memory
//! and are written out as tab-separated lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `service.admit`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Items the call covered (keys of a batch pass; 1 for a single call).
    pub items: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn offset(&self, t: Instant) -> u64 {
        crate::stats::nanos(t.saturating_duration_since(self.epoch))
    }

    /// Records a finished call and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        items: u64,
    ) -> u32 {
        let span = Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            items,
        };
        self.spans.push(span);
        u32::try_from(self.spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Sets the end of a span recorded open (with `end == start`).
    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.offset(end);
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Times `f` as one span covering `items` items.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, items);
        out
    }

    /// Durations of every span named `name`, in recording order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds per item over every span named `name`
    /// (0 when there is none).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn ns_per_item(&self, name: &str) -> f64 {
        let (ns, items) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.ns(), n + s.items));
        if items == 0 {
            0.0
        } else {
            ns as f64 / items as f64
        }
    }

    /// Median over the spans named `name` of nanoseconds per item
    /// (0 when there is none).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn median_ns_per_item(&self, name: &str) -> f64 {
        let per: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.items > 0)
            .map(|s| s.ns() as f64 / s.items as f64)
            .collect();
        if per.is_empty() {
            0.0
        } else {
            crate::stats::median_f64(&per)
        }
    }

    /// Writes every span as one tab-separated line under a header:
    /// `id name start_ns end_ns parent items` (`parent` is `-` for a root).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\titems")?;
        for (i, s) in self.spans.iter().enumerate() {
            write!(out, "{i}\t{}\t{}\t{}\t", s.name, s.start_ns, s.end_ns)?;
            if s.parent == ROOT {
                write!(out, "-")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            writeln!(out, "\t{}", s.items)?;
        }
        out.flush()
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_parent() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let parent = spans.record("packet", ms(0), ms(10), ROOT, 1);
        spans.record("pattern.lower", ms(1), ms(3), parent, 1);
        spans.record("pattern.execute", ms(3), ms(9), parent, 1);
        assert_eq!(spans.durations("pattern.execute"), vec![6_000_000]);
        assert_eq!(spans.durations("packet"), vec![10_000_000]);
        assert!(spans.spans[1..].iter().all(|s| s.parent == parent));
    }

    #[test]
    fn per_item_rates() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        spans.record(
            "table.search",
            t0,
            t0 + Duration::from_nanos(1000),
            ROOT,
            10,
        );
        spans.record(
            "table.search",
            t0,
            t0 + Duration::from_nanos(3000),
            ROOT,
            10,
        );
        assert!((spans.ns_per_item("table.search") - 200.0).abs() < 1e-9);
        assert!((spans.median_ns_per_item("table.search") - 200.0).abs() < 1e-9);
        assert!(spans.ns_per_item("absent").abs() < 1e-12);
    }
}
