//! In-memory spans for the traced replica run.
//!
//! A span is a named interval with an optional parent. A span's *self
//! time* is its duration minus the part of its interval that its child
//! spans cover, so the self times of a span tree sum to the root's
//! duration.

use std::time::Instant;

/// One recorded interval, in seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans into a vector; nesting follows the open-span stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span named `name`.
    pub fn duration_of(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(Span::duration)
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| (c.start, c.end))
                .collect();
            s.duration() - covered(s.start, s.end, &children)
        })
        .collect()
}

/// Length of the part of `[start, end]` covered by the union of
/// `intervals`.
pub fn covered(start: f64, end: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        total += rb - ra;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 2.0, 5.0), // overlaps a: union 1..5
            span("c", Some(0), 7.0, 8.0),
            span("a.inner", Some(1), 1.5, 2.0),
        ];
        let t = self_times(&spans);
        assert!((t[0] - (10.0 - 4.0 - 1.0)).abs() < 1e-12);
        assert!((t[1] - 1.5).abs() < 1e-12);
        assert!((t[2] - 3.0).abs() < 1e-12);
        assert!((t[3] - 1.0).abs() < 1e-12);
        assert!((t[4] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn child_intervals_are_clipped_to_the_parent() {
        // A child poking out of its parent only covers the overlap.
        assert!((covered(2.0, 4.0, &[(1.0, 3.0), (3.5, 9.0)]) - 1.5).abs() < 1e-12);
        assert!(covered(2.0, 4.0, &[(5.0, 6.0)]).abs() < 1e-12);
        assert!((covered(0.0, 10.0, &[(1.0, 2.0), (1.0, 2.0), (1.5, 3.0)]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_self_times_sum_to_root_duration() {
        let mut tr = Tracer::new();
        let root = tr.begin("root");
        tr.span("a", || std::hint::black_box((0..1000).sum::<u64>()));
        tr.span("b", || ());
        tr.end(root);
        let total: f64 = self_times(tr.spans()).iter().sum();
        assert!((total - tr.duration_of("root").unwrap()).abs() < 1e-9);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }
}
