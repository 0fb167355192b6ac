//! In-memory spans recorded by the benchmark around its calls into the
//! layers, written out when the run ends.
//!
//! A span has a name, a start, an end and a parent; the spans of one request
//! share its id. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one thread of calls. Spans are indexed by the order they were
/// opened, so a parent's index is always below its children's.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another recorder's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times in microseconds of every span called `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self_time_ns(&self.spans, &children[i], i) as f64 / 1e3)
            .collect()
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Writes every span as one tab-separated line:
    /// `index parent request name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of `spans[index]`: its duration minus the length of the union
/// of its children's intervals, each clipped to the parent's interval.
pub fn self_time_ns(spans: &[Span], children: &[usize], index: usize) -> u64 {
    let parent = spans[index];
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| {
            let s = spans[c];
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            request: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0, 100): children [10, 30) and [20, 50) overlap (union 40),
        // [60, 70) is disjoint (10), and [95, 120) overruns the root (5 in).
        // The grandchild [12, 18) lies inside a child and is not the root's.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(1), 12, 18),
            span(Some(0), 20, 50),
            span(Some(0), 60, 70),
            span(Some(0), 95, 120),
        ];
        let mut rec = Recorder::new(Instant::now());
        rec.spans = spans;
        let children = rec.children();
        assert_eq!(children[0], vec![1, 3, 4, 5]);
        assert_eq!(self_time_ns(&rec.spans, &children[0], 0), 100 - 40 - 10 - 5);
        assert_eq!(self_time_ns(&rec.spans, &children[1], 1), 20 - 6);
        assert_eq!(self_time_ns(&rec.spans, &children[2], 2), 6);
    }

    #[test]
    fn recorded_spans_nest_and_absorb_keeps_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        let root = a.open("root", 1, None);
        a.span("child", 1, Some(root), || std::hint::black_box(3 + 4));
        a.close(root);
        let mut b = Recorder::new(epoch);
        let other = b.open("root", 2, None);
        b.span("child", 2, Some(other), || ());
        b.close(other);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].request, 2);
        let root_self = a.self_times_us("root");
        let root_total = a.durations_us("root");
        for (s, t) in root_self.iter().zip(&root_total) {
            assert!(s <= t);
        }
    }
}
