//! Harness-side spans: `{name, start, end, parent, op}` recorded around the
//! harness's own calls into each crate, kept in memory and written out when
//! the run ends.  A layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.  A span's layer is its name up to the first `.`
/// (`synth.rewrite` belongs to `synth`); `harness.*` spans are the
/// benchmark's own bookkeeping and count as unattributed.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`.
    pub name: String,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The operation the span belongs to (spans of one operation share it).
    pub op: u64,
}

/// An in-memory span recorder.  Disabled, every call is one branch, so the
/// untraced and the traced section run the same harness code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `origin`; records nothing unless `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        result
    }

    /// Appends the spans of another thread's tracer (same origin); its roots
    /// stay roots.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self seconds and call count per span name.
    pub fn self_times(&self) -> BTreeMap<String, (f64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(kids, span.start_ns, span.end_ns);
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            let entry = out.entry(span.name.clone()).or_insert((0.0, 0));
            entry.0 += own as f64 * 1e-9;
            entry.1 += 1;
        }
        out
    }

    /// Self seconds per layer (the span name up to the first `.`).
    pub fn layer_self_times(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for (name, (seconds, _)) in self.self_times() {
            let layer = name.split('.').next().unwrap_or("").to_string();
            *out.entry(layer).or_insert(0.0) += seconds;
        }
        out
    }

    /// Attributed self time ÷ total root-span time: the share of the traced
    /// wall that lands in a crate's span instead of the harness's own.
    pub fn attributed_ratio(&self) -> f64 {
        let roots: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum();
        if roots == 0.0 {
            return 0.0;
        }
        let attributed: f64 = self
            .layer_self_times()
            .iter()
            .filter(|(layer, _)| layer.as_str() != "harness")
            .map(|(_, s)| s)
            .sum();
        attributed / roots
    }

    /// The span list as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fixed(spans: Vec<(&str, u64, u64, Option<usize>)>) -> Tracer {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = spans
            .into_iter()
            .map(|(name, start_ns, end_ns, parent)| Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent,
                op: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        // Root 0..100; children 10..40 and 30..60 overlap (two threads), a
        // grandchild 12..20 must not be subtracted from the root twice.
        let t = fixed(vec![
            ("harness.section", 0, 100, None),
            ("floweval.batch", 10, 40, Some(0)),
            ("floweval.batch", 30, 60, Some(0)),
            ("synth.rewrite", 12, 20, Some(1)),
        ]);
        let times = t.self_times();
        assert!((times["harness.section"].0 - 50e-9).abs() < 1e-15);
        assert!((times["floweval.batch"].0 - 52e-9).abs() < 1e-15);
        assert_eq!(times["floweval.batch"].1, 2);
        assert!((times["synth.rewrite"].0 - 8e-9).abs() < 1e-15);
        let layers = t.layer_self_times();
        assert!((layers["floweval"] - 52e-9).abs() < 1e-15);
        // (52 + 8) attributed of 100 root nanoseconds.
        assert!((t.attributed_ratio() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("a.b", 1, |t| t.span("c.d", 1, |_| 7)), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, Instant::now());
        on.span("harness.section", 0, |t| {
            t.span("aig.copy", 3, |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.span("synth.map", 3, |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = on.to_json();
        assert!(json.contains("\"name\":\"aig.copy\"") && json.contains("\"parent\":null"));
    }

    #[test]
    fn absorbing_a_thread_tracer_keeps_its_parent_links() {
        let mut main = fixed(vec![("harness.client", 0, 10, None)]);
        let other = fixed(vec![
            ("harness.client", 0, 10, None),
            ("flowd.hit", 2, 6, Some(0)),
        ]);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert!((main.attributed_ratio() - 0.2).abs() < 1e-9);
    }
}
