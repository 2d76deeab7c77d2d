//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end, the span that caused it, and the request both
//! belong to. Nothing is written until the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.stage`, with the layer being a module name of the repository.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Sequence number of the request the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; one per traced phase.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` under a span and return its result with the span's id, so a
    /// caller can hang further children off it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> R {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let result = f(self, id);
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    /// Record a span whose bounds were measured elsewhere (the timing WAL
    /// store reports its write and fsync after the fact).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// One JSON object per line: name, start, end, self time, parent,
    /// request.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let bounds = &spans[parent as usize];
            // Only the part of a child inside its parent's interval is the
            // parent's time to give away.
            let start = span.start_ns.max(bounds.start_ns);
            let end = span.end_ns.min(bounds.end_ns);
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(start, end) in intervals.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) ⊃ a [10,60) ⊃ b [20,30); root ⊃ c [70,90)
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 20, 50 - 10, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Children [10,50) and [30,70) cover [10,70) = 60, not 80.
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A child contained in another adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn a_child_sticking_out_of_its_parent_is_clipped() {
        let spans = [
            span(10, 50, None),
            span(0, 20, Some(0)),
            span(40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40 - 10 - 10);
    }

    #[test]
    fn tracer_nests_and_filters_by_name() {
        let mut tracer = Tracer::new();
        let inner = tracer.span("outer", None, 7, |t, outer| {
            t.span("inner", Some(outer), 7, |_, id| id)
        });
        assert_eq!(tracer.spans()[inner as usize].parent, Some(0));
        assert_eq!(tracer.spans()[inner as usize].request, 7);
        assert_eq!(tracer.durations_of("inner").len(), 1);
        let outer = &tracer.spans()[0];
        let child = &tracer.spans()[1];
        assert!(outer.start_ns <= child.start_ns && child.end_ns <= outer.end_ns);
    }
}
