//! Benchmark-side spans: name, start, end and the span that caused it.
//!
//! Spans are recorded around calls *into* the library, from the
//! benchmark's own files; nothing inside the library is instrumented. They
//! live in memory and are written out once, after measuring. A disabled
//! [`Tracer`] costs one branch per call, so the same driver code serves the
//! untraced and the traced pass.

use std::io::Write;
use std::time::Instant;

/// "No parent": the span is a root.
const ROOT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span sits on, `<crate>.<function>`.
    pub name: &'static str,
    /// Index of the enclosing span, [`ROOT`] for none.
    parent: u32,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin; equals `start_ns` while open.
    pub end_ns: u64,
    /// Calls this span stands for: 1, except for a sampled boundary (see
    /// [`Tracer::adopt`]) where one timed call represents `weight` calls.
    pub weight: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span measured away from the tracer (inside a scheduler adapter the
/// simulator owns) and handed over afterwards.
#[derive(Debug, Clone, Copy)]
pub struct Detached {
    /// Layer boundary.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Calls it stands for (the adapter's sampling period).
    pub weight: u32,
}

/// The in-memory span recorder of one benchmark process.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder; with `on == false` every method is a no-op.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let now = self.since_origin(Instant::now());
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            weight: 1,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = self.since_origin(Instant::now());
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = now;
    }

    /// Attaches spans measured elsewhere as children of the innermost open
    /// span.
    pub fn adopt(&mut self, children: &[Detached]) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        for c in children {
            self.spans.push(Span {
                name: c.name,
                parent,
                start_ns: self.since_origin(c.start),
                end_ns: self.since_origin(c.end),
                weight: c.weight,
            });
        }
    }

    /// Every recorded span with this name.
    pub fn named<'a>(&'a self, name: &'static str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ns) of every span with this name, in recording order.
    pub fn durations(&self, name: &'static str) -> Vec<u64> {
        self.named(name).map(Span::ns).collect()
    }

    /// Estimated busy time and call count behind a name: each span counts
    /// for `weight` calls of its own duration.
    pub fn busy(&self, name: &'static str) -> (f64, u64) {
        self.named(name).fold((0.0, 0), |(s, n), sp| {
            (
                s + sp.ns() as f64 * 1e-9 * f64::from(sp.weight),
                n + u64::from(sp.weight),
            )
        })
    }

    /// `1 − Σ child time ÷ Σ own time` over every span called `name`: the
    /// share of those spans that no layer span beneath them accounts for —
    /// benchmark glue, clock reads, result copies.
    pub fn unattributed_share(&self, name: &'static str) -> f64 {
        let mut own = 0.0;
        let mut children = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                own += s.ns() as f64;
                children += self
                    .spans
                    .iter()
                    .filter(|c| c.parent == i as u32)
                    .map(|c| c.ns() as f64 * f64::from(c.weight))
                    .sum::<f64>();
            }
        }
        if own > 0.0 {
            (1.0 - children / own).max(0.0)
        } else {
            0.0
        }
    }

    /// Spans recorded so far: a position to cut the written trace at.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans of `ranges` (positions as [`Tracer::mark`] gave
    /// them) as JSON lines; a span's `id` is its position.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        ranges: &[std::ops::Range<usize>],
    ) -> std::io::Result<()> {
        for i in ranges.iter().cloned().flatten() {
            let s = &self.spans[i];
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"weight\":{}}}",
                s.name, s.start_ns, s.end_ns, s.weight
            )?;
        }
        Ok(())
    }
}
