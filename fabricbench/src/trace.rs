//! Spans recorded from the benchmark's side of each call into the
//! program: name, start, end and the enclosing span. Spans live in
//! memory and are written out when the run ends; the first
//! [`STORED_SPANS`] are kept whole, every span is folded into per-name
//! totals (count, wall time, self time and the items it covered).
//!
//! A disabled tracer records nothing, so the untraced runs that give
//! the end-to-end figures pay one branch per call site.

use std::io::Write;
use std::time::Instant;

/// Spans kept whole for the output file; later spans are only folded
/// into the totals, which bounds the tracer's memory on long runs.
pub const STORED_SPANS: usize = 200_000;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    stored: u32,
}

/// Per-name totals.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
}

impl Agg {
    /// Wall nanoseconds per covered item (per frame, message, key...).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    agg: Vec<(&'static str, Agg)>,
    seen: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            agg: Vec::new(),
            seen: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; close it with [`Tracer::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(NO_PARENT, |o| o.stored);
        let stored = if self.spans.len() < STORED_SPANS {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.open.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            stored,
        });
    }

    /// Closes the innermost open span, which covered `items` units of
    /// work.
    #[inline]
    pub fn exit(&mut self, items: u64) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let o = self.open.pop().expect("exit without a matching enter");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        self.seen += 1;
        if o.stored != NO_PARENT {
            let s = &mut self.spans[o.stored as usize];
            s.start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            s.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let agg = match self.agg.iter().position(|(n, _)| *n == o.name) {
            Some(i) => &mut self.agg[i].1,
            None => {
                self.agg.push((o.name, Agg::default()));
                &mut self.agg.last_mut().expect("just pushed").1
            }
        };
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.child_ns);
        agg.items += items;
    }

    /// Totals of spans named `name` (zero when none ran).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    /// Spans closed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Writes the stored spans, the per-name totals and the self time
    /// per layer (the span name up to its first `.`) to `path` as
    /// tab-separated text.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# totals: name\tcount\ttotal_ns\tself_ns\titems")?;
        for (name, a) in &self.agg {
            writeln!(
                w,
                "# {name}\t{}\t{}\t{}\t{}",
                a.count, a.total_ns, a.self_ns, a.items
            )?;
        }
        let mut layers: Vec<(&str, u64)> = Vec::new();
        for (name, a) in &self.agg {
            let layer = name.split('.').next().unwrap_or(name);
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, ns)) => *ns += a.self_ns,
                None => layers.push((layer, a.self_ns)),
            }
        }
        writeln!(w, "# self time per layer: layer\tself_ns")?;
        for (layer, ns) in layers {
            writeln!(w, "# {layer}\t{ns}")?;
        }
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(w, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}
