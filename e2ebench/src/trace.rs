//! In-memory span recorder for the traced run. Spans are recorded only
//! from the benchmark's own files, around calls into the program's
//! public functions; nothing inside the program is instrumented.

use crate::util::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, name, start_ns, end_ns });
        id
    }

    /// Times one call as a child of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Opens a root span whose end is set by [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> u32 {
        let now = Instant::now();
        self.record(name, 0, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Median duration in microseconds of the spans named `name`.
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&d)
    }

    /// Span counts per name.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median cost in nanoseconds of recording one span, over batches of
/// recordings into a fresh tracer.
pub fn record_cost_ns() -> f64 {
    const BATCH: usize = 20_000;
    let per_batch: Vec<f64> = (0..5)
        .map(|_| {
            let mut tr = Tracer::default();
            let now = Instant::now();
            let start = Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(tr.record("op", 0, now, now));
            }
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&per_batch)
}
