//! In-memory spans recorded around the benchmark's calls into the
//! layers, written out when a traced run ends.
//!
//! A span has a name, a tag (kind, shape, fault status), host start and
//! end in nanoseconds from the tracer's epoch, the span that caused it,
//! and a trace id shared by the spans of one operation. A span's self
//! time is its duration minus its children's.
//!
//! Each traced run overwrites `out/<workload>.spans.jsonl`.

use crate::clock::Stopwatch;
use std::fmt::Write as _;

#[derive(Clone, Debug)]
pub struct Span {
    pub track: usize,
    pub trace: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub tag: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts recorded at the same boundary (events, pending queue, …).
    pub counts: Vec<(&'static str, u64)>,
}

/// One thread's span recorder. Disabled tracers record nothing and read
/// no clock.
pub struct Tracer {
    epoch: Stopwatch,
    track: usize,
    enabled: bool,
    trace: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Stopwatch, track: usize, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            track,
            enabled,
            trace: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded for the current operation.
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off for the next operation, which gets trace
    /// id `trace`.
    pub fn set(&mut self, enabled: bool, trace: u64) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.enabled = enabled;
        self.trace = trace;
    }

    pub fn begin(&mut self, name: &'static str, tag: impl Into<String>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            track: self.track,
            trace: self.trace,
            id,
            parent: self.open.last().copied(),
            name,
            tag: tag.into(),
            start_ns: self.epoch.ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        self.end_with(id, Vec::new());
    }

    pub fn end_with(&mut self, id: Option<usize>, counts: Vec<(&'static str, u64)>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        let s = &mut self.spans[id];
        s.end_ns = self.epoch.ns();
        s.counts = counts;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Write the spans as JSON lines into the benchmark's `out/` directory.
pub fn write(workload: &str, spans: &[Span]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{workload}.spans.jsonl");
    let mut s = String::new();
    for sp in spans {
        let _ = write!(
            s,
            "{{\"track\":{},\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            sp.track,
            sp.trace,
            sp.id,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.name,
            sp.tag,
            sp.start_ns,
            sp.end_ns
        );
        for (k, v) in &sp.counts {
            let _ = write!(s, ",\"{k}\":{v}");
        }
        s.push_str("}\n");
    }
    std::fs::write(&path, s)?;
    Ok(path)
}
