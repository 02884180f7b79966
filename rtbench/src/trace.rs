//! The benchmark's own spans, recorded around its calls into each layer and
//! kept in memory until the run ends, then written as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: `[start_ns, end_ns)` since the recorder's origin. Spans of one
/// request share `id`; `parent` is the phase (or run) that caused them.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed (`compile`, `deploy`, `load`, `issue`, `complete`, ...).
    pub name: &'static str,
    /// Span id; a request's issue and completion spans share it.
    pub id: u64,
    /// Id of the enclosing span, 0 for the run root.
    pub parent: u64,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    next_id: u64,
    recs: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            next_id: 1,
            recs: Vec::new(),
        }
    }

    /// A fresh id for a phase span; request spans under it use
    /// [`Spans::request_id`].
    pub fn phase_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The id shared by the spans of request `seq` of phase `phase`.
    pub fn request_id(phase: u64, seq: u64) -> u64 {
        (phase << 40) | seq
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            name,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.recs.push(span);
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.recs {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
