//! In-memory spans around the benchmark's calls into the library.
//!
//! Nothing inside the program is instrumented: a span covers one public
//! call the benchmark makes (or a group of them, such as one pass), and
//! carries the id of the request, commit or pass it belongs to. With
//! tracing off, [`Tracer::span`] is one branch and a direct call.

use crate::report::json_string;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
struct Span {
    /// Span id (ids start at 1).
    id: u64,
    /// The enclosing span's id, 0 for a root span.
    parent: u64,
    /// The layer entry point, such as `service.serve`.
    name: &'static str,
    /// Request, commit, pass or instance id the call belongs to.
    key: u64,
    /// Start, in nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    end_ns: u64,
}

/// Records spans when enabled; shared by the benchmark's threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, passing it this span's id (0 when tracing is off) so
    /// nested calls can name their parent, and records the span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        key: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            key,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span");
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"key\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                json_string(s.name),
                s.key,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
