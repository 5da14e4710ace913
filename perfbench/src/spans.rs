//! The benchmark's own spans around its calls into the program, kept in
//! memory during a traced run and written out when the run ends.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call. Spans of one session share `session`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The session (or set-up repetition) the call belongs to.
    pub session: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log was opened.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was opened.
    pub end_ns: u64,
}

impl Span {
    /// How long the call took.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// An in-memory span log on one epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Records a call that ran from `start` to `end`; returns its index
    /// for use as a child's parent.
    pub fn record(
        &mut self,
        name: &'static str,
        session: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            session,
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        self.spans.len() - 1
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// Writes the log as JSON lines.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"session\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.session, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_nest_and_serialise() {
        let mut log = SpanLog::default();
        let t0 = log.epoch + Duration::from_micros(10);
        let t1 = t0 + Duration::from_micros(5);
        let t2 = t1 + Duration::from_micros(20);
        let outer = log.record("session", 7, None, t0, t2);
        log.record("connect", 7, Some(outer), t0, t1);
        assert_eq!(log.durations_s("connect"), vec![5e-6]);
        assert_eq!(log.spans[1].parent, Some(0));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}.jsonl", std::process::id()));
        log.write(&path).expect("writes");
        let text = fs::read_to_string(&path).expect("reads back");
        fs::remove_file(&path).expect("cleans up");
        assert_eq!(
            text,
            "{\"name\":\"session\",\"session\":7,\"parent\":null,\"start_ns\":10000,\"end_ns\":35000}\n\
             {\"name\":\"connect\",\"session\":7,\"parent\":0,\"start_ns\":10000,\"end_ns\":15000}\n"
        );
    }
}
