//! Spans kept in memory during a traced run and written out at its end.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One span. An op span covers one op from start to end; a layer span
/// aggregates every call an op made across one layer boundary, so its
/// `dur_ns` is the sum of those calls and `calls` their number.
#[derive(Debug)]
struct Span {
    name: String,
    op: u64,
    parent: Option<String>,
    start_ns: u64,
    dur_ns: u64,
    calls: u64,
}

/// The spans of one run, timed from a common origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Records a span that ran from `start` for `dur`.
    pub fn span(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<&str>,
        start: Instant,
        dur: Duration,
    ) {
        self.layer(name, op, parent, start, dur.as_nanos() as u64, 1);
    }

    /// Records the `calls` calls of op `op` across one layer boundary,
    /// which took `dur_ns` in total within the op that began at `start`.
    pub fn layer(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<&str>,
        start: Instant,
        dur_ns: u64,
        calls: u64,
    ) {
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            parent: parent.map(str::to_owned),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            calls,
        });
    }

    /// Self time in ms of each span called `name`: its duration minus
    /// the durations of the spans of the same op that name it as parent.
    #[must_use]
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let children: u64 = self
                    .spans
                    .iter()
                    .filter(|c| c.op == s.op && c.parent.as_deref() == Some(name))
                    .map(|c| c.dur_ns)
                    .sum();
                s.dur_ns.saturating_sub(children) as f64 / 1e6
            })
            .collect()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Failures creating the directory or writing the file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let parent = s
                .parent
                .as_deref()
                .map_or_else(|| "null".to_owned(), |p| format!("\"{p}\""));
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
                s.name, s.op, s.start_ns, s.dur_ns, s.calls
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_op() {
        let mut t = Trace::default();
        let at = Instant::now();
        t.layer("op", 1, None, at, 10_000_000, 1);
        t.layer("tick", 1, Some("op"), at, 6_000_000, 500);
        t.layer("next_event", 1, Some("op"), at, 1_000_000, 80);
        t.layer("op", 2, None, at, 4_000_000, 1);
        t.layer("tick", 2, Some("op"), at, 3_000_000, 90);
        assert_eq!(t.self_ms("op"), vec![3.0, 1.0]);
        assert_eq!(t.self_ms("tick"), vec![6.0, 3.0]);
        assert_eq!(t.len(), 5);
    }
}
