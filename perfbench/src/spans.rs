//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public API (the traced run only).
//!
//! A span names the layer call, the cell it served (cells play the part
//! of requests: every span of one cell shares its index) and the span
//! that caused it. Spans stay in memory and are written out once the
//! benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::clock;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `core.drive` or `journal.append`.
    pub name: &'static str,
    /// Index of the cell the call served.
    pub cell: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the recorder was created.
    pub start_s: f64,
    /// End, seconds since the recorder was created.
    pub end_s: f64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The span recorder. While disabled, `begin` records nothing and
/// returns `None`, so untraced passes pay only a branch.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty, disabled recorder.
    pub fn new() -> Spans {
        Spans {
            origin: clock::now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span; close it with [`Spans::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        cell: usize,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_s: now,
            end_s: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Spans::begin`] (no-op for `None`).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.origin.elapsed().as_secs_f64();
            self.spans[id].end_s = now;
        }
    }

    /// Every recorded span, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Span `id`'s duration minus the part its child spans cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration)
            .sum();
        self.spans[id].duration() - children
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self, cell_labels: &[String]) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let label = cell_labels.get(s.cell).map_or("", String::as_str);
            let _ = writeln!(
                out,
                "{{\"span\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"cell\": \"{label}\", \
                 \"start_s\": {}, \"end_s\": {}}}",
                s.name, s.start_s, s.end_s
            );
        }
        out
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new();
        let id = spans.begin("core.drive", 0, None);
        spans.end(id);
        assert!(id.is_none());
        assert!(spans.all().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.set_enabled(true);
        let outer = spans.begin("core.drive", 0, None);
        let inner = spans.begin("journal.append", 0, outer);
        spans.end(inner);
        spans.end(outer);
        let outer = outer.expect("enabled");
        let total = spans.all()[outer].duration();
        let child = spans.all()[1].duration();
        assert!((spans.self_time(outer) - (total - child)).abs() < 1e-12);
    }
}
