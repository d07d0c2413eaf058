//! Benchmark-side tracing: a span (name, start, end, parent, request id)
//! around every call the benchmark makes into a public layer function, kept
//! in memory and written out when the run ends. A span's *self time* is its
//! duration minus the part of it its children cover.
//!
//! The recorder is a plain stack discipline on the driver thread: `enter`
//! pushes, `exit` pops, the span on top of the stack is the parent of the
//! next one. When disabled (every untraced run) both calls are one branch.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Request id of spans that do not belong to one request.
pub const NO_REQUEST: u64 = u64::MAX;
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder was created (0 when disabled, so an
    /// untraced run does not pay for the clock).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        if self.enabled {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records an already finished call that started at `start_ns` (from
    /// [`Recorder::now_ns`]) and ends now, as a child of the open span.
    #[inline]
    pub fn leaf(&mut self, name: &'static str, request: u64, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let open = self.enter_at(name, request, start_ns);
        self.exit_at(open, now);
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let now = self.now_ns();
        self.enter_at(name, request, now)
    }

    /// Closes a span and returns its duration (0 when disabled).
    #[inline]
    pub fn exit(&mut self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.exit_at(open, now);
        self.spans.get(open.0 as usize).map_or(0, Span::duration_ns)
    }

    fn enter_at(&mut self, name: &'static str, request: u64, now_ns: u64) -> Open {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            request,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        self.stack.push(id);
        Open(id)
    }

    fn exit_at(&mut self, open: Open, now_ns: u64) {
        // Spans close in LIFO order; anything still open above `open` (an
        // early return in the driver) is closed with it.
        if !self.stack.contains(&open.0) {
            return;
        }
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = now_ns;
            if top == open.0 {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the part of its interval its
    /// direct children cover (children are clipped to the parent and, being
    /// recorded by one thread in stack order, never overlap each other).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for child in &self.spans {
            if child.parent == NO_PARENT {
                continue;
            }
            let parent = &self.spans[child.parent as usize];
            let start = child.start_ns.max(parent.start_ns);
            let end = child.end_ns.min(parent.end_ns);
            let covered = end.saturating_sub(start);
            let slot = &mut own[child.parent as usize];
            *slot = slot.saturating_sub(covered);
        }
        own
    }

    /// Per-name totals: `(count, total ns, self ns)`, by name.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_times_ns();
        let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = totals.entry(span.name).or_default();
            t.0 += 1;
            t.1 += span.duration_ns();
            t.2 += self_ns;
        }
        totals
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_of(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes the spans as JSON lines. Structural spans (no request id) are
    /// all written; of the per-request call spans every `keep_every`-th
    /// request is written — a repetition records one span per op and call,
    /// and the per-name `summary` lines at the end carry the totals of all
    /// of them, written or not.
    pub fn write_jsonl(&self, path: &Path, keep_every: u64) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_times_ns();
        let mut written = 0usize;
        for (id, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let keep = span.request == NO_REQUEST || span.request % keep_every.max(1) == 0;
            if !keep {
                continue;
            }
            write!(out, "{{\"id\":{id},\"name\":\"{}\",\"parent\":", span.name)?;
            match span.parent {
                NO_PARENT => write!(out, "null")?,
                p => write!(out, "{p}")?,
            }
            write!(out, ",\"request\":")?;
            match span.request {
                NO_REQUEST => write!(out, "null")?,
                r => write!(out, "{r}")?,
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.start_ns, span.end_ns
            )?;
            written += 1;
        }
        for (name, (count, total, self_ns)) in self.totals() {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{self_ns}}}"
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Recorder {
        Recorder::new(true)
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = recorder();
        let run = r.enter_at("run", NO_REQUEST, 0);
        let phase = r.enter_at("phase", NO_REQUEST, 10);
        let a = r.enter_at("gateway.submit", 1, 20);
        r.exit_at(a, 50);
        let b = r.enter_at("gateway.recv", 1, 60);
        r.exit_at(b, 90);
        r.exit_at(phase, 110);
        r.exit_at(run, 200);

        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 1);
        assert_eq!(spans[2].request, 1);

        let own = r.self_times_ns();
        // run: 200 long, phase covers 100 of it.
        assert_eq!(own[0], 100);
        // phase: 100 long, its two calls cover 30 + 30.
        assert_eq!(own[1], 40);
        // Leaves keep their whole duration.
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 30);
        // Self times of a tree add up to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 200);

        let totals = r.totals();
        assert_eq!(totals["phase"], (1, 100, 40));
        assert_eq!(totals["gateway.submit"], (1, 30, 30));
        assert_eq!(r.durations_of("gateway.recv"), vec![30]);
    }

    #[test]
    fn closing_a_span_closes_what_is_still_open_above_it() {
        let mut r = recorder();
        let outer = r.enter_at("outer", NO_REQUEST, 0);
        let _leaked = r.enter_at("inner", NO_REQUEST, 5);
        r.exit_at(outer, 30);
        assert_eq!(r.spans()[1].end_ns, 30);
        assert_eq!(r.self_times_ns(), vec![5, 25]);
        // The stack is empty again: the next span is a root.
        let next = r.enter_at("next", NO_REQUEST, 40);
        r.exit_at(next, 41);
        assert_eq!(r.spans()[2].parent, NO_PARENT);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.enter("x", 1);
        r.exit(s);
        assert!(r.spans().is_empty());
        assert!(r.totals().is_empty());
    }
}
