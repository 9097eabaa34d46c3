//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer. They stay in memory until the run ends, when
//! [`Tracer::write`] saves them as one tab-separated file and
//! [`Tracer::self_times`] folds them into per-layer self time: a span's
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
const ROOT: u32 = u32::MAX;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name (e.g. `apply`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch; 0 while still open.
    pub end_ns: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// The planning cycle (or request sequence) the span belongs to.
    pub cycle: u32,
}

/// Summed self time and span count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Total self time, nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Records spans while the traced run executes. Entering a span pushes it
/// on a stack, so children find their parent without the caller passing
/// it around.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    cycle: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
        }
    }

    /// Starts a new cycle: spans entered from now on carry its id.
    pub fn next_cycle(&mut self) -> u32 {
        self.cycle += 1;
        self.cycle
    }

    /// Opens a span nested in the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(ROOT),
            cycle: self.cycle,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let idx = self.open.pop().expect("exit matches an enter") as usize;
        let end = self.now();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer name: each span's duration minus the durations
    /// of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.self_ns += s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
            t.count += 1;
        }
        out
    }

    /// Writes every span as `index name cycle parent start_ns end_ns`
    /// lines (parent `-` for roots) to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tcycle\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.cycle, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        let times = t.self_times();
        let inner = times["inner"];
        let outer = times["outer"];
        assert_eq!((inner.count, outer.count), (1, 1));
        assert!(inner.self_ns >= 5_000_000);
        assert!(
            outer.self_ns < inner.self_ns,
            "child time counted in parent"
        );
        assert_eq!(t.spans()[1].parent, 0);
    }
}
