//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each public call it
//! makes into the program (one per `Explorer::run`, per simulation, per
//! probe), kept in memory with their parent, and written out as JSON
//! lines when the run ends. Calls the program makes back into the
//! benchmark's fixtures (`make_bodies`, `check` — one per expansion, up to
//! half a million per sweep) are too many for one span each: they are
//! timed into [`Callback`] clocks and attributed, as aggregate child
//! time, to the innermost open span. A layer's self time is its spans'
//! time minus their child spans and callbacks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use crate::sys::process_cpu;

/// Aggregate clock for one kind of callback. The counters publish no
/// other data, so `Relaxed` suffices; explorer workers may call in from
/// other threads.
pub struct Callback {
    pub name: &'static str,
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Callback {
    const fn new(name: &'static str) -> Self {
        Callback { name, calls: AtomicU64::new(0), ns: AtomicU64::new(0) }
    }

    /// Runs `f`, charging its wall time to this clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }

    fn read(&self) -> (u64, u64) {
        (self.calls.load(Relaxed), self.ns.load(Relaxed))
    }
}

/// `mpcn_agreement::fixtures` body construction, called per expansion.
pub static BODIES: Callback = Callback::new("fixtures.bodies");
/// `mpcn_agreement::fixtures` checkers, called per completed run.
pub static CHECKS: Callback = Callback::new("fixtures.check");
const CALLBACKS: [&Callback; 2] = [&BODIES, &CHECKS];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Process CPU time over the span.
    pub cpu: Duration,
    /// `(calls, ns)` per [`CALLBACKS`] entry made while this span was the
    /// innermost open one.
    pub callbacks: [(u64, u64); 2],
}

impl Span {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

struct Open {
    id: usize,
    cpu_at_enter: Duration,
    cb_at_enter: [(u64, u64); 2],
    cb_in_children: [(u64, u64); 2],
}

/// Span recorder; a disabled tracer records nothing and costs nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
}

/// Handle of an entered span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

fn read_callbacks() -> [(u64, u64); 2] {
    CALLBACKS.map(Callback::read)
}

/// `f` applied to each `(calls, ns)` pair of two callback readings.
fn zip(a: [(u64, u64); 2], b: [(u64, u64); 2], f: impl Fn(u64, u64) -> u64) -> [(u64, u64); 2] {
    std::array::from_fn(|k| (f(a[k].0, b[k].0), f(a[k].1, b[k].1)))
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for spans entered from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enter(&mut self, layer: &'static str, name: impl Into<String>) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: self.open.last().map(|o| o.id),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            cpu: Duration::ZERO,
            callbacks: [(0, 0); 2],
        });
        self.open.push(Open {
            id,
            cpu_at_enter: process_cpu(),
            cb_at_enter: read_callbacks(),
            cb_in_children: [(0, 0); 2],
        });
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let open = self.open.pop().expect("exit matches an enter");
        assert_eq!(open.id, id, "spans exit in reverse order of entry");
        let total = zip(read_callbacks(), open.cb_at_enter, |now, then| now - then);
        let s = &mut self.spans[id];
        s.callbacks = zip(total, open.cb_in_children, |all, children| all - children);
        s.end = self.origin.elapsed();
        s.cpu = process_cpu().saturating_sub(open.cpu_at_enter);
        if let Some(parent) = self.open.last_mut() {
            parent.cb_in_children = zip(parent.cb_in_children, total, |a, b| a + b);
        }
    }

    fn self_time(&self, id: usize) -> Duration {
        let s = &self.spans[id];
        let children: Duration =
            self.spans.iter().filter(|c| c.parent == Some(id)).map(Span::wall).sum();
        let callbacks = Duration::from_nanos(s.callbacks.iter().map(|c| c.1).sum());
        s.wall().saturating_sub(children).saturating_sub(callbacks)
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        while let Some(p) = self.spans[id].parent {
            if p == root {
                return true;
            }
            id = p;
        }
        false
    }

    /// Self time per layer over the spans below `root` (not `root`
    /// itself), callbacks counted under their own names.
    pub fn self_time_by_layer(&self, root: SpanId) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        let Some(root) = root.0 else { return out };
        for id in (0..self.spans.len()).filter(|&id| self.descends_from(id, root)) {
            *out.entry(self.spans[id].layer).or_default() += self.self_time(id);
            for (k, cb) in CALLBACKS.iter().enumerate() {
                *out.entry(cb.name).or_default() +=
                    Duration::from_nanos(self.spans[id].callbacks[k].1);
            }
        }
        out
    }

    /// The spans as JSON lines, with each span's self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let callbacks: Vec<String> = CALLBACKS
                .iter()
                .zip(s.callbacks)
                .map(|(cb, (calls, ns))| {
                    format!("{{\"name\":\"{}\",\"calls\":{calls},\"ns\":{ns}}}", cb.name)
                })
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"self_ns\":{},\"callbacks\":[{}]}}",
                s.layer,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.cpu.as_nanos(),
                self.self_time(id).as_nanos(),
                callbacks.join(",")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_callbacks() {
        let mut t = Tracer::new(true);
        let root = t.enter("pass", "p");
        let job = t.enter("explore", "sweep");
        BODIES.time(|| std::thread::sleep(Duration::from_millis(5)));
        std::thread::sleep(Duration::from_millis(5));
        t.exit(job);
        t.exit(root);
        let by_layer = t.self_time_by_layer(root);
        assert!(by_layer["fixtures.bodies"] >= Duration::from_millis(5));
        assert!(by_layer["explore"] >= Duration::from_millis(5));
        // The callback is charged to the innermost span. (The clocks are
        // global, so a concurrently running test may add calls.)
        assert!(t.spans[1].callbacks[0].0 >= 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("pass", "p");
        t.exit(id);
        assert!(t.spans.is_empty());
        assert!(t.self_time_by_layer(id).is_empty());
    }
}
