//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span covers one run of consecutive calls to one public function of
//! one layer and records how many calls it covers, so per-call figures
//! are span time ÷ calls. Spans nest through a stack: the driver opens a
//! `bench` span per round of work and every layer call inside it is a
//! child. Spans are kept in memory, written out at exit, and reduced to
//! self time per layer: a span's duration minus the part its children
//! cover.
//!
//! A disabled tracer runs the wrapped call and records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// The layers spans are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark driver itself.
    Bench,
    /// `twofd_net::shard::ShardRuntime`.
    Shard,
    /// `twofd_core::ProcessSet`.
    Core,
    /// The registry and QoS read side (`twofd_obs`).
    Obs,
    /// `twofd_net::wire`.
    Wire,
    /// `twofd_net::intake`.
    Intake,
    /// Transition-event receipt.
    Events,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 7] = [
    Layer::Bench,
    Layer::Shard,
    Layer::Core,
    Layer::Obs,
    Layer::Wire,
    Layer::Intake,
    Layer::Events,
];

impl Layer {
    /// The layer's name in metric names (`self_ms.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Shard => "shard",
            Layer::Core => "core",
            Layer::Obs => "obs",
            Layer::Wire => "wire",
            Layer::Intake => "intake",
            Layer::Events => "events",
        }
    }

    /// The layer's `self_ms.<name>` metric.
    pub fn self_metric(self) -> &'static str {
        match self {
            Layer::Bench => "self_ms.bench",
            Layer::Shard => "self_ms.shard",
            Layer::Core => "self_ms.core",
            Layer::Obs => "self_ms.obs",
            Layer::Wire => "self_ms.wire",
            Layer::Intake => "self_ms.intake",
            Layer::Events => "self_ms.events",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Attributed layer.
    pub layer: Layer,
    /// The function called (`ingest_batch`, `render`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start: u64,
    /// End, nanoseconds since the tracer was created.
    pub end: u64,
    /// Index of the enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Calls the span covers.
    pub calls: u32,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records when `on`, and only runs calls otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
            stack: Vec::with_capacity(8),
        }
    }

    /// Makes room for `spans` more spans, so recording them allocates
    /// nothing (replays measure the heap while they record).
    pub fn reserve(&mut self, spans: usize) {
        if self.on {
            self.spans.reserve(spans);
        }
    }

    /// Turns recording on or off from here on.
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pair with [`Tracer::exit`].
    pub fn enter(&mut self, layer: Layer, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(self.spans.len() as u32);
        let start = self.now();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent,
            calls: 1,
        });
    }

    /// Closes the innermost open span, recording that it covered `calls`
    /// calls.
    pub fn exit(&mut self, calls: u32) {
        if !self.on {
            return;
        }
        let end = self.now();
        if let Some(i) = self.stack.pop() {
            let span = &mut self.spans[i as usize];
            span.end = end;
            span.calls = calls;
        }
    }

    /// Runs `f` — one call, or a loop of `calls` calls — inside a span.
    pub fn span<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        calls: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(layer, name);
        let r = f();
        self.exit(calls);
        r
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(calls, nanoseconds)` summed over spans of `layer` named `name`.
    pub fn total(&self, layer: Layer, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .fold((0, 0), |(c, ns), s| {
                (c + u64::from(s.calls), ns + (s.end - s.start))
            })
    }

    /// Writes every span as tab-separated text to `path`.
    pub fn write_out(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("layer\tname\tstart_ns\tend_ns\tparent\tcalls\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.name,
                s.start,
                s.end,
                parent,
                s.calls
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time per layer, nanoseconds, indexed like [`LAYERS`]: each span's
/// duration minus the durations of its direct children (which, on one
/// thread, lie inside it and do not overlap).
pub fn self_ns(spans: &[Span]) -> [u64; 7] {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out = [0u64; 7];
    for (s, covered) in spans.iter().zip(child_ns) {
        let i = LAYERS.iter().position(|l| *l == s.layer).unwrap_or(0);
        out[i] += (s.end - s.start).saturating_sub(covered);
    }
    out
}

/// Sets every `self_ms.<layer>` metric from the tracer's spans.
pub fn set_self_times(tracer: &Tracer, metrics: &mut crate::report::Metrics) {
    for (layer, ns) in LAYERS.iter().zip(self_ns(tracer.spans())) {
        metrics.set(layer.self_metric(), ns as f64 / 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            name: "x",
            start,
            end,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench [0,100) ⊃ shard [10,40) ⊃ core [15,25); obs [50,60).
        let spans = [
            span(Layer::Bench, 0, 100, NO_PARENT),
            span(Layer::Shard, 10, 40, 0),
            span(Layer::Core, 15, 25, 1),
            span(Layer::Obs, 50, 60, 0),
        ];
        let s = self_ns(&spans);
        assert_eq!(s[0], 100 - 30 - 10);
        assert_eq!(s[1], 30 - 10);
        assert_eq!(s[2], 10);
        assert_eq!(s[3], 10);
        assert_eq!(s.iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_counts_calls() {
        let mut t = Tracer::new(true);
        t.enter(Layer::Bench, "round");
        t.span(Layer::Shard, "flush", 3, || ());
        t.exit(1);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, 0);
        assert_eq!(t.total(Layer::Shard, "flush").0, 3);
        let off = {
            let mut t = Tracer::new(false);
            t.span(Layer::Shard, "flush", 1, || 7)
        };
        assert_eq!(off, 7);
    }
}
