//! Metric tables, failure accounting and the result line.

use crate::trace::{Layer, Tracer};
use crate::{alloc, meter, stats};
use std::fmt::Write as _;
use std::time::Instant;
use twofd_core::TransitionKind;
use twofd_net::shard::ShardRuntime;

/// End-to-end metrics, reported with `--trace 0` by every workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("hb_per_s", "1/s"),
    ("cpu_ns_per_hb", "ns"),
    ("bytes_per_stream", "B"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported with `--trace 1` by every workload.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("shard.ingest_ns_per_hb", "ns"),
    ("shard.flush_wait_ns_per_hb", "ns"),
    ("core.apply_ns_per_hb", "ns"),
    ("core.allocs_per_hb", "count"),
    ("core.heap_bytes_per_stream", "B"),
    ("mem.rss_bytes_per_stream", "B"),
    ("shard.register_ns", "ns"),
    ("core.first_hb_ns", "ns"),
    ("core.allocs_per_stream", "count"),
    ("shard.deregister_ns", "ns"),
    ("shard.sweep_now_us", "us"),
    ("core.sweep_ns_per_expiry", "ns"),
    ("shard.stats_us", "us"),
    ("obs.render_us", "us"),
    ("obs.series", "count"),
    ("obs.qos_verdict_ns", "ns"),
    ("proc.allocs_per_khb", "count"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("intake.dgrams_per_batch", "count"),
    ("cpu.intake_ns_per_hb", "ns"),
    ("cpu.shard_ns_per_hb", "ns"),
    ("cpu.driver_ns_per_hb", "ns"),
    ("proc.ctx_switches_per_khb", "count"),
    ("intake.socket_loss", "count"),
    ("shard.dropped", "count"),
    ("shard.events_dropped", "count"),
    ("shard.queue_depth_max", "count"),
    ("events.detect_lag_p50_us", "us"),
    ("events.detect_lag_p99_us", "us"),
    ("events.trust_lat_p50_us", "us"),
    ("events.trust_lat_p99_us", "us"),
    ("shard.sweep_p50_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("proc.runq_wait_ms", "ms"),
    ("proc.steal_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("self_ms.bench", "ms"),
    ("self_ms.shard", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.obs", "ms"),
    ("self_ms.wire", "ms"),
    ("self_ms.intake", "ms"),
    ("self_ms.events", "ms"),
];

/// Output checks of one run: every failure is counted against the
/// operations attempted and described on stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (heartbeats offered, plus lifecycle and
    /// teardown operations where the workload has them).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records a check: when `ok` is false, `failures` operations failed
    /// and `what` says which check.
    pub fn expect(&mut self, ok: bool, failures: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += failures.max(1);
            self.notes.push(what());
        }
    }

    /// Checks that `got == want`, counting the difference as failures.
    pub fn equal(&mut self, name: &str, got: u64, want: u64) {
        self.expect(got == want, got.abs_diff(want), || {
            format!("{name}: got {got}, want {want}")
        });
    }
}

/// Length of the blocks a closed loop's timed phase is cut into.
const BLOCK_S: f64 = 1.0;

/// CPU, allocator and wall-clock readings around one timed phase, and
/// per block of the closed loops, which report [`PhaseMeter::round`]s.
pub struct PhaseMeter {
    started: Instant,
    proc0: meter::Sample,
    alloc0: alloc::Snapshot,
    block: Block,
    /// Closed blocks: (heartbeats per wall second, CPU ns per heartbeat).
    blocks: Vec<(f64, f64)>,
}

/// The block under way: whole rounds, until it has lasted [`BLOCK_S`].
struct Block {
    started: Instant,
    proc0: meter::Sample,
    hb: u64,
}

impl Block {
    fn start() -> Block {
        Block {
            started: Instant::now(),
            proc0: meter::sample(),
            hb: 0,
        }
    }
}

/// What one timed phase measured.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Heartbeats applied in the phase.
    pub hb: u64,
    /// Wall seconds of the phase.
    pub wall_s: f64,
    /// Process meters over the phase.
    pub proc: meter::Delta,
    /// Allocation calls over the phase, all threads.
    pub allocs: u64,
    /// Median over the phase's blocks of their heartbeats per wall
    /// second, and of their CPU nanoseconds per heartbeat; `None` when
    /// no block closed.
    pub block_medians: Option<(f64, f64)>,
}

impl PhaseMeter {
    /// Starts the meters.
    pub fn start() -> PhaseMeter {
        let proc0 = meter::sample();
        let alloc0 = alloc::snapshot();
        PhaseMeter {
            started: Instant::now(),
            proc0,
            alloc0,
            block: Block::start(),
            blocks: Vec::with_capacity(128),
        }
    }

    /// Wall seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Counts a round of `hb` heartbeats that just ended, closing the
    /// block once it has lasted [`BLOCK_S`].
    pub fn round(&mut self, hb: u64) {
        self.block.hb += hb;
        let wall_s = self.block.started.elapsed().as_secs_f64();
        if wall_s >= BLOCK_S {
            let next = Block::start();
            let cpu_ns = self.block.proc0.until(&next.proc0).cpu_total_ns() as f64;
            let hb = self.block.hb as f64;
            self.blocks.push((ratio(hb, wall_s), ratio(cpu_ns, hb)));
            self.block = next;
        }
    }

    /// Stops the meters; `hb` heartbeats were applied in between.
    pub fn finish(self, hb: u64) -> Phase {
        let wall_s = self.started.elapsed().as_secs_f64();
        let allocs = alloc::snapshot().allocs - self.alloc0.allocs;
        let proc = self.proc0.until(&meter::sample());
        Phase {
            hb,
            wall_s,
            proc,
            allocs,
            block_medians: block_medians(&self.blocks),
        }
    }
}

/// Medians of each column of `blocks`; `None` for no blocks.
fn block_medians(blocks: &[(f64, f64)]) -> Option<(f64, f64)> {
    if blocks.is_empty() {
        return None;
    }
    let rates: Vec<f64> = blocks.iter().map(|b| b.0).collect();
    let costs: Vec<f64> = blocks.iter().map(|b| b.1).collect();
    Some((stats::median(&rates), stats::median(&costs)))
}

impl Phase {
    /// Heartbeats applied per wall second.
    pub fn hb_per_s(&self) -> f64 {
        ratio(self.hb as f64, self.wall_s)
    }

    /// The block median of heartbeats per wall second, or the whole
    /// phase's rate when no block closed.
    pub fn median_hb_per_s(&self) -> f64 {
        self.block_medians.map_or_else(|| self.hb_per_s(), |m| m.0)
    }

    /// The block median of CPU nanoseconds per heartbeat, or the whole
    /// phase's when no block closed.
    pub fn median_cpu_ns_per_hb(&self) -> f64 {
        self.block_medians
            .map_or_else(|| self.cpu_ns_per_hb(), |m| m.1)
    }

    /// CPU nanoseconds of every thread per heartbeat.
    pub fn cpu_ns_per_hb(&self) -> f64 {
        ratio(self.proc.cpu_total_ns() as f64, self.hb as f64)
    }

    /// CPU nanoseconds of one thread group per heartbeat.
    pub fn group_ns_per_hb(&self, group: meter::Group) -> f64 {
        ratio(self.proc.cpu(group) as f64, self.hb as f64)
    }

    /// Fills the process-meter per-layer figures.
    pub fn fill_proc(&self, out: &mut Metrics) {
        out.set(
            "cpu.shard_ns_per_hb",
            self.group_ns_per_hb(meter::Group::Shard),
        );
        out.set(
            "cpu.driver_ns_per_hb",
            self.group_ns_per_hb(meter::Group::Driver),
        );
        out.set(
            "proc.ctx_switches_per_khb",
            ratio(self.proc.ctx_switches as f64 * 1e3, self.hb as f64),
        );
        out.set(
            "proc.allocs_per_khb",
            ratio(self.allocs as f64 * 1e3, self.hb as f64),
        );
        out.set("proc.runq_wait_ms", self.proc.runq_wait_ns as f64 / 1e6);
        out.set("proc.steal_ms", self.proc.steal_ms);
    }
}

/// Transition events received, by kind.
#[derive(Debug, Default)]
pub struct Tally {
    /// Trust events.
    pub trust: u64,
    /// Suspect events.
    pub suspect: u64,
    /// Recovered events.
    pub recovered: u64,
}

impl Tally {
    /// Counts one event.
    pub fn count(&mut self, kind: TransitionKind) {
        match kind {
            TransitionKind::Trust => self.trust += 1,
            TransitionKind::Suspect => self.suspect += 1,
            TransitionKind::Recovered => self.recovered += 1,
        }
    }

    /// Receives and counts every queued event of `rt`.
    pub fn drain(&mut self, rt: &ShardRuntime, tracer: &mut Tracer) {
        tracer.enter(Layer::Events, "try_recv");
        let mut n = 0;
        while let Ok(e) = rt.events().try_recv() {
            self.count(e.kind);
            n += 1;
        }
        tracer.exit(n);
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metric values of one run; a name left unset is reported as 0
/// and named on stderr as not exercised by the workload.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (which must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Renders the result line over `table`, naming unset metrics on
/// stderr under `workload`.
pub fn result_line(
    workload: &str,
    checks: &Checks,
    metrics: &Metrics,
    table: &[(&'static str, &'static str)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).unwrap_or_else(|| {
            eprintln!("{workload}: {name} is not exercised by this workload; reporting 0");
            0.0
        });
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Reads `"<name>": {"value": <number>` out of a result line.
pub fn parse_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Reads a top-level whole-number field (`"failed": 3`) out of a
/// result line.
pub fn parse_count(line: &str, key: &str) -> Option<u64> {
    let key = format!("\"{key}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_counts_failures() {
        let mut m = Metrics::default();
        m.set("hb_per_s", 1234.5);
        m.set("setup_s", 0.25);
        let mut c = Checks {
            attempted: 10,
            ..Checks::default()
        };
        c.equal("x", 3, 5);
        let line = result_line("t", &c, &m, &END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 2,"));
        assert_eq!(parse_value(&line, "hb_per_s"), Some(1234.5));
        assert_eq!(parse_value(&line, "setup_s"), Some(0.25));
        assert_eq!(parse_value(&line, "cpu_ns_per_hb"), Some(0.0));
        assert_eq!(parse_count(&line, "failed"), Some(2));
        assert_eq!(parse_count(&line, "attempted"), Some(10));
    }

    #[test]
    fn block_medians_take_each_column_on_its_own() {
        assert_eq!(block_medians(&[]), None);
        let blocks = [(3.0, 10.0), (1.0, 30.0), (2.0, 20.0), (9.0, 5.0)];
        assert_eq!(block_medians(&blocks), Some((2.5, 15.0)));
    }

    #[test]
    fn a_phase_without_blocks_reports_its_whole_figures() {
        let mut meter = PhaseMeter::start();
        meter.round(10);
        let phase = meter.finish(10);
        assert!(phase.block_medians.is_none());
        assert_eq!(phase.median_hb_per_s(), phase.hb_per_s());
        assert_eq!(phase.median_cpu_ns_per_hb(), phase.cpu_ns_per_hb());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the manifest lives at the repository root only
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
