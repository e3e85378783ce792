//! `steady`: closed-loop heartbeat capacity of one shard at steady state.
//!
//! 65 536 streams (about 9.5 KB of filled `2w-fd(1,1000)` state each,
//! 620 MB in all: twice a 300 MiB last-level cache, so no share of it
//! that neighbours leave free holds the fleet) on a `ManualClock` with
//! one shard. Each timed round sends one on-time beat per stream
//! through one `ingest_batch`, calls `flush` once, drains the events and
//! advances the clock by Δi. Obs extras are off.
//!
//! Set-up feeds every stream the same 1 024 beats the timed rounds would
//! have, so every window is filled past n2 = 1000 before timing starts,
//! but 32 beats per stream at a time: a stream's state is then loaded
//! once per 32 beats, which more than halves the set-up time. The clock
//! stands at the first of the 32 rounds, so no horizon expires mid-round.

use crate::report::{ratio, Checks, Metrics, Phase, PhaseMeter, Tally};
use crate::trace::{self, Layer, Tracer};
use crate::{alloc, meter, mix64, stats, Args, Outcome, TRACE_SHARE};
use std::sync::Arc;
use std::time::Instant;
use twofd_core::{DetectorConfig, ProcessSet};
use twofd_net::shard::{DetectorPlan, Job, ShardConfig, ShardRuntime};
use twofd_net::ManualClock;
use twofd_sim::rng::SimRng;
use twofd_sim::time::Nanos;

/// Streams in the fleet.
pub const STREAMS: usize = 65_536;
/// Set-up rounds: every window holds more than n2 = 1000 samples after.
pub const FILL_ROUNDS: u64 = 1_024;
/// Set-up rounds applied per stream back to back.
const FILL_BATCH: u64 = 32;
/// Streams per set-up `ingest_batch`: their beats fill the shard queue
/// (`STREAMS` jobs) exactly. Every first beat publishes a Trust event,
/// and two chunks' worth (one still being published, one new) must fit
/// the default 4 096-entry event channel.
const FILL_CHUNK: usize = STREAMS / FILL_BATCH as usize;
const _: () = assert!(2 * FILL_CHUNK <= 4_096);
/// Arrival jitter bound: beats arrive in `[rΔi, rΔi + JITTER)`.
const JITTER_NS: u64 = 500_000;
/// The clock stands this far past a round's nominal instant while the
/// round is applied: after every arrival, long before any horizon.
const LEAD_NS: u64 = 1_000_000;
/// Set-ups per run; `setup_s` is their median. Two, not more: one
/// set-up is 67 M heartbeats (about 14 s on a 2-vCPU guest).
const SETUPS: usize = 2;
/// Rounds the traced run times through a bare `ProcessSet`.
const CORE_ROUNDS: u64 = 48;

/// The seeded inputs: stream ids in a seeded send order, and per-beat
/// arrival jitter.
pub struct Schedule {
    ids: Vec<u64>,
    salt: u64,
    interval_ns: u64,
}

impl Schedule {
    /// The schedule of `streams` streams beating every `interval_ns`.
    pub fn new(seed: u64, streams: usize, interval_ns: u64) -> Schedule {
        let salt = mix64(seed);
        let mut ids: Vec<u64> = (0..streams as u64).map(|k| (salt << 32) | k).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Schedule {
            ids,
            salt,
            interval_ns,
        }
    }

    /// Stream `id`'s beat of round `r` (sequence number `r`).
    fn beat(&self, id: u64, r: u64) -> Job {
        let jitter = mix64(self.salt ^ id ^ r.rotate_left(40)) % JITTER_NS;
        (id, r, Nanos(r * self.interval_ns + jitter), 0)
    }

    /// Round `r`'s beats, in send order.
    pub fn round(&self, r: u64, jobs: &mut Vec<Job>) {
        jobs.clear();
        jobs.extend(self.ids.iter().map(|&id| self.beat(id, r)));
    }

    /// The beats of `rounds` for the streams `ids`, stream by stream.
    pub fn fill(&self, ids: &[u64], rounds: std::ops::Range<u64>, jobs: &mut Vec<Job>) {
        jobs.clear();
        for &id in ids {
            jobs.extend(rounds.clone().map(|r| self.beat(id, r)));
        }
    }

    /// The clock while round `r` is applied.
    pub fn now(&self, r: u64) -> Nanos {
        Nanos(r * self.interval_ns + LEAD_NS)
    }

    /// Stream ids in send order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }
}

struct Driver {
    /// `None` only between set-ups.
    rt: Option<ShardRuntime>,
    clock: Arc<ManualClock>,
    sched: Schedule,
    jobs: Vec<Job>,
    tally: Tally,
    tracer: Tracer,
    next_round: u64,
}

impl Driver {
    /// One timed round.
    fn round(&mut self) {
        let Driver {
            rt,
            clock,
            sched,
            jobs,
            tally,
            tracer,
            next_round,
        } = self;
        let rt = rt.as_ref().expect("set up before timing");
        let r = *next_round;
        *next_round += 1;
        tracer.enter(Layer::Bench, "round");
        sched.round(r, jobs);
        clock.advance_to(sched.now(r));
        tracer.span(Layer::Shard, "ingest_batch", 1, || rt.ingest_batch(jobs));
        tracer.span(Layer::Shard, "flush", 1, || rt.flush());
        tally.drain(rt, tracer);
        tracer.exit(1);
    }

    /// Frees the previous fleet, then builds a fresh runtime on a fresh
    /// clock and fills it. Returns the set-up's wall seconds and the live
    /// heap and RSS it added.
    fn set_up(&mut self, shard: &ShardConfig) -> (f64, u64, u64) {
        self.rt = None;
        self.clock = Arc::new(ManualClock::new());
        self.tally = Tally::default();
        self.next_round = 1;
        let heap0 = alloc::snapshot().live;
        let rss0 = meter::rss();
        let started = Instant::now();
        self.rt = Some(ShardRuntime::new(shard.clone(), self.clock.clone()));
        self.fill();
        let setup_s = started.elapsed().as_secs_f64();
        let heap = alloc::snapshot().live.saturating_sub(heap0);
        (setup_s, heap, meter::rss().saturating_sub(rss0))
    }

    /// Set-up: `FILL_ROUNDS` rounds, `FILL_BATCH` at a time.
    fn fill(&mut self) {
        let Driver {
            rt,
            clock,
            sched,
            jobs,
            tally,
            tracer,
            next_round,
        } = self;
        let rt = rt.as_ref().expect("runtime built");
        while *next_round <= FILL_ROUNDS {
            let r = *next_round;
            let rounds = r..(r + FILL_BATCH).min(FILL_ROUNDS + 1);
            *next_round = rounds.end;
            clock.advance_to(sched.now(r));
            for ids in sched.ids().chunks(FILL_CHUNK) {
                sched.fill(ids, rounds.clone(), jobs);
                rt.ingest_batch(jobs);
                rt.flush();
                tally.drain(rt, tracer);
            }
        }
    }

    /// Rounds until `seconds` of wall time have passed.
    fn timed(&mut self, seconds: f64) -> Phase {
        let mut meter = PhaseMeter::start();
        let mut rounds = 0u64;
        while rounds == 0 || meter.elapsed_s() < seconds {
            self.round();
            meter.round(STREAMS as u64);
            rounds += 1;
        }
        meter.finish(rounds * STREAMS as u64)
    }
}

/// Runs `steady`.
pub fn run(args: &Args) -> Outcome {
    let detector = DetectorConfig::default();
    let interval_ns = detector.interval.0;
    let shard = ShardConfig {
        detector: detector.clone().into(),
        n_shards: 1,
        queue_capacity: STREAMS,
        ..ShardConfig::default()
    };
    let mut provenance = vec![
        format!(
            "detector={} interval_ms={}",
            detector.spec,
            interval_ns / 1_000_000
        ),
        format!(
            "margin_s={} shards=1 streams={STREAMS} clock=manual",
            detector.tuning
        ),
        format!("non_default=queue_capacity:{STREAMS}"),
    ];
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut d = Driver {
        rt: None,
        clock: Arc::new(ManualClock::new()),
        sched: Schedule::new(args.seed, STREAMS, interval_ns),
        jobs: Vec::with_capacity(STREAMS),
        tally: Tally::default(),
        tracer: Tracer::new(false),
        next_round: 1,
    };
    // Several set-ups, each freeing the previous fleet; the last one is
    // timed. The first pays the page faults, so RSS is read from it.
    let mut setups = Vec::with_capacity(SETUPS);
    let (mut heap_bytes, mut rss_bytes) = (0, 0);
    for i in 0..SETUPS {
        let (secs, heap, rss) = d.set_up(&shard);
        setups.push(secs);
        heap_bytes = heap;
        if i == 0 {
            rss_bytes = rss;
        }
    }
    let setup_s = stats::median(&setups);
    provenance.push(format!("setups_s={setups:?}"));

    let (phase, traced) = if args.trace {
        let untraced = d.timed(args.seconds / TRACE_SHARE);
        d.tracer.set_enabled(true);
        let traced = d.timed(args.seconds / TRACE_SHARE);
        (untraced, Some(traced))
    } else {
        (d.timed(args.seconds), None)
    };
    // The timed beats, the checks' extra round, and one deregistration
    // per stream.
    checks.attempted = phase.hb + traced.map_or(0, |p| p.hb) + 2 * STREAMS as u64;

    // One more round, sampling the queue right after the enqueue.
    let r = d.next_round;
    d.sched.round(r, &mut d.jobs);
    d.clock.advance_to(d.sched.now(r));
    let rt = d.rt.as_ref().expect("set up");
    rt.ingest_batch(&d.jobs);
    let queued = d.tracer.span(Layer::Shard, "stats", 1, || rt.stats());
    rt.flush();
    d.tally.drain(rt, &mut d.tracer);
    let st = d.tracer.span(Layer::Shard, "stats", 1, || rt.stats());
    checks.equal(
        "received vs applied + dropped",
        st.received(),
        st.applied() + st.dropped(),
    );
    checks.equal("dropped heartbeats", st.dropped(), 0);
    checks.equal("live streams", st.live() as u64, STREAMS as u64);
    checks.equal("suspect streams", st.suspect() as u64, 0);
    checks.equal("Trust events", d.tally.trust, STREAMS as u64);
    checks.equal("Suspect events", d.tally.suspect, 0);
    checks.equal("Recovered events", d.tally.recovered, 0);
    checks.equal("events dropped", rt.events_dropped(), 0);
    let ids = d.sched.ids();
    let removed = d
        .tracer
        .span(Layer::Shard, "deregister", STREAMS as u32, || {
            ids.iter().filter(|&&id| rt.deregister(id)).count()
        });
    checks.equal("streams deregistered", removed as u64, STREAMS as u64);
    checks.equal("streams left after deregistering all", rt.len() as u64, 0);

    if let Some(traced) = traced {
        metrics.set(
            "trace.overhead_pct",
            100.0 * ratio(phase.hb_per_s() - traced.hb_per_s(), phase.hb_per_s()),
        );
        let (_, ingest_ns) = d.tracer.total(Layer::Shard, "ingest_batch");
        let (_, flush_ns) = d.tracer.total(Layer::Shard, "flush");
        // The traced phase's rounds, plus the checks' extra round.
        let hb = (traced.hb + STREAMS as u64) as f64;
        metrics.set("shard.ingest_ns_per_hb", ratio(ingest_ns as f64, hb));
        metrics.set("shard.flush_wait_ns_per_hb", ratio(flush_ns as f64, hb));
        let (calls, ns) = d.tracer.total(Layer::Shard, "deregister");
        metrics.set("shard.deregister_ns", ratio(ns as f64, calls as f64));
        let (calls, ns) = d.tracer.total(Layer::Shard, "stats");
        metrics.set("shard.stats_us", ratio(ns as f64 / 1e3, calls as f64));
        metrics.set(
            "mem.rss_bytes_per_stream",
            rss_bytes as f64 / STREAMS as f64,
        );
        metrics.set("shard.dropped", st.dropped() as f64);
        metrics.set("shard.events_dropped", rt.events_dropped() as f64);
        let depth = queued
            .shards
            .iter()
            .map(|s| s.queue_depth)
            .max()
            .unwrap_or(0);
        metrics.set("shard.queue_depth_max", depth as f64);
        phase.fill_proc(&mut metrics);
        let Driver {
            rt,
            sched,
            mut tracer,
            ..
        } = d;
        drop(rt);
        core_replay(&sched, &mut tracer, &mut checks, &mut metrics);
        trace::set_self_times(&tracer, &mut metrics);
        return Outcome {
            checks,
            metrics,
            provenance,
            tracer: Some(tracer),
        };
    }
    metrics.set("hb_per_s", phase.median_hb_per_s());
    metrics.set("cpu_ns_per_hb", phase.median_cpu_ns_per_hb());
    metrics.set("bytes_per_stream", heap_bytes as f64 / STREAMS as f64);
    metrics.set("setup_s", setup_s);
    Outcome {
        checks,
        metrics,
        provenance,
        tracer: None,
    }
}

/// Replays the same schedule through one single-threaded `ProcessSet`:
/// the first beats alone, then the rest of the set-up the way the
/// runtime gets it, give the registration and memory figures, then
/// [`CORE_ROUNDS`] timed rounds give the apply cost.
fn core_replay(sched: &Schedule, tracer: &mut Tracer, checks: &mut Checks, metrics: &mut Metrics) {
    let mut jobs = Vec::with_capacity(STREAMS * FILL_BATCH as usize);
    let mut events = Vec::with_capacity(STREAMS);
    tracer.reserve(3 * (FILL_ROUNDS + CORE_ROUNDS) as usize);
    let heap0 = alloc::snapshot();
    let mut set = ProcessSet::new(DetectorPlan::from(DetectorConfig::default()));
    let mut apply = |set: &mut ProcessSet<u64, DetectorPlan>,
                     r: u64,
                     jobs: &[Job],
                     name,
                     tracer: &mut Tracer| {
        tracer.enter(Layer::Bench, "replay_round");
        tracer.span(Layer::Core, name, jobs.len() as u32, || {
            for &(id, seq, at, inc) in jobs {
                set.on_heartbeat_incarnated(id, inc, seq, at, &mut events);
            }
        });
        tracer.span(Layer::Core, "sweep", 1, || {
            set.sweep(sched.now(r), &mut events)
        });
        tracer.exit(1);
    };
    sched.round(1, &mut jobs);
    apply(&mut set, 1, &jobs, "first_heartbeat", tracer);
    let mut r = 2;
    while r <= FILL_ROUNDS {
        let end = (r + FILL_BATCH).min(FILL_ROUNDS + 1);
        sched.fill(sched.ids(), r..end, &mut jobs);
        apply(&mut set, r, &jobs, "fill", tracer);
        r = end;
    }
    let filled = alloc::snapshot();
    for r in FILL_ROUNDS + 1..=FILL_ROUNDS + CORE_ROUNDS {
        sched.round(r, &mut jobs);
        apply(&mut set, r, &jobs, "on_heartbeat", tracer);
    }
    let done = alloc::snapshot();
    checks.equal("replay: transitions", events.len() as u64, STREAMS as u64);
    let n = STREAMS as f64;
    let (_, first_ns) = tracer.total(Layer::Core, "first_heartbeat");
    metrics.set("core.first_hb_ns", first_ns as f64 / n);
    metrics.set(
        "core.allocs_per_stream",
        (filled.allocs - heap0.allocs) as f64 / n,
    );
    metrics.set(
        "core.heap_bytes_per_stream",
        filled.live.saturating_sub(heap0.live) as f64 / n,
    );
    let (calls, ns) = tracer.total(Layer::Core, "on_heartbeat");
    metrics.set("core.apply_ns_per_hb", ratio(ns as f64, calls as f64));
    metrics.set(
        "core.allocs_per_hb",
        ratio((done.allocs - filled.allocs) as f64, calls as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_rounds(seed: u64) -> Vec<Job> {
        let sched = Schedule::new(seed, 64, 100_000_000);
        let mut all = Vec::new();
        let mut jobs = Vec::new();
        for r in 1..4 {
            sched.round(r, &mut jobs);
            all.extend_from_slice(&jobs);
        }
        all
    }

    #[test]
    fn same_seed_same_schedule_and_different_seed_different() {
        assert_eq!(first_rounds(3), first_rounds(3));
        assert_ne!(first_rounds(3), first_rounds(4));
    }

    #[test]
    fn beats_are_on_time_and_before_the_clock() {
        let sched = Schedule::new(9, 64, 100_000_000);
        let mut jobs = Vec::new();
        sched.round(5, &mut jobs);
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 64);
        for &(_, seq, at, _) in &jobs {
            assert_eq!(seq, 5);
            assert!(at.0 >= 500_000_000 && at.0 < 500_000_000 + JITTER_NS);
            assert!(at < sched.now(5));
        }
    }
}
