//! `churn`: stream lifecycles with the observability side on.
//!
//! A seeded script keeps 4 096 lives running over an id space of 8 192
//! ids, reused first-in first-out. Each life registers, beats 6–14
//! times, and then either goes silent — Suspect at its exact horizon via
//! `sweep_now`, deregistered two ticks later — or first restarts at
//! incarnation + 1 (`Recovered`) and beats 4–10 more times before going
//! silent. Virtual time on a `ManualClock` advances one Δi per tick; one
//! shard; `ObsOptions` jitter and QoS on. Every 16 ticks the driver calls
//! `stats()` (right after the tick's `ingest_batch`), renders the
//! registry and asks `qos_verdict` for 64 live streams, inline. Set-up
//! runs until every id has lived at least once and has been live at a
//! render, so the slab, the QoS side table and the registry's
//! per-stream series are at their steady size when timing starts, and
//! for at least 192 ticks, so it does the same work whatever the seed.

use crate::report::{ratio, Checks, Metrics, Phase, PhaseMeter, Tally};
use crate::trace::{self, Layer, Tracer};
use crate::{alloc, meter, mix64, stats, Args, Outcome, TRACE_SHARE};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twofd_core::{DetectorConfig, ProcessSet, QosSpec, StreamTransition, TransitionKind};
use twofd_net::shard::{DetectorPlan, Job, ObsOptions, ShardConfig, ShardRuntime};
use twofd_net::ManualClock;
use twofd_obs::{QosOrigin, QosPlan, QosTrackerConfig};
use twofd_sim::rng::SimRng;
use twofd_sim::time::{Nanos, Span};

/// Lives running at once.
pub const POPULATION: usize = 4_096;
/// Ids the lives cycle through.
pub const ID_SPACE: usize = 8_192;
/// Ticks between inline reads (stats, render, QoS verdicts).
pub const READ_EVERY: u64 = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ticks every set-up runs at least. The script settles after 64–192
/// ticks depending on the seed (192 is the most over seeds 1–300), so
/// without this floor `setup_s` would measure the seed's luck.
const MIN_SETUP_TICKS: u64 = 192;
/// Live streams whose QoS verdict each read asks for.
const VERDICT_SAMPLE: usize = 64;
/// Arrival jitter bound within a tick.
const JITTER_NS: u64 = 500_000;
/// The clock stands this far past a tick's nominal instant.
const LEAD_NS: u64 = 1_000_000;
/// A silent life is suspected two ticks after its last beat (Δi plus
/// the Δi-sized margin) and deregistered this many ticks after it.
const DEREGISTER_AFTER: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Stage {
    #[default]
    Free,
    Beating,
    Silent,
}

/// One id's current life and the events it still owes.
#[derive(Debug, Clone, Copy, Default)]
struct Life {
    stage: Stage,
    incarnation: u32,
    seq: u64,
    beats_left: u32,
    restart_beats: Option<u32>,
    last_beat_tick: u64,
    pending_trust: Option<Nanos>,
    pending_recovered: Option<Nanos>,
    pending_suspect: Option<u64>,
}

impl Life {
    fn owes(&self) -> bool {
        self.pending_trust.is_some()
            || self.pending_recovered.is_some()
            || self.pending_suspect.is_some()
    }
}

/// One tick's operations, in the order the driver applies them.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TickPlan {
    /// The tick.
    pub tick: u64,
    /// The clock while the tick is applied.
    pub now: Nanos,
    /// Streams registered this tick (each also beats in `beats`).
    pub births: Vec<u64>,
    /// Heartbeats: continuing lives first, then births' first beats
    /// from index `first_beats_from`.
    pub beats: Vec<Job>,
    /// Index in `beats` of the first birth beat.
    pub first_beats_from: usize,
    /// Streams deregistered this tick.
    pub deregs: Vec<u64>,
    /// Whether the tick ends with a read; `sample` lists the streams
    /// whose QoS verdict it asks for.
    pub read: bool,
    /// Live streams to ask `qos_verdict` for.
    pub sample: Vec<u64>,
}

/// The seeded lifecycle script, and the expectations it derives.
pub struct Script {
    rng: SimRng,
    salt: u64,
    interval_ns: u64,
    free: VecDeque<u32>,
    lives: Vec<Life>,
    active: usize,
    tick: u64,
    births_open: bool,
    /// Events the script has promised so far.
    pub expected: Tally,
    /// Events owed but never seen, counted when an id's next life starts.
    pub missed: u64,
    births: usize,
    rendered: Vec<bool>,
    unrendered: usize,
}

impl Script {
    /// The script for `seed`; ticks are `interval_ns` apart.
    pub fn new(seed: u64, interval_ns: u64) -> Script {
        let mut rng = SimRng::seed_from_u64(seed ^ 0xC0FF_EE00);
        let mut order: Vec<u32> = (0..ID_SPACE as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Script {
            rng,
            salt: mix64(seed) & 0xFFFF_FFFF,
            interval_ns,
            free: order.into(),
            lives: vec![Life::default(); ID_SPACE],
            active: 0,
            tick: 1,
            births_open: true,
            expected: Tally::default(),
            missed: 0,
            births: 0,
            rendered: vec![false; ID_SPACE],
            unrendered: ID_SPACE,
        }
    }

    fn id(&self, k: usize) -> u64 {
        (self.salt << 32) | k as u64
    }

    fn index(&self, id: u64) -> Option<usize> {
        let k = (id & 0xFFFF_FFFF) as usize;
        (id >> 32 == self.salt && k < ID_SPACE).then_some(k)
    }

    fn arrival(&self, tick: u64, id: u64, seq: u64) -> Nanos {
        let jitter = mix64(self.salt ^ id ^ (tick << 20) ^ seq) % JITTER_NS;
        Nanos(tick * self.interval_ns + jitter)
    }

    /// True once every id has lived and has been live at a read: the
    /// set-up's end.
    pub fn settled(&self) -> bool {
        self.births >= ID_SPACE && self.unrendered == 0
    }

    /// Stops starting lives; running ones finish.
    pub fn close(&mut self) {
        self.births_open = false;
    }

    /// Lives not yet ended.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Fills `plan` with the next tick.
    pub fn next(&mut self, plan: &mut TickPlan) {
        let t = self.tick;
        self.tick += 1;
        plan.tick = t;
        plan.now = Nanos(t * self.interval_ns + LEAD_NS);
        plan.births.clear();
        plan.beats.clear();
        plan.deregs.clear();
        plan.sample.clear();
        for k in 0..ID_SPACE {
            let id = self.id(k);
            let life = self.lives[k];
            match life.stage {
                Stage::Free => {}
                Stage::Silent => {
                    if t == life.last_beat_tick + DEREGISTER_AFTER {
                        plan.deregs.push(id);
                        self.lives[k].stage = Stage::Free;
                        self.free.push_back(k as u32);
                        self.active -= 1;
                    }
                }
                Stage::Beating if life.beats_left > 0 => {
                    let at = self.arrival(t, id, life.seq);
                    plan.beats.push((id, life.seq, at, life.incarnation));
                    let l = &mut self.lives[k];
                    l.seq += 1;
                    l.beats_left -= 1;
                    l.last_beat_tick = t;
                }
                Stage::Beating => match life.restart_beats {
                    Some(n) => {
                        let at = self.arrival(t, id, 0);
                        plan.beats.push((id, 0, at, life.incarnation + 1));
                        let l = &mut self.lives[k];
                        l.incarnation += 1;
                        l.seq = 1;
                        l.beats_left = n - 1;
                        l.restart_beats = None;
                        l.last_beat_tick = t;
                        l.pending_recovered = Some(at);
                        self.expected.recovered += 1;
                    }
                    None => {
                        let l = &mut self.lives[k];
                        l.stage = Stage::Silent;
                        l.pending_suspect = Some(l.last_beat_tick + 2);
                        self.expected.suspect += 1;
                    }
                },
            }
        }
        plan.first_beats_from = plan.beats.len();
        while self.births_open && self.active < POPULATION {
            let Some(k) = self.free.pop_front() else {
                break;
            };
            let k = k as usize;
            let id = self.id(k);
            if self.lives[k].owes() {
                self.missed += 1;
            }
            let beats = 6 + self.rng.below(9) as u32;
            let restart_beats = self.rng.chance(0.5).then(|| 4 + self.rng.below(7) as u32);
            let at = self.arrival(t, id, 0);
            self.lives[k] = Life {
                stage: Stage::Beating,
                incarnation: 0,
                seq: 1,
                beats_left: beats - 1,
                restart_beats,
                last_beat_tick: t,
                pending_trust: Some(at),
                pending_recovered: None,
                pending_suspect: None,
            };
            self.expected.trust += 1;
            self.births += 1;
            plan.births.push(id);
            plan.beats.push((id, 0, at, 0));
            self.active += 1;
        }
        plan.read = t.is_multiple_of(READ_EVERY);
        if plan.read {
            for k in 0..ID_SPACE {
                if self.lives[k].stage == Stage::Free {
                    continue;
                }
                if !self.rendered[k] {
                    self.rendered[k] = true;
                    self.unrendered -= 1;
                }
                if plan.sample.len() < VERDICT_SAMPLE && self.lives[k].stage == Stage::Beating {
                    plan.sample.push(self.id(k));
                }
            }
        }
    }

    /// Matches one published transition against what the script owes;
    /// an event nobody owes, or owed with another timestamp, is an error.
    pub fn on_event(&mut self, e: &StreamTransition<u64>) -> Result<(), String> {
        let k = self
            .index(e.key)
            .ok_or_else(|| format!("event for unknown stream {:#x}", e.key))?;
        let interval = self.interval_ns;
        let life = &mut self.lives[k];
        let ok = match e.kind {
            TransitionKind::Trust => life.pending_trust.take() == Some(e.at),
            TransitionKind::Recovered => life.pending_recovered.take() == Some(e.at),
            TransitionKind::Suspect => life.pending_suspect.take().is_some_and(|tick| {
                // Horizon = max(EA) + margin = (last beat tick + 2)·Δi
                // plus the last beats' jitter.
                e.at.0 >= tick * interval && e.at.0 < tick * interval + JITTER_NS
            }),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "unexpected {:?} of stream {k} at {} ns",
                e.kind, e.at.0
            ))
        }
    }

    /// Events still owed.
    pub fn owed(&self) -> u64 {
        self.lives.iter().filter(|l| l.owes()).count() as u64
    }
}

fn qos(interval: Span) -> QosTrackerConfig {
    QosTrackerConfig {
        spec: Some(QosSpec::new(1.0, 60.0, 1.0)),
        interval,
        window: Span::from_secs(60),
        origin: QosOrigin::Auto,
    }
}

struct Driver {
    rt: ShardRuntime,
    clock: Arc<ManualClock>,
    script: Script,
    plan: TickPlan,
    tracer: Tracer,
    tally: Tally,
    checks: Checks,
    series: usize,
    queue_depth_max: usize,
    registered: u64,
    deregistered: u64,
}

impl Driver {
    /// Runs one tick; returns the heartbeats it sent.
    fn tick(&mut self) -> u64 {
        let Driver {
            rt,
            clock,
            script,
            plan,
            tracer,
            tally,
            checks,
            series,
            queue_depth_max,
            registered,
            deregistered,
        } = self;
        script.next(plan);
        tracer.enter(Layer::Bench, "tick");
        clock.advance_to(plan.now);
        let births = &plan.births;
        tracer.span(Layer::Shard, "register", births.len() as u32, || {
            births.iter().for_each(|&id| rt.register(id))
        });
        *registered += births.len() as u64;
        tracer.span(Layer::Shard, "ingest_batch", 1, || {
            rt.ingest_batch(&plan.beats)
        });
        if plan.read {
            // Right after the enqueue, so the queue depth it samples is
            // the tick's backlog.
            let st = tracer.span(Layer::Shard, "stats", 1, || rt.stats());
            let depth = st.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0);
            *queue_depth_max = (*queue_depth_max).max(depth);
        }
        tracer.span(Layer::Shard, "flush", 1, || rt.flush());
        tracer.span(Layer::Shard, "sweep_now", 1, || rt.sweep_now());
        drain(rt, script, tally, checks, tracer);
        let deregs = &plan.deregs;
        let removed = tracer.span(Layer::Shard, "deregister", deregs.len() as u32, || {
            deregs.iter().filter(|&&id| rt.deregister(id)).count()
        });
        *deregistered += removed as u64;
        checks.equal(
            "deregistered this tick",
            removed as u64,
            deregs.len() as u64,
        );
        if plan.read {
            let text = tracer.span(Layer::Obs, "render", 1, || rt.registry().render());
            *series = text
                .lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count();
            let sample = &plan.sample;
            let judged = tracer.span(Layer::Obs, "qos_verdict", sample.len() as u32, || {
                sample
                    .iter()
                    .filter(|&&id| rt.qos_verdict(id).is_some())
                    .count()
            });
            checks.equal(
                "QoS verdicts for live streams",
                judged as u64,
                sample.len() as u64,
            );
        }
        tracer.exit(1);
        plan.beats.len() as u64
    }

    fn timed(&mut self, seconds: f64) -> (Phase, u64) {
        let mut meter = PhaseMeter::start();
        let (mut hb, mut ticks) = (0, 0);
        while ticks == 0 || meter.elapsed_s() < seconds {
            let n = self.tick();
            meter.round(n);
            hb += n;
            ticks += 1;
        }
        (meter.finish(hb), ticks)
    }
}

fn drain(
    rt: &ShardRuntime,
    script: &mut Script,
    tally: &mut Tally,
    checks: &mut Checks,
    tracer: &mut Tracer,
) {
    tracer.enter(Layer::Events, "try_recv");
    let mut n = 0;
    while let Ok(e) = rt.events().try_recv() {
        tally.count(e.kind);
        if let Err(msg) = script.on_event(&e) {
            checks.expect(false, 1, || msg);
        }
        n += 1;
    }
    tracer.exit(n);
}

/// Runs `churn`.
pub fn run(args: &Args) -> Outcome {
    let detector = DetectorConfig::default();
    let interval = detector.interval;
    let shard = ShardConfig {
        detector: detector.clone().into(),
        n_shards: 1,
        queue_capacity: POPULATION,
        obs: ObsOptions {
            jitter: true,
            qos: Some(QosPlan::Uniform(qos(interval))),
        },
        ..ShardConfig::default()
    };
    let mut provenance = vec![
        format!(
            "detector={} interval_ms={}",
            detector.spec,
            interval.0 / 1_000_000
        ),
        format!(
            "margin_s={} shards=1 population={POPULATION} id_space={ID_SPACE}",
            detector.tuning
        ),
        format!("clock=manual obs=jitter+qos read_every_ticks={READ_EVERY}"),
        format!("non_default=queue_capacity:{POPULATION}"),
    ];
    // Several set-ups, each freeing the previous runtime; the last one is
    // timed. The first pays the page faults, so RSS is read from it.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut d: Option<Driver> = None;
    let mut checks = Checks::default();
    let (mut sent, mut lifecycle_ops) = (0u64, 0u64);
    let (mut heap_bytes, mut rss_bytes, mut resident, mut setup_ticks) = (0, 0, 1.0, 0u64);
    for i in 0..SETUPS {
        if let Some(old) = d.take() {
            lifecycle_ops += old.registered + old.deregistered;
            checks = old.checks;
        }
        let clock = Arc::new(ManualClock::new());
        let mut plan = TickPlan::default();
        plan.beats.reserve(POPULATION);
        plan.births.reserve(POPULATION);
        plan.deregs.reserve(POPULATION);
        let script = Script::new(args.seed, interval.0);
        let heap0 = alloc::snapshot().live;
        let rss0 = meter::rss();
        let started = Instant::now();
        let mut drv = Driver {
            rt: ShardRuntime::new(shard.clone(), clock.clone()),
            clock,
            script,
            plan,
            tracer: Tracer::new(false),
            tally: Tally::default(),
            checks: std::mem::take(&mut checks),
            series: 0,
            queue_depth_max: 0,
            registered: 0,
            deregistered: 0,
        };
        setup_ticks = 0;
        while !drv.script.settled() || setup_ticks < MIN_SETUP_TICKS {
            sent += drv.tick();
            setup_ticks += 1;
        }
        setups.push(started.elapsed().as_secs_f64());
        resident = drv.rt.len().max(1) as f64;
        heap_bytes = alloc::snapshot().live.saturating_sub(heap0);
        if i == 0 {
            rss_bytes = meter::rss().saturating_sub(rss0);
        }
        d = Some(drv);
    }
    let setup_s = stats::median(&setups);
    provenance.push(format!("setups_s={setups:?} setup_ticks={setup_ticks}"));
    let mut d = d.expect("at least one set-up");

    let (phase, untraced_ticks, traced) = if args.trace {
        let (untraced, ticks) = d.timed(args.seconds / TRACE_SHARE);
        d.tracer.set_enabled(true);
        let (traced, _) = d.timed(args.seconds / TRACE_SHARE);
        (untraced, ticks, Some(traced))
    } else {
        let (phase, ticks) = d.timed(args.seconds);
        (phase, ticks, None)
    };
    sent += phase.hb + traced.map_or(0, |p| p.hb);

    // Wind down: no new lives; every running one ends and is removed.
    d.script.close();
    while d.script.active() > 0 {
        sent += d.tick();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let published = d.rt.stats().transitions();
        let received = d.tally.trust + d.tally.suspect + d.tally.recovered;
        if received >= published || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        drain(
            &d.rt,
            &mut d.script,
            &mut d.tally,
            &mut d.checks,
            &mut d.tracer,
        );
    }
    let st = d.rt.stats();
    let mut checks = std::mem::take(&mut d.checks);
    checks.attempted = sent + lifecycle_ops + d.registered + d.deregistered;
    checks.equal("Trust events", d.tally.trust, d.script.expected.trust);
    checks.equal("Suspect events", d.tally.suspect, d.script.expected.suspect);
    checks.equal(
        "Recovered events",
        d.tally.recovered,
        d.script.expected.recovered,
    );
    checks.equal("events still owed", d.script.owed() + d.script.missed, 0);
    checks.equal("events dropped", d.rt.events_dropped(), 0);
    checks.equal("dropped heartbeats", st.dropped(), 0);
    checks.equal(
        "received vs applied + dropped",
        st.received(),
        st.applied() + st.dropped(),
    );
    checks.equal("streams left after every life ended", d.rt.len() as u64, 0);

    let mut metrics = Metrics::default();
    if let Some(traced) = traced {
        let t = &d.tracer;
        metrics.set(
            "trace.overhead_pct",
            100.0 * ratio(phase.hb_per_s() - traced.hb_per_s(), phase.hb_per_s()),
        );
        let per_call = |name, scale: f64| {
            let (calls, ns) = t.total(Layer::Shard, name);
            ratio(ns as f64 / scale, calls as f64)
        };
        metrics.set("shard.register_ns", per_call("register", 1.0));
        metrics.set("shard.deregister_ns", per_call("deregister", 1.0));
        metrics.set("shard.sweep_now_us", per_call("sweep_now", 1e3));
        metrics.set("shard.stats_us", per_call("stats", 1e3));
        let (_, ingest_ns) = t.total(Layer::Shard, "ingest_batch");
        let (_, flush_ns) = t.total(Layer::Shard, "flush");
        metrics.set(
            "shard.ingest_ns_per_hb",
            ratio(ingest_ns as f64, traced.hb as f64),
        );
        metrics.set(
            "shard.flush_wait_ns_per_hb",
            ratio(flush_ns as f64, traced.hb as f64),
        );
        let (calls, ns) = t.total(Layer::Obs, "render");
        metrics.set("obs.render_us", ratio(ns as f64 / 1e3, calls as f64));
        let (calls, ns) = t.total(Layer::Obs, "qos_verdict");
        metrics.set("obs.qos_verdict_ns", ratio(ns as f64, calls as f64));
        metrics.set("obs.series", d.series as f64);
        metrics.set("mem.rss_bytes_per_stream", rss_bytes as f64 / resident);
        metrics.set("shard.dropped", st.dropped() as f64);
        metrics.set("shard.events_dropped", d.rt.events_dropped() as f64);
        metrics.set("shard.queue_depth_max", d.queue_depth_max as f64);
        phase.fill_proc(&mut metrics);
        let mut tracer = d.tracer;
        drop(d.rt);
        core_replay(
            args.seed,
            interval.0,
            setup_ticks + untraced_ticks,
            setup_ticks,
            &mut tracer,
            &mut checks,
            &mut metrics,
        );
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
    metrics.set("bytes_per_stream", heap_bytes as f64 / resident);
    metrics.set("setup_s", setup_s);
    Outcome {
        checks,
        metrics,
        provenance,
        tracer: None,
    }
}

/// Replays the first `ticks` ticks of the same script through one
/// single-threaded `ProcessSet` (no obs side), checking its events
/// against the script too. Memory figures are taken after
/// `setup_ticks`; timing figures over the ticks after them.
fn core_replay(
    seed: u64,
    interval_ns: u64,
    ticks: u64,
    setup_ticks: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let mut script = Script::new(seed, interval_ns);
    let mut plan = TickPlan::default();
    let mut events = Vec::with_capacity(POPULATION);
    tracer.reserve(4 * ticks as usize);
    let heap0 = alloc::snapshot();
    let mut set = ProcessSet::new(DetectorPlan::from(DetectorConfig::default()));
    let (mut births, mut birth_allocs, mut hb, mut hb_allocs, mut expiries) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut heap_per_stream = 0.0;
    for t in 0..ticks {
        let timed = t >= setup_ticks;
        script.next(&mut plan);
        tracer.enter(Layer::Bench, "replay_tick");
        let (continuing, first) = plan.beats.split_at(plan.first_beats_from);
        let a0 = alloc::thread_snapshot().0;
        tracer.span(Layer::Core, "on_heartbeat", continuing.len() as u32, || {
            for &(id, seq, at, inc) in continuing {
                set.on_heartbeat_incarnated(id, inc, seq, at, &mut events);
            }
        });
        let a1 = alloc::thread_snapshot().0;
        tracer.span(Layer::Core, "first_heartbeat", first.len() as u32, || {
            for &id in &plan.births {
                set.register(id);
            }
            for &(id, seq, at, inc) in first {
                set.on_heartbeat_incarnated(id, inc, seq, at, &mut events);
            }
        });
        let a2 = alloc::thread_snapshot().0;
        let before = events.len();
        tracer.span(Layer::Core, "sweep", 1, || set.sweep(plan.now, &mut events));
        let swept = (events.len() - before) as u64;
        for &id in &plan.deregs {
            set.deregister(&id);
        }
        tracer.exit(1);
        for e in events.drain(..) {
            if let Err(msg) = script.on_event(&e) {
                checks.expect(false, 1, || format!("replay: {msg}"));
            }
        }
        if timed {
            hb += continuing.len() as u64;
            hb_allocs += a1 - a0;
            births += first.len() as u64;
            birth_allocs += a2 - a1;
            expiries += swept;
        }
        if t + 1 == setup_ticks {
            let live = alloc::snapshot().live.saturating_sub(heap0.live);
            heap_per_stream = live as f64 / set.len().max(1) as f64;
        }
    }
    let (_, apply_ns) = tracer.total(Layer::Core, "on_heartbeat");
    let (_, first_ns) = tracer.total(Layer::Core, "first_heartbeat");
    let (_, sweep_ns) = tracer.total(Layer::Core, "sweep");
    metrics.set("core.heap_bytes_per_stream", heap_per_stream);
    metrics.set("core.apply_ns_per_hb", ratio(apply_ns as f64, hb as f64));
    metrics.set("core.allocs_per_hb", ratio(hb_allocs as f64, hb as f64));
    metrics.set("core.first_hb_ns", ratio(first_ns as f64, births as f64));
    metrics.set(
        "core.allocs_per_stream",
        ratio(birth_allocs as f64, births as f64),
    );
    metrics.set(
        "core.sweep_ns_per_expiry",
        ratio(sweep_ns as f64, expiries as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plans(seed: u64, ticks: usize) -> Vec<TickPlan> {
        let mut s = Script::new(seed, 100_000_000);
        (0..ticks)
            .map(|_| {
                let mut p = TickPlan::default();
                s.next(&mut p);
                p
            })
            .collect()
    }

    #[test]
    fn same_seed_same_script_and_different_seed_different() {
        assert_eq!(plans(5, 40), plans(5, 40));
        assert_ne!(plans(5, 40), plans(6, 40));
    }

    #[test]
    fn every_seed_settles_within_the_set_up_floor() {
        let mut plan = TickPlan::default();
        let most = (1..=300u64)
            .map(|seed| {
                let mut s = Script::new(seed, 100_000_000);
                let mut ticks = 0u64;
                while !s.settled() {
                    s.next(&mut plan);
                    ticks += 1;
                }
                ticks
            })
            .max();
        assert_eq!(most, Some(MIN_SETUP_TICKS));
    }

    #[test]
    fn script_settles_and_winds_down_owing_nothing_to_a_bare_process_set() {
        let mut s = Script::new(2, 100_000_000);
        let mut set = ProcessSet::new(DetectorPlan::from(DetectorConfig::default()));
        let mut plan = TickPlan::default();
        let mut events = Vec::new();
        let mut step = |s: &mut Script| {
            s.next(&mut plan);
            for &id in &plan.births {
                set.register(id);
            }
            for &(id, seq, at, inc) in &plan.beats {
                set.on_heartbeat_incarnated(id, inc, seq, at, &mut events);
            }
            set.sweep(plan.now, &mut events);
            for &id in &plan.deregs {
                assert!(set.deregister(&id));
            }
            for e in events.drain(..) {
                s.on_event(&e).expect("owed event");
            }
        };
        let mut ticks = 0;
        while !s.settled() {
            step(&mut s);
            ticks += 1;
            assert!(ticks < 2_000, "set-up never settles");
        }
        s.close();
        while s.active() > 0 {
            step(&mut s);
        }
        assert_eq!(s.owed() + s.missed, 0);
        assert!(s.expected.recovered > 0 && s.expected.suspect == s.expected.trust);
    }
}
