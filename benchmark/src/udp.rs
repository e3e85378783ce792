//! `udp`: the live monitor on loopback.
//!
//! A `FleetMonitor` with batched `recvmmsg` intake, 2 shards and a
//! `MonotonicClock` shared with the driver. The driver is both the
//! open-loop sender — 240 streams at Δi = 5.6 ms (42.9 k heartbeats/s,
//! below capacity), each datagram sent at an absolute due time with
//! `sendmmsg` from one socket, every 500 µs — and the event consumer.
//! Set-up runs 1 024 beats per stream in real time (about 5.7 s), filling
//! every window past n2 = 1000. In the timed phase 6 seeded streams pause for
//! 400 ms each second; every pause must yield exactly one Suspect and
//! then one Trust.

use crate::report::{ratio, Checks, Metrics, Phase, PhaseMeter};
use crate::trace::{self, Layer, Tracer};
use crate::{alloc, meter, mix64, stats, Args, Outcome, TRACE_SHARE};
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};
use twofd_core::{DetectorConfig, DetectorSpec, ProcessSet, TransitionKind};
use twofd_net::shard::{DetectorPlan, ShardConfig};
use twofd_net::{
    intake, FleetMonitor, Heartbeat, IntakeMode, MonotonicClock, TimeSource, WIRE_SIZE,
};
use twofd_obs::Histogram;
use twofd_sim::rng::SimRng;
use twofd_sim::time::{Nanos, Span};

/// Streams sending. Every horizon (Δi + Δto) lies past the timing
/// wheel's 67 ms level 0, so it is filed in a level-1 bucket whatever
/// the worker's lag, and such a bucket peaks at 1.3–1.9 entries per
/// stream of its shard. At about 120 streams per shard that stays
/// between the 128- and 256-entry steps of the bucket's capacity, which
/// it keeps, so `bytes_per_stream` hardly moves with scheduling.
pub const STREAMS: usize = 240;
/// Heartbeat interval Δi.
pub const INTERVAL_NS: u64 = 5_600_000;
/// Safety margin Δto. The host has stalled the whole guest for more than
/// 50 ms, which suspected every stream at once under a 50 ms margin.
const MARGIN_S: f64 = 0.2;
/// Beats per stream in set-up: past n2 = 1000.
pub const FILL_BEATS: u64 = 1_024;
/// The driver's tick: it sends what is due, drains events, sleeps.
const TICK_NS: u64 = 500_000;
/// Streams that pause in each second of a timed phase.
const PAUSES_PER_S: usize = 6;
/// Length of a pause: well past Δi + Δto.
const PAUSE_NS: u64 = 400_000_000;
/// Shards of the runtime.
const SHARDS: usize = 2;
/// Datagrams encoded and sent per `send_batch` call at most.
const SEND_CHUNK: usize = 64;
/// Per-shard queue capacity. The default 1 024 entries are about 48 ms
/// of heartbeats per shard here, and a host stall that long drops the
/// oldest ones; 8 192 is about 0.4 s.
const QUEUE_CAPACITY: usize = 8_192;
/// How often the driver samples `stats()` for queue depths.
const STATS_EVERY_NS: u64 = 100_000_000;

fn detector() -> DetectorConfig {
    DetectorConfig::new(
        DetectorSpec::TwoWindow { n1: 1, n2: 1000 },
        Span(INTERVAL_NS),
        MARGIN_S,
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PauseState {
    Waiting,
    Suspected,
    Done,
}

/// One pause of one stream, and what was seen of it.
#[derive(Debug, Clone, Copy)]
pub struct Pause {
    start: u64,
    end: u64,
    state: PauseState,
    /// Send instant of the first beat after the pause.
    resumed_at: Option<u64>,
}

/// The seeded sender schedule: per-stream phase offsets and pauses.
pub struct Schedule {
    salt: u64,
    seed: u64,
    t0: u64,
    phase: Vec<u64>,
    next_k: Vec<u64>,
    pauses: Vec<Pause>,
    by_stream: Vec<Vec<usize>>,
}

impl Schedule {
    /// Streams start beating at `t0` on the shared clock.
    pub fn new(seed: u64, t0: u64) -> Schedule {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x0D06_F00D);
        Schedule {
            salt: mix64(seed) & 0xFFFF_FFFF,
            seed,
            t0,
            phase: (0..STREAMS).map(|_| rng.below(INTERVAL_NS)).collect(),
            next_k: vec![0; STREAMS],
            pauses: Vec::new(),
            by_stream: vec![Vec::new(); STREAMS],
        }
    }

    /// The wire id of stream `s`.
    pub fn id(&self, s: usize) -> u64 {
        (self.salt << 32) | s as u64
    }

    fn index(&self, id: u64) -> Option<usize> {
        let s = (id & 0xFFFF_FFFF) as usize;
        (id >> 32 == self.salt && s < STREAMS).then_some(s)
    }

    fn due(&self, s: usize, k: u64) -> u64 {
        self.t0 + self.phase[s] + k * INTERVAL_NS
    }

    /// Adds the pauses of timed phase `phase`, which starts at `start`
    /// and lasts `seconds`: in each whole second, `PAUSES_PER_S`
    /// distinct streams pause once, all pauses ending inside the phase.
    pub fn add_pauses(&mut self, phase: u64, start: u64, seconds: f64) {
        let mut rng = SimRng::seed_from_u64(self.seed ^ mix64(phase + 1));
        let end = start + (seconds * 1e9) as u64;
        for j in 0.. {
            let second = start + j * 1_000_000_000;
            if second + 1_000_000_000 > end.max(start + 1_000_000_000) {
                break;
            }
            let mut streams: Vec<usize> = (0..STREAMS).collect();
            for i in 0..PAUSES_PER_S {
                let pick = i + rng.below((STREAMS - i) as u64) as usize;
                streams.swap(i, pick);
                let from = second + 50_000_000 + rng.below(900_000_000 - PAUSE_NS);
                let s = streams[i];
                self.by_stream[s].push(self.pauses.len());
                self.pauses.push(Pause {
                    start: from,
                    end: from + PAUSE_NS,
                    state: PauseState::Waiting,
                    resumed_at: None,
                });
            }
        }
    }

    /// Appends every beat due by `now` as `(stream, seq, due)`, skipping
    /// paused ones, at most `limit` of them.
    pub fn due_beats(&mut self, now: u64, limit: usize, out: &mut Vec<(usize, u64, u64)>) {
        for s in 0..STREAMS {
            loop {
                if out.len() >= limit {
                    return;
                }
                let k = self.next_k[s];
                let due = self.due(s, k);
                if due > now {
                    break;
                }
                self.next_k[s] += 1;
                let paused = self.by_stream[s]
                    .iter()
                    .any(|&p| self.pauses[p].start <= due && due < self.pauses[p].end);
                if !paused {
                    out.push((s, k + 1, due));
                }
            }
        }
    }

    /// Notes that the beat of stream `s` due at `due` was sent at `sent`:
    /// the first beat after a pause starts that pause's Trust latency.
    pub fn note_sent(&mut self, s: usize, due: u64, sent: u64) {
        for &p in &self.by_stream[s] {
            let pause = &mut self.pauses[p];
            if pause.end <= due && pause.resumed_at.is_none() {
                pause.resumed_at = Some(sent);
            }
        }
    }

    /// Matches one event against the pauses. Returns the latency it
    /// closes, µs, as `(is_suspect, latency)`.
    fn on_event(
        &mut self,
        kind: TransitionKind,
        id: u64,
        at: u64,
        receipt: u64,
        initial: &mut [bool],
    ) -> Result<Option<(bool, f64)>, String> {
        let s = self
            .index(id)
            .ok_or_else(|| format!("event for unknown stream {id:#x}"))?;
        let next = self.by_stream[s]
            .iter()
            .copied()
            .find(|&p| self.pauses[p].state != PauseState::Done);
        match (kind, next) {
            (TransitionKind::Trust, _) if !initial[s] => {
                initial[s] = true;
                Ok(None)
            }
            (TransitionKind::Suspect, Some(p))
                if self.pauses[p].state == PauseState::Waiting
                    && self.pauses[p].start < at
                    && at < self.pauses[p].end =>
            {
                self.pauses[p].state = PauseState::Suspected;
                Ok(Some((true, receipt.saturating_sub(at) as f64 / 1e3)))
            }
            (TransitionKind::Trust, Some(p))
                if self.pauses[p].state == PauseState::Suspected && at >= self.pauses[p].end =>
            {
                self.pauses[p].state = PauseState::Done;
                let sent = self.pauses[p].resumed_at.unwrap_or(at);
                Ok(Some((false, receipt.saturating_sub(sent) as f64 / 1e3)))
            }
            _ => Err(format!("unexpected {kind:?} of stream {s} at {at} ns")),
        }
    }

    /// Pauses not yet closed by a Trust.
    pub fn open_pauses(&self) -> usize {
        self.pauses
            .iter()
            .filter(|p| p.state != PauseState::Done)
            .count()
    }

    /// The end of the last pause.
    pub fn last_pause_end(&self) -> u64 {
        self.pauses.iter().map(|p| p.end).max().unwrap_or(0)
    }
}

/// Latency samples of the live publication path, µs.
#[derive(Default)]
struct Latencies {
    detect: Vec<f64>,
    trust: Vec<f64>,
    late: Vec<f64>,
}

struct Driver {
    monitor: FleetMonitor,
    clock: Arc<MonotonicClock>,
    socket: UdpSocket,
    sched: Schedule,
    tracer: Tracer,
    checks: Checks,
    lat: Latencies,
    initial: Vec<bool>,
    due: Vec<(usize, u64, u64)>,
    bufs: Vec<[u8; WIRE_SIZE]>,
    sent: u64,
    queue_depth_max: usize,
    next_stats: u64,
    next_tick: u64,
}

impl Driver {
    /// One driver tick: send what is due, drain events, sample stats,
    /// then sleep to the next tick boundary.
    fn tick(&mut self) {
        let now = self.clock.now().0;
        self.tracer.enter(Layer::Bench, "tick");
        loop {
            self.due.clear();
            self.sched.due_beats(now, SEND_CHUNK, &mut self.due);
            if self.due.is_empty() {
                break;
            }
            self.send_due(now);
        }
        self.drain();
        if now >= self.next_stats {
            self.next_stats = now + STATS_EVERY_NS;
            let monitor = &self.monitor;
            let st = self
                .tracer
                .span(Layer::Shard, "stats", 1, || monitor.stats());
            let depth = st.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0);
            self.queue_depth_max = self.queue_depth_max.max(depth);
        }
        self.tracer.exit(1);
        self.next_tick = self.next_tick.max(now) + TICK_NS;
        let wait = self.next_tick.saturating_sub(self.clock.now().0);
        if wait > 0 {
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }

    fn send_due(&mut self, now: u64) {
        let Driver {
            socket,
            sched,
            tracer,
            checks,
            lat,
            due,
            bufs,
            sent,
            clock,
            ..
        } = self;
        let n = due.len();
        tracer.span(Layer::Wire, "encode_into", n as u32, || {
            for (buf, &(s, seq, at)) in bufs.iter_mut().zip(due.iter()) {
                let hb = Heartbeat {
                    stream: sched.id(s),
                    seq,
                    sent_at: Nanos(at),
                    incarnation: 0,
                };
                hb.encode_into(buf);
            }
        });
        let bad = tracer.span(Layer::Wire, "decode", n as u32, || {
            bufs.iter()
                .zip(due.iter())
                .filter(|(buf, &(s, seq, at))| {
                    Heartbeat::decode(&buf[..]).map(|hb| (hb.stream, hb.seq, hb.sent_at.0))
                        != Ok((sched.id(s), seq, at))
                })
                .count()
        });
        checks.equal(
            "datagrams that do not decode to what was encoded",
            bad as u64,
            0,
        );
        let mut slices: [&[u8]; SEND_CHUNK] = [&[]; SEND_CHUNK];
        for (slot, buf) in slices.iter_mut().zip(bufs.iter()) {
            *slot = &buf[..];
        }
        let accepted = tracer.span(Layer::Intake, "send_batch", 1, || {
            intake::send_batch(socket, &slices[..n]).unwrap_or(0)
        });
        *sent += accepted as u64;
        checks.equal("datagrams the socket refused", (n - accepted) as u64, 0);
        let sent_at = clock.now().0;
        let earliest = due.iter().map(|d| d.2).min().unwrap_or(now);
        lat.late.push(sent_at.saturating_sub(earliest) as f64 / 1e3);
        for &(s, _, at) in due.iter() {
            sched.note_sent(s, at, sent_at);
        }
    }

    fn drain(&mut self) {
        self.tracer.enter(Layer::Events, "try_recv");
        let mut n = 0;
        while let Ok(e) = self.monitor.events().try_recv() {
            n += 1;
            let receipt = self.clock.now().0;
            match self
                .sched
                .on_event(e.kind, e.key, e.at.0, receipt, &mut self.initial)
            {
                Ok(Some((true, us))) => self.lat.detect.push(us),
                Ok(Some((false, us))) => self.lat.trust.push(us),
                Ok(None) => {}
                Err(msg) => self.checks.expect(false, 1, || msg),
            }
        }
        self.tracer.exit(n);
    }

    fn run_until(&mut self, deadline: u64) {
        while self.clock.now().0 < deadline {
            self.tick();
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.monitor.registry().counter(name, "").get()
    }

    fn sweep_buckets(&self) -> Vec<u64> {
        let vec = self.monitor.registry().histogram_vec(
            "twofd_sweep_duration_seconds",
            "Wall-clock duration of each expiry sweep",
            &["shard"],
        );
        let mut total = vec![0u64; Histogram::bucket_upper_bounds().len() + 1];
        for i in 0..SHARDS {
            for (t, c) in total
                .iter_mut()
                .zip(vec.with(&[&i.to_string()]).bucket_counts())
            {
                *t += c;
            }
        }
        total
    }

    /// A timed phase of `seconds`, with its pauses.
    fn timed(&mut self, phase: u64, seconds: f64) -> (Phase, u64, u64) {
        let start = self.clock.now().0;
        self.sched.add_pauses(phase, start, seconds);
        let applied0 = self.monitor.stats().applied();
        let (b0, d0) = (
            self.counter("twofd_intake_batches_total"),
            self.counter("twofd_intake_datagrams_total"),
        );
        let meter = PhaseMeter::start();
        self.run_until(start + (seconds * 1e9) as u64);
        let hb = self.monitor.stats().applied() - applied0;
        let batches = self.counter("twofd_intake_batches_total") - b0;
        let dgrams = self.counter("twofd_intake_datagrams_total") - d0;
        (meter.finish(hb), batches, dgrams)
    }
}

/// Runs `udp`.
pub fn run(args: &Args) -> Outcome {
    let detector = detector();
    let config = ShardConfig {
        detector: detector.clone().into(),
        n_shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        ..ShardConfig::default()
    };
    let provenance = vec![
        format!(
            "detector={} interval_ms={} margin_s={MARGIN_S}",
            detector.spec,
            INTERVAL_NS as f64 / 1e6
        ),
        format!("shards={SHARDS} streams={STREAMS} clock=monotonic intake=batched"),
        format!(
            "pauses_per_s={PAUSES_PER_S} pause_ms={} non_default=queue_capacity:{QUEUE_CAPACITY}",
            PAUSE_NS / 1_000_000
        ),
    ];
    let mut checks = Checks::default();
    let clock = Arc::new(MonotonicClock::new());
    let bufs = vec![[0u8; WIRE_SIZE]; SEND_CHUNK];
    // Sized up front so the timed phase does not grow them: one lateness
    // sample per tick (set-up, phases and wind-down take under
    // `seconds + 10` s), one latency pair per pause.
    let mut lat = Latencies::default();
    let ticks = ((args.seconds + 10.0) * 1e9) as usize / TICK_NS as usize;
    let pauses = PAUSES_PER_S * (args.seconds as usize + 2);
    lat.late.reserve(ticks);
    lat.detect.reserve(pauses);
    lat.trust.reserve(pauses);
    let socket = match UdpSocket::bind(("127.0.0.1", 0)) {
        Ok(s) => s,
        Err(e) => {
            checks.expect(false, 1, || format!("bind sender socket: {e}"));
            return fail(checks, provenance);
        }
    };

    let heap0 = alloc::snapshot().live;
    let rss0 = meter::rss();
    let setup_started = Instant::now();
    let monitor = match FleetMonitor::spawn_with_clock(
        config,
        IntakeMode::Batched,
        clock.clone() as Arc<dyn TimeSource>,
    ) {
        Ok(m) => m,
        Err(e) => {
            checks.expect(false, 1, || format!("spawn monitor: {e}"));
            return fail(checks, provenance);
        }
    };
    if let Err(e) = socket.connect(monitor.local_addr()) {
        checks.expect(false, 1, || format!("connect sender socket: {e}"));
        return fail(checks, provenance);
    }
    let t0 = clock.now().0 + 5_000_000;
    let sched = Schedule::new(args.seed, t0);
    for s in 0..STREAMS {
        monitor.register(sched.id(s));
    }
    let mut d = Driver {
        monitor,
        clock,
        socket,
        sched,
        tracer: Tracer::new(false),
        checks,
        lat,
        initial: vec![false; STREAMS],
        due: Vec::with_capacity(SEND_CHUNK),
        bufs,
        sent: 0,
        queue_depth_max: 0,
        next_stats: 0,
        next_tick: 0,
    };
    // Fill: every stream's beat FILL_BEATS is due by this instant.
    d.run_until(t0 + FILL_BEATS * INTERVAL_NS);
    let want = STREAMS as u64 * FILL_BEATS;
    let fill_deadline = Instant::now() + Duration::from_secs(5);
    while d.monitor.stats().applied() < want && Instant::now() < fill_deadline {
        d.tick();
    }
    let setup_s = setup_started.elapsed().as_secs_f64();
    let heap_bytes = alloc::snapshot().live.saturating_sub(heap0);
    let rss_bytes = meter::rss().saturating_sub(rss0);

    let sweeps0 = d.sweep_buckets();
    let late0 = d.lat.late.len();
    let (phase, batches, dgrams) = d.timed(
        0,
        if args.trace {
            args.seconds / TRACE_SHARE
        } else {
            args.seconds
        },
    );
    let sweeps = d.sweep_buckets();
    let mut late: Vec<f64> = d.lat.late[late0..].to_vec();
    let traced = args.trace.then(|| {
        d.tracer.set_enabled(true);
        d.timed(1, args.seconds / TRACE_SHARE).0
    });

    // Wind down: keep beating until every pause has closed.
    let end = d.sched.last_pause_end().max(d.clock.now().0) + 2 * PAUSE_NS;
    let deadline = Instant::now() + Duration::from_secs(3);
    while (d.sched.open_pauses() > 0 || d.clock.now().0 < end) && Instant::now() < deadline {
        d.tick();
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    while d.counter("twofd_intake_datagrams_total") < d.sent && Instant::now() < deadline {
        d.tick();
    }
    let st = d.monitor.stats();
    let received = d.counter("twofd_intake_datagrams_total");
    let socket_loss = d.sent.saturating_sub(received);
    let mut checks = std::mem::take(&mut d.checks);
    checks.attempted = d.sent + d.sched.pauses.len() as u64;
    checks.equal("socket loss", socket_loss, 0);
    checks.equal("rejected datagrams", d.monitor.rejected(), 0);
    checks.equal("dropped heartbeats", st.dropped(), 0);
    checks.equal(
        "received vs applied + dropped",
        st.received(),
        st.applied() + st.dropped(),
    );
    checks.equal("events dropped", d.monitor.events_dropped(), 0);
    checks.equal(
        "pauses without one Suspect then one Trust",
        d.sched.open_pauses() as u64,
        0,
    );
    checks.equal(
        "streams trusted at the end",
        st.live() as u64,
        STREAMS as u64,
    );
    checks.equal(
        "streams never trusted",
        d.initial.iter().filter(|t| !**t).count() as u64,
        0,
    );

    let mut metrics = Metrics::default();
    if let Some(traced) = traced {
        metrics.set(
            "trace.overhead_pct",
            100.0
                * ratio(
                    traced.cpu_ns_per_hb() - phase.cpu_ns_per_hb(),
                    phase.cpu_ns_per_hb(),
                ),
        );
        let t = &d.tracer;
        let (calls, ns) = t.total(Layer::Wire, "encode_into");
        metrics.set("wire.encode_ns", ratio(ns as f64, calls as f64));
        let (calls, ns) = t.total(Layer::Wire, "decode");
        metrics.set("wire.decode_ns", ratio(ns as f64, calls as f64));
        let (calls, ns) = t.total(Layer::Shard, "stats");
        metrics.set("shard.stats_us", ratio(ns as f64 / 1e3, calls as f64));
        metrics.set(
            "intake.dgrams_per_batch",
            ratio(dgrams as f64, batches as f64),
        );
        metrics.set(
            "cpu.intake_ns_per_hb",
            phase.group_ns_per_hb(meter::Group::Intake),
        );
        metrics.set("intake.socket_loss", socket_loss as f64);
        metrics.set("shard.dropped", st.dropped() as f64);
        metrics.set("shard.events_dropped", d.monitor.events_dropped() as f64);
        metrics.set("shard.queue_depth_max", d.queue_depth_max as f64);
        metrics.set(
            "mem.rss_bytes_per_stream",
            rss_bytes as f64 / STREAMS as f64,
        );
        metrics.set(
            "events.detect_lag_p50_us",
            stats::percentile(&mut d.lat.detect, 50.0),
        );
        metrics.set(
            "events.detect_lag_p99_us",
            stats::percentile(&mut d.lat.detect, 99.0),
        );
        metrics.set(
            "events.trust_lat_p50_us",
            stats::percentile(&mut d.lat.trust, 50.0),
        );
        metrics.set(
            "events.trust_lat_p99_us",
            stats::percentile(&mut d.lat.trust, 99.0),
        );
        metrics.set("loadgen.late_p99_us", stats::percentile(&mut late, 99.0));
        let delta: Vec<u64> = sweeps.iter().zip(&sweeps0).map(|(a, b)| a - b).collect();
        metrics.set("shard.sweep_p50_us", histogram_p50_us(&delta));
        phase.fill_proc(&mut metrics);
        let Driver {
            mut tracer,
            sched,
            monitor,
            ..
        } = d;
        drop(monitor);
        core_replay(
            args.seed,
            &sched,
            args.seconds / TRACE_SHARE,
            &mut tracer,
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
    metrics.set("hb_per_s", phase.hb_per_s());
    metrics.set("cpu_ns_per_hb", phase.cpu_ns_per_hb());
    metrics.set("bytes_per_stream", heap_bytes as f64 / STREAMS as f64);
    metrics.set("setup_s", setup_s);
    Outcome {
        checks,
        metrics,
        provenance,
        tracer: None,
    }
}

fn fail(checks: Checks, provenance: Vec<String>) -> Outcome {
    Outcome {
        checks,
        metrics: Metrics::default(),
        provenance,
        tracer: None,
    }
}

/// The upper bound, µs, of the bucket holding the median of a
/// non-cumulative histogram (`Histogram::bucket_counts` layout).
pub fn histogram_p50_us(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let bounds = Histogram::bucket_upper_bounds();
    let mut seen = 0;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if 2 * seen >= total {
            return bounds.get(i).map_or(f64::INFINITY, |b| b * 1e6);
        }
    }
    0.0
}

/// Replays the workload's own inputs — the fill, then one timed phase of
/// the same schedule with its pauses, beats arriving at their due times
/// — through one `ProcessSet`, sweeping at every driver tick.
fn core_replay(
    seed: u64,
    live: &Schedule,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) {
    let t0 = 5_000_000;
    let mut sched = Schedule::new(seed, t0);
    debug_assert_eq!(sched.id(0), live.id(0));
    let mut due = Vec::with_capacity(SEND_CHUNK);
    let mut events = Vec::with_capacity(64);
    let fill_end = t0 + FILL_BEATS * INTERVAL_NS;
    let phase_end = fill_end + (seconds * 1e9) as u64;
    // Three spans per tick, one more per extra send chunk.
    tracer.reserve(4 * ((phase_end - t0) / TICK_NS) as usize);
    let heap0 = alloc::snapshot();
    let mut set = ProcessSet::new(DetectorPlan::from(detector()));
    sched.add_pauses(0, fill_end, seconds);
    let (mut hb, mut hb_allocs, mut expiries, mut first_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut filled = None;
    let mut now = t0;
    while now < phase_end {
        now += TICK_NS;
        tracer.enter(Layer::Bench, "replay_tick");
        loop {
            due.clear();
            sched.due_beats(now, SEND_CHUNK, &mut due);
            if due.is_empty() {
                break;
            }
            let a0 = alloc::thread_snapshot().0;
            tracer.span(Layer::Core, "on_heartbeat", due.len() as u32, || {
                for &(s, seq, at) in &due {
                    let started = (seq == 1).then(Instant::now);
                    set.on_heartbeat_incarnated(sched.id(s), 0, seq, Nanos(at), &mut events);
                    if let Some(started) = started {
                        first_ns += started.elapsed().as_nanos() as u64;
                    }
                }
            });
            if now > fill_end {
                hb += due.len() as u64;
                hb_allocs += alloc::thread_snapshot().0 - a0;
            }
        }
        let before = events.len();
        tracer.span(Layer::Core, "sweep", 1, || {
            set.sweep(Nanos(now), &mut events)
        });
        if now > fill_end {
            expiries += (events.len() - before) as u64;
        } else if now + TICK_NS > fill_end && filled.is_none() {
            filled = Some(alloc::snapshot());
        }
        events.clear();
        tracer.exit(1);
    }
    let filled = filled.unwrap_or(heap0);
    let n = STREAMS as f64;
    let (calls, ns) = tracer.total(Layer::Core, "on_heartbeat");
    let (_, sweep_ns) = tracer.total(Layer::Core, "sweep");
    metrics.set("core.apply_ns_per_hb", ratio(ns as f64, calls as f64));
    metrics.set("core.allocs_per_hb", ratio(hb_allocs as f64, hb as f64));
    metrics.set(
        "core.heap_bytes_per_stream",
        filled.live.saturating_sub(heap0.live) as f64 / n,
    );
    metrics.set(
        "core.allocs_per_stream",
        (filled.allocs - heap0.allocs) as f64 / n,
    );
    metrics.set("core.first_hb_ns", first_ns as f64 / n);
    metrics.set(
        "core.sweep_ns_per_expiry",
        ratio(sweep_ns as f64, expiries as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beats(seed: u64) -> Vec<(usize, u64, u64)> {
        let mut s = Schedule::new(seed, 1_000);
        s.add_pauses(0, 2_000_000, 2.0);
        let mut out = Vec::new();
        let mut now = 0;
        while now < 2_200_000_000 {
            now += TICK_NS;
            s.due_beats(now, usize::MAX, &mut out);
        }
        out
    }

    #[test]
    fn same_seed_same_schedule_and_different_seed_different() {
        assert_eq!(beats(11), beats(11));
        assert_ne!(beats(11), beats(12));
    }

    #[test]
    fn pauses_skip_beats_and_fit_the_phase() {
        let mut s = Schedule::new(3, 0);
        s.add_pauses(0, 1_000_000_000, 5.0);
        assert_eq!(s.pauses.len(), 5 * PAUSES_PER_S);
        assert!(s.last_pause_end() <= 6_000_000_000);
        let mut out = Vec::new();
        s.due_beats(7_000_000_000, usize::MAX, &mut out);
        let expected = STREAMS * (7_000_000_000 / INTERVAL_NS) as usize
            - 5 * PAUSES_PER_S * (PAUSE_NS / INTERVAL_NS) as usize;
        assert!(
            out.len().abs_diff(expected) <= STREAMS * 2,
            "{} vs {expected}",
            out.len()
        );
    }

    #[test]
    fn histogram_median_bucket() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.observe_ns(3_000);
        }
        h.observe_ns(1_000_000);
        let p50 = histogram_p50_us(&h.bucket_counts());
        assert!((3.0..4.0).contains(&p50), "{p50}");
        assert_eq!(histogram_p50_us(&[0, 0]), 0.0);
    }
}
