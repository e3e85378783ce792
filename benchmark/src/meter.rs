//! Process meters read from `/proc` around a timed phase.
//!
//! Per thread (`/proc/self/task/<tid>`): CPU time and run-queue wait in
//! nanoseconds from `schedstat`, context switches from `status`, and the
//! thread name from `comm`. Host-wide: steal time from `/proc/stat`.
//! Process-wide, read on its own: resident set size from
//! `/proc/self/statm`.
//!
//! Threads are grouped by name: the runtime names its workers
//! `twofd-shard-<i>` and its UDP intake thread `twofd-fleet-ingest`
//! (`comm` keeps the first 15 bytes); the process's main thread is the
//! benchmark driver.

use std::collections::HashMap;
use std::fs;

/// The thread groups CPU time is split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `twofd-shard-*` workers.
    Shard,
    /// The `twofd-fleet-ingest` UDP intake thread.
    Intake,
    /// The main thread: the benchmark driver.
    Driver,
    /// Anything else.
    Other,
}

impl Group {
    fn of(name: &str, is_main: bool) -> Group {
        if is_main {
            Group::Driver
        } else if name.starts_with("twofd-shard") {
            Group::Shard
        } else if name.starts_with("twofd-fleet") {
            Group::Intake
        } else {
            Group::Other
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Debug, Clone, Copy)]
struct ThreadSample {
    group: Group,
    cpu_ns: u64,
    wait_ns: u64,
    ctx: u64,
}

/// One reading of the meters.
#[derive(Debug, Clone)]
pub struct Sample {
    threads: HashMap<u32, ThreadSample>,
    steal_ticks: u64,
}

/// What happened between two readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// CPU nanoseconds per [`Group`], indexed by `Group as usize`.
    pub cpu_ns: [u64; 4],
    /// Nanoseconds runnable threads waited on a run queue.
    pub runq_wait_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Host steal time, milliseconds (10 ms resolution).
    pub steal_ms: f64,
}

impl Delta {
    /// CPU nanoseconds of every thread.
    pub fn cpu_total_ns(&self) -> u64 {
        self.cpu_ns.iter().sum()
    }

    /// CPU nanoseconds of one group.
    pub fn cpu(&self, group: Group) -> u64 {
        self.cpu_ns[group.index()]
    }
}

fn parse_status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn read_thread(tid: u32, pid: u32) -> Option<ThreadSample> {
    let dir = format!("/proc/self/task/{tid}");
    let sched = fs::read_to_string(format!("{dir}/schedstat")).ok()?;
    let mut f = sched
        .split_whitespace()
        .map(|v| v.parse::<u64>().unwrap_or(0));
    let cpu_ns = f.next()?;
    let wait_ns = f.next()?;
    let status = fs::read_to_string(format!("{dir}/status")).ok()?;
    let ctx = parse_status_field(&status, "voluntary_ctxt_switches:")
        + parse_status_field(&status, "nonvoluntary_ctxt_switches:");
    let name = fs::read_to_string(format!("{dir}/comm")).unwrap_or_default();
    Some(ThreadSample {
        group: Group::of(name.trim(), tid == pid),
        cpu_ns,
        wait_ns,
        ctx,
    })
}

fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            // cpu user nice system idle iowait irq softirq steal ...
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Resident set size of the process, bytes.
pub fn rss() -> u64 {
    fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

/// Reads every meter now.
pub fn sample() -> Sample {
    let pid = std::process::id();
    let mut threads = HashMap::new();
    if let Ok(dir) = fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                if let Some(t) = read_thread(tid, pid) {
                    threads.insert(tid, t);
                }
            }
        }
    }
    Sample {
        threads,
        steal_ticks: steal_ticks(),
    }
}

impl Sample {
    /// Everything that happened from `self` to `later`. A thread born in
    /// between counts from zero; one that ended in between is lost,
    /// which is why phases start after every runtime thread is up.
    pub fn until(&self, later: &Sample) -> Delta {
        let mut d = Delta::default();
        for (tid, t) in &later.threads {
            let (cpu0, wait0, ctx0) = self
                .threads
                .get(tid)
                .map(|s| (s.cpu_ns, s.wait_ns, s.ctx))
                .unwrap_or((0, 0, 0));
            d.cpu_ns[t.group.index()] += t.cpu_ns.saturating_sub(cpu0);
            d.runq_wait_ns += t.wait_ns.saturating_sub(wait0);
            d.ctx_switches += t.ctx.saturating_sub(ctx0);
        }
        // USER_HZ is 100 on Linux: one tick is 10 ms.
        d.steal_ms = later.steal_ticks.saturating_sub(self.steal_ticks) as f64 * 10.0;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_follow_thread_names() {
        assert_eq!(Group::of("twofd-shard-0", false), Group::Shard);
        assert_eq!(Group::of("twofd-fleet-ing", false), Group::Intake);
        assert_eq!(Group::of("twofd-perf", true), Group::Driver);
        assert_eq!(Group::of("other", false), Group::Other);
    }

    #[test]
    fn a_busy_thread_shows_cpu_time() {
        let a = sample();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let d = a.until(&sample());
        assert!(d.cpu_total_ns() >= 10_000_000, "{d:?}");
        assert!(rss() > 0);
    }
}
