//! The repository benchmark: the live 2W-FD monitor at the paper's
//! `2w-fd(1,1000)`, driven through the public API of `twofd-net`,
//! `twofd-core` and `twofd-obs`.
//!
//! ```text
//! twofd-perf --workload <steady|churn|udp> --seed <n> --seconds <s> --trace <0|1>
//! twofd-perf steadiness --workload <name> [--runs <k>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload and prints, as its last stdout
//! line, one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. The
//! second runs a workload in two sets of `k` runs and prints, per
//! end-to-end metric, each set's median and IQR/median and the gap
//! between the set medians. See `benchmark/README.md`.

mod alloc;
mod churn;
mod meter;
mod report;
mod stats;
mod steady;
mod trace;
mod udp;

use report::{Checks, Metrics};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One run's command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// What a workload hands back.
pub struct Outcome {
    /// Output checks and operation counts.
    pub checks: Checks,
    /// Metric values.
    pub metrics: Metrics,
    /// Workload settings for the provenance line, `key=value`.
    pub provenance: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<trace::Tracer>,
}

const WORKLOADS: [&str; 3] = ["steady", "churn", "udp"];

/// A traced run times two phases of `seconds / TRACE_SHARE` each: one
/// untraced (the process meters and the rate `trace.overhead_pct`
/// compares against) and one traced (the spans).
pub const TRACE_SHARE: f64 = 3.0;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// FNV-1a over every source file the benchmark builds from, so a result
/// names the code it measured even outside a git checkout.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(&path, files);
                }
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "benchmark/src"] {
        walk(Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("benchmark/Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x}:{}files", files.len())
}

fn l3_size() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// SplitMix64's finalizer: a seeded, stateless hash for per-item
/// inputs (jitter, ids) that must not depend on generation order.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn run_one(args: &Args) -> ExitCode {
    if let Err(e) = alloc::self_test() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let outcome = match args.workload.as_str() {
        "steady" => steady::run(args),
        "churn" => churn::run(args),
        _ => udp::run(args),
    };
    for note in &outcome.checks.notes {
        eprintln!("{}: check failed: {note}", args.workload);
    }
    println!(
        "provenance: source={} workload={} seed={} seconds={} trace={} nproc={} l3={} {}",
        source_hash(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        l3_size(),
        outcome.provenance.join(" ")
    );
    if let Some(tracer) = &outcome.tracer {
        let path = format!("benchmark/out/spans-{}-{}.tsv", args.workload, args.seed);
        match tracer.write_out(Path::new(&path)) {
            Ok(()) => eprintln!(
                "{}: {} spans written to {path}",
                args.workload,
                tracer.spans().len()
            ),
            Err(e) => eprintln!("{}: writing spans to {path}: {e}", args.workload),
        }
    }
    let table: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!(
        "{}",
        report::result_line(&args.workload, &outcome.checks, &outcome.metrics, table)
    );
    ExitCode::SUCCESS
}

/// Runs one workload in two sets of `runs` runs (fresh seeds throughout)
/// and prints, per end-to-end metric, each set's median and IQR/median,
/// the gap between the two set medians, and the IQR/median of all runs
/// pooled.
fn steadiness(args: &[String]) -> ExitCode {
    let mut workload = String::from("steady");
    let mut runs = 5usize;
    let mut seconds = String::from("25");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("{flag} needs a value");
            return ExitCode::FAILURE;
        };
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--runs" => runs = value.parse().unwrap_or(0),
            "--seconds" => seconds = value.clone(),
            other => {
                eprintln!("unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if runs < 2 {
        eprintln!("--runs must be at least 2");
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut failed = 0u64;
    for set in 0..2 {
        let mut values = vec![Vec::new(); report::END_TO_END.len()];
        for run in 0..runs {
            let seed = (set * runs + run + 1).to_string();
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    &workload,
                    "--seed",
                    &seed,
                    "--seconds",
                    &seconds,
                ])
                .args(["--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output();
            let line = match &out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .unwrap_or("")
                    .to_string(),
                _ => {
                    eprintln!("run with seed {seed} failed: {out:?}");
                    return ExitCode::FAILURE;
                }
            };
            failed += report::parse_count(&line, "failed").unwrap_or(0);
            for (i, (name, _)) in report::END_TO_END.iter().enumerate() {
                values[i].push(report::parse_value(&line, name).unwrap_or(0.0));
            }
            eprintln!("set {} run {} seed {seed}: {line}", set + 1, run + 1);
        }
        sets.push(values);
    }
    println!(
        "steadiness: workload={workload} runs_per_set={runs} seconds={seconds} nproc={} l3={}",
        nproc(),
        l3_size()
    );
    println!(
        "{:<18} {:>14} {:>10} {:>14} {:>10} {:>9} {:>10}",
        "metric", "median_1", "iqr/med_1", "median_2", "iqr/med_2", "gap", "iqr/med_all"
    );
    for (i, (name, unit)) in report::END_TO_END.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        let (ma, mb) = (stats::median(a), stats::median(b));
        let all: Vec<f64> = a.iter().chain(b).copied().collect();
        println!(
            "{:<18} {:>14.6} {:>10.4} {:>14.6} {:>10.4} {:>9.4} {:>10.4}  ({unit})",
            name,
            ma,
            stats::iqr_over_median(a),
            mb,
            stats::iqr_over_median(b),
            report::ratio((mb - ma).abs(), ma),
            stats::iqr_over_median(&all)
        );
    }
    println!("failed operations over all runs: {failed}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("steadiness") {
        return steadiness(&argv[1..]);
    }
    match parse_args(&argv) {
        Ok(args) => run_one(&args),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a =
            parse_args(&args("--workload churn --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn", 7, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload udp --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
