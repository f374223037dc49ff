//! AFEX end-to-end benchmark.
//!
//! ```text
//! afex-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the release build, checks its outputs, and
//! prints one JSON object as the last line of stdout: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones `BENCHMARK.json` lists; with `--trace 1` a traced
//! run reports the per-layer ones. See `README.md` beside this crate for
//! the workloads and metrics.

mod batch;
mod catalog;
mod service;
mod stats;
mod traced;

use stats::Metrics;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("missing --workload")?;
    let workloads = &catalog::catalogue().workloads;
    if !workloads.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {workloads:?})"
        ));
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Operation accounting: every operation and output check counts as
/// attempted; errors, refusals and failed checks count as failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    /// Accounts one operation, returning its value on success.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Accounts one output check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(format!("check failed: {what}"));
        }
    }

    /// Accounts `n` operations, none failed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        eprintln!("e2ebench: {problem}");
        self.problems.push(problem);
    }
}

/// Owned copies of a list of names, for `SpecOptions` fields.
pub fn strings(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| (*s).to_owned()).collect()
}

/// Where the benchmark's build put the AFEX binaries: next to its own
/// executable (the same cargo target directory).
pub fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_size(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Whether two files exist and hold the same bytes.
pub fn same_bytes(a: &Path, b: &Path) -> bool {
    matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed request of an open loop, times in ms since the loop
/// started.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: f64,
    pub sent: f64,
    pub replied: f64,
}

/// How early before a due time an open-loop generator stops sleeping and
/// spins instead. A sleeping thread wakes up to a few hundred
/// microseconds late, varying with the machine's load, which is as long
/// as some of the operations it times.
const SPIN: Duration = Duration::from_millis(2);

/// Waits until `due` after `t0`: sleeps until shortly before, then spins.
pub fn sleep_until(t0: Instant, due: Duration) {
    if let Some(wait) = due.checked_sub(t0.elapsed() + SPIN) {
        std::thread::sleep(wait);
    }
    while t0.elapsed() < due {
        std::hint::spin_loop();
    }
}

/// How late an open-loop generator ran: every request's send time minus
/// its due time, in ms, and the backlog at the end of the window (the
/// requests due in the window but sent after it).
pub fn generator_report(samples: &[Sample], window_ms: f64) -> (Vec<f64>, usize) {
    let lateness = samples.iter().map(|s| s.sent - s.due).collect();
    let backlog = samples
        .iter()
        .filter(|s| s.due < window_ms && s.sent > window_ms)
        .count();
    (lateness, backlog)
}

/// A fresh scratch directory for this run inside the working directory,
/// removed again when dropped.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What a workload hands back: its metrics and its accounting.
pub struct Report {
    pub metrics: Metrics,
    pub ledger: Ledger,
}

/// Adds `value` under `name`, taking the unit from the catalogue.
pub fn put(metrics: &mut Metrics, name: &str, value: f64) {
    let unit = catalog::unit_of(name).unwrap_or_else(|| panic!("`{name}` is not catalogued"));
    metrics.put(name, value, unit);
}

/// Run-wide context every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub work: PathBuf,
    pub started: Instant,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: afex-e2ebench --workload <{}> --seed N --seconds S --trace 0|1",
                catalog::catalogue().workloads.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = WorkDir::create(&args.workload).unwrap_or_else(|e| {
        eprintln!("e2ebench: cannot create the work directory: {e}");
        std::process::exit(1);
    });
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        work: work.path.clone(),
        started: Instant::now(),
    };
    let report = match (args.workload.as_str(), args.trace) {
        ("service-open-loop", trace) => service::run(&ctx, trace),
        (name, false) => batch::run(&ctx, batch::Workload::named(name)),
        (name, true) => batch::run_traced(&ctx, batch::Workload::named(name)),
    };
    drop(work);
    let report = report.unwrap_or_else(|e| {
        eprintln!("e2ebench: {} could not run: {e}", args.workload);
        std::process::exit(1);
    });
    let catalogue = catalog::catalogue();
    let listed = if args.trace {
        &catalogue.per_layer
    } else {
        &catalogue.end_to_end
    };
    let reported: Vec<&str> = report.metrics.names().collect();
    let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    let mut sorted_reported = reported.clone();
    sorted_reported.sort_unstable();
    let mut sorted_expected = expected.clone();
    sorted_expected.sort_unstable();
    assert_eq!(
        sorted_reported, sorted_expected,
        "a workload must report exactly the catalogued metrics"
    );
    for name in &expected {
        let value = report.metrics.get(name).expect("checked above");
        println!(
            "{:<36} {:>16} {}",
            name,
            stats::number(value),
            catalog::unit_of(name).unwrap_or("")
        );
    }
    let ledger = &report.ledger;
    println!(
        "{}: {} operations attempted, {} failed, elapsed {:.1} s",
        args.workload,
        ledger.attempted,
        ledger.failed,
        ctx.started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        stats::result_line(
            ledger.failed == 0,
            ledger.attempted.max(1),
            ledger.failed,
            &report.metrics
        )
    );
}
