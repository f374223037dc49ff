//! The batch workload `proc-campaign`: real victim binaries under the
//! preload shim, in a campaign run through the library's `run_campaign`,
//! as `afex-cli campaign` runs it.
//!
//! An untraced run alternates two phases [`RUNS`] times, never running
//! them at once, so that neither disturbs the other's timings, and so
//! that a slow spell of the machine lands on one campaign run or one
//! part of the open loop rather than on all of them:
//!
//! 1. The campaign, into a fresh directory. The first run is the
//!    reference: its outputs are checked, a no-op `afex-cli campaign
//!    --resume` of it must leave its bytes as they were, and every later
//!    run must reproduce its bytes.
//! 2. For a [`RUNS`]th of the window, an open loop at the rates of the
//!    service workload, with the commands a user runs beside a batch
//!    campaign: every [`WRITE_EVERY`] an `afex-cli campaign` of a small
//!    campaign of the workload's targets is started (`submit`: until it
//!    has opened its output and export) and run to its summary (`done`),
//!    and every [`READ_EVERY`] the reference run's export is ranked the
//!    way `afex-cli top-failures --export F` ranks it (`read`). Each is
//!    timed from when it was due. `setup_s` is the median time from
//!    spawning a small campaign to its accepting the work.
//!
//! A traced run makes one untraced and one traced campaign and compares
//! their files.

use crate::catalog::catalogue;
use crate::stats::{median, quotable, Metrics};
use crate::traced::{layer_value, run_campaign_traced, tracer_layers, Tracer};
use crate::{
    bin_dir, dir_size, generator_report, ms, put, same_bytes, sleep_until, strings, Ctx, Ledger,
    Report, Sample,
};
use afex::campaign::{
    build_spec, load_resume_snapshot, read_export, run_campaign, top_failures, CorpusReader,
    SpecOptions,
};
use afex::core::campaign::{CampaignReport, CampaignSnapshot, ExportRecord};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The files a campaign directory holds, all byte-compared.
const FILES: [&str; 4] = [
    "campaign.json",
    "corpus.jsonl",
    "corpus.jsonl.idx",
    "summary.json",
];

/// The scheduler pool width (`--workers`) of every batch campaign.
const WORKERS: usize = 1;

/// Campaign runs timed per benchmark run (`wall_s`): the median of three
/// is the middle run, so one slow or fast run does not decide it.
const RUNS: usize = 3;

/// How often the open loop submits a small campaign: the service
/// workload's submission rate.
const WRITE_EVERY: Duration = Duration::from_millis(100);

/// How often the open loop ranks the export: the service workload's read
/// rate. Reads are due three quarters of a period after submissions, so
/// that a small campaign has ended before the read due after it also on
/// a slow spell of the machine: a small `proc:*` campaign takes about
/// 40 ms, 46 ms at its 95th percentile.
const READ_EVERY: Duration = Duration::from_millis(100);

/// How often a starting campaign is checked for having accepted its
/// work. Sleeping leaves both processors to the campaign starting up.
const POLL_EVERY: Duration = Duration::from_micros(20);

/// Records a `top-failures` read returns, `afex-cli`'s default.
const TOP: usize = 10;

/// A batch workload.
pub struct Workload {
    pub name: &'static str,
    opts: SpecOptions,
    /// Iterations of an open-loop small campaign, sized so that it ends
    /// well before the read due after it: a read that
    /// overlaps a small `proc:*` campaign shares the two processors with
    /// its victims and its tail then depends on where it lands.
    small_iterations: usize,
}

impl Workload {
    /// The workload of that name.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a batch workload; `main` validates
    /// names first.
    pub fn named(name: &str) -> Self {
        let base = SpecOptions {
            strategies: strings(&["fitness", "random"]),
            cell_workers: 2,
            ..SpecOptions::default()
        };
        match name {
            "proc-campaign" => Workload {
                name: "proc-campaign",
                opts: SpecOptions {
                    targets: strings(&[
                        "proc:victim-read-file",
                        "proc:victim-alloc",
                        "proc:victim-alloc-unchecked",
                    ]),
                    seeds: 16,
                    iterations: 200,
                    timeout: Some("2s".into()),
                    ..base
                },
                small_iterations: 10,
            },
            other => panic!("`{other}` is not a batch workload"),
        }
    }

    fn opts(&self, seed: u64) -> SpecOptions {
        SpecOptions {
            base_seed: seed,
            ..self.opts.clone()
        }
    }

    /// The `i`th small campaign of the open loop: one of the workload's
    /// targets in turn × `fitness` × 1 seed, on the workload's cell
    /// workers.
    fn small_opts(&self, seed: u64, i: u64) -> SpecOptions {
        let targets = &self.opts.targets;
        let base_seed = seed.wrapping_add(i);
        SpecOptions {
            targets: vec![targets[(base_seed % targets.len() as u64) as usize].clone()],
            strategies: strings(&["fitness"]),
            seeds: 1,
            base_seed,
            iterations: self.small_iterations,
            stop: None,
            ..self.opts.clone()
        }
    }
}

/// A running `afex-cli campaign`, killed and reaped if dropped before it
/// exits.
struct Campaign {
    child: Option<Child>,
}

impl Campaign {
    /// Starts `afex-cli campaign` with `opts` as flags, one scheduler
    /// worker and its output and export in `dir`, and waits until it has
    /// accepted the work: spec validated, output directory created and
    /// export opened (the export's sidecar index is the last file
    /// `run_campaign` opens before the first cell). Returns the campaign
    /// and the instant it was seen accepting.
    fn start(opts: &SpecOptions, dir: &Path) -> Result<(Campaign, Instant), String> {
        let cli = bin_dir().join("afex-cli");
        let export = dir.join("corpus.jsonl");
        let mut cmd = Command::new(&cli);
        cmd.arg("campaign")
            .args(["--targets", &opts.targets.join(",")])
            .args(["--strategies", &opts.strategies.join(",")])
            .args(["--seeds", &opts.seeds.to_string()])
            .args(["--seed", &opts.base_seed.to_string()])
            .args(["--iterations", &opts.iterations.to_string()])
            .args(["--cell-workers", &opts.cell_workers.to_string()])
            .args(["--workers", &WORKERS.to_string()])
            .arg("--out")
            .arg(dir)
            .arg("--export")
            .arg(&export)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if let Some(stop) = &opts.stop {
            cmd.args(["--stop", stop]);
        }
        if let Some(timeout) = &opts.timeout {
            cmd.args(["--timeout", timeout]);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let mut campaign = Campaign { child: Some(child) };
        let idx = export_idx(&export);
        loop {
            if idx.exists() {
                return Ok((campaign, Instant::now()));
            }
            let child = campaign.child.as_mut().expect("running");
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                campaign.child = None;
                return if status.success() && idx.exists() {
                    Ok((campaign, Instant::now()))
                } else {
                    Err(format!(
                        "afex-cli campaign exited with {status} before accepting work"
                    ))
                };
            }
            std::thread::sleep(POLL_EVERY);
        }
    }

    /// Waits for the campaign to exit 0 with its summary written.
    fn finish(mut self, dir: &Path) -> Result<(), String> {
        if let Some(mut child) = self.child.take() {
            let status = child.wait().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("afex-cli campaign exited with {status}"));
            }
        }
        if dir.join("summary.json").is_file() {
            Ok(())
        } else {
            Err(format!("no summary.json in {}", dir.display()))
        }
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The export's sidecar offset index.
fn export_idx(export: &Path) -> std::path::PathBuf {
    let mut name = export.as_os_str().to_owned();
    name.push(".idx");
    name.into()
}

/// The `limit` highest-impact records of an export, read the way
/// `afex-cli top-failures --export F` reads them: every record through
/// the seekable `CorpusReader`, ranked by impact.
fn top_failures_offline(export: &Path, limit: usize) -> std::io::Result<Vec<ExportRecord>> {
    let mut reader = CorpusReader::open(export)?;
    let mut records = (0..reader.len())
        .map(|i| reader.get(i))
        .collect::<std::io::Result<Vec<_>>>()?;
    records.sort_by(|a, b| b.record.impact.total_cmp(&a.record.impact));
    records.truncate(limit);
    Ok(records)
}

/// What the open loop measured.
#[derive(Debug, Default)]
struct OpenLoop {
    /// Per small campaign: when it accepted the work (`replied`), and
    /// when it exited with its summary written, in ms.
    submits: Vec<(Sample, f64)>,
    reads: Vec<Sample>,
    /// Every request's lateness, in ms.
    lateness: Vec<f64>,
    /// Requests due in the window but sent after it.
    backlog: usize,
}

impl OpenLoop {
    fn extend(&mut self, other: OpenLoop) {
        self.submits.extend(other.submits);
        self.reads.extend(other.reads);
        self.lateness.extend(other.lateness);
        self.backlog += other.backlog;
    }
}

/// Runs the open loop for `window`: one thread submits and runs small
/// campaigns, numbered from `first`, the other ranks `export`. Every
/// small campaign is checked complete and every ranking is checked
/// against the snapshot's own.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    w: &Workload,
    seed: u64,
    first: u32,
    reference: &CampaignSnapshot,
    export: &Path,
    work: &Path,
    window: Duration,
    ledger: &mut Ledger,
) -> OpenLoop {
    let expected: Vec<f64> = top_failures(reference, TOP)
        .iter()
        .map(|r| r.record.impact)
        .collect();
    let t0 = Instant::now();
    let since = |t: Instant| ms(t.duration_since(t0));
    let (writes, reads) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut out = Vec::new();
            for i in 0u32.. {
                let due = WRITE_EVERY * i;
                if due >= window {
                    break;
                }
                sleep_until(t0, due);
                let sent = Instant::now();
                let n = first + i;
                let dir = work.join(format!("small-{n}"));
                let (ran, accepted) = match Campaign::start(&w.small_opts(seed, u64::from(n)), &dir)
                {
                    Ok((campaign, accepted)) => (campaign.finish(&dir), accepted),
                    Err(e) => (Err(e), Instant::now()),
                };
                let done = Instant::now();
                let _ = std::fs::remove_dir_all(&dir);
                let sample = Sample {
                    due: ms(due),
                    sent: since(sent),
                    replied: since(accepted),
                };
                out.push((sample, since(done), ran));
            }
            out
        });
        let reader = scope.spawn(|| {
            let mut out = Vec::new();
            for j in 0u32.. {
                let due = READ_EVERY * j + READ_EVERY * 3 / 4;
                if due >= window {
                    break;
                }
                sleep_until(t0, due);
                let sent = Instant::now();
                let read = top_failures_offline(export, TOP);
                let replied = Instant::now();
                let sample = Sample {
                    due: ms(due),
                    sent: since(sent),
                    replied: since(replied),
                };
                out.push((sample, read));
            }
            out
        });
        (
            writer.join().expect("open-loop writer panicked"),
            reader.join().expect("open-loop reader panicked"),
        )
    });
    let mut out = OpenLoop::default();
    for (sample, done, ran) in writes {
        ledger.op("small campaign", ran);
        out.submits.push((sample, done));
    }
    for (sample, read) in reads {
        if let Some(records) = ledger.op("top-failures read", read) {
            let impacts: Vec<f64> = records.iter().map(|r| r.record.impact).collect();
            ledger.check(
                "top-failures off the export ranks as the snapshot does",
                impacts == expected,
            );
        }
        out.reads.push(sample);
    }
    let generated: Vec<Sample> = out
        .submits
        .iter()
        .map(|(s, _)| *s)
        .chain(out.reads.iter().copied())
        .collect();
    (out.lateness, out.backlog) = generator_report(&generated, ms(window));
    out
}

/// The output checks every finished campaign directory must pass.
fn check_outputs(dir: &Path, snap: &CampaignSnapshot, ledger: &mut Ledger) {
    let text = std::fs::read_to_string(dir.join("campaign.json")).unwrap_or_default();
    let loaded = CampaignSnapshot::from_json(&text);
    ledger.check(
        "snapshot parses and is consistent",
        loaded
            .as_ref()
            .is_ok_and(|s| s.check_consistent().is_ok() && s.is_complete()),
    );
    ledger.check("snapshot is complete", snap.is_complete());
    let store: BTreeSet<(String, u64)> = snap.store.iter().map(|(k, _)| k.clone()).collect();
    let exported = read_export(&dir.join("corpus.jsonl"));
    let keys: Option<BTreeSet<(String, u64)>> = exported.as_ref().ok().map(|recs| {
        recs.iter()
            .map(|r| (r.target.clone(), r.record.code))
            .collect()
    });
    ledger.check(
        "export key set equals the store's keys, without duplicates",
        exported
            .as_ref()
            .is_ok_and(|recs| recs.len() == store.len())
            && keys.as_ref() == Some(&store),
    );
    let summary = std::fs::read_to_string(dir.join("summary.json")).unwrap_or_default();
    ledger.check(
        "summary.json is the snapshot's report",
        summary == CampaignReport::from_snapshot(snap).to_json() + "\n",
    );
    let hung: usize = snap
        .cells
        .iter()
        .filter_map(|c| c.outcome.as_ref())
        .map(|o| o.hangs)
        .sum();
    ledger.check("zero hung tests", hung == 0);
}

/// `(Σ tests, Σ crashes)` over the cells of one strategy.
fn strategy_totals(snap: &CampaignSnapshot, strategy: &str) -> (usize, usize) {
    snap.cells
        .iter()
        .filter(|c| c.cell.strategy == strategy)
        .filter_map(|c| c.outcome.as_ref())
        .fold((0, 0), |(t, c), o| (t + o.tests, c + o.crashes))
}

/// Runs the campaign once into `dir` through `run_campaign`, returning
/// the finished snapshot and the wall time.
fn plain_run(
    opts: &SpecOptions,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(CampaignSnapshot, Duration), String> {
    let mut snap = CampaignSnapshot::new(build_spec(opts).map_err(|e| e.to_string())?);
    let t0 = Instant::now();
    let result = run_campaign(
        &mut snap,
        WORKERS,
        dir,
        Some(&dir.join("corpus.jsonl")),
        false,
    );
    let wall = t0.elapsed();
    ledger
        .op("run_campaign", result)
        .map(|_| (snap, wall))
        .ok_or_else(|| format!("run_campaign failed in {}", dir.display()))
}

/// A no-op resume of a finished campaign directory, as a user makes it:
/// `afex-cli campaign --resume --export`, which loads and validates the
/// snapshot, runs the (empty) pending set and rewrites the final
/// checkpoint and summary. Checks that it exits 0 and leaves every byte
/// unchanged.
fn noop_resume(dir: &Path, ledger: &mut Ledger) {
    let read_all = || -> Vec<Option<Vec<u8>>> {
        FILES
            .iter()
            .map(|f| std::fs::read(dir.join(f)).ok())
            .collect()
    };
    let before = read_all();
    let status = Command::new(bin_dir().join("afex-cli"))
        .args([
            "campaign",
            "--workers",
            &WORKERS.to_string(),
            "--resume",
            "--out",
        ])
        .arg(dir)
        .arg("--export")
        .arg(dir.join("corpus.jsonl"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status();
    ledger.op(
        "afex-cli campaign --resume",
        match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("exited with {s}")),
            Err(e) => Err(e.to_string()),
        },
    );
    ledger.check(
        "a no-op resume leaves every byte unchanged",
        before == read_all(),
    );
}

/// Reads every exported record through the seekable reader and checks
/// each against the snapshot's store.
fn check_reads(export: &Path, snap: &CampaignSnapshot, ledger: &mut Ledger) {
    let matches = CorpusReader::open(export).and_then(|mut r| {
        (0..r.len()).try_fold(r.len() == snap.store.len(), |ok, i| {
            let rec = r.get(i)?;
            Ok(ok && snap.store.get(&rec.target, rec.record.code) == Some(&rec.record))
        })
    });
    ledger.check(
        "every record read through the sidecar equals the store's",
        matches.unwrap_or(false),
    );
}

/// Puts a latency's median as `<prefix>_p50_ms` and prints it with its
/// sample count and 95th percentile. Too few samples for a p95 is a
/// failed check, not a silent gap. The p95 is printed, not reported as a
/// metric: on a small shared machine it follows the neighbours' bursts,
/// and two sets of runs of the same code disagree on it by more than any
/// bound it could be given.
pub fn put_latency(m: &mut Metrics, prefix: &str, samples: &[f64], ledger: &mut Ledger) {
    let p95 = quotable(samples, 95.0);
    ledger.check(
        &format!("{prefix}: at least ten samples beyond p95"),
        p95.is_some(),
    );
    let p50 = median(samples).unwrap_or(0.0);
    println!(
        "  {prefix}: n {}, p50 {p50:.3} ms, p95 {:.3} ms",
        samples.len(),
        p95.unwrap_or(f64::NAN)
    );
    put(m, &format!("{prefix}_p50_ms"), p50);
}

/// Search quality of a finished snapshot as end-to-end metrics.
pub fn put_quality(m: &mut Metrics, snap: &CampaignSnapshot, ledger: &mut Ledger) {
    put(m, "unique_failures", snap.store.len() as f64);
    for strategy in ["fitness", "random"] {
        let (tests, crashes) = strategy_totals(snap, strategy);
        ledger.check(&format!("{strategy} cells found crashes"), crashes > 0);
        put(
            m,
            &format!("{strategy}_tests_per_crash"),
            tests as f64 / crashes.max(1) as f64,
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Report, String> {
    let opts = w.opts(ctx.seed);
    let mut ledger = Ledger::default();
    let mut m = Metrics::new();

    let reference = ctx.work.join("reference");
    let segment = ctx.window / RUNS as u32;
    let mut walls = Vec::new();
    let mut snap = None;
    let mut ol = OpenLoop::default();
    for i in 0..RUNS {
        // 1. A campaign run, the first one the reference.
        let dir = if i == 0 {
            reference.clone()
        } else {
            ctx.work.join(format!("run-{i}"))
        };
        let (run_snap, wall) = plain_run(&opts, &dir, &mut ledger)?;
        walls.push(wall.as_secs_f64());
        if i == 0 {
            check_outputs(&dir, &run_snap, &mut ledger);
            check_reads(&dir.join("corpus.jsonl"), &run_snap, &mut ledger);
            snap = Some(run_snap);
            noop_resume(&dir, &mut ledger);
        } else {
            let same = FILES
                .iter()
                .all(|f| same_bytes(&reference.join(f), &dir.join(f)));
            ledger.check("a repeated run writes the same bytes", same);
        }
        if i > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        // 2. A part of the open loop.
        let part = open_loop(
            &w,
            ctx.seed,
            ol.submits.len() as u32,
            snap.as_ref().expect("the reference run ran"),
            &reference.join("corpus.jsonl"),
            &ctx.work,
            segment,
            &mut ledger,
        );
        ol.extend(part);
    }
    let snap = snap.expect("the reference run ran");

    let setup: Vec<f64> = ol.submits.iter().map(|(s, _)| s.replied - s.sent).collect();
    put(&mut m, "setup_s", median(&setup).unwrap_or(0.0) / 1e3);
    put(&mut m, "wall_s", median(&walls).unwrap_or(0.0));
    put(&mut m, "disk_bytes", dir_size(&reference) as f64);
    put_quality(&mut m, &snap, &mut ledger);
    let dones: Vec<f64> = ol.submits.iter().map(|(s, done)| done - s.due).collect();
    put_latency(&mut m, "done", &dones, &mut ledger);
    let submits: Vec<f64> = ol.submits.iter().map(|(s, _)| s.replied - s.due).collect();
    put_latency(&mut m, "submit", &submits, &mut ledger);
    let reads: Vec<f64> = ol.reads.iter().map(|s| s.replied - s.due).collect();
    put_latency(&mut m, "read", &reads, &mut ledger);
    println!(
        "{}: campaign wall {walls:?} s; {} small campaigns, {} reads, generator lateness p50 {:.3} ms max {:.3} ms, backlog {} at the window's ends",
        w.name,
        ol.submits.len(),
        ol.reads.len(),
        median(&ol.lateness).unwrap_or(0.0),
        ol.lateness.iter().copied().fold(0.0, f64::max),
        ol.backlog,
    );
    Ok(Report { metrics: m, ledger })
}

/// The traced run: one untraced and one traced campaign of the same
/// spec, byte-compared, and the per-layer metrics of the traced one.
pub fn run_traced(ctx: &Ctx, w: Workload) -> Result<Report, String> {
    let opts = w.opts(ctx.seed);
    let mut ledger = Ledger::default();
    let mut m = Metrics::new();

    let plain_dir = ctx.work.join("plain");
    let (_, plain_wall) = plain_run(&opts, &plain_dir, &mut ledger)?;

    let traced_dir = ctx.work.join("traced");
    let tracer = Tracer::default();
    let mut snap = CampaignSnapshot::new(build_spec(&opts).map_err(|e| e.to_string())?);
    let t0 = Instant::now();
    let traced = run_campaign_traced(&mut snap, WORKERS, &traced_dir, &tracer);
    let traced_wall = t0.elapsed();
    ledger.op("traced run_campaign", traced);
    for f in FILES {
        ledger.check(
            &format!("traced {f} equals the untraced run's byte for byte"),
            same_bytes(&plain_dir.join(f), &traced_dir.join(f)),
        );
    }
    check_outputs(&traced_dir, &snap, &mut ledger);
    let t0 = Instant::now();
    ledger.op(
        "load_resume_snapshot",
        load_resume_snapshot(&traced_dir.join("campaign.json")),
    );
    let resume_load = t0.elapsed();

    let layers = tracer_layers(&tracer);
    for name in catalogue().per_layer.iter().map(|m| m.name.as_str()) {
        let value = match name {
            "campaign.resume_load_ms" => ms(resume_load),
            "trace.plain_wall_s" => plain_wall.as_secs_f64(),
            "trace.traced_wall_s" => traced_wall.as_secs_f64(),
            "trace.overhead_pct" => {
                (traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0) * 100.0
            }
            // The service, protocol and generator layers, which a batch
            // campaign does not reach, report 0.
            _ => layer_value(&layers, name),
        };
        put(&mut m, name, value);
    }
    Ok(Report { metrics: m, ledger })
}
