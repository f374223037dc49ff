//! The `service-open-loop` workload: a real `afex-cli serve --workers 2`
//! daemon on a fresh root, driven over its socket with
//! `afex::protocol::request`.
//!
//! 1. Set-up and probe, six times: a daemon is spawned on a fresh
//!    root (`setup_s` is the median spawn-to-first-reply time) and given
//!    the probe campaign as its first, unpreseeded submission (`wall_s`
//!    is the median submit-to-complete time). The probe's files must
//!    equal a library `run_campaign` of the same spec byte for byte, and
//!    its directory gives `disk_bytes` and the search-quality metrics.
//!    Five more probes follow step 4, for eleven in all.
//! 2. The run's own daemon is spawned on a fresh root and a 1024-cell
//!    chained matrix is submitted as background load, sized to outlast
//!    the window (checked). The window opens once the matrix has finished
//!    its first [`WARM_CELLS`] cells.
//! 3. Open loop for the window: one thread submits a small campaign once
//!    every 100 ms (writes), another sends a `List` or `Status` request
//!    once every 100 ms (reads), each at a point of its period drawn from
//!    the seed. Each request is timed from when it was due, so a
//!    stall also delays the requests queued behind it. The `List` replies
//!    double as the poll that sees submissions complete (`done_*`).
//! 4. After the window the poll continues until every submission is
//!    complete (or a deadline passes, which fails them), `health` must
//!    show no failed or degraded campaign, and the daemon shuts down.
//!
//! The traced run does the same and then measures the service and
//! protocol layers in-process on the run's root, each small campaign's
//! cells standalone (`cluster.pool_wait_ms`), and the probe through the
//! timed rebuild of `run_campaign`, whose files must equal the daemon's.

use crate::batch::{put_latency, put_quality};
use crate::catalog::catalogue;
use crate::stats::{median, Metrics};
use crate::traced::{layer_value, run_campaign_traced, standalone_cell_ms, tracer_layers, Tracer};
use crate::{
    bin_dir, dir_size, generator_report, ms, put, same_bytes, sleep_until, strings, Ctx, Ledger,
    Report, Sample,
};
use afex::campaign::{build_spec, run_campaign, SpecOptions};
use afex::core::campaign::CampaignSnapshot;
use afex::protocol::{request, Request, Response};
use afex::service::CampaignService;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Daemon pool width.
const WORKERS: &str = "2";

/// The write stream's period: one submission is due in each.
const WRITE_EVERY: Duration = Duration::from_millis(100);

/// The read stream's period: one request is due in each, alternating
/// `List` and a `Status` of the latest submission.
const READ_EVERY: Duration = Duration::from_millis(100);

/// How often a starting daemon's socket is looked for.
const POLL_EVERY: Duration = Duration::from_micros(200);

/// How long after the window submissions may take to complete before
/// they count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// How long a daemon may take to answer its first request, or to exit
/// after `Shutdown`.
const DAEMON_LIMIT: Duration = Duration::from_secs(60);

/// The targets small campaigns rotate over.
const ROTATION: [&str; 4] = ["vfs:docstore-recovery", "httpd", "docstore-0.8", "minidb"];

/// Probe daemons, each timed for `setup_s` and its probe for `wall_s`.
const SPAWNS: usize = 11;

/// Matrix cells that complete before the window opens, so that the
/// window sees the matrix checkpointing from its first request.
const WARM_CELLS: usize = 64;

/// The probe's files compared byte for byte with a library run.
const PROBE_FILES: [&str; 3] = ["campaign.json", "corpus.jsonl", "corpus.jsonl.idx"];

/// In-process calls timed per service query in the traced run.
const QUERY_SAMPLES: usize = 25;

/// Small campaigns whose cells the traced run re-times standalone.
const STANDALONE_SAMPLES: usize = 20;

/// The probe: an unpreseeded campaign on the idle daemon. Its cells run
/// on two `ParallelSession` managers, the path no other part of the
/// benchmark takes.
fn probe_opts(seed: u64) -> SpecOptions {
    SpecOptions {
        targets: strings(&["httpd"]),
        strategies: strings(&["fitness", "random"]),
        seeds: 16,
        base_seed: seed,
        iterations: 2000,
        cell_workers: 2,
        ..SpecOptions::default()
    }
}

/// The background matrix: the chained matrix's targets × 128 seeds =
/// 1024 cells, each stopping at 20 failures. Short cells checkpoint often
/// and the snapshot grows slowly (to about 4 MB in a 20 s window), so the
/// window sees a steady stream of checkpoints rather than a few long
/// ones; the run checks that the matrix is still running when the window
/// closes.
fn matrix_opts(seed: u64) -> SpecOptions {
    SpecOptions {
        targets: strings(&[
            "vfs:minidb-recovery",
            "vfs:docstore-recovery",
            "docstore-0.8",
            "httpd",
        ]),
        strategies: strings(&["fitness", "random"]),
        seeds: 128,
        base_seed: seed,
        iterations: 2000,
        stop: Some("failures:20".into()),
        cell_workers: 1,
        ..SpecOptions::default()
    }
}

/// The `i`th small campaign of the write stream.
fn small_opts(seed: u64, i: u64) -> SpecOptions {
    SpecOptions {
        targets: vec![ROTATION[(seed.wrapping_add(i) % 4) as usize].to_owned()],
        strategies: strings(&["fitness"]),
        seeds: 2,
        base_seed: seed.wrapping_add(i),
        iterations: 500,
        cell_workers: 1,
        ..SpecOptions::default()
    }
}

/// When the `k`th request of a stream is due: at a point of its `k`th
/// period drawn from the seed. The daemon's accept loop sleeps 25 ms
/// whenever no connection is waiting, so requests on a fixed grid would
/// meet it at one phase for a whole run, and their latency would depend
/// on that phase, and jump with it, rather than on the work per request.
/// Drawn due times meet every phase alike, as independent users do, and
/// the two streams no longer arrive together; each stream still sends
/// exactly one request per period.
fn due_at(seed: u64, stream: u64, period: Duration, k: u64) -> Duration {
    let draw = splitmix64(seed ^ splitmix64(stream ^ splitmix64(k)));
    let fraction = (draw >> 11) as f64 / (1u64 << 53) as f64;
    period * k as u32 + period.mul_f64(fraction)
}

/// The SplitMix64 mixing function.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A running daemon, killed and reaped if dropped without a clean
/// shutdown.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `afex-cli serve` and waits for its first reply; returns the
    /// daemon and the spawn-to-first-reply time.
    ///
    /// The request is sent once the socket exists, which the daemon binds
    /// after opening its root. Asking earlier would time the client's
    /// connect back-off (10, 20 and 40 ms) rather than the daemon: a
    /// daemon that opened its root a few milliseconds later would then
    /// be seen up to 40 ms later.
    fn spawn(socket: &Path, root: &Path) -> Result<(Daemon, Duration), String> {
        let cli = bin_dir().join("afex-cli");
        let t0 = Instant::now();
        let child = Command::new(&cli)
            .args(["serve", "--workers", WORKERS, "--socket"])
            .arg(socket)
            .arg("--root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_owned(),
        };
        loop {
            if socket.exists() {
                if let Ok(Response::Health(_)) = request(socket, &Request::Health) {
                    return Ok((daemon, t0.elapsed()));
                }
            }
            let exited = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!("daemon exited before replying: {status}"));
            }
            if t0.elapsed() > DAEMON_LIMIT {
                return Err("daemon did not reply in time".into());
            }
            std::thread::sleep(POLL_EVERY);
        }
    }

    /// Asks the daemon to shut down and waits for it to exit 0.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = request(&self.socket, &Request::Shutdown);
        if !matches!(reply, Ok(Response::ShuttingDown)) {
            return Err(format!("shutdown refused: {reply:?}"));
        }
        let mut child = self.child.take().expect("daemon runs until shut down");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if t0.elapsed() < DAEMON_LIMIT => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Spawns a daemon on the fresh `root` and runs the probe as its first,
/// unpreseeded campaign. Returns the spawn-to-first-reply time and, if
/// the probe completed, its submit-to-complete time, both in seconds.
fn run_probe(
    socket: &Path,
    root: &Path,
    probe: &SpecOptions,
    ledger: &mut Ledger,
) -> Result<(f64, Option<f64>), String> {
    let (d, took) = Daemon::spawn(socket, root)?;
    ledger.ok(1);
    let t0 = Instant::now();
    let id = ledger.op("probe submission", submit(socket, probe));
    ledger.check("the probe is campaign 1", id == Some(1));
    let wall = id
        .and_then(|id| ledger.op("probe completion", wait_complete(socket, id, DAEMON_LIMIT)))
        .map(|done| done.duration_since(t0).as_secs_f64());
    ledger.op("shutdown", d.shutdown());
    Ok((took.as_secs_f64(), wall))
}

/// Submits a campaign and returns its id.
fn submit(socket: &Path, opts: &SpecOptions) -> Result<u64, String> {
    match request(socket, &Request::Submit(opts.clone()))? {
        Response::Submitted { id } => Ok(id),
        other => Err(format!("submission refused: {other:?}")),
    }
}

/// Polls `Status` until the campaign completes; returns when it was
/// first seen complete.
fn wait_complete(socket: &Path, id: u64, limit: Duration) -> Result<Instant, String> {
    let t0 = Instant::now();
    loop {
        match request(socket, &Request::Status { id })? {
            Response::Status(row) if row.failed.is_some() => {
                return Err(format!("campaign {id} failed: {:?}", row.failed))
            }
            Response::Status(row) if row.status.complete => return Ok(Instant::now()),
            Response::Status(_) => {}
            other => return Err(format!("status refused: {other:?}")),
        }
        if t0.elapsed() > limit {
            return Err(format!("campaign {id} did not complete in time"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Polls `Status` until at least `cells` cells of the campaign are done.
fn wait_cells(socket: &Path, id: u64, cells: usize, limit: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        match request(socket, &Request::Status { id })? {
            Response::Status(row) if row.status.cells_done >= cells => return Ok(()),
            Response::Status(_) => {}
            other => return Err(format!("status refused: {other:?}")),
        }
        if t0.elapsed() > limit {
            return Err(format!("campaign {id} did not reach {cells} cells in time"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// What the open loop measured.
#[derive(Debug, Default)]
struct OpenLoop {
    /// One per submission: the sample and the id it got.
    writes: Vec<(Sample, Option<u64>)>,
    reads: Vec<Sample>,
    /// When each campaign id was first seen complete, ms since the
    /// window opened.
    seen_complete: HashMap<u64, f64>,
    failed_requests: u64,
    problems: Vec<String>,
}

/// Runs the two request streams for `window`, then keeps polling until
/// every submission is seen complete or the drain limit passes.
fn open_loop(socket: &Path, seed: u64, window: Duration) -> OpenLoop {
    let t0 = Instant::now();
    let since = |t: Instant| ms(t.duration_since(t0));
    let latest_id = AtomicU64::new(1);
    let writer_done = AtomicBool::new(false);
    let acked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let out = Mutex::new(OpenLoop::default());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0u64;
            loop {
                let due = due_at(seed, 0, WRITE_EVERY, i);
                if due >= window {
                    break;
                }
                sleep_until(t0, due);
                let sent = Instant::now();
                let reply = submit(socket, &small_opts(seed, i));
                let replied = Instant::now();
                let sample = Sample {
                    due: ms(due),
                    sent: since(sent),
                    replied: since(replied),
                };
                let mut o = out.lock().expect("open-loop state poisoned");
                match reply {
                    Ok(id) => {
                        latest_id.store(id, Ordering::SeqCst);
                        acked.lock().expect("ack list poisoned").push(id);
                        o.writes.push((sample, Some(id)));
                    }
                    Err(e) => {
                        o.failed_requests += 1;
                        o.problems.push(e);
                        o.writes.push((sample, None));
                    }
                }
                i += 1;
            }
            writer_done.store(true, Ordering::SeqCst);
        });
        scope.spawn(|| {
            let mut seen: HashMap<u64, f64> = HashMap::new();
            let mut j = 0u64;
            loop {
                let due = due_at(seed, 1, READ_EVERY, j);
                let in_window = due < window;
                if !in_window {
                    let acked = acked.lock().expect("ack list poisoned");
                    let all_seen = acked.iter().all(|id| seen.contains_key(id));
                    if (writer_done.load(Ordering::SeqCst) && all_seen)
                        || due >= window + DRAIN_LIMIT
                    {
                        break;
                    }
                }
                sleep_until(t0, due);
                // After the window only `List` polls run, as the completion
                // poll; they are not read samples.
                let req = if j.is_multiple_of(2) || !in_window {
                    Request::List
                } else {
                    Request::Status {
                        id: latest_id.load(Ordering::SeqCst),
                    }
                };
                let sent = Instant::now();
                let reply = request(socket, &req);
                let replied = Instant::now();
                let ok = match &reply {
                    Ok(Response::List(rows)) => {
                        for row in rows.iter().filter(|r| r.status.complete) {
                            seen.entry(row.id).or_insert_with(|| since(replied));
                        }
                        true
                    }
                    Ok(Response::Status(_)) => true,
                    _ => false,
                };
                let mut o = out.lock().expect("open-loop state poisoned");
                if !ok {
                    o.failed_requests += 1;
                    o.problems.push(format!("read refused: {reply:?}"));
                }
                if in_window {
                    o.reads.push(Sample {
                        due: ms(due),
                        sent: since(sent),
                        replied: since(replied),
                    });
                }
                j += 1;
            }
            out.lock().expect("open-loop state poisoned").seen_complete = seen;
        });
    });
    out.into_inner().expect("open-loop state poisoned")
}

/// Entries in a campaign's frozen `preseed.json`.
fn preseed_entries(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let v: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    Ok(v.get("targets")
        .and_then(serde::Value::as_array)
        .map_or(0, |targets| {
            targets
                .iter()
                .filter_map(|t| t.get("entries").and_then(serde::Value::as_array))
                .map(<[serde::Value]>::len)
                .sum()
        }))
}

/// Times `f` `n` times, returning the median in ms.
fn median_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            ms(t0.elapsed())
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Runs the workload; `trace` selects the per-layer report.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let mut ledger = Ledger::default();
    let mut m = Metrics::new();
    let root = ctx.work.join("root");
    let socket = ctx.work.join("d.sock");

    // 1. Set-up and the probe, on the first of eleven throwaway roots.
    let probe = probe_opts(ctx.seed);
    let mut setups = Vec::new();
    let mut probe_walls = Vec::new();
    let probe_roots: Vec<PathBuf> = (0..SPAWNS)
        .map(|i| ctx.work.join(format!("probe-{i}")))
        .collect();
    let probe_socket = |i: usize| ctx.work.join(format!("p{i}.sock"));
    let (early, late) = probe_roots.split_at(SPAWNS.div_ceil(2));
    for (i, probe_root) in early.iter().enumerate() {
        let (setup, wall) = run_probe(&probe_socket(i), probe_root, &probe, &mut ledger)?;
        setups.push(setup);
        probe_walls.extend(wall);
    }
    let (daemon, took) = Daemon::spawn(&socket, &root)?;
    setups.push(took.as_secs_f64());
    ledger.ok(1);

    // 2. Background matrix, 3. open loop, 4. drain.
    let matrix = ledger.op("matrix submission", submit(&socket, &matrix_opts(ctx.seed)));
    if let Some(id) = matrix {
        ledger.op(
            "matrix warm-up",
            wait_cells(&socket, id, WARM_CELLS, DAEMON_LIMIT),
        );
    }
    let ol = open_loop(&socket, ctx.seed, ctx.window);
    let window_ms = ms(ctx.window);
    ledger.attempted += (ol.writes.len() + ol.reads.len()) as u64;
    ledger.failed += ol.failed_requests;
    for p in &ol.problems {
        eprintln!("e2ebench: {p}");
    }
    let mut done = Vec::new();
    let mut incomplete = 0;
    let mut done_by_index = Vec::new();
    for (i, (s, id)) in ol.writes.iter().enumerate() {
        match id.and_then(|id| ol.seen_complete.get(&id)) {
            Some(&at) => {
                done.push(at - s.due);
                done_by_index.push((i as u64, at - s.due));
            }
            None => incomplete += 1,
        }
    }
    ledger.check(
        "every submission completed before the deadline",
        incomplete == 0,
    );
    ledger.check(
        "the background matrix outlasted the window",
        matrix.is_some_and(|id| ol.seen_complete.get(&id).is_none_or(|&at| at >= window_ms)),
    );
    let health = ledger.op("health", request(&socket, &Request::Health));
    ledger.check(
        "health shows no failed or degraded campaign",
        matches!(&health, Some(Response::Health(h)) if h.failed.is_empty() && h.degraded.is_empty()),
    );
    ledger.op("shutdown", daemon.shutdown());

    // The rest of the probes, so that the probes sample the machine's
    // speed over the whole run and not only its first seconds: the speed
    // wanders by a third over tens of seconds.
    for (i, probe_root) in late.iter().enumerate() {
        let (setup, wall) = run_probe(
            &probe_socket(early.len() + i),
            probe_root,
            &probe,
            &mut ledger,
        )?;
        setups.push(setup);
        probe_walls.extend(wall);
    }
    let probe_dir = probe_roots[0].join("campaigns").join("1");
    for other in &probe_roots[1..] {
        ledger.check(
            "every probe run writes the same snapshot",
            same_bytes(
                &probe_dir.join("campaign.json"),
                &other.join("campaigns/1/campaign.json"),
            ),
        );
    }

    // The probe against the library.
    let parity_dir = ctx.work.join("parity");
    let mut lib = CampaignSnapshot::new(build_spec(&probe).map_err(|e| e.to_string())?);
    let t0 = Instant::now();
    ledger.op(
        "library run_campaign",
        run_campaign(
            &mut lib,
            1,
            &parity_dir,
            Some(&parity_dir.join("corpus.jsonl")),
            false,
        ),
    );
    let plain_wall = t0.elapsed().as_secs_f64();
    for f in PROBE_FILES {
        ledger.check(
            &format!("the probe's {f} equals a library run_campaign's byte for byte"),
            same_bytes(&probe_dir.join(f), &parity_dir.join(f)),
        );
    }

    let generated: Vec<Sample> = ol
        .writes
        .iter()
        .map(|(s, _)| *s)
        .chain(ol.reads.iter().copied())
        .collect();
    let (lateness, backlog) = generator_report(&generated, window_ms);
    println!(
        "service-open-loop: probes {probe_walls:?} s; {} submissions, {} reads, {} seen complete, generator lateness p50 {:.3} ms max {:.3} ms, backlog {} at window end",
        ol.writes.len(),
        ol.reads.len(),
        done.len(),
        median(&lateness).unwrap_or(0.0),
        lateness.iter().copied().fold(0.0, f64::max),
        backlog
    );

    if !trace {
        println!("service-open-loop: spawns {setups:?} s");
        let snap = std::fs::read_to_string(probe_dir.join("campaign.json"))
            .map_err(|e| e.to_string())
            .and_then(|t| CampaignSnapshot::from_json(&t).map_err(|e| e.to_string()));
        let snap = ledger
            .op("probe snapshot", snap)
            .ok_or("the probe left no snapshot")?;
        put(&mut m, "setup_s", median(&setups).unwrap_or(0.0));
        put(&mut m, "wall_s", median(&probe_walls).unwrap_or(0.0));
        put(&mut m, "disk_bytes", dir_size(&probe_dir) as f64);
        put_quality(&mut m, &snap, &mut ledger);
        put_latency(&mut m, "done", &done, &mut ledger);
        let submits: Vec<f64> = ol.writes.iter().map(|(s, _)| s.replied - s.due).collect();
        put_latency(&mut m, "submit", &submits, &mut ledger);
        let reads: Vec<f64> = ol.reads.iter().map(|s| s.replied - s.due).collect();
        put_latency(&mut m, "read", &reads, &mut ledger);
        return Ok(Report { metrics: m, ledger });
    }

    // Traced: the service layer in-process on the same root.
    let t0 = Instant::now();
    let service = ledger
        .op("service open", CampaignService::open(&root, 2))
        .ok_or("cannot open the service root")?;
    let open_ms = ms(t0.elapsed());
    let next = ol.writes.len() as u64;
    let t0 = Instant::now();
    let id = ledger.op(
        "in-process submit",
        service.submit(&small_opts(ctx.seed, next)),
    );
    let submit_ms = ms(t0.elapsed());
    let preseed = id.and_then(|id| {
        ledger.op(
            "preseed.json",
            preseed_entries(&service.campaign_dir(id).join("preseed.json")),
        )
    });
    let list_ms = median_ms(QUERY_SAMPLES, || service.list());
    let status_ms = median_ms(QUERY_SAMPLES, || service.status(id.unwrap_or(1)));
    service.shutdown();

    // Protocol: round trip from send, against the in-process call.
    let roundtrip: Vec<f64> = ol.reads.iter().map(|s| s.replied - s.sent).collect();
    let roundtrip_ms = median(&roundtrip).unwrap_or(0.0);
    let in_process_ms = (list_ms + status_ms) / 2.0;

    // Pool wait: done latency minus the campaign's own cells run alone.
    let tracer = Tracer::default();
    let mut waits = Vec::new();
    for &(i, done_ms) in done_by_index.iter().take(STANDALONE_SAMPLES) {
        let spec = build_spec(&small_opts(ctx.seed, i)).map_err(|e| e.to_string())?;
        let own: f64 = spec
            .cells()
            .iter()
            .map(|c| standalone_cell_ms(c, &spec, &tracer))
            .sum();
        waits.push(done_ms - own);
    }

    // The probe again, through the timed rebuild of `run_campaign`.
    let traced_dir = ctx.work.join("traced-probe");
    let mut traced = CampaignSnapshot::new(build_spec(&probe).map_err(|e| e.to_string())?);
    let t0 = Instant::now();
    ledger.op(
        "traced probe run_campaign",
        run_campaign_traced(&mut traced, 1, &traced_dir, &tracer),
    );
    let traced_wall = t0.elapsed().as_secs_f64();
    for f in PROBE_FILES {
        ledger.check(
            &format!("the traced probe's {f} equals the daemon's byte for byte"),
            same_bytes(&probe_dir.join(f), &traced_dir.join(f)),
        );
    }

    let layers = tracer_layers(&tracer);
    for name in catalogue().per_layer.iter().map(|m| m.name.as_str()) {
        let value = match name {
            "cluster.pool_wait_ms" => median(&waits).unwrap_or(0.0),
            "service.open_ms" => open_ms,
            "service.submit_ms" => submit_ms,
            "service.list_ms" => list_ms,
            "service.status_ms" => status_ms,
            "service.preseed_traces" => preseed.unwrap_or(0) as f64,
            "protocol.roundtrip_ms" => roundtrip_ms,
            "protocol.overhead_ms" => roundtrip_ms - in_process_ms,
            "generator.lateness_p50_ms" => median(&lateness).unwrap_or(0.0),
            "generator.lateness_max_ms" => lateness.iter().copied().fold(0.0, f64::max),
            "generator.backlog" => backlog as f64,
            "trace.plain_wall_s" => plain_wall,
            "trace.traced_wall_s" => traced_wall,
            "trace.overhead_pct" => (traced_wall / plain_wall - 1.0) * 100.0,
            // The campaign, explorer, target and `ParallelSession`
            // layers as the standalone small campaign cells and the
            // traced probe exercised them; the process layer and
            // resumes are not reached and report 0.
            _ => layer_value(&layers, name),
        };
        put(&mut m, name, value);
    }
    Ok(Report { metrics: m, ledger })
}
