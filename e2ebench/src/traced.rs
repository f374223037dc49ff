//! The traced campaign run: `run_campaign` rebuilt from the library's
//! public parts, with a timer around every call into a layer.
//!
//! The rebuild mirrors `afex::campaign::run_campaign` step for step —
//! output directory, stale-temp sweep, fresh export, one cell chain per
//! target on a `CampaignScheduler`, a record + checkpoint + export sync
//! after every cell, a final checkpoint and `summary.json` — and mirrors
//! `run_cell` for each target family. The timers sit in the benchmark's
//! own wrappers:
//!
//! - [`TimedExplore`] around the explorer built by `SearchStrategy::build`
//!   (candidate generation, completion, issue-to-completion latency);
//! - the `OutcomeEvaluator` closure around `RecoverySpace::execute` and
//!   `TargetSpace::execute`;
//! - [`TimedExecutor`] around the real-process `ProcessExecutor`;
//! - the scheduler callbacks around `CampaignSnapshot::record`,
//!   `write_snapshot` and `CorpusExporter::sync`.
//!
//! The caller compares the traced run's files with an untraced
//! `run_campaign` of the same spec byte for byte.

use crate::stats::{median, quotable};
use afex::campaign::{
    chain_seeds_cached, default_metric, is_proc_target, proc_target_space, target_space,
    vfs_target_space, write_snapshot, CorpusExporter, TraceSeeds,
};
use afex::cluster::{CampaignScheduler, CellChain, ParallelSession};
use afex::core::campaign::{
    metric_from_name, strategy_from_name, CampaignCell, CampaignReport, CampaignSnapshot,
    CampaignSpec, CellOutcome,
};
use afex::core::queues::PendingTest;
use afex::core::{
    Engine, Evaluation, ExecutedTest, Executor, Explore, ExplorerConfig, OutcomeEvaluator,
    ProcessEvaluator, ProcessExecutor, ProcessRunner, SearchStrategy, SessionResult,
};
use afex::space::PointCodec;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds since `t`, saturating.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counters and busy times gathered across every cell of a traced run.
/// Statistics only: every field is an independent `Relaxed` counter.
#[derive(Debug, Default)]
pub struct Tracer {
    pub cell_ns: AtomicU64,
    pub record_ns: AtomicU64,
    pub checkpoint_ns: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
    pub checkpoints: AtomicU64,
    pub export_sync_ns: AtomicU64,
    pub generate_ns: AtomicU64,
    pub complete_ns: AtomicU64,
    pub complete_fitness_ns: AtomicU64,
    pub candidates: AtomicU64,
    pub seed_traces: AtomicU64,
    pub vfs_exec_ns: AtomicU64,
    pub vfs_tests: AtomicU64,
    pub sim_exec_ns: AtomicU64,
    pub sim_tests: AtomicU64,
    pub tests: AtomicU64,
    pub failures: AtomicU64,
    pub crashes: AtomicU64,
    /// Issue-to-completion time of tests run on a `ParallelSession`.
    pub pool_latency_ns: AtomicU64,
    /// Execute time of the same tests.
    pub pool_exec_ns: AtomicU64,
    pub pool_tests: AtomicU64,
    /// Submit-to-receive time of each real-process test, in ms.
    pub proc_test_ms: Mutex<Vec<f64>>,
    pub proc_hung: AtomicU64,
}

impl Tracer {
    fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// An [`Explore`] wrapper timing candidate generation and completion,
/// and each test's issue-to-completion latency. Engines complete tests
/// in issue order, so a FIFO of issue instants pairs each completion
/// with its issue.
struct TimedExplore {
    inner: Box<dyn Explore>,
    fitness: bool,
    issued: VecDeque<Instant>,
    generate_ns: u64,
    complete_ns: u64,
    candidates: u64,
    latency_ns: u64,
}

impl TimedExplore {
    fn new(inner: Box<dyn Explore>, fitness: bool) -> Self {
        TimedExplore {
            inner,
            fitness,
            issued: VecDeque::new(),
            generate_ns: 0,
            complete_ns: 0,
            candidates: 0,
            latency_ns: 0,
        }
    }

    fn flush(&self, t: &Tracer) {
        Tracer::add(&t.generate_ns, self.generate_ns);
        Tracer::add(&t.complete_ns, self.complete_ns);
        if self.fitness {
            Tracer::add(&t.complete_fitness_ns, self.complete_ns);
        }
        Tracer::add(&t.candidates, self.candidates);
    }
}

impl Explore for TimedExplore {
    fn next_candidate(&mut self) -> Option<PendingTest> {
        let t0 = Instant::now();
        let next = self.inner.next_candidate();
        self.generate_ns += ns_since(t0);
        if next.is_some() {
            self.candidates += 1;
            self.issued.push_back(Instant::now());
        }
        next
    }

    fn complete(&mut self, test: PendingTest, evaluation: Evaluation) -> ExecutedTest {
        if let Some(issued) = self.issued.pop_front() {
            self.latency_ns += ns_since(issued);
        }
        let t0 = Instant::now();
        let done = self.inner.complete(test, evaluation);
        self.complete_ns += ns_since(t0);
        done
    }
}

/// An [`Executor`] wrapper timing each test from submit to receive.
struct TimedExecutor<'t, E> {
    inner: E,
    submitted: HashMap<u64, Instant>,
    tracer: &'t Tracer,
}

impl<E: Executor> Executor for TimedExecutor<'_, E> {
    fn submit(&mut self, id: u64, test: &PendingTest) -> bool {
        self.submitted.insert(id, Instant::now());
        self.inner.submit(id, test)
    }

    fn recv(&mut self) -> Option<(u64, Evaluation)> {
        let (id, eval) = self.inner.recv()?;
        if let Some(t0) = self.submitted.remove(&id) {
            self.tracer
                .proc_test_ms
                .lock()
                .expect("sample list poisoned")
                .push(t0.elapsed().as_secs_f64() * 1e3);
        }
        if eval.hung {
            Tracer::add(&self.tracer.proc_hung, 1);
        }
        Some((id, eval))
    }
}

/// Runs an in-process target (vfs or simulated) the way
/// `run_vfs_windowed`/`run_windowed` do — one copy of the target per
/// manager on a `ParallelSession` when `workers > 1` (each evaluator
/// clones `execute` and the target it owns), the sequential engine
/// otherwise — timing every `execute` call into the family's
/// `(exec_ns, tests)` counters.
fn run_in_process<F>(
    execute: F,
    (family_ns, family_tests): (&AtomicU64, &AtomicU64),
    metric: &afex::core::ImpactMetric,
    explorer: &mut TimedExplore,
    stop: afex::core::StopCondition,
    workers: usize,
    t: &Tracer,
) -> SessionResult
where
    F: Fn(&afex::space::Point) -> afex::inject::TestOutcome + Clone + Send + Sync,
{
    let exec_ns = AtomicU64::new(0);
    let timed = || {
        let execute = execute.clone();
        let exec_ns = &exec_ns;
        OutcomeEvaluator::new(
            move |p| {
                let t0 = Instant::now();
                let out = execute(p);
                Tracer::add(exec_ns, ns_since(t0));
                out
            },
            metric.clone(),
        )
    };
    let result = if workers > 1 {
        let result = ParallelSession::new(workers).run_with_stop(explorer, |_| timed(), stop);
        Tracer::add(&t.pool_latency_ns, explorer.latency_ns);
        Tracer::add(&t.pool_exec_ns, Tracer::get(&exec_ns));
        Tracer::add(&t.pool_tests, result.len() as u64);
        result
    } else {
        Engine::sequential().run(explorer, &timed(), stop)
    };
    Tracer::add(family_ns, Tracer::get(&exec_ns));
    Tracer::add(family_tests, result.len() as u64);
    result
}

/// `run_cell`, rebuilt with timers.
fn traced_cell(
    cell: &CampaignCell,
    spec: &CampaignSpec,
    seeds: &TraceSeeds,
    t: &Tracer,
) -> CellOutcome {
    let t0 = Instant::now();
    let metric = spec
        .metric
        .as_deref()
        .map(|n| metric_from_name(n).expect("validated metric"))
        .unwrap_or_else(|| default_metric(&cell.target));
    let strategy = match strategy_from_name(&cell.strategy).expect("validated strategy") {
        SearchStrategy::Fitness(cfg) => SearchStrategy::Fitness(ExplorerConfig {
            redundancy_feedback: true,
            ..cfg
        }),
        other => other,
    };
    let fitness = matches!(strategy, SearchStrategy::Fitness(_));
    let stop = spec.stop.to_condition(spec.iterations);
    let workers = spec.cell_workers.0;
    Tracer::add(&t.seed_traces, seeds.len() as u64);
    let (result, codec) = if is_proc_target(&cell.target) {
        let ps = proc_target_space(&cell.target).expect("proc artifacts are checked up front");
        let mut explorer = TimedExplore::new(
            strategy.build(ps.space_arc(), cell.seed, seeds.store().clone()),
            fitness,
        );
        let plan_space = ps.clone();
        let eval = ProcessEvaluator::new(
            move |p| plan_space.plan_for(p),
            ProcessRunner::new(spec.timeout.0),
            metric,
        );
        let mut exec = TimedExecutor {
            inner: ProcessExecutor::new(eval),
            submitted: HashMap::new(),
            tracer: t,
        };
        let result = Engine::new(workers).drive(&mut explorer, stop, &mut exec);
        explorer.flush(t);
        (result, PointCodec::for_space(ps.space()))
    } else if let Some(rs) = vfs_target_space(&cell.target) {
        let mut explorer = TimedExplore::new(
            strategy.build(rs.space_arc(), cell.seed, seeds.store().clone()),
            fitness,
        );
        let target = rs.clone();
        let result = run_in_process(
            move |p| target.execute(p),
            (&t.vfs_exec_ns, &t.vfs_tests),
            &metric,
            &mut explorer,
            stop,
            workers,
            t,
        );
        explorer.flush(t);
        (result, PointCodec::for_space(rs.space()))
    } else {
        let ts = target_space(&cell.target).expect("validated target");
        let mut explorer = TimedExplore::new(
            strategy.build(ts.space_arc(), cell.seed, seeds.store().clone()),
            fitness,
        );
        let target = ts.clone();
        let result = run_in_process(
            move |p| target.execute(p),
            (&t.sim_exec_ns, &t.sim_tests),
            &metric,
            &mut explorer,
            stop,
            workers,
            t,
        );
        explorer.flush(t);
        (result, PointCodec::for_space(ts.space()))
    };
    let codec = codec.expect("all campaign target spaces fit u64 point codes");
    let outcome = CellOutcome::from_session(cell.index, &result, &codec);
    Tracer::add(&t.tests, outcome.tests as u64);
    Tracer::add(&t.failures, outcome.failures as u64);
    Tracer::add(&t.crashes, outcome.crashes as u64);
    Tracer::add(&t.cell_ns, ns_since(t0));
    outcome
}

/// Writes one checkpoint (snapshot + export sync) with timers; the byte
/// count comes from the written file's size.
fn traced_checkpoint(
    snap: &CampaignSnapshot,
    snap_path: &Path,
    exporter: &mut CorpusExporter,
    t: &Tracer,
) -> std::io::Result<()> {
    let t0 = Instant::now();
    write_snapshot(snap, snap_path)?;
    Tracer::add(&t.checkpoint_ns, ns_since(t0));
    Tracer::add(&t.checkpoints, 1);
    Tracer::add(&t.checkpoint_bytes, std::fs::metadata(snap_path)?.len());
    let t0 = Instant::now();
    exporter.sync(snap)?;
    Tracer::add(&t.export_sync_ns, ns_since(t0));
    Ok(())
}

/// `run_campaign(snap, workers, out_dir, Some(out_dir/corpus.jsonl),
/// false)`, rebuilt with timers.
///
/// # Errors
///
/// Returns the first I/O error, as `run_campaign` would.
pub fn run_campaign_traced(
    snap: &mut CampaignSnapshot,
    workers: usize,
    out_dir: &Path,
    t: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    afex::campaign::sweep_stale_tmp(out_dir)?;
    let mut exporter = CorpusExporter::create(&out_dir.join("corpus.jsonl"))?;
    let snap_path = out_dir.join("campaign.json");
    let spec = snap.spec.clone();
    let pending = snap.pending();
    let mut first_err: Option<std::io::Error> = None;
    if !pending.is_empty() {
        snap.ensure_trace_index();
        let chains: Vec<CellChain<TraceSeeds, CampaignCell>> = spec
            .targets
            .iter()
            .filter_map(|target| {
                let cells: Vec<CampaignCell> = pending
                    .iter()
                    .filter(|c| &c.target == target)
                    .cloned()
                    .collect();
                (!cells.is_empty()).then(|| CellChain {
                    state: chain_seeds_cached(snap, target),
                    cells,
                })
            })
            .collect();
        CampaignScheduler::new(workers).run_chains(
            chains,
            |cell, seeds: &TraceSeeds| (cell.index, traced_cell(cell, &spec, seeds, t)),
            |seeds, _cell, (_, outcome)| seeds.absorb(outcome),
            |(index, outcome)| {
                let t0 = Instant::now();
                snap.record(index, outcome);
                Tracer::add(&t.record_ns, ns_since(t0));
                if first_err.is_none() {
                    first_err = traced_checkpoint(snap, &snap_path, &mut exporter, t).err();
                }
            },
        );
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    traced_checkpoint(snap, &snap_path, &mut exporter, t)?;
    let report = CampaignReport::from_snapshot(snap);
    std::fs::write(out_dir.join("summary.json"), report.to_json() + "\n")
}

/// Runs one cell standalone (no chain seeds), the way the campaign
/// service's pool would run it alone, with the timers of `t`, and
/// returns its wall time in ms.
pub fn standalone_cell_ms(cell: &CampaignCell, spec: &CampaignSpec, t: &Tracer) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(traced_cell(cell, spec, &TraceSeeds::new(), t));
    t0.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds in a nanosecond counter.
fn counter_ms(counter: &AtomicU64) -> f64 {
    Tracer::get(counter) as f64 / 1e6
}

/// The per-layer metrics a tracer gathered, by catalogue name.
pub fn tracer_layers(t: &Tracer) -> Vec<(&'static str, f64)> {
    let count = |c: &AtomicU64| Tracer::get(c) as f64;
    let per_test_us =
        |ns: &AtomicU64, n: &AtomicU64| Tracer::get(ns) as f64 / 1e3 / Tracer::get(n).max(1) as f64;
    let proc_ms = t.proc_test_ms.lock().expect("sample list poisoned").clone();
    let pool_tests = Tracer::get(&t.pool_tests);
    // Issue-to-completion minus execute time, per test run on a pool.
    let manager_overhead_us = if pool_tests == 0 {
        0.0
    } else {
        (count(&t.pool_latency_ns) - count(&t.pool_exec_ns)) / 1e3 / pool_tests as f64
    };
    vec![
        ("campaign.cell_ms", counter_ms(&t.cell_ns)),
        ("campaign.record_ms", counter_ms(&t.record_ns)),
        ("campaign.checkpoint_ms", counter_ms(&t.checkpoint_ns)),
        ("campaign.checkpoint_bytes", count(&t.checkpoint_bytes)),
        ("campaign.checkpoints", count(&t.checkpoints)),
        ("campaign.export_sync_ms", counter_ms(&t.export_sync_ns)),
        ("core.generate_ms", counter_ms(&t.generate_ns)),
        ("core.complete_ms", counter_ms(&t.complete_ns)),
        (
            "core.complete_fitness_ms",
            counter_ms(&t.complete_fitness_ns),
        ),
        ("core.candidates", count(&t.candidates)),
        ("core.seed_traces", count(&t.seed_traces)),
        ("targets.vfs_exec_ms", counter_ms(&t.vfs_exec_ns)),
        (
            "targets.vfs_us_per_test",
            per_test_us(&t.vfs_exec_ns, &t.vfs_tests),
        ),
        ("targets.sim_exec_ms", counter_ms(&t.sim_exec_ns)),
        (
            "targets.sim_us_per_test",
            per_test_us(&t.sim_exec_ns, &t.sim_tests),
        ),
        ("targets.tests", count(&t.tests)),
        ("targets.failures", count(&t.failures)),
        ("targets.crashes", count(&t.crashes)),
        ("process.test_ms_p50", median(&proc_ms).unwrap_or(0.0)),
        (
            "process.test_ms_p95",
            quotable(&proc_ms, 95.0).unwrap_or(0.0),
        ),
        ("process.tests", proc_ms.len() as f64),
        ("process.hung", count(&t.proc_hung)),
        ("cluster.manager_overhead_us", manager_overhead_us),
    ]
}

/// The value of `name` among `layers`, or 0 for a layer the run did not
/// reach.
pub fn layer_value(layers: &[(&str, f64)], name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_layers_are_catalogued() {
        for (name, _) in tracer_layers(&Tracer::default()) {
            assert!(crate::catalog::unit_of(name).is_some(), "{name}");
        }
    }
}
