//! `serve-steal` and `serve-checkpoint`: closed batches of tasks
//! through both pool drivers of `cm-engines`.
//!
//! Why: the fleet is the libseff effect shapes and the mark and
//! attachment micros at their checksum scales, with the heavy shapes on
//! the last two thirds of the ids one worker's shard holds
//! (`id % workers == 0`). That worker runs its light tasks first, so
//! every light task finishes in the batch's opening burst and the median
//! turnaround falls inside that burst, not at its edge, where it would
//! swing with every steal.
//! `serve-steal` runs it on the stealing pool with migration on, so the
//! scheduler, steal/donate and snapshot *restore* (with re-verification)
//! on migration do the work. `serve-checkpoint` runs the same kind of
//! fleet on the static supervised pool with a checkpoint at every
//! suspension, so snapshot *encode* does. Together they load both pool
//! drivers and both directions of the codec. Batches are closed (the
//! pool has no arrival API): latency is turnaround from batch submit,
//! queue wait included.
//!
//! Oracle: each task's pinned checksum from `cm_torture::torture_targets`
//! plus an exact completion manifest — every id exactly once.

use std::time::{Duration, Instant};

use cm_core::EngineConfig;
use cm_engines::{
    jain_index, run_pool, JobSpec, Outcome as TaskOutcome, PoolConfig, PoolReport, PoolSpec,
    RunResult, SchedConfig, StealConfig, WorkerHost,
};

use crate::measure::{Setups, Timed};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::tracer::{
    call, code_instrs, push_per_layer, Layer, LayerTotals, PoolTotals, Tracer, SETUP_OP,
};
use crate::Options;

/// Pool worker threads: the two cores of the reference machine, and no
/// more.
pub const WORKERS: usize = 2;

/// Fuel per scheduler slice.
const SLICE: u64 = 5_000;

/// Tasks per closed batch.
const BATCH: usize = 600;

/// Jobs driven slice by slice through snapshot/restore in a traced run.
const SAMPLE_JOBS: usize = 24;

/// The fleet's heavy shapes (the ones that take ≥ 0.5 ms a call).
const HEAVY: [&str; 4] = [
    "effects/deep",
    "effects/pipes",
    "effects/chain",
    "effects/amb",
];

/// Which pool driver a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// The work-stealing pool with migration.
    Steal,
    /// The static supervised pool, checkpointing at every suspension.
    Checkpoint,
}

impl Pool {
    fn config(self, record_spans: bool) -> PoolConfig {
        PoolConfig {
            workers: WORKERS,
            sched: SchedConfig {
                slice: SLICE,
                record_spans,
                checkpoint: self == Pool::Checkpoint,
                ..SchedConfig::default()
            },
            engine: EngineConfig::full(),
            steal: (self == Pool::Steal).then(|| StealConfig {
                migrate: true,
                ..StealConfig::default()
            }),
        }
    }
}

/// One fleet task kind: its entry expression and pinned checksum.
#[derive(Debug, Clone)]
pub struct Kind {
    /// Torture target name.
    pub name: String,
    /// Entry expression.
    pub run: String,
    /// Pinned `write` form of the result.
    pub expected: String,
}

/// The task kinds and the definitions they need.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Definition sources each worker loads once.
    pub setups: Vec<String>,
    /// Kinds placed only on shard 0, on the last two thirds of its ids.
    pub heavy: Vec<Kind>,
    /// Kinds placed on the other shards.
    pub light: Vec<Kind>,
}

/// The effect shapes and the mark and attachment micros of the torture
/// corpus, with their pinned checksums.
pub fn corpus() -> Corpus {
    let mut c = Corpus {
        setups: Vec::new(),
        heavy: Vec::new(),
        light: Vec::new(),
    };
    for t in cm_torture::torture_targets(false) {
        let in_fleet = ["effects/", "mark/", "attach/"]
            .iter()
            .any(|p| t.name.starts_with(p));
        let Some(expected) = t.expected.clone().filter(|_| in_fleet) else {
            continue;
        };
        if !t.setup.is_empty() && !c.setups.contains(&t.setup) {
            c.setups.push(t.setup.clone());
        }
        let kind = Kind {
            name: t.name.clone(),
            run: t.run.clone(),
            expected,
        };
        if HEAVY.contains(&t.name.as_str()) {
            c.heavy.push(kind);
        } else {
            c.light.push(kind);
        }
    }
    c
}

/// A batch: the pool spec and each id's expected result.
pub struct Batch {
    /// What `run_pool` gets.
    pub spec: PoolSpec,
    /// Expected result per task id.
    pub expected: Vec<String>,
}

/// A seeded batch of `tasks` tasks: heavy kinds on the last two thirds
/// of the ids `≡ 0 mod WORKERS` (worker 0's shard), light kinds
/// everywhere else. Each group's kinds are dealt in shuffled rounds, so
/// every batch of a size holds the same mix and the seed draws only the
/// order.
pub fn batch(c: &Corpus, rng: &mut Rng, tasks: usize) -> Batch {
    let shard0 = tasks.div_ceil(WORKERS);
    let heavy_count = shard0 * 2 / 3;
    let mut heavy = rng.deal(c.heavy.len(), heavy_count).into_iter();
    let mut light = rng.deal(c.light.len(), tasks - heavy_count).into_iter();
    batch_of(
        c,
        (0..tasks).map(|id| {
            if id % WORKERS == 0 && id / WORKERS >= shard0 - heavy_count {
                &c.heavy[heavy.next().unwrap_or_default()]
            } else {
                &c.light[light.next().unwrap_or_default()]
            }
        }),
    )
}

/// A batch whose task `id` runs the `id`th of `kinds`.
fn batch_of<'a>(c: &Corpus, kinds: impl Iterator<Item = &'a Kind>) -> Batch {
    let (jobs, expected) = kinds
        .enumerate()
        .map(|(id, k)| {
            let job = JobSpec {
                name: format!("{}#{id}", k.name),
                run: k.run.clone(),
                expected: Some(k.expected.clone()),
            };
            (job, k.expected.clone())
        })
        .unzip();
    Batch {
        spec: PoolSpec {
            setups: c.setups.clone(),
            jobs,
            verify: true,
        },
        expected,
    }
}

/// The correctness gate for one batch: every id reported exactly once,
/// completed, with its pinned checksum. Correct tasks add their
/// turnaround to `timed`; everything else counts as failed.
pub fn gate(report: &PoolReport, expected: &[String], out: &mut Outcome, timed: &mut Timed) {
    out.attempted += expected.len() as u64;
    let mut seen = vec![false; expected.len()];
    for r in report.all_reports() {
        match seen.get_mut(r.id) {
            None => {
                out.fail(format!("task id {} not in the batch", r.id));
                continue;
            }
            Some(true) => {
                out.fail(format!("{}: reported twice", r.name));
                continue;
            }
            Some(s) => *s = true,
        }
        match &r.outcome {
            TaskOutcome::Completed(got) if *got == expected[r.id] => timed.op(r.turnaround),
            TaskOutcome::Completed(got) => out.fail(format!(
                "{}: got {got}, expected {}",
                r.name, expected[r.id]
            )),
            other => out.fail(format!("{}: {other:?}", r.name)),
        }
    }
    for (id, s) in seen.iter().enumerate() {
        if !s {
            out.fail(format!("task {id} never reported"));
        }
    }
}

/// Runs one batch and returns the report with the call's wall time.
fn run_batch(pool: Pool, b: &Batch, record_spans: bool) -> (PoolReport, Duration) {
    let t = Instant::now();
    let report = run_pool(&pool.config(record_spans), &b.spec);
    (report, t.elapsed())
}

/// Set-up: the corpus, checked to load, and a warm-up batch that runs
/// every kind once (the same for every seed, so `setup_s` does not vary
/// with the seed's draw).
fn setup(pool: Pool) -> Result<Corpus, String> {
    let c = corpus();
    if c.heavy.len() != HEAVY.len() || c.light.is_empty() {
        return Err(format!(
            "fleet corpus changed: {} heavy, {} light kinds",
            c.heavy.len(),
            c.light.len()
        ));
    }
    let warm = batch_of(&c, c.heavy.iter().chain(&c.light));
    let (report, _) = run_batch(pool, &warm, false);
    let mut check = Outcome::default();
    gate(&report, &warm.expected, &mut check, &mut Timed::default());
    match check.errors.first() {
        Some(e) => Err(format!("warm-up batch: {e}")),
        None => Ok(c),
    }
}

/// Runs `serve-steal` or `serve-checkpoint` (see the module docs).
pub fn run(opts: &Options, pool: Pool) -> Outcome {
    let mut out = Outcome::default();
    let batch_size = if opts.quick { 40 } else { BATCH };
    if opts.trace {
        let c = match setup(pool) {
            Ok(c) => c,
            Err(e) => return out.setup_failed(e),
        };
        return traced(opts, pool, &c, batch_size, out);
    }
    let new_setup = || setup(pool);
    let (c, mut setups) = Setups::first(opts.setup_repeats(), new_setup);
    let c = match c {
        Ok(c) => c,
        Err(e) => return out.setup_failed(e),
    };
    let mut rng = Rng::stream(opts.seed, 1);
    let mut timed = Timed::default();
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - paused < opts.run_time() {
        paused += setups.between(start.elapsed() - paused, opts.run_time(), new_setup);
        let b = batch(&c, &mut rng, batch_size);
        let (report, wall) = run_batch(pool, &b, false);
        gate(&report, &b.expected, &mut out, &mut timed);
        timed.elapsed(wall);
    }
    timed.finish(&mut out, setups.finish(new_setup));
    out
}

fn traced(opts: &Options, pool: Pool, c: &Corpus, batch_size: usize, mut out: Outcome) -> Outcome {
    let mut tr = Tracer::on();
    let mut totals = LayerTotals::default();
    let mut rng = Rng::stream(opts.seed, 2);
    let b = batch(c, &mut rng, batch_size);
    // The same batch untraced, with the scheduler's slice spans on, and
    // untraced again: the overhead compares the traced batch with the
    // mean of the two around it.
    let untraced_batch = |out: &mut Outcome| {
        let (report, wall) = run_batch(pool, &b, false);
        gate(&report, &b.expected, out, &mut Timed::default());
        wall / 2
    };
    let mut untraced = untraced_batch(&mut out);
    let epoch = Instant::now();
    let s = tr.begin(Layer::Engines, call::RUN_POOL, SETUP_OP);
    let (report, traced) = run_batch(pool, &b, true);
    tr.end(s);
    untraced += untraced_batch(&mut out);
    gate(&report, &b.expected, &mut out, &mut Timed::default());
    totals.pool = pool_totals(&report, traced);
    tr.add_external(report.all_spans(), epoch);
    totals.trace_overhead_frac = 1.0 - untraced.as_secs_f64() / traced.as_secs_f64();

    // Snapshot and restore costs, and the VM counters, from a seeded
    // sample of the same jobs driven slice by slice on this thread.
    let jobs = if opts.quick { 4 } else { SAMPLE_JOBS };
    let sample: Vec<usize> = (0..jobs).map(|_| rng.below(b.spec.jobs.len())).collect();
    if let Err(e) = drive_sample(c, &b, &sample, &mut tr, &mut totals, &mut out) {
        out.attempted += 1;
        out.fail(e);
    }
    totals.ops = jobs as u64;
    push_per_layer(&mut out, &tr, &totals);
    crate::write_trace(opts, &tr);
    out
}

/// Scheduler-side numbers of a traced batch.
fn pool_totals(report: &PoolReport, wall: Duration) -> PoolTotals {
    let reports = report.all_reports();
    let tasks = reports.len().max(1) as f64;
    let slices: Vec<u64> = report
        .all_spans()
        .iter()
        .filter(|s| s.cat == "slice")
        .map(|s| s.dur_us)
        .collect();
    let slice_total_us = slices.iter().sum::<u64>() as f64;
    let mean_turnaround_ms = reports
        .iter()
        .map(|r| r.turnaround.as_secs_f64() * 1e3)
        .sum::<f64>()
        / tasks;
    PoolTotals {
        checkpoints: reports.iter().map(|r| r.checkpoints).sum(),
        slice_us: slice_total_us / slices.len().max(1) as f64,
        queue_wait_ms: mean_turnaround_ms - slice_total_us / 1e3 / tasks,
        worker_busy_frac: slice_total_us / (WORKERS as f64 * wall.as_secs_f64() * 1e6),
        worker_load_jain: jain_index(report.workers.iter().map(|w| w.steps_executed as f64)),
        steals: report.metrics.total_steals,
        migrations: report.metrics.total_migrations,
    }
}

/// Drives the sampled jobs one slice at a time. At every suspension the
/// engine is snapshotted and the bytes restored (decode plus
/// re-verification) into a second engine, which is dropped: the job
/// continues on the original, so the VM counters are those of an
/// undisturbed sliced run.
fn drive_sample(
    c: &Corpus,
    b: &Batch,
    sample: &[usize],
    tr: &mut Tracer,
    totals: &mut LayerTotals,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = tr.begin(Layer::Core, call::HOST_NEW, SETUP_OP);
    let mut host = WorkerHost::new(EngineConfig::full());
    tr.end(s);
    for src in &c.setups {
        let s = tr.begin(Layer::Compiler, call::COMPILE, SETUP_OP);
        let code = host.core_mut().compile_only(src);
        tr.end(s);
        let code = code.map_err(|e| format!("sample set-up: {e}"))?;
        let s = tr.begin(Layer::Vm, call::RUN_CODE, SETUP_OP);
        let m = host.core_mut().machine_mut();
        m.refuel();
        let r = m.run_code(code);
        tr.end(s);
        r.map_err(|e| format!("sample set-up: {e}"))?;
    }
    let model = host.config().machine.mark_model;
    for (op, &id) in sample.iter().enumerate() {
        let op = op as u64;
        let job = &b.spec.jobs[id];
        out.attempted += 1;
        let root = tr.begin(Layer::Bench, call::OP, op);
        let r = drive_job(&mut host, model, &job.run, op, tr, totals);
        tr.end(root);
        match r {
            Ok(got) if got == b.expected[id] => {}
            Ok(got) => out.fail(format!(
                "{} (sliced sample): got {got}, expected {}",
                job.name, b.expected[id]
            )),
            Err(e) => out.fail(format!("{} (sliced sample): {e}", job.name)),
        }
    }
    Ok(())
}

fn drive_job(
    host: &mut WorkerHost,
    model: cm_vm::MarkModel,
    run: &str,
    op: u64,
    tr: &mut Tracer,
    totals: &mut LayerTotals,
) -> Result<String, String> {
    let s = tr.begin(Layer::Sexpr, call::PARSE, op);
    let datums = cm_sexpr::parse_str(run);
    tr.end(s);
    totals.datums += datums.map_err(|e| e.to_string())?.len() as u64;
    let s = tr.begin(Layer::Compiler, call::COMPILE, op);
    let code = host.core_mut().compile_only(run);
    tr.end(s);
    let code = code.map_err(|e| e.to_string())?;
    totals.code_instrs += code_instrs(&code);
    let s = tr.begin(Layer::Analysis, call::VERIFY, op);
    let verdict = cm_analysis::verify(&code, model);
    tr.end(s);
    verdict.map_err(|v| format!("{} verifier violation(s)", v.len()))?;
    let config = host.config().machine.clone();
    let globals = host.core_mut().machine_mut().globals.clone();
    let mut engine = cm_engines::Engine::new(code, config, globals);
    loop {
        let s = tr.begin(Layer::Vm, call::ENGINE_RUN, op);
        let r = engine.run(SLICE);
        tr.end(s);
        match r {
            RunResult::Done(v, stats) => {
                totals.vm.add(&stats);
                return Ok(v.write_string());
            }
            RunResult::Failed(e, stats) => {
                totals.vm.add(&stats);
                return Err(e.to_string());
            }
            RunResult::Suspended(mut e, _) => {
                let s = tr.begin(Layer::Engines, call::SNAPSHOT, op);
                let bytes = e.snapshot();
                tr.end(s);
                let bytes = bytes.map_err(|e| e.to_string())?;
                totals.snapshot_bytes += bytes.len() as u64;
                let s = tr.begin(Layer::Engines, call::RESTORE, op);
                let restored = cm_engines::Engine::restore(&bytes);
                tr.end(s);
                drop(restored.map_err(|e| e.to_string())?);
                engine = e;
            }
        }
    }
}
