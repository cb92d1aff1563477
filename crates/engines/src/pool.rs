//! The worker pool: N workers, each a [`WorkerHost`] plus a
//! [`Scheduler`], running a batch of jobs.
//!
//! The VM's values are `Rc`-based and single-threaded by design, so only
//! `Send` data crosses between workers: job *specs* (source strings) and
//! parked engines serialized as [`MigrationTicket`]s go in, rendered
//! [`TaskReport`]s come out. Each worker builds its own prelude-loaded
//! host, loads the workload definitions once, and admits work from its
//! own inbox into its scheduler's bounded local set.
//!
//! Jobs start sharded round-robin by submission index (`id % workers`).
//! With [`PoolConfig::steal`] unset nothing ever moves, which keeps
//! per-worker results reproducible and makes the fairness numbers
//! attributable to the *scheduler*, not to shard luck. Setting it turns
//! on work stealing and snapshot-based migration (see
//! [`steal`]) — the same workers and schedulers, with an
//! idle worker allowed to take work and a busy one to give it away.
//!
//! Two drivers run the workers. The threaded driver gives each worker an
//! OS thread and decides moves from the workers' hunger. The virtual-tick
//! driver ([`StealConfig::replay`], [`StealConfig::kill_workers`]) runs
//! every worker on the calling thread, one [`Scheduler`] step per live
//! worker per tick, and decides moves from a recorded [`StealSchedule`].
//! Both drive the same per-worker [`Scheduler`], so a replay exercises
//! the production scheduling code.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use cm_core::EngineConfig;

use crate::engine::{Engine, WorkerHost};
use crate::sched::{
    Ledger, Outcome, Packet, SchedConfig, SchedMetrics, Scheduler, Seat, Task, TaskReport,
};
use crate::spans::Span;
use crate::steal::{self, StealConfig, StealEvent, StealSchedule};

#[cfg(doc)]
use crate::engine::MigrationTicket;

/// One unit of work: an expression to run (against the pool's shared
/// setup definitions), plus what it should produce.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name in reports.
    pub name: String,
    /// Entry expression, compiled into a fresh engine on the worker.
    pub run: String,
    /// Expected result (display string). `None` with
    /// [`PoolSpec::verify`] set means a worker computes a baseline by
    /// evaluating `run` uninterrupted before scheduling it.
    pub expected: Option<String>,
}

/// A batch of jobs plus the definitions they share.
#[derive(Debug, Clone, Default)]
pub struct PoolSpec {
    /// Definition sources each worker evaluates once before spawning
    /// engines (workload bodies, helper functions).
    pub setups: Vec<String>,
    /// The jobs, sharded round-robin across workers.
    pub jobs: Vec<JobSpec>,
    /// Check every completed job's result against its expectation;
    /// missing expectations are filled by an uninterrupted baseline run
    /// on a worker.
    pub verify: bool,
}

/// Pool-level knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker count (clamped to at least 1).
    pub workers: usize,
    /// Scheduler configuration, cloned into every worker.
    pub sched: SchedConfig,
    /// Engine configuration (one of the eight engine variants), cloned
    /// into every worker.
    pub engine: EngineConfig,
    /// Work stealing. `None` (the default) never moves work. `Some` runs
    /// the threaded stealing pool, or the virtual-tick driver when
    /// [`StealConfig::replay`] or [`StealConfig::kill_workers`] is set.
    pub steal: Option<StealConfig>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            workers: 4,
            sched: SchedConfig::default(),
            engine: EngineConfig::default(),
            steal: None,
        }
    }
}

/// What one worker produced.
#[derive(Debug)]
pub struct WorkerSummary {
    /// Worker index (also the shard residue).
    pub worker: usize,
    /// Per-task reports in retirement order.
    pub reports: Vec<TaskReport>,
    /// Human-readable result mismatches (empty unless
    /// [`PoolSpec::verify`]).
    pub mismatches: Vec<String>,
    /// This worker's own wall time (setup + baselines + scheduling).
    pub wall: Duration,
    /// Timeline spans (one `"worker"` span plus per-slice `"slice"`
    /// spans and `"steal"`/`"migrate"` marks), all relative to the
    /// pool's start and tagged with this worker's index as `tid`. Empty
    /// unless [`SchedConfig::record_spans`].
    pub spans: Vec<Span>,
    /// Instructions this worker actually executed (across every task it
    /// ran slices of, including tasks that later migrated away). The
    /// Jain index over these is the pool's *load-balance* measure —
    /// unlike per-task fairness, it stays meaningful when tasks want
    /// wildly different amounts of work.
    pub steps_executed: u64,
    /// Set if the worker thread panicked; the tasks it held fail.
    pub panicked: Option<String>,
}

/// The pool's combined result.
#[derive(Debug)]
pub struct PoolReport {
    /// Per-worker breakdown.
    pub workers: Vec<WorkerSummary>,
    /// Batch wall time (submit to last worker joined).
    pub wall: Duration,
    /// Metrics over every task from every worker.
    pub metrics: SchedMetrics,
    /// Every cross-worker move, when the stealing pool ran with
    /// [`StealConfig::record`]. Feed it back through
    /// [`StealConfig::replay`] to reproduce the run deterministically.
    pub schedule: Option<StealSchedule>,
    /// Pool-level spans (one `"pool"` metrics span carrying
    /// p50/p95/p99, Jain fairness, and migration counts). Empty unless
    /// [`SchedConfig::record_spans`].
    pub pool_spans: Vec<Span>,
}

impl PoolReport {
    /// All task reports across workers.
    pub fn all_reports(&self) -> Vec<&TaskReport> {
        self.workers.iter().flat_map(|w| &w.reports).collect()
    }

    /// All mismatches across workers.
    pub fn all_mismatches(&self) -> Vec<&str> {
        self.workers
            .iter()
            .flat_map(|w| w.mismatches.iter().map(String::as_str))
            .collect()
    }

    /// All timeline spans across workers (one shared time origin, lanes
    /// keyed by `tid`), plus the pool-level metrics span.
    pub fn all_spans(&self) -> Vec<&Span> {
        self.workers
            .iter()
            .flat_map(|w| &w.spans)
            .chain(&self.pool_spans)
            .collect()
    }

    /// True when every job completed with the expected result and no
    /// worker panicked.
    pub fn is_clean(&self) -> bool {
        self.metrics.failed == 0
            && self.metrics.timed_out == 0
            && self
                .workers
                .iter()
                .all(|w| w.panicked.is_none() && w.mismatches.is_empty())
    }
}

/// Poison-tolerant lock: a panicked worker must not cascade into every
/// survivor that touches the same queue. Every update under these locks
/// is a single push, pop or insert, so the data is valid at every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lane(worker: usize) -> u32 {
    u32::try_from(worker).unwrap_or(u32::MAX)
}

/// Pool state every worker shares, under either driver.
pub(crate) struct Shared<'a> {
    config: &'a PoolConfig,
    spec: &'a PoolSpec,
    /// Turnaround and span origin.
    epoch: Instant,
    /// Per-worker inboxes of packets not yet admitted to a local set.
    inboxes: Vec<Mutex<VecDeque<Packet>>>,
    /// Raised by an idle worker; a busy one donates at its next
    /// suspension to the first hungry peer it finds.
    hungry: Vec<AtomicBool>,
    /// Workers still running (the virtual-tick driver kills workers).
    alive: Vec<AtomicBool>,
    /// Tasks not yet retired anywhere.
    remaining: AtomicUsize,
    /// Tasks each worker holds materialized: what a panicked worker's
    /// thread takes down with it.
    custody: Vec<Mutex<HashMap<usize, String>>>,
    recorded: Option<Mutex<Vec<StealEvent>>>,
    /// Replayed migrations keyed by `(task, suspension)`; `None` under
    /// the threaded driver.
    moves: Option<HashMap<(usize, u64), Vec<StealEvent>>>,
    /// Verification baselines for jobs without an expectation, computed
    /// once on whichever worker first needs one.
    baselines: Vec<OnceLock<Option<String>>>,
}

impl<'a> Shared<'a> {
    fn new(
        config: &'a PoolConfig,
        spec: &'a PoolSpec,
        moves: Option<HashMap<(usize, u64), Vec<StealEvent>>>,
    ) -> Shared<'a> {
        let workers = config.workers.max(1);
        let inboxes: Vec<Mutex<VecDeque<Packet>>> =
            (0..workers).map(|_| Mutex::default()).collect();
        for id in 0..spec.jobs.len() {
            let ledger = Ledger::default();
            lock(&inboxes[id % workers]).push_back(Packet::Fresh { id, ledger });
        }
        let flags = |v| (0..workers).map(|_| AtomicBool::new(v)).collect();
        Shared {
            config,
            spec,
            epoch: Instant::now(),
            inboxes,
            hungry: flags(false),
            alive: flags(true),
            remaining: AtomicUsize::new(spec.jobs.len()),
            custody: (0..workers).map(|_| Mutex::default()).collect(),
            recorded: config
                .steal
                .as_ref()
                .filter(|s| s.record)
                .map(|_| Mutex::default()),
            moves,
            baselines: spec.jobs.iter().map(|_| OnceLock::new()).collect(),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.inboxes.len()
    }

    pub(crate) fn kill(&self, w: usize) {
        self.alive[w].store(false, Ordering::SeqCst);
    }

    pub(crate) fn is_alive(&self, w: usize) -> bool {
        self.alive[w].load(Ordering::SeqCst)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.remaining.load(Ordering::SeqCst)
    }

    /// The next live worker at or after `want`, cyclically.
    pub(crate) fn route(&self, want: usize) -> Option<usize> {
        let n = self.workers();
        (0..n)
            .map(|d| (want % n + d) % n)
            .find(|&w| self.is_alive(w))
    }

    fn name<'p>(&'p self, packet: &'p Packet) -> &'p str {
        match packet {
            Packet::Fresh { id, .. } => &self.spec.jobs[*id].name,
            Packet::Parked { name, .. } => name,
        }
    }

    /// Moves a packet into worker `to`'s inbox as `hops` steals,
    /// recording the move.
    pub(crate) fn deliver(&self, mut packet: Packet, from: usize, to: usize, hops: u32) {
        packet.ledger_mut().steals += hops;
        if let Some(recorded) = &self.recorded {
            lock(recorded).push(StealEvent {
                task: packet.id(),
                suspension: packet.ledger().slices,
                from,
                to,
            });
        }
        lock(&self.inboxes[to]).push_back(packet);
    }

    /// Takes the never-run job `task` out of whichever inbox holds it.
    pub(crate) fn take_fresh(&self, task: usize) -> Option<(usize, Packet)> {
        self.inboxes.iter().enumerate().find_map(|(w, inbox)| {
            let mut inbox = lock(inbox);
            let pos = inbox
                .iter()
                .position(|p| matches!(p, Packet::Fresh { id, .. } if *id == task))?;
            inbox.remove(pos).map(|p| (w, p))
        })
    }

    /// The report of a packet that will never run.
    pub(crate) fn fail(&self, packet: Packet, msg: String) -> TaskReport {
        let name = self.name(&packet).to_string();
        let outcome = Outcome::Failed(msg);
        let elapsed = self.epoch.elapsed();
        packet.ledger().report(packet.id(), name, outcome, elapsed)
    }

    /// Fails whatever is left in the inboxes, and gathers the report.
    fn finish(self, mut summaries: Vec<WorkerSummary>) -> PoolReport {
        summaries.sort_by_key(|s| s.worker);
        // Packets no worker ran (every thief died, or stealing was off
        // and the owner panicked): surface them rather than silently
        // dropping jobs.
        for (w, inbox) in self.inboxes.iter().enumerate() {
            let left: Vec<Packet> = lock(inbox).drain(..).collect();
            for packet in left {
                let report = self.fail(packet, "pool shut down before the task ran".into());
                summaries[w].reports.push(report);
            }
        }
        let wall = self.epoch.elapsed();
        let all: Vec<TaskReport> = summaries
            .iter()
            .flat_map(|s| s.reports.iter().cloned())
            .collect();
        let metrics = SchedMetrics::from_reports(&all, wall);
        let pool_spans =
            pool_metrics_spans(summaries.len(), &metrics, self.config.sched.record_spans);
        let schedule = self.recorded.map(|events| StealSchedule {
            workers: summaries.len(),
            events: events.into_inner().unwrap_or_else(PoisonError::into_inner),
        });
        PoolReport {
            metrics,
            workers: summaries,
            wall,
            schedule,
            pool_spans,
        }
    }
}

/// One pool worker: its host, its seat in the shared state, and the
/// mismatches it found. Its [`Scheduler`] sits on it as a [`Seat`].
pub(crate) struct Worker<'p> {
    w: usize,
    pool: &'p Shared<'p>,
    host: WorkerHost,
    mismatches: Vec<String>,
    start: Instant,
}

impl<'p> Worker<'p> {
    /// Builds worker `w` and its scheduler: a prelude-loaded host with the
    /// pool's setups loaded, and verification baselines for every fresh
    /// job in its inbox, computed before any sliced run touches the
    /// shared globals. The flag is `false` when a setup failed; the
    /// worker then fails what its inbox holds and can run nothing.
    pub(crate) fn start(w: usize, pool: &'p Shared<'p>) -> (Worker<'p>, Scheduler, bool) {
        let mut worker = Worker {
            w,
            pool,
            host: WorkerHost::new(pool.config.engine.clone()),
            mismatches: Vec::new(),
            start: Instant::now(),
        };
        let mut sched = Scheduler::on_worker(pool.config.sched.clone(), lane(w), pool.epoch);
        for (i, setup) in pool.spec.setups.iter().enumerate() {
            if let Err(e) = worker.host.load(setup) {
                // Thieves may already have taken part of the inbox; each
                // packet is handled exactly once either way.
                let drained: Vec<Packet> = lock(&pool.inboxes[w]).drain(..).collect();
                for packet in drained {
                    let report = pool.fail(packet, format!("worker setup #{i} failed: {e}"));
                    sched.finish(&mut worker, report);
                }
                return (worker, sched, false);
            }
        }
        let fresh: Vec<usize> = lock(&pool.inboxes[w]).iter().map(Packet::id).collect();
        for id in fresh {
            worker.expected(id);
        }
        (worker, sched, true)
    }

    /// The result job `id` must produce: its spec's expectation, or (with
    /// verification on) its uninterrupted baseline.
    fn expected(&mut self, id: usize) -> Option<&'p str> {
        let pool = self.pool;
        let job = &pool.spec.jobs[id];
        if job.expected.is_some() || !pool.spec.verify {
            return job.expected.as_deref();
        }
        pool.baselines[id]
            .get_or_init(|| match self.host.eval(&job.run) {
                Ok(v) => Some(v.write_string()),
                Err(e) => {
                    self.mismatches
                        .push(format!("{}: baseline run failed: {e}", job.name));
                    None
                }
            })
            .as_deref()
    }

    /// The idle half of the steal protocol: take the *back* packet of the
    /// first peer inbox that is not locked, or leave the hungry flag up
    /// for a donation and nap.
    fn steal_or_wait(&self, sched: &mut Scheduler) {
        let (pool, w) = (self.pool, self.w);
        let n = pool.workers();
        pool.hungry[w].store(true, Ordering::SeqCst);
        for d in 1..n {
            let v = (w + d) % n;
            let Ok(mut inbox) = pool.inboxes[v].try_lock() else {
                continue;
            };
            let Some(packet) = inbox.pop_back() else {
                continue;
            };
            drop(inbox);
            pool.hungry[w].store(false, Ordering::SeqCst);
            let args = vec![
                ("task", packet.id().to_string()),
                ("from", v.to_string()),
                ("suspension", packet.ledger().slices.to_string()),
            ];
            sched.instant(pool.name(&packet), "steal", args);
            pool.deliver(packet, v, w, 1);
            return;
        }
        if lock(&pool.inboxes[w]).is_empty() {
            // Nothing stealable anywhere yet (remaining tasks are live on
            // other workers); leave the hungry flag up so a victim
            // donates at its next suspension.
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(50));
        } else {
            // A donation landed in our own inbox meanwhile.
            pool.hungry[w].store(false, Ordering::SeqCst);
        }
    }

    /// Kills this worker (virtual-tick driver): its local tasks become
    /// packets again and, with its inbox, are handed back for survivors
    /// to re-steal.
    pub(crate) fn kill(&mut self, sched: &mut Scheduler) -> Vec<Packet> {
        self.pool.kill(self.w);
        let mut packets = sched.evict(self);
        packets.extend(lock(&self.pool.inboxes[self.w]).drain(..));
        lock(&self.pool.custody[self.w]).clear();
        packets
    }

    pub(crate) fn finish(self, sched: Scheduler) -> WorkerSummary {
        let (reports, mut spans, steps_executed) = sched.into_parts();
        if self.pool.config.sched.record_spans {
            let args = vec![("steps", steps_executed.to_string())];
            let name = format!("worker-{}", self.w);
            spans.record(
                name,
                "worker",
                lane(self.w),
                self.start,
                Instant::now(),
                args,
            );
        }
        WorkerSummary {
            worker: self.w,
            reports,
            mismatches: self.mismatches,
            wall: self.start.elapsed(),
            spans: spans.into_spans(),
            steps_executed,
            panicked: None,
        }
    }
}

impl Seat for Worker<'_> {
    fn admit(&mut self) -> Option<Result<Task, TaskReport>> {
        let pool = self.pool;
        let packet = lock(&pool.inboxes[self.w]).pop_front()?;
        let failed = |id, name, ledger: Ledger, msg| {
            Some(Err(ledger.report(
                id,
                name,
                Outcome::Failed(msg),
                pool.epoch.elapsed(),
            )))
        };
        let (id, name, engine, ledger, bytes) = match packet {
            Packet::Fresh { id, ledger } => {
                let job = &pool.spec.jobs[id];
                self.expected(id);
                match self.host.spawn(&job.run) {
                    Ok(engine) => (id, job.name.clone(), engine, ledger, None),
                    Err(e) => {
                        return failed(id, job.name.clone(), ledger, format!("compile failed: {e}"))
                    }
                }
            }
            Packet::Parked {
                id,
                name,
                ticket,
                ledger,
            } => match Engine::from_ticket(&ticket) {
                // The ticket is a checkpoint of the state it restores.
                Ok(engine) => (id, name, engine, ledger, Some(ticket.bytes)),
                Err(e) => {
                    return failed(id, name, ledger, format!("migration restore failed: {e}"))
                }
            },
        };
        lock(&pool.custody[self.w]).insert(id, name.clone());
        Some(Ok(Task::new(id, name, engine, ledger, bytes)))
    }

    fn place(&mut self, task: usize, suspension: u64, local_work: bool) -> Option<(usize, u32)> {
        let pool = self.pool;
        if let Some(moves) = &pool.moves {
            let chain = moves.get(&(task, suspension))?;
            let to = chain
                .last()
                .and_then(|e| pool.route(e.to))
                .unwrap_or(self.w);
            return Some((to, u32::try_from(chain.len()).unwrap_or(u32::MAX)));
        }
        // Donate only when this worker keeps other work; otherwise the
        // hop just moves the idleness.
        let migrate = pool.config.steal.as_ref().is_some_and(|s| s.migrate);
        if !migrate || (!local_work && lock(&pool.inboxes[self.w]).is_empty()) {
            return None;
        }
        let n = pool.workers();
        (1..n)
            .map(|d| (self.w + d) % n)
            .find(|&v| pool.hungry[v].swap(false, Ordering::SeqCst))
            .map(|v| (v, 1))
    }

    fn send(&mut self, to: usize, packet: Packet, hops: u32) {
        lock(&self.pool.custody[self.w]).remove(&packet.id());
        self.pool.deliver(packet, self.w, to, hops);
    }

    fn retired(&mut self, report: &TaskReport) {
        lock(&self.pool.custody[self.w]).remove(&report.id);
        self.pool.remaining.fetch_sub(1, Ordering::SeqCst);
        if let Outcome::Completed(got) = &report.outcome {
            if let Some(want) = self.expected(report.id) {
                if got != want {
                    self.mismatches.push(format!(
                        "{}: sliced run produced {got}, uninterrupted run produced {want}",
                        report.name
                    ));
                }
            }
        }
    }
}

/// One worker thread: step the scheduler while it has work; when it runs
/// dry, a static worker is done and a stealing one steals or waits until
/// the whole batch has retired.
fn thread_worker(w: usize, pool: &Shared<'_>) -> WorkerSummary {
    let (mut worker, mut sched, ready) = Worker::start(w, pool);
    if ready {
        loop {
            if sched.step(&mut worker) {
                continue;
            }
            if pool.config.steal.is_none() || pool.remaining() == 0 {
                break;
            }
            worker.steal_or_wait(&mut sched);
        }
    }
    worker.finish(sched)
}

/// The threaded driver: one OS thread per worker. A panicking worker is
/// caught and surfaced in its summary, never propagated.
fn run_threads(pool: &Shared<'_>) -> Vec<WorkerSummary> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool.workers())
            .map(|w| {
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| thread_worker(w, pool))).unwrap_or_else(
                        |payload| {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".into());
                            // The engines this worker held are gone; fail
                            // them from its custody set and release their
                            // completion slots so survivors can terminate.
                            // Its inbox lives outside the thread: thieves
                            // drain it, or the pool fails it at shutdown.
                            let held: Vec<(usize, String)> =
                                lock(&pool.custody[w]).drain().collect();
                            pool.remaining.fetch_sub(held.len(), Ordering::SeqCst);
                            panicked_summary(w, held, msg, pool.epoch)
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("panic already caught"))
            .collect()
    })
}

/// The summary for a worker whose thread panicked: every task it held
/// gets a `Failed` report naming the panic, so a crashed worker never
/// silently swallows work (the reports are what downstream accounting —
/// retries, billing, `is_clean` — keys on).
///
/// Wall time and turnarounds are measured from the pool epoch to the
/// panic, never zero: a `Duration::ZERO` summary would drag the batch's
/// latency percentiles toward zero, making a *crash* look like the
/// fastest work of the run.
fn panicked_summary(
    worker: usize,
    held: Vec<(usize, String)>,
    msg: String,
    epoch: Instant,
) -> WorkerSummary {
    let elapsed = epoch.elapsed();
    let outcome = Outcome::Failed(format!("worker panicked: {msg}"));
    let reports = held
        .into_iter()
        .map(|(id, name)| Ledger::default().report(id, name, outcome.clone(), elapsed))
        .collect();
    WorkerSummary {
        worker,
        reports,
        mismatches: Vec::new(),
        wall: elapsed,
        spans: Vec::new(),
        steps_executed: 0,
        panicked: Some(msg),
    }
}

/// The pool-level metrics span: one `"pool"`-category span spanning the
/// whole batch, carrying the latency percentiles (p50/p95/p99), Jain
/// fairness, and migration counters as args — the numbers `cm-trace`
/// surfaces on the exported timeline.
fn pool_metrics_spans(workers: usize, metrics: &SchedMetrics, enabled: bool) -> Vec<Span> {
    if !enabled {
        return Vec::new();
    }
    vec![Span {
        name: "pool".into(),
        cat: "pool",
        // One lane past the last worker, so the summary span doesn't
        // overlay a worker's own timeline.
        tid: lane(workers),
        start_us: 0,
        dur_us: u64::try_from(metrics.wall.as_micros()).unwrap_or(u64::MAX),
        args: vec![
            ("tasks", metrics.tasks.to_string()),
            ("p50_us", metrics.latency_p50.as_micros().to_string()),
            ("p95_us", metrics.latency_p95.as_micros().to_string()),
            ("p99_us", metrics.latency_p99.as_micros().to_string()),
            ("jain", format!("{:.4}", metrics.fairness_jain)),
            ("migrations", metrics.total_migrations.to_string()),
            ("steals", metrics.total_steals.to_string()),
        ],
    }]
}

/// Runs a batch of jobs over `config.workers` workers and gathers the
/// combined report. Turnarounds count from the moment this is called.
pub fn run_pool(config: &PoolConfig, spec: &PoolSpec) -> PoolReport {
    let replay = config
        .steal
        .as_ref()
        .filter(|s| s.replay.is_some() || !s.kill_workers.is_empty());
    let pool = Shared::new(config, spec, replay.map(steal::keyed_moves));
    let summaries = match replay {
        Some(sc) => steal::run_ticks(&pool, sc),
        None => run_threads(&pool),
    };
    pool.finish(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_spec(jobs: usize) -> PoolSpec {
        PoolSpec {
            setups: vec!["(define (spin n) (if (zero? n) 'done (spin (- n 1))))".into()],
            jobs: (0..jobs)
                .map(|i| JobSpec {
                    name: format!("spin-{i}"),
                    run: format!("(spin {})", 100 + (i % 7) * 100),
                    expected: Some("done".into()),
                })
                .collect(),
            verify: true,
        }
    }

    #[test]
    fn pool_shards_and_completes() {
        let config = PoolConfig {
            workers: 4,
            sched: SchedConfig {
                slice: 128,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_pool(&config, &spin_spec(40));
        assert_eq!(report.metrics.tasks, 40);
        assert_eq!(report.metrics.completed, 40);
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.workers.len(), 4);
        for w in &report.workers {
            assert_eq!(w.reports.len(), 10);
        }
        // Global ids survive the per-worker id remap: every id 0..40 once.
        let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn pool_detects_result_mismatch_via_expectation() {
        let config = PoolConfig {
            workers: 2,
            ..Default::default()
        };
        let mut spec = spin_spec(4);
        spec.jobs[2].expected = Some("never".into());
        let report = run_pool(&config, &spec);
        assert!(!report.is_clean());
        assert_eq!(report.all_mismatches().len(), 1);
        assert!(report.all_mismatches()[0].starts_with("spin-2:"));
    }

    #[test]
    fn pool_records_worker_and_slice_spans_on_one_timeline() {
        let config = PoolConfig {
            workers: 2,
            sched: SchedConfig {
                slice: 64,
                record_spans: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = run_pool(&config, &spin_spec(6));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        let spans = report.all_spans();
        assert_eq!(spans.iter().filter(|s| s.cat == "worker").count(), 2);
        assert!(spans.iter().any(|s| s.cat == "slice"));
        // Workers occupy lanes 0..N; the pool-level metrics span sits in
        // its own lane just past the last worker.
        let tids: std::collections::HashSet<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids, [0u32, 1, 2].into_iter().collect());
        assert_eq!(spans.iter().filter(|s| s.cat == "pool").count(), 1);
    }

    #[test]
    fn panicked_worker_fails_every_queued_task() {
        let epoch = Instant::now() - Duration::from_millis(40);
        let manifest = vec![(3, "a".to_string()), (7, "b".to_string())];
        let summary = panicked_summary(1, manifest, "boom".into(), epoch);
        assert_eq!(summary.panicked.as_deref(), Some("boom"));
        assert_eq!(summary.reports.len(), 2);
        assert_eq!(
            summary.reports.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![3, 7]
        );
        assert!(summary.reports.iter().all(|r| matches!(
            &r.outcome,
            Outcome::Failed(msg) if msg == "worker panicked: boom"
        )));
        // A panicked shard must count as failed work, not clean work.
        let report = PoolReport {
            metrics: SchedMetrics::from_reports(&summary.reports, Duration::from_millis(1)),
            workers: vec![summary],
            wall: Duration::from_millis(1),
            schedule: None,
            pool_spans: Vec::new(),
        };
        assert!(!report.is_clean());
        assert_eq!(report.metrics.failed, 2);
    }

    #[test]
    fn panicked_summary_carries_real_wall_time_not_zero() {
        // Regression: a panicked worker used to report `wall: ZERO` and
        // zero turnarounds, dragging the batch's latency percentiles
        // toward zero. The crash must be charged the time it actually
        // consumed (pool epoch → panic).
        let epoch = Instant::now() - Duration::from_millis(25);
        let summary = panicked_summary(0, vec![(0, "t".into())], "boom".into(), epoch);
        assert!(
            summary.wall >= Duration::from_millis(25),
            "{:?}",
            summary.wall
        );
        assert!(summary
            .reports
            .iter()
            .all(|r| r.turnaround >= Duration::from_millis(25)));
        // And the aggregate percentiles see the real latency, not zero.
        let metrics = SchedMetrics::from_reports(&summary.reports, summary.wall);
        assert!(metrics.latency_p50 >= Duration::from_millis(25));
        assert!(metrics.latency_p99 >= Duration::from_millis(25));
    }

    #[test]
    fn static_turnaround_includes_worker_setup() {
        // Turnaround counts from the pool's start, so a task's report
        // includes its worker's set-up even without stealing.
        let setup = "(define (spin n) (if (zero? n) 'done (spin (- n 1))))
                     (define warm (spin 200000))";
        let load = || {
            let mut host = WorkerHost::new(EngineConfig::default());
            let t = Instant::now();
            host.load(setup).unwrap();
            t.elapsed()
        };
        let before = load();
        let spec = PoolSpec {
            setups: vec![setup.into()],
            jobs: (0..4)
                .map(|i| JobSpec {
                    name: format!("quick-{i}"),
                    run: "(spin 10)".into(),
                    expected: Some("done".into()),
                })
                .collect(),
            verify: true,
        };
        let report = run_pool(
            &PoolConfig {
                workers: 2,
                ..Default::default()
            },
            &spec,
        );
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        let setup_time = before.min(load());
        for r in report.all_reports() {
            assert!(
                r.turnaround >= setup_time,
                "{}: {:?} < set-up {setup_time:?}",
                r.name,
                r.turnaround
            );
        }
    }

    #[test]
    fn pool_computes_baselines_when_unspecified() {
        let config = PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 64,
                ..Default::default()
            },
            ..Default::default()
        };
        let spec = PoolSpec {
            setups: vec![],
            jobs: (0..6)
                .map(|i| JobSpec {
                    name: format!("sum-{i}"),
                    run: format!("(+ {i} 10)"),
                    expected: None,
                })
                .collect(),
            verify: true,
        };
        let report = run_pool(&config, &spec);
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.metrics.completed, 6);
    }
}
