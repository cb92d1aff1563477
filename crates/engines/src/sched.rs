//! The per-worker scheduler: the one state machine that runs engine
//! slices, whether it sits alone on a thread or on one worker of a pool.
//!
//! A scheduler holds a local set of [`Engine`]s (all sharing one
//! worker's `Globals`, hence pinned to one thread) and interleaves them
//! in fuel slices. Two policies:
//!
//! * [`Policy::RoundRobin`] — FIFO; every runnable task gets one slice per
//!   turn of the queue.
//! * [`Policy::EarliestDeadlineFirst`] — the runnable task with the
//!   nearest wall-clock deadline runs next; deadline-free tasks fill in
//!   behind.
//!
//! Per-task timeouts reuse [`MachineConfig::deadline`]: the engine's
//! machine enforces the wall-clock cutoff *inside* long slices, and the
//! scheduler enforces it *between* slices (local queue wait counts), so
//! a slice smaller than the machine's deadline-poll stride still times
//! out. The clock starts when the task enters a local set and travels
//! with it across migrations.
//!
//! # In a pool
//!
//! On a pool worker the scheduler sits on the worker's seat: it admits
//! work from the worker's inbox of fresh jobs and parked engines while
//! its local set holds fewer than 32 tasks, and at every suspension a
//! placement hook asks whether the task should move, and to whom. A task
//! that moves leaves as a [`MigrationTicket`] — the §6 one-shot move, so
//! it can never be resumed twice — and carries its accounting (slices,
//! work, retries, hops, deadline) to the next worker.
//!
//! # Supervision
//!
//! With [`SchedConfig::checkpoint`] on, the scheduler snapshots every
//! task at every suspension ([`Engine::snapshot`]) and becomes a
//! supervisor: a task that *faults* — runtime error (including injected
//! faults and [`VmErrorKind::HeapLimitExceeded`]) or deadline overrun —
//! is restarted from its last checkpoint instead of retired, up to
//! [`SchedConfig::retry_budget`] times, with exponential backoff
//! ([`SchedConfig::backoff_base`] scheduler ticks, doubling per retry).
//! A restarted task resumes on a restored engine with its own globals
//! (recovery is isolated: post-checkpoint global writes are rolled
//! back), and its deadline clock restarts with the attempt. An injected
//! fault models a crash, so the restarted attempt runs with the
//! injection disarmed. Tasks that fault before their first checkpoint,
//! or exhaust the budget, retire with the original outcome. A task that
//! migrates ships its latest checkpoint as its ticket, so checkpointing
//! and migration encode each suspension once.
//!
//! [`SchedConfig::pool_budget_bytes`] adds admission control on top:
//! while the aggregate live heap bytes of checkpointed tasks exceeds the
//! budget, the scheduler prefers draining already-started tasks over
//! admitting fresh ones (backpressure), falling back to fresh tasks only
//! when nothing started is runnable.
//!
//! [`MachineConfig::deadline`]: cm_vm::MachineConfig
//! [`VmErrorKind::HeapLimitExceeded`]: cm_vm::VmErrorKind

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cm_vm::{MachineStats, SnapshotError, VmErrorKind};

use crate::engine::{Engine, MigrationTicket, RunResult};
use crate::spans::SpanLog;

/// Most tasks a pool worker keeps live (materialized) at once; further
/// work waits in its inbox, where thieves can reach it.
pub(crate) const LOCAL_CAP: usize = 32;

/// Which runnable task gets the next slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// FIFO turn-taking.
    RoundRobin,
    /// Nearest wall-clock deadline first; deadline-free tasks last.
    EarliestDeadlineFirst,
}

impl Policy {
    /// Parses a policy name (`rr` / `edf`, long forms accepted).
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "rr" | "round-robin" => Some(Policy::RoundRobin),
            "edf" | "deadline" | "earliest-deadline-first" => Some(Policy::EarliestDeadlineFirst),
            _ => None,
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Slice-picking policy.
    pub policy: Policy,
    /// Fuel (instruction count) per slice.
    pub slice: u64,
    /// Verify machine invariants at every suspension (slow; tests and
    /// torture runs).
    pub check_invariants: bool,
    /// Record a `"slice"` span per scheduler pick into
    /// [`Scheduler::spans`] (the timeline `cm-trace` exports). Off by
    /// default: a disabled scheduler takes no clock reads for spans.
    pub record_spans: bool,
    /// Snapshot every task at every suspension and supervise it:
    /// faulting tasks restart from their last checkpoint (see the
    /// module docs). Off by default — checkpointing serializes the
    /// task's reachable heap once per slice.
    pub checkpoint: bool,
    /// Maximum automatic restarts per task (only with `checkpoint`).
    pub retry_budget: u32,
    /// Backoff before the first restart, in scheduler ticks (one tick
    /// per scheduler step); doubles with each further retry of the
    /// same task. `0` restarts immediately.
    pub backoff_base: u64,
    /// Admission-control budget: while the aggregate
    /// [`MachineStats::bytes_live`](cm_vm::MachineStats) of checkpointed
    /// suspended tasks exceeds this, prefer already-started tasks over
    /// fresh ones. `None` disables backpressure.
    pub pool_budget_bytes: Option<u64>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            policy: Policy::RoundRobin,
            slice: 10_000,
            check_invariants: false,
            record_spans: false,
            checkpoint: false,
            retry_budget: 3,
            backoff_base: 2,
            pool_budget_bytes: None,
        }
    }
}

/// How a task ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Finished; holds the result's display string (rendered eagerly so
    /// reports are `Send`).
    Completed(String),
    /// Died with a runtime error (rendered message).
    Failed(String),
    /// Exceeded its [`MachineConfig::deadline`](cm_vm::MachineConfig)
    /// before finishing.
    TimedOut,
}

/// Per-task accounting, produced when the task leaves the scheduler.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Task id: the [`JobSpec`](crate::JobSpec) submission index in a
    /// pool, the [`Scheduler::submit`] order on a standalone scheduler.
    pub id: usize,
    /// Caller-supplied label.
    pub name: String,
    /// How the task ended.
    pub outcome: Outcome,
    /// Slices consumed (a completed task's final partial slice counts).
    pub slices: u64,
    /// Instructions executed ([`MachineStats::steps_executed`]) across
    /// every machine the task ran on — the fairness measure.
    ///
    /// [`MachineStats::steps_executed`]: cm_vm::MachineStats
    pub steps: u64,
    /// Heap objects the tenant allocated
    /// ([`MachineStats::allocations`](cm_vm::MachineStats)).
    pub allocations: u64,
    /// Heap collections the tenant's machines ran
    /// ([`MachineStats::collections`](cm_vm::MachineStats)).
    pub collections: u64,
    /// High-water mark of the tenant's live heap bytes, as measured at
    /// its collections ([`MachineStats::bytes_live_peak`](cm_vm::MachineStats));
    /// `0` when the task never collected.
    pub bytes_live_peak: u64,
    /// Wall time from the scheduler's epoch — the pool's start, or a
    /// standalone scheduler's creation — to retirement. Worker set-up,
    /// verification baselines and queue wait are all included.
    pub turnaround: Duration,
    /// Supervised restarts this task consumed (`0` without
    /// [`SchedConfig::checkpoint`] or when it never faulted).
    pub retries: u32,
    /// Checkpoints taken for this task (one per suspension when
    /// [`SchedConfig::checkpoint`] is on).
    pub checkpoints: u64,
    /// Cross-worker moves of this task's *suspended* state — each one a
    /// serialize-on-victim / restore-on-thief round trip through
    /// [`Engine::snapshot`](crate::Engine::snapshot). Always `0` outside
    /// the work-stealing pool.
    pub migrations: u32,
    /// Times this task was taken by a worker other than the one holding
    /// it — fresh-job steals included, so every migration is also a
    /// steal. Always `0` outside the work-stealing pool.
    pub steals: u32,
}

/// Accounting a task carries for its whole life, across restarts and
/// migrations. A restored machine counts from zero, so the work of every
/// earlier machine lives here; retirement folds in the last one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Ledger {
    pub(crate) slices: u64,
    steps: u64,
    allocations: u64,
    collections: u64,
    bytes_live_peak: u64,
    retries: u32,
    checkpoints: u64,
    migrations: u32,
    pub(crate) steals: u32,
    /// Wall-clock deadline, set when the task first enters a local set.
    deadline_at: Option<Instant>,
}

impl Ledger {
    /// Folds one machine's counters in (at each hop, each restart, and
    /// at retirement).
    fn absorb(&mut self, stats: &MachineStats) {
        self.steps += stats.steps_executed;
        self.allocations += stats.allocations;
        self.collections += stats.collections;
        self.bytes_live_peak = self.bytes_live_peak.max(stats.bytes_live_peak);
    }

    /// The task's report: the one place a [`TaskReport`] is built.
    pub(crate) fn report(
        &self,
        id: usize,
        name: String,
        outcome: Outcome,
        turnaround: Duration,
    ) -> TaskReport {
        TaskReport {
            id,
            name,
            outcome,
            slices: self.slices,
            steps: self.steps,
            allocations: self.allocations,
            collections: self.collections,
            bytes_live_peak: self.bytes_live_peak,
            turnaround,
            retries: self.retries,
            checkpoints: self.checkpoints,
            migrations: self.migrations,
            steals: self.steals,
        }
    }
}

/// A unit of work in a pool worker's inbox. Both variants are plain
/// `Send` data — engines only exist materialized inside one worker.
pub(crate) enum Packet {
    /// A job that has never run; any worker can compile and start it.
    Fresh { id: usize, ledger: Ledger },
    /// A started engine serialized at a suspension.
    Parked {
        id: usize,
        name: String,
        // Boxed so that the many fresh packets of a large batch stay small.
        ticket: Box<MigrationTicket>,
        ledger: Ledger,
    },
}

impl Packet {
    pub(crate) fn id(&self) -> usize {
        match self {
            Packet::Fresh { id, .. } | Packet::Parked { id, .. } => *id,
        }
    }

    pub(crate) fn ledger(&self) -> &Ledger {
        match self {
            Packet::Fresh { ledger, .. } | Packet::Parked { ledger, .. } => ledger,
        }
    }

    pub(crate) fn ledger_mut(&mut self) -> &mut Ledger {
        match self {
            Packet::Fresh { ledger, .. } | Packet::Parked { ledger, .. } => ledger,
        }
    }
}

/// One task in a scheduler's local set.
pub(crate) struct Task {
    id: usize,
    name: String,
    // Always `Some` while queued; taken only for the duration of a slice
    // (`Engine::run` consumes the engine and returns its successor).
    engine: Option<Engine>,
    ledger: Ledger,
    // Last durable checkpoint (serialized engine), when supervising. It
    // always encodes the task's current state: it is taken at every
    // suspension, and a restarted or migrated engine is restored from it.
    checkpoint: Option<Vec<u8>>,
    // Live heap bytes at the last suspension — the admission-control
    // gauge. Zero until the task first checkpoints.
    bytes_live: u64,
}

impl Task {
    pub(crate) fn new(
        id: usize,
        name: String,
        engine: Engine,
        ledger: Ledger,
        checkpoint: Option<Vec<u8>>,
    ) -> Task {
        Task {
            id,
            name,
            engine: Some(engine),
            ledger,
            checkpoint,
            bytes_live: 0,
        }
    }

    /// Turns a task that is not mid-slice back into a packet: a started
    /// one through the snapshot codec (its checkpoint, when it has one,
    /// *is* the ticket), a never-run one as a fresh job.
    // The Err variant hands the task back by value on purpose: a refused
    // move must leave the task runnable where it is.
    #[allow(clippy::result_large_err)]
    fn into_packet(mut self) -> Result<Packet, (Task, SnapshotError)> {
        let engine = self.engine.take().expect("queued task holds its engine");
        if self.ledger.slices == 0 {
            return Ok(Packet::Fresh {
                id: self.id,
                ledger: self.ledger,
            });
        }
        let ticket = match self.checkpoint.take() {
            Some(bytes) => MigrationTicket {
                bytes,
                stats: engine.stats(),
            },
            None => match engine.into_ticket() {
                Ok(ticket) => ticket,
                Err((engine, e)) => {
                    self.engine = Some(engine);
                    return Err((self, e));
                }
            },
        };
        self.ledger.absorb(&ticket.stats);
        self.ledger.migrations += 1;
        Ok(Packet::Parked {
            id: self.id,
            name: self.name,
            ticket: Box::new(ticket),
            ledger: self.ledger,
        })
    }
}

/// A scheduler's seat in a pool: where admitted work comes from, where a
/// suspended task may move, and who hears about retirements. A
/// standalone scheduler sits on `()`: nothing arrives and nothing moves.
pub(crate) trait Seat {
    /// Materializes the next packet of this worker's inbox, or the
    /// report of one that could not be (compile or restore failure).
    fn admit(&mut self) -> Option<Result<Task, TaskReport>>;
    /// The placement hook, asked at `task`'s `suspension`-th suspension:
    /// the worker to move it to, and how many queue hops that move
    /// stands for. `local_work` says whether this worker keeps other
    /// local tasks.
    fn place(&mut self, task: usize, suspension: u64, local_work: bool) -> Option<(usize, u32)>;
    /// Hands a packet that left this worker's local set to worker `to`.
    fn send(&mut self, to: usize, packet: Packet, hops: u32);
    /// A task retired on this worker.
    fn retired(&mut self, report: &TaskReport);
}

impl Seat for () {
    fn admit(&mut self) -> Option<Result<Task, TaskReport>> {
        None
    }
    fn place(&mut self, _: usize, _: u64, _: bool) -> Option<(usize, u32)> {
        None
    }
    fn send(&mut self, _: usize, _: Packet, _: u32) {}
    fn retired(&mut self, _: &TaskReport) {}
}

/// The scheduler: a local set of tasks and a runnable queue.
pub struct Scheduler {
    config: SchedConfig,
    runnable: VecDeque<Task>,
    // Faulted tasks waiting out their backoff, with the tick at which
    // each becomes runnable again.
    parked: Vec<(Task, u64)>,
    tick: u64,
    submitted: usize,
    reports: Vec<TaskReport>,
    spans: SpanLog,
    /// Timeline lane for recorded spans (the pool sets this to the
    /// worker index).
    tid: u32,
    /// Turnaround origin.
    epoch: Instant,
    /// Instructions this scheduler's slices executed.
    steps_executed: u64,
}

impl Scheduler {
    /// Creates an empty standalone scheduler; turnarounds count from now.
    pub fn new(config: SchedConfig) -> Scheduler {
        Scheduler::on_worker(config, 0, Instant::now())
    }

    /// A scheduler for pool worker `tid`, timing turnaround and spans
    /// from the pool's `epoch`.
    pub(crate) fn on_worker(config: SchedConfig, tid: u32, epoch: Instant) -> Scheduler {
        Scheduler {
            config,
            runnable: VecDeque::new(),
            parked: Vec::new(),
            tick: 0,
            submitted: 0,
            reports: Vec::new(),
            spans: SpanLog::with_origin(epoch),
            tid,
            epoch,
            steps_executed: 0,
        }
    }

    /// The per-slice spans recorded so far (empty unless
    /// [`SchedConfig::record_spans`]).
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// Takes the recorded spans out of the scheduler.
    pub fn take_spans(&mut self) -> SpanLog {
        std::mem::take(&mut self.spans)
    }

    /// Submits an engine under a display name; returns its task id. The
    /// deadline clock (if the engine has one) starts now.
    pub fn submit(&mut self, name: impl Into<String>, engine: Engine) -> usize {
        let id = self.submitted;
        self.submitted += 1;
        self.enqueue(Task::new(id, name.into(), engine, Ledger::default(), None));
        id
    }

    fn enqueue(&mut self, mut task: Task) {
        // A parked task's ticket is a checkpoint of its state; it is kept
        // only when supervising.
        if !self.config.checkpoint {
            task.checkpoint = None;
        }
        if task.ledger.deadline_at.is_none() {
            let engine = task.engine.as_ref().expect("queued task holds its engine");
            task.ledger.deadline_at = engine
                .deadline()
                .and_then(|d| Instant::now().checked_add(d));
        }
        self.runnable.push_back(task);
    }

    /// Tasks still queued, suspended, or parked in backoff.
    pub fn pending(&self) -> usize {
        self.runnable.len() + self.parked.len()
    }

    /// Aggregate live heap bytes across every task still in the
    /// scheduler, as measured at each task's last checkpoint.
    pub fn bytes_live(&self) -> u64 {
        let parked = self.parked.iter().map(|(t, _)| t);
        self.runnable
            .iter()
            .chain(parked)
            .map(|t| t.bytes_live)
            .sum()
    }

    /// Moves parked tasks whose backoff has elapsed back to the runnable
    /// queue; when nothing is runnable but tasks remain parked,
    /// fast-forwards the tick to the earliest release.
    fn unpark_due(&mut self) {
        if self.runnable.is_empty() {
            if let Some(next) = self.parked.iter().map(|&(_, at)| at).min() {
                self.tick = self.tick.max(next);
            }
        }
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].1 <= self.tick {
                let (task, _) = self.parked.swap_remove(i);
                self.runnable.push_back(task);
            } else {
                i += 1;
            }
        }
    }

    fn pick(&mut self) -> Option<Task> {
        // Backpressure: over budget, started tasks (which can shrink the
        // pool by finishing) outrank fresh admissions — unless only
        // fresh tasks are runnable, to avoid stalling the queue. The
        // queue is scanned only when over budget.
        let over_budget = self
            .config
            .pool_budget_bytes
            .is_some_and(|budget| self.bytes_live() > budget);
        let started_only = over_budget && self.runnable.iter().any(|t| t.ledger.slices > 0);
        let eligible = |t: &Task| !started_only || t.ledger.slices > 0;
        let pos = match self.config.policy {
            Policy::RoundRobin => self.runnable.iter().position(eligible)?,
            Policy::EarliestDeadlineFirst => {
                self.runnable
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| eligible(t))
                    // None sorts after every Some; FIFO among ties.
                    .min_by_key(|(_, t)| {
                        (t.ledger.deadline_at.is_none(), t.ledger.deadline_at, t.id)
                    })?
                    .0
            }
        };
        self.runnable.remove(pos)
    }

    /// Records a retired task's report (also for packets that failed
    /// before reaching a local set).
    pub(crate) fn finish(&mut self, seat: &mut dyn Seat, report: TaskReport) {
        seat.retired(&report);
        self.reports.push(report);
    }

    fn retire(
        &mut self,
        seat: &mut dyn Seat,
        mut task: Task,
        outcome: Outcome,
        stats: &MachineStats,
    ) {
        task.ledger.absorb(stats);
        let report = task
            .ledger
            .report(task.id, task.name, outcome, self.epoch.elapsed());
        self.finish(seat, report);
    }

    /// Handles a faulted task: restart from its last checkpoint with
    /// exponential backoff while budget remains, else retire it with the
    /// faulting outcome. `injected` marks a fault-plan crash, which the
    /// restarted attempt runs without.
    fn fault(
        &mut self,
        seat: &mut dyn Seat,
        mut task: Task,
        outcome: Outcome,
        stats: &MachineStats,
        injected: bool,
    ) {
        let can_restart = self.config.checkpoint
            && task.ledger.retries < self.config.retry_budget
            && task.checkpoint.is_some();
        if !can_restart {
            self.retire(seat, task, outcome, stats);
            return;
        }
        let bytes = task.checkpoint.as_deref().expect("checked above");
        match Engine::restore(bytes) {
            Ok(mut engine) => {
                if injected {
                    engine.disarm_injected_fault();
                }
                task.ledger.absorb(stats);
                task.ledger.retries += 1;
                // The attempt's deadline clock restarts with the attempt.
                task.ledger.deadline_at = engine
                    .deadline()
                    .and_then(|d| Instant::now().checked_add(d));
                let backoff = self
                    .config
                    .backoff_base
                    .saturating_mul(1u64 << (task.ledger.retries - 1).min(62));
                task.engine = Some(engine);
                self.parked.push((task, self.tick.saturating_add(backoff)));
            }
            Err(e) => {
                // A checkpoint that no longer restores is itself a fault;
                // surface both failures rather than retrying blindly.
                let orig = match outcome {
                    Outcome::Failed(msg) | Outcome::Completed(msg) => msg,
                    Outcome::TimedOut => "deadline exceeded".into(),
                };
                let outcome = Outcome::Failed(format!("{orig}; checkpoint restore failed: {e}"));
                self.retire(seat, task, outcome, stats);
            }
        }
    }

    /// Records a zero-length span (a steal or a migration) when span
    /// recording is on.
    pub(crate) fn instant(
        &mut self,
        name: &str,
        cat: &'static str,
        args: Vec<(&'static str, String)>,
    ) {
        if self.config.record_spans {
            let now = Instant::now();
            self.spans
                .record(name.to_string(), cat, self.tid, now, now, args);
        }
    }

    /// Runs one slice of one task: admits from the seat's inbox up to
    /// [`LOCAL_CAP`], picks by policy, runs, and then retires, restarts,
    /// checkpoints or moves the task. Returns `false` when no task is
    /// runnable (parked tasks count as runnable: their backoff is
    /// fast-forwarded rather than busy-waited).
    pub(crate) fn step(&mut self, seat: &mut dyn Seat) -> bool {
        while self.pending() < LOCAL_CAP {
            match seat.admit() {
                Some(Ok(task)) => self.enqueue(task),
                Some(Err(report)) => self.finish(seat, report),
                None => break,
            }
        }
        self.tick = self.tick.saturating_add(1);
        self.unpark_due();
        let Some(mut task) = self.pick() else {
            return false;
        };
        let engine = task.engine.take().expect("queued task holds its engine");
        if task
            .ledger
            .deadline_at
            .is_some_and(|at| Instant::now() >= at)
        {
            let stats = engine.stats();
            self.fault(seat, task, Outcome::TimedOut, &stats, false);
            return true;
        }
        task.ledger.slices += 1;
        let steps_before = engine.stats().steps_executed;
        let started = self.config.record_spans.then(Instant::now);
        let result = engine.run(self.config.slice);
        let (outcome, stats) = match &result {
            RunResult::Done(_, s) => ("done", s),
            RunResult::Suspended(_, s) => ("suspended", s),
            RunResult::Failed(_, s) => ("failed", s),
        };
        let steps = stats.steps_executed - steps_before;
        self.steps_executed += steps;
        if let Some(start) = started {
            self.spans.record(
                task.name.clone(),
                "slice",
                self.tid,
                start,
                Instant::now(),
                vec![
                    ("task", task.id.to_string()),
                    ("slice", task.ledger.slices.to_string()),
                    ("steps", steps.to_string()),
                    ("outcome", outcome.to_string()),
                ],
            );
        }
        match result {
            RunResult::Done(v, stats) => {
                self.retire(seat, task, Outcome::Completed(v.write_string()), &stats);
            }
            RunResult::Failed(e, stats) => {
                let injected = matches!(e.kind, VmErrorKind::InjectedFault { .. });
                let outcome = if e.kind == VmErrorKind::DeadlineExceeded {
                    Outcome::TimedOut
                } else {
                    Outcome::Failed(e.to_string())
                };
                self.fault(seat, task, outcome, &stats, injected);
            }
            RunResult::Suspended(engine, stats) => self.suspended(seat, task, engine, &stats),
        }
        true
    }

    /// A task's slice ended in a suspension: check invariants,
    /// checkpoint, then ask the seat whether the task moves.
    fn suspended(
        &mut self,
        seat: &mut dyn Seat,
        mut task: Task,
        mut engine: Engine,
        stats: &MachineStats,
    ) {
        if self.config.check_invariants {
            if let Err(msg) = engine.check_invariants() {
                let outcome = Outcome::Failed(format!("invariant violated: {msg}"));
                self.retire(seat, task, outcome, stats);
                return;
            }
        }
        if self.config.checkpoint {
            match engine.snapshot() {
                Ok(bytes) => {
                    task.checkpoint = Some(bytes);
                    task.ledger.checkpoints += 1;
                    task.bytes_live = stats.bytes_live;
                }
                Err(e) => {
                    // A task whose state cannot checkpoint is not
                    // supervisable; fail it rather than silently running
                    // without crash coverage.
                    let outcome = Outcome::Failed(format!("checkpoint failed: {e}"));
                    self.retire(seat, task, outcome, stats);
                    return;
                }
            }
        }
        task.engine = Some(engine);
        // This suspension is the migration safe point.
        if let Some((to, hops)) = seat.place(task.id, task.ledger.slices, self.pending() > 0) {
            let suspension = task.ledger.slices;
            match task.into_packet() {
                Ok(packet) => {
                    if let Packet::Parked { name, ticket, .. } = &packet {
                        self.instant(
                            name,
                            "migrate",
                            vec![
                                ("task", packet.id().to_string()),
                                ("to", to.to_string()),
                                ("suspension", suspension.to_string()),
                                ("bytes", ticket.bytes.len().to_string()),
                            ],
                        );
                    }
                    seat.send(to, packet, hops);
                    return;
                }
                // Serialization refused: the move is skipped and the
                // task keeps running here.
                Err((kept, _)) => task = kept,
            }
        }
        self.runnable.push_back(task);
    }

    /// Empties the local set into packets (a killed worker's tasks,
    /// about to be re-stolen). A task whose state cannot be serialized
    /// retires failed.
    pub(crate) fn evict(&mut self, seat: &mut dyn Seat) -> Vec<Packet> {
        let mut out = Vec::new();
        let parked = std::mem::take(&mut self.parked).into_iter().map(|(t, _)| t);
        let tasks: Vec<Task> = self.runnable.drain(..).chain(parked).collect();
        for task in tasks {
            match task.into_packet() {
                Ok(packet) => out.push(packet),
                Err((mut task, e)) => {
                    let stats = task.engine.take().expect("kept engine").stats();
                    let outcome = Outcome::Failed(format!("re-steal snapshot failed: {e}"));
                    self.retire(seat, task, outcome, &stats);
                }
            }
        }
        out
    }

    /// Runs until every task has retired; returns the per-task reports in
    /// retirement order.
    pub fn run_all(self) -> Vec<TaskReport> {
        self.run_all_traced().0
    }

    /// Like [`Scheduler::run_all`], but also returns the recorded
    /// per-slice spans (empty unless [`SchedConfig::record_spans`]).
    pub fn run_all_traced(mut self) -> (Vec<TaskReport>, SpanLog) {
        while self.step(&mut ()) {}
        (self.reports, self.spans)
    }

    /// Retired reports, recorded spans, and executed instructions.
    pub(crate) fn into_parts(self) -> (Vec<TaskReport>, SpanLog, u64) {
        (self.reports, self.spans, self.steps_executed)
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("policy", &self.config.policy)
            .field("pending", &self.pending())
            .field("retired", &self.reports.len())
            .finish()
    }
}

/// Aggregate throughput / latency / fairness over a batch of task
/// reports.
#[derive(Debug, Clone)]
pub struct SchedMetrics {
    /// Total tasks retired.
    pub tasks: usize,
    /// Tasks that completed normally.
    pub completed: usize,
    /// Tasks that died with a runtime error.
    pub failed: usize,
    /// Tasks that hit their deadline.
    pub timed_out: usize,
    /// Wall time for the whole batch.
    pub wall: Duration,
    /// Sum of per-task instruction counts.
    pub total_steps: u64,
    /// Sum of per-task slice counts.
    pub total_slices: u64,
    /// Retired tasks per wall-clock second.
    pub tasks_per_sec: f64,
    /// Instructions per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean turnaround.
    pub latency_mean: Duration,
    /// Median turnaround.
    pub latency_p50: Duration,
    /// 95th-percentile turnaround.
    pub latency_p95: Duration,
    /// 99th-percentile turnaround — the serving tier's tail-latency
    /// headline number.
    pub latency_p99: Duration,
    /// Worst turnaround.
    pub latency_max: Duration,
    /// Jain fairness index over per-task `steps` — 1.0 when every task got
    /// identical CPU, approaching `1/n` under total starvation. Only
    /// meaningful when tasks want similar amounts of work.
    pub fairness_jain: f64,
    /// Sum of per-task [`TaskReport::migrations`] — suspended-engine
    /// moves through the snapshot codec.
    pub total_migrations: u64,
    /// Sum of per-task [`TaskReport::steals`] — work items taken by a
    /// worker other than the one holding them.
    pub total_steals: u64,
}

/// Jain's fairness index over arbitrary nonnegative shares: `1.0` when
/// every share is identical, approaching `1/n` when one share holds
/// everything. The pool uses it both over per-task steps (CPU fairness)
/// and over per-worker executed steps (load balance).
pub fn jain_index(shares: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut sum, mut sum_sq) = (0usize, 0.0f64, 0.0f64);
    for s in shares {
        n += 1;
        sum += s;
        sum_sq += s * s;
    }
    if n == 0 || sum_sq == 0.0 {
        1.0
    } else {
        sum * sum / (n as f64 * sum_sq)
    }
}

impl SchedMetrics {
    /// Computes metrics from reports plus the batch's wall time.
    pub fn from_reports(reports: &[TaskReport], wall: Duration) -> SchedMetrics {
        let tasks = reports.len();
        let completed = reports
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Completed(_)))
            .count();
        let failed = reports
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Failed(_)))
            .count();
        let timed_out = tasks - completed - failed;
        let total_steps: u64 = reports.iter().map(|r| r.steps).sum();
        let total_slices: u64 = reports.iter().map(|r| r.slices).sum();
        let secs = wall.as_secs_f64().max(1e-9);
        let mut lat: Vec<Duration> = reports.iter().map(|r| r.turnaround).collect();
        lat.sort_unstable();
        let pick = |q: f64| -> Duration {
            if lat.is_empty() {
                Duration::ZERO
            } else {
                let idx = ((lat.len() - 1) as f64 * q).round() as usize;
                lat[idx.min(lat.len() - 1)]
            }
        };
        let latency_mean = if lat.is_empty() {
            Duration::ZERO
        } else {
            lat.iter().sum::<Duration>() / lat.len() as u32
        };
        SchedMetrics {
            tasks,
            completed,
            failed,
            timed_out,
            wall,
            total_steps,
            total_slices,
            tasks_per_sec: tasks as f64 / secs,
            steps_per_sec: total_steps as f64 / secs,
            latency_mean,
            latency_p50: pick(0.50),
            latency_p95: pick(0.95),
            latency_p99: pick(0.99),
            latency_max: lat.last().copied().unwrap_or(Duration::ZERO),
            fairness_jain: jain_index(reports.iter().map(|r| r.steps as f64)),
            total_migrations: reports.iter().map(|r| u64::from(r.migrations)).sum(),
            total_steals: reports.iter().map(|r| u64::from(r.steals)).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkerHost;
    use cm_core::EngineConfig;
    use std::time::Duration;

    fn spinner_host() -> WorkerHost {
        let mut host = WorkerHost::new(EngineConfig::default());
        host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        host
    }

    #[test]
    fn round_robin_drains_everything() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            check_invariants: true,
            ..Default::default()
        });
        for i in 0..20 {
            let engine = host.spawn(&format!("(spin {})", 200 + i * 50)).unwrap();
            sched.submit(format!("spin-{i}"), engine);
        }
        let start = Instant::now();
        let reports = sched.run_all();
        let metrics = SchedMetrics::from_reports(&reports, start.elapsed());
        assert_eq!(metrics.tasks, 20);
        assert_eq!(metrics.completed, 20);
        assert!(reports
            .iter()
            .all(|r| r.outcome == Outcome::Completed("done".into())));
        // Every task needed several slices at 100 fuel per slice.
        assert!(reports.iter().all(|r| r.slices > 1), "{reports:?}");
    }

    #[test]
    fn round_robin_is_fair_for_identical_tasks() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 97,
            ..Default::default()
        });
        for i in 0..8 {
            sched.submit(format!("t{i}"), host.spawn("(spin 3000)").unwrap());
        }
        let start = Instant::now();
        let reports = sched.run_all();
        let metrics = SchedMetrics::from_reports(&reports, start.elapsed());
        assert!(
            metrics.fairness_jain > 0.999,
            "identical tasks should share CPU evenly: {}",
            metrics.fairness_jain
        );
    }

    #[test]
    fn edf_runs_urgent_task_first() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            policy: Policy::EarliestDeadlineFirst,
            slice: 50,
            ..Default::default()
        });
        // Two slow tasks without deadlines, one urgent one with.
        sched.submit("slow-a", host.spawn("(spin 5000)").unwrap());
        sched.submit("slow-b", host.spawn("(spin 5000)").unwrap());
        let mut cfg = EngineConfig::default();
        cfg.machine.deadline = Some(Duration::from_secs(60));
        let mut urgent_host = WorkerHost::new(cfg);
        urgent_host
            .load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        sched.submit("urgent", urgent_host.spawn("(spin 500)").unwrap());
        let reports = sched.run_all();
        // The deadline-bearing task must retire before the deadline-free
        // ones despite being submitted last.
        assert_eq!(reports[0].name, "urgent");
        assert_eq!(reports[0].outcome, Outcome::Completed("done".into()));
    }

    #[test]
    fn deadline_times_out_between_slices() {
        let mut cfg = EngineConfig::default();
        cfg.machine.deadline = Some(Duration::from_millis(1));
        let mut host = WorkerHost::new(cfg);
        host.load("(define (loop) (loop))").unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 500,
            ..Default::default()
        });
        sched.submit("hog", host.spawn("(loop)").unwrap());
        let reports = sched.run_all();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].outcome, Outcome::TimedOut);
    }

    #[test]
    fn slice_spans_cover_every_pick() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            record_spans: true,
            ..Default::default()
        });
        for i in 0..3 {
            sched.submit(format!("t{i}"), host.spawn("(spin 500)").unwrap());
        }
        let (reports, spans) = sched.run_all_traced();
        let total_slices: u64 = reports.iter().map(|r| r.slices).sum();
        assert_eq!(spans.len() as u64, total_slices);
        assert!(spans.spans().iter().all(|s| s.cat == "slice" && s.tid == 0));
        // Every span carries the per-slice step count.
        assert!(spans
            .spans()
            .iter()
            .all(|s| s.args.iter().any(|(k, _)| *k == "steps")));
    }

    #[test]
    fn spans_off_by_default() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig::default());
        sched.submit("t", host.spawn("(spin 100)").unwrap());
        let (_, spans) = sched.run_all_traced();
        assert!(spans.is_empty());
    }

    #[test]
    fn task_reports_carry_memory_accounting() {
        // One tenant churns the heap, one only counts; their retirement
        // reports must expose the difference.
        let mut cfg = EngineConfig::default();
        cfg.machine.gc_stress = true; // force collections within the run
        let mut host = WorkerHost::new(cfg);
        host.load(
            "(define (build n acc)
               (if (zero? n) 'done (build (- n 1) (cons n acc))))
             (define (spin n) (if (zero? n) 'done (spin (- n 1))))",
        )
        .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 200,
            ..Default::default()
        });
        sched.submit("alloc-heavy", host.spawn("(build 500 '())").unwrap());
        sched.submit("alloc-light", host.spawn("(spin 500)").unwrap());
        let reports = sched.run_all();
        let by_name = |n: &str| reports.iter().find(|r| r.name == n).unwrap();
        let heavy = by_name("alloc-heavy");
        let light = by_name("alloc-light");
        assert_eq!(heavy.outcome, Outcome::Completed("done".into()));
        assert!(heavy.allocations >= 400, "{heavy:?}");
        assert!(heavy.collections > 0, "{heavy:?}");
        assert!(heavy.bytes_live_peak > 0, "{heavy:?}");
        assert!(
            heavy.allocations > light.allocations,
            "heavy {heavy:?} vs light {light:?}"
        );
        assert!(heavy.bytes_live_peak > light.bytes_live_peak);
    }

    #[test]
    fn checkpointing_counts_and_does_not_disturb_results() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            checkpoint: true,
            ..Default::default()
        });
        sched.submit("t", host.spawn("(spin 2000)").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert_eq!(r.outcome, Outcome::Completed("done".into()), "{r:?}");
        assert_eq!(r.retries, 0);
        // One checkpoint per suspension: every slice but the final one.
        assert_eq!(r.checkpoints, r.slices - 1, "{r:?}");
    }

    #[test]
    fn supervisor_restarts_after_deadline_and_completes() {
        // The task needs far more wall time than one deadline grants, but
        // checkpoints persist across attempts: each restart resumes from
        // the last suspension with a fresh clock, so progress accumulates
        // until the task completes. This is the crash-recovery payoff —
        // without checkpointing the same config retires `TimedOut`.
        let mut cfg = EngineConfig::default();
        cfg.machine.deadline = Some(Duration::from_millis(20));
        let mut host = WorkerHost::new(cfg);
        host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 10_000,
            checkpoint: true,
            retry_budget: 500,
            backoff_base: 1,
            ..Default::default()
        });
        sched.submit("marathon", host.spawn("(spin 2000000)").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert_eq!(r.outcome, Outcome::Completed("done".into()), "{r:?}");
        assert!(r.retries > 0, "never hit the deadline: {r:?}");
        assert!(r.checkpoints > 0, "{r:?}");
    }

    #[test]
    fn supervisor_exhausts_retry_budget_on_persistent_fault() {
        // A heap-limit fault caused by *live* data refires after every
        // restart (the checkpoint faithfully preserves the live graph),
        // so the supervisor burns its whole budget and then surfaces the
        // real failure.
        let mut cfg = EngineConfig::default();
        cfg.machine = cfg.machine.with_max_heap_bytes(32 * 1024);
        cfg.machine.gc_stress = true;
        let mut host = WorkerHost::new(cfg);
        host.load(
            "(define (build n acc)
               (if (zero? n) acc (build (- n 1) (cons n acc))))",
        )
        .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 200,
            checkpoint: true,
            retry_budget: 2,
            backoff_base: 1,
            ..Default::default()
        });
        sched.submit("hog", host.spawn("(build 100000 '())").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert!(
            matches!(&r.outcome, Outcome::Failed(msg) if msg.contains("heap limit")),
            "{r:?}"
        );
        assert_eq!(r.retries, 2, "{r:?}");
        assert!(r.checkpoints > 0, "{r:?}");
    }

    #[test]
    fn fault_before_first_checkpoint_retires_immediately() {
        // A fault early in the first slice leaves nothing to restart
        // from; the supervisor must not loop on a task it has no
        // checkpoint for.
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 10_000,
            checkpoint: true,
            retry_budget: 5,
            ..Default::default()
        });
        sched.submit("doomed", host.spawn("(car 5)").unwrap());
        let reports = sched.run_all();
        let r = &reports[0];
        assert!(matches!(&r.outcome, Outcome::Failed(_)), "{r:?}");
        assert_eq!(r.retries, 0, "{r:?}");
        assert_eq!(r.checkpoints, 0, "{r:?}");
    }

    #[test]
    fn backpressure_prefers_started_tasks_over_fresh_admissions() {
        // With a zero-byte pool budget, the moment the first task
        // checkpoints (gc_stress keeps its live-byte gauge nonzero) the
        // scheduler is over budget and must drain it before admitting the
        // second — so the long first task retires *before* the short
        // second one, inverting the round-robin order.
        let mut cfg = EngineConfig::default();
        cfg.machine.gc_stress = true;
        let mut host = WorkerHost::new(cfg);
        host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 100,
            checkpoint: true,
            pool_budget_bytes: Some(0),
            ..Default::default()
        });
        sched.submit("long", host.spawn("(spin 3000)").unwrap());
        sched.submit("short", host.spawn("(spin 50)").unwrap());
        let reports = sched.run_all();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name, "long", "{reports:?}");
        assert!(reports
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Completed(_))));
    }

    #[test]
    fn failed_task_does_not_poison_neighbors() {
        let mut host = spinner_host();
        let mut sched = Scheduler::new(SchedConfig {
            slice: 64,
            ..Default::default()
        });
        sched.submit("ok", host.spawn("(spin 1000)").unwrap());
        sched.submit("bad", host.spawn("(car 5)").unwrap());
        sched.submit("ok2", host.spawn("(spin 100)").unwrap());
        let reports = sched.run_all();
        let by_name = |n: &str| reports.iter().find(|r| r.name == n).unwrap();
        assert!(matches!(by_name("bad").outcome, Outcome::Failed(_)));
        assert_eq!(by_name("ok").outcome, Outcome::Completed("done".into()));
        assert_eq!(by_name("ok2").outcome, Outcome::Completed("done".into()));
    }
}
