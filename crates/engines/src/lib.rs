//! Suspendable engines and a multi-tenant scheduler for the
//! continuation-marks VM.
//!
//! This crate is the systems payoff of the VM's preemption path
//! ([`cm_vm::Machine::run_code_sliced`] / [`cm_vm::Machine::resume`]):
//! because a continuation-marks machine can freeze its in-flight state —
//! frames, marks register, winders, pending underflow records — into a
//! one-shot continuation at any instruction boundary, whole programs
//! become *engines* in the Dybvig–Hieb sense: values that run for a fuel
//! slice and either finish or hand back a resumable remainder.
//!
//! Four layers:
//!
//! * [`engine`] — [`Engine`]: one suspendable program;
//!   [`WorkerHost`]: a prelude-loaded compiler + globals that spawns
//!   engines cheaply.
//! * [`sched`] — [`Scheduler`]: the one per-worker state machine that
//!   runs engine slices. It interleaves a local set of engines on one
//!   thread (round-robin or earliest-deadline-first), enforces per-task
//!   [`MachineConfig::deadline`](cm_vm::MachineConfig) timeouts,
//!   optionally checkpoints and restarts faulting tasks, and produces
//!   per-task [`TaskReport`]s.
//! * [`pool`] — [`run_pool`]: N workers, each a host plus a scheduler
//!   with a bounded local set admitted from its own inbox, and
//!   throughput / latency / fairness [`SchedMetrics`] over the batch.
//! * [`steal`] — work stealing: the same workers may take queued jobs
//!   from each other and hand *started* engines across threads as
//!   snapshot bytes (engines are `Rc`-based, so only bytes migrate), and
//!   a virtual-tick driver replays a recorded [`StealSchedule`]
//!   deterministically on one thread through the same schedulers.
//!
//! The `cm-sched` binary drives the paper's §2 examples and the
//! benchmark workloads through the pool concurrently and reports the
//! metrics.
//!
//! # Examples
//!
//! ```
//! use cm_engines::{RunResult, WorkerHost};
//!
//! let mut host = WorkerHost::new(Default::default());
//! host.load("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
//!     .unwrap();
//! let engine = host.spawn("(spin 1000)").unwrap();
//! match engine.run(100) {
//!     RunResult::Suspended(engine, stats) => {
//!         assert_eq!(stats.suspensions, 1);
//!         let (v, _slices) = engine.run_to_completion(100).unwrap();
//!         assert_eq!(v.display_string(), "done");
//!     }
//!     other => panic!("a 1000-deep spin cannot finish in 100 steps: {other:?}"),
//! }
//! ```

pub mod engine;
pub mod pool;
pub mod sched;
pub mod spans;
pub mod steal;

pub use engine::{Engine, MigrationTicket, RunResult, WorkerHost};
pub use pool::{run_pool, JobSpec, PoolConfig, PoolReport, PoolSpec, WorkerSummary};
pub use sched::{jain_index, Outcome, Policy, SchedConfig, SchedMetrics, Scheduler, TaskReport};
pub use spans::{span_sink, Span, SpanLog, SpanSink};
pub use steal::{StealConfig, StealEvent, StealSchedule};
