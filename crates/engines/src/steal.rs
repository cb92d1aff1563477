//! Work stealing, snapshot-based engine migration, and the
//! deterministic virtual-tick driver.
//!
//! With [`PoolConfig::steal`](crate::PoolConfig) set, the pool's workers
//! may move work. The per-worker [`Scheduler`] is the
//! same as in the static pool; what changes is its placement hook.
//!
//! * **Per-worker inboxes.** Every worker owns a shared inbox of fresh
//!   job specs and parked (serialized) engines, and admits from its
//!   front while its local set holds fewer than 32 tasks. An idle worker
//!   steals from the *back* of another worker's inbox.
//! * **Migration via the snapshot codec.** Engines are `Rc`-based and
//!   thread-pinned, so a *started* task can only cross threads as bytes:
//!   the victim serializes the just-suspended engine with
//!   [`Engine::into_ticket`](crate::Engine::into_ticket) — or, when
//!   checkpointing, ships the checkpoint it just took — and the thief
//!   rebuilds it with [`Engine::from_ticket`](crate::Engine::from_ticket),
//!   so migrated bytecode is re-verified. Because a one-shot continuation
//!   is consumed by serialization-as-a-move, a migrated engine can never
//!   be resumed twice.
//! * **Cooperative donation.** A victim never has its suspended engines
//!   taken from under it (they are not `Send`). Instead a hungry thief
//!   raises a flag; the victim's placement hook checks the flags at its
//!   next suspension — the natural safe point — and donates the engine
//!   it just suspended, provided it keeps other work.
//! * **Deterministic replay.** The threaded pool is timing-dependent by
//!   nature, so every cross-worker move is describable as a
//!   [`StealEvent`] keyed by `(task, suspension count)` — a key that
//!   depends only on the task's own progress, never on wall-clock. A
//!   recorded [`StealSchedule`] replays in the virtual-tick driver
//!   ([`StealConfig::replay`]): every worker steps its scheduler once
//!   per tick, in worker order, on one thread, and the placement hook
//!   answers from the schedule, so every migration decision — including
//!   simulated worker kills ([`StealConfig::kill_workers`]) — is
//!   reproducible bit-for-bit.
//!
//! Semantics note: a migrated engine resumes with a *private* copy of
//! the globals captured in its snapshot (the same isolation the
//! supervisor's checkpoint-restore path imposes), so serving-tier tasks
//! must not rely on observing other tasks' global writes after a hop.
//! The scheduler's own oracle — sliced-and-stolen results bit-identical
//! to uninterrupted runs — holds for any task that computes through its
//! own state, which is what the workload corpus does.

use std::collections::HashMap;

use crate::pool::{Shared, Worker, WorkerSummary};
use crate::sched::Scheduler;

/// Work-stealing knobs, gated behind
/// [`PoolConfig::steal`](crate::PoolConfig) so the static pool (and the
/// oracle tests running against it) never moves work when unset.
#[derive(Debug, Clone, Default)]
pub struct StealConfig {
    /// Allow *started* (suspended) engines to migrate via the snapshot
    /// codec. Off, only fresh (never-run) jobs are stolen.
    pub migrate: bool,
    /// Record every cross-worker move into
    /// [`PoolReport::schedule`](crate::pool::PoolReport) for later
    /// replay. A replay records the moves it made: several events at one
    /// `(task, suspension)` key become one move to the last worker.
    pub record: bool,
    /// Replay this schedule in the deterministic virtual-tick driver
    /// instead of running real worker threads. The replay runs on
    /// [`PoolConfig::workers`](crate::PoolConfig) workers; the
    /// schedule's own `workers` field is informational.
    pub replay: Option<StealSchedule>,
    /// Simulated worker kills, `(tick, worker)`: at the start of that
    /// virtual tick the worker dies and survivors re-steal its tasks —
    /// started ones hop through the snapshot codec. Runs the virtual-tick
    /// driver.
    pub kill_workers: Vec<(u64, usize)>,
}

/// One cross-worker move, keyed by the task's own progress so the same
/// schedule replays identically regardless of thread timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEvent {
    /// Global task id ([`JobSpec`](crate::JobSpec) submission index).
    pub task: usize,
    /// The task's cumulative slice count when it moved. `0` means the
    /// task had never run — a fresh steal, no snapshot involved.
    /// `k ≥ 1` means it moved after its `k`-th suspension, serialized
    /// through the snapshot codec.
    pub suspension: u64,
    /// Worker whose queue held the task.
    pub from: usize,
    /// Worker that took it.
    pub to: usize,
}

/// A complete record of every cross-worker move in one pool run —
/// enough to reproduce all placement decisions deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StealSchedule {
    /// Worker count the schedule was recorded against (at least 1).
    pub workers: usize,
    /// Moves in the order they were decided. Several events may share a
    /// `(task, suspension)` key when a parked engine was re-stolen from
    /// a queue before anyone resumed it; replay applies them in order
    /// (one serialization, several queue hops).
    pub events: Vec<StealEvent>,
}

impl StealSchedule {
    /// Serializes to the `cm-steal-schedule-v1` text format:
    ///
    /// ```text
    /// cm-steal-schedule-v1 workers=4
    /// steal 17 0 1 3
    /// steal 17 4 3 0
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = format!("cm-steal-schedule-v1 workers={}\n", self.workers);
        for e in &self.events {
            out.push_str(&format!(
                "steal {} {} {} {}\n",
                e.task, e.suspension, e.from, e.to
            ));
        }
        out
    }

    /// Parses the text format produced by [`StealSchedule::to_text`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed line: a bad header, a worker
    /// count of zero, a missing or non-numeric field, or a field past the
    /// fourth.
    pub fn parse(text: &str) -> Result<StealSchedule, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty schedule")?;
        let rest = header
            .strip_prefix("cm-steal-schedule-v1 workers=")
            .ok_or_else(|| format!("bad header: {header:?}"))?;
        let workers: usize = rest
            .trim()
            .parse()
            .map_err(|e| format!("bad worker count {rest:?}: {e}"))?;
        if workers == 0 {
            return Err(format!(
                "bad header: {header:?}: worker count must be at least 1"
            ));
        }
        let mut events = Vec::new();
        for line in lines {
            let mut f = line.split_whitespace();
            if f.next() != Some("steal") {
                return Err(format!("bad event line: {line:?}"));
            }
            let mut num = |what: &str| -> Result<u64, String> {
                f.next()
                    .ok_or_else(|| format!("missing {what}: {line:?}"))?
                    .parse::<u64>()
                    .map_err(|e| format!("bad {what} in {line:?}: {e}"))
            };
            let index = |n: u64| usize::try_from(n).map_err(|e| format!("{line:?}: {e}"));
            events.push(StealEvent {
                task: index(num("task")?)?,
                suspension: num("suspension")?,
                from: index(num("from")?)?,
                to: index(num("to")?)?,
            });
            if f.next().is_some() {
                return Err(format!("trailing fields in event line: {line:?}"));
            }
        }
        Ok(StealSchedule { workers, events })
    }
}

/// The schedule's migrations (suspension ≥ 1), keyed by
/// `(task, suspension)`: the virtual-tick driver's placement table.
pub(crate) fn keyed_moves(sc: &StealConfig) -> HashMap<(usize, u64), Vec<StealEvent>> {
    let mut moves: HashMap<(usize, u64), Vec<StealEvent>> = HashMap::new();
    let events = sc.replay.iter().flat_map(|s| &s.events);
    for ev in events.filter(|e| e.suspension > 0) {
        moves.entry((ev.task, ev.suspension)).or_default().push(*ev);
    }
    moves
}

/// The virtual-tick driver: every worker on this thread, each live
/// worker's scheduler stepped once per tick in worker order, so the run
/// — migrations and kills included — is a pure function of the spec,
/// the config and the schedule.
pub(crate) fn run_ticks(pool: &Shared<'_>, sc: &StealConfig) -> Vec<WorkerSummary> {
    let mut workers: Vec<(Worker<'_>, Scheduler)> = (0..pool.workers())
        .map(|w| {
            let (worker, sched, ready) = Worker::start(w, pool);
            if !ready {
                pool.kill(w);
            }
            (worker, sched)
        })
        .collect();
    // Fresh steals (suspension 0) are placement decisions: apply them
    // before the first tick, in event order.
    let fresh = sc.replay.iter().flat_map(|s| &s.events);
    for ev in fresh.filter(|e| e.suspension == 0) {
        let Some(to) = pool.route(ev.to) else {
            continue;
        };
        if let Some((from, packet)) = pool.take_fresh(ev.task) {
            pool.deliver(packet, from, to, 1);
        }
    }
    let mut tick = 0u64;
    while pool.remaining() > 0 {
        tick += 1;
        for &(at, kw) in &sc.kill_workers {
            if at != tick || kw >= workers.len() || !pool.is_alive(kw) {
                continue;
            }
            let (worker, sched) = &mut workers[kw];
            let packets = worker.kill(sched);
            let survivors: Vec<usize> = (0..pool.workers()).filter(|&w| pool.is_alive(w)).collect();
            for (i, packet) in packets.into_iter().enumerate() {
                if survivors.is_empty() {
                    let report = pool.fail(packet, "worker killed with no survivors".into());
                    sched.finish(worker, report);
                } else {
                    pool.deliver(packet, kw, survivors[i % survivors.len()], 1);
                }
            }
        }
        let mut progressed = false;
        for (w, (worker, sched)) in workers.iter_mut().enumerate() {
            if pool.is_alive(w) {
                progressed |= sched.step(worker);
            }
        }
        if !progressed {
            // Nothing can run anywhere; the pool fails what is left.
            break;
        }
    }
    workers
        .into_iter()
        .map(|(worker, sched)| worker.finish(sched))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{run_pool, JobSpec, PoolConfig, PoolReport, PoolSpec};
    use crate::sched::{Outcome, SchedConfig};
    use std::time::Duration;

    fn spin_spec(jobs: usize) -> PoolSpec {
        PoolSpec {
            setups: vec!["(define (spin n) (if (zero? n) 'done (spin (- n 1))))".into()],
            jobs: (0..jobs)
                .map(|i| JobSpec {
                    name: format!("spin-{i}"),
                    run: format!("(spin {})", 200 + (i % 5) * 120),
                    expected: Some("done".into()),
                })
                .collect(),
            verify: true,
        }
    }

    #[test]
    fn schedule_text_round_trips() {
        let sched = StealSchedule {
            workers: 4,
            events: vec![
                StealEvent {
                    task: 17,
                    suspension: 0,
                    from: 1,
                    to: 3,
                },
                StealEvent {
                    task: 17,
                    suspension: 4,
                    from: 3,
                    to: 0,
                },
            ],
        };
        let text = sched.to_text();
        assert_eq!(StealSchedule::parse(&text).unwrap(), sched);
        assert!(StealSchedule::parse("garbage").is_err());
        assert!(StealSchedule::parse("cm-steal-schedule-v1 workers=2\nsteal 1 2\n").is_err());
    }

    #[test]
    fn stealing_pool_completes_and_verifies() {
        let config = PoolConfig {
            workers: 4,
            sched: SchedConfig {
                slice: 64,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                migrate: true,
                record: true,
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(24));
        assert_eq!(report.metrics.tasks, 24);
        assert_eq!(report.metrics.completed, 24);
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        // Exactly-once: every global id retires exactly once.
        let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..24).collect::<Vec<_>>());
        assert!(report.schedule.is_some());
    }

    #[test]
    fn replay_empty_schedule_is_deterministic_and_clean() {
        let config = PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 64,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                replay: Some(StealSchedule {
                    workers: 3,
                    events: vec![],
                }),
                ..Default::default()
            }),
        };
        let a = run_pool(&config, &spin_spec(9));
        let b = run_pool(&config, &spin_spec(9));
        assert!(a.is_clean(), "{:?}", a.all_mismatches());
        let values = |r: &PoolReport| -> Vec<(usize, Outcome)> {
            let mut v: Vec<(usize, Outcome)> = r
                .all_reports()
                .iter()
                .map(|t| (t.id, t.outcome.clone()))
                .collect();
            v.sort_by_key(|(id, _)| *id);
            v
        };
        assert_eq!(values(&a), values(&b));
        assert_eq!(a.metrics.total_migrations, 0);
    }

    #[test]
    fn replayed_migration_is_counted_and_bit_identical() {
        let schedule = StealSchedule {
            workers: 2,
            events: vec![
                StealEvent {
                    task: 0,
                    suspension: 1,
                    from: 0,
                    to: 1,
                },
                StealEvent {
                    task: 3,
                    suspension: 0,
                    from: 1,
                    to: 0,
                },
            ],
        };
        let config = PoolConfig {
            workers: 2,
            sched: SchedConfig {
                slice: 50,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                migrate: true,
                replay: Some(schedule),
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(6));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.metrics.total_migrations, 1);
        assert_eq!(report.metrics.total_steals, 2);
        let migrated = report
            .all_reports()
            .into_iter()
            .find(|r| r.id == 0)
            .cloned()
            .unwrap();
        assert_eq!(migrated.migrations, 1);
        // The migrated task retired on the thief.
        assert!(report.workers[1].reports.iter().any(|r| r.id == 0));
    }

    #[test]
    fn replay_kill_worker_resteals_everything() {
        let config = PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 40,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                migrate: true,
                replay: Some(StealSchedule {
                    workers: 3,
                    events: vec![],
                }),
                kill_workers: vec![(3, 1)],
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(9));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.metrics.completed, 9);
        // Worker 1's started tasks crossed the codec to survivors.
        assert!(report.metrics.total_migrations > 0);
        // Exactly-once even through the kill.
        let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_parse_rejects_trailing_fields_and_zero_workers() {
        let ok = "cm-steal-schedule-v1 workers=2\nsteal 1 2 0 1\n";
        assert!(StealSchedule::parse(ok).is_ok());
        let trailing = "cm-steal-schedule-v1 workers=2\nsteal 1 2 3 4 junk\n";
        let err = StealSchedule::parse(trailing).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
        let zero = "cm-steal-schedule-v1 workers=0\n";
        assert!(StealSchedule::parse(zero).is_err());
    }

    #[test]
    fn replay_runs_on_config_workers_not_the_schedule_header() {
        // A hostile header must not size the pool: replay builds exactly
        // `PoolConfig::workers` workers, and events naming workers that do
        // not exist route to live ones.
        let schedule = StealSchedule::parse(
            "cm-steal-schedule-v1 workers=99999999999\nsteal 0 1 0 77777\nsteal 1 0 1 5\n",
        )
        .expect("well-formed text");
        let config = PoolConfig {
            workers: 2,
            sched: SchedConfig {
                slice: 50,
                ..Default::default()
            },
            engine: Default::default(),
            steal: Some(StealConfig {
                replay: Some(schedule),
                ..Default::default()
            }),
        };
        let report = run_pool(&config, &spin_spec(4));
        assert!(report.is_clean(), "{:?}", report.all_mismatches());
        assert_eq!(report.workers.len(), 2);
        assert_eq!(report.metrics.total_migrations, 1);
    }

    /// Jobs that suspend (and so checkpoint) before their first
    /// primitive-heavy slice, which an armed fault plan then crashes.
    fn crash_spec(jobs: usize) -> PoolSpec {
        let mut spec = spin_spec(jobs);
        for job in &mut spec.jobs {
            job.run = format!("(begin (%engine-block) {})", job.run);
        }
        spec
    }

    #[test]
    fn supervision_recovers_injected_faults_under_stealing() {
        let mut engine = cm_core::EngineConfig::default();
        engine.machine.fault_plan.fail_prim_at = Some(20);
        let config = |steal| PoolConfig {
            workers: 3,
            sched: SchedConfig {
                slice: 200,
                checkpoint: true,
                backoff_base: 1,
                ..Default::default()
            },
            engine: engine.clone(),
            steal: Some(steal),
        };
        let threaded = StealConfig {
            migrate: true,
            ..Default::default()
        };
        // Replayed, every task migrates right after its first
        // checkpoint, so the thief restores from the shipped checkpoint
        // and supervises the crash there.
        let events = (0..9)
            .map(|task| StealEvent {
                task,
                suspension: 1,
                from: task % 3,
                to: (task + 1) % 3,
            })
            .collect();
        let replayed = StealConfig {
            migrate: true,
            replay: Some(StealSchedule { workers: 3, events }),
            ..Default::default()
        };
        for (ctx, steal) in [("threaded", threaded), ("replayed", replayed)] {
            let report = run_pool(&config(steal), &crash_spec(9));
            assert!(report.is_clean(), "{ctx}: {:?}", report.all_reports());
            assert_eq!(report.metrics.completed, 9, "{ctx}");
            let reports = report.all_reports();
            assert!(reports.iter().any(|r| r.retries > 0), "{ctx}: {reports:?}");
            assert!(
                reports.iter().all(|r| r.checkpoints > 0),
                "{ctx}: {reports:?}"
            );
        }
    }

    #[test]
    fn edf_under_stealing_runs_a_migrated_deadline_task_first() {
        // Every task has a deadline, set when it first enters a local
        // set. Task 0 (long) is admitted on worker 0 before worker 1
        // admits its two short tasks, then migrates to worker 1 after its
        // first slice. It carries its deadline, so EDF runs it to
        // completion before worker 1's own shorter tasks — which
        // round-robin would retire first.
        let mut engine = cm_core::EngineConfig::default();
        engine.machine.deadline = Some(Duration::from_secs(600));
        let spec = PoolSpec {
            setups: spin_spec(0).setups,
            jobs: [3000, 200, 200, 200]
                .iter()
                .enumerate()
                .map(|(i, n)| JobSpec {
                    name: format!("spin-{i}"),
                    run: format!("(spin {n})"),
                    expected: Some("done".into()),
                })
                .collect(),
            verify: true,
        };
        let schedule = StealSchedule {
            workers: 2,
            events: vec![StealEvent {
                task: 0,
                suspension: 1,
                from: 0,
                to: 1,
            }],
        };
        let run = |policy| {
            let config = PoolConfig {
                workers: 2,
                sched: SchedConfig {
                    policy,
                    slice: 50,
                    ..Default::default()
                },
                engine: engine.clone(),
                steal: Some(StealConfig {
                    migrate: true,
                    replay: Some(schedule.clone()),
                    ..Default::default()
                }),
            };
            let report = run_pool(&config, &spec);
            assert!(report.is_clean(), "{:?}", report.all_mismatches());
            assert_eq!(report.metrics.total_migrations, 1);
            report.workers[1].reports[0].id
        };
        assert_eq!(run(crate::Policy::EarliestDeadlineFirst), 0);
        assert_ne!(run(crate::Policy::RoundRobin), 0);
    }
}
