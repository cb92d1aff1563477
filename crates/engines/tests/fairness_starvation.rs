//! Fairness and starvation-freedom for the work-stealing serving tier.
//!
//! The adversarial load is skewed fuel: every heavy task lands on
//! worker 0 (ids ≡ 0 mod workers), so the static `id % workers`
//! sharding leaves one worker grinding while the rest idle. The
//! deterministic virtual-tick driver quantifies the imbalance — the Jain
//! index over per-worker executed steps — and shows a redistribution
//! schedule repairs it. The multithreaded stealing pool then proves no
//! task starves under the same skew: a per-task completion manifest
//! checks every engine retires exactly once, none lost, none
//! duplicated.

use cm_engines::{
    jain_index, run_pool, JobSpec, Outcome, PoolConfig, PoolReport, PoolSpec, SchedConfig,
    StealConfig, StealEvent, StealSchedule,
};

const WORKERS: usize = 4;
const TASKS: usize = 16;

/// 16 spin tasks; ids ≡ 0 mod 4 spin 300× longer than the rest, so the
/// initial placement puts every heavy task on worker 0.
fn skewed_spec() -> PoolSpec {
    let setup = "(define (spin n) (if (zero? n) 'done (spin (- n 1))))".to_string();
    let jobs = (0..TASKS)
        .map(|id| {
            let n = if id % WORKERS == 0 { 150_000 } else { 500 };
            JobSpec {
                name: format!("spin-{n}-#{id}"),
                run: format!("(spin {n})"),
                expected: Some("done".into()),
            }
        })
        .collect();
    PoolSpec {
        setups: vec![setup],
        jobs,
        verify: true,
    }
}

fn replay(schedule: StealSchedule) -> PoolReport {
    let config = PoolConfig {
        workers: WORKERS,
        sched: SchedConfig {
            slice: 2_000,
            check_invariants: true,
            ..Default::default()
        },
        engine: Default::default(),
        steal: Some(StealConfig {
            migrate: true,
            record: false,
            replay: Some(schedule),
            kill_workers: Vec::new(),
        }),
    };
    run_pool(&config, &skewed_spec())
}

fn worker_load_jain(report: &PoolReport) -> f64 {
    jain_index(report.workers.iter().map(|w| w.steps_executed as f64))
}

fn assert_manifest_complete(ctx: &str, report: &PoolReport) {
    assert!(
        report.is_clean(),
        "{ctx}: failures={} timeouts={} mismatches={:?} panics={:?}",
        report.metrics.failed,
        report.metrics.timed_out,
        report.all_mismatches(),
        report
            .workers
            .iter()
            .filter_map(|w| w.panicked.as_deref())
            .collect::<Vec<_>>(),
    );
    // The completion manifest: every submitted id retired exactly once,
    // with its value — no engine lost in a queue, none resumed twice.
    let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..TASKS).collect::<Vec<_>>(),
        "{ctx}: completion manifest has lost or duplicated tasks"
    );
    for r in report.all_reports() {
        match &r.outcome {
            Outcome::Completed(v) => assert_eq!(v, "done", "{ctx}: task {} wrong value", r.id),
            other => panic!("{ctx}: task {} retired {:?}", r.id, other),
        }
    }
}

/// Deterministic replay, quantified: static sharding concentrates the
/// heavy tasks' steps on worker 0 (low worker-load Jain); a
/// redistribution schedule that fans the heavy tasks out — one per
/// worker — pushes the index near 1. The bounds are loose enough to be
/// robust and tight enough that a broken steal path cannot pass.
#[test]
fn redistribution_schedule_repairs_skewed_fuel_jain() {
    let static_run = replay(StealSchedule {
        workers: WORKERS,
        events: Vec::new(),
    });
    assert_manifest_complete("static", &static_run);
    let static_jain = worker_load_jain(&static_run);

    // Fresh steals (suspension = 0) moving heavy task 4·k to worker k.
    let events = (1..WORKERS)
        .map(|k| StealEvent {
            task: k * WORKERS,
            suspension: 0,
            from: 0,
            to: k,
        })
        .collect();
    let balanced_run = replay(StealSchedule {
        workers: WORKERS,
        events,
    });
    assert_manifest_complete("balanced", &balanced_run);
    let balanced_jain = worker_load_jain(&balanced_run);

    assert!(
        static_jain < 0.5,
        "skew did not skew: static worker-load Jain {static_jain:.4}"
    );
    assert!(
        balanced_jain > 0.9,
        "redistribution did not balance: Jain {balanced_jain:.4}"
    );
    assert!(
        balanced_jain > static_jain + 0.3,
        "redistribution won only {static_jain:.4} -> {balanced_jain:.4}"
    );
    // Same work either way: redistribution moves steps, never adds any.
    assert_eq!(
        static_run.metrics.total_steps, balanced_run.metrics.total_steps,
        "placement changed the amount of work executed"
    );
}

/// Mid-run migration balances too: a schedule that hops each heavy task
/// to its own worker *after it has already run two slices* must still
/// complete cleanly and beat static sharding on worker-load Jain.
#[test]
fn mid_run_migration_beats_static_sharding() {
    let static_jain = {
        let run = replay(StealSchedule {
            workers: WORKERS,
            events: Vec::new(),
        });
        worker_load_jain(&run)
    };
    let events = (1..WORKERS)
        .map(|k| StealEvent {
            task: k * WORKERS,
            suspension: 2,
            from: 0,
            to: k,
        })
        .collect();
    let migrated = replay(StealSchedule {
        workers: WORKERS,
        events,
    });
    assert_manifest_complete("migrated", &migrated);
    assert_eq!(
        migrated.metrics.total_migrations,
        (WORKERS - 1) as u64,
        "every heavy task should hop exactly once"
    );
    let migrated_jain = worker_load_jain(&migrated);
    assert!(
        migrated_jain > static_jain,
        "migration did not improve balance: {static_jain:.4} vs {migrated_jain:.4}"
    );
}

/// The real multithreaded stealing pool under the same saturated
/// victim: every task completes (no starvation), the manifest is exact,
/// and idle workers actually took work off the victim.
#[test]
fn saturated_victim_tasks_all_complete_under_stealing() {
    let config = PoolConfig {
        workers: WORKERS,
        sched: SchedConfig {
            slice: 2_000,
            check_invariants: true,
            ..Default::default()
        },
        engine: Default::default(),
        steal: Some(StealConfig {
            migrate: true,
            record: true,
            replay: None,
            kill_workers: Vec::new(),
        }),
    };
    let report = run_pool(&config, &skewed_spec());
    assert_manifest_complete("stealing", &report);
    assert!(
        report.metrics.total_steals > 0,
        "a saturated victim with idle peers must get stolen from"
    );
    // The recorded schedule is itself a valid, parseable artifact.
    let schedule = report.schedule.expect("recording was on");
    let round = StealSchedule::parse(&schedule.to_text()).expect("schedule round-trips");
    assert_eq!(round, schedule);
}

/// The static (non-stealing) pool under the same skew still completes —
/// slower, but the oracle keeps holding with stealing disabled.
#[test]
fn static_pool_still_completes_skewed_load() {
    let config = PoolConfig {
        workers: WORKERS,
        sched: SchedConfig {
            slice: 2_000,
            ..Default::default()
        },
        engine: Default::default(),
        steal: None,
    };
    let report = run_pool(&config, &skewed_spec());
    assert_manifest_complete("static-pool", &report);
    assert_eq!(report.metrics.total_steals, 0);
    assert_eq!(report.metrics.total_migrations, 0);
}
