//! Migration correctness for the work-stealing serving tier: an engine
//! that hops workers through the snapshot codec — at any recorded cut
//! point, to any victim, on every one of the eight engine
//! configurations — must retire with exactly the result of an
//! uninterrupted run.
//!
//! Three layers of evidence:
//!
//! * a property test over random steal schedules (random tasks ×
//!   strictly increasing suspension cuts × random destinations),
//!   replayed deterministically with verification on,
//! * forced-schedule tests that pin migrations *inside* the delicate
//!   machine states — mid-`dynamic-wind`, mid-effect-handler, and
//!   mid-`await` on the async runtime,
//! * a record/replay equivalence test: a real multithreaded stealing
//!   run records its schedule, and the virtual-tick driver replaying
//!   that schedule through the same per-worker schedulers produces the
//!   same per-task step counts and outcomes.

use cm_engines::{
    run_pool, JobSpec, Outcome, PoolConfig, PoolSpec, SchedConfig, StealConfig, StealEvent,
    StealSchedule,
};
use cm_torture::{engine_configs, torture_targets, Target};
use proptest::prelude::*;

/// Builds a pool spec from named torture-corpus targets, `copies` tasks
/// per target, verified against each target's published checksum.
fn spec_of(names: &[&str], copies: usize) -> PoolSpec {
    let targets = torture_targets(true);
    let mut setups = Vec::new();
    let mut jobs = Vec::new();
    for c in 0..copies {
        for name in names {
            let t: &Target = targets
                .iter()
                .find(|t| t.name == *name)
                .unwrap_or_else(|| panic!("{name} missing from the torture corpus"));
            if !t.setup.is_empty() && !setups.contains(&t.setup) {
                setups.push(t.setup.clone());
            }
            jobs.push(JobSpec {
                name: format!("{}#{c}", t.name),
                run: t.run.clone(),
                expected: t.expected.clone(),
            });
        }
    }
    PoolSpec {
        setups,
        jobs,
        verify: true,
    }
}

fn replay_config(
    engine: cm_core::EngineConfig,
    workers: usize,
    slice: u64,
    schedule: StealSchedule,
) -> PoolConfig {
    PoolConfig {
        workers,
        sched: SchedConfig {
            slice,
            check_invariants: true,
            ..Default::default()
        },
        engine,
        steal: Some(StealConfig {
            migrate: true,
            record: false,
            replay: Some(schedule),
            kill_workers: Vec::new(),
        }),
    }
}

/// Every task retired exactly once, completed, with no mismatches.
fn assert_clean_exactly_once(ctx: &str, report: &cm_engines::PoolReport, tasks: usize) {
    assert!(
        report.is_clean(),
        "{ctx}: failures={} timeouts={} mismatches={:?}",
        report.metrics.failed,
        report.metrics.timed_out,
        report.all_mismatches(),
    );
    let mut ids: Vec<usize> = report.all_reports().iter().map(|r| r.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..tasks).collect::<Vec<_>>(),
        "{ctx}: tasks lost or duplicated"
    );
    for r in report.all_reports() {
        assert!(
            matches!(r.outcome, Outcome::Completed(_)),
            "{ctx}: task {} ({}) retired {:?}",
            r.id,
            r.name,
            r.outcome
        );
    }
}

/// A random schedule against a fixed 8-task corpus: for each chosen
/// task, strictly increasing suspension cut points with random
/// destination workers (`from` is informational; replay routes by key).
fn arb_schedule(workers: usize, tasks: usize) -> impl Strategy<Value = StealSchedule> {
    prop::collection::vec((0..tasks, 1u64..6, 0..workers), 0..10).prop_map(move |raw| {
        let mut events = Vec::new();
        let mut last_cut: Vec<u64> = vec![0; tasks];
        for (task, step, to) in raw {
            // Strictly increasing cuts per task keep each key unique,
            // so every event is one genuine snapshot migration. `from`
            // is informational (replay routes by key alone); the
            // initial `id % workers` placement seeds it.
            last_cut[task] += step;
            events.push(StealEvent {
                task,
                suspension: last_cut[task],
                from: task % workers,
                to,
            });
        }
        StealSchedule { workers, events }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any recorded steal schedule — random cut points, random victims —
    /// replays clean on all eight engine configurations: every task
    /// produces the uninterrupted result no matter how many times it
    /// hops workers through the snapshot codec mid-run.
    #[test]
    fn random_schedules_replay_bit_identical_on_all_configs(
        schedule in arb_schedule(3, 8),
        slice in 60u64..400,
    ) {
        let spec = spec_of(
            &["sec2-deep", "sec2-nested", "sec2-callcc", "gabriel/fib"],
            2,
        );
        for (name, config) in engine_configs() {
            let config = replay_config(config, 3, slice, schedule.clone());
            let report = run_pool(&config, &spec);
            assert_clean_exactly_once(name, &report, spec.jobs.len());
        }
    }

    /// Schedule text round-trips through parse for arbitrary contents.
    #[test]
    fn schedule_text_parses_back(schedule in arb_schedule(5, 100)) {
        let parsed = StealSchedule::parse(&schedule.to_text()).expect("well-formed text");
        prop_assert_eq!(parsed, schedule);
    }
}

/// Forces a migration after each of the first `cuts` suspensions of
/// every task in `names`, with a slice small enough that those cuts land
/// inside the interesting machine state, and checks the replay is clean
/// and actually migrated.
fn forced_migration_sweep(ctx: &str, names: &[&str], slice: u64, cuts: u64) {
    let spec = spec_of(names, 1);
    let workers = 3;
    let mut events = Vec::new();
    for task in 0..spec.jobs.len() {
        for k in 1..=cuts {
            events.push(StealEvent {
                task,
                suspension: k,
                from: (task + (k as usize) - 1) % workers,
                to: (task + k as usize) % workers,
            });
        }
    }
    let schedule = StealSchedule { workers, events };
    for (name, config) in engine_configs() {
        let config = replay_config(config, workers, slice, schedule.clone());
        let report = run_pool(&config, &spec);
        let label = format!("{ctx}/{name}");
        assert_clean_exactly_once(&label, &report, spec.jobs.len());
        assert!(
            report.metrics.total_migrations > 0,
            "{label}: schedule forced no migrations — slices too large?"
        );
    }
}

/// Migration with `dynamic-wind` winders live on the continuation: the
/// restored engine must still run the post thunks (and the logged order
/// must match the uninterrupted run — the checksum folds it in).
#[test]
fn migrates_mid_dynamic_wind_on_all_configs() {
    // sec2-callcc exercises capture; the attach workloads run call/cc +
    // dynamic-wind-adjacent attachment paths under deep recursion.
    forced_migration_sweep(
        "mid-wind",
        &["attach/base-callcc-deep", "sec2-callcc", "sec2-deep"],
        80,
        4,
    );
}

/// Migration with an effect handler's prompt on the stack: `chain`
/// forwards through a handler stack, `state` round-trips capture/resume
/// on every operation — a cut at any suspension lands mid-handler.
#[test]
fn migrates_mid_effect_handler_on_all_configs() {
    forced_migration_sweep("mid-handler", &["effects/chain", "effects/state"], 150, 4);
}

/// Migration with parked async tasks and pending awaits in the image:
/// `pipes` blocks tasks on bounded channels, `storm` parks them on the
/// virtual clock — a cut at any suspension lands mid-await.
#[test]
fn migrates_mid_await_on_all_configs() {
    forced_migration_sweep("mid-await", &["effects/pipes", "effects/storm"], 150, 4);
}

/// The multithreaded stealing pool records its schedule; the
/// virtual-tick driver replaying that schedule — stepping the same
/// `Scheduler` on one thread — retires every task with the same step
/// count and outcome: the recorded schedule really is a complete account
/// of every placement decision.
#[test]
fn recorded_schedule_replays_with_identical_per_task_work() {
    let spec = spec_of(
        &["sec2-deep", "sec2-nested", "gabriel/fib", "effects/state"],
        3,
    );
    let (_, engine) = engine_configs().into_iter().next().expect("configs");
    let recorded = PoolConfig {
        workers: 4,
        sched: SchedConfig {
            slice: 200,
            check_invariants: true,
            ..Default::default()
        },
        engine: engine.clone(),
        steal: Some(StealConfig {
            migrate: true,
            record: true,
            replay: None,
            kill_workers: Vec::new(),
        }),
    };
    let live = run_pool(&recorded, &spec);
    assert_clean_exactly_once("live", &live, spec.jobs.len());
    let schedule = live.schedule.clone().expect("recording was on");

    let replayed = run_pool(&replay_config(engine, 4, 200, schedule), &spec);
    assert_clean_exactly_once("replay", &replayed, spec.jobs.len());

    let key = |report: &cm_engines::PoolReport| {
        let mut rows: Vec<(usize, String, u64, u64)> = report
            .all_reports()
            .iter()
            .map(|r| (r.id, r.name.clone(), r.steps, r.slices))
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(
        key(&live),
        key(&replayed),
        "replay diverged from the recorded run's per-task work"
    );
    assert_eq!(
        live.metrics.total_migrations, replayed.metrics.total_migrations,
        "replay lost or invented migrations"
    );
}

/// Replaying the same schedule twice is bit-for-bit deterministic, and
/// the migration counters in `SchedMetrics` agree with the schedule.
#[test]
fn replay_is_deterministic_and_counts_migrations() {
    let spec = spec_of(&["sec2-deep", "effects/gen"], 2);
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
                task: 2,
                suspension: 2,
                from: 0,
                to: 1,
            },
        ],
    };
    let (_, engine) = engine_configs().into_iter().next().expect("configs");
    let run = || {
        let config = replay_config(engine.clone(), 2, 100, schedule.clone());
        run_pool(&config, &spec)
    };
    let a = run();
    let b = run();
    assert_clean_exactly_once("first", &a, spec.jobs.len());
    assert_eq!(a.metrics.total_migrations, 2);
    let key = |report: &cm_engines::PoolReport| {
        let mut rows: Vec<(usize, u64, u64, u32, u32)> = report
            .all_reports()
            .iter()
            .map(|r| (r.id, r.steps, r.slices, r.migrations, r.steals))
            .collect();
        rows.sort_unstable();
        rows
    };
    assert_eq!(key(&a), key(&b), "two replays of one schedule diverged");
}
