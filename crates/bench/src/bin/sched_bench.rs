//! Emits `BENCH_sched.json`: the work-stealing serving tier measured
//! against static `id % workers` sharding.
//!
//! Both columns run the same per-worker scheduler with the same bounded
//! admission (32 live engines per worker); the only difference is that
//! the static column never moves work. So the gap between them is what
//! stealing and migration buy, not a difference in how many engines are
//! live at once.
//!
//! Two experiments, both correctness-gated (a row is only published
//! when every task completed with its pinned checksum and the
//! completion manifest is exact):
//!
//! * **Fleet scaling** — 1k / 10k / 100k engines running the libseff
//!   workload shapes (producer/consumer pipes, handler-chain sweeps,
//!   request storms, state/generator/nondeterminism stress) through the
//!   pool, static vs stealing: throughput, latency p50/p95/p99, Jain
//!   fairness over per-task steps and per-worker executed load, steal
//!   and migration counts.
//! * **Skewed fuel** — the adversarial load for static sharding: every
//!   heavy task lands on worker 0 (ids ≡ 0 mod workers) and outweighs
//!   the light tasks ~300×. Work stealing must beat static sharding on
//!   wall-clock here — the binary asserts it, so a regressed steal path
//!   fails the benchmark instead of publishing a bad number.
//!
//! Each side's `"latency-ms"` is the median turnaround with its
//! quartiles over every task of the run. Steal and migration counts
//! depend on thread timing, so this file has no `"counters"` for
//! `bench_check` to gate.
//!
//! ```text
//! sched_bench [--quick] [OUT.json]    # default: BENCH_sched.json
//! ```

use cm_bench::{num, write_json, Timing};
use cm_engines::{
    jain_index, run_pool, JobSpec, Outcome, PoolConfig, PoolReport, PoolSpec, SchedConfig,
    StealConfig,
};
use cm_torture::torture_targets;
use cm_trace::json::Json;

const WORKERS: usize = 4;
const SLICE: u64 = 5_000;

fn pool_config(steal: bool) -> PoolConfig {
    PoolConfig {
        workers: WORKERS,
        sched: SchedConfig {
            slice: SLICE,
            ..Default::default()
        },
        engine: cm_core::EngineConfig::full(),
        steal: steal.then(|| StealConfig {
            migrate: true,
            ..Default::default()
        }),
    }
}

/// The libseff-shape fleet: the effects workload group cycled out to
/// `tasks` engines, every one carrying its pinned checksum.
fn fleet_spec(tasks: usize) -> PoolSpec {
    let targets: Vec<_> = torture_targets(true)
        .into_iter()
        .filter(|t| t.name.starts_with("effects/"))
        .collect();
    assert!(
        targets.len() >= 8,
        "libseff shape corpus shrank: {} targets",
        targets.len()
    );
    let mut setups = Vec::new();
    for t in &targets {
        if !t.setup.is_empty() && !setups.contains(&t.setup) {
            setups.push(t.setup.clone());
        }
    }
    let jobs = (0..tasks)
        .map(|i| {
            let t = &targets[i % targets.len()];
            JobSpec {
                name: format!("{}#{}", t.name, i / targets.len()),
                run: t.run.clone(),
                expected: t.expected.clone(),
            }
        })
        .collect();
    PoolSpec {
        setups,
        jobs,
        verify: true,
    }
}

/// The adversarial skew: ids ≡ 0 mod WORKERS spin ~300× longer, so the
/// static shard puts all of them on worker 0.
fn skew_spec(tasks: usize) -> PoolSpec {
    let setup = "(define (spin n) (if (zero? n) 'done (spin (- n 1))))".to_string();
    let jobs = (0..tasks)
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

/// The correctness gate: every task retired exactly once, completed,
/// checksum-verified, no panics. A benchmark row exists only past this.
fn gate(ctx: &str, report: &PoolReport, tasks: usize) {
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
        "{ctx}: completion manifest has lost or duplicated tasks"
    );
    assert!(
        report
            .all_reports()
            .iter()
            .all(|r| matches!(r.outcome, Outcome::Completed(_))),
        "{ctx}: not every task completed"
    );
}

struct Row {
    wall_ms: f64,
    tasks_per_sec: f64,
    latency_ms: Timing,
    p95_ms: f64,
    p99_ms: f64,
    jain_task: f64,
    jain_worker_load: f64,
    steals: u64,
    migrations: u64,
}

fn measure(ctx: &str, spec: &PoolSpec, steal: bool) -> Row {
    let report = run_pool(&pool_config(steal), spec);
    gate(ctx, &report, spec.jobs.len());
    let m = &report.metrics;
    let turnaround: Vec<f64> = report
        .all_reports()
        .iter()
        .map(|r| r.turnaround.as_secs_f64() * 1e3)
        .collect();
    Row {
        wall_ms: m.wall.as_secs_f64() * 1e3,
        tasks_per_sec: m.tasks_per_sec,
        latency_ms: Timing::of(&turnaround),
        p95_ms: m.latency_p95.as_secs_f64() * 1e3,
        p99_ms: m.latency_p99.as_secs_f64() * 1e3,
        jain_task: m.fairness_jain,
        jain_worker_load: jain_index(report.workers.iter().map(|w| w.steps_executed as f64)),
        steals: m.total_steals,
        migrations: m.total_migrations,
    }
}

fn row_json(r: &Row) -> Json {
    Json::Obj(vec![
        ("wall-ms".into(), num(r.wall_ms)),
        ("tasks-per-sec".into(), num(r.tasks_per_sec.round())),
        ("latency-ms".into(), r.latency_ms.json()),
        ("p95-ms".into(), num(r.p95_ms)),
        ("p99-ms".into(), num(r.p99_ms)),
        ("jain-task".into(), num(r.jain_task)),
        ("jain-worker-load".into(), num(r.jain_worker_load)),
        ("steals".into(), Json::num(r.steals)),
        ("migrations".into(), Json::num(r.migrations)),
    ])
}

/// A row comparing the two columns on `tasks` tasks.
fn pair(name: &str, tasks: usize, stat: &Row, steal: &Row) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::str(name)),
        ("tasks".into(), Json::num(tasks as u64)),
        ("static".into(), row_json(stat)),
        ("stealing".into(), row_json(steal)),
    ]
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_sched.json".to_owned();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => out_path = other.to_owned(),
        }
    }
    let fleets: &[usize] = if quick {
        &[200, 1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let skew_tasks = if quick { 64 } else { 256 };

    let mut rows = Vec::new();
    for &tasks in fleets {
        let spec = fleet_spec(tasks);
        let stat = measure(&format!("fleet-{tasks}-static"), &spec, false);
        let steal = measure(&format!("fleet-{tasks}-stealing"), &spec, true);
        println!(
            "fleet {tasks:>6}: static {:>9.1} ms ({:>6.0} tasks/s, p99 {:>8.2} ms) | \
             stealing {:>9.1} ms ({:>6.0} tasks/s, p99 {:>8.2} ms, {} steals, {} migrations)",
            stat.wall_ms,
            stat.tasks_per_sec,
            stat.p99_ms,
            steal.wall_ms,
            steal.tasks_per_sec,
            steal.p99_ms,
            steal.steals,
            steal.migrations
        );
        rows.push(Json::Obj(pair(
            &format!("fleet-{tasks}"),
            tasks,
            &stat,
            &steal,
        )));
    }

    // The adversarial skew — the headline comparison. The assert makes
    // the benchmark a regression test: stealing must win here.
    let spec = skew_spec(skew_tasks);
    let stat = measure("skew-static", &spec, false);
    let steal = measure("skew-stealing", &spec, true);
    let speedup = stat.wall_ms / steal.wall_ms;
    println!(
        "skew  {skew_tasks:>6}: static {:>9.1} ms (load Jain {:.4}) | \
         stealing {:>9.1} ms (load Jain {:.4}) — speedup ×{speedup:.2}",
        stat.wall_ms, stat.jain_worker_load, steal.wall_ms, steal.jain_worker_load
    );
    assert!(
        speedup > 1.0,
        "work stealing lost to static sharding on its own adversarial load: \
         static {:.1} ms vs stealing {:.1} ms",
        stat.wall_ms,
        steal.wall_ms
    );
    assert!(
        steal.steals > 0,
        "the skewed run recorded no steals — the tier never engaged"
    );
    let mut skew = pair("skew", skew_tasks, &stat, &steal);
    skew.push(("speedup".into(), num(speedup)));
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-sched-v2")),
        ("workers".into(), Json::num(WORKERS as u64)),
        ("slice".into(), Json::num(SLICE)),
        ("quick".into(), Json::Bool(quick)),
        (
            "note".into(),
            Json::str(
                "static = stealing off; both columns admit at most 32 live engines per worker",
            ),
        ),
        ("fleets".into(), Json::Arr(rows)),
        ("skew".into(), Json::Obj(skew)),
    ]);
    write_json(&out_path, &doc);
    println!("wrote {out_path} (skew speedup ×{speedup:.2})");
}
