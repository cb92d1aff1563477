//! Emits `BENCH_snapshot.json`: the durable-snapshot codec's cost
//! profile, measured on a live suspended engine rather than synthetic
//! buffers.
//!
//! Three throughput rows — `snapshot` (encode a suspended run + its
//! reachable heap graph to bytes), `restore-vm` (decode + relocate into
//! a fresh machine), and `restore-verified` (the full engine-level
//! restore, which also re-verifies every restored code object through
//! `cm-analysis`) — plus a fleet table: the durable footprint of parking
//! 1k and 10k engines as snapshot bytes, the way the supervised
//! scheduler's checkpoints do. Every timed snapshot is also resumed once
//! and checked against the uninterrupted answer, so the numbers can't
//! quietly describe a codec that corrupts state. Byte counts are
//! deterministic and sit under `"counters"`; a fleet row times each
//! engine's spawn, run to its cut and snapshot as one sample.
//!
//! ```text
//! snapshot_bench [OUT.json]    # default: BENCH_snapshot.json
//! ```

use std::time::Instant;

use cm_bench::{counters, num, time_runs, write_json, Timing};
use cm_core::EngineConfig;
use cm_engines::{Engine, RunResult, WorkerHost};
use cm_trace::json::Json;
use cm_vm::{Machine, Value};

/// The checkpointed workload: a mark-annotated accumulator loop that
/// keeps a few thousand pairs and a growing vector live, so snapshots
/// carry a real heap graph (codes, closures, pairs, vectors, marks),
/// not just a stack.
const SETUP: &str = "
(define (build n acc)
  (with-continuation-mark 'depth n
    (if (zero? n)
        acc
        (build (- n 1) (cons n acc)))))
(define (spin n acc)
  (if (zero? n)
      (length acc)
      (spin (- n 1) (cons (car acc) acc))))
";
const RUN: &str = "(spin 200000 (build 4000 '()))";

/// Slices to run before the measured suspension: deep enough that the
/// accumulator list exists and the loop is mid-flight.
const WARM_SLICES: u64 = 40_000;

/// A throughput row: the timing of one codec operation on a snapshot of
/// `bytes` bytes, and the rate its median implies.
fn throughput(name: &str, bytes: usize, t: Timing, work: Option<Json>) -> Json {
    let mb_per_s = (bytes as f64 / (1024.0 * 1024.0)) / (t.median / 1000.0);
    let mut row = vec![
        ("name".into(), Json::str(name)),
        ("ms".into(), t.json()),
        ("mb-per-s".into(), num(mb_per_s)),
    ];
    row.extend(work.map(|w| ("counters".into(), w)));
    Json::Obj(row)
}

/// Runs an engine to completion and returns the displayed value.
fn finish(mut engine: Engine) -> Value {
    loop {
        match engine.run(u64::MAX) {
            RunResult::Done(v, _) => return v,
            RunResult::Suspended(e, _) => engine = e,
            RunResult::Failed(e, _) => panic!("benchmark workload failed: {e}"),
        }
    }
}

fn suspended_engine(host: &mut WorkerHost) -> Engine {
    let engine = host.spawn(RUN).unwrap_or_else(|e| panic!("compile: {e}"));
    match engine.run(WARM_SLICES) {
        RunResult::Suspended(e, _) => e,
        other => panic!(
            "workload finished inside the warmup slice; raise RUN's iteration count ({})",
            match other {
                RunResult::Done(v, _) => format!("done: {}", v.display_string()),
                RunResult::Failed(e, _) => format!("failed: {e}"),
                RunResult::Suspended(..) => unreachable!(),
            }
        ),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_snapshot.json".to_owned());
    let runs = 9;

    let mut host = WorkerHost::new(EngineConfig::default());
    host.load(SETUP).unwrap_or_else(|e| panic!("setup: {e}"));

    // Ground truth: the uninterrupted answer every restored engine must
    // reproduce.
    let baseline =
        finish(host.spawn(RUN).unwrap_or_else(|e| panic!("compile: {e}"))).display_string();

    let mut engine = suspended_engine(&mut host);
    let bytes = engine
        .snapshot()
        .unwrap_or_else(|e| panic!("snapshot: {e}"));
    let snapshot_bytes = bytes.len();

    // Correctness gate: the snapshot this file describes must actually
    // resume to the uninterrupted answer.
    let restored = Engine::restore(&bytes).unwrap_or_else(|e| panic!("restore: {e}"));
    assert_eq!(
        finish(restored).display_string(),
        baseline,
        "restored engine diverged from the uninterrupted run"
    );

    let snap = time_runs(runs, || {
        std::hint::black_box(
            engine
                .snapshot()
                .unwrap_or_else(|e| panic!("snapshot: {e}")),
        );
    });
    let restore_vm = time_runs(runs, || {
        std::hint::black_box(
            Machine::restore_snapshot(&bytes).unwrap_or_else(|e| panic!("vm restore: {e}")),
        );
    });
    let restore_verified = time_runs(runs, || {
        std::hint::black_box(
            Engine::restore(&bytes).unwrap_or_else(|e| panic!("engine restore: {e}")),
        );
    });

    // Fleet footprint: park N engines (same program, staggered cut
    // points, shared host globals) as durable bytes — the supervised
    // scheduler's steady state with checkpointing on.
    let mut fleet = Vec::new();
    for fleet_n in [1_000usize, 10_000] {
        let mut samples = Vec::with_capacity(fleet_n);
        let mut total_bytes: u64 = 0;
        let mut min_bytes = u64::MAX;
        let mut max_bytes = 0u64;
        for k in 0..fleet_n {
            let started = Instant::now();
            let engine = host.spawn(RUN).unwrap_or_else(|e| panic!("compile: {e}"));
            // Stagger the cuts so the parked fleet spans many machine
            // states instead of measuring one state N times.
            let mut engine = match engine.run(WARM_SLICES + (k as u64 % 64) * 512) {
                RunResult::Suspended(e, _) => e,
                _ => panic!("fleet engine finished before its cut"),
            };
            let b = engine
                .snapshot()
                .unwrap_or_else(|e| panic!("fleet snapshot: {e}"));
            samples.push(started.elapsed().as_secs_f64() * 1000.0);
            let n = b.len() as u64;
            total_bytes += n;
            min_bytes = min_bytes.min(n);
            max_bytes = max_bytes.max(n);
        }
        let per_engine = total_bytes / fleet_n as u64;
        let t = Timing::of(&samples);
        fleet.push(Json::Obj(vec![
            ("name".into(), Json::str(format!("fleet-{fleet_n}"))),
            ("engines".into(), Json::num(fleet_n as u64)),
            ("ms-per-engine".into(), t.json()),
            (
                "counters".into(),
                counters(&[
                    ("total-bytes", total_bytes),
                    ("bytes-per-engine", per_engine),
                    ("min-bytes", min_bytes),
                    ("max-bytes", max_bytes),
                ]),
            ),
        ]));
        println!(
            "fleet {fleet_n}: {per_engine} bytes/engine ({total_bytes} total, {:.2} ms/engine)",
            t.median
        );
    }

    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-snapshot-v2")),
        (
            "workload".into(),
            Json::str("mark-annotated accumulator loop, 4k-pair live list"),
        ),
        (
            "workloads".into(),
            Json::Arr(vec![
                throughput(
                    "snapshot",
                    snapshot_bytes,
                    snap,
                    Some(counters(&[("bytes", snapshot_bytes as u64)])),
                ),
                throughput("restore-vm", snapshot_bytes, restore_vm, None),
                throughput("restore-verified", snapshot_bytes, restore_verified, None),
            ]),
        ),
        ("fleet".into(), Json::Arr(fleet)),
    ]);
    write_json(&out_path, &doc);
    println!(
        "wrote {out_path} ({snapshot_bytes} bytes/snapshot, snapshot {:.2} ms, restore {:.2} ms)",
        snap.median, restore_verified.median
    );
}
