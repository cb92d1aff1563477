//! Emits `BENCH_dispatch.json`: what the interpreter loop costs per
//! instruction on four classic shapes (non-tail recursion, a tail loop,
//! a tail `with-continuation-mark` loop and an allocating loop), on the
//! `full` configuration.
//!
//! Each row carries the exact step count of one call under `"counters"`
//! (deterministic, so `bench_check` compares it exactly), the
//! instructions per iteration, and the wall time per instruction as a
//! median with its quartiles over several rounds. A geomean of the
//! medians closes the file. Wall time is reported, never gated.
//!
//! ```text
//! dispatch_bench [OUT.json]                      # default: BENCH_dispatch.json
//! dispatch_bench --parent-bin BIN [OUT.json]     # add a parent column measured by BIN
//! dispatch_bench --round                         # one round, as one JSON line
//! ```
//!
//! `--parent-bin` names this binary built from another commit. Its rounds
//! alternate with this binary's own, each side going first every other
//! round, so a drift in the machine's speed lands on both columns. The
//! parent's step count is a plain field, not a `"counters"` object: the
//! gate checks this build's work only.

use std::process::{Command, ExitCode};
use std::time::Instant;

use cm_bench::{counters, geomean, num, write_json, Timing};
use cm_core::{Engine, EngineConfig};
use cm_trace::json::{self, Json};
use cm_vm::Value;

/// One measured program shape.
struct Shape {
    name: &'static str,
    source: &'static str,
    entry: &'static str,
    n: i64,
    /// Loop iterations (procedure calls, for `fib`) of `(entry n)`.
    iterations: fn(i64) -> u64,
    /// `write` form of `(entry n)`'s result.
    expected: &'static str,
}

fn fib_calls(n: i64) -> u64 {
    // C(n) = 1 + C(n-1) + C(n-2), C(0) = C(1) = 1.
    let (mut a, mut b) = (1u64, 1u64);
    for _ in 1..n {
        (a, b) = (b, 1 + a + b);
    }
    b
}

const SHAPES: [Shape; 4] = [
    Shape {
        name: "fib",
        source: "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
        entry: "fib",
        n: 25,
        iterations: fib_calls,
        expected: "75025",
    },
    Shape {
        name: "tail-loop",
        source: "(define (count-down i acc) (if (zero? i) acc (count-down (- i 1) (+ acc 1))))
                 (define (tail-loop n) (count-down n 0))",
        entry: "tail-loop",
        n: 400_000,
        iterations: |n| n as u64,
        expected: "400000",
    },
    Shape {
        name: "wcm-loop",
        source: "(define (wcm-down i)
                   (if (zero? i)
                       (continuation-mark-set-first #f 'k 0)
                       (with-continuation-mark 'k i (wcm-down (- i 1)))))
                 (define (wcm-loop n) (wcm-down n))",
        entry: "wcm-loop",
        n: 200_000,
        iterations: |n| n as u64,
        expected: "1",
    },
    Shape {
        name: "cons-loop",
        source: "(define (build i acc) (if (zero? i) acc (build (- i 1) (cons i acc))))
                 (define (cons-loop n) (car (build n '())))",
        entry: "cons-loop",
        n: 300_000,
        iterations: |n| n as u64,
        expected: "1",
    },
];

/// Measurement rounds; each calls every shape once.
const ROUNDS: usize = 11;

fn engine_for(shape: &Shape) -> Engine {
    let mut engine = Engine::new(EngineConfig::full());
    engine
        .eval(shape.source)
        .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
    engine
}

/// Calls `(entry n)` once, checks the result, and returns its exact step
/// count and wall time in nanoseconds.
fn call(engine: &mut Engine, shape: &Shape) -> (u64, f64) {
    let before = engine.stats().steps_executed;
    let start = Instant::now();
    let v = engine
        .call_global(shape.entry, vec![Value::fixnum(shape.n)])
        .unwrap_or_else(|e| panic!("{}: {e}", shape.name));
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        v.write_string(),
        shape.expected,
        "{}: wrong result",
        shape.name
    );
    (engine.stats().steps_executed - before, ns)
}

/// One round: for each shape, in a fresh engine, a warm-up call and a
/// timed one. Returns each shape's exact steps and ns per instruction.
fn round() -> Vec<(u64, f64)> {
    SHAPES
        .iter()
        .map(|shape| {
            let mut engine = engine_for(shape);
            let (steps, _) = call(&mut engine, shape);
            let (again, ns) = call(&mut engine, shape);
            assert_eq!(
                again, steps,
                "{}: step count is not deterministic",
                shape.name
            );
            (steps, ns / steps as f64)
        })
        .collect()
}

fn round_json(r: &[(u64, f64)]) -> Json {
    Json::Arr(
        r.iter()
            .map(|&(steps, ns)| Json::Arr(vec![Json::num(steps), Json::Num(ns)]))
            .collect(),
    )
}

/// Runs `bin --round` and parses the round it prints.
fn foreign_round(bin: &str) -> Vec<(u64, f64)> {
    let out = Command::new(bin)
        .arg("--round")
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(out.status.success(), "{bin} --round failed");
    let doc = json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .unwrap_or_else(|e| panic!("{bin} --round: {e}"));
    let pairs = doc.as_arr().unwrap_or_default();
    assert_eq!(
        pairs.len(),
        SHAPES.len(),
        "{bin} --round: wrong shape count"
    );
    pairs
        .iter()
        .map(|p| match p.as_arr() {
            Some([steps, Json::Num(ns)]) => (steps.as_u64().unwrap_or(0), *ns),
            _ => panic!("{bin} --round: malformed pair"),
        })
        .collect()
}

/// Shape `k`'s column over `rounds`: its steps (the same in every round)
/// and its ns per instruction.
fn column(rounds: &[Vec<(u64, f64)>], k: usize) -> (u64, Timing) {
    let steps = rounds[0][k].0;
    assert!(
        rounds.iter().all(|r| r[k].0 == steps),
        "{}: step count differs between rounds",
        SHAPES[k].name
    );
    let ns: Vec<f64> = rounds.iter().map(|r| r[k].1).collect();
    (steps, Timing::of(&ns))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (parent_bin, out_path) = match args.as_slice() {
        [flag] if flag == "--round" => {
            println!("{}", round_json(&round()).to_string_compact());
            return ExitCode::SUCCESS;
        }
        [flag, bin, rest @ ..] if flag == "--parent-bin" && rest.len() <= 1 => {
            (Some(bin.as_str()), rest.first())
        }
        [] => (None, None),
        [out] if !out.starts_with("--") => (None, Some(out)),
        _ => {
            eprintln!("usage: dispatch_bench [--parent-bin BIN] [OUT.json] | --round");
            return ExitCode::from(2);
        }
    };
    let out_path = out_path.map_or("BENCH_dispatch.json", String::as_str);

    let (mut own, mut parent) = (Vec::new(), Vec::new());
    for i in 0..ROUNDS {
        match parent_bin {
            Some(bin) if i % 2 == 1 => {
                parent.push(foreign_round(bin));
                own.push(round());
            }
            Some(bin) => {
                own.push(round());
                parent.push(foreign_round(bin));
            }
            None => own.push(round()),
        }
    }

    let (mut rows, mut medians, mut parent_medians) = (Vec::new(), Vec::new(), Vec::new());
    for (k, shape) in SHAPES.iter().enumerate() {
        let (steps, ns) = column(&own, k);
        let median = ns.median;
        let iterations = (shape.iterations)(shape.n);
        let per_iter = steps as f64 / iterations as f64;
        let mut row = vec![
            ("name".into(), Json::str(shape.name)),
            ("n".into(), Json::num(shape.n as u64)),
            ("iterations".into(), Json::num(iterations)),
            ("instrs_per_iter".into(), num(per_iter)),
            ("ns_per_instr".into(), ns.json()),
            ("counters".into(), counters(&[("steps", steps)])),
        ];
        print!(
            "{:10} {steps:>9} steps {per_iter:6.2} instr/iter {median:6.2} ns/instr",
            shape.name
        );
        if !parent.is_empty() {
            let (psteps, pns) = column(&parent, k);
            let pmedian = pns.median;
            row.push((
                "parent".into(),
                Json::Obj(vec![
                    ("steps".into(), Json::num(psteps)),
                    ("ns_per_instr".into(), pns.json()),
                ]),
            ));
            row.push(("speedup".into(), num(pmedian / median)));
            print!("  parent {pmedian:6.2} ns/instr (x{:.2})", pmedian / median);
            parent_medians.push(pmedian);
        }
        println!();
        medians.push(median);
        rows.push(Json::Obj(row));
    }
    let change = geomean(&medians);
    let mut geo = vec![("change".into(), num(change))];
    print!("geomean {change:.2} ns/instr");
    if !parent_medians.is_empty() {
        let p = geomean(&parent_medians);
        geo.push(("parent".into(), num(p)));
        geo.push(("speedup".into(), num(p / change)));
        print!("  parent {p:.2} (x{:.2})", p / change);
    }
    println!();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-dispatch-v2")),
        ("config".into(), Json::str("full")),
        ("rounds".into(), Json::num(ROUNDS as u64)),
        ("workloads".into(), Json::Arr(rows)),
        ("geomean_ns_per_instr".into(), Json::Obj(geo)),
    ]);
    write_json(out_path, &doc);
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}
