//! The exact-counter gate: compares every `"counters"` object of a
//! committed `BENCH_*.json` with a freshly published one. Rows match by
//! name; timings and every other field are ignored, since wall time is
//! reported, never gated.
//!
//! ```text
//! bench_check COMMITTED.json FRESH.json
//! ```
//!
//! Exit 0 when every counter agrees, 1 on any difference, 2 on a usage,
//! I/O or parse error.

use std::process::ExitCode;

use cm_trace::json::{self, Json};

fn load(path: &str) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&src).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = args.as_slice() else {
        eprintln!("usage: bench_check COMMITTED.json FRESH.json");
        return ExitCode::from(2);
    };
    let (want, got) = match (load(committed), load(fresh)) {
        (Ok(w), Ok(g)) => (w, g),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_check: {e}");
            return ExitCode::from(2);
        }
    };
    let diffs = cm_bench::counter_diffs(&want, &got);
    if diffs.is_empty() {
        println!("ok: every counter in {fresh} matches {committed}");
        return ExitCode::SUCCESS;
    }
    for d in &diffs {
        println!("MISMATCH {d}");
    }
    println!("{} counter difference(s) against {committed}", diffs.len());
    ExitCode::FAILURE
}
