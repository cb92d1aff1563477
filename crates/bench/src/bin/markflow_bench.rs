//! Emits `BENCH_markflow.json`: the full system (config 7) vs the
//! interprocedural mark-flow optimizer (config 8) on the mark-heavy
//! workload group, with wall-clock timings *and* the machine's exact
//! event counters (reifications, attachment pushes/pops) — the
//! counters, not the timings, are the optimizer's proof of work, so
//! the file is meaningful on any machine.
//!
//! ```text
//! markflow_bench [OUT.json]    # default: BENCH_markflow.json
//! ```

use cm_bench::{counters, measure, write_json};
use cm_core::{Engine, EngineConfig};
use cm_trace::json::Json;
use cm_vm::MachineStats;
use cm_workloads::{load_into, markflow_micros, run_scaled, Workload};

/// One config's side of a row: the event counters of a single counted
/// run at `n`, then the timing on a fresh engine.
fn side(config: EngineConfig, w: &Workload, n: i64, runs: usize) -> (Json, MachineStats) {
    let mut engine = Engine::new(config.clone());
    load_into(&mut engine, w);
    engine.reset_stats();
    run_scaled(&mut engine, w, n).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let stats = engine.stats();
    let t = measure(&mut Engine::new(config), w, n, runs);
    let json = Json::Obj(vec![
        ("ms".into(), t.json()),
        (
            "counters".into(),
            counters(&[
                ("reifications", stats.reifications),
                ("attachments-pushed", stats.attachments_pushed),
                ("attachments-popped", stats.attachments_popped),
            ]),
        ),
    ]);
    (json, stats)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_markflow.json".to_owned());
    let runs = 5;
    let mut rows = Vec::new();
    for w in markflow_micros() {
        let n = (w.bench_n / 10).max(1);
        let (full_json, full) = side(EngineConfig::full(), w, n, runs);
        let (mf_json, mf) = side(EngineConfig::mark_flow(), w, n, runs);
        // Sanity: the optimizer must show up in the counters, or the
        // published file is advertising a no-op.
        assert!(
            mf.reifications < full.reifications || mf.attachments_pushed < full.attachments_pushed,
            "{}: mark-flow elided nothing (full: {} reifications / {} pushes, \
             mark-flow: {} / {})",
            w.name,
            full.reifications,
            full.attachments_pushed,
            mf.reifications,
            mf.attachments_pushed
        );
        rows.push(Json::Obj(vec![
            ("name".into(), Json::str(w.name)),
            ("n".into(), Json::num(n as u64)),
            ("full".into(), full_json),
            ("mark-flow".into(), mf_json),
        ]));
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-markflow-v2")),
        ("group".into(), Json::str("markflow-micros")),
        (
            "configs".into(),
            Json::Arr(vec![Json::str("full"), Json::str("mark-flow")]),
        ),
        ("workloads".into(), Json::Arr(rows)),
    ]);
    write_json(&out_path, &doc);
    println!("wrote {out_path}");
}
