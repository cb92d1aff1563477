//! Emits `BENCH_effects.json`: the effects workload group (the libseff
//! benchmark shapes — producer/consumer pipes, handler-chain depth
//! sweeps, request storms — plus the canonical-handler stress shapes)
//! timed under the two continuation-capture strategies the paper's §6
//! compares:
//!
//! * **shared-segments** (`full` config): capture freezes the live
//!   segment with an O(1) move and *shares* the frozen segments with
//!   the machine's own chain. Each resume then copies the top segment
//!   (multi-shot safety), so `copies ≈ captures` and `fusions` stays 0
//!   on this group: no resume is copy-free yet.
//! * **reify-and-copy** (`no-1cc` config, one-shot fusion disabled):
//!   capture takes a private copy of every segment up to the prompt,
//!   and each application copies again — the eager cost model a
//!   segment-sharing-free implementation pays on every `perform`.
//!
//! Both sides run the same compiled programs against the pinned
//! workload checksums first, so a timing row is only published for runs
//! that computed the right answer. Capture-path machine counters
//! (captures, fusions, copies over the warm-up and timed runs) ride
//! along per side under `"counters"`, making the *why* of each ratio
//! auditable: the shared side shows `copies ≈ captures` (the resume's
//! top-segment copy), the eager side shows `copies ≈ 3 × captures`, and
//! the gap widens with capture depth — the `deep` workload performs from
//! under a 1800-frame tower to make per-capture segment volume dominate
//! the interpreter's dispatch overhead.
//!
//! ```text
//! effects_bench [OUT.json]    # default: BENCH_effects.json
//! ```

use cm_bench::{counters, geomean, num, time_runs, write_json};
use cm_core::{Engine, EngineConfig};
use cm_trace::json::Json;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_effects.json".to_owned());
    let runs = 5;
    let group = cm_workloads::effects();
    assert!(
        group.len() >= 4,
        "need at least 4 libseff workload shapes, found {}",
        group.len()
    );

    let sides = [
        ("shared-segments", EngineConfig::full()),
        ("reify-and-copy", EngineConfig::no_one_shot()),
    ];
    let mut engines: Vec<Engine> = sides
        .iter()
        .map(|(side, config)| {
            let mut e = Engine::new(config.clone());
            e.eval(group[0].source)
                .unwrap_or_else(|err| panic!("[{side}] load: {err}"));
            e
        })
        .collect();

    let (mut rows, mut ratios) = (Vec::new(), Vec::new());
    for w in group {
        let check = format!("({} {})", w.entry, w.small_n);
        let call = format!("({} {})", w.entry, w.bench_n);
        let expected = w
            .expected
            .unwrap_or_else(|| panic!("{}: no pinned answer", w.name));

        let mut row = vec![
            ("name".into(), Json::str(w.name)),
            ("n".into(), Json::num(w.bench_n as u64)),
        ];
        let mut medians = Vec::new();
        for ((side, _), engine) in sides.iter().zip(engines.iter_mut()) {
            // Correctness first: a fast wrong answer is not a result.
            let got = engine
                .eval_to_string(&check)
                .unwrap_or_else(|err| panic!("[{side}] {}: {err}", w.name));
            assert_eq!(
                got, expected,
                "[{side}] {} computes the wrong answer",
                w.name
            );

            let before = engine.stats();
            let t = time_runs(runs, || {
                engine
                    .eval(&call)
                    .unwrap_or_else(|err| panic!("[{side}] {}: {err}", w.name));
            });
            let after = engine.stats();
            let work = counters(&[
                ("captures", after.captures - before.captures),
                ("fusions", after.fusions - before.fusions),
                ("copies", after.copies - before.copies),
            ]);
            let side_obj = Json::Obj(vec![("ms".into(), t.json()), ("counters".into(), work)]);
            row.push(((*side).into(), side_obj));
            medians.push(t.median);
        }

        let ratio = medians[1] / medians[0];
        ratios.push(ratio);
        row.push(("copy-over-shared".into(), num(ratio)));
        rows.push(Json::Obj(row));
        println!(
            "{:10} shared {:8.3} ms, copy {:8.3} ms, ratio ×{ratio:.2}",
            w.name, medians[0], medians[1]
        );
    }
    let geomean = geomean(&ratios);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-effects-v2")),
        ("group".into(), Json::str("effects")),
        (
            "sides".into(),
            Json::Arr(sides.iter().map(|(side, _)| Json::str(*side)).collect()),
        ),
        ("workloads".into(), Json::Arr(rows)),
        ("geomean-copy-over-shared".into(), num(geomean)),
    ]);
    write_json(&out_path, &doc);
    println!("wrote {out_path} (geomean copy/shared ×{geomean:.2})");
}
