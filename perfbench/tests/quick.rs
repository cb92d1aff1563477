//! The benchmark's own tests: a quick mode of every workload, the metric
//! tables against `BENCHMARK.json`, and the correctness gates.

use cm_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use cm_perfbench::rng::Rng;
use cm_perfbench::tracer::{LayerTotals, Tracer};
use cm_perfbench::{cold, measure, paper, run, serve, Options, WORKLOADS};
use cm_trace::Json;

fn quick(workload: &str, trace: bool) -> Outcome {
    let mut opts = Options::new(workload);
    opts.quick = true;
    opts.seconds = 0.3;
    opts.trace = trace;
    run(&opts).expect("known workload")
}

fn assert_metrics(out: &Outcome, table: &[(&str, &str)], ctx: &str) {
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "{ctx}: metric names");
    let json = out.to_json();
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        panic!("{ctx}: no metrics object");
    };
    for ((name, m), (_, unit)) in metrics.iter().zip(table) {
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{ctx}: {name}"
        );
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{ctx}: {name} has no finite value"
        );
    }
}

/// The workloads `BENCHMARK.json` publishes.
fn published() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    cm_trace::json::parse(&text).expect("BENCHMARK.json parses")
}

fn published_workloads() -> Vec<String> {
    published()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = published();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let rows = doc.get(key).and_then(Json::as_arr).expect(key);
        let got: Vec<(&str, &str)> = rows
            .iter()
            .map(|r| {
                (
                    r.get("name").and_then(Json::as_str).expect("name"),
                    r.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect();
        assert_eq!(got, table, "{key}");
    }
    for w in published_workloads() {
        assert!(WORKLOADS.contains(&w.as_str()), "{w} is not a workload");
    }
}

#[test]
fn every_published_workload_reports_every_end_to_end_metric() {
    for w in published_workloads() {
        let out = quick(&w, false);
        assert!(out.correct(), "{w}: {:?}", out.errors);
        assert!(out.attempted >= 1, "{w}");
        assert_metrics(&out, END_TO_END, &w);
        assert_eq!(out.metric("success_rate"), Some(1.0), "{w}");
        assert!(out.metric("throughput_ops_s").unwrap() > 0.0, "{w}");
        assert!(out.metric("setup_s").unwrap() > 0.0, "{w}");
    }
}

#[test]
fn every_published_workload_reports_every_per_layer_metric() {
    for w in published_workloads() {
        let out = quick(&w, true);
        assert!(out.correct(), "{w}: {:?}", out.errors);
        assert_metrics(&out, PER_LAYER, &w);
        assert!(out.metric("vm.steps").unwrap() > 0.0, "{w}");
    }
    // Layers load where the table says they do.
    let steal = quick("serve-steal", true);
    assert!(steal.metric("engines.restore_us").unwrap() > 0.0);
    assert!(steal.metric("analysis.verify_us").unwrap() > 0.0);
    assert!(steal.metric("engines.snapshot_us").unwrap() > 0.0);
    let checkpoint = quick("serve-checkpoint", true);
    assert!(checkpoint.metric("engines.checkpoints").unwrap() > 0.0);
    let corpus = quick("cold-corpus", true);
    assert!(corpus.metric("compiler.compile_us").unwrap() > 0.0);
    assert_eq!(corpus.metric("engines.slice_us"), Some(0.0));
}

/// `cold` stays runnable while its oracle finds the engine defect the
/// README describes: every metric is there, and every failure is a
/// disagreement with the reference interpreter, not a crash.
#[test]
fn cold_reports_every_metric_and_only_oracle_mismatches() {
    for trace in [false, true] {
        let out = quick("cold", trace);
        assert_metrics(&out, if trace { PER_LAYER } else { END_TO_END }, "cold");
        for e in &out.errors {
            assert!(e.contains(", expected "), "cold: {e}");
        }
    }
}

#[test]
fn paper_gate_counts_a_wrong_expected_value_as_an_error() {
    let mut programs = paper::parse_expected(paper::EXPECTED).expect("oracle file parses");
    let mut prep = paper::setup(&programs, &mut Tracer::off(), &mut LayerTotals::default())
        .expect("corpus loads and warms up");
    programs[0].expected.push_str("-wrong");
    let err = prep
        .call(&programs[0])
        .expect_err("a wrong oracle is a failed op");
    assert!(err.contains("expected"), "{err}");
    // A whole run with the wrong value fails and publishes no metrics.
    let mut opts = Options::new("paper");
    opts.quick = true;
    opts.seconds = 0.2;
    let out = paper::run(&opts, &programs);
    assert!(!out.correct());
    assert!(out.failed >= 1);
    assert!(out.metrics.is_empty());
}

#[test]
fn cold_corpus_gate_counts_a_wrong_expected_value_as_an_error() {
    let programs = cold::corpus_programs();
    let mut s = cold::corpus_script(&programs, 7, 3);
    cold::op(&s, &mut Tracer::off(), &mut LayerTotals::default()).expect("pinned checksum");
    s.expected.push_str("-wrong");
    assert!(cold::op(&s, &mut Tracer::off(), &mut LayerTotals::default()).is_err());
}

#[test]
fn serve_fleet_puts_heavy_kinds_on_two_thirds_of_shard_zero() {
    let c = serve::corpus();
    let b = serve::batch(&c, &mut Rng::new(3), 3000);
    let heavy: Vec<bool> = b
        .spec
        .jobs
        .iter()
        .map(|j| {
            c.heavy
                .iter()
                .any(|k| j.name.starts_with(&format!("{}#", k.name)))
        })
        .collect();
    let shard0: Vec<bool> = heavy.iter().step_by(serve::WORKERS).copied().collect();
    assert!(heavy.iter().skip(1).step_by(serve::WORKERS).all(|h| !h));
    // The last two thirds of shard 0 are heavy, the first third light.
    let light = shard0.len() - shard0.len() * 2 / 3;
    assert!(shard0[..light].iter().all(|h| !h));
    assert!(shard0[light..].iter().all(|h| *h));
}

#[test]
fn serve_gate_counts_wrong_results_and_manifest_gaps() {
    let c = serve::corpus();
    let b = serve::batch(&c, &mut Rng::new(5), 12);
    let config = cm_engines::PoolConfig {
        workers: serve::WORKERS,
        ..Default::default()
    };
    let report = cm_engines::run_pool(&config, &b.spec);
    let mut out = Outcome::default();
    serve::gate(
        &report,
        &b.expected,
        &mut out,
        &mut measure::Timed::default(),
    );
    assert_eq!((out.attempted, out.failed), (12, 0), "{:?}", out.errors);

    // A wrong expected value, and a task the pool never reported.
    let mut expected = b.expected.clone();
    expected[4].push_str("-wrong");
    expected.push("13th".into());
    let mut out = Outcome::default();
    serve::gate(&report, &expected, &mut out, &mut measure::Timed::default());
    assert_eq!((out.attempted, out.failed), (13, 2), "{:?}", out.errors);
}

#[test]
fn generated_scripts_are_deterministic_distinct_and_in_the_model_language() {
    let a = cold::script(11, 5).expect("model runs it");
    let b = cold::script(11, 5).expect("model runs it");
    assert_eq!(a.engine_src, b.engine_src);
    let mut seen = std::collections::HashSet::new();
    for id in 0..40 {
        let s = cold::script(11, id).expect("model runs it");
        assert!(seen.insert(s.engine_src), "script {id} repeats a source");
    }
    let programs = cold::corpus_programs();
    let c1 = cold::corpus_script(&programs, 11, 1);
    let c2 = cold::corpus_script(&programs, 11, 2);
    assert_ne!(c1.engine_src, c2.engine_src);
}

#[test]
fn oracle_file_covers_the_corpus_groups() {
    let programs = paper::parse_expected(paper::EXPECTED).expect("oracle file parses");
    for (group, _) in cm_workloads::all_groups() {
        assert!(
            programs
                .iter()
                .any(|p| p.name.starts_with(&format!("{group}/"))),
            "no {group} program in the oracle file"
        );
    }
    assert!(paper::parse_expected("gabriel/fib\tnot-a-number\t1\n").is_err());
    assert!(paper::parse_expected("no-such/program\t1\t1\n").is_err());
}
