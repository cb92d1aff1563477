//! Command-line contracts of the `tables` and `bench_check` binaries:
//! unknown input is a usage error (exit 2), and `bench_check` fails on a
//! changed work counter but not on a changed timing.

use std::path::PathBuf;
use std::process::{Command, Output};

use cm_trace::json::{self, Json};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables runs")
}

#[test]
fn tables_rejects_unknown_tables_and_flags() {
    for bad in [
        &["nosuch"][..],
        &["--full"],
        &["--quick", "ctak", "--bogus"],
    ] {
        let out = tables(bad);
        assert_eq!(out.status.code(), Some(2), "tables {bad:?}");
        assert!(out.stdout.is_empty(), "tables {bad:?} ran something");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tables"));
    }
}

#[test]
fn tables_lists_and_runs_trace_overhead() {
    let list = tables(&["--list"]);
    assert_eq!(list.status.code(), Some(0));
    let names = String::from_utf8_lossy(&list.stdout);
    assert!(names.lines().any(|l| l == "trace-overhead"), "{names}");

    let out = tables(&["--quick", "trace-overhead"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    for row in ["off", "4k-ring", "64-ring"] {
        assert!(
            text.lines().any(|l| l.starts_with(row)),
            "no `{row}` row in:\n{text}"
        );
    }
}

/// Replaces the first value under `key` (depth first) with `f` of it.
fn edit_first(v: &mut Json, key: &str, f: &dyn Fn(f64) -> f64) -> bool {
    match v {
        Json::Obj(pairs) => pairs.iter_mut().any(|(k, child)| match child {
            Json::Num(n) if k.as_str() == key => {
                *n = f(*n);
                true
            }
            _ => edit_first(child, key, f),
        }),
        Json::Arr(items) => items.iter_mut().any(|item| edit_first(item, key, f)),
        _ => false,
    }
}

fn bench_check(committed: &PathBuf, fresh: &PathBuf) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bench_check"))
        .arg(committed)
        .arg(fresh)
        .output()
        .expect("bench_check runs")
        .status
        .code()
}

#[test]
fn bench_check_gates_counters_not_timings() {
    let committed = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_dispatch.json");
    let doc = json::parse(&std::fs::read_to_string(&committed).expect("committed file"))
        .expect("committed file parses");
    let copy = |name: &str, key: &str, f: &dyn Fn(f64) -> f64| {
        let mut edited = doc.clone();
        assert!(edit_first(&mut edited, key, f), "no `{key}` to edit");
        let path =
            std::env::temp_dir().join(format!("bench-check-{name}-{}.json", std::process::id()));
        std::fs::write(&path, edited.to_string_pretty()).expect("temp file writable");
        path
    };

    assert_eq!(bench_check(&committed, &committed), Some(0));

    let slower = copy("timing", "median", &|x| x * 2.0 + 1.0);
    assert_eq!(
        bench_check(&committed, &slower),
        Some(0),
        "a timing is not gated"
    );

    let more_steps = copy("counter", "steps", &|x| x + 1.0);
    assert_eq!(
        bench_check(&committed, &more_steps),
        Some(1),
        "a counter is gated"
    );

    let missing = std::env::temp_dir().join("bench-check-no-such-file.json");
    assert_eq!(bench_check(&committed, &missing), Some(2));

    let _ = std::fs::remove_file(slower);
    let _ = std::fs::remove_file(more_steps);
}
