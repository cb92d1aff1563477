//! Measurement harness shared by the `tables` binary and every
//! `*_bench` binary that publishes a `BENCH_*.json` file.
//!
//! * One timer: [`time_runs`] makes one warm-up call and then N timed
//!   ones, summarized as a [`Timing`] (the median with its nearest-rank
//!   quartiles). [`measure`] applies it to a workload entry.
//! * One JSON emitter: every file is a `cm_trace::json::Json` value
//!   written by [`write_json`]. A row carries its wall time as a
//!   [`Timing::json`] object under a key named for the unit (`"ms"`,
//!   `"ns_per_instr"`) and its deterministic work under `"counters"`.
//! * One exact-counter gate: [`counter_diffs`] compares every
//!   `"counters"` object of two such files and ignores everything else;
//!   the `bench_check` binary exits 1 when it finds a difference.
//!
//! The `tables` binary prints each table and figure of §8 with measured
//! numbers next to the paper's reported shape.

use std::time::Instant;

use cm_core::Engine;
use cm_trace::json::Json;
use cm_workloads::{load_into, run_scaled, Workload};

pub mod paper;

/// The median of a set of samples with its nearest-rank quartiles, in
/// the samples' own unit. The median, not the mean, so that one
/// descheduled run cannot swing a published ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The middle sample (nearest rank).
    pub median: f64,
    /// The first quartile (nearest rank).
    pub p25: f64,
    /// The third quartile (nearest rank).
    pub p75: f64,
}

impl Timing {
    /// Summarizes `samples`, which may come in any order.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Timing {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Timing {
            median: quantile(&sorted, 0.5),
            p25: quantile(&sorted, 0.25),
            p75: quantile(&sorted, 0.75),
        }
    }

    /// Ratio of `other`'s median to this one's (how many times slower
    /// `other` is).
    pub fn speedup_of(&self, other: &Timing) -> f64 {
        if self.median == 0.0 {
            f64::NAN
        } else {
            other.median / self.median
        }
    }

    /// The `{median, p25, p75}` object every `BENCH_*.json` row uses.
    pub fn json(&self) -> Json {
        Json::Obj(vec![
            ("median".into(), num(self.median)),
            ("p25".into(), num(self.p25)),
            ("p75".into(), num(self.p75)),
        ])
    }
}

impl std::fmt::Display for Timing {
    /// Milliseconds, with half the interquartile range as the spread.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:9.2} ms ±{:6.2}",
            self.median,
            (self.p75 - self.p25) / 2.0
        )
    }
}

/// Calls `f` once to warm up, then times `runs` further calls, in
/// milliseconds.
///
/// # Panics
///
/// Panics if `runs` is zero.
pub fn time_runs(runs: usize, mut f: impl FnMut()) -> Timing {
    f();
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    Timing::of(&samples)
}

/// The value at fraction `q` of `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// The geometric mean of `xs`.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Times `(entry n)` in `engine` with [`time_runs`].
///
/// # Panics
///
/// Panics if the workload fails to run — benchmark workloads are
/// validated by the test suite first.
pub fn measure(engine: &mut Engine, w: &Workload, n: i64, runs: usize) -> Timing {
    load_into(engine, w);
    time_runs(runs, || {
        run_scaled(engine, w, n).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    })
}

/// Formats a ratio like the paper's "×1.24" columns.
pub fn fmt_ratio(r: f64) -> String {
    if r.is_nan() {
        "  —  ".to_owned()
    } else {
        format!("×{r:.2}")
    }
}

/// A JSON number rounded to three decimals, which keeps the files
/// readable and their diffs small.
pub fn num(x: f64) -> Json {
    Json::Num((x * 1000.0).round() / 1000.0)
}

/// A `"counters"` object from `(name, count)` pairs.
pub fn counters(pairs: &[(&str, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), Json::num(v)))
            .collect(),
    )
}

/// Writes `doc` to `path`, pretty-printed.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_json(path: &str, doc: &Json) {
    std::fs::write(path, doc.to_string_pretty())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// Every count inside a `"counters"` object of `doc`, keyed by its
/// path. An array element contributes its `"name"` to the path (its
/// index if it has none), so rows match by name, not by position.
fn counts(doc: &Json) -> Vec<(String, &Json)> {
    fn walk<'a>(v: &'a Json, path: String, inside: bool, out: &mut Vec<(String, &'a Json)>) {
        match v {
            Json::Obj(pairs) => {
                for (k, child) in pairs {
                    let at = format!("{path}/{k}");
                    walk(child, at, inside || k == "counters", out);
                }
            }
            Json::Arr(items) => {
                for (i, item) in items.iter().enumerate() {
                    let at = match item.get("name").and_then(Json::as_str) {
                        Some(name) => format!("{path}[{name}]"),
                        None => format!("{path}[{i}]"),
                    };
                    walk(item, at, inside, out);
                }
            }
            _ if inside => out.push((path, v)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, String::new(), false, &mut out);
    out
}

/// Compares every count inside a `"counters"` object of `committed`
/// with `fresh`'s exactly, ignoring timings and every other field.
/// Returns one line per difference; empty means the work counters
/// agree. A committed document with no counters differs from anything.
pub fn counter_diffs(committed: &Json, fresh: &Json) -> Vec<String> {
    let (want, got) = (counts(committed), counts(fresh));
    if want.is_empty() {
        return vec!["the committed file has no counters".into()];
    }
    let mut diffs = Vec::new();
    for (path, v) in &want {
        match got.iter().find(|(p, _)| p == path) {
            Some((_, f)) if f == v => {}
            Some((_, f)) => diffs.push(format!(
                "{path}: {} committed, {} fresh",
                v.to_string_compact(),
                f.to_string_compact()
            )),
            None => diffs.push(format!("{path}: missing from the fresh file")),
        }
    }
    for (path, _) in &got {
        if !want.iter().any(|(p, _)| p == path) {
            diffs.push(format!("{path}: not in the committed file"));
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_core::EngineConfig;
    use cm_trace::json::parse;

    #[test]
    fn quartiles_are_nearest_rank_on_odd_counts() {
        let t = Timing::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((t.p25, t.median, t.p75), (2.0, 3.0, 4.0));
        let one = Timing::of(&[7.0]);
        assert_eq!((one.p25, one.median, one.p75), (7.0, 7.0, 7.0));
    }

    #[test]
    fn quartiles_are_nearest_rank_on_even_counts() {
        // Ranks (len-1)·q rounded: 0.75 → 1, 1.5 → 2, 2.25 → 2.
        let t = Timing::of(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!((t.p25, t.median, t.p75), (20.0, 30.0, 30.0));
        let t = Timing::of(&[6.0, 1.0, 5.0, 2.0, 4.0, 3.0]);
        assert_eq!((t.p25, t.median, t.p75), (2.0, 4.0, 5.0));
    }

    #[test]
    fn time_runs_excludes_the_warm_up_call() {
        let mut calls = 0;
        let slow_first = time_runs(3, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
        });
        assert_eq!(calls, 4, "one warm-up and three timed calls");
        assert!(
            slow_first.p75 < 100.0,
            "the slow warm-up leaked into the samples: {slow_first:?}"
        );
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_times_a_workload_and_ratio_works() {
        let w = &cm_workloads::gabriel()[0]; // tak
        let mut e = Engine::new(EngineConfig::full());
        let t = measure(&mut e, w, 1, 2);
        assert!(t.p25 >= 0.0 && t.p25 <= t.median && t.median <= t.p75);
        let slower = Timing::of(&[t.median * 2.0 + 1.0]);
        assert!(t.speedup_of(&slower) > 1.0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(1.239), "×1.24");
        assert_eq!(fmt_ratio(f64::NAN), "  —  ");
    }

    const DOC: &str = r#"{"workloads": [
        {"name": "a", "ms": {"median": 1.5, "p25": 1, "p75": 2},
         "fast": {"ms": {"median": 1, "p25": 1, "p75": 1}, "counters": {"steps": 10}},
         "counters": {"steps": 7, "copies": 3}},
        {"name": "b", "counters": {"steps": 9}}]}"#;

    fn edited(from: &str, to: &str) -> Json {
        assert!(DOC.contains(from));
        parse(&DOC.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn counter_diffs_ignore_timings_and_row_order() {
        let doc = parse(DOC).unwrap();
        assert!(counter_diffs(&doc, &doc).is_empty());
        assert!(counter_diffs(&doc, &edited("\"median\": 1.5", "\"median\": 9")).is_empty());
        let reordered = parse(
            r#"{"workloads": [{"name": "b", "counters": {"steps": 9}},
            {"name": "a", "fast": {"counters": {"steps": 10}},
             "counters": {"copies": 3, "steps": 7}}]}"#,
        )
        .unwrap();
        assert!(counter_diffs(&doc, &reordered).is_empty());
    }

    #[test]
    fn counter_diffs_catch_every_counter_change() {
        let doc = parse(DOC).unwrap();
        let d = counter_diffs(&doc, &edited("\"copies\": 3", "\"copies\": 4"));
        assert_eq!(d, ["/workloads[a]/counters/copies: 3 committed, 4 fresh"]);
        let d = counter_diffs(&doc, &edited("\"steps\": 10", "\"steps\": 11"));
        assert_eq!(
            d,
            ["/workloads[a]/fast/counters/steps: 10 committed, 11 fresh"]
        );
        let d = counter_diffs(&doc, &edited("\"name\": \"b\"", "\"name\": \"c\""));
        assert_eq!(
            d,
            [
                "/workloads[b]/counters/steps: missing from the fresh file",
                "/workloads[c]/counters/steps: not in the committed file"
            ]
        );
        let d = counter_diffs(&doc, &edited(", \"copies\": 3", ""));
        assert_eq!(
            d,
            ["/workloads[a]/counters/copies: missing from the fresh file"]
        );
        let none = parse(r#"{"workloads": []}"#).unwrap();
        assert_eq!(counter_diffs(&none, &none).len(), 1);
    }
}
