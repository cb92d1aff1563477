//! Regenerates every table and figure of the paper's evaluation (§8)
//! with measured numbers, printing the paper's reported ratios alongside
//! for comparison.
//!
//! Usage:
//!
//! ```text
//! tables [--quick] [table ...]
//! tables --list
//! ```
//!
//! Tables: `ctak`, `triple`, `modified-chez`, `gabriel`, `attachments`,
//! `marks`, `contract`, `apps`, `ablations`, `trace-overhead`. Default
//! runs all at the standard scale; `--quick` runs a fast smoke-scale
//! pass. An unknown table name or flag is a usage error (exit 2).

use std::process::ExitCode;
use std::time::Instant;

use cm_bench::{fmt_ratio, measure, paper, time_runs, Timing};
use cm_core::{Engine, EngineConfig};
use cm_workloads as wl;

#[derive(Clone, Copy)]
struct Scale {
    /// Divide each workload's bench_n by this.
    divisor: i64,
    /// Timed runs per measurement.
    runs: usize,
}

fn engine(kind: &str) -> Engine {
    match kind {
        "chez" => cm_baseline::chez_engine(),
        "racket-cs" => cm_baseline::racket_cs_engine(),
        "imitate" => cm_baseline::imitation_engine(),
        "old-racket" => cm_baseline::old_racket_engine(),
        "unmod" => cm_baseline::unmodified_chez_engine(),
        "no-1cc" => Engine::new(EngineConfig::no_one_shot()),
        "no-opt" => Engine::new(EngineConfig::no_attachment_opt()),
        "no-prim" => Engine::new(EngineConfig::no_prim_opt()),
        other => panic!("unknown engine kind {other}"),
    }
}

fn scaled(w: &wl::Workload, s: Scale) -> i64 {
    (w.bench_n / s.divisor).max(1)
}

fn run_one(kind: &str, w: &wl::Workload, s: Scale) -> Timing {
    let mut e = engine(kind);
    measure(&mut e, w, scaled(w, s), s.runs)
}

fn header(title: &str) {
    println!();
    println!("== {title} ==");
}

// ----------------------------------------------------------------------
// T-8.1: ctak across implementation strategies
// ----------------------------------------------------------------------

fn table_ctak(s: Scale) {
    header("T-8.1  ctak across implementation strategies");
    let w = &wl::ctak()[0];
    let size = if s.divisor > 1 { 0 } else { 1 };

    // Heap-allocated frames (the reference model) ≈ Pycket's strategy.
    let mut interp = cm_refmodel::RefInterp::new();
    interp.eval(w.source).expect("ctak loads in refmodel");
    let call = format!("(ctak-bench {size})");
    let mut rows = vec![(
        "heap frames (refmodel ≈ Pycket)",
        time_runs(s.runs, || {
            interp.eval(&call).expect("ctak runs in refmodel");
        }),
    )];
    for (label, kind) in [
        ("segmented stack (≈ Chez Scheme)", "chez"),
        ("wrapped control (≈ Racket CS)", "racket-cs"),
        ("eager mark stack (≈ old Racket)", "old-racket"),
    ] {
        rows.push((label, measure(&mut engine(kind), w, size, s.runs)));
    }
    let chez = rows[1].1;
    println!("{:34} {:>24}  {:>9}", "strategy", "measured", "vs chez");
    for (label, t) in &rows {
        println!(
            "{label:34} {:>24}  {:>9}",
            t.to_string(),
            fmt_ratio(chez.speedup_of(t))
        );
    }
    println!("paper (ms): {:?}", paper::CTAK);
}

// ----------------------------------------------------------------------
// F-1: triple across encodings and engines
// ----------------------------------------------------------------------

fn table_triple(s: Scale) {
    header("F-1  triple: delimited control, three encodings");
    println!(
        "{:16} {:>24} {:>24} {:>24}",
        "encoding", "chez", "racket-cs", "old-racket"
    );
    for w in wl::triple() {
        let mut cells = Vec::new();
        for kind in ["chez", "racket-cs", "old-racket"] {
            cells.push(run_one(kind, w, s));
        }
        println!(
            "{:16} {:>24} {:>24} {:>24}",
            w.name,
            cells[0].to_string(),
            cells[1].to_string(),
            cells[2].to_string()
        );
    }
    println!("paper (ms): {:?}", paper::TRIPLE);
}

// ----------------------------------------------------------------------
// T-8.2 / F-2: unmod vs attach vs all-mods
// ----------------------------------------------------------------------

/// One row per workload: the unmodified engine's timing, then attach
/// and all-mods as ratios to it.
fn modifications<'a>(first: &str, ws: impl Iterator<Item = &'a wl::Workload>, s: Scale) {
    println!(
        "{first:16} {:>24} {:>9} {:>9}",
        "unmod", "attach", "all mods"
    );
    for w in ws {
        let unmod = run_one("unmod", w, s);
        let attach = run_one("chez", w, s);
        let allmods = run_one("racket-cs", w, s);
        println!(
            "{:16} {:>24} {:>9} {:>9}",
            w.name,
            unmod.to_string(),
            fmt_ratio(unmod.speedup_of(&attach)),
            fmt_ratio(unmod.speedup_of(&allmods))
        );
    }
}

fn table_modified_chez(s: Scale) {
    header("T-8.2  cost of the modifications (triple)");
    let ws = wl::triple().iter().filter(|w| w.name != "triple-native");
    modifications("encoding", ws, s);
    println!("paper: {:?}", paper::MODIFIED_CHEZ);
}

fn table_gabriel(s: Scale) {
    header("F-2  traditional Scheme benchmarks (attach should be ~×1.00)");
    modifications("benchmark", wl::gabriel().iter(), s);
    println!("paper figure 2: attach within one stdev of unmod on 22/38 suites; shown rows within ×0.94–×1.05");
}

// ----------------------------------------------------------------------
// F-4, F-5, T-8.4: one engine against another, next to the paper's ratio
// ----------------------------------------------------------------------

/// One row per workload: engines `a` and `b`, how many times slower `b`
/// is, and the paper's ratio for the same row.
fn versus(first: &str, [a, b]: [&str; 2], ws: &[wl::Workload], paper: &[f64], s: Scale) {
    println!("{first:20} {a:>24} {b:>24} {:>9} {:>9}", "ratio", "paper");
    for (w, paper_ratio) in ws.iter().zip(paper) {
        let ta = run_one(a, w, s);
        let tb = run_one(b, w, s);
        println!(
            "{:20} {:>24} {:>24} {:>9} {:>9}",
            w.name,
            ta.to_string(),
            tb.to_string(),
            fmt_ratio(ta.speedup_of(&tb)),
            fmt_ratio(*paper_ratio)
        );
    }
}

fn table_attachments(s: Scale) {
    header("F-4  continuation attachments: builtin (chez) vs figure-3 imitation");
    let paper: Vec<f64> = paper::ATTACHMENTS.iter().map(|r| r.2).collect();
    versus(
        "benchmark",
        ["chez", "imitate"],
        wl::attachment_micros(),
        &paper,
        s,
    );
}

fn table_marks(s: Scale) {
    header("F-5  continuation marks: Racket CS vs old Racket model");
    let paper: Vec<f64> = paper::MARKS.iter().map(|r| r.2).collect();
    versus(
        "benchmark",
        ["racket-cs", "old-racket"],
        wl::mark_micros(),
        &paper,
        s,
    );
}

fn table_contract(s: Scale) {
    header("T-8.4a  contract checking: builtin (racket-cs) vs imitate");
    let paper: Vec<f64> = paper::CONTRACT.iter().map(|r| r.2).collect();
    versus("mode", ["racket-cs", "imitate"], wl::contract(), &paper, s);
}

fn table_apps(s: Scale) {
    header("T-8.4b  applications: builtin (racket-cs) vs imitate");
    let paper: Vec<f64> = paper::APPLICATIONS.iter().map(|r| r.2).collect();
    versus(
        "application",
        ["racket-cs", "imitate"],
        wl::applications(),
        &paper,
        s,
    );
}

// ----------------------------------------------------------------------
// F-6: ablations
// ----------------------------------------------------------------------

/// Prints `label`'s full Racket CS timing and each ablation's ratio to
/// it, followed by the paper's ratio where the paper has one.
fn ablation_row(label: &str, w: &wl::Workload, paper: Option<[f64; 3]>, s: Scale) {
    let full = run_one("racket-cs", w, s);
    print!("{label:20} {:>24}", full.to_string());
    for (i, kind) in ["no-1cc", "no-opt", "no-prim"].into_iter().enumerate() {
        let ratio = fmt_ratio(full.speedup_of(&run_one(kind, w, s)));
        match paper {
            Some(p) => print!(" {ratio:>7} ({:>5})", fmt_ratio(p[i])),
            None => print!(" {ratio:>16}"),
        }
    }
    println!();
}

fn table_ablations(s: Scale) {
    header("F-6  ablations (ratios vs full Racket CS; paper in parens)");
    println!(
        "{:20} {:>24} {:>16} {:>16} {:>16}",
        "benchmark", "racket-cs", "no 1cc", "no opt", "no prim"
    );
    // The paper's figure 6 covers the mark benchmarks that involve
    // set/get operations plus base-deep.
    for w in wl::mark_micros() {
        let paper = paper::ABLATIONS_MARKS.iter().find(|r| r.0 == w.name);
        if let Some(&(_, a, b, c)) = paper {
            ablation_row(w.name, w, Some([a, b, c]), s);
        }
    }
    for (w, &(_, a, b, c)) in wl::contract().iter().zip(paper::ABLATIONS_CONTRACT) {
        ablation_row(&format!("contract-{}", w.name), w, Some([a, b, c]), s);
    }
    for w in wl::applications() {
        ablation_row(w.name, w, None, s);
    }
}

// ----------------------------------------------------------------------
// Journal overhead: trace off vs a bounded ring vs a tiny ring
// ----------------------------------------------------------------------

fn table_trace_overhead(s: Scale) {
    header("trace-overhead  journal cost on the mark loops (ratio vs trace off)");
    let ws: Vec<&wl::Workload> = wl::mark_micros()
        .iter()
        .filter(|w| matches!(w.name, "set-loop" | "first-some-loop" | "set-arg-call-loop"))
        .collect();
    print!("{:10}", "trace");
    for w in &ws {
        print!(" {:>32}", w.name);
    }
    println!();
    // Off is the state every other table runs in; a 4k ring evicts in
    // steady state, a 64-entry ring on nearly every event.
    let mut off = Vec::new();
    for (label, trace, capacity) in [
        ("off", false, 0),
        ("4k-ring", true, 4096),
        ("64-ring", true, 64),
    ] {
        print!("{label:10}");
        for (i, w) in ws.iter().enumerate() {
            let mut config = EngineConfig::full();
            config.machine.trace = trace;
            config.machine.trace_capacity = capacity;
            let t = measure(&mut Engine::new(config), w, scaled(w, s), s.runs);
            if !trace {
                off.push(t);
            }
            print!(
                " {:>24} {:>7}",
                t.to_string(),
                fmt_ratio(off[i].speedup_of(&t))
            );
        }
        println!();
    }
}

type Table = (&'static str, fn(Scale));

const ALL_TABLES: &[Table] = &[
    ("ctak", table_ctak),
    ("triple", table_triple),
    ("modified-chez", table_modified_chez),
    ("gabriel", table_gabriel),
    ("attachments", table_attachments),
    ("marks", table_marks),
    ("contract", table_contract),
    ("apps", table_apps),
    ("ablations", table_ablations),
    ("trace-overhead", table_trace_overhead),
];

fn main() -> ExitCode {
    let (mut quick, mut list, mut selected) = (false, false, Vec::new());
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--list" => list = true,
            name if ALL_TABLES.iter().any(|(t, _)| *t == name) => selected.push(name.to_owned()),
            _ => {
                eprintln!(
                    "tables: unknown table or flag `{arg}` (`tables --list` names the tables)"
                );
                eprintln!("usage: tables [--quick] [TABLE ...] | tables --list");
                return ExitCode::from(2);
            }
        }
    }
    if list {
        for (name, _) in ALL_TABLES {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let scale = if quick {
        Scale {
            divisor: 10,
            runs: 2,
        }
    } else {
        Scale {
            divisor: 1,
            runs: 5,
        }
    };
    let start = Instant::now();
    for (name, f) in ALL_TABLES {
        if selected.is_empty() || selected.iter().any(|s| s == name) {
            f(scale);
        }
    }
    println!();
    println!(
        "total: {:.1} s  (scale: 1/{}, {} runs)",
        start.elapsed().as_secs_f64(),
        scale.divisor,
        scale.runs
    );
    ExitCode::SUCCESS
}
