//! `paper`: the §8 corpus on one long-lived `full` engine.
//!
//! Why: the paper's claim is about run time of programs that use marks
//! (attachment and mark micros, ctak, triple, contract, the applications,
//! the effects shapes) and programs that do not (the Gabriel suite). A
//! seeded draw of the whole corpus, with each program's scale pinned so
//! one call takes about as long as any other, keeps dispatch, marks and
//! capture doing nearly all the work and gives a steady tail. Compile
//! runs only in set-up; `cm-engines` is idle.
//!
//! Oracle: `expected/paper.tsv`, generated once by `--gen-expected`
//! from runs where the `full`, `unmod` and `old-racket` configurations
//! agree (each in a fresh engine holding only that program's source).
//! The benchmark loads every source into one engine, so a helper clash
//! between sources shows up as a wrong result.

use std::time::{Duration, Instant};

use cm_core::{Engine, EngineConfig};
use cm_vm::Value;
use cm_workloads::Workload;

use crate::measure::{Setups, Timed};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::tracer::{
    call, code_instrs, push_per_layer, Layer, LayerTotals, Tracer, VmCounters, SETUP_OP,
};
use crate::Options;

/// The committed oracle: `group/name <TAB> scale <TAB> expected`.
pub const EXPECTED: &str = include_str!("../expected/paper.tsv");

/// Ops in the traced sample (run once untraced, once traced).
const TRACE_OPS: usize = 800;

/// Ops per alternation chunk of the traced sample.
const TRACE_CHUNK: usize = 20;

/// The time one call should take at its pinned scale.
const TARGET_CALL: Duration = Duration::from_millis(2);

/// One program of the corpus at its pinned scale.
#[derive(Debug, Clone)]
pub struct Program {
    /// `group/name`.
    pub name: String,
    /// The workload (source and entry).
    pub workload: &'static Workload,
    /// The pinned scale argument.
    pub scale: i64,
    /// The expected `write` form of the result.
    pub expected: String,
}

fn find(name: &str) -> Option<&'static Workload> {
    let (group, wname) = name.split_once('/')?;
    cm_workloads::all_groups()
        .into_iter()
        .find(|(g, _)| *g == group)?
        .1
        .iter()
        .find(|w| w.name == wname)
}

/// Parses the oracle file.
///
/// # Errors
///
/// A line that does not have three fields, names no workload, or has a
/// bad scale.
pub fn parse_expected(text: &str) -> Result<Vec<Program>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let mut f = line.splitn(3, '\t');
        let (Some(name), Some(scale), Some(expected)) = (f.next(), f.next(), f.next()) else {
            return Err(format!(
                "line {}: expected three tab-separated fields",
                i + 1
            ));
        };
        let workload = find(name).ok_or_else(|| format!("line {}: no workload {name}", i + 1))?;
        let scale = scale
            .parse()
            .map_err(|e| format!("line {}: bad scale {scale}: {e}", i + 1))?;
        out.push(Program {
            name: name.to_string(),
            workload,
            scale,
            expected: expected.to_string(),
        });
    }
    if out.is_empty() {
        return Err("no programs".into());
    }
    Ok(out)
}

/// The corpus engine: one `full` engine with every source loaded.
pub struct Prepared {
    engine: Engine,
}

/// Builds the engine, loads each distinct source once, and warms up
/// with one checked call of every program.
///
/// # Errors
///
/// A source that fails to load or a warm-up call with a wrong result.
pub fn setup(
    programs: &[Program],
    tr: &mut Tracer,
    totals: &mut LayerTotals,
) -> Result<Prepared, String> {
    let s = tr.begin(Layer::Core, call::ENGINE_NEW, SETUP_OP);
    let mut engine = Engine::new(EngineConfig::full());
    tr.end(s);
    let mut loaded: Vec<&str> = Vec::new();
    for p in programs {
        let src = p.workload.source;
        if loaded.contains(&src) {
            continue;
        }
        loaded.push(src);
        if tr.enabled() {
            let s = tr.begin(Layer::Sexpr, call::PARSE, SETUP_OP);
            let datums = cm_sexpr::parse_str(src).map_err(|e| format!("{}: {e}", p.name))?;
            tr.end(s);
            totals.datums += datums.len() as u64;
        }
        let s = tr.begin(Layer::Compiler, call::COMPILE, SETUP_OP);
        let code = engine
            .compile_only(src)
            .map_err(|e| format!("{}: {e}", p.name))?;
        tr.end(s);
        totals.code_instrs += code_instrs(&code);
        let s = tr.begin(Layer::Vm, call::RUN_CODE, SETUP_OP);
        let m = engine.machine_mut();
        m.refuel();
        m.run_code(code).map_err(|e| format!("{}: {e}", p.name))?;
        tr.end(s);
    }
    let mut prep = Prepared { engine };
    for p in programs {
        prep.call(p).map_err(|e| format!("warm-up {e}"))?;
    }
    Ok(prep)
}

impl Prepared {
    /// One op: calls the program's entry at its scale and checks the
    /// result against the oracle.
    ///
    /// # Errors
    ///
    /// The engine's error or the mismatch.
    pub fn call(&mut self, p: &Program) -> Result<(), String> {
        let v = self
            .engine
            .call_global(p.workload.entry, vec![Value::fixnum(p.scale)])
            .map_err(|e| format!("{}: {e}", p.name))?;
        let got = v.write_string();
        if got == p.expected {
            Ok(())
        } else {
            Err(format!("{}: got {got}, expected {}", p.name, p.expected))
        }
    }
}

/// Runs the workload (see the module docs).
pub fn run(opts: &Options, programs: &[Program]) -> Outcome {
    let mut out = Outcome::default();
    if opts.trace {
        let mut tr = Tracer::on();
        let mut totals = LayerTotals::default();
        let mut prep = match setup(programs, &mut tr, &mut totals) {
            Ok(p) => p,
            Err(e) => return out.setup_failed(e),
        };
        let mut rng = Rng::stream(opts.seed, 2);
        let n = if opts.quick { 40 } else { TRACE_OPS };
        let sample: Vec<&Program> = rng
            .deal(programs.len(), n)
            .into_iter()
            .map(|i| &programs[i])
            .collect();
        // Each chunk runs untraced and traced, swapping the order every
        // chunk so warm-up and drift hit both sides alike; counters come
        // from the traced passes only, so they cover the sample once.
        let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
        for (i, chunk) in sample.chunks(TRACE_CHUNK).enumerate() {
            let first_op = (i * TRACE_CHUNK) as u64;
            for traced_side in [i % 2 == 0, i % 2 != 0] {
                if traced_side {
                    let before = prep.engine.stats();
                    traced += sample_pass(&mut prep, chunk, first_op, &mut tr, &mut out);
                    totals
                        .vm
                        .add(&VmCounters::delta(&before, &prep.engine.stats()));
                } else {
                    untraced +=
                        sample_pass(&mut prep, chunk, first_op, &mut Tracer::off(), &mut out);
                }
            }
        }
        totals.ops = n as u64;
        totals.trace_overhead_frac = 1.0 - untraced.as_secs_f64() / traced.as_secs_f64();
        push_per_layer(&mut out, &tr, &totals);
        crate::write_trace(opts, &tr);
        return out;
    }
    let new_setup = || setup(programs, &mut Tracer::off(), &mut LayerTotals::default());
    let (prep, mut setups) = Setups::first(opts.setup_repeats(), new_setup);
    let mut prep = match prep {
        Ok(p) => p,
        Err(e) => return out.setup_failed(e),
    };
    let mut draw = Rng::stream(opts.seed, 1).rounds(programs.len());
    let mut timed = Timed::default();
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - paused < opts.run_time() {
        paused += setups.between(start.elapsed() - paused, opts.run_time(), new_setup);
        let lap = Instant::now();
        let p = &programs[draw.next().unwrap_or_default()];
        out.attempted += 1;
        let t = Instant::now();
        let r = prep.call(p);
        let dt = t.elapsed();
        match r {
            Ok(()) => timed.op(dt),
            Err(e) => out.fail(e),
        }
        timed.elapsed(lap.elapsed());
    }
    timed.finish(&mut out, setups.finish(new_setup));
    out
}

/// Runs the ops of `sample` (numbered from `first_op`) under `tr`;
/// returns the wall time.
fn sample_pass(
    prep: &mut Prepared,
    sample: &[&Program],
    first_op: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Duration {
    let start = Instant::now();
    for (i, p) in sample.iter().enumerate() {
        let op = first_op + i as u64;
        out.attempted += 1;
        let root = tr.begin(Layer::Bench, call::OP, op);
        let s = tr.begin(Layer::Vm, call::CALL_GLOBAL, op);
        let r = prep
            .engine
            .call_global(p.workload.entry, vec![Value::fixnum(p.scale)]);
        tr.end(s);
        match r {
            Ok(v) if v.write_string() == p.expected => {}
            Ok(v) => out.fail(format!(
                "{}: got {}, expected {}",
                p.name,
                v.write_string(),
                p.expected
            )),
            Err(e) => out.fail(format!("{}: {e}", p.name)),
        }
        tr.end(root);
    }
    start.elapsed()
}

/// Median wall time of three calls.
fn time_call(engine: &mut Engine, w: &Workload, n: i64) -> Result<Duration, String> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        cm_workloads::run_scaled(engine, w, n).map_err(|e| e.to_string())?;
        times.push(t.elapsed());
    }
    times.sort();
    Ok(times[1])
}

/// The scale at which one call of `w` takes about [`TARGET_CALL`] on
/// this machine, or `None` if even its checksum scale takes more than
/// three times that.
fn calibrate(w: &Workload) -> Result<Option<i64>, String> {
    let mut engine = Engine::new(EngineConfig::full());
    cm_workloads::load_into(&mut engine, w);
    let mut n = w.small_n;
    let mut t = time_call(&mut engine, w, n)?;
    if t > TARGET_CALL * 3 {
        return Ok(None);
    }
    let mut prev = (n, t);
    // Grow slowly: some scales are exponential (fib, ack).
    while t < TARGET_CALL {
        prev = (n, t);
        n = (n + 1).max(n + n / 4);
        t = time_call(&mut engine, w, n)?;
    }
    let closer_to_target = |d: Duration| d.abs_diff(TARGET_CALL);
    Ok(Some(if closer_to_target(prev.1) < closer_to_target(t) {
        prev.0
    } else {
        n
    }))
}

/// Result of `w` at `n` on a fresh engine of `config` holding only `w`.
fn oracle_run(config: EngineConfig, w: &Workload, n: i64) -> Result<String, String> {
    let mut engine = Engine::new(config);
    engine.eval(w.source).map_err(|e| e.to_string())?;
    cm_workloads::run_scaled(&mut engine, w, n)
        .map(|v| v.write_string())
        .map_err(|e| e.to_string())
}

/// Builds the oracle file: calibrates each program's scale, then keeps
/// it only where `full`, `unmod` and `old-racket` agree. Exclusions are
/// reported on standard error.
///
/// # Errors
///
/// A calibration run that fails on `full`.
pub fn generate_expected() -> Result<String, String> {
    let mut out = String::from(
        "# paper workload oracle: group/name, pinned scale, expected result.\n\
         # Generated by `perfbench --gen-expected`; kept only where the full,\n\
         # unmod and old-racket configurations agree.\n",
    );
    for (group, ws) in cm_workloads::all_groups() {
        for w in ws {
            let name = format!("{group}/{}", w.name);
            let Some(n) = calibrate(w).map_err(|e| format!("{name}: {e}"))? else {
                eprintln!(
                    "excluded {name}: one call at scale {} exceeds {:?}",
                    w.small_n,
                    TARGET_CALL * 3
                );
                continue;
            };
            let results: Vec<(&str, Result<String, String>)> = [
                ("full", EngineConfig::full()),
                ("unmod", EngineConfig::unmodified_chez()),
                ("old-racket", EngineConfig::old_racket()),
            ]
            .into_iter()
            .map(|(c, cfg)| (c, oracle_run(cfg, w, n)))
            .collect();
            match &results[..] {
                [(_, Ok(a)), (_, Ok(b)), (_, Ok(c))] if a == b && b == c => {
                    out.push_str(&format!("{name}\t{n}\t{a}\n"));
                }
                _ => {
                    eprintln!("excluded {name} at scale {n}: configurations disagree: {results:?}")
                }
            }
        }
    }
    Ok(out)
}
