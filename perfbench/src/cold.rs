//! `cold` and `cold-corpus`: a fresh engine per op, compiling one
//! distinct script that runs only briefly.
//!
//! Why: this is the cost a one-shot script pays — prelude load
//! (`cm_core::Engine::new`), then the reader, expander, cp0, mark-flow
//! analysis and codegen on a new source. Dispatch is small. Every
//! script is distinct (it carries its own id and a seeded shape), so a
//! source-keyed cache cannot score on repeats. The engine runs the
//! `mark-flow` configuration so the mark-flow analysis is on the path.
//!
//! `cold` scripts are generated; their oracle is
//! `cm_refmodel::RefInterp`, an interpreter independent of the engine.
//! The generator stays inside its language: `define`, `lambda`, `let`,
//! `if`, fixnum `+`/`-`, `with-continuation-mark`, `call/cc` with upward
//! escapes only, `dynamic-wind` whose winders log into `dw-log`, and the
//! mark observers `mark-list`/`mark-first`, which the engine gets as
//! shims over `continuation-mark-set->list`/`-first` (the mapping the
//! differential tests use). Every expression is numeric and calls only
//! lower-numbered functions, so every script terminates without a type
//! error. The oracle finds a defect in the engine (see `README.md`), so
//! `cold` is not among the workloads in `BENCHMARK.json`; it stays
//! runnable and reports its failures.
//!
//! `cold-corpus` scripts are a seeded draw of the §8 corpus sources,
//! each followed by one call at its checksum scale and prefixed with its
//! own script id, so no two sources are equal. The oracle is the
//! checksum pinned in `cm-workloads`. The Gabriel `tak` family is left
//! out: its smallest call runs 18–42 ms, which would make dispatch, not
//! compilation, the cost.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cm_core::{Engine, EngineConfig};

use crate::measure::{Setups, Timed};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::tracer::{call, code_instrs, push_per_layer, Layer, LayerTotals, Tracer, VmCounters};
use crate::Options;

/// Generated scripts prepared per second of run time: about twice the
/// measured rate, so a run does not exhaust them.
const SCRIPTS_PER_SECOND: usize = 400;

/// Warm-up ops in `cold`'s set-up (scripts not reused by the timed
/// run). `cold-corpus` warms up on every corpus program once, the same
/// for every seed.
const WARMUP: usize = 50;

/// Ops in the traced sample (run once untraced, once traced).
const TRACE_OPS: usize = 300;

/// The model's winder log, shared by both sides.
const LOG_HELPERS: &str = "(define dw-log '())\n(define (note t) (set! dw-log (cons t dw-log)))\n";

/// Engine-only shims for the model's mark observers.
const ENGINE_SHIMS: &str = "(define (mark-list k) (continuation-mark-set->list #f k))\n\
                            (define (mark-first k d) (continuation-mark-set-first #f k d))\n";

/// Gabriel programs whose smallest call dwarfs their compile time.
const TAK_FAMILY: [&str; 3] = ["tak", "takl", "cpstak"];

/// Where a cold op's script comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Generated, checked against the reference interpreter (`cold`).
    Generated,
    /// A §8 corpus source, checked against its pinned checksum
    /// (`cold-corpus`).
    Corpus,
}

/// A script with its oracle result.
#[derive(Debug, Clone)]
pub struct Script {
    /// Script id (distinct within a run).
    pub id: u64,
    /// The source the engine compiles (shims included).
    pub engine_src: String,
    /// The oracle's `write` form of the result.
    pub expected: String,
}

struct Gen {
    rng: Rng,
    /// Bound numeric variables (`v0`, `v1`, ...).
    scope: u32,
    /// Enclosing `call/cc` continuations in scope.
    kdepth: u32,
    /// Calls still allowed in this function body.
    calls_left: u32,
    /// Functions this body may call (`f0 .. f{callable-1}`).
    callable: u32,
}

const KEYS: [&str; 3] = ["ka", "kb", "kc"];

impl Gen {
    fn num(&mut self, depth: u32, out: &mut String) {
        let leaf = depth == 0 || self.rng.chance(1, 5);
        if leaf {
            match self.rng.below(4) {
                0 if self.scope > 0 => {
                    let v = self.rng.below(self.scope as usize);
                    let _ = write!(out, "v{v}");
                }
                1 => {
                    let k = KEYS[self.rng.below(3)];
                    let _ = write!(out, "(mark-first '{k} 0)");
                }
                _ => {
                    let n = self.rng.below(19) as i64 - 9;
                    let _ = write!(out, "{n}");
                }
            }
            return;
        }
        let d = depth - 1;
        match self.rng.below(12) {
            0 | 1 => {
                out.push_str(if self.rng.chance(1, 2) { "(+ " } else { "(- " });
                self.num(d, out);
                out.push(' ');
                self.num(d, out);
                out.push(')');
            }
            2 => {
                out.push_str("(if ");
                self.test(d, out);
                out.push(' ');
                self.num(d, out);
                out.push(' ');
                self.num(d, out);
                out.push(')');
            }
            3 => {
                let v = self.scope;
                let _ = write!(out, "(let ([v{v} ");
                self.num(d, out);
                out.push_str("]) ");
                self.scope += 1;
                self.num(d, out);
                self.scope -= 1;
                out.push(')');
            }
            4 => {
                let v = self.scope;
                let _ = write!(out, "((lambda (v{v}) ");
                self.scope += 1;
                self.num(d, out);
                self.scope -= 1;
                out.push_str(") ");
                self.num(d, out);
                out.push(')');
            }
            5 | 6 => {
                let k = KEYS[self.rng.below(3)];
                let _ = write!(out, "(with-continuation-mark '{k} ");
                self.num(d, out);
                out.push(' ');
                self.num(d, out);
                out.push(')');
            }
            7 => {
                let k = KEYS[self.rng.below(3)];
                let m = self.scope;
                let _ = write!(
                    out,
                    "(let ([m{m} (mark-list '{k})]) (if (pair? m{m}) (car m{m}) 0))"
                );
            }
            8 => {
                let k = self.kdepth;
                let _ = write!(out, "(call/cc (lambda (k{k}) ");
                self.kdepth += 1;
                self.num(d, out);
                self.kdepth -= 1;
                out.push_str("))");
            }
            9 if self.kdepth > 0 => {
                let k = self.rng.below(self.kdepth as usize);
                let _ = write!(out, "(k{k} ");
                self.num(d, out);
                out.push(')');
            }
            10 => {
                let t = self.rng.below(3);
                let _ = write!(out, "(dynamic-wind (lambda () (note 'pre{t})) (lambda () ");
                self.num(d, out);
                let _ = write!(out, ") (lambda () (note 'post{t})))");
            }
            11 if self.calls_left > 0 && self.callable > 0 => {
                self.calls_left -= 1;
                let f = self.rng.below(self.callable as usize);
                let _ = write!(out, "(f{f} ");
                self.num(d, out);
                out.push(' ');
                self.num(d, out);
                out.push(')');
            }
            _ => {
                out.push_str("((lambda () ");
                self.num(d, out);
                out.push_str("))");
            }
        }
    }

    fn test(&mut self, depth: u32, out: &mut String) {
        match self.rng.below(3) {
            0 => {
                out.push_str("(zero? ");
                self.num(depth, out);
                out.push(')');
            }
            1 => {
                out.push_str("(< ");
                self.num(depth, out);
                out.push(' ');
                self.num(depth, out);
                out.push(')');
            }
            _ => {
                let k = KEYS[self.rng.below(3)];
                let _ = write!(out, "(pair? (mark-list '{k}))");
            }
        }
    }
}

/// The model source of script `id` for `seed`: 12–19 functions of two
/// arguments, each calling at most one lower-numbered function, then a
/// result list holding the id, three calls and the winder log.
pub fn model_source(seed: u64, id: u64) -> String {
    let mut g = Gen {
        rng: Rng::stream(seed, 1000 + id),
        scope: 0,
        kdepth: 0,
        calls_left: 0,
        callable: 0,
    };
    let funcs = 12 + g.rng.below(8) as u32;
    let mut out = String::from(LOG_HELPERS);
    let _ = writeln!(out, "(define script-id {id})");
    for f in 0..funcs {
        g.scope = 2;
        g.kdepth = 0;
        g.calls_left = 1;
        g.callable = f;
        let _ = write!(out, "(define (f{f} v0 v1) ");
        g.num(4, &mut out);
        out.push_str(")\n");
    }
    out.push_str("(define result (list");
    for _ in 0..3 {
        let f = funcs - 1 - g.rng.below(funcs as usize / 2) as u32;
        let (a, b) = (g.rng.below(19) as i64 - 9, g.rng.below(19) as i64 - 9);
        let _ = write!(out, " (f{f} {a} {b})");
    }
    out.push_str("))\n(list script-id result dw-log)\n");
    out
}

/// Generates script `id` and runs the reference interpreter on it.
///
/// # Errors
///
/// The interpreter's error: the generator left the model's language.
pub fn script(seed: u64, id: u64) -> Result<Script, String> {
    let model = model_source(seed, id);
    let expected = cm_refmodel::RefInterp::new()
        .eval(&model)
        .map_err(|e| format!("script {id}: reference interpreter: {}", e.0))?;
    Ok(Script {
        id,
        engine_src: format!("{ENGINE_SHIMS}{model}"),
        expected,
    })
}

/// The corpus programs `cold-corpus` draws from: every workload with a
/// pinned checksum, minus [`TAK_FAMILY`].
pub fn corpus_programs() -> Vec<&'static cm_workloads::Workload> {
    cm_workloads::all_groups()
        .into_iter()
        .flat_map(|(_, ws)| ws.iter())
        .filter(|w| w.expected.is_some() && !TAK_FAMILY.contains(&w.name))
        .collect()
}

/// Corpus script `id` for `seed`: one program's whole source, its
/// checksum call, and the script id that makes the source distinct.
/// Ids are dealt in rounds that hold every program once in a seeded
/// order, so every run compiles the same mix.
pub fn corpus_script(programs: &[&'static cm_workloads::Workload], seed: u64, id: u64) -> Script {
    let n = programs.len() as u64;
    let round = Rng::stream(seed, 1000 + id / n).shuffled(programs.len());
    program_script(programs[round[(id % n) as usize]], id)
}

/// Program `w` as script `id`.
fn program_script(w: &cm_workloads::Workload, id: u64) -> Script {
    Script {
        id,
        engine_src: format!(
            "(define script-id {id})\n{}\n({} {})\n",
            w.source, w.entry, w.small_n
        ),
        expected: w.expected.unwrap_or_default().to_string(),
    }
}

/// One op: fresh engine, compile, run, check.
///
/// # Errors
///
/// The engine's error or the mismatch with the oracle.
pub fn op(s: &Script, tr: &mut Tracer, totals: &mut LayerTotals) -> Result<(), String> {
    let id = s.id;
    let root = tr.begin(Layer::Bench, call::OP, id);
    let r = compile_and_run(s, tr, totals);
    tr.end(root);
    let got = r?;
    if got == s.expected {
        Ok(())
    } else {
        Err(format!("script {id}: got {got}, expected {}", s.expected))
    }
}

fn compile_and_run(
    s: &Script,
    tr: &mut Tracer,
    totals: &mut LayerTotals,
) -> Result<String, String> {
    let id = s.id;
    let sp = tr.begin(Layer::Core, call::ENGINE_NEW, id);
    let mut engine = Engine::new(EngineConfig::mark_flow());
    tr.end(sp);
    if tr.enabled() {
        let sp = tr.begin(Layer::Sexpr, call::PARSE, id);
        let datums = cm_sexpr::parse_str(&s.engine_src);
        tr.end(sp);
        totals.datums += datums.map_err(|e| format!("script {id}: read: {e}"))?.len() as u64;
    }
    let sp = tr.begin(Layer::Compiler, call::COMPILE, id);
    let code = engine.compile_only(&s.engine_src);
    tr.end(sp);
    let code = code.map_err(|e| format!("script {id}: compile: {e}"))?;
    if tr.enabled() {
        totals.code_instrs += code_instrs(&code);
    }
    let before = engine.stats();
    let sp = tr.begin(Layer::Vm, call::RUN_CODE, id);
    let m = engine.machine_mut();
    m.refuel();
    let r = m.run_code(code);
    tr.end(sp);
    if tr.enabled() {
        totals.vm.add(&VmCounters::delta(&before, &engine.stats()));
    }
    Ok(r.map_err(|e| format!("script {id}: run: {e}"))?
        .write_string())
}

/// Where a run's scripts come from: generated scripts are prepared in
/// set-up with their oracles; corpus scripts need no oracle run and are
/// built just before their op, outside its timing.
enum Supply {
    Ready(Vec<Script>),
    Corpus(Vec<&'static cm_workloads::Workload>, u64),
}

impl Supply {
    /// Script `i`, or `None` when a prepared supply is used up.
    fn get(&self, i: u64) -> Option<Script> {
        match self {
            Supply::Ready(scripts) => scripts.get(i as usize).cloned(),
            Supply::Corpus(programs, seed) => Some(corpus_script(programs, *seed, i)),
        }
    }
}

/// Set-up: a warm-up on scripts the run does not reuse, then the supply
/// (for `cold`, `count` generated scripts and their oracles). Warm-up
/// ops that fail are returned, to be counted as failed set-up checks.
fn setup(source: Source, seed: u64, count: usize) -> Result<(Supply, Vec<String>), String> {
    // Warm-up scripts use ids far above any a run reaches.
    const WARM_IDS: u64 = 1 << 40;
    let warm_ids = WARM_IDS..WARM_IDS + WARMUP as u64;
    let programs = corpus_programs();
    let warm: Vec<Script> = match source {
        Source::Generated => warm_ids
            .map(|id| script(seed, id))
            .collect::<Result<_, _>>()?,
        Source::Corpus => programs
            .iter()
            .zip(WARM_IDS..)
            .map(|(w, id)| program_script(w, id))
            .collect(),
    };
    let warm_failures = warm
        .iter()
        .filter_map(|s| op(s, &mut Tracer::off(), &mut LayerTotals::default()).err())
        .map(|e| format!("warm-up {e}"))
        .collect();
    let supply = match source {
        Source::Generated => Supply::Ready(
            (0..count as u64)
                .map(|id| script(seed, id))
                .collect::<Result<_, _>>()?,
        ),
        Source::Corpus => Supply::Corpus(programs, seed),
    };
    Ok((supply, warm_failures))
}

/// Counts warm-up failures as failed set-up checks.
fn count_warm_failures(out: &mut Outcome, failures: Vec<String>) {
    for e in failures {
        out.attempted += 1;
        out.fail(e);
    }
}

/// Runs `cold` or `cold-corpus` (see the module docs).
pub fn run(opts: &Options, source: Source) -> Outcome {
    let mut out = Outcome::default();
    if opts.trace {
        let n = if opts.quick { 10 } else { TRACE_OPS };
        let supply = match setup(source, opts.seed, 2 * n) {
            Ok((supply, failures)) => {
                count_warm_failures(&mut out, failures);
                supply
            }
            Err(e) => return out.setup_failed(e),
        };
        let sample: Vec<Script> = (0..2 * n as u64).filter_map(|i| supply.get(i)).collect();
        let mut tr = Tracer::on();
        let mut totals = LayerTotals::default();
        let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
        // Traced and untraced ops alternate (and swap order each time)
        // so warm-up and drift hit both sides alike. Each side runs
        // its own scripts: a script is never compiled twice.
        for i in 0..n {
            for side in [i % 2, 1 - i % 2] {
                let s = &sample[side * n + i];
                out.attempted += 1;
                let t = Instant::now();
                let r = if side == 0 {
                    op(s, &mut tr, &mut totals)
                } else {
                    op(s, &mut Tracer::off(), &mut LayerTotals::default())
                };
                *(if side == 0 {
                    &mut traced
                } else {
                    &mut untraced
                }) += t.elapsed();
                if let Err(e) = r {
                    out.fail(e);
                }
            }
        }
        totals.ops = n as u64;
        totals.trace_overhead_frac = 1.0 - untraced.as_secs_f64() / traced.as_secs_f64();
        push_per_layer(&mut out, &tr, &totals);
        crate::write_trace(opts, &tr);
        return out;
    }
    let count = (opts.seconds * SCRIPTS_PER_SECOND as f64).ceil() as usize;
    let new_setup = || setup(source, opts.seed, count);
    let (supply, mut setups) = Setups::first(opts.setup_repeats(), new_setup);
    let supply = match supply {
        Ok((supply, failures)) => {
            count_warm_failures(&mut out, failures);
            supply
        }
        Err(e) => return out.setup_failed(e),
    };
    let mut timed = Timed::default();
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() - paused < opts.run_time() {
        paused += setups.between(start.elapsed() - paused, opts.run_time(), new_setup);
        let lap = Instant::now();
        let Some(s) = supply.get(out.attempted) else {
            eprintln!("cold: all {count} scripts used before the run time ended");
            break;
        };
        out.attempted += 1;
        let t = Instant::now();
        let r = op(&s, &mut Tracer::off(), &mut LayerTotals::default());
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
