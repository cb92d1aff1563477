//! One benchmark for the continuation-marks runtime, measured from
//! outside through the public APIs of `cm-core`, `cm-engines`,
//! `cm-compiler`, `cm-sexpr` and `cm-analysis`.
//!
//! Five workloads (see each module): [`paper`], `cold` and `cold-corpus`
//! in [`cold`], and the two serving pools in [`serve`]. An untraced run (`--trace 0`) reports the
//! end-to-end metrics; a separate traced run (`--trace 1`) reports the
//! per-layer ones from spans around each public call. See `README.md`
//! for the metric → layer → workload table.

pub mod cold;
pub mod measure;
pub mod paper;
pub mod report;
pub mod rng;
pub mod serve;
pub mod tracer;

use std::path::PathBuf;
use std::time::Duration;

use report::Outcome;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "paper",
    "cold",
    "cold-corpus",
    "serve-steal",
    "serve-checkpoint",
];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Small sizes, for the crate's own tests.
    pub quick: bool,
    /// Where a traced run writes its Chrome trace file (none if unset).
    pub trace_dir: Option<PathBuf>,
}

impl Options {
    /// Defaults for `workload`: seed 1, one second, untraced.
    pub fn new(workload: &str) -> Options {
        Options {
            workload: workload.to_string(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: false,
            trace_dir: None,
        }
    }

    /// How many set-ups a run times ([`measure::SETUP_REPEATS`], or one in
    /// quick mode).
    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            measure::SETUP_REPEATS
        }
    }

    /// The timed run's length.
    pub fn run_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// An unknown workload name, or a corrupt oracle file.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    Ok(match opts.workload.as_str() {
        "paper" => paper::run(opts, &paper::parse_expected(paper::EXPECTED)?),
        "cold" => cold::run(opts, cold::Source::Generated),
        "cold-corpus" => cold::run(opts, cold::Source::Corpus),
        "serve-steal" => serve::run(opts, serve::Pool::Steal),
        "serve-checkpoint" => serve::run(opts, serve::Pool::Checkpoint),
        other => {
            return Err(format!(
                "unknown workload {other}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

/// Writes the traced run's Chrome trace file, if a directory was given.
/// A failed write is reported but does not fail the run.
pub(crate) fn write_trace(opts: &Options, tr: &tracer::Tracer) {
    let Some(dir) = &opts.trace_dir else { return };
    let path = dir.join(format!("perfbench-trace-{}.json", opts.workload));
    match tr.write_chrome(&path) {
        Ok(()) => eprintln!("trace: {}", path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}
