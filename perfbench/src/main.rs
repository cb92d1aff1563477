//! `perfbench`: runs one workload and prints its metrics, the last line
//! being the JSON result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//! perfbench --workload all [--seed N] [--seconds S]   # every workload, both runs
//! perfbench --gen-expected PATH                        # rebuild the paper oracle
//! ```
//!
//! Exit status: 0 when every op was correct, 1 when any failed (the
//! result line still says so), 2 on a usage error.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use cm_perfbench::{run, Options, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1 [--trace-dir DIR]"
    );
    eprintln!("       perfbench --gen-expected PATH");
    ExitCode::from(2)
}

/// What the command line asks for.
enum Request {
    Run(Options),
    GenExpected(String),
}

fn parse_args(args: &[String]) -> Result<Request, String> {
    let mut opts = Options::new("");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(value)),
            "--gen-expected" => return Ok(Request::GenExpected(value.clone())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Request::Run(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Request::Run(opts)) => opts,
        Ok(Request::GenExpected(path)) => {
            let written = cm_perfbench::paper::generate_expected()
                .and_then(|text| std::fs::write(&path, text).map_err(|e| format!("{path}: {e}")));
            return match written {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => usage(&e),
            };
        }
        Err(e) => return usage(&e),
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    print!("{}", outcome.table());
    for e in &outcome.errors {
        eprintln!("error: {e}");
    }
    println!("{}", outcome.to_json().to_string_compact());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload, untraced then traced, each in its own process so its
/// peak memory is its own; prints every metric by name with its unit.
fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage(&format!("cannot locate this executable: {e}")),
    };
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string(), "--trace", trace]);
            if let Some(dir) = &opts.trace_dir {
                cmd.arg("--trace-dir").arg(dir);
            }
            let kind = if trace == "0" {
                "end to end"
            } else {
                "per layer"
            };
            println!("== {w} ({kind}) ==");
            // The child writes to this process's stdout: flush first so
            // the header precedes its table.
            let _ = std::io::stdout().flush();
            match cmd.status() {
                Ok(status) => ok &= status.success(),
                Err(e) => return usage(&format!("cannot run {w}: {e}")),
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
