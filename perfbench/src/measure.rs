//! Timing helpers shared by the workloads: percentiles, peak memory,
//! repeated set-up, and the end-to-end metric block.

use std::time::{Duration, Instant};

use crate::report::Outcome;

/// How many times each workload builds its set-up; `setup_s` is the
/// median, so one slow set-up does not move it.
pub const SETUP_REPEATS: usize = 11;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (the mean of the middle two for an even
/// count; 0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A workload's set-up, timed several times spread over the run: once
/// before the timed ops and again at even steps of them, so `setup_s`
/// (the median) samples the machine over the whole run and not only
/// its first second. A repeat's result is dropped and its time is kept
/// out of the timed ops.
#[derive(Debug)]
pub struct Setups {
    times: Vec<f64>,
    repeats: usize,
}

impl Setups {
    /// Runs the first set-up, whose result the run uses.
    pub fn first<T>(repeats: usize, setup: impl FnOnce() -> T) -> (T, Setups) {
        let t = Instant::now();
        let value = setup();
        let times = vec![t.elapsed().as_secs_f64()];
        (
            value,
            Setups {
                times,
                repeats: repeats.max(1),
            },
        )
    }

    /// Repeats the set-up when `timed` of the `run` has reached the next
    /// step; returns the wall time that took (zero if it was not due).
    pub fn between<T>(
        &mut self,
        timed: Duration,
        run: Duration,
        setup: impl FnOnce() -> T,
    ) -> Duration {
        let done = self.times.len();
        if done >= self.repeats || timed < run.mul_f64(done as f64 / self.repeats as f64) {
            return Duration::ZERO;
        }
        let t = Instant::now();
        drop(setup());
        let spent = t.elapsed();
        self.times.push(spent.as_secs_f64());
        spent
    }

    /// Runs the repeats the run ended too early for, and returns the
    /// median set-up time in seconds.
    pub fn finish<T>(mut self, mut setup: impl FnMut() -> T) -> f64 {
        while self.times.len() < self.repeats {
            let t = Instant::now();
            drop(setup());
            self.times.push(t.elapsed().as_secs_f64());
        }
        median(&self.times)
    }
}

/// Ops per measurement window: enough that a window's p99 leaves ten
/// samples beyond it.
pub const WINDOW_OPS: usize = 1000;

/// Correct ops after which `peak_rss_mb` is read. `cold-corpus` grows
/// resident memory with every script it compiles (the symbol interner
/// is process-wide and keeps every gensym the expander makes), so a
/// reading at the end of the run would grow with throughput; at a fixed
/// op count a faster engine reads the same.
pub const RSS_AT_OPS: usize = 2000;

/// Latencies and timing of an untraced closed-loop run, cut into
/// windows of at least [`WINDOW_OPS`] correct ops. Each end-to-end time
/// metric is the median over the windows of that window's figure, so a
/// burst of load from elsewhere on the host that spoils a few windows
/// does not move it.
#[derive(Debug, Default)]
pub struct Timed {
    windows: Vec<Window>,
    open: Window,
    /// Correct ops in closed windows.
    closed_ops: usize,
    /// `peak_rss_mb` once [`RSS_AT_OPS`] ops were done.
    rss_mb: Option<f64>,
}

#[derive(Debug, Default)]
struct Window {
    /// Per-op latency of the correct ops, milliseconds.
    latencies_ms: Vec<f64>,
    /// Wall time of the timed ops.
    elapsed: Duration,
}

impl Timed {
    /// Records one correct op.
    pub fn op(&mut self, latency: Duration) {
        self.open.latencies_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Adds timed wall time (of the ops recorded since the last call),
    /// closing the window once it holds [`WINDOW_OPS`] ops.
    pub fn elapsed(&mut self, wall: Duration) {
        self.open.elapsed += wall;
        let ops = self.open.latencies_ms.len();
        if self.rss_mb.is_none() && self.closed_ops + ops >= RSS_AT_OPS {
            self.rss_mb = Some(peak_rss_mb());
        }
        if ops >= WINDOW_OPS {
            self.closed_ops += ops;
            self.windows.push(std::mem::take(&mut self.open));
        }
    }

    /// Appends the six end-to-end metrics to `out`.
    pub fn finish(mut self, out: &mut Outcome, setup_s: f64) {
        // A short last window joins the one before it.
        match self.windows.last_mut() {
            Some(last) => {
                last.latencies_ms.append(&mut self.open.latencies_ms);
                last.elapsed += self.open.elapsed;
            }
            None => self.windows.push(self.open),
        }
        let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
        let mut correct = 0;
        for w in &mut self.windows {
            w.latencies_ms.sort_by(f64::total_cmp);
            correct += w.latencies_ms.len();
            rates.push(w.latencies_ms.len() as f64 / w.elapsed.as_secs_f64().max(1e-9));
            p50s.push(percentile(&w.latencies_ms, 0.50));
            p99s.push(percentile(&w.latencies_ms, 0.99));
        }
        out.push("throughput_ops_s", median(&rates));
        out.push("latency_p50_ms", median(&p50s));
        out.push("latency_p99_ms", median(&p99s));
        out.push(
            "success_rate",
            if out.attempted == 0 {
                0.0
            } else {
                correct as f64 / out.attempted as f64
            },
        );
        out.push("peak_rss_mb", self.rss_mb.unwrap_or_else(peak_rss_mb));
        out.push("setup_s", setup_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
