//! The traced run's span recorder.
//!
//! Spans come from this crate only: each one wraps a single call into a
//! layer's public API (`parse_str`, `compile_only`, `verify`,
//! `Engine::new`, `call_global`, `run_code`, `Engine::run`, `snapshot`,
//! `Engine::restore`) and carries its op id and parent span. They stay
//! in memory until the run ends; a layer's number is its *self* time —
//! the span's duration minus the part its child spans cover. Export goes
//! through `cm_engines::SpanLog`, so `cm_trace::spans_to_chrome` turns
//! the file into a Perfetto timeline.
//!
//! A disabled tracer takes no clock reads: the untraced runs share the
//! same code path at the cost of one branch per call.

use std::time::{Duration, Instant};

use cm_engines::{Span, SpanLog};
use cm_vm::MachineStats;

/// The op id of spans recorded during set-up (not part of any op).
pub const SETUP_OP: u64 = u64::MAX;

/// The timeline lane of the benchmark's own spans; pool worker lanes
/// keep their worker index.
const BENCH_LANE: u32 = 100;

/// The crate a span's call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own op boundary.
    Bench,
    /// `cm-sexpr`: the reader.
    Sexpr,
    /// `cm-compiler`: expander, cp0, mark-flow, codegen.
    Compiler,
    /// `cm-analysis`: the bytecode verifier.
    Analysis,
    /// `cm-core`: engine creation and the prelude.
    Core,
    /// `cm-vm`: dispatch, capture, heap.
    Vm,
    /// `cm-engines`: snapshots, slices, pools.
    Engines,
}

impl Layer {
    /// The span category.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Sexpr => "sexpr",
            Layer::Compiler => "compiler",
            Layer::Analysis => "analysis",
            Layer::Core => "core",
            Layer::Vm => "vm",
            Layer::Engines => "engines",
        }
    }
}

/// A handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

struct Rec {
    layer: Layer,
    call: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Instant,
    dur: Duration,
    children: Duration,
}

/// In-memory span recorder (see the module docs).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    recs: Vec<Rec>,
    stack: Vec<usize>,
    external: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            external: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span around a call; the innermost open span is its parent.
    pub fn begin(&mut self, layer: Layer, call: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.recs.len();
        self.recs.push(Rec {
            layer,
            call,
            op,
            parent: self.stack.last().copied(),
            start: Instant::now(),
            dur: Duration::ZERO,
            children: Duration::ZERO,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes the span opened by `begin` (spans close innermost first).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let dur = self.recs[id].start.elapsed();
        self.recs[id].dur = dur;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must nest");
        if let Some(parent) = self.recs[id].parent {
            self.recs[parent].children += dur;
        }
    }

    /// Spans recorded elsewhere (a pool's slice spans, whose times are
    /// relative to `epoch`), kept for the timeline export only.
    pub fn add_external<'a>(&mut self, spans: impl IntoIterator<Item = &'a Span>, epoch: Instant) {
        if !self.enabled {
            return;
        }
        let shift = epoch
            .checked_duration_since(self.origin)
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        self.external.extend(spans.into_iter().map(|s| Span {
            start_us: s.start_us.saturating_add(shift),
            ..s.clone()
        }));
    }

    /// Total self time and count of the spans of `call` (set-up spans
    /// included).
    pub fn call_self(&self, call: &str) -> (Duration, u64) {
        self.sum(|r| r.call == call)
    }

    /// Total self time and count of `layer`'s spans inside ops (set-up
    /// excluded).
    pub fn layer_self_in_ops(&self, layer: Layer) -> (Duration, u64) {
        self.sum(|r| r.layer == layer && r.op != SETUP_OP)
    }

    /// Mean self time of `call` in microseconds, or 0 if never called.
    pub fn mean_us(&self, call: &str) -> f64 {
        let (total, n) = self.call_self(call);
        if n == 0 {
            0.0
        } else {
            total.as_secs_f64() * 1e6 / n as f64
        }
    }

    fn sum(&self, keep: impl Fn(&Rec) -> bool) -> (Duration, u64) {
        self.recs
            .iter()
            .filter(|r| keep(r))
            .fold((Duration::ZERO, 0), |(t, n), r| {
                (t + r.dur.saturating_sub(r.children), n + 1)
            })
    }

    /// Every span, the benchmark's own first, as `cm_engines` spans.
    pub fn spans(&self) -> Vec<Span> {
        let mut log = SpanLog::with_origin(self.origin);
        for (i, r) in self.recs.iter().enumerate() {
            let op = if r.op == SETUP_OP {
                "setup".to_string()
            } else {
                r.op.to_string()
            };
            let parent = r.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let self_ns = r.dur.saturating_sub(r.children).as_nanos();
            log.record(
                r.call,
                r.layer.as_str(),
                BENCH_LANE,
                r.start,
                r.start + r.dur,
                vec![
                    ("span", i.to_string()),
                    ("op", op),
                    ("parent", parent),
                    ("self_ns", self_ns.to_string()),
                ],
            );
        }
        let mut spans = log.into_spans();
        spans.extend(self.external.iter().cloned());
        spans
    }

    /// Writes the Chrome `trace_event` file (opens in Perfetto).
    ///
    /// # Errors
    ///
    /// Any I/O error writing `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let doc = cm_trace::spans_to_chrome(spans.iter());
        std::fs::write(path, doc.to_string_compact())
    }
}

/// The `MachineStats` counters the per-layer table reports, summed over
/// the traced ops (restored machines count from zero, so a task that
/// hopped through a snapshot adds each machine's share).
#[derive(Debug, Clone, Copy, Default)]
pub struct VmCounters {
    /// Instructions executed.
    pub steps: u64,
    /// Full continuation captures.
    pub captures: u64,
    /// Attachment reifications.
    pub reifications: u64,
    /// Underflows that fused the frozen segment back.
    pub fusions: u64,
    /// Underflows that copied it.
    pub copies: u64,
    /// Attachments pushed.
    pub attachments_pushed: u64,
    /// Heap allocations.
    pub allocations: u64,
    /// Collections.
    pub collections: u64,
    /// Highest live-bytes gauge seen.
    pub bytes_live_peak: u64,
}

impl VmCounters {
    /// Adds the counters of `s` (the live-bytes gauge takes the max).
    pub fn add(&mut self, s: &MachineStats) {
        self.steps += s.steps_executed;
        self.captures += s.captures;
        self.reifications += s.reifications;
        self.fusions += s.fusions;
        self.copies += s.copies;
        self.attachments_pushed += s.attachments_pushed;
        self.allocations += s.allocations;
        self.collections += s.collections;
        self.bytes_live_peak = self.bytes_live_peak.max(s.bytes_live_peak);
    }

    /// `after − before` for two readings of one machine's counters.
    pub fn delta(before: &MachineStats, after: &MachineStats) -> MachineStats {
        MachineStats {
            steps_executed: after.steps_executed - before.steps_executed,
            captures: after.captures - before.captures,
            reifications: after.reifications - before.reifications,
            fusions: after.fusions - before.fusions,
            copies: after.copies - before.copies,
            attachments_pushed: after.attachments_pushed - before.attachments_pushed,
            allocations: after.allocations - before.allocations,
            collections: after.collections - before.collections,
            bytes_live_peak: after.bytes_live_peak,
            ..MachineStats::default()
        }
    }
}

/// Everything the per-layer table needs besides the spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Ops in the traced sample.
    pub ops: u64,
    /// VM counters over those ops.
    pub vm: VmCounters,
    /// Datums read by `parse_str`.
    pub datums: u64,
    /// Instructions in compiled code (nested code objects included).
    pub code_instrs: u64,
    /// Snapshot bytes produced, summed.
    pub snapshot_bytes: u64,
    /// Pool-side numbers, for the serving workloads.
    pub pool: PoolTotals,
    /// `1 − traced throughput / untraced throughput` on the same ops.
    pub trace_overhead_frac: f64,
}

/// Scheduler-side numbers from a traced pool batch.
#[derive(Debug, Clone, Default)]
pub struct PoolTotals {
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Mean slice length, µs.
    pub slice_us: f64,
    /// Mean turnaround minus mean run time, ms.
    pub queue_wait_ms: f64,
    /// Slice time over workers × batch wall.
    pub worker_busy_frac: f64,
    /// Jain index over per-worker executed steps.
    pub worker_load_jain: f64,
    /// Tasks stolen.
    pub steals: u64,
    /// Started tasks migrated through the snapshot codec.
    pub migrations: u64,
}

/// Call names, shared by the workloads and the aggregation below.
pub mod call {
    /// `cm_sexpr::parse_str`.
    pub const PARSE: &str = "cm_sexpr::parse_str";
    /// `cm_core::Engine::compile_only`.
    pub const COMPILE: &str = "cm_core::Engine::compile_only";
    /// `cm_analysis::verify`.
    pub const VERIFY: &str = "cm_analysis::verify";
    /// `cm_core::Engine::new` (prelude load).
    pub const ENGINE_NEW: &str = "cm_core::Engine::new";
    /// `cm_engines::WorkerHost::new` (a `cm_core::Engine::new` inside).
    pub const HOST_NEW: &str = "cm_engines::WorkerHost::new";
    /// `cm_core::Engine::call_global`.
    pub const CALL_GLOBAL: &str = "cm_core::Engine::call_global";
    /// `cm_vm::Machine::run_code`.
    pub const RUN_CODE: &str = "cm_vm::Machine::run_code";
    /// `cm_engines::Engine::run` (one fuel slice).
    pub const ENGINE_RUN: &str = "cm_engines::Engine::run";
    /// `cm_engines::Engine::snapshot`.
    pub const SNAPSHOT: &str = "cm_engines::Engine::snapshot";
    /// `cm_engines::Engine::restore` (decode + re-verification).
    pub const RESTORE: &str = "cm_engines::Engine::restore";
    /// `cm_engines::run_pool`.
    pub const RUN_POOL: &str = "cm_engines::run_pool";
    /// One op of the benchmark (root span).
    pub const OP: &str = "op";
}

/// Appends every per-layer metric, in table order.
pub fn push_per_layer(out: &mut crate::report::Outcome, tr: &Tracer, t: &LayerTotals) {
    let (vm_self, _) = tr.layer_self_in_ops(Layer::Vm);
    let vm_ns = vm_self.as_nanos() as f64;
    let v = &t.vm;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (new_t, new_n) = tr.call_self(call::ENGINE_NEW);
    let (host_t, host_n) = tr.call_self(call::HOST_NEW);
    let engine_new_us = if new_n + host_n == 0 {
        0.0
    } else {
        (new_t + host_t).as_secs_f64() * 1e6 / (new_n + host_n) as f64
    };
    let (_, snapshots) = tr.call_self(call::SNAPSHOT);
    let p = &t.pool;
    for (name, value) in [
        (
            "vm.ns_per_step",
            if v.steps == 0 {
                0.0
            } else {
                vm_ns / v.steps as f64
            },
        ),
        (
            "vm.run_us",
            if t.ops == 0 {
                0.0
            } else {
                vm_ns / 1e3 / t.ops as f64
            },
        ),
        ("vm.steps", v.steps as f64),
        ("vm.captures", v.captures as f64),
        ("vm.reifications", v.reifications as f64),
        ("vm.fusions", v.fusions as f64),
        ("vm.copies", v.copies as f64),
        ("vm.fusion_ratio", ratio(v.fusions, v.fusions + v.copies)),
        ("vm.attachments_pushed", v.attachments_pushed as f64),
        ("vm.allocations", v.allocations as f64),
        ("vm.collections", v.collections as f64),
        ("vm.bytes_live_peak", v.bytes_live_peak as f64),
        ("sexpr.parse_us", tr.mean_us(call::PARSE)),
        ("sexpr.datums", t.datums as f64),
        ("compiler.compile_us", tr.mean_us(call::COMPILE)),
        ("compiler.code_instrs", t.code_instrs as f64),
        ("core.engine_new_us", engine_new_us),
        ("analysis.verify_us", tr.mean_us(call::VERIFY)),
        ("engines.restore_us", tr.mean_us(call::RESTORE)),
        ("engines.snapshot_us", tr.mean_us(call::SNAPSHOT)),
        ("engines.snapshot_bytes", ratio(t.snapshot_bytes, snapshots)),
        ("engines.checkpoints", p.checkpoints as f64),
        ("engines.slice_us", p.slice_us),
        ("engines.queue_wait_ms", p.queue_wait_ms),
        ("engines.worker_busy_frac", p.worker_busy_frac),
        ("engines.worker_load_jain", p.worker_load_jain),
        ("engines.steals", p.steals as f64),
        ("engines.migrations", p.migrations as f64),
        ("bench.trace_ops", t.ops as f64),
        ("bench.trace_overhead_frac", t.trace_overhead_frac),
    ] {
        out.push(name, value);
    }
}

/// Instructions in `code` and every nested code object.
pub fn code_instrs(code: &cm_vm::Code) -> u64 {
    code.instrs.len() as u64 + code.codes.iter().map(|c| code_instrs(c)).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let outer = tr.begin(Layer::Bench, call::OP, 0);
        let inner = tr.begin(Layer::Vm, call::RUN_CODE, 0);
        std::thread::sleep(Duration::from_millis(5));
        tr.end(inner);
        tr.end(outer);
        let (op_self, _) = tr.call_self(call::OP);
        let (vm_self, n) = tr.call_self(call::RUN_CODE);
        assert_eq!(n, 1);
        assert!(vm_self >= Duration::from_millis(5));
        assert!(op_self < Duration::from_millis(5));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1]
            .args
            .iter()
            .any(|(k, v)| *k == "parent" && v == "0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let s = tr.begin(Layer::Vm, call::RUN_CODE, 0);
        tr.end(s);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.mean_us(call::RUN_CODE), 0.0);
    }
}
