//! Emits `BENCH_heap.json`: the handle heap vs the seed's `Rc` value
//! tree on the allocation-heavy operation group.
//!
//! The `Rc` side is the seed's representation reproduced in-process —
//! `Rc<PairObj>` pairs with `RefCell` fields and the iterative cdr-spine
//! `Drop`, `Rc<RefCell<Vec>>` vectors, `Rc<RefCell<Value>>` boxes — so
//! both sides run the same operation mix in the same binary. Each
//! workload mirrors a VM hot path the tentpole refactor targets:
//! attachment push/pop (cons churn on a marks register), mark-set
//! reification (structural list copy), continuation capture (cloning a
//! value stack), and plain build/walk/drop. The handle side collects
//! *inside* the timed region — periodically mid-run with its live locals
//! as roots (`Machine::collect_now_rooting`, mirroring the VM's safe
//! points) and once at the end — so reclamation is paid on both sides
//! (`Rc` pays it in `Drop`), and slabs stay compact and cache-hot the
//! way they do under the real interpreter's collection cadence.
//!
//! Alongside timings the file publishes the handle heap's own
//! accounting under `"counters"`: allocations and collections so far
//! and the bytes-live high-water mark ([`cm_vm::heap_stats`]), all
//! cumulative over the run, so every row depends on the rows before it.
//!
//! ```text
//! heap_bench [OUT.json]    # default: BENCH_heap.json
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use cm_bench::{counters, geomean, num, time_runs, write_json};
use cm_core::{Engine, EngineConfig};
use cm_trace::json::Json;
use cm_vm::Value;

// ---------------------------------------------------------------------------
// The seed's Rc value tree, reproduced as the baseline side
// ---------------------------------------------------------------------------

/// The seed's `Value`: heap variants behind `Rc`, cloning bumps a
/// refcount. Only the variants the workloads touch are reproduced.
#[derive(Clone)]
enum RcValue {
    Fixnum(i64),
    Nil,
    Pair(Rc<PairObj>),
    // The payloads exist for their allocation/refcount/drop behavior —
    // the workloads clone and release them without reading through.
    Vector(#[allow(dead_code)] Rc<RefCell<Vec<RcValue>>>),
    Box(#[allow(dead_code)] Rc<RefCell<RcValue>>),
}

/// The seed's mutable cons cell, including its iterative cdr-spine drop
/// (the seed needed it to survive long marks/attachment chains; keeping
/// it here keeps the baseline's drop cost honest).
struct PairObj {
    car: RefCell<RcValue>,
    cdr: RefCell<RcValue>,
}

impl Drop for PairObj {
    fn drop(&mut self) {
        let mut next = std::mem::replace(self.cdr.get_mut(), RcValue::Nil);
        while let RcValue::Pair(p) = next {
            match Rc::try_unwrap(p) {
                Ok(mut inner) => {
                    next = std::mem::replace(inner.cdr.get_mut(), RcValue::Nil);
                }
                Err(_) => break,
            }
        }
    }
}

fn rc_cons(car: RcValue, cdr: RcValue) -> RcValue {
    RcValue::Pair(Rc::new(PairObj {
        car: RefCell::new(car),
        cdr: RefCell::new(cdr),
    }))
}

// ---------------------------------------------------------------------------
// Workloads: the same operation mix on both representations
// ---------------------------------------------------------------------------

/// Handle-side collection cadence, in allocations (roughly): like the
/// interpreter's safe points, workloads whose allocations mostly die
/// young collect periodically with their live locals as roots, keeping
/// slab occupancy near the live set instead of the total allocated.
/// 32k allocations × ~40-byte pair slots keeps the recycled region
/// L2-resident; much tighter wastes time on per-collection fixed costs,
/// much looser lets the slabs outgrow the cache.
const COLLECT_EVERY: u64 = 32 * 1024;

/// Build an n-pair list of fixnums, walk it summing, let it drop.
fn rc_cons_build_walk(n: u64) -> i64 {
    let mut list = RcValue::Nil;
    for i in 0..n {
        list = rc_cons(RcValue::Fixnum(i as i64), list);
    }
    let mut sum = 0i64;
    let mut cursor = list;
    while let RcValue::Pair(p) = cursor {
        if let RcValue::Fixnum(k) = &*p.car.borrow() {
            sum += k;
        }
        let next = p.cdr.borrow().clone();
        cursor = next;
    }
    sum
}

fn handle_cons_build_walk(_engine: &mut Engine, n: u64) -> i64 {
    // Everything allocated stays live until the walk finishes, so a
    // mid-run collection could reclaim nothing; the harness's end-of-run
    // collection reclaims the whole list.
    let mut list = Value::Nil;
    for i in 0..n {
        list = Value::cons(Value::fixnum(i as i64), list);
    }
    let mut sum = 0i64;
    let mut cursor = list;
    while let Value::Pair(p) = cursor {
        let (car, cdr) = p.car_cdr();
        if let Value::Fixnum(k) = car {
            sum += k;
        }
        cursor = cdr;
    }
    sum
}

/// Attachment churn: push a `(key . val)` attachment onto the marks
/// register, read it back, pop it — n times, against a small standing
/// chain so pops never empty the register.
fn rc_attach_churn(n: u64) -> i64 {
    let mut marks = rc_cons(
        rc_cons(RcValue::Fixnum(-1), RcValue::Fixnum(-1)),
        RcValue::Nil,
    );
    let mut sum = 0i64;
    for i in 0..n {
        marks = rc_cons(
            rc_cons(RcValue::Fixnum(i as i64), RcValue::Fixnum(1)),
            marks,
        );
        if let RcValue::Pair(p) = &marks {
            if let RcValue::Pair(entry) = &*p.car.borrow() {
                if let RcValue::Fixnum(k) = &*entry.car.borrow() {
                    sum += k;
                }
            }
        }
        let next = if let RcValue::Pair(p) = &marks {
            p.cdr.borrow().clone()
        } else {
            RcValue::Nil
        };
        marks = next;
    }
    sum
}

fn handle_attach_churn(engine: &mut Engine, n: u64) -> i64 {
    let cadence = COLLECT_EVERY / 2;
    let mut until = cadence;
    let mut marks = Value::cons(
        Value::cons(Value::fixnum(-1), Value::fixnum(-1)),
        Value::Nil,
    );
    let mut sum = 0i64;
    for i in 0..n {
        marks = Value::cons(
            Value::cons(Value::fixnum(i as i64), Value::fixnum(1)),
            marks,
        );
        if let Value::Pair(p) = marks {
            let (entry, rest) = p.car_cdr();
            if let Value::Pair(e) = entry {
                if let (Value::Fixnum(k), _) = e.car_cdr() {
                    sum += k;
                }
            }
            marks = rest;
        }
        // Two pairs per iteration, all dead after the pop except the
        // standing chain: collect on the VM's cadence, rooting it.
        until -= 1;
        if until == 0 {
            until = cadence;
            engine.machine_mut().collect_now_rooting(&[marks]);
        }
    }
    sum
}

/// Mark-set reification: structurally copy a 256-element list n/256
/// times (the `deep_copy_chain` shape: fresh spine, shared elements).
fn rc_reify_copy(n: u64) -> i64 {
    let mut src = RcValue::Nil;
    for i in 0..256 {
        src = rc_cons(RcValue::Fixnum(i), src);
    }
    let mut count = 0i64;
    for _ in 0..n / 256 {
        let mut copied = Vec::with_capacity(256);
        let mut cursor = src.clone();
        while let RcValue::Pair(p) = cursor {
            copied.push(p.car.borrow().clone());
            let next = p.cdr.borrow().clone();
            cursor = next;
        }
        let mut out = RcValue::Nil;
        for v in copied.into_iter().rev() {
            out = rc_cons(v, out);
        }
        if let RcValue::Pair(p) = out {
            if let RcValue::Fixnum(k) = &*p.car.borrow() {
                count += k;
            }
        }
    }
    count
}

fn handle_reify_copy(engine: &mut Engine, n: u64) -> i64 {
    let mut src = Value::Nil;
    for i in 0..256 {
        src = Value::cons(Value::fixnum(i), src);
    }
    let cadence = (COLLECT_EVERY / 256).max(1);
    let mut until = cadence;
    let mut count = 0i64;
    for _ in 0..n / 256 {
        // Each copy's 256-pair spine dies immediately; only `src` is
        // long-lived.
        until -= 1;
        if until == 0 {
            until = cadence;
            engine.machine_mut().collect_now_rooting(&[src]);
        }
        let mut copied = Vec::with_capacity(256);
        let mut cursor = src;
        while let Value::Pair(p) = cursor {
            let (car, cdr) = p.car_cdr();
            copied.push(car);
            cursor = cdr;
        }
        let mut out = Value::Nil;
        for v in copied.into_iter().rev() {
            out = Value::cons(v, out);
        }
        if let Value::Pair(p) = out {
            if let Value::Fixnum(k) = p.car() {
                count += k;
            }
        }
    }
    count
}

/// Continuation capture: clone a 64-slot value stack (mixed immediates
/// and heap values) n/64 times — the segment-freeze copy.
fn rc_capture_clone(n: u64) -> i64 {
    let stack: Vec<RcValue> = (0..64)
        .map(|i| match i % 4 {
            0 => RcValue::Fixnum(i),
            1 => rc_cons(RcValue::Fixnum(i), RcValue::Nil),
            2 => RcValue::Vector(Rc::new(RefCell::new(vec![RcValue::Fixnum(i)]))),
            _ => RcValue::Box(Rc::new(RefCell::new(RcValue::Fixnum(i)))),
        })
        .collect();
    let mut count = 0i64;
    for _ in 0..n / 64 {
        let frozen = std::hint::black_box(stack.clone());
        count += frozen.len() as i64;
    }
    count
}

fn handle_capture_clone(_engine: &mut Engine, n: u64) -> i64 {
    // The stack's heap values are allocated once; the capture loop itself
    // is pure `Copy` (a memcpy per clone — the representational win the
    // tentpole bought for segment freezing), so there is nothing to
    // collect mid-run.
    let stack: Vec<Value> = (0..64)
        .map(|i| match i % 4 {
            0 => Value::fixnum(i),
            1 => Value::cons(Value::fixnum(i), Value::Nil),
            2 => Value::vector(vec![Value::fixnum(i)]),
            _ => Value::boxed(Value::fixnum(i)),
        })
        .collect();
    let mut count = 0i64;
    for _ in 0..n / 64 {
        // `black_box` forces the clone to materialize — under LTO the
        // optimizer otherwise deletes a pure-`Copy` clone outright
        // (which is the representational point, but makes the timing
        // meaningless).
        let frozen = std::hint::black_box(stack.clone());
        count += frozen.len() as i64;
    }
    count
}

/// Vector churn: allocate an 8-slot vector per iteration, mutate one
/// slot, keep every 64th in a keeper list (most allocations die young).
fn rc_vector_churn(n: u64) -> i64 {
    let mut keep = RcValue::Nil;
    let mut sum = 0i64;
    for i in 0..n {
        let v = Rc::new(RefCell::new(vec![RcValue::Fixnum(i as i64); 8]));
        v.borrow_mut()[0] = RcValue::Fixnum(2 * i as i64);
        if let RcValue::Fixnum(k) = &v.borrow()[0] {
            sum += k;
        }
        if i % 64 == 0 {
            keep = rc_cons(RcValue::Vector(v), keep);
        }
    }
    drop(keep);
    sum
}

fn handle_vector_churn(engine: &mut Engine, n: u64) -> i64 {
    let cadence = COLLECT_EVERY;
    let mut until = cadence;
    let mut keep = Value::Nil;
    let mut sum = 0i64;
    for i in 0..n {
        let v = Value::vector(vec![Value::fixnum(i as i64); 8]);
        if let Value::Vector(h) = v {
            h.set(0, Value::fixnum(2 * i as i64));
            if let Some(Value::Fixnum(k)) = h.get(0) {
                sum += k;
            }
        }
        if i % 64 == 0 {
            keep = Value::cons(v, keep);
        }
        // Most vectors die young; collecting on cadence (rooting the
        // keeper list) recycles their slots while they are still hot.
        until -= 1;
        if until == 0 {
            until = cadence;
            engine.machine_mut().collect_now_rooting(&[keep]);
        }
    }
    std::hint::black_box(keep);
    sum
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_heap.json".to_owned());
    let runs = 7;
    // The engine exists to give the thread a heap with standing roots and
    // a public `collect_now` — the workloads allocate directly.
    let mut engine = Engine::new(EngineConfig::default());

    type RcFn = fn(u64) -> i64;
    type HandleFn = fn(&mut Engine, u64) -> i64;
    let workloads: [(&str, u64, RcFn, HandleFn); 5] = [
        (
            "cons-build-walk",
            400_000,
            rc_cons_build_walk,
            handle_cons_build_walk,
        ),
        (
            "attach-churn",
            800_000,
            rc_attach_churn,
            handle_attach_churn,
        ),
        ("reify-copy", 400_000, rc_reify_copy, handle_reify_copy),
        (
            "capture-clone",
            2_000_000,
            rc_capture_clone,
            handle_capture_clone,
        ),
        (
            "vector-churn",
            200_000,
            rc_vector_churn,
            handle_vector_churn,
        ),
    ];

    let (mut rows, mut speedups) = (Vec::new(), Vec::new());
    for (name, n, rc_fn, handle_fn) in &workloads {
        // Both sides must compute the same answer, or the comparison is
        // comparing different programs.
        let rc_answer = rc_fn(*n / 10);
        let handle_answer = {
            let _scope = cm_vm::alloc_scope();
            handle_fn(&mut engine, *n / 10)
        };
        engine.machine_mut().collect_now();
        assert_eq!(rc_answer, handle_answer, "{name}: sides disagree");

        let rc = time_runs(runs, || {
            std::hint::black_box(rc_fn(*n));
        });
        // The alloc scope keeps the run's temporaries collectable (depth-0
        // allocations would be tenured permanent), and the timed region
        // includes the collection that reclaims them (the Rc side reclaims
        // inline, in `Drop`).
        let handle = time_runs(runs, || {
            let _scope = cm_vm::alloc_scope();
            std::hint::black_box(handle_fn(&mut engine, *n));
            engine.machine_mut().collect_now();
        });
        let stats = cm_vm::heap_stats();
        let speedup = rc.median / handle.median;
        speedups.push(speedup);
        rows.push(Json::Obj(vec![
            ("name".into(), Json::str(*name)),
            ("n".into(), Json::num(*n)),
            (
                "rc-baseline".into(),
                Json::Obj(vec![("ms".into(), rc.json())]),
            ),
            (
                "handle-heap".into(),
                Json::Obj(vec![
                    ("ms".into(), handle.json()),
                    (
                        "counters".into(),
                        counters(&[
                            ("allocations", stats.allocations),
                            ("collections", stats.collections),
                            ("bytes-live-peak", stats.bytes_live_peak),
                        ]),
                    ),
                ]),
            ),
            ("speedup".into(), num(speedup)),
        ]));
        println!(
            "{name}: rc {:.3} ms, handle {:.3} ms, speedup ×{speedup:.2}",
            rc.median, handle.median
        );
    }
    let geomean = geomean(&speedups);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::str("cm-bench-heap-v2")),
        ("group".into(), Json::str("allocation-heavy")),
        (
            "sides".into(),
            Json::Arr(vec![Json::str("rc-baseline"), Json::str("handle-heap")]),
        ),
        ("workloads".into(), Json::Arr(rows)),
        ("geomean-speedup".into(), num(geomean)),
    ]);
    write_json(&out_path, &doc);
    println!("wrote {out_path} (geomean speedup ×{geomean:.2})");
    // The acceptance floor: the handle heap must beat the Rc tree by
    // ≥1.3× geomean on this group, or the published file is advertising
    // a regression.
    assert!(
        geomean >= 1.3,
        "geomean speedup ×{geomean:.2} below the ×1.30 acceptance floor"
    );
}
