//! The reuse-after-fault guarantee at the engine level: a `VmError` from
//! one run must never poison the next, on every engine variant. The
//! exhaustive version of this property (thousands of injected faults) is
//! the `cm-torture` harness; these are the targeted regressions.

use std::time::Duration;

use cm_core::{Engine, EngineConfig, EngineError};
use cm_vm::{VmError, VmErrorKind};

/// All measured engine variants (the centralized eight-config matrix).
fn all_configs() -> Vec<(&'static str, EngineConfig)> {
    cm_core::all_configs()
}

fn runtime_kind(err: EngineError) -> VmErrorKind {
    match err {
        EngineError::Runtime(e) => e.kind,
        EngineError::Compile(e) => panic!("expected runtime error, got compile error: {e}"),
    }
}

#[test]
fn error_success_cycles_on_every_config() {
    for (name, config) in all_configs() {
        let mut e = Engine::new(config);
        e.eval("(define (spin n) (if (zero? n) 'done (spin (- n 1))))")
            .unwrap();
        for round in 0..2 {
            // A type error raised under a live mark...
            let kind = runtime_kind(e.eval("(with-continuation-mark 'k 1 (car 5))").unwrap_err());
            assert!(
                matches!(kind, VmErrorKind::WrongType { .. }),
                "[{name}] round {round}: {kind:?}"
            );
            // ...must not leave the mark (or anything else) behind.
            assert_eq!(
                e.eval_to_string("(continuation-mark-set->list (current-continuation-marks) 'k)")
                    .unwrap(),
                "()",
                "[{name}] stale mark after error, round {round}"
            );
            // An error escaping a dynamic-wind must not leave winders.
            let kind = runtime_kind(
                e.eval("(dynamic-wind (lambda () 0) (lambda () (car 5)) (lambda () 1))")
                    .unwrap_err(),
            );
            assert!(matches!(kind, VmErrorKind::WrongType { .. }), "[{name}]");
            // Out-of-fuel mid-loop, then a normal run on the same engine.
            e.machine_mut().config.fuel = Some(100);
            let kind = runtime_kind(e.eval("(spin 1000000)").unwrap_err());
            assert!(matches!(kind, VmErrorKind::OutOfFuel), "[{name}] {kind:?}");
            e.machine_mut().config.fuel = None;
            assert_eq!(
                e.eval_to_string("(spin 10)").unwrap(),
                "done",
                "[{name}] engine poisoned after fuel fault, round {round}"
            );
            e.check_invariants()
                .unwrap_or_else(|m| panic!("[{name}] invariant violated: {m}"));
        }
    }
}

#[test]
fn nested_execution_depth_limit_is_a_clean_error() {
    let mut e = Engine::new(EngineConfig::default());
    // Winder thunks run in nested executions; a jump out of a
    // dynamic-wind extent must hit the depth limit when it is zero.
    let src = "(call/cc (lambda (k)
                 (dynamic-wind (lambda () 0) (lambda () (k 7)) (lambda () 1))))";
    e.machine_mut().config.max_nested_executions = 0;
    match e.eval(src).unwrap_err() {
        EngineError::Runtime(VmError {
            kind: VmErrorKind::NativeDepthExceeded { limit: 0 },
            ..
        }) => {}
        other => panic!("expected NativeDepthExceeded, got {other}"),
    }
    // Restored limit: the same engine runs the same program fine.
    e.machine_mut().config.max_nested_executions = 128;
    assert_eq!(e.eval_to_string(src).unwrap(), "7");
}

#[test]
fn deadline_is_enforced_and_recoverable() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define (forever) (forever))").unwrap();
    e.machine_mut().config.deadline = Some(Duration::from_millis(10));
    let kind = runtime_kind(e.eval("(forever)").unwrap_err());
    assert!(matches!(kind, VmErrorKind::DeadlineExceeded), "{kind:?}");
    e.machine_mut().config.deadline = None;
    assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3");
}

#[test]
fn runtime_errors_carry_backtraces() {
    let mut e = Engine::new(EngineConfig::default());
    e.eval("(define (inner x) (+ 1 (car x))) (define (outer x) (+ 1 (inner x)))")
        .unwrap();
    let err = match e.eval("(outer 5)").unwrap_err() {
        EngineError::Runtime(err) => err,
        other => panic!("expected runtime error, got {other}"),
    };
    assert!(matches!(err.kind, VmErrorKind::WrongType { .. }));
    let bt = err.backtrace.as_ref().expect("fault-time backtrace");
    assert!(!bt.frames.is_empty());
    // The rendered form names the active code objects and offsets.
    let detailed = err.detailed();
    assert!(detailed.contains("at "), "no backtrace in: {detailed}");
}

#[test]
fn injected_prim_fault_is_clean_and_recoverable() {
    let mut e = Engine::new(EngineConfig::default());
    e.machine_mut().config.fault_plan.fail_prim_at = Some(0);
    let kind = runtime_kind(e.eval("(display 1)").unwrap_err());
    assert!(
        matches!(kind, VmErrorKind::InjectedFault { at: 0, .. }),
        "{kind:?}"
    );
    e.machine_mut().config.fault_plan.fail_prim_at = None;
    assert_eq!(e.eval_to_string("(+ 1 2)").unwrap(), "3");
    assert!(e.machine_mut().stats.injected_faults >= 1);
}

#[test]
fn continuation_arity_errors_leave_the_engine_idle_and_reusable() {
    // A continuation takes exactly one value, whether a non-tail call, a
    // tail call or `apply` hands it the wrong number.
    let cases = [
        ("(call/cc (lambda (k) (+ 1 (k))))", 0),
        ("(call/cc (lambda (k) (+ 1 (k 1 2))))", 2),
        ("(call/cc (lambda (k) (k)))", 0),
        ("(call/cc (lambda (k) (k 1 2)))", 2),
        ("(call/cc (lambda (k) (+ 1 (apply k '()))))", 0),
        ("(call/cc (lambda (k) (apply k '(1 2))))", 2),
    ];
    for (name, config) in all_configs() {
        let mut e = Engine::new(config);
        for (src, got) in cases {
            let kind = runtime_kind(e.eval(src).unwrap_err());
            assert_eq!(
                kind,
                VmErrorKind::Arity {
                    who: "continuation".into(),
                    expected: "1".into(),
                    got,
                },
                "[{name}] {src}"
            );
            assert!(e.machine_mut().is_idle(), "[{name}] {src}");
            assert_eq!(
                e.eval_to_string("(+ 1 (call/cc (lambda (k) (+ 10 (k 41)))))")
                    .unwrap(),
                "42",
                "[{name}] engine poisoned after {src}"
            );
        }
    }
}
