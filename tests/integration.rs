//! Cross-crate integration tests: the umbrella crate, the workload
//! suite, the baselines, and the reference model working together.

use continuation_marks::{baseline, refmodel::RefInterp, workloads as wl, Engine, EngineConfig};

#[test]
fn full_pipeline_reader_to_result() {
    // Reader → expander → cp0 → attachment lowering → codegen → machine.
    let mut e = Engine::new(EngineConfig::default());
    let v = e
        .eval(
            r#"
            (define-syntax swap!
              (syntax-rules ()
                ((_ a b) (let ([tmp a]) (set! a b) (set! b tmp)))))
            (define x 1)
            (define y 2)
            (swap! x y)
            (with-continuation-mark 'x x
              (with-continuation-mark 'y y
                (list (continuation-mark-set-first #f 'x 0)
                      (continuation-mark-set-first #f 'y 0))))
            "#,
        )
        .unwrap();
    assert_eq!(v.write_string(), "(2 1)");
}

#[test]
fn workload_checksums_match_between_production_and_imitation() {
    for w in wl::attachment_micros() {
        let mut builtin = baseline::chez_engine();
        let mut imitate = baseline::imitation_engine();
        wl::load_into(&mut builtin, w);
        wl::load_into(&mut imitate, w);
        let a = wl::run_scaled(&mut builtin, w, w.small_n).unwrap();
        let b = wl::run_scaled(&mut imitate, w, w.small_n).unwrap();
        assert_eq!(a.write_string(), b.write_string(), "{}", w.name);
    }
}

#[test]
fn refmodel_agrees_on_a_marks_program() {
    let src = r#"
        (define (walk n)
          (if (zero? n)
              (mark-list 'depth)
              (with-continuation-mark 'depth n
                (car (cons (walk (- n 1)) 0)))))
        (walk 4)
    "#;
    let oracle = RefInterp::new().eval(src).unwrap();
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .eval("(define (mark-list k) (continuation-mark-set->list #f k))")
        .unwrap();
    assert_eq!(engine.eval_to_string(src).unwrap(), oracle);
}

#[test]
fn stats_expose_the_papers_mechanisms() {
    // set-loop must reify per iteration and fuse on the way back.
    let w = wl::attachment_micros()
        .iter()
        .find(|w| w.name == "set-loop")
        .unwrap();
    let mut e = Engine::new(EngineConfig::full());
    wl::load_into(&mut e, w);
    e.reset_stats();
    wl::run_scaled(&mut e, w, 100).unwrap();
    let stats = e.stats();
    assert!(stats.attachments_pushed >= 100, "{stats:?}");
    // The loop is in tail position: after the first reification the
    // frame stays reified, so reifications stay far below iterations.
    assert!(stats.reifications <= 5, "{stats:?}");

    // loop-arg-call reifies per iteration (case b) and fuses each return.
    let w = wl::attachment_micros()
        .iter()
        .find(|w| w.name == "loop-arg-call")
        .unwrap();
    let mut e = Engine::new(EngineConfig::full());
    wl::load_into(&mut e, w);
    e.reset_stats();
    wl::run_scaled(&mut e, w, 100).unwrap();
    let stats = e.stats();
    assert!(stats.reifications >= 100, "{stats:?}");
    assert!(stats.fusions >= 100, "{stats:?}");
    assert_eq!(stats.copies, 0, "{stats:?}");

    // With fusion disabled, the same workload copies instead.
    let mut e = Engine::new(EngineConfig::no_one_shot());
    wl::load_into(&mut e, w);
    e.reset_stats();
    wl::run_scaled(&mut e, w, 100).unwrap();
    let stats = e.stats();
    assert_eq!(stats.fusions, 0, "{stats:?}");
    assert!(stats.copies >= 100, "{stats:?}");
}

#[test]
fn old_racket_model_pays_on_capture_not_on_marks() {
    let mut e = baseline::old_racket_engine();
    e.eval(
        "(define (spin i)
           (if (zero? i) 'done
               (with-continuation-mark 'k i (spin (- i 1)))))
         (spin 1000)",
    )
    .unwrap();
    let stats = e.stats();
    // Marks in tail position cost nothing structural in this model.
    assert_eq!(stats.reifications, 0, "{stats:?}");
    assert!(stats.mark_stack_pushes > 0, "{stats:?}");
}

#[test]
fn engines_answer_the_papers_contract_example() {
    // §8.4: 20M-call shape at test scale: both engines agree on results,
    // imitation does strictly more continuation captures.
    let mut builtin = baseline::racket_cs_engine();
    let mut imitate = baseline::imitation_engine();
    for w in wl::contract() {
        wl::load_into(&mut builtin, w);
        wl::load_into(&mut imitate, w);
        let a = wl::run_scaled(&mut builtin, w, 50).unwrap();
        let b = wl::run_scaled(&mut imitate, w, 50).unwrap();
        assert_eq!(a.write_string(), b.write_string(), "{}", w.name);
    }
    assert!(imitate.stats().captures > builtin.stats().captures);
}

#[test]
fn deep_recursion_single_segment_invariants() {
    // Crossing many segments and returning must preserve results for
    // every engine variant.
    for config in [
        EngineConfig::full(),
        EngineConfig::no_one_shot(),
        EngineConfig::old_racket(),
    ] {
        let mut e = Engine::new(config);
        let v = e
            .eval("(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (length (build 50000))")
            .unwrap();
        assert_eq!(v.write_string(), "50000");
    }
}

#[test]
fn prompt_based_generator_composes_with_marks() {
    let mut e = Engine::new(EngineConfig::default());
    let v = e
        .eval(
            r#"
            (define (yield* v)
              (%call-with-composable-continuation 'g
                (lambda (k) (%abort 'g (cons v k)))))
            (define step
              (%call-with-prompt 'g
                (lambda ()
                  (with-continuation-mark 'inside 'yes
                    (car (cons (yield* (continuation-mark-set-first #f 'inside 'no)) 0))))
                (lambda (p) p)))
            (car step)
            "#,
        )
        .unwrap();
    assert_eq!(v.write_string(), "yes");
}

#[test]
fn deep_non_tail_recursion_past_the_segment_limit_matches_refmodel() {
    // Deeper than `segment_frame_limit` (2048): non-tail calls run on the
    // in-place frame path until the limit, then split the segment; marks
    // and a mark-observing value expression ride along every frame, and a
    // rest-arity callee carries its rest list across each split.
    let src = r#"
        (define (len l) (if (null? l) 0 (+ 1 (len (cdr l)))))
        (define (count n)
          (if (zero? n) 0 (+ 1 (count (- n 1)))))
        (define (grow n)
          (with-continuation-mark 'depth (+ 1 (mark-first 'depth 0))
            (if (zero? n)
                (cons (len (mark-list 'depth)) (mark-first 'depth 0))
                (car (cons (grow (- n 1)) '())))))
        (define (sum-args a b c n)
          (if (zero? n) (+ a b c) (+ 1 (sum-args c a b (- n 1)))))
        (define (rest-sum n . more)
          (if (zero? n)
              (car more)
              (+ (- (car more) (car (cdr more))) (rest-sum (- n 1) n 1))))
        (list (count 5000) (grow 3000) (sum-args 1 2 3 4100) (rest-sum 3000 0 0))
    "#;
    // The model has `mark-list`/`mark-first` built in; engines get shims.
    let oracle = RefInterp::new().eval(src).unwrap();
    let helpers = "(define (mark-list k) (continuation-mark-set->list #f k))
                   (define (mark-first k d) (continuation-mark-set-first #f k d))";
    for (name, config) in continuation_marks::all_configs() {
        let mut engine = Engine::new(config);
        engine.eval(helpers).unwrap();
        assert_eq!(engine.eval_to_string(src).unwrap(), oracle, "[{name}]");
        // `apply` applies its procedure from Rust; the model has no
        // `apply`, so this one is checked against its closed form.
        let applied = "(define (apply-depth n)
                         (if (zero? n) 0 (+ 1 (apply apply-depth (list (- n 1))))))
                       (apply-depth 3000)";
        engine.reset_stats();
        assert_eq!(engine.eval_to_string(applied).unwrap(), "3000", "[{name}]");
        assert!(
            engine.stats().overflow_splits > 0,
            "[{name}] no segment split"
        );
    }
}
