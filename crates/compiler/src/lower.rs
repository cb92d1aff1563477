//! Lowering passes that run between cp0 and codegen:
//!
//! 1. **Attachment recognition** (§7.1–§7.2): calls to
//!    `call-setting/-getting/-consuming-continuation-attachment` with an
//!    *immediate lambda* become dedicated AST nodes the code generator can
//!    categorize by position; other uses stay ordinary calls (handled by
//!    the uniform control natives). `current-continuation-attachments` in
//!    operator-less reference position also stays a call.
//! 2. **`with-continuation-mark` lowering**: into the paper's
//!    consume-then-set attachment expansion (attachments model), into
//!    uniform native calls (when the recognition optimization is
//!    disabled — the "no opt" variant), or left for codegen (eager
//!    mark-stack model, where the instruction set differs).
//! 3. **Assignment conversion**: mutated locals are boxed so closures can
//!    share them.

use std::collections::HashSet;

use cm_sexpr::sym;
use cm_vm::{PrimOp, Value};

use crate::ast::{Expr, LambdaExpr, VarId};
use crate::CompilerConfig;

/// A monotone counter for fresh [`VarId`]s, threaded through the passes.
#[derive(Debug)]
pub struct VarSupply {
    next: VarId,
}

impl VarSupply {
    /// Starts allocating above every id the expander produced.
    pub fn starting_at(next: VarId) -> VarSupply {
        VarSupply { next }
    }

    /// A fresh variable id.
    pub fn fresh(&mut self) -> VarId {
        let v = self.next;
        self.next += 1;
        v
    }
}

/// Runs all lowering passes.
pub fn lower(e: Expr, cfg: &CompilerConfig, vars: &mut VarSupply) -> Expr {
    let e = if cfg.attachment_opt {
        recognize_attachment_ops(e)
    } else {
        e
    };
    let e = lower_wcm(e, cfg, vars);
    convert_assignments(e, vars)
}

// ----------------------------------------------------------------------
// Attachment-primitive recognition
// ----------------------------------------------------------------------

fn recognize_attachment_ops(e: Expr) -> Expr {
    map(e, &mut |e| {
        let Expr::Call { rator, rands } = e else {
            return e;
        };
        let Expr::GlobalRef(s) = *rator else {
            return Expr::Call { rator, rands };
        };
        match s.name() {
            "call-setting-continuation-attachment" if rands.len() == 2 => {
                if let [val, Expr::Lambda(l)] = &rands[..] {
                    if l.params.is_empty() && l.rest.is_none() {
                        return Expr::SetAttachment {
                            val: Box::new(val.clone()),
                            body: Box::new(l.body.clone()),
                        };
                    }
                }
            }
            "call-getting-continuation-attachment" | "call-consuming-continuation-attachment"
                if rands.len() == 2 =>
            {
                if let [dflt, Expr::Lambda(l)] = &rands[..] {
                    if l.params.len() == 1 && l.rest.is_none() {
                        return Expr::GetAttachment {
                            dflt: Box::new(dflt.clone()),
                            var: l.params[0],
                            body: Box::new(l.body.clone()),
                            consume: s.name() == "call-consuming-continuation-attachment",
                        };
                    }
                }
            }
            "current-continuation-attachments" if rands.is_empty() => {
                return Expr::CurrentAttachments;
            }
            _ => {}
        }
        Expr::Call {
            rator: Box::new(Expr::GlobalRef(s)),
            rands,
        }
    })
}

// ----------------------------------------------------------------------
// with-continuation-mark lowering
// ----------------------------------------------------------------------

fn lower_wcm(e: Expr, cfg: &CompilerConfig, vars: &mut VarSupply) -> Expr {
    map(e, &mut |e| {
        let Expr::Wcm { key, val, body } = e else {
            return e;
        };
        if cfg.eager_marks() {
            // Codegen handles Wcm directly in the eager model.
            return Expr::Wcm { key, val, body };
        }
        // The §7.1 expansion:
        //   (call-consuming-continuation-attachment #f
        //     (lambda (dict)
        //       (call-setting-continuation-attachment
        //         ($wcm-merge dict key val)
        //         (lambda () body))))
        // The consume removes the frame's attachment, so `key` and `val`
        // must run first when they could observe marks: they are bound
        // to fresh locals around the expansion.
        if !marks_blind(&key) || !marks_blind(&val) {
            let (k, v) = (vars.fresh(), vars.fresh());
            let inner = lower_wcm_expansion(Expr::LocalRef(k), Expr::LocalRef(v), body, cfg, vars);
            return Expr::Let {
                bindings: vec![(k, *key), (v, *val)],
                body: Box::new(inner),
            };
        }
        lower_wcm_expansion(*key, *val, body, cfg, vars)
    })
}

/// Whether evaluating `e` can neither observe nor change continuation
/// marks: constants, variable references, lambdas, and inlined
/// primitives (attachment-transparent by construction) over those.
fn marks_blind(e: &Expr) -> bool {
    match e {
        Expr::Quote(_) | Expr::LocalRef(_) | Expr::GlobalRef(_) | Expr::Lambda(_) => true,
        Expr::PrimApp { rands, .. } => rands.iter().all(marks_blind),
        _ => false,
    }
}

/// The attachments-model expansion of one `with-continuation-mark`
/// whose `key` and `val` are safe to evaluate after the consume.
fn lower_wcm_expansion(
    key: Expr,
    val: Expr,
    body: Box<Expr>,
    cfg: &CompilerConfig,
    vars: &mut VarSupply,
) -> Expr {
    let dict = vars.fresh();
    let merged = Expr::Call {
        rator: Box::new(Expr::GlobalRef(sym("$wcm-merge"))),
        rands: vec![Expr::LocalRef(dict), key, val],
    };
    if cfg.attachment_opt {
        Expr::GetAttachment {
            dflt: Box::new(Expr::Quote(Value::Bool(false))),
            var: dict,
            body: Box::new(Expr::SetAttachment {
                val: Box::new(merged),
                body,
            }),
            consume: true,
        }
    } else {
        // Uniform expansion through the control natives, with real
        // closure allocation — the unoptimized `call/cm` path.
        let inner_thunk = Expr::Lambda(std::rc::Rc::new(LambdaExpr {
            name: "$wcm-body".into(),
            params: vec![],
            rest: None,
            body: *body,
        }));
        let setter = Expr::Call {
            rator: Box::new(Expr::GlobalRef(sym("$call-setting-attachment"))),
            rands: vec![merged, inner_thunk],
        };
        let receiver = Expr::Lambda(std::rc::Rc::new(LambdaExpr {
            name: "$wcm-consume".into(),
            params: vec![dict],
            rest: None,
            body: setter,
        }));
        Expr::Call {
            rator: Box::new(Expr::GlobalRef(sym("$call-consuming-attachment"))),
            rands: vec![Expr::Quote(Value::Bool(false)), receiver],
        }
    }
}

// ----------------------------------------------------------------------
// Assignment conversion
// ----------------------------------------------------------------------

fn convert_assignments(e: Expr, vars: &mut VarSupply) -> Expr {
    let mut mutated: HashSet<VarId> = HashSet::new();
    e.walk(&mut |x| {
        if let Expr::SetLocal(v, _) = x {
            mutated.insert(*v);
        }
    });
    if mutated.is_empty() {
        return e;
    }
    convert(e, &mutated, vars)
}

fn convert(e: Expr, boxed: &HashSet<VarId>, vars: &mut VarSupply) -> Expr {
    match e {
        Expr::LocalRef(v) if boxed.contains(&v) => Expr::PrimApp {
            op: PrimOp::Unbox,
            rands: vec![Expr::LocalRef(v)],
        },
        Expr::SetLocal(v, rhs) => {
            debug_assert!(boxed.contains(&v));
            Expr::PrimApp {
                op: PrimOp::SetBox,
                rands: vec![Expr::LocalRef(v), convert(*rhs, boxed, vars)],
            }
        }
        Expr::Let { bindings, body } => Expr::Let {
            bindings: bindings
                .into_iter()
                .map(|(v, init)| {
                    let init = convert(init, boxed, vars);
                    if boxed.contains(&v) {
                        (
                            v,
                            Expr::PrimApp {
                                op: PrimOp::BoxNew,
                                rands: vec![init],
                            },
                        )
                    } else {
                        (v, init)
                    }
                })
                .collect(),
            body: Box::new(convert(*body, boxed, vars)),
        },
        Expr::Lambda(l) => {
            let l = (*l).clone();
            let mut body = convert(l.body, boxed, vars);
            let mut params = Vec::with_capacity(l.params.len());
            let mut rebinds: Vec<(VarId, Expr)> = Vec::new();
            for p in l.params {
                if boxed.contains(&p) {
                    let fresh = vars.fresh();
                    params.push(fresh);
                    rebinds.push((
                        p,
                        Expr::PrimApp {
                            op: PrimOp::BoxNew,
                            rands: vec![Expr::LocalRef(fresh)],
                        },
                    ));
                } else {
                    params.push(p);
                }
            }
            let rest = l.rest.map(|r| {
                if boxed.contains(&r) {
                    let fresh = vars.fresh();
                    rebinds.push((
                        r,
                        Expr::PrimApp {
                            op: PrimOp::BoxNew,
                            rands: vec![Expr::LocalRef(fresh)],
                        },
                    ));
                    fresh
                } else {
                    r
                }
            });
            if !rebinds.is_empty() {
                body = Expr::Let {
                    bindings: rebinds,
                    body: Box::new(body),
                };
            }
            Expr::Lambda(std::rc::Rc::new(LambdaExpr {
                name: l.name,
                params,
                rest,
                body,
            }))
        }
        Expr::GetAttachment {
            dflt,
            var,
            body,
            consume,
        } => {
            let dflt = Box::new(convert(*dflt, boxed, vars));
            let body = convert(*body, boxed, vars);
            if boxed.contains(&var) {
                let fresh = vars.fresh();
                Expr::GetAttachment {
                    dflt,
                    var: fresh,
                    body: Box::new(Expr::Let {
                        bindings: vec![(
                            var,
                            Expr::PrimApp {
                                op: PrimOp::BoxNew,
                                rands: vec![Expr::LocalRef(fresh)],
                            },
                        )],
                        body: Box::new(body),
                    }),
                    consume,
                }
            } else {
                Expr::GetAttachment {
                    dflt,
                    var,
                    body: Box::new(body),
                    consume,
                }
            }
        }
        // Structural recursion for everything else.
        Expr::If(t, c, a) => Expr::If(
            Box::new(convert(*t, boxed, vars)),
            Box::new(convert(*c, boxed, vars)),
            Box::new(convert(*a, boxed, vars)),
        ),
        Expr::Seq(es) => Expr::Seq(es.into_iter().map(|x| convert(x, boxed, vars)).collect()),
        Expr::SetGlobal(s, x) => Expr::SetGlobal(s, Box::new(convert(*x, boxed, vars))),
        Expr::Call { rator, rands } => Expr::Call {
            rator: Box::new(convert(*rator, boxed, vars)),
            rands: rands.into_iter().map(|x| convert(x, boxed, vars)).collect(),
        },
        Expr::PrimApp { op, rands } => Expr::PrimApp {
            op,
            rands: rands.into_iter().map(|x| convert(x, boxed, vars)).collect(),
        },
        Expr::Wcm { key, val, body } => Expr::Wcm {
            key: Box::new(convert(*key, boxed, vars)),
            val: Box::new(convert(*val, boxed, vars)),
            body: Box::new(convert(*body, boxed, vars)),
        },
        Expr::SetAttachment { val, body } => Expr::SetAttachment {
            val: Box::new(convert(*val, boxed, vars)),
            body: Box::new(convert(*body, boxed, vars)),
        },
        leaf => leaf,
    }
}

/// Bottom-up map, shared with cp0 style passes (duplicated locally to
/// avoid a public helper in the AST).
fn map(e: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let e = match e {
        Expr::If(t, c, a) => Expr::If(
            Box::new(map(*t, f)),
            Box::new(map(*c, f)),
            Box::new(map(*a, f)),
        ),
        Expr::Seq(es) => Expr::Seq(es.into_iter().map(|x| map(x, f)).collect()),
        Expr::Let { bindings, body } => Expr::Let {
            bindings: bindings.into_iter().map(|(v, x)| (v, map(x, f))).collect(),
            body: Box::new(map(*body, f)),
        },
        Expr::Lambda(l) => {
            let l = (*l).clone();
            Expr::Lambda(std::rc::Rc::new(LambdaExpr {
                body: map(l.body, f),
                ..l
            }))
        }
        Expr::SetLocal(v, x) => Expr::SetLocal(v, Box::new(map(*x, f))),
        Expr::SetGlobal(s, x) => Expr::SetGlobal(s, Box::new(map(*x, f))),
        Expr::Call { rator, rands } => Expr::Call {
            rator: Box::new(map(*rator, f)),
            rands: rands.into_iter().map(|x| map(x, f)).collect(),
        },
        Expr::PrimApp { op, rands } => Expr::PrimApp {
            op,
            rands: rands.into_iter().map(|x| map(x, f)).collect(),
        },
        Expr::Wcm { key, val, body } => Expr::Wcm {
            key: Box::new(map(*key, f)),
            val: Box::new(map(*val, f)),
            body: Box::new(map(*body, f)),
        },
        Expr::SetAttachment { val, body } => Expr::SetAttachment {
            val: Box::new(map(*val, f)),
            body: Box::new(map(*body, f)),
        },
        Expr::GetAttachment {
            dflt,
            var,
            body,
            consume,
        } => Expr::GetAttachment {
            dflt: Box::new(map(*dflt, f)),
            var,
            body: Box::new(map(*body, f)),
            consume,
        },
        leaf => leaf,
    };
    f(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::TopForm;
    use cm_sexpr::parse_str;

    fn lower_src(src: &str, cfg: &CompilerConfig) -> Expr {
        let data = parse_str(src).unwrap();
        let mut ex = crate::expand::Expander::new();
        let forms = ex.expand_program(&data).unwrap();
        let TopForm::Expr(e) = forms.into_iter().last().unwrap() else {
            panic!("expected expression")
        };
        let mut vars = VarSupply::starting_at(10_000);
        lower(e, cfg, &mut vars)
    }

    #[test]
    fn recognizes_setting_with_immediate_lambda() {
        let e = lower_src(
            "(call-setting-continuation-attachment 1 (lambda () (f)))",
            &CompilerConfig::default(),
        );
        assert!(matches!(e, Expr::SetAttachment { .. }), "{e:?}");
    }

    #[test]
    fn recognizes_getting_and_consuming() {
        let e = lower_src(
            "(call-getting-continuation-attachment 0 (lambda (x) x))",
            &CompilerConfig::default(),
        );
        let Expr::GetAttachment { consume, .. } = e else {
            panic!()
        };
        assert!(!consume);
        let e = lower_src(
            "(call-consuming-continuation-attachment 0 (lambda (x) x))",
            &CompilerConfig::default(),
        );
        assert!(matches!(e, Expr::GetAttachment { consume: true, .. }));
    }

    #[test]
    fn non_immediate_lambda_stays_a_call() {
        // Paper footnote 5: only immediate-lambda uses are specialized.
        let e = lower_src(
            "(call-setting-continuation-attachment 1 thunk)",
            &CompilerConfig::default(),
        );
        assert!(matches!(e, Expr::Call { .. }), "{e:?}");
    }

    #[test]
    fn no_opt_leaves_calls_and_expands_wcm_uniformly() {
        let cfg = CompilerConfig {
            attachment_opt: false,
            ..CompilerConfig::default()
        };
        let e = lower_src(
            "(call-setting-continuation-attachment 1 (lambda () (f)))",
            &cfg,
        );
        assert!(matches!(e, Expr::Call { .. }), "{e:?}");
        let e = lower_src("(with-continuation-mark 'k 1 (f))", &cfg);
        // Uniform expansion: a call to $call-consuming-attachment.
        let Expr::Call { rator, .. } = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(&**rator, Expr::GlobalRef(s) if s.name() == "$call-consuming-attachment"));
    }

    #[test]
    fn wcm_lowers_to_consume_then_set() {
        let e = lower_src(
            "(with-continuation-mark 'k 1 (f))",
            &CompilerConfig::default(),
        );
        let Expr::GetAttachment { consume, body, .. } = e else {
            panic!("expected consume/set expansion")
        };
        assert!(consume);
        assert!(matches!(*body, Expr::SetAttachment { .. }));
    }

    #[test]
    fn eager_model_keeps_wcm_node() {
        let cfg = CompilerConfig {
            mark_model: cm_vm::MarkModel::EagerMarkStack,
            ..CompilerConfig::default()
        };
        let e = lower_src("(with-continuation-mark 'k 1 (f))", &cfg);
        assert!(matches!(e, Expr::Wcm { .. }));
    }

    #[test]
    fn assignment_conversion_boxes_mutated_locals() {
        let e = lower_src("(let ([x 0]) (set! x 1) x)", &CompilerConfig::default());
        // The binding becomes (box 0), the ref becomes (unbox x).
        let Expr::Let { bindings, body } = &e else {
            panic!("{e:?}")
        };
        assert!(matches!(
            bindings[0].1,
            Expr::PrimApp {
                op: PrimOp::BoxNew,
                ..
            }
        ));
        let Expr::Seq(es) = &**body else {
            panic!("{e:?}")
        };
        assert!(matches!(
            es.last().unwrap(),
            Expr::PrimApp {
                op: PrimOp::Unbox,
                ..
            }
        ));
    }

    #[test]
    fn mutated_params_are_reboxed() {
        let e = lower_src("(lambda (x) (set! x 1) x)", &CompilerConfig::default());
        let Expr::Lambda(l) = &e else { panic!() };
        assert!(matches!(&l.body, Expr::Let { .. }));
    }

    #[test]
    fn unmutated_code_is_untouched() {
        let e = lower_src("(lambda (x) x)", &CompilerConfig::default());
        let Expr::Lambda(l) = &e else { panic!() };
        assert!(matches!(l.body, Expr::LocalRef(_)));
    }
}
