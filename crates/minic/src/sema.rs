//! Semantic analysis: name resolution and type checking.
//!
//! Fills in `Expr::ty` for every expression, inserts `ImplicitCast` nodes
//! for the int → double conversions C performs silently (these later
//! compile to `cvtsi2sd`, an SSE2 conversion-category instruction that the
//! binary-side analysis must see), and rejects programs outside the MiniC
//! subset.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;

/// Semantic errors.
#[derive(Clone, PartialEq, Debug)]
pub struct SemaError {
    pub span: Span,
    pub msg: String,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.msg)
    }
}

impl std::error::Error for SemaError {}

#[derive(Clone, Debug)]
struct FnSig {
    ret: Type,
    params: Vec<Type>,
}

struct Scope {
    vars: HashMap<String, Type>,
}

struct Sema {
    fns: HashMap<String, FnSig>,
    scopes: Vec<Scope>,
    current_ret: Type,
}

/// Run semantic analysis over a parsed program, typing it in place.
pub fn analyze(program: &mut Program) -> Result<(), SemaError> {
    let mut fns = HashMap::new();
    for item in &program.items {
        let (name, sig, span) = match item {
            Item::Func(f) => (
                f.name.clone(),
                FnSig {
                    ret: f.ret.clone(),
                    params: f.params.iter().map(|p| p.ty.clone()).collect(),
                },
                f.span,
            ),
            Item::Extern(e) => (
                e.name.clone(),
                FnSig {
                    ret: e.ret.clone(),
                    params: e.params.clone(),
                },
                e.span,
            ),
        };
        if fns.insert(name.clone(), sig).is_some() {
            return Err(SemaError {
                span,
                msg: format!("duplicate definition of `{name}`"),
            });
        }
    }
    let mut sema = Sema {
        fns,
        scopes: Vec::new(),
        current_ret: Type::Void,
    };
    for item in &mut program.items {
        if let Item::Func(f) = item {
            sema.check_function(f)?;
        }
    }
    Ok(())
}

impl Sema {
    fn push_scope(&mut self) {
        self.scopes.push(Scope {
            vars: HashMap::new(),
        });
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, ty: Type, span: Span) -> Result<(), SemaError> {
        let scope = self.scopes.last_mut().expect("no scope");
        if scope.vars.insert(name.to_string(), ty).is_some() {
            return Err(SemaError {
                span,
                msg: format!("redeclaration of `{name}` in the same scope"),
            });
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&Type> {
        self.scopes.iter().rev().find_map(|s| s.vars.get(name))
    }

    fn check_function(&mut self, f: &mut Func) -> Result<(), SemaError> {
        self.current_ret = f.ret.clone();
        self.push_scope();
        for p in &f.params {
            if p.ty == Type::Void {
                return Err(SemaError {
                    span: p.span,
                    msg: "parameter cannot have type void".to_string(),
                });
            }
            self.declare(&p.name, p.ty.clone(), p.span)?;
        }
        self.check_block(&mut f.body)?;
        self.pop_scope();
        Ok(())
    }

    fn check_block(&mut self, b: &mut Block) -> Result<(), SemaError> {
        self.push_scope();
        for s in &mut b.stmts {
            self.check_stmt(s)?;
        }
        self.pop_scope();
        Ok(())
    }

    fn check_stmt(&mut self, s: &mut Stmt) -> Result<(), SemaError> {
        let span = s.span;
        match &mut s.kind {
            StmtKind::Decl {
                name,
                ty,
                array_len,
                init,
            } => {
                if *ty == Type::Void {
                    return Err(SemaError {
                        span,
                        msg: "variable cannot have type void".to_string(),
                    });
                }
                let var_ty = if let Some(n) = array_len {
                    if *n <= 0 {
                        return Err(SemaError {
                            span,
                            msg: "array length must be positive".to_string(),
                        });
                    }
                    if ty.is_pointer() {
                        return Err(SemaError {
                            span,
                            msg: "arrays of pointers are not supported".to_string(),
                        });
                    }
                    if init.is_some() {
                        return Err(SemaError {
                            span,
                            msg: "array declarations cannot have initializers".to_string(),
                        });
                    }
                    Type::ptr_to(ty.clone())
                } else {
                    ty.clone()
                };
                if let Some(e) = init {
                    self.check_expr(e)?;
                    coerce(e, &var_ty)?;
                }
                self.declare(name, var_ty, span)?;
            }
            StmtKind::Expr(e) => {
                self.check_expr(e)?;
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_expr(cond)?;
                require_numeric(cond)?;
                self.check_stmt(then_branch)?;
                if let Some(e) = else_branch {
                    self.check_stmt(e)?;
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push_scope(); // for-scope holds the induction variable
                if let Some(i) = init {
                    self.check_stmt(i)?;
                }
                if let Some(c) = cond {
                    self.check_expr(c)?;
                    require_numeric(c)?;
                }
                if let Some(st) = step {
                    self.check_expr(st)?;
                }
                self.check_stmt(body)?;
                self.pop_scope();
            }
            StmtKind::While { cond, body } => {
                self.check_expr(cond)?;
                require_numeric(cond)?;
                self.check_stmt(body)?;
            }
            StmtKind::Return(value) => match (value, self.current_ret.clone()) {
                (None, Type::Void) => {}
                (None, ret) => {
                    return Err(SemaError {
                        span,
                        msg: format!("function returns {ret}, but `return;` has no value"),
                    })
                }
                (Some(_), Type::Void) => {
                    return Err(SemaError {
                        span,
                        msg: "void function cannot return a value".to_string(),
                    })
                }
                (Some(e), ret) => {
                    self.check_expr(e)?;
                    coerce(e, &ret)?;
                }
            },
            StmtKind::Block(b) => self.check_block(b)?,
            StmtKind::Empty => {}
        }
        Ok(())
    }

    fn check_expr(&mut self, e: &mut Expr) -> Result<(), SemaError> {
        let span = e.span;
        let ty = match &mut e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::FloatLit(_) => Type::Double,
            ExprKind::Var(name) => self.lookup(name).cloned().ok_or_else(|| SemaError {
                span,
                msg: format!("use of undeclared variable `{name}`"),
            })?,
            ExprKind::Assign { op, target, value } => {
                self.check_expr(target)?;
                self.check_expr(value)?;
                let t = target.ty.clone();
                if t.is_pointer() && *op != AssignOp::Set {
                    return Err(SemaError {
                        span,
                        msg: "compound assignment to pointer".to_string(),
                    });
                }
                if !t.is_numeric() && !t.is_pointer() {
                    return Err(SemaError {
                        span,
                        msg: format!("cannot assign to value of type {t}"),
                    });
                }
                coerce(value, &t)?;
                t
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.check_expr(lhs)?;
                self.check_expr(rhs)?;
                let (lt, rt) = (lhs.ty.clone(), rhs.ty.clone());
                if lt.is_pointer() || rt.is_pointer() {
                    return Err(SemaError {
                        span,
                        msg: "pointer arithmetic is not supported (use indexing)".to_string(),
                    });
                }
                match op {
                    BinOp::Mod => {
                        coerce(lhs, &Type::Int)?;
                        coerce(rhs, &Type::Int)?;
                        Type::Int
                    }
                    BinOp::And | BinOp::Or => {
                        require_numeric(lhs)?;
                        require_numeric(rhs)?;
                        Type::Int
                    }
                    _ => {
                        let common = if lt == Type::Double || rt == Type::Double {
                            Type::Double
                        } else {
                            Type::Int
                        };
                        coerce(lhs, &common)?;
                        coerce(rhs, &common)?;
                        if op.is_comparison() {
                            Type::Int
                        } else {
                            common
                        }
                    }
                }
            }
            ExprKind::Unary { op, operand } => {
                self.check_expr(operand)?;
                require_numeric(operand)?;
                match op {
                    UnOp::Neg => operand.ty.clone(),
                    UnOp::Not => Type::Int,
                }
            }
            ExprKind::Index { base, index } => {
                self.check_expr(base)?;
                self.check_expr(index)?;
                let elem = base.ty.pointee().cloned().ok_or_else(|| SemaError {
                    span,
                    msg: format!("cannot index value of type {}", base.ty),
                })?;
                coerce(index, &Type::Int)?;
                elem
            }
            ExprKind::Call { name, args } => {
                let sig = self.fns.get(name).cloned().ok_or_else(|| SemaError {
                    span,
                    msg: format!("call to undeclared function `{name}`"),
                })?;
                if args.len() != sig.params.len() {
                    return Err(SemaError {
                        span,
                        msg: format!(
                            "`{name}` expects {} argument(s), got {}",
                            sig.params.len(),
                            args.len()
                        ),
                    });
                }
                for (a, pt) in args.iter_mut().zip(&sig.params) {
                    self.check_expr(a)?;
                    coerce(a, pt)?;
                }
                sig.ret
            }
            ExprKind::Cast { ty, operand } => {
                self.check_expr(operand)?;
                if !ty.is_numeric() || !operand.ty.is_numeric() {
                    return Err(SemaError {
                        span,
                        msg: format!("cannot cast {} to {}", operand.ty, ty),
                    });
                }
                ty.clone()
            }
            ExprKind::IncDec { target, .. } => {
                self.check_expr(target)?;
                if target.ty != Type::Int {
                    return Err(SemaError {
                        span,
                        msg: "++/-- requires an int lvalue".to_string(),
                    });
                }
                Type::Int
            }
            ExprKind::ImplicitCast { ty, .. } => ty.clone(),
        };
        e.ty = ty;
        Ok(())
    }
}

/// Coerce `e` to `target`, inserting an implicit int → double cast if
/// needed. Narrowing (double → int) requires an explicit cast.
fn coerce(e: &mut Expr, target: &Type) -> Result<(), SemaError> {
    if e.ty == *target {
        return Ok(());
    }
    if e.ty == Type::Int && *target == Type::Double {
        let span = e.span;
        let inner = std::mem::replace(e, Expr::new(ExprKind::IntLit(0), span));
        *e = Expr {
            kind: ExprKind::ImplicitCast {
                ty: Type::Double,
                operand: Box::new(inner),
            },
            span,
            ty: Type::Double,
        };
        return Ok(());
    }
    Err(SemaError {
        span: e.span,
        msg: format!("type mismatch: expected {target}, found {}", e.ty),
    })
}

fn require_numeric(e: &Expr) -> Result<(), SemaError> {
    if e.ty.is_numeric() {
        Ok(())
    } else {
        Err(SemaError {
            span: e.span,
            msg: format!("expected a numeric value, found {}", e.ty),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<Program, SemaError> {
        let mut p = parse_program(src).unwrap();
        analyze(&mut p).map(|_| p)
    }

    #[test]
    fn types_simple_function() {
        let p = check("double f(int n) { return n; }").unwrap();
        let f = p.function("f").unwrap();
        let StmtKind::Return(Some(e)) = &f.body.stmts[0].kind else {
            panic!()
        };
        // implicit int→double cast inserted
        assert!(matches!(e.kind, ExprKind::ImplicitCast { .. }));
        assert_eq!(e.ty, Type::Double);
    }

    #[test]
    fn scoping_rules() {
        // inner scope shadows; use-after-scope fails
        assert!(check("void f() { { int x = 1; } x = 2; }").is_err());
        assert!(check("void f() { int x = 1; { int x = 2; x = 3; } x = 4; }").is_ok());
        assert!(check("void f() { int x; int x; }").is_err());
        // for induction variable is scoped to the loop
        assert!(check("void f(int n) { for (int i = 0; i < n; i++) {;} i = 1; }").is_err());
    }

    #[test]
    fn undeclared_rejected() {
        assert!(check("void f() { x = 1; }").is_err());
        assert!(check("void f() { g(); }").is_err());
    }

    #[test]
    fn arg_checking() {
        assert!(check("extern double sqrt(double); void f() { sqrt(1.0, 2.0); }").is_err());
        // int literal arg coerces to double param
        let p = check("extern double sqrt(double); void f(double* a) { a[0] = sqrt(4); }").unwrap();
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[0].kind else {
            panic!()
        };
        let ExprKind::Assign { value, .. } = &e.kind else {
            panic!()
        };
        let ExprKind::Call { args, .. } = &value.kind else {
            panic!()
        };
        assert!(matches!(args[0].kind, ExprKind::ImplicitCast { .. }));
    }

    #[test]
    fn narrowing_requires_cast() {
        assert!(check("void f(double d) { int i = d; }").is_err());
        assert!(check("void f(double d) { int i = (int)d; }").is_ok());
    }

    #[test]
    fn pointer_rules() {
        assert!(check("void f(double* a, double* b) { a = a + b; }").is_err());
        assert!(check("void f(double* a) { a[0] = a[1]; }").is_ok());
        assert!(check("void f(int n) { n[0] = 1; }").is_err());
        assert!(check("void f(double* a, double* b) { a = b; }").is_ok());
        assert!(check("void f(double* a) { a += 1; }").is_err());
    }

    #[test]
    fn array_declarations() {
        let p = check("void f() { double t[4]; t[0] = 1.0; }").unwrap();
        let _ = p;
        assert!(check("void f() { double t[0]; }").is_err());
        assert!(check("void f() { double t[4] = 0.0; }").is_err());
    }

    #[test]
    fn mod_requires_ints() {
        assert!(check("void f(double d) { double e = d % 2.0; }").is_err());
        assert!(check("void f(int i) { int j = i % 2; }").is_ok());
    }

    #[test]
    fn incdec_requires_int() {
        assert!(check("void f(double d) { d++; }").is_err());
        assert!(check("void f(int i) { i++; }").is_ok());
    }

    #[test]
    fn return_type_rules() {
        assert!(check("void f() { return 1; }").is_err());
        assert!(check("int f() { return; }").is_err());
        assert!(check("int f() { return 1; }").is_ok());
    }

    #[test]
    fn duplicate_functions_rejected() {
        assert!(check("void f() {} void f() {}").is_err());
        assert!(check("extern double sqrt(double); double sqrt(double x) { return x; }").is_err());
    }

    #[test]
    fn comparison_types() {
        let p = check("int f(double a, int b) { return a < b; }").unwrap();
        let f = p.function("f").unwrap();
        let StmtKind::Return(Some(e)) = &f.body.stmts[0].kind else {
            panic!()
        };
        assert_eq!(e.ty, Type::Int);
        // b coerced to double inside the comparison
        let ExprKind::Binary { rhs, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(rhs.ty, Type::Double);
    }
}
