//! The MiniC abstract syntax tree.
//!
//! Node shapes intentionally parallel the ROSE IR the paper works with:
//! a `for` statement has distinct init/cond/step children (the SCoP that
//! §III-B's bottom-up traversal collects), statements carry line/column
//! spans, and annotations ride on statements.

use std::collections::BTreeMap;
use std::fmt;

/// Source position (1-based line, 1-based column).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(line: u32, col: u32) -> Span {
        Span { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// MiniC types.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Type {
    Int,
    Double,
    Void,
    Ptr(Box<Type>),
}

impl Type {
    pub fn ptr_to(inner: Type) -> Type {
        Type::Ptr(Box::new(inner))
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Double)
    }

    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Ptr(_))
    }

    /// Element type for indexing a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Double => write!(f, "double"),
            Type::Void => write!(f, "void"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
        }
    }
}

/// A `#pragma @Annotation { ... }` value.
#[derive(Clone, PartialEq, Debug)]
pub enum AnnotValue {
    /// Numeric literal (`{branch_frac: 0.3}`).
    Num(f64),
    /// Identifier — becomes a model parameter (`{lp_iters: n_iters}`).
    Ident(String),
    /// `yes`/`no` flag (`{skip: yes}`).
    Flag(bool),
}

/// A parsed annotation: ordered `key: value` entries.
///
/// Keys understood by `mira-core` (paper §III-C4):
/// `lp_iters` (iteration count override), `lp_init` / `lp_cond`
/// (substitutes for unanalyzable loop bounds), `branch_frac` (estimated
/// fraction of iterations entering a branch), `skip` (exclude the subtree).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Annotation {
    pub entries: BTreeMap<String, AnnotValue>,
    pub span: Span,
}

impl Annotation {
    pub fn get(&self, key: &str) -> Option<&AnnotValue> {
        self.entries.get(key)
    }

    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some(AnnotValue::Flag(true)))
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        use BinOp::*;
        matches!(self, Lt | Le | Gt | Ge | Eq | Ne)
    }

    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    pub fn symbol(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Mod => "%",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            And => "&&",
            Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    Neg,
    Not,
}

/// Assignment operators (`=`, `+=`, `-=`, `*=`, `/=`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
}

/// Expression node.
#[derive(Clone, PartialEq, Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
    /// Filled by semantic analysis.
    pub ty: Type,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Expr {
        Expr {
            kind,
            span,
            ty: Type::Void,
        }
    }

    /// Is this expression a valid assignment target?
    pub fn is_lvalue(&self) -> bool {
        matches!(self.kind, ExprKind::Var(_) | ExprKind::Index { .. })
    }
}

/// Expression variants.
#[derive(Clone, PartialEq, Debug)]
pub enum ExprKind {
    IntLit(i64),
    FloatLit(f64),
    Var(String),
    Assign {
        op: AssignOp,
        target: Box<Expr>,
        value: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Unary {
        op: UnOp,
        operand: Box<Expr>,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    Call {
        name: String,
        args: Vec<Expr>,
    },
    Cast {
        ty: Type,
        operand: Box<Expr>,
    },
    /// `++x` / `x++` / `--x` / `x--`.
    IncDec {
        prefix: bool,
        increment: bool,
        target: Box<Expr>,
    },
    /// Implicit conversion inserted by sema (int → double).
    ImplicitCast {
        ty: Type,
        operand: Box<Expr>,
    },
}

/// Statement node; `annotation` holds the `#pragma @Annotation` attached
/// immediately above, if any.
#[derive(Clone, PartialEq, Debug)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
    pub annotation: Option<Annotation>,
}

impl Stmt {
    pub fn new(kind: StmtKind, span: Span) -> Stmt {
        Stmt {
            kind,
            span,
            annotation: None,
        }
    }
}

/// Statement variants.
#[derive(Clone, PartialEq, Debug)]
pub enum StmtKind {
    /// `int x;`, `double a[100];`, `int i = 0;`
    Decl {
        name: String,
        ty: Type,
        array_len: Option<i64>,
        init: Option<Expr>,
    },
    Expr(Expr),
    If {
        cond: Expr,
        then_branch: Box<Stmt>,
        else_branch: Option<Box<Stmt>>,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
    },
    Return(Option<Expr>),
    Block(Block),
    Empty,
}

/// A `{ ... }` block.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// A function parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct Param {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// A function definition.
#[derive(Clone, PartialEq, Debug)]
pub struct Func {
    pub name: String,
    pub ret: Type,
    pub params: Vec<Param>,
    pub body: Block,
    pub span: Span,
}

/// An `extern` function declaration (no body in this translation unit).
#[derive(Clone, PartialEq, Debug)]
pub struct ExternDecl {
    pub name: String,
    pub ret: Type,
    pub params: Vec<Type>,
    pub span: Span,
}

/// Top-level items.
#[derive(Clone, PartialEq, Debug)]
pub enum Item {
    Func(Func),
    Extern(ExternDecl),
}

/// A translation unit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Program {
    pub items: Vec<Item>,
}

impl Program {
    pub fn functions(&self) -> impl Iterator<Item = &Func> {
        self.items.iter().filter_map(|i| match i {
            Item::Func(f) => Some(f),
            _ => None,
        })
    }

    pub fn externs(&self) -> impl Iterator<Item = &ExternDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Extern(e) => Some(e),
            _ => None,
        })
    }

    pub fn function(&self, name: &str) -> Option<&Func> {
        self.functions().find(|f| f.name == name)
    }

    pub fn is_extern(&self, name: &str) -> bool {
        self.externs().any(|e| e.name == name)
    }
}

/// Statement counting used by the Table-I loop-coverage survey: counts
/// "executable" statements (declarations with initializers, expression
/// statements, returns, and control-flow headers).
pub fn count_statements(block: &Block) -> (usize, usize) {
    fn stmt_counts(s: &Stmt, in_loop: bool, total: &mut usize, in_loops: &mut usize) {
        let bump = |in_loop: bool, total: &mut usize, in_loops: &mut usize| {
            *total += 1;
            if in_loop {
                *in_loops += 1;
            }
        };
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if init.is_some() {
                    bump(in_loop, total, in_loops);
                }
            }
            StmtKind::Expr(_) | StmtKind::Return(_) => bump(in_loop, total, in_loops),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                bump(in_loop, total, in_loops);
                stmt_counts(then_branch, in_loop, total, in_loops);
                if let Some(e) = else_branch {
                    stmt_counts(e, in_loop, total, in_loops);
                }
            }
            StmtKind::For { init, body, .. } => {
                bump(in_loop, total, in_loops);
                if let Some(i) = init {
                    stmt_counts(i, true, total, in_loops);
                }
                stmt_counts(body, true, total, in_loops);
            }
            StmtKind::While { body, .. } => {
                bump(in_loop, total, in_loops);
                stmt_counts(body, true, total, in_loops);
            }
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    stmt_counts(s, in_loop, total, in_loops);
                }
            }
            StmtKind::Empty => {}
        }
    }
    let mut total = 0;
    let mut in_loops = 0;
    for s in &block.stmts {
        stmt_counts(s, false, &mut total, &mut in_loops);
    }
    (total, in_loops)
}

/// Count loop statements (`for` + `while`) in a block, recursively.
pub fn count_loops(block: &Block) -> usize {
    fn rec(s: &Stmt) -> usize {
        match &s.kind {
            StmtKind::For { init, body, .. } => {
                1 + init.as_deref().map(rec).unwrap_or(0) + rec(body)
            }
            StmtKind::While { body, .. } => 1 + rec(body),
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => rec(then_branch) + else_branch.as_deref().map(rec).unwrap_or(0),
            StmtKind::Block(b) => b.stmts.iter().map(rec).sum(),
            _ => 0,
        }
    }
    block.stmts.iter().map(rec).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_display_and_predicates() {
        assert_eq!(Type::ptr_to(Type::Double).to_string(), "double*");
        assert!(Type::Int.is_numeric());
        assert!(!Type::Void.is_numeric());
        assert!(Type::ptr_to(Type::Int).is_pointer());
        assert_eq!(Type::ptr_to(Type::Double).pointee(), Some(&Type::Double));
        assert_eq!(Type::Int.pointee(), None);
    }

    #[test]
    fn lvalue_detection() {
        let v = Expr::new(ExprKind::Var("x".to_string()), Span::default());
        assert!(v.is_lvalue());
        let lit = Expr::new(ExprKind::IntLit(3), Span::default());
        assert!(!lit.is_lvalue());
    }

    #[test]
    fn annotation_lookup() {
        let mut a = Annotation::default();
        a.entries.insert("skip".to_string(), AnnotValue::Flag(true));
        a.entries
            .insert("lp_iters".to_string(), AnnotValue::Ident("n".to_string()));
        assert!(a.flag("skip"));
        assert!(!a.flag("lp_iters"));
        assert!(matches!(a.get("lp_iters"), Some(AnnotValue::Ident(_))));
    }
}
