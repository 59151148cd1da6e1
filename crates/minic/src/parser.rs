//! MiniC recursive-descent parser.
//!
//! Builds the untyped AST; `#pragma @Annotation` tokens are parsed into
//! [`Annotation`]s and attached to the immediately following statement,
//! mirroring how the paper's Mira consumes pragmas during metric
//! generation (§III-C4).

use crate::ast::*;
use crate::lexer::{LexError, Lexer, Token, TokenKind};
use std::fmt;

/// Parser errors (lexical errors are folded in).
#[derive(Clone, PartialEq, Debug)]
pub struct ParseError {
    pub span: Span,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            span: e.span,
            msg: e.msg,
        }
    }
}

/// The deepest nesting [`parse_program`] accepts. One level counts for
/// each nested statement (block, branch, `else if`, loop body), each
/// nested expression context (parenthesis, subscript, call argument,
/// assignment right side, prefix operand) and each operator of a binary
/// or postfix chain. A deeper source is refused with a [`ParseError`] at
/// the first token past the limit, before the recursive descent here or
/// a recursive pass over its AST can overflow the stack.
pub const MAX_NESTING: usize = 256;

/// Binary operators by precedence level, loosest first: the operands of
/// a level's chain are expressions of the next level, or unary
/// expressions below the last one. Every level associates to the left.
const BINARY: [&[(TokenKind, BinOp)]; 6] = [
    &[(TokenKind::OrOr, BinOp::Or)],
    &[(TokenKind::AndAnd, BinOp::And)],
    &[(TokenKind::EqEq, BinOp::Eq), (TokenKind::NotEq, BinOp::Ne)],
    &[
        (TokenKind::Lt, BinOp::Lt),
        (TokenKind::Le, BinOp::Le),
        (TokenKind::Gt, BinOp::Gt),
        (TokenKind::Ge, BinOp::Ge),
    ],
    &[
        (TokenKind::Plus, BinOp::Add),
        (TokenKind::Minus, BinOp::Sub),
    ],
    &[
        (TokenKind::Star, BinOp::Mul),
        (TokenKind::Slash, BinOp::Div),
        (TokenKind::Percent, BinOp::Mod),
    ],
];

/// Parse a MiniC translation unit (no type checking; see
/// [`crate::sema::analyze`]).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = Lexer::new(src).tokenize()?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.program()
}

/// Parse the body of a `#pragma` directive into an [`Annotation`].
/// Expected form: `@Annotation {key: value, key: value}`.
pub fn parse_annotation(text: &str, span: Span) -> Result<Annotation, ParseError> {
    let err = |msg: &str| ParseError {
        span,
        msg: format!("bad annotation: {msg}"),
    };
    let rest = text
        .trim()
        .strip_prefix("@Annotation")
        .ok_or_else(|| err("expected `@Annotation`"))?
        .trim();
    let inner = rest
        .strip_prefix('{')
        .and_then(|s| s.trim_end().strip_suffix('}'))
        .ok_or_else(|| err("expected `{...}`"))?;
    let mut ann = Annotation {
        span,
        ..Annotation::default()
    };
    for pair in inner.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| err("expected `key: value`"))?;
        let key = key.trim().to_string();
        let value = value.trim();
        let v = match value {
            "yes" | "true" => AnnotValue::Flag(true),
            "no" | "false" => AnnotValue::Flag(false),
            _ => {
                if let Ok(n) = value.parse::<f64>() {
                    AnnotValue::Num(n)
                } else if value.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    && value
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
                {
                    AnnotValue::Ident(value.to_string())
                } else {
                    return Err(err(&format!("bad value `{value}`")));
                }
            }
        };
        ann.entries.insert(key, v);
    }
    Ok(ann)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting level of the current token, at most [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek2_kind(&self) -> &TokenKind {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if *self.peek_kind() == kind {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected `{kind}`, found `{}`", self.peek_kind())))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            span: self.peek().span,
            msg: msg.to_string(),
        }
    }

    /// Enter one more nesting level, refused past [`MAX_NESTING`] at the
    /// current token. An error ends the parse, so only a level that
    /// closes normally restores `depth`.
    fn descend(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.error(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.descend()?;
        let t = parse(self)?;
        self.depth -= 1;
        Ok(t)
    }

    fn at_type(&self) -> bool {
        matches!(
            self.peek_kind(),
            TokenKind::KwInt | TokenKind::KwDouble | TokenKind::KwVoid
        )
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let base = match self.peek_kind() {
            TokenKind::KwInt => Type::Int,
            TokenKind::KwDouble => Type::Double,
            TokenKind::KwVoid => Type::Void,
            other => return Err(self.error(&format!("expected type, found `{other}`"))),
        };
        self.bump();
        let mut t = base;
        while self.eat(TokenKind::Star) {
            t = Type::ptr_to(t);
        }
        Ok(t)
    }

    fn ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let span = self.bump().span;
                Ok((name, span))
            }
            other => Err(self.error(&format!("expected identifier, found `{other}`"))),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while *self.peek_kind() != TokenKind::Eof {
            items.push(self.item()?);
        }
        Ok(Program { items })
    }

    fn item(&mut self) -> Result<Item, ParseError> {
        if self.eat(TokenKind::KwExtern) {
            let ret = self.ty()?;
            let (name, span) = self.ident()?;
            self.expect(TokenKind::LParen)?;
            let mut params = Vec::new();
            if !self.eat(TokenKind::RParen) {
                loop {
                    let t = self.ty()?;
                    // parameter name optional in extern declarations
                    if matches!(self.peek_kind(), TokenKind::Ident(_)) {
                        self.bump();
                    }
                    params.push(t);
                    if !self.eat(TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            self.expect(TokenKind::Semi)?;
            return Ok(Item::Extern(ExternDecl {
                name,
                ret,
                params,
                span,
            }));
        }
        let ret = self.ty()?;
        let (name, span) = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(TokenKind::RParen) {
            loop {
                let t = self.ty()?;
                let (pname, pspan) = self.ident()?;
                params.push(Param {
                    name: pname,
                    ty: t,
                    span: pspan,
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let body = self.block()?;
        Ok(Item::Func(Func {
            name,
            ret,
            params,
            body,
            span,
        }))
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            if *self.peek_kind() == TokenKind::Eof {
                return Err(self.error("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    /// A statement, one nesting level below its parent.
    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_kind)
    }

    fn stmt_kind(&mut self) -> Result<Stmt, ParseError> {
        // Annotations attach to the following statement.
        if let TokenKind::Pragma(text) = self.peek_kind().clone() {
            let span = self.bump().span;
            let ann = parse_annotation(&text, span)?;
            let mut inner = self.stmt()?;
            if inner.annotation.is_some() {
                return Err(ParseError {
                    span,
                    msg: "statement has multiple annotations".to_string(),
                });
            }
            inner.annotation = Some(ann);
            return Ok(inner);
        }

        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt::new(StmtKind::Empty, span))
            }
            TokenKind::LBrace => {
                let b = self.block()?;
                Ok(Stmt::new(StmtKind::Block(b), span))
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if *self.peek_kind() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(Stmt::new(StmtKind::Return(value), span))
            }
            TokenKind::KwIf => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.eat(TokenKind::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::new(
                    StmtKind::If {
                        cond,
                        then_branch,
                        else_branch,
                    },
                    span,
                ))
            }
            TokenKind::KwWhile => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::new(StmtKind::While { cond, body }, span))
            }
            TokenKind::KwFor => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let init = if *self.peek_kind() == TokenKind::Semi {
                    self.bump();
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                let cond = if *self.peek_kind() == TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::Semi)?;
                let step = if *self.peek_kind() == TokenKind::RParen {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(TokenKind::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::new(
                    StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                    span,
                ))
            }
            _ => self.simple_stmt(),
        }
    }

    /// A declaration or expression statement, consuming the trailing `;`.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek().span;
        if self.at_type() {
            let ty = self.ty()?;
            let (name, _) = self.ident()?;
            let array_len = if self.eat(TokenKind::LBracket) {
                let n = match self.peek_kind() {
                    TokenKind::Int(v) => *v,
                    _ => return Err(self.error("array length must be an integer literal")),
                };
                self.bump();
                self.expect(TokenKind::RBracket)?;
                Some(n)
            } else {
                None
            };
            let init = if self.eat(TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::new(
                StmtKind::Decl {
                    name,
                    ty,
                    array_len,
                    init,
                },
                span,
            ));
        }
        let e = self.expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(Stmt::new(StmtKind::Expr(e), span))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.binary(0)?;
        let op = match self.peek_kind() {
            TokenKind::Assign => Some(AssignOp::Set),
            TokenKind::PlusAssign => Some(AssignOp::Add),
            TokenKind::MinusAssign => Some(AssignOp::Sub),
            TokenKind::StarAssign => Some(AssignOp::Mul),
            TokenKind::SlashAssign => Some(AssignOp::Div),
            _ => None,
        };
        if let Some(op) = op {
            let span = self.bump().span;
            if !lhs.is_lvalue() {
                return Err(ParseError {
                    span,
                    msg: "assignment target is not an lvalue".to_string(),
                });
            }
            let value = self.nested(Self::assignment)?; // right associative
            return Ok(Expr::new(
                ExprKind::Assign {
                    op,
                    target: Box::new(lhs),
                    value: Box::new(value),
                },
                span,
            ));
        }
        Ok(lhs)
    }

    /// A left-associative chain of the operators of precedence `level`
    /// (an index into [`BINARY`]); each operator is one nesting level.
    fn binary(&mut self, level: usize) -> Result<Expr, ParseError> {
        let operand = |p: &mut Self| match level + 1 {
            next if next < BINARY.len() => p.binary(next),
            _ => p.unary(),
        };
        let depth = self.depth;
        let mut lhs = operand(self)?;
        while let Some(&(_, op)) = BINARY[level].iter().find(|(t, _)| t == self.peek_kind()) {
            self.descend()?;
            let span = self.bump().span;
            let rhs = operand(self)?;
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        match self.peek_kind() {
            TokenKind::Minus => {
                self.bump();
                let operand = self.nested(Self::unary)?;
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Bang => {
                self.bump();
                let operand = self.nested(Self::unary)?;
                Ok(Expr::new(
                    ExprKind::Unary {
                        op: UnOp::Not,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::PlusPlus | TokenKind::MinusMinus => {
                let increment = *self.peek_kind() == TokenKind::PlusPlus;
                self.bump();
                let target = self.nested(Self::unary)?;
                if !target.is_lvalue() {
                    return Err(ParseError {
                        span,
                        msg: "++/-- target is not an lvalue".to_string(),
                    });
                }
                Ok(Expr::new(
                    ExprKind::IncDec {
                        prefix: true,
                        increment,
                        target: Box::new(target),
                    },
                    span,
                ))
            }
            // cast: `(type) expr`
            TokenKind::LParen
                if matches!(
                    self.peek2_kind(),
                    TokenKind::KwInt | TokenKind::KwDouble | TokenKind::KwVoid
                ) =>
            {
                self.bump();
                let ty = self.ty()?;
                self.expect(TokenKind::RParen)?;
                let operand = self.nested(Self::unary)?;
                Ok(Expr::new(
                    ExprKind::Cast {
                        ty,
                        operand: Box::new(operand),
                    },
                    span,
                ))
            }
            _ => self.postfix(),
        }
    }

    /// A primary expression and its chain of postfix operators; each
    /// operator is one nesting level.
    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let depth = self.depth;
        let mut e = self.primary()?;
        loop {
            let span = self.peek().span;
            match self.peek_kind() {
                TokenKind::LBracket => {
                    self.descend()?;
                    self.bump();
                    let index = self.nested(Self::expr)?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::new(
                        ExprKind::Index {
                            base: Box::new(e),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::PlusPlus | TokenKind::MinusMinus => {
                    let increment = *self.peek_kind() == TokenKind::PlusPlus;
                    self.descend()?;
                    self.bump();
                    if !e.is_lvalue() {
                        return Err(ParseError {
                            span,
                            msg: "++/-- target is not an lvalue".to_string(),
                        });
                    }
                    e = Expr::new(
                        ExprKind::IncDec {
                            prefix: false,
                            increment,
                            target: Box::new(e),
                        },
                        span,
                    );
                }
                _ => break,
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek().span;
        match self.peek_kind().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::IntLit(v), span))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::FloatLit(v), span))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(TokenKind::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(TokenKind::RParen) {
                        loop {
                            args.push(self.nested(Self::expr)?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RParen)?;
                    }
                    Ok(Expr::new(ExprKind::Call { name, args }, span))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), span))
                }
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(self.error(&format!("expected expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn parses_function_with_loop() {
        let p = parse("void f(int n) { for (int i = 0; i < n; i++) { n = n; } }");
        let f = p.function("f").unwrap();
        assert!(matches!(f.body.stmts[0].kind, StmtKind::For { .. }));
    }

    #[test]
    fn parses_extern() {
        let p = parse("extern double sqrt(double);\nextern double fmax(double a, double b);");
        let ex: Vec<_> = p.externs().collect();
        assert_eq!(ex.len(), 2);
        assert_eq!(ex[0].name, "sqrt");
        assert_eq!(ex[1].params.len(), 2);
        assert!(p.is_extern("sqrt"));
    }

    #[test]
    fn precedence() {
        // a = 1 + 2 * 3 < 7 && 1  →  a = (((1 + (2*3)) < 7) && 1)
        let p = parse("void f() { int a; a = 1 + 2 * 3 < 7 && 1; }");
        let f = p.function("f").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[1].kind else {
            panic!()
        };
        let ExprKind::Assign { value, .. } = &e.kind else {
            panic!()
        };
        let ExprKind::Binary { op, .. } = &value.kind else {
            panic!()
        };
        assert_eq!(*op, BinOp::And);
    }

    /// `e` as `(op@column lhs rhs)`, variables by name.
    fn shape(e: &Expr) -> String {
        match &e.kind {
            ExprKind::Binary { op, lhs, rhs } => {
                format!("({op:?}@{} {} {})", e.span.col, shape(lhs), shape(rhs))
            }
            ExprKind::Var(v) => v.clone(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binary_operators_nest_by_precedence_and_associate_left() {
        use BinOp::*;
        // loosest level first
        let levels: [&[(&str, BinOp)]; 6] = [
            &[("||", Or)],
            &[("&&", And)],
            &[("==", Eq), ("!=", Ne)],
            &[("<", Lt), ("<=", Le), (">", Gt), (">=", Ge)],
            &[("+", Add), ("-", Sub)],
            &[("*", Mul), ("/", Div), ("%", Mod)],
        ];
        let ops = || (0..levels.len()).flat_map(|l| levels[l].iter().map(move |&o| (l, o)));
        for (lx, (x, opx)) in ops() {
            for (ly, (y, opy)) in ops() {
                let prefix = "void f() { a ";
                let src = format!("{prefix}{x} b {y} c; }}");
                let (cx, cy) = (prefix.len() + 1, prefix.len() + x.len() + 4);
                // `a x b y c` groups to the right only when `y` binds
                // tighter; within one level it groups to the left
                let want = if lx < ly {
                    format!("({opx:?}@{cx} a ({opy:?}@{cy} b c))")
                } else {
                    format!("({opy:?}@{cy} ({opx:?}@{cx} a b) c)")
                };
                let p = parse(&src);
                let StmtKind::Expr(e) = &p.function("f").unwrap().body.stmts[0].kind else {
                    panic!("{src}")
                };
                assert_eq!(shape(e), want, "{src}");
                assert_eq!(e.span.line, 1);
            }
        }
    }

    #[test]
    fn parses_annotation_onto_statement() {
        let p = parse(
            "void f(int n) {\n#pragma @Annotation {lp_iters: m, skip: no}\nfor (int i = 0; i < n; i++) { ; }\n}",
        );
        let f = p.function("f").unwrap();
        let ann = f.body.stmts[0].annotation.as_ref().unwrap();
        assert_eq!(
            ann.get("lp_iters"),
            Some(&AnnotValue::Ident("m".to_string()))
        );
        assert_eq!(ann.get("skip"), Some(&AnnotValue::Flag(false)));
    }

    #[test]
    fn annotation_values() {
        let a = parse_annotation(
            "@Annotation {branch_frac: 0.25, lp_iters: 100, v: name_1, f: yes}",
            Span::default(),
        )
        .unwrap();
        assert_eq!(a.get("branch_frac"), Some(&AnnotValue::Num(0.25)));
        assert_eq!(a.get("lp_iters"), Some(&AnnotValue::Num(100.0)));
        assert_eq!(a.get("v"), Some(&AnnotValue::Ident("name_1".to_string())));
        assert!(a.flag("f"));
        assert!(parse_annotation("@Other {}", Span::default()).is_err());
        assert!(parse_annotation("@Annotation {k}", Span::default()).is_err());
        assert!(parse_annotation("@Annotation {k: @@}", Span::default()).is_err());
    }

    #[test]
    fn parses_casts_and_incdec() {
        let p = parse("void f() { int i; double d; d = (double)i; i = (int)d; i++; --i; }");
        let f = p.function("f").unwrap();
        assert_eq!(f.body.stmts.len(), 6);
        let StmtKind::Expr(e) = &f.body.stmts[4].kind else {
            panic!()
        };
        assert!(matches!(
            e.kind,
            ExprKind::IncDec {
                prefix: false,
                increment: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_array_decl_and_index() {
        let p = parse("void f(double* a) { double t[8]; t[0] = a[1] + a[2 * 3]; }");
        let f = p.function("f").unwrap();
        assert!(matches!(
            f.body.stmts[0].kind,
            StmtKind::Decl {
                array_len: Some(8),
                ..
            }
        ));
    }

    #[test]
    fn parses_while_if_else() {
        let p = parse("int f(int n) { while (n > 0) { if (n % 2 == 0) n = n / 2; else n = n - 1; } return n; }");
        let f = p.function("f").unwrap();
        assert!(matches!(f.body.stmts[0].kind, StmtKind::While { .. }));
    }

    #[test]
    fn for_without_init_or_step() {
        let p = parse("void f(int n) { for (; n > 0 ;) { n = n - 1; } }");
        let f = p.function("f").unwrap();
        let StmtKind::For { init, step, .. } = &f.body.stmts[0].kind else {
            panic!()
        };
        assert!(init.is_none());
        assert!(step.is_none());
    }

    #[test]
    fn error_cases() {
        assert!(parse_program("int f() { return 1 }").is_err()); // missing ;
        assert!(parse_program("int f() {").is_err()); // unterminated
        assert!(parse_program("int f() { 3 = x; }").is_err()); // not lvalue
        assert!(parse_program("int f() { double a[n]; }").is_err()); // non-literal len
        assert!(parse_program("blah f() {}").is_err()); // bad type
    }

    #[test]
    fn spans_recorded() {
        let p = parse("void f() {\n  int x = 1;\n  x = 2;\n}");
        let f = p.function("f").unwrap();
        assert_eq!(f.body.stmts[0].span.line, 2);
        assert_eq!(f.body.stmts[1].span.line, 3);
    }
}
