//! MiniC lexer.
//!
//! Produces a token stream with source spans. `//` and `/* */` comments are
//! skipped; a line beginning with `#pragma` becomes a single
//! [`TokenKind::Pragma`] token carrying the rest of the line, which the
//! parser attaches to the next statement as an annotation.

use crate::ast::Span;
use std::fmt;

/// Token kinds.
#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind {
    // literals & identifiers
    Int(i64),
    Float(f64),
    Ident(String),
    // keywords
    KwInt,
    KwDouble,
    KwVoid,
    KwIf,
    KwElse,
    KwFor,
    KwWhile,
    KwReturn,
    KwExtern,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    // operators
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PlusPlus,
    MinusMinus,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    AndAnd,
    OrOr,
    Bang,
    /// `#pragma <rest-of-line>`.
    Pragma(String),
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Int(v) => write!(f, "{v}"),
            Float(v) => write!(f, "{v}"),
            Ident(s) => write!(f, "{s}"),
            Pragma(_) => write!(f, "#pragma"),
            Eof => write!(f, "<eof>"),
            KwInt => write!(f, "int"),
            KwDouble => write!(f, "double"),
            KwVoid => write!(f, "void"),
            KwIf => write!(f, "if"),
            KwElse => write!(f, "else"),
            KwFor => write!(f, "for"),
            KwWhile => write!(f, "while"),
            KwReturn => write!(f, "return"),
            KwExtern => write!(f, "extern"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            LBracket => write!(f, "["),
            RBracket => write!(f, "]"),
            Semi => write!(f, ";"),
            Comma => write!(f, ","),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Star => write!(f, "*"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            Assign => write!(f, "="),
            PlusAssign => write!(f, "+="),
            MinusAssign => write!(f, "-="),
            StarAssign => write!(f, "*="),
            SlashAssign => write!(f, "/="),
            PlusPlus => write!(f, "++"),
            MinusMinus => write!(f, "--"),
            Lt => write!(f, "<"),
            Le => write!(f, "<="),
            Gt => write!(f, ">"),
            Ge => write!(f, ">="),
            EqEq => write!(f, "=="),
            NotEq => write!(f, "!="),
            AndAnd => write!(f, "&&"),
            OrOr => write!(f, "||"),
            Bang => write!(f, "!"),
        }
    }
}

/// A token with its source span.
#[derive(Clone, PartialEq, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// Lexer errors.
#[derive(Clone, PartialEq, Debug)]
pub struct LexError {
    pub span: Span,
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.span, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Streaming lexer over MiniC source.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    // pragma lines are handled in next_token; a backslash at
                    // end of a pragma line continues it there too
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LexError {
                                    span: start,
                                    msg: "unterminated block comment".to_string(),
                                })
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lex the next token.
    pub fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let span = self.span();
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span,
            });
        };

        // pragma: "#pragma" to end of line (with backslash continuation)
        if c == b'#' {
            let mut text = String::new();
            while let Some(c) = self.peek() {
                if c == b'\n' {
                    if text.trim_end().ends_with('\\') {
                        // line continuation: drop the backslash, keep going
                        while text.trim_end().ends_with('\\') {
                            let t = text.trim_end().trim_end_matches('\\').to_string();
                            text = t;
                        }
                        self.bump();
                        continue;
                    }
                    break;
                }
                text.push(c as char);
                self.bump();
            }
            let rest = text
                .strip_prefix("#pragma")
                .map(|s| s.trim().to_string())
                .ok_or(LexError {
                    span,
                    msg: format!("unknown preprocessor directive: {text}"),
                })?;
            return Ok(Token {
                kind: TokenKind::Pragma(rest),
                span,
            });
        }

        if c.is_ascii_digit() || (c == b'.' && self.peek2().is_some_and(|d| d.is_ascii_digit())) {
            return self.lex_number(span);
        }

        if c.is_ascii_alphabetic() || c == b'_' {
            let mut ident = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    ident.push(c as char);
                    self.bump();
                } else {
                    break;
                }
            }
            let kind = match ident.as_str() {
                "int" => TokenKind::KwInt,
                "double" => TokenKind::KwDouble,
                "void" => TokenKind::KwVoid,
                "if" => TokenKind::KwIf,
                "else" => TokenKind::KwElse,
                "for" => TokenKind::KwFor,
                "while" => TokenKind::KwWhile,
                "return" => TokenKind::KwReturn,
                "extern" => TokenKind::KwExtern,
                _ => TokenKind::Ident(ident),
            };
            return Ok(Token { kind, span });
        }

        // operators and punctuation
        self.bump();
        let two = |this: &mut Self, second: u8, yes: TokenKind, no: TokenKind| {
            if this.peek() == Some(second) {
                this.bump();
                yes
            } else {
                no
            }
        };
        use TokenKind::*;
        let kind = match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'%' => Percent,
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.bump();
                    PlusPlus
                } else {
                    two(self, b'=', PlusAssign, Plus)
                }
            }
            b'-' => {
                if self.peek() == Some(b'-') {
                    self.bump();
                    MinusMinus
                } else {
                    two(self, b'=', MinusAssign, Minus)
                }
            }
            b'*' => two(self, b'=', StarAssign, Star),
            b'/' => two(self, b'=', SlashAssign, Slash),
            b'=' => two(self, b'=', EqEq, Assign),
            b'<' => two(self, b'=', Le, Lt),
            b'>' => two(self, b'=', Ge, Gt),
            b'!' => two(self, b'=', NotEq, Bang),
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    AndAnd
                } else {
                    return Err(LexError {
                        span,
                        msg: "expected `&&` (MiniC has no bitwise `&`)".to_string(),
                    });
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    OrOr
                } else {
                    return Err(LexError {
                        span,
                        msg: "expected `||` (MiniC has no bitwise `|`)".to_string(),
                    });
                }
            }
            other => {
                return Err(LexError {
                    span,
                    msg: format!("unexpected character `{}`", other as char),
                })
            }
        };
        Ok(Token { kind, span })
    }

    fn lex_number(&mut self, span: Span) -> Result<Token, LexError> {
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                text.push(c as char);
                self.bump();
            } else if c == b'.' && !is_float {
                is_float = true;
                text.push('.');
                self.bump();
            } else if (c == b'e' || c == b'E')
                && self
                    .peek2()
                    .is_some_and(|d| d.is_ascii_digit() || d == b'-' || d == b'+')
            {
                is_float = true;
                text.push(c as char);
                self.bump();
                if let Some(sign @ (b'-' | b'+')) = self.peek() {
                    text.push(sign as char);
                    self.bump();
                }
            } else {
                break;
            }
        }
        let kind = if is_float {
            TokenKind::Float(text.parse().map_err(|_| LexError {
                span,
                msg: format!("bad float literal `{text}`"),
            })?)
        } else {
            TokenKind::Int(text.parse().map_err(|_| LexError {
                span,
                msg: format!("bad integer literal `{text}`"),
            })?)
        };
        Ok(Token { kind, span })
    }

    /// Lex the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            out.push(t);
            if eof {
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        use TokenKind::*;
        assert_eq!(
            kinds("int foo double _bar2"),
            vec![
                KwInt,
                Ident("foo".to_string()),
                KwDouble,
                Ident("_bar2".to_string()),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        use TokenKind::*;
        assert_eq!(
            kinds("42 3.5 1e6 2.5e-3 0"),
            vec![Int(42), Float(3.5), Float(1e6), Float(2.5e-3), Int(0), Eof]
        );
    }

    #[test]
    fn lexes_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("+ += ++ - -= -- * *= / /= % = == != < <= > >= && || !"),
            vec![
                Plus,
                PlusAssign,
                PlusPlus,
                Minus,
                MinusAssign,
                MinusMinus,
                Star,
                StarAssign,
                Slash,
                SlashAssign,
                Percent,
                Assign,
                EqEq,
                NotEq,
                Lt,
                Le,
                Gt,
                Ge,
                AndAnd,
                OrOr,
                Bang,
                Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("1 // comment\n 2 /* multi\nline */ 3"),
            vec![
                TokenKind::Int(1),
                TokenKind::Int(2),
                TokenKind::Int(3),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn tracks_line_numbers() {
        let toks = Lexer::new("a\nb\n  c").tokenize().unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[2].span.line, 3);
        assert_eq!(toks[2].span.col, 3);
    }

    #[test]
    fn lexes_pragma() {
        let toks = Lexer::new("#pragma @Annotation {skip: yes}\nint x;")
            .tokenize()
            .unwrap();
        assert_eq!(
            toks[0].kind,
            TokenKind::Pragma("@Annotation {skip: yes}".to_string())
        );
        assert_eq!(toks[1].kind, TokenKind::KwInt);
    }

    #[test]
    fn pragma_line_continuation() {
        let toks = Lexer::new("#pragma @Annotation \\\n{lp_init:x,lp_cond:y}\nint x;")
            .tokenize()
            .unwrap();
        match &toks[0].kind {
            TokenKind::Pragma(s) => {
                assert!(s.contains("lp_init"), "{s}");
                assert!(s.starts_with("@Annotation"), "{s}");
            }
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(Lexer::new("$").tokenize().is_err());
        assert!(Lexer::new("a & b").tokenize().is_err());
        assert!(Lexer::new("/* unterminated").tokenize().is_err());
        assert!(Lexer::new("#define X 1").tokenize().is_err());
    }
}
