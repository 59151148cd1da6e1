//! The parser refuses nesting deeper than [`MAX_NESTING`] with a typed
//! error instead of overflowing the stack, and still parses the deepest
//! shape the workloads and fuzzers use.
//!
//! Each test runs on a spawned 8 MiB thread: in a debug build the
//! recursive descent overflows the 2 MiB test thread before it reaches
//! the limit.

use mira_minic::parser::MAX_NESTING;
use mira_minic::{frontend, parse_program, ParseError, Program};

fn on_8_mib_stack(test: fn()) {
    std::thread::Builder::new()
        .stack_size(8 << 20)
        .spawn(test)
        .unwrap()
        .join()
        .unwrap();
}

const MAX: usize = MAX_NESTING - 1;

/// `(construct, prefix, opening, innermost, closing text, deepest
/// accepted depth)`: the statement `prefix open^d inner close^d;`. The
/// function body's statement is level 1. A subscript counts twice, as a
/// postfix operator and as an expression context, and the index of a
/// postfix chain's last `[0]` sits one level below the chain.
const CONSTRUCTS: [(&str, &str, &str, &str, &str, usize); 14] = [
    ("block", "", "{ ", "x;", " }", MAX),
    ("if", "", "if (x) ", "x", "", MAX),
    ("else if", "", "if (x) x; else ", "x", "", MAX),
    ("while", "", "while (x) ", "x", "", MAX),
    ("for", "", "for (;;) ", "x", "", MAX),
    ("parenthesis", "return ", "(", "x", ")", MAX),
    ("subscript", "return ", "a[", "x", "]", MAX / 2),
    ("call argument", "return ", "f(x, ", "a", ")", MAX),
    ("assignment", "", "x = ", "x", "", MAX),
    ("negation", "return ", "- ", "x", "", MAX),
    ("not", "return ", "!", "x", "", MAX),
    ("cast", "return ", "(int)", "x", "", MAX),
    ("binary chain", "return x", "", "", " + x", MAX),
    ("postfix chain", "return a", "", "", "[0]", MAX - 1),
];

fn parse_nested(
    prefix: &str,
    open: &str,
    inner: &str,
    close: &str,
    depth: usize,
) -> Result<Program, ParseError> {
    parse_program(&format!(
        "int f(int x, int* a) {{\n{prefix}{}{inner}{};\n}}\n",
        open.repeat(depth),
        close.repeat(depth)
    ))
}

fn refused_for_nesting(result: Result<Program, ParseError>) -> bool {
    matches!(result, Err(e) if e.msg == format!("nesting deeper than {MAX_NESTING} levels"))
}

#[test]
fn each_construct_parses_up_to_the_limit_and_is_refused_past_it() {
    on_8_mib_stack(|| {
        for (name, prefix, open, inner, close, deepest) in CONSTRUCTS {
            let parse = |depth| parse_nested(prefix, open, inner, close, depth);
            assert!(parse(deepest).is_ok(), "{name} at {deepest}");
            assert!(
                refused_for_nesting(parse(deepest + 1)),
                "{name} at {}",
                deepest + 1
            );
            assert!(refused_for_nesting(parse(100_000)), "{name} at 100,000");
        }
        // a run of annotations nests its statement too
        let pragmas = "#pragma @Annotation {skip: yes}\n".repeat(100_000);
        let src = format!("void f() {{\n{pragmas};\n}}\n");
        assert!(refused_for_nesting(parse_program(&src)));
    });
}

#[test]
fn the_error_points_at_the_first_token_past_the_limit() {
    on_8_mib_stack(|| {
        let not = "!".repeat(MAX_NESTING);
        let err = parse_program(&format!("int f(int x) {{\nreturn {not}x;\n}}\n")).unwrap_err();
        // `return` is level 1 and each `!` nests its operand one deeper:
        // the operand of the last `!`, `x`, is the first token past the limit
        assert_eq!((err.span.line, err.span.col), (2, 8 + MAX_NESTING as u32));
    });
}

#[test]
fn a_64_deep_loop_nest_indexed_by_every_variable_still_parses() {
    // the deepest shape `fuzz_adversarial_nests_never_panic` generates
    on_8_mib_stack(|| {
        let mut src = String::from("double f(int n, double* a) {\n    double s = 0.0;\n");
        for l in 0..64 {
            src.push_str(&format!("for (int i{l} = 0; i{l} < n; i{l}++) {{\n"));
        }
        let every: Vec<String> = (0..64).map(|l| format!("i{l} * n")).collect();
        src.push_str(&format!("s += a[{}];\n", every.join(" + ")));
        src.push_str(&"}\n".repeat(64));
        src.push_str("    return s;\n}\n");
        frontend(&src).unwrap();
    });
}
