//! Hostile nesting: every source input gets a result or a positioned
//! error. Deeply nested parentheses, long left-deep operator chains and
//! deeply nested blocks used to overflow the stack of whatever recursed
//! over the tree first (a "fatal runtime error: stack overflow" abort,
//! exit 134, from `ppd check`). The parser now stops at
//! `ppd::lang::parser::MAX_NESTING` levels with `LangErrorKind::Invalid`
//! at the offending token, and a program exactly at the limit still
//! compiles and runs through the whole preparatory phase on a default
//! 2 MiB thread.

use ppd::analysis::EBlockStrategy;
use ppd::core::PpdSession;
use ppd::lang::parser::MAX_NESTING;
use ppd::lang::LangErrorKind;

/// `int x = ((…(1)…));` inside a process: the body block, the
/// initializer expression, `n` parentheses and the literal are
/// `n + 3` levels.
fn parens(n: usize) -> String {
    format!("process M {{ int x = {}1{}; print(x); }}", "(".repeat(n), ")".repeat(n))
}

/// `int x = 1+1+…+1` with `terms` terms: the body block, the
/// initializer expression and a left-deep chain of height `terms`.
fn sum(terms: usize) -> String {
    format!("process M {{ int x = 1{}; print(x); }}", "+1".repeat(terms - 1))
}

/// `k` nested `if`s around `x = 1;`: the body block, `k` branch
/// blocks, the assigned expression and the literal are `k + 3` levels.
fn nested_ifs(k: usize) -> String {
    format!(
        "process M {{ int x = 0; {}x = 1;{} print(x); }}",
        "if (x < 1) { ".repeat(k),
        " }".repeat(k)
    )
}

/// Runs `f` on a thread with the default 2 MiB test-thread stack. At
/// the limit, the deepest shapes (parentheses, nested `if`s) need about
/// 1.65 MiB of it in an unoptimized build.
fn on_2mib_thread(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("no stack overflow or panic");
}

#[test]
fn deep_nesting_is_a_positioned_error() {
    let limit = MAX_NESTING as usize;
    let hostile: [(&str, String, &str); 3] = [
        ("5,000 nested parentheses", parens(5_000), "("),
        ("100,000-term sum", sum(100_000), "+"),
        ("10,000 nested ifs", nested_ifs(10_000), "<"),
    ];
    let at_limit = [parens(limit - 3), sum(limit - 2), nested_ifs(limit - 3)];
    let past_limit = [parens(limit - 2), sum(limit - 1), nested_ifs(limit - 2)];
    on_2mib_thread(move || {
        for (what, source, token) in &hostile {
            let err = ppd::lang::compile(source).expect_err(what);
            assert!(matches!(err.kind(), LangErrorKind::Invalid(_)), "{what}: {err}");
            assert!(err.span().line >= 1, "{what}: error has no position: {err}");
            assert_eq!(err.span().slice(source), *token, "{what}: blamed the wrong token");
        }
        for source in &past_limit {
            let err = ppd::lang::compile(source).expect_err("one level past the limit");
            assert!(matches!(err.kind(), LangErrorKind::Invalid(_)), "{err}");
        }
        for source in &at_limit {
            if let Err(e) = PpdSession::prepare(source, EBlockStrategy::per_subroutine()) {
                panic!("exactly at the limit: {e}");
            }
        }
    });
}
