//! Runs the real linter over the real workspace. This is both the
//! enforcement backstop (`cargo test` fails if anyone introduces an
//! unsuppressed violation, even without the CI `dharma-lint` step) and
//! the lexer's integration corpus — every `.rs` file in the repository
//! must lex without tripping a false positive.

use std::path::Path;

#[test]
fn workspace_has_no_lint_violations() {
    let root = dharma_lint::workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let (violations, files) = dharma_lint::lint_workspace(&root);
    assert!(
        files > 50,
        "walker found only {files} files — wrong root? ({})",
        root.display()
    );
    assert!(
        violations.is_empty(),
        "dharma-lint found {} violation(s):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn sanctioned_unsafe_surface_is_exactly_the_documented_one() {
    // The README and the D5 rule must not drift apart.
    assert_eq!(
        dharma_lint::UNSAFE_ALLOWED,
        ["crates/net/src/sys.rs", "crates/net/src/udp.rs"]
    );
    assert_eq!(
        dharma_lint::DETERMINISTIC_CRATES,
        ["net", "kademlia", "cache", "sim", "core", "types"]
    );
}
