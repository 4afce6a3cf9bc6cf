//! The gate itself, as a test: the real workspace must carry zero
//! unallowed findings. This is what `cargo test` enforces on every run and
//! what the CI detlint step re-checks via the CLI exit code.

#![forbid(unsafe_code)]

use std::path::Path;

use dynareg_detlint::{lint_workspace, unallowed, Rule};

#[test]
fn workspace_has_zero_unallowed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace lints");
    let open = unallowed(&findings);
    assert!(
        open.is_empty(),
        "determinism contract violations without a documented allow:\n{}",
        open.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_allow_in_the_workspace_carries_a_reason() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace lints");
    // `allowed` holds the reason text; the parser already rejects empty
    // reasons, so an allowed finding with a blank reason is impossible —
    // assert it anyway as the contract this suite advertises.
    for f in &findings {
        if let Some(reason) = &f.allowed {
            assert!(
                !reason.trim().is_empty(),
                "allow without a reason survived at {f}"
            );
        }
    }
}

#[test]
fn wall_clock_reads_live_only_in_bench_binaries() {
    // The simulator library never reads the host clock, not even behind
    // an allow: timing belongs to the harnesses that report it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root).expect("workspace lints");
    let stray: Vec<String> = findings
        .iter()
        .filter(|f| f.rule == Rule::WallClock && !f.file.starts_with("crates/bench/"))
        .map(|f| f.to_string())
        .collect();
    assert!(
        stray.is_empty(),
        "wall-clock reads outside crates/bench/:\n{}",
        stray.join("\n")
    );
}
