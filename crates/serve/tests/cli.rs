//! The `serve` binary's command line: every count flag rejects a zero
//! with the usage text and exit code 2, never a panic, and the usage
//! text names exactly the flags `docs/PROTOCOL.md` documents.

use std::collections::BTreeSet;
use std::process::Command;

/// The `--flag` names in `text`, brackets and values stripped.
fn flags(text: &str) -> BTreeSet<&str> {
    text.split_whitespace()
        .map(|word| word.trim_start_matches('['))
        .filter(|word| word.starts_with("--"))
        .map(|word| word.trim_end_matches(']'))
        .collect()
}

#[test]
fn zero_counts_are_usage_errors_not_panics() {
    for flag in [
        "--workers",
        "--event-loops",
        "--max-sessions",
        "--max-tiles",
        "--max-connections",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "127.0.0.1:0", flag, "0"])
            .output()
            .expect("run serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(flag), "{flag} 0: {stderr}");
        assert!(stderr.contains("usage:"), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
    }
}

/// `serve --help` and PROTOCOL.md's `serve` synopsis ("Binaries") name
/// the same set of flags.
#[test]
fn usage_flags_match_the_protocol_synopsis() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--help")
        .output()
        .expect("run serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let usage = stderr
        .split_once("usage: serve")
        .expect("--help prints the usage text")
        .1;
    let synopsis = include_str!("../../../docs/PROTOCOL.md")
        .split("## Binaries")
        .nth(1)
        .and_then(|section| section.split("--bin serve --").nth(1))
        .and_then(|rest| rest.split("`.").next())
        .expect("PROTOCOL.md has a `serve` synopsis under Binaries");
    assert_eq!(
        flags(usage),
        flags(synopsis),
        "serve's usage text drifted from PROTOCOL.md"
    );
}
