//! The `serve` binary's command line: every count flag rejects a zero
//! with the usage text and exit code 2, never a panic.

use std::process::Command;

#[test]
fn zero_counts_are_usage_errors_not_panics() {
    for flag in [
        "--workers",
        "--event-loops",
        "--max-sessions",
        "--max-tiles",
        "--queue-capacity",
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
