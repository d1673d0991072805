//! The spawned `serve` process: started with only `--addr` (plus
//! `--state-dir`/`--fsync` when journaling), with the serve environment
//! overrides stripped, and always killed and reaped — on drop too, so no
//! exit path leaves a server behind.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Environment variables that would silently reconfigure the child.
const STRIPPED_ENV: [&str; 2] = ["TTSV_SERVE_READINESS", "TTSV_SERVE_STATE_DIR"];

/// A running `serve` child.
#[derive(Debug)]
pub struct ServeProcess {
    child: Child,
    /// Kept open so a late write by the child never hits a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl ServeProcess {
    /// Spawns `bin` on an ephemeral loopback port and waits for its
    /// `listening on <addr>` line. With `journal`, the child journals
    /// under that directory with `--fsync always`.
    ///
    /// # Errors
    ///
    /// Fails when the child cannot start or exits before listening.
    pub fn spawn(bin: &Path, journal: Option<&Path>) -> io::Result<Self> {
        let mut command = Command::new(bin);
        command.args(["--addr", "127.0.0.1:0"]);
        if let Some(dir) = journal {
            command
                .arg("--state-dir")
                .arg(dir)
                .args(["--fsync", "always"]);
        }
        for name in STRIPPED_ENV {
            command.env_remove(name);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut process = Self {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        process.stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => process.addr = addr.to_string(),
            None => {
                return Err(io::Error::other(format!(
                    "serve did not report its address (got {line:?})"
                )))
            }
        }
        Ok(process)
    }

    /// The bound `host:port`.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The child's peak resident set (`VmHWM`), in MB.
    ///
    /// # Errors
    ///
    /// Fails when `/proc/<pid>/status` is unreadable or lacks the line.
    #[allow(clippy::cast_precision_loss)]
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
    }

    /// SIGKILLs the child and reaps it; returns when it was killed.
    pub fn kill(mut self) -> Instant {
        self.kill_and_reap()
    }

    fn kill_and_reap(&mut self) -> Instant {
        let at = Instant::now();
        let _ = self.child.kill();
        let _ = self.child.wait();
        at
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}
