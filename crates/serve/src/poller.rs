//! Real `poll(2)` readiness for the event loops — std-only, no libc.
//!
//! The event loops in [`crate::server`] multiplex nonblocking sockets
//! and learn which ones are ready only from this module. Blocking
//! readiness (rather than a timed sweep over every socket) means a
//! request landing on a parked connection is answered at once and an
//! idle server makes no wakeups at all. It is built from:
//!
//! * a hand-rolled `extern "C"` binding to POSIX `poll(2)` over the raw
//!   fds `std::os::fd` exposes (no new dependencies — the single
//!   `unsafe` block in the workspace lives here and is scoped to that
//!   one call), and
//! * a **self-pipe** (`std::os::unix::net::UnixStream::pair`) whose
//!   read end sits in every
//!   poll set: the accept thread and worker completions write one byte
//!   to the [`Waker`] after pushing into a loop's inbox, so inbox
//!   activity interrupts a blocked `poll` immediately. The byte stays
//!   queued until the loop drains it, which closes the classic
//!   check-then-sleep race — a wake issued between the loop's last
//!   inbox check and its `poll` call leaves the pipe readable, so the
//!   `poll` returns at once instead of sleeping on a stale emptiness.
//!
//! The server therefore builds only on Unix targets.

#![allow(clippy::doc_markdown)]

#[cfg(not(unix))]
compile_error!("ttsv-serve needs a Unix target: its event loops block in POSIX poll(2)");

use std::io;
use std::time::Duration;

pub use imp::{Poller, Waker};

/// The raw fd of a TCP stream, for interest submission.
#[must_use]
pub fn stream_fd(stream: &std::net::TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

/// One fd the caller wants readiness for, plus the directions of
/// interest. Interest mirrors the connection state machine: read
/// interest while a request may be parsed, write interest while the
/// connection's write buffer is non-empty. An entry with neither
/// interest should simply not be submitted.
#[derive(Debug, Clone, Copy)]
pub struct PollInterest {
    /// The raw fd (`std::os::fd::AsRawFd` on the socket).
    pub fd: i32,
    /// Wake when the fd becomes readable (or hung up / errored).
    pub read: bool,
    /// Wake when the fd becomes writable.
    pub write: bool,
}

/// What a [`Poller::wait`] call observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaitOutcome {
    /// Submitted fds that reported any event (readable, writable,
    /// hang-up, error). Zero with `woken == false` means the timeout
    /// elapsed.
    pub ready: usize,
    /// The self-pipe fired: at least one [`Waker::wake`] happened since
    /// the last drain. The pipe has been drained before returning.
    pub woken: bool,
}

mod imp {
    use super::{io, Duration, PollInterest, WaitOutcome};
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    /// `struct pollfd` from `<poll.h>`, laid out per POSIX: the fd, the
    /// requested events, and the kernel-filled returned events.
    #[repr(C)]
    #[derive(Debug)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// Event bits shared by every unix we target (Linux and the BSDs
    /// agree on these low bits; they are POSIX-mandated names).
    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    // The one foreign binding: POSIX poll(2). `nfds_t` is `c_ulong` on
    // Linux and `c_uint` on the BSDs; both are register-passed, so the
    // wider type is ABI-compatible for the value ranges we use (a few
    // thousand fds at most).
    #[allow(unsafe_code)]
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
    }

    /// The write side of a loop's self-pipe. Cloneable and cheap: the
    /// accept thread and every worker completion hold one and call
    /// [`Waker::wake`] after pushing into the loop's inbox.
    #[derive(Debug, Clone)]
    pub struct Waker {
        tx: Arc<UnixStream>,
    }

    impl Waker {
        /// Makes a blocked [`Poller::wait`] return now (and the next
        /// `wait` return immediately if none is blocked). Never blocks:
        /// the pipe is nonblocking, and a full pipe already guarantees a
        /// pending wake, so `WouldBlock` is success.
        pub fn wake(&self) {
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    /// A readiness selector for one event loop: the poll set scratch
    /// buffer plus the read side of the loop's self-pipe.
    #[derive(Debug)]
    pub struct Poller {
        rx: UnixStream,
        fds: Vec<PollFd>,
    }

    impl Poller {
        /// Builds a poller and its paired [`Waker`].
        ///
        /// # Errors
        ///
        /// Propagates socketpair/fcntl failures (fd exhaustion).
        pub fn new() -> io::Result<(Self, Waker)> {
            let (rx, tx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok((
                Self {
                    rx,
                    fds: Vec::new(),
                },
                Waker { tx: Arc::new(tx) },
            ))
        }

        /// Blocks until a submitted fd is ready, the waker fires, or
        /// `timeout` elapses (`None` blocks indefinitely — the waker is
        /// always armed, so "indefinitely" means "until someone has work
        /// for this loop"). Drains the self-pipe before returning, so
        /// each wake is observed exactly once.
        ///
        /// # Errors
        ///
        /// Propagates `poll(2)` failures other than `EINTR` (which
        /// retries with the same timeout) and `EAGAIN`.
        pub fn wait(
            &mut self,
            interests: &[PollInterest],
            timeout: Option<Duration>,
        ) -> io::Result<WaitOutcome> {
            self.fds.clear();
            self.fds.push(PollFd {
                fd: self.rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            for interest in interests {
                let mut events = 0i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                if events != 0 {
                    self.fds.push(PollFd {
                        fd: interest.fd,
                        events,
                        revents: 0,
                    });
                }
            }
            // poll(2) takes milliseconds; round *up* so a deadline-derived
            // timeout never wakes early (which would spin: wake, find the
            // deadline not yet due, sleep the sub-millisecond remainder,
            // repeat).
            let timeout_ms: i32 = match timeout {
                None => -1,
                Some(t) => {
                    let whole = t.as_millis();
                    let carry = u128::from(t.subsec_nanos() % 1_000_000 != 0);
                    i32::try_from(whole + carry).unwrap_or(i32::MAX)
                }
            };
            let n = loop {
                // SAFETY: `fds` is a live, exclusively borrowed Vec of
                // `#[repr(C)]` pollfd-layout structs; the pointer and
                // length describe exactly that allocation, and poll(2)
                // only writes within it (the `revents` fields).
                #[allow(unsafe_code)]
                let rc = unsafe {
                    poll(
                        self.fds.as_mut_ptr(),
                        self.fds.len() as std::os::raw::c_ulong,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                match err.kind() {
                    io::ErrorKind::Interrupted => {}
                    io::ErrorKind::WouldBlock => break 0,
                    _ => return Err(err),
                }
            };
            let mut outcome = WaitOutcome::default();
            if n == 0 {
                return Ok(outcome);
            }
            const ANY: i16 = POLLIN | POLLOUT | POLLERR | POLLHUP | POLLNVAL;
            if self.fds[0].revents & ANY != 0 {
                outcome.woken = true;
                // Drain every queued wake byte; WouldBlock ends the drain.
                let mut sink = [0u8; 64];
                while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
            }
            outcome.ready = self.fds[1..]
                .iter()
                .filter(|fd| fd.revents & ANY != 0)
                .count();
            Ok(outcome)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn timeout_elapses_with_nothing_ready() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let started = Instant::now();
        let outcome = poller
            .wait(&[], Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(!outcome.woken);
        assert_eq!(outcome.ready, 0);
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "must actually block, returned after {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let (mut poller, waker) = Poller::new().expect("poller");
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
        });
        let started = Instant::now();
        let outcome = poller
            .wait(&[], Some(Duration::from_secs(10)))
            .expect("wait");
        handle.join().expect("waker thread");
        assert!(outcome.woken, "the waker must end the wait");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "woke after {:?}, not at the timeout",
            started.elapsed()
        );
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        // The check-then-sleep race: a wake issued while the loop is
        // *not* blocked must make the next wait return immediately.
        let (mut poller, waker) = Poller::new().expect("poller");
        waker.wake();
        waker.wake(); // coalesces, never blocks
        let started = Instant::now();
        let outcome = poller
            .wait(&[], Some(Duration::from_secs(10)))
            .expect("wait");
        assert!(outcome.woken);
        assert!(started.elapsed() < Duration::from_secs(1));
        // Drained: with no new wake the next wait times out.
        let outcome = poller
            .wait(&[], Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(!outcome.woken, "wake bytes must drain with the wait");
    }

    #[test]
    fn readable_fd_reports_ready() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let (mut a, b) = UnixStream::pair().expect("socket pair");
        b.set_nonblocking(true).expect("nonblocking");
        let interest = [PollInterest {
            fd: b.as_raw_fd(),
            read: true,
            write: false,
        }];
        let outcome = poller
            .wait(&interest, Some(Duration::from_millis(10)))
            .expect("wait");
        assert_eq!(outcome.ready, 0, "nothing written yet");
        a.write_all(b"x").expect("write");
        let outcome = poller
            .wait(&interest, Some(Duration::from_secs(10)))
            .expect("wait");
        assert_eq!(outcome.ready, 1, "pending byte must report readable");
    }

    #[test]
    fn write_interest_fires_on_an_unfilled_socket() {
        let (mut poller, _waker) = Poller::new().expect("poller");
        let (_a, b) = UnixStream::pair().expect("socket pair");
        let outcome = poller
            .wait(
                &[PollInterest {
                    fd: b.as_raw_fd(),
                    read: false,
                    write: true,
                }],
                Some(Duration::from_secs(10)),
            )
            .expect("wait");
        assert_eq!(outcome.ready, 1, "an empty socket buffer is writable");
    }

    #[test]
    fn full_wake_pipe_never_blocks_the_waker() {
        let (mut poller, waker) = Poller::new().expect("poller");
        // Far more wakes than the pipe buffers; every call must return.
        for _ in 0..1_000_000 {
            waker.wake();
        }
        let outcome = poller
            .wait(&[], Some(Duration::from_secs(10)))
            .expect("wait");
        assert!(outcome.woken);
    }
}
