//! The server's pool of **long-lived** worker threads behind a job
//! queue. Submitting is cheap (one queue push, no thread spawn), so it is
//! the executor the event loops hand registrations to, spawned once at
//! startup. Jobs must own their data (`'static`): safe Rust cannot loan a
//! caller's stack borrow to a thread that outlives the call, which is why
//! borrowed batches run on
//! [`scoped_batch`](ttsv_core::batch::scoped_batch) instead.
//!
//! The pool refuses nothing: the server's connection cap bounds its
//! queue. Each admitted connection has at most one registration in
//! flight, and a connection that dies with one in flight keeps its slot
//! until the completion arrives, so queued jobs ≤ admitted connections −
//! busy workers (a worker counts as busy until its job's completion is
//! delivered), and admitted connections ≤ `max_connections`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;

use crate::lock;

/// A job the persistent pool can run: owned, sendable work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// What the queue holds between a submitter and the workers.
struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
    /// Jobs popped but not yet finished (for [`PoolMonitor::in_flight`]).
    in_flight: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is pushed or shutdown begins (workers wait).
    job_ready: Condvar,
}

/// A pool of long-lived worker threads.
///
/// Jobs are closures that own their data; [`WorkerPool::submit`] queues
/// one without blocking, and dropping the pool drains the queue before
/// joining the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `workers` long-lived threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one pool worker");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutting_down: false,
                in_flight: 0,
            }),
            job_ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ttsv-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Enqueues a job without blocking. The caller bounds the queue (see
    /// the module docs); the pool takes whatever it is given.
    pub fn submit<F>(&self, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        lock(&self.shared.state).queue.push_back(Box::new(job));
        self.shared.job_ready.notify_one();
    }

    /// A detachable load gauge over this pool's queue: cheap to clone,
    /// safe to hold after the pool is gone (reads then report empty).
    #[must_use]
    pub fn monitor(&self) -> PoolMonitor {
        PoolMonitor {
            shared: Arc::downgrade(&self.shared),
        }
    }
}

/// A weak handle onto a [`WorkerPool`]'s load state, for metrics
/// endpoints: reports the queue depth and in-flight job count without
/// keeping the pool alive (a dead pool reads as idle).
#[derive(Debug, Clone)]
pub struct PoolMonitor {
    shared: Weak<PoolShared>,
}

impl PoolMonitor {
    /// Jobs queued but not yet started.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .upgrade()
            .map_or(0, |shared| lock(&shared.state).queue.len())
    }

    /// Jobs currently running on a worker.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared
            .upgrade()
            .map_or(0, |shared| lock(&shared.state).in_flight)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutting_down = true;
        }
        self.shared.job_ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked already reported; don't double-panic
            // in drop.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                // Same poison recovery as `crate::lock`.
                state = shared
                    .job_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panicking job must not take the worker thread (or the pool's
        // `in_flight` accounting) down with it — the server keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let mut state = lock(&shared.state);
        state.in_flight -= 1;
        drop(state);
        if let Err(payload) = outcome {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            eprintln!("ttsv-pool worker: job panicked: {msg}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Spins until no job is queued or running, failing after 10 s.
    fn wait_until_idle(monitor: &PoolMonitor) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while monitor.queue_depth() > 0 || monitor.in_flight() > 0 {
            assert!(Instant::now() < give_up, "the pool never went idle");
            std::thread::yield_now();
        }
    }

    #[test]
    fn persistent_pool_runs_submitted_jobs() {
        let pool = WorkerPool::new(2);
        let (done, finished) = mpsc::channel();
        for _ in 0..100 {
            let done = done.clone();
            pool.submit(move || done.send(()).unwrap());
        }
        drop(done);
        // Ends early only if a job was dropped without running.
        assert_eq!(finished.iter().take(100).count(), 100);
    }

    #[test]
    fn persistent_pool_threads_are_reused() {
        // Every job reports its thread id; the distinct set must be
        // bounded by the worker count — i.e., no spawn-per-job.
        let pool = WorkerPool::new(2);
        let (ids, received) = mpsc::channel();
        for _ in 0..64 {
            let ids = ids.clone();
            pool.submit(move || ids.send(std::thread::current().id()).unwrap());
        }
        drop(ids);
        let distinct: std::collections::HashSet<_> = received.iter().take(64).collect();
        assert!(
            (1..=2).contains(&distinct.len()),
            "64 jobs ran on {} threads; expected the 2 pool workers",
            distinct.len()
        );
    }

    #[test]
    fn pool_drop_drains_pending_jobs() {
        let hits = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..8 {
                let hits = Arc::clone(&hits);
                pool.submit(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn monitor_outlives_the_pool_and_reads_idle() {
        let monitor = {
            let pool = WorkerPool::new(1);
            let (done, finished) = mpsc::channel();
            pool.submit(move || done.send(()).unwrap());
            finished.recv().unwrap();
            pool.monitor()
        };
        assert_eq!(monitor.queue_depth(), 0);
        assert_eq!(monitor.in_flight(), 0);
    }

    #[test]
    fn panicking_jobs_do_not_poison_the_pool() {
        // Two panics in a row, then real work: the pool's mutex and
        // accounting must survive (poison-recovering lock acquisition).
        let pool = WorkerPool::new(1);
        for _ in 0..2 {
            pool.submit(|| panic!("injected job panic"));
        }
        let (done, finished) = mpsc::channel();
        pool.submit(move || done.send(()).unwrap());
        finished.recv().unwrap();
        wait_until_idle(&pool.monitor());
    }
}
