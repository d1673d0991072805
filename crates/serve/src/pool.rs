//! The server's bounded pool of **long-lived** worker threads behind a
//! bounded job queue. Submitting is cheap (one queue push, no thread
//! spawn), so it is the executor the event loops hand evaluations to,
//! spawned once at startup. Jobs must own their data (`'static`): safe
//! Rust cannot loan a caller's stack borrow to a thread that outlives the
//! call, which is why borrowed batches run on
//! [`scoped_batch`](ttsv_core::batch::scoped_batch) instead.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;

/// A job the persistent pool can run: owned, sendable work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks the pool state, recovering from poisoning: every mutation of
/// `PoolState` is a handful of counter/queue updates that are valid at
/// any interleaving, so a panic while holding the lock (only possible
/// outside the catch_unwind-wrapped job body) never leaves the state
/// half-written — discarding the poison flag is sound and keeps one bad
/// thread from bricking the whole pool.
fn lock_state(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `Condvar::wait` with the same poison recovery as [`lock_state`].
fn wait_on<'a>(cv: &Condvar, guard: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// What the queue holds between a submitter and the workers.
struct PoolState {
    queue: VecDeque<Job>,
    shutting_down: bool,
    /// Jobs popped but not yet finished (for [`WorkerPool::wait_idle`]).
    in_flight: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signaled when a job is pushed or shutdown begins (workers wait).
    job_ready: Condvar,
    /// Signaled when a job is popped (submitters blocked on a full queue
    /// wait) or finished (idle waiters wait).
    job_done: Condvar,
    capacity: usize,
}

/// A bounded pool of long-lived worker threads.
///
/// Jobs are closures that own their data; [`WorkerPool::submit`] blocks
/// while the queue is at capacity (backpressure, so a flood of
/// connections cannot exhaust memory), and dropping the pool drains the
/// queue before joining the workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("queue_capacity", &self.shared.capacity)
            .finish()
    }
}

impl WorkerPool {
    /// A pool of `workers` long-lived threads with a queue bounded at
    /// `4 × workers` pending jobs.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self::with_queue_capacity(workers, 4 * workers.max(1))
    }

    /// A pool with an explicit pending-queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `queue_capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(workers: usize, queue_capacity: usize) -> Self {
        assert!(workers > 0, "need at least one pool worker");
        assert!(queue_capacity > 0, "the job queue needs capacity");
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutting_down: false,
                in_flight: 0,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            capacity: queue_capacity,
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

    /// Enqueues a job, blocking while the queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the pool is already shutting down (jobs submitted from a
    /// live pool handle never observe this).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut state = lock_state(&self.shared);
        while state.queue.len() >= self.shared.capacity && !state.shutting_down {
            state = wait_on(&self.shared.job_done, state);
        }
        assert!(!state.shutting_down, "submit on a shut-down pool");
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.job_ready.notify_one();
    }

    /// Enqueues a job only if the queue has room, never blocking: the
    /// admission-control path. A saturated (or shutting-down) pool hands
    /// the job straight back so the caller can shed the work — e.g.
    /// answer `503 Service Unavailable` — instead of queuing
    /// unboundedly-latent requests.
    ///
    /// # Errors
    ///
    /// Returns the job unchanged when the queue is at capacity or the
    /// pool is shutting down.
    pub fn try_submit<F>(&self, job: F) -> Result<(), F>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut state = lock_state(&self.shared);
        if state.shutting_down || state.queue.len() >= self.shared.capacity {
            return Err(job);
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// A detachable load gauge over this pool's queue: cheap to clone,
    /// safe to hold after the pool is gone (reads then report empty).
    #[must_use]
    pub fn monitor(&self) -> PoolMonitor {
        PoolMonitor {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Pending-queue capacity (jobs, not workers).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Blocks until the queue is empty and no job is running — the pause
    /// point the serving tests use to observe a quiescent server.
    pub fn wait_idle(&self) {
        let mut state = lock_state(&self.shared);
        while !state.queue.is_empty() || state.in_flight > 0 {
            state = wait_on(&self.shared.job_done, state);
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
            .map_or(0, |shared| lock_state(&shared).queue.len())
    }

    /// Jobs currently running on a worker.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared
            .upgrade()
            .map_or(0, |shared| lock_state(&shared).in_flight)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_state(&self.shared);
            state.shutting_down = true;
        }
        self.shared.job_ready.notify_all();
        self.shared.job_done.notify_all();
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
            let mut state = lock_state(shared);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.in_flight += 1;
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = wait_on(&shared.job_ready, state);
            }
        };
        shared.job_done.notify_all();
        // A panicking job must not take the worker thread (or the pool's
        // `in_flight` accounting) down with it — the server keeps serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let mut state = lock_state(shared);
        state.in_flight -= 1;
        drop(state);
        shared.job_done.notify_all();
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

    #[test]
    fn persistent_pool_runs_submitted_jobs() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn persistent_pool_threads_are_reused() {
        // Every job records its thread id; the distinct set must be
        // bounded by the worker count — i.e., no spawn-per-job.
        let pool = WorkerPool::new(2);
        let ids = Arc::new(Mutex::new(std::collections::HashSet::new()));
        for _ in 0..64 {
            let ids = Arc::clone(&ids);
            pool.submit(move || {
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        }
        pool.wait_idle();
        let distinct = ids.lock().unwrap().len();
        assert!(
            (1..=2).contains(&distinct),
            "64 jobs ran on {distinct} threads; expected the 2 pool workers"
        );
    }

    #[test]
    fn pool_drop_drains_pending_jobs() {
        let hits = Arc::new(AtomicU64::new(0));
        {
            let pool = WorkerPool::with_queue_capacity(1, 8);
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
    fn submit_applies_backpressure_but_completes() {
        // Capacity 1, slow-ish jobs: submitters must block rather than
        // grow the queue without bound, and every job still runs.
        let pool = WorkerPool::with_queue_capacity(1, 1);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn try_submit_reports_saturation_instead_of_blocking() {
        // One worker, queue of one. Park the worker on a gate, fill the
        // queue: the next try_submit must bounce immediately with the job
        // handed back, and after the gate opens the pool drains normally.
        let pool = WorkerPool::with_queue_capacity(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let ran = Arc::new(AtomicU64::new(0));

        let g = Arc::clone(&gate);
        let r = Arc::clone(&ran);
        pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            r.fetch_add(1, Ordering::Relaxed);
        });
        // Wait until the worker holds the gated job so the queue is free.
        while pool.monitor().in_flight() == 0 {
            std::thread::yield_now();
        }
        let r = Arc::clone(&ran);
        let admitted = pool.try_submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert!(admitted.is_ok(), "queue has room for one pending job");
        let r = Arc::clone(&ran);
        let rejected = pool.try_submit(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert!(rejected.is_err(), "a full queue must shed, not block");
        assert_eq!(pool.monitor().queue_depth(), 1);

        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.wait_idle();
        // The gated job + the one admitted try_submit ran; the shed job
        // (returned to us and dropped) did not.
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(pool.monitor().queue_depth(), 0);
        assert_eq!(pool.monitor().in_flight(), 0);
    }

    #[test]
    fn monitor_outlives_the_pool_and_reads_idle() {
        let monitor = {
            let pool = WorkerPool::new(1);
            pool.submit(|| {});
            pool.wait_idle();
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
        pool.wait_idle();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        pool.submit(move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
