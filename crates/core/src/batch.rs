//! The scoped self-scheduling batch runner the chip engine and the
//! validation sweeps share: run `count` independent jobs on at most
//! `workers` threads that claim job indices from a shared atomic counter
//! (self-scheduling, so expensive jobs load-balance), and return the
//! results in job order. The closure may borrow freely from the caller.
//! `workers == 1` runs inline on the caller's thread — no spawn at all —
//! which is the fast path a serving request's engine evaluation takes (a
//! server's own worker pool provides the request-level parallelism, so
//! nested spawns would only add latency). Results are bitwise identical
//! for every worker count (the determinism suites enforce it).

use std::sync::atomic::{AtomicUsize, Ordering};

/// The default worker count: `available_parallelism()`, falling back to
/// one worker when the parallelism query fails.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The scoped self-scheduling batch core: runs `count` independent jobs on
/// at most `workers` scoped threads (spawned for this call; `workers == 1`
/// runs inline on the caller with zero spawns) and returns the results in
/// job order. `eval` may borrow from the caller's stack — the reason this
/// path uses `std::thread::scope` instead of a persistent pool: safe Rust
/// cannot hand a stack borrow to threads that outlive the call. For
/// deterministic `eval`, the returned vector is bitwise identical for
/// every `workers` value.
///
/// # Panics
///
/// Panics if `workers` is zero, or propagates a panic from `eval`.
///
/// # Errors
///
/// Returns the first (by job order) error any job produced.
pub fn scoped_batch<T, E, F>(count: usize, workers: usize, eval: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    assert!(workers > 0, "need at least one batch worker");
    if count == 0 {
        return Ok(Vec::new());
    }
    let workers = workers.min(count);
    if workers == 1 {
        // Inline fast path: identical job order, no thread at all. This is
        // what keeps a serving request's engine evaluation spawn-free.
        return (0..count).map(&eval).collect();
    }

    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<Result<T, E>>> = Vec::new();
    results.resize_with(count, || None);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, eval(i)));
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("batch worker panicked") {
                results[i] = Some(result);
            }
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("every job evaluated"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn scoped_batch_single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(Vec::new());
        scoped_batch::<_, String, _>(5, 1, |i| {
            ran_on.lock().unwrap().push(std::thread::current().id());
            Ok(i)
        })
        .unwrap();
        assert!(ran_on.lock().unwrap().iter().all(|&id| id == caller));
    }

    #[test]
    fn scoped_batch_matches_for_any_worker_count() {
        let expect: Vec<usize> = (0..40).map(|i| i * 7 + 1).collect();
        for workers in [1, 2, 5, 64] {
            let got = scoped_batch::<_, String, _>(40, workers, |i| Ok(i * 7 + 1)).unwrap();
            assert_eq!(got, expect, "workers = {workers}");
        }
    }
}
