//! The fault-tolerant worker pool: the one place that starts analysis
//! threads.
//!
//! Every parallel corpus run goes through [`run_pool`]. An app's
//! analysis runs start to finish on the pool thread that took it, so
//! `--jobs N` means N analysis threads. Workers claim job indices from
//! one shared cursor, so a worker that draws short jobs simply claims
//! more of them. Every job runs under panic containment: a panicking
//! job loses only its own result slot, and the worker rebuilds its
//! state and keeps going.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: available parallelism, capped at 16 (analysis
/// is memory-bandwidth-bound well before that on bigger hosts). std
/// reads the cgroup quota files on every call, so callers read it once
/// and keep the number.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Runs `n` jobs across `workers` threads (clamped to at least 1 and at
/// most `n`) and returns one slot per job, in order. A slot is `None`
/// only when the job's panic escaped `task`'s own containment *and* the
/// pool's backstop — i.e. the job panicked; all other jobs are
/// unaffected.
///
/// `make_worker` builds each worker's private state (e.g. a configured
/// checker); after a contained panic the state is rebuilt, since the
/// panicking job may have left it inconsistent.
pub fn run_pool<W, T>(
    n: usize,
    workers: usize,
    make_worker: impl Fn() -> W + Sync,
    task: impl Fn(&mut W, usize) -> T + Sync,
) -> Vec<Option<T>>
where
    T: Send,
{
    if n == 0 {
        return Vec::new();
    }
    // The cursor publishes nothing but the index itself (the jobs'
    // inputs are shared before the threads start, results come back
    // through `join`), so `Relaxed` suffices: `fetch_add` still hands
    // every index out exactly once.
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, n))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = make_worker();
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        match catch_unwind(AssertUnwindSafe(|| task(&mut state, i))) {
                            Ok(v) => done.push((i, v)),
                            // The job panicked through `task`'s own
                            // containment; its slot stays empty and the
                            // worker state is suspect — rebuild it.
                            Err(_) => state = make_worker(),
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            for (i, v) in handle.join().expect("pool worker panicked outside a job") {
                slots[i] = Some(v);
            }
        }
    });
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn all_jobs_complete_in_order_slots() {
        let out = run_pool(100, 4, || (), |(), i| i * 2);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 2));
        }
    }

    #[test]
    fn single_worker_and_more_workers_than_jobs() {
        assert_eq!(
            run_pool(3, 1, || (), |(), i| i),
            vec![Some(0), Some(1), Some(2)]
        );
        assert_eq!(run_pool(2, 64, || (), |(), i| i), vec![Some(0), Some(1)]);
        assert!(run_pool(0, 1, || (), |(), i: usize| i).is_empty());
    }

    #[test]
    fn panicking_job_loses_only_its_slot() {
        let rebuilds = AtomicUsize::new(0);
        let out = run_pool(
            20,
            3,
            || {
                rebuilds.fetch_add(1, Ordering::SeqCst);
            },
            |(), i| {
                if i == 7 {
                    panic!("job 7 explodes");
                }
                i
            },
        );
        assert_eq!(out[7], None);
        for (i, v) in out.iter().enumerate() {
            if i != 7 {
                assert_eq!(*v, Some(i), "job {i} unaffected");
            }
        }
        // Initial 3 worker states plus at least one rebuild after the
        // contained panic.
        assert!(rebuilds.load(Ordering::SeqCst) >= 4);
    }

    #[test]
    fn cursor_hands_out_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let out = run_pool(
            1000,
            8,
            || (),
            |(), i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
                i
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "job {i} ran once");
        }
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn skewed_job_lengths_all_complete() {
        // Every fourth job is slow; the workers that draw fast jobs
        // claim the rest from the shared cursor, and every job
        // completes.
        let out = run_pool(
            32,
            4,
            || (),
            |(), i| {
                if i % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i + 1
            },
        );
        assert!(out.iter().all(|v| v.is_some()));
    }

    #[test]
    fn worker_state_is_private_and_reused() {
        // Each worker counts its jobs in private state; totals add up.
        let totals = Mutex::new(Vec::new());
        let out = run_pool(
            50,
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                // Record the running count on the last visible job.
                if *count > 0 {
                    totals.lock().unwrap().push(1usize);
                }
                i
            },
        );
        assert_eq!(out.iter().flatten().count(), 50);
        assert_eq!(totals.lock().unwrap().len(), 50);
    }
}
