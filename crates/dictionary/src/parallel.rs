//! A small scoped-thread fork/join pool for hashing work.
//!
//! Full tree rebuilds and Heartbleed-scale batches hash hundreds of
//! thousands of independent leaves and interior nodes; on a multi-core RA
//! or CA that work is embarrassingly parallel. [`HashPool`] splits an index
//! range (or a list of owned tasks) into one contiguous chunk per worker
//! and runs the chunks on `std::thread::scope` threads, the calling thread
//! taking the last chunk itself (a 2-worker pool spawns one thread per
//! call, not two) — std-only, no external dependencies, and results are
//! concatenated back in input order so parallel and sequential execution
//! are bit-identical.
//!
//! Small inputs (below [`PAR_THRESHOLD`]) and single-worker pools run
//! inline: spawning threads for a handful of hashes costs more than it
//! saves, and it keeps the single-core fallback allocation-free.

use std::sync::OnceLock;

/// Minimum number of items before [`HashPool`] spawns threads; below this
/// the sequential loop wins on thread-spawn overhead alone.
pub const PAR_THRESHOLD: usize = 4096;

/// A fork/join worker pool over scoped threads.
///
/// The pool is just a worker count: each call carves its input into that
/// many contiguous chunks and joins them in order, so no state persists
/// between calls and borrowed inputs work without `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct HashPool {
    workers: usize,
}

impl HashPool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        HashPool {
            workers: workers.max(1),
        }
    }

    /// A single-worker pool: every call runs inline on the caller's thread.
    pub fn sequential() -> Self {
        HashPool::new(1)
    }

    /// The process-wide default pool, sized from
    /// `std::thread::available_parallelism` (overridable with the
    /// `RITM_HASH_WORKERS` environment variable, read once).
    pub fn global() -> &'static HashPool {
        static GLOBAL: OnceLock<HashPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = std::env::var("RITM_HASH_WORKERS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&w| w > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(std::num::NonZeroUsize::get)
                        .unwrap_or(1)
                });
            HashPool::new(workers)
        })
    }

    /// Number of workers this pool fans out to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `start..end`, returning results in index order.
    ///
    /// Runs inline when the pool has one worker or the range is shorter
    /// than [`PAR_THRESHOLD`].
    pub fn map_range<U, F>(&self, start: usize, end: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let n = end.saturating_sub(start);
        if self.workers == 1 || n < PAR_THRESHOLD {
            return (start..end).map(f).collect();
        }
        let chunks = self.workers.min(n);
        let per = n.div_ceil(chunks);
        let f = &f;
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|s| {
            // The caller hashes the last chunk itself instead of idling.
            let handles: Vec<_> = (0..chunks - 1)
                .map(|c| {
                    let lo = start + c * per;
                    let hi = (lo + per).min(end);
                    s.spawn(move || (lo..hi).map(f).collect::<Vec<U>>())
                })
                .collect();
            let own_lo = (start + (chunks - 1) * per).min(end);
            let own: Vec<U> = (own_lo..end).map(f).collect();
            for h in handles {
                out.extend(h.join().expect("hash worker panicked"));
            }
            out.extend(own);
        });
        out
    }

    /// Runs `f` over a list of owned tasks (e.g. per-shard batches),
    /// returning results in task order. Unlike [`HashPool::map_range`] this
    /// always fans out when there is more than one task and more than one
    /// worker — callers use it for coarse-grained jobs where each task is
    /// itself substantial.
    pub fn run_tasks<T, U, F>(&self, tasks: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = tasks.len();
        if self.workers == 1 || n <= 1 {
            return tasks.into_iter().map(f).collect();
        }
        let chunks = self.workers.min(n);
        let per = n.div_ceil(chunks);
        let f = &f;
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(chunks);
            let mut rest = tasks;
            // Spawn every chunk but the last; the caller runs that one.
            while rest.len() > per {
                let tail = rest.split_off(per);
                let chunk = rest;
                rest = tail;
                handles.push(s.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()));
            }
            let own: Vec<U> = rest.into_iter().map(f).collect();
            for h in handles {
                out.extend(h.join().expect("task worker panicked"));
            }
            out.extend(own);
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_matches_sequential() {
        let pool = HashPool::new(4);
        let par = pool.map_range(0, PAR_THRESHOLD + 37, |i| i * 3);
        let seq: Vec<usize> = (0..PAR_THRESHOLD + 37).map(|i| i * 3).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn small_ranges_run_inline() {
        let pool = HashPool::new(8);
        assert_eq!(pool.map_range(5, 8, |i| i), vec![5, 6, 7]);
        assert_eq!(pool.map_range(5, 5, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn run_tasks_preserves_order() {
        let pool = HashPool::new(3);
        let tasks: Vec<u64> = (0..10).collect();
        assert_eq!(
            pool.run_tasks(tasks, |t| t * t),
            (0..10).map(|t| t * t).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn single_worker_is_inline() {
        let pool = HashPool::sequential();
        assert_eq!(pool.workers(), 1);
        let v = pool.map_range(0, PAR_THRESHOLD * 2, |i| i);
        assert_eq!(v.len(), PAR_THRESHOLD * 2);
    }

    #[test]
    fn global_pool_has_at_least_one_worker() {
        assert!(HashPool::global().workers() >= 1);
    }
}
