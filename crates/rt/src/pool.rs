//! A small free-list of reusable byte buffers.
//!
//! The event-driven serving stack allocates the same shapes over and over:
//! a request frame per round trip, a scratch buffer per encoded flight.
//! [`BufPool`] recycles those `Vec<u8>`s instead — `get` pops a cleared
//! buffer (its capacity warm from previous use), `put` returns one. Two
//! caps bound what the pool may pin: at most `max_pooled` buffers are
//! retained, and a buffer whose capacity exceeds `max_capacity` is dropped
//! rather than pooled, so one oversized frame (a megabyte `Update` page)
//! never parks a megabyte in the free list forever.
//!
//! The pool is `Clone` (handles share one free list) and thread-safe; the
//! lock is held only for a `Vec` push/pop.

use std::sync::{Arc, Mutex};

/// Default cap on pooled buffers per pool.
pub const DEFAULT_MAX_POOLED: usize = 64;

/// Default per-buffer capacity cap: buffers grown past this are dropped on
/// [`BufPool::put`] instead of pooled.
pub const DEFAULT_MAX_BUF_CAPACITY: usize = 64 * 1024;

/// A bounded, shared free-list of `Vec<u8>` scratch buffers.
#[derive(Debug, Clone)]
pub struct BufPool {
    free: Arc<Mutex<Vec<Vec<u8>>>>,
    max_pooled: usize,
    max_capacity: usize,
}

impl Default for BufPool {
    fn default() -> Self {
        BufPool::new(DEFAULT_MAX_POOLED, DEFAULT_MAX_BUF_CAPACITY)
    }
}

impl BufPool {
    /// A pool retaining at most `max_pooled` buffers, each of capacity at
    /// most `max_capacity` (larger buffers are dropped on [`put`], not
    /// pooled — the shrink policy).
    ///
    /// [`put`]: BufPool::put
    pub fn new(max_pooled: usize, max_capacity: usize) -> Self {
        BufPool {
            free: Arc::new(Mutex::new(Vec::new())),
            max_pooled,
            max_capacity,
        }
    }

    /// Pops a cleared buffer from the free list, or a fresh empty `Vec`
    /// when the pool is dry.
    pub fn get(&self) -> Vec<u8> {
        self.free
            .lock()
            .expect("pool lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a buffer to the free list. The buffer is cleared; it is
    /// dropped instead of pooled when the pool is full or the buffer's
    /// capacity exceeds the pool's per-buffer cap.
    pub fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_capacity {
            return;
        }
        buf.clear();
        let mut free = self.free.lock().expect("pool lock poisoned");
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }

    /// Buffers currently parked in the free list.
    pub fn pooled(&self) -> usize {
        self.free.lock().expect("pool lock poisoned").len()
    }

    /// Total capacity (bytes) parked in the free list — what the pool
    /// currently pins. Bounded by `max_pooled * max_capacity`.
    #[cfg(test)]
    fn pooled_bytes(&self) -> usize {
        self.free
            .lock()
            .expect("pool lock poisoned")
            .iter()
            .map(Vec::capacity)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_reuses_put_buffers_with_warm_capacity() {
        let pool = BufPool::new(4, 1024);
        let mut buf = pool.get();
        assert_eq!(buf.capacity(), 0);
        buf.extend_from_slice(&[7u8; 100]);
        let cap = buf.capacity();
        pool.put(buf);
        assert_eq!(pool.pooled(), 1);
        let reused = pool.get();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn oversized_and_excess_buffers_are_dropped_not_pooled() {
        let pool = BufPool::new(2, 64);
        // Over the per-buffer capacity cap: dropped.
        pool.put(Vec::with_capacity(1024));
        assert_eq!(pool.pooled(), 0);
        // Over the pool-size cap: the third buffer is dropped.
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(16));
        assert_eq!(pool.pooled(), 2);
        assert!(pool.pooled_bytes() <= 2 * 64);
    }

    #[test]
    fn clones_share_one_free_list() {
        let pool = BufPool::new(4, 1024);
        let clone = pool.clone();
        clone.put(Vec::with_capacity(8));
        assert_eq!(pool.pooled(), 1);
        assert_eq!(pool.get().capacity(), 8);
    }
}
