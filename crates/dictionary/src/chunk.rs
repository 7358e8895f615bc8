//! Copy-on-write chunked sequences — the storage layer of the persistent
//! tree ([`crate::persistent`]).
//!
//! A [`ChunkedVec`] stores its elements in fixed-size chunks, each behind an
//! [`Arc`]. Cloning the sequence clones only the chunk *spine* (one `Arc`
//! bump per chunk); mutating an element or truncating inside a chunk
//! materializes a private copy of just that chunk. Two sequences that share
//! history therefore share every chunk neither has touched — which is what
//! turns snapshot publication from an O(n) level copy into O(chunks) `Arc`
//! bumps, with O(dirty chunks) copying paid by the *writer* at mutation
//! time.
//!
//! The chunk size trades sharing granularity against spine overhead: at
//! [`CHUNK`] = 1024 a 1M-leaf dictionary has ~1k leaf-level chunks (an 8 KB
//! spine) and a 100-leaf *append* batch — the common issuance pattern,
//! fresh serials sorting after old ones — dirties at most two chunks per
//! level. A batch landing mid-tree (or a rollback) rewrites each level's
//! suffix from the first changed position, dirtying
//! O((n − dirty_from)/CHUNK) chunks per level: values are copied but never
//! rehashed, and everything left of the front stays shared.
//!
//! Those suffix rewrites go through the bulk operations, never one element
//! at a time: [`ChunkedVec::suffix_to_vec`] copies whole chunk slices out,
//! and [`ChunkedVec::extend`] tops up the tail chunk once and then builds
//! fresh full chunks. Moving elements one at a time paid a copy-on-write
//! check or a division each; the bulk path roughly halved the mirror's
//! batch apply plus publish (5.7 → 3.0 ms for 5 serials into 50k leaves).
//!
//! Every slot materialized by a copy-on-write clone, extend, or truncation is
//! counted in a thread-local tally ([`slots_materialized`]) so tests and
//! benches can assert the O(b·log n + chunks) publish cost instead of
//! trusting it.

use std::cell::Cell;
use std::sync::Arc;

/// Elements per chunk. See the module docs for the size rationale.
pub const CHUNK: usize = 1024;

thread_local! {
    static MATERIALIZED: Cell<u64> = const { Cell::new(0) };
}

/// Total element slots this thread has materialized (freshly written or
/// copied by a copy-on-write clone) across all [`ChunkedVec`]s. Monotonic;
/// measure costs as deltas. Thread-local so concurrent tests do not
/// interfere.
pub fn slots_materialized() -> u64 {
    MATERIALIZED.with(Cell::get)
}

fn note(slots: usize) {
    MATERIALIZED.with(|c| c.set(c.get() + slots as u64));
}

/// A chunked sequence with `Arc`-shared, copy-on-write chunks.
///
/// Invariant: every chunk except the last holds exactly [`CHUNK`] elements;
/// the last holds `1..=CHUNK`; an empty sequence has no chunks.
#[derive(Debug, Clone)]
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// An empty sequence.
    pub fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn get(&self, index: usize) -> &T {
        debug_assert!(index < self.len, "chunked index out of bounds");
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    /// Chunks this sequence shares with `other` (same `Arc`), for sharing
    /// assertions in tests.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Number of chunks in the spine.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// A unique (copy-on-write) reference to chunk `ci`. A copy is given
    /// the full [`CHUNK`] capacity, so topping up a copied tail chunk never
    /// reallocates.
    fn chunk_mut(&mut self, ci: usize) -> &mut Vec<T> {
        let arc = &mut self.chunks[ci];
        if Arc::get_mut(arc).is_none() {
            note(arc.len());
            let mut copy = Vec::with_capacity(CHUNK);
            copy.extend_from_slice(arc);
            *arc = Arc::new(copy);
        }
        Arc::get_mut(arc).expect("chunk unique after copy-on-write")
    }

    /// Appends every element of `iter`, a chunk at a time: the tail chunk
    /// is topped up through one copy-on-write check, then each further
    /// [`CHUNK`] elements become one fresh chunk. Materializes the added
    /// slots plus, when the tail chunk is shared, one copy of it.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = T>) {
        let mut iter = iter.into_iter().peekable();
        let mut added = 0;
        let room = (CHUNK - self.len % CHUNK) % CHUNK;
        if room > 0 && iter.peek().is_some() {
            let ci = self.chunks.len() - 1;
            let tail = self.chunk_mut(ci);
            let before = tail.len();
            tail.extend(iter.by_ref().take(room));
            added += tail.len() - before;
        }
        while let Some(first) = iter.next() {
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.push(first);
            chunk.extend(iter.by_ref().take(CHUNK - 1));
            added += chunk.len();
            self.chunks.push(Arc::new(chunk));
        }
        self.len += added;
        note(added);
    }

    /// Copies the elements at `from..len()` out, whole chunk slices at a
    /// time (empty when `from >= len()`).
    pub fn suffix_to_vec(&self, from: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len.saturating_sub(from));
        if from < self.len {
            let first = from / CHUNK;
            out.extend_from_slice(&self.chunks[first][from % CHUNK..]);
            for chunk in &self.chunks[first + 1..] {
                out.extend_from_slice(chunk);
            }
        }
        out
    }

    /// Shortens the sequence to `new_len` elements. Whole dropped chunks
    /// cost nothing; a cut inside a shared chunk copies only the kept
    /// prefix.
    pub fn truncate(&mut self, new_len: usize) {
        if new_len >= self.len {
            return;
        }
        let keep = new_len.div_ceil(CHUNK);
        self.chunks.truncate(keep);
        if keep > 0 {
            let tail_len = new_len - (keep - 1) * CHUNK;
            let ci = keep - 1;
            if self.chunks[ci].len() != tail_len {
                match Arc::get_mut(&mut self.chunks[ci]) {
                    Some(chunk) => chunk.truncate(tail_len),
                    None => {
                        note(tail_len);
                        let prefix = self.chunks[ci][..tail_len].to_vec();
                        self.chunks[ci] = Arc::new(prefix);
                    }
                }
            }
        }
        self.len = new_len;
    }

    /// Drops every element.
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// Iterates the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Index of the first element for which `pred` is false (all elements
    /// satisfying `pred` must precede all that do not, as with
    /// `slice::partition_point`).
    pub fn partition_point(&self, pred: impl Fn(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Binary-searches with a comparator, as `slice::binary_search_by`.
    pub fn binary_search_by(&self, f: impl Fn(&T) -> core::cmp::Ordering) -> Result<usize, usize> {
        use core::cmp::Ordering;
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match f(self.get(mid)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Approximate heap bytes held by the chunks (shared chunks counted in
    /// full — this measures reachable storage, not unique ownership).
    pub fn heap_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.capacity() * core::mem::size_of::<T>())
            .sum::<usize>()
            + self.chunks.capacity() * core::mem::size_of::<Arc<Vec<T>>>()
    }
}

impl<T: Clone> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkedVec::new();
        out.extend(iter);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> ChunkedVec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn push_get_iter_round_trip() {
        let v = filled(2 * CHUNK + 37);
        assert_eq!(v.len(), 2 * CHUNK + 37);
        assert_eq!(*v.get(0), 0);
        assert_eq!(*v.get(CHUNK), CHUNK as u32);
        assert_eq!(*v.get(2 * CHUNK + 36), (2 * CHUNK + 36) as u32);
        let collected: Vec<u32> = v.iter().copied().collect();
        assert_eq!(collected.len(), v.len());
        assert!(collected.windows(2).all(|w| w[0] + 1 == w[1]));
    }

    #[test]
    fn clone_shares_every_chunk() {
        let v = filled(3 * CHUNK + 5);
        let before = slots_materialized();
        let c = v.clone();
        assert_eq!(slots_materialized(), before, "clone materializes nothing");
        assert_eq!(c.shared_chunks_with(&v), v.chunk_count());
    }

    #[test]
    fn mutation_after_clone_copies_only_dirty_chunks() {
        let mut v = filled(4 * CHUNK);
        let snap = v.clone();
        let before = slots_materialized();
        v.extend([99]); // new tail chunk: 1 fresh slot, no copy
        assert_eq!(slots_materialized() - before, 1);
        assert_eq!(snap.shared_chunks_with(&v), 4, "old chunks still shared");
        assert_eq!(snap.len(), 4 * CHUNK);
        assert_eq!(*v.get(4 * CHUNK), 99);

        // Truncating inside a shared chunk copies only that chunk's prefix.
        let before = slots_materialized();
        v.truncate(CHUNK + 10);
        assert!(slots_materialized() - before <= 10);
        assert_eq!(snap.shared_chunks_with(&v), 1);
        // The retained snapshot still sees every original element.
        assert_eq!(*snap.get(4 * CHUNK - 1), (4 * CHUNK - 1) as u32);
    }

    #[test]
    fn truncate_then_extend_matches_vec() {
        let mut v = filled(2 * CHUNK + 100);
        let _keep = v.clone();
        v.truncate(CHUNK - 3);
        v.extend(1000..1100u32);
        let expect: Vec<u32> = (0..(CHUNK - 3) as u32).chain(1000..1100).collect();
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), expect);
        v.truncate(0);
        assert!(v.is_empty());
        assert_eq!(v.chunk_count(), 0);
    }

    #[test]
    fn bulk_extend_materializes_exactly_the_added_slots() {
        let edges = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3];
        for start in edges {
            for add in edges {
                let base = filled(start);
                let _published = base.clone(); // every chunk shared
                let mut bulk = base.clone();
                let before = slots_materialized();
                bulk.extend(0..add as u32);
                let bulk_cost = slots_materialized() - before;
                // The added slots, plus one copy of a shared partial tail.
                let tail_copy = if add > 0 { start % CHUNK } else { 0 };
                assert_eq!(bulk_cost, (add + tail_copy) as u64, "{start} + {add}");
                assert_eq!(bulk.len(), start + add);
                assert_eq!(bulk.chunk_count(), (start + add).div_ceil(CHUNK));
                let expect = (0..start as u32).chain(0..add as u32);
                assert!(bulk.iter().copied().eq(expect), "{start} + {add}");
                let untouched = if add > 0 {
                    start / CHUNK
                } else {
                    base.chunk_count()
                };
                assert_eq!(bulk.shared_chunks_with(&base), untouched);
            }
        }
    }

    #[test]
    fn suffix_to_vec_matches_skip() {
        let v = filled(2 * CHUNK + 37);
        for from in [
            0,
            1,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            2 * CHUNK,
            v.len() - 1,
            v.len(),
            v.len() + 5,
        ] {
            let expect: Vec<u32> = v.iter().skip(from).copied().collect();
            assert_eq!(v.suffix_to_vec(from), expect, "from {from}");
        }
    }

    #[test]
    fn search_matches_slice_behaviour() {
        let v = filled(CHUNK + 77);
        assert_eq!(v.partition_point(|&x| x < 500), 500);
        assert_eq!(v.partition_point(|&x| x < 1_000_000), v.len());
        assert_eq!(v.binary_search_by(|x| x.cmp(&600)), Ok(600));
        assert_eq!(v.binary_search_by(|x| x.cmp(&1_000_000)), Err(v.len()));
    }
}
