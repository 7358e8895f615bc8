//! Copy-on-write chunked sequences — the storage layer of the persistent
//! tree ([`crate::persistent`]) and of the serial logs.
//!
//! A [`ChunkedVec`] stores its elements in fixed-size chunks, each behind an
//! [`Arc`]. Cloning the sequence clones only the chunk *spine* (one `Arc`
//! bump per chunk); mutating an element or truncating inside a chunk
//! materializes a private copy of just that chunk. Two sequences that share
//! history therefore share every chunk neither has touched — which is what
//! turns snapshot publication from an O(n) copy into O(chunks) `Arc`
//! bumps, with O(dirty chunks) copying paid by the *writer* at mutation
//! time.
//!
//! The chunk size trades sharing granularity against spine overhead: at
//! [`CHUNK`] = 1024 a 1M-entry log has ~1k chunks (an 8 KB spine) and an
//! append dirties only its tail chunk. A sequence may pick its own size:
//! the trie's node arenas use smaller chunks, since a batch writes nodes
//! all over them ([`crate::persistent::NODE_CHUNK`]).
//!
//! Appends go through the bulk operations, never one element at a time
//! where a slice will do: [`ChunkedVec::extend_from_slice`] tops up the
//! tail chunk once and then builds fresh full chunks, copying whole slices.
//!
//! Only whole chunks are allocated at full size. A sequence's last chunk
//! starts at the size it needs and doubles up to a full chunk as it fills,
//! so a small tree costs its contents, not a full chunk per sequence, and a
//! full chunk is never reallocated.
//!
//! Every slot materialized by a copy-on-write clone, extend, or truncation is
//! counted in a thread-local tally ([`slots_materialized`]) so tests can
//! assert the O(b·log n + chunks) publish cost instead of trusting it.

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

/// The capacity a chunk of capacity `cap` needs to hold `need` elements:
/// unchanged while they fit, otherwise doubled (at least to `need`) and
/// never past `chunk`.
fn grown(cap: usize, need: usize, chunk: usize) -> usize {
    debug_assert!(need <= chunk, "a chunk holds at most its size");
    if need <= cap {
        cap
    } else {
        need.max((2 * cap).min(chunk))
    }
}

/// Makes room in `chunk` for `extra` more elements by the [`grown`] rule.
fn reserve<T>(chunk: &mut Vec<T>, extra: usize, size: usize) {
    let cap = grown(chunk.capacity(), chunk.len() + extra, size);
    chunk.reserve_exact(cap - chunk.len());
}

/// A chunked sequence with `Arc`-shared, copy-on-write chunks.
///
/// `C` elements make a chunk: `C` unless a sequence picks its own.
/// Invariant: every chunk except the last holds exactly `C` elements; the
/// last holds `1..=C`; an empty sequence has no chunks.
#[derive(Debug, Clone)]
pub struct ChunkedVec<T, const C: usize = CHUNK> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T, const C: usize> Default for ChunkedVec<T, C> {
    fn default() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone, const C: usize> ChunkedVec<T, C> {
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
        &self.chunks[index / C][index % C]
    }

    /// A unique reference to the element at `index`, its chunk copied
    /// first when shared.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn get_mut(&mut self, index: usize) -> &mut T {
        &mut self.chunk_mut(index / C, 0)[index % C]
    }

    /// Appends one element, returning its index.
    pub fn push(&mut self, value: T) -> usize {
        self.extend([value]);
        self.len - 1
    }

    /// The elements from `index` to the end of the chunk holding it.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn rest_of_chunk(&self, index: usize) -> &[T] {
        &self.chunks[index / C][index % C..]
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

    /// A unique (copy-on-write) reference to chunk `ci`, with room for
    /// `extra` more elements. A copy gets the capacity the [`grown`] rule
    /// gives the original, so topping up a copied tail chunk reallocates no
    /// more often than topping up the original would.
    fn chunk_mut(&mut self, ci: usize, extra: usize) -> &mut Vec<T> {
        let arc = &mut self.chunks[ci];
        if Arc::get_mut(arc).is_none() {
            note(arc.len());
            let mut copy = Vec::with_capacity(grown(arc.capacity(), arc.len() + extra, C));
            copy.extend_from_slice(arc);
            *arc = Arc::new(copy);
        }
        let chunk = Arc::get_mut(arc).expect("chunk unique after copy-on-write");
        reserve(chunk, extra, C);
        chunk
    }

    /// Appends every element of `iter`, a chunk at a time: the tail chunk
    /// is topped up through one copy-on-write check, then each further
    /// `C` elements become one fresh chunk. Materializes the added
    /// slots plus, when the tail chunk is shared, one copy of it.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = T>) {
        let mut iter = iter.into_iter().peekable();
        let mut added = 0;
        while iter.peek().is_some() {
            let room = C - self.len % C;
            if room == C {
                self.chunks.push(Arc::new(Vec::new()));
            }
            let ci = self.chunks.len() - 1;
            let hint = iter.size_hint().0.clamp(1, room);
            let tail = self.chunk_mut(ci, hint);
            let before = tail.len();
            for item in iter.by_ref().take(room) {
                if tail.len() == tail.capacity() {
                    reserve(tail, 1, C);
                }
                tail.push(item);
            }
            let pushed = tail.len() - before;
            self.len += pushed;
            added += pushed;
        }
        note(added);
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

impl<T: Copy, const C: usize> ChunkedVec<T, C> {
    /// Appends `items` with slice copies: the tail chunk is topped up
    /// through one copy-on-write check, then each further `C`
    /// elements become one fresh chunk.
    pub fn extend_from_slice(&mut self, mut items: &[T]) {
        note(items.len());
        let room = (C - self.len % C) % C;
        self.len += items.len();
        if room > 0 && !items.is_empty() {
            let (head, rest) = items.split_at(room.min(items.len()));
            let ci = self.chunks.len() - 1;
            self.chunk_mut(ci, head.len()).extend_from_slice(head);
            items = rest;
        }
        for part in items.chunks(C) {
            self.chunks.push(Arc::new(part.to_vec()));
        }
    }

    /// Copies the elements at `from..from + out.len()` into `out`, across
    /// a chunk edge where the range straddles one.
    ///
    /// # Panics
    ///
    /// Panics when the range runs past `len()`.
    pub fn copy_to(&self, mut from: usize, out: &mut [T]) {
        assert!(from + out.len() <= self.len, "chunked range out of bounds");
        let mut done = 0;
        while done < out.len() {
            let chunk = &self.chunks[from / C];
            let at = from % C;
            let n = (out.len() - done).min(chunk.len() - at);
            out[done..done + n].copy_from_slice(&chunk[at..at + n]);
            (done, from) = (done + n, from + n);
        }
    }
}

impl<T: Clone, const C: usize> FromIterator<T> for ChunkedVec<T, C> {
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

        // The retained snapshot still sees every original element.
        assert_eq!(*snap.get(4 * CHUNK - 1), (4 * CHUNK - 1) as u32);
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

    fn capacities(v: &ChunkedVec<u32>) -> Vec<usize> {
        v.chunks.iter().map(|c| c.capacity()).collect()
    }

    #[test]
    fn the_last_chunk_grows_by_doubling_up_to_a_full_chunk() {
        // A bulk load sizes every chunk exactly: full ones at CHUNK, the
        // last at what it holds.
        let v = filled(2 * CHUNK + 5);
        assert_eq!(capacities(&v), [CHUNK, CHUNK, 5]);
        assert_eq!(
            v.heap_bytes(),
            (2 * CHUNK + 5) * 4 + v.chunks.capacity() * 8
        );

        // Topping up doubles the last chunk, never past CHUNK.
        let mut v = filled(3);
        v.extend_from_slice(&[3]);
        assert_eq!(capacities(&v), [6]);
        v.extend(4..600u32);
        assert_eq!(capacities(&v), [600]);
        v.extend(600..700u32);
        assert_eq!(capacities(&v), [CHUNK]);
        let full = v.chunks[0].as_ptr();
        v.extend(700..CHUNK as u32 + 1);
        assert_eq!(capacities(&v), [CHUNK, 1]);
        assert_eq!(
            v.chunks[0].as_ptr(),
            full,
            "a full chunk is never reallocated"
        );
        assert!(v.iter().copied().eq(0..CHUNK as u32 + 1));

        // A shared tail copy gets the capacity its top-up needs.
        let mut v = filled(CHUNK + 4);
        assert_eq!(capacities(&v), [CHUNK, 4]);
        let _published = v.clone();
        v.extend([7]);
        assert_eq!(capacities(&v), [CHUNK, 8]);
    }

    #[test]
    fn search_matches_slice_behaviour() {
        let v = filled(CHUNK + 77);
        assert_eq!(v.partition_point(|&x| x < 500), 500);
        assert_eq!(v.partition_point(|&x| x < 1_000_000), v.len());
        assert_eq!(v.partition_point(|&x| x < 1), 1);
    }
}
