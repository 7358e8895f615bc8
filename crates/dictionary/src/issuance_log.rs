//! The issuance log, packed: every revoked serial by revocation number,
//! stored as `len ‖ bytes` instead of a 21-byte [`SerialNumber`].
//!
//! It is the one serial store of a dictionary, on the CA and the RA alike:
//! [`crate::PersistentTree`] owns one, and its trie points at a leaf by
//! revocation number, reading the serial from here. The CDN origin keeps
//! its catch-up copy in the same type.
//!
//! Both parts live in copy-on-write [`ChunkedVec`]s, so cloning a log (what
//! publishing a snapshot of the tree does) costs O(chunks) `Arc` bumps, and
//! an append after the clone — a mirror applying its next batch to a copy
//! of its tree — copies at most one chunk per part, leaving the clone's
//! entries intact.
//!
//! A 3-byte serial costs 4 bytes plus a 4-byte offset. Offsets are `u32`,
//! so one log holds at most 4 GiB of entries: more than 200 M 20-byte
//! serials.

use crate::chunk::{ChunkedVec, CHUNK};
use crate::serial::{SerialNumber, MAX_SERIAL_LEN};
use crate::tree::Leaf;

/// Offset-table value of a slot whose entry is not written yet. No real
/// entry starts there: [`check_ceiling`] keeps every log shorter.
const UNSET: u32 = u32::MAX;

/// Serials by revocation number: entry `i` carries revocation number
/// `i + 1`.
///
/// Entries are found through a dense offset table, so their bytes need not
/// be in number order: a batch appends its serials in the order it is
/// given them (sorted by serial, for the tree) and records each entry's
/// offset under its number.
#[derive(Debug, Clone, Default)]
pub struct SerialLog {
    /// `len ‖ bytes` per entry.
    bytes: ChunkedVec<u8>,
    /// `offsets[i]` is where entry `i` starts in `bytes`.
    offsets: ChunkedVec<u32>,
}

impl SerialLog {
    /// Number of serials logged.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// `true` when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The serial of entry `index` (revocation number `index + 1`).
    ///
    /// # Panics
    ///
    /// Panics when `index >= len()`.
    pub fn get(&self, index: usize) -> SerialNumber {
        let at = *self.offsets.get(index) as usize;
        let mut window = [0u8; MAX_SERIAL_LEN];
        // Most entries sit 21 bytes or more before the end of their chunk:
        // read a whole window and let the length byte cut it.
        if let Some((&len, rest)) = self.bytes.rest_of_chunk(at).split_first() {
            if let Some(full) = rest.first_chunk::<MAX_SERIAL_LEN>() {
                return SerialNumber::from_window(full, len as usize);
            }
        }
        let len = *self.bytes.get(at) as usize;
        self.bytes.copy_to(at + 1, &mut window[..len]);
        SerialNumber::from_window(&window, len)
    }

    /// The serials of entries `from..to`.
    ///
    /// # Panics
    ///
    /// Panics unless `from <= to <= len()`.
    pub fn range(&self, from: usize, to: usize) -> Vec<SerialNumber> {
        assert!(from <= to && to <= self.len(), "log range out of bounds");
        (from..to).map(|i| self.get(i)).collect()
    }

    /// Appends `serials` in order.
    pub fn extend(&mut self, serials: &[SerialNumber]) {
        let mut at = self.bytes.len();
        check_ceiling(at + serials.iter().map(|s| 1 + s.len()).sum::<usize>());
        self.offsets.extend(serials.iter().map(|s| {
            let offset = at as u32;
            at += 1 + s.len();
            offset
        }));
        self.push_entries(serials.iter());
    }

    /// Appends a batch whose revocation numbers are exactly
    /// `len() + 1 ..= len() + leaves.len()`, in any order: the bytes go in
    /// the order of `leaves`, each offset under its leaf's number.
    ///
    /// # Panics
    ///
    /// Panics, leaving the log as it was, when the numbers are not exactly
    /// that range.
    pub(crate) fn append_numbered(&mut self, leaves: &[Leaf]) {
        let (base, mut at) = (self.len(), self.bytes.len());
        check_ceiling(at + leaves.iter().map(|l| 1 + l.serial.len()).sum::<usize>());
        // Filled in a plain vector first: writing the chunked table slot by
        // slot would pay a copy-on-write check per slot.
        let mut offsets = vec![UNSET; leaves.len()];
        for leaf in leaves {
            let index = (leaf.number as usize).wrapping_sub(base + 1);
            match offsets.get_mut(index) {
                Some(slot) if *slot == UNSET => *slot = at as u32,
                _ => panic!(
                    "batch numbers must be exactly {}..={}, got {}",
                    base + 1,
                    base + leaves.len(),
                    leaf.number
                ),
            }
            at += 1 + leaf.serial.len();
        }
        self.offsets.extend_from_slice(&offsets);
        self.push_entries(leaves.iter().map(|l| &l.serial));
    }

    /// Appends `len ‖ bytes` of each serial, a chunk's worth at a time.
    fn push_entries<'a>(&mut self, serials: impl Iterator<Item = &'a SerialNumber>) {
        let mut staged = Vec::with_capacity(CHUNK + 1 + MAX_SERIAL_LEN);
        for serial in serials {
            staged.push(serial.len() as u8);
            staged.extend_from_slice(serial.as_bytes());
            if staged.len() >= CHUNK {
                self.bytes.extend_from_slice(&staged);
                staged.clear();
            }
        }
        self.bytes.extend_from_slice(&staged);
    }

    /// Chunks (across bytes and offsets) this log shares with `other`.
    pub fn shared_chunks_with(&self, other: &Self) -> usize {
        self.bytes.shared_chunks_with(&other.bytes)
            + self.offsets.shared_chunks_with(&other.offsets)
    }

    /// Heap bytes held (capacity, as the allocator sees it).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes() + self.offsets.heap_bytes()
    }
}

/// Panics when a log of `bytes` bytes would not fit `u32` offsets.
fn check_ceiling(bytes: usize) {
    assert!(
        bytes < UNSET as usize,
        "a serial log holds at most 4 GiB of entries"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::slots_materialized;

    /// Entry i is (i % 20) + 1 bytes long, so every length from 1 to 20
    /// bytes lands on both sides of each byte-chunk edge.
    fn every_length(n: u32) -> Vec<SerialNumber> {
        (0..n)
            .map(|i| {
                let bytes: Vec<u8> = (0..=i % 20)
                    .map(|b| (i as u8).wrapping_mul(31) ^ b as u8)
                    .collect();
                SerialNumber::new(&bytes).unwrap()
            })
            .collect()
    }

    #[test]
    fn ranges_match_a_plain_log_for_every_serial_length() {
        let plain = every_length(300);
        let mut log = SerialLog::default();
        // Appended in uneven pieces.
        for piece in plain.chunks(37) {
            log.extend(piece);
        }
        log.extend(&[]);
        assert_eq!(log.len(), plain.len());
        let edges = [0, 1, 63, 64, 65, 127, 128, 129, 200, 255, 256, 299, 300];
        for &from in &edges {
            for &to in edges.iter().filter(|&&to| to >= from) {
                assert_eq!(log.range(from, to), plain[from..to], "{from}..{to}");
            }
            assert_eq!(log.range(from, log.len()), plain[from..]);
        }
        assert!(log.range(64, 64).is_empty());
        assert!(SerialLog::default().range(0, 0).is_empty());
    }

    #[test]
    fn a_three_byte_serial_costs_about_four_bytes() {
        let serials: Vec<SerialNumber> = (0..6_400).map(SerialNumber::from_u24).collect();
        let mut log = SerialLog::default();
        log.extend(&serials);
        assert_eq!(log.bytes.len(), 4 * 6_400);
        assert_eq!(log.offsets.len(), 6_400);
        // Plus the two chunk spines.
        assert!(log.heap_bytes() <= 8 * 6_400 + 512, "{}", log.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "log range out of bounds")]
    fn a_range_past_the_end_panics() {
        let mut log = SerialLog::default();
        log.extend(&[SerialNumber::from_u24(1)]);
        let _ = log.range(0, 2);
    }

    #[test]
    fn numbered_batches_read_back_by_number() {
        let plain = every_length(700);
        let mut log = SerialLog::default();
        // Batches given out of number order, as the tree's sorted batches
        // are.
        for (piece, first) in plain.chunks(90).zip((0..).step_by(90)) {
            let mut leaves: Vec<Leaf> = piece
                .iter()
                .zip(first + 1..)
                .map(|(&s, n)| Leaf::new(s, n))
                .collect();
            leaves.sort_by_key(|l| l.serial);
            log.append_numbered(&leaves);
        }
        assert_eq!(log.range(0, log.len()), plain);
        let bytes: usize = plain.iter().map(|s| 1 + s.len()).sum();
        assert_eq!(log.bytes.len(), bytes);
    }

    #[test]
    fn a_batch_with_a_gap_in_its_numbers_panics_and_changes_nothing() {
        let mut log = SerialLog::default();
        log.extend(&[SerialNumber::from_u24(1)]);
        let gap = [
            Leaf::new(SerialNumber::from_u24(2), 2),
            Leaf::new(SerialNumber::from_u24(3), 4),
        ];
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| log.append_numbered(&gap)));
        assert!(caught.is_err());
        assert_eq!(log.range(0, log.len()), [SerialNumber::from_u24(1)]);
    }

    #[test]
    fn a_clone_keeps_its_entries_as_the_log_grows() {
        let plain = every_length(3 * CHUNK as u32);
        let mut log = SerialLog::default();
        log.extend(&plain[..CHUNK + 5]);
        let before = slots_materialized();
        let published = log.clone();
        assert_eq!(slots_materialized(), before, "a clone copies nothing");
        assert_eq!(
            published.shared_chunks_with(&log),
            log.bytes.chunk_count() + 2
        );
        log.extend(&plain[CHUNK + 5..]);
        assert_eq!(published.range(0, published.len()), plain[..CHUNK + 5]);
        assert_eq!(log.range(0, log.len()), plain);
    }
}
