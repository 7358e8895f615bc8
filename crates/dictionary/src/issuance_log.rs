//! The CA's issuance log, packed: every revoked serial in revocation-number
//! order, stored as `len ‖ bytes` instead of a 21-byte [`SerialNumber`].
//! A 3-byte serial costs 4 bytes plus an eighth of a byte of index.

use crate::serial::SerialNumber;

/// Entries between two recorded byte offsets: a range read skips at most
/// `MARK_EVERY − 1` entries before its first one.
const MARK_EVERY: usize = 64;

/// Serials in issuance order (entry `i` carries revocation number `i + 1`).
#[derive(Debug, Default)]
pub(crate) struct IssuanceLog {
    /// `len ‖ bytes` per serial, back to back.
    bytes: Vec<u8>,
    /// `marks[m]` is the byte offset of entry `m · MARK_EVERY`.
    marks: Vec<usize>,
    len: usize,
}

impl IssuanceLog {
    /// Number of serials logged.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Appends `serials` in order.
    pub(crate) fn extend(&mut self, serials: &[SerialNumber]) {
        // Reserved up front, so a bulk load into an empty log is sized
        // exactly instead of doubled past its length.
        self.bytes
            .reserve(serials.iter().map(|s| 1 + s.len()).sum::<usize>());
        self.marks
            .reserve((self.len + serials.len()).div_ceil(MARK_EVERY) - self.marks.len());
        for serial in serials {
            if self.len.is_multiple_of(MARK_EVERY) {
                self.marks.push(self.bytes.len());
            }
            self.bytes.push(serial.len() as u8);
            self.bytes.extend_from_slice(serial.as_bytes());
            self.len += 1;
        }
    }

    /// The serials of entries `from..to`.
    ///
    /// # Panics
    ///
    /// Panics unless `from <= to <= len()`.
    pub(crate) fn range(&self, from: usize, to: usize) -> Vec<SerialNumber> {
        assert!(from <= to && to <= self.len, "log range out of bounds");
        let mut out = Vec::with_capacity(to - from);
        if from == to {
            return out;
        }
        let mut at = self.marks[from / MARK_EVERY];
        for i in from / MARK_EVERY * MARK_EVERY..to {
            let len = self.bytes[at] as usize;
            if i >= from {
                let serial = SerialNumber::new(&self.bytes[at + 1..at + 1 + len]);
                out.push(serial.expect("logged from a valid serial"));
            }
            at += 1 + len;
        }
        out
    }

    /// Heap bytes held (capacity, as the allocator sees it).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.marks.capacity() * core::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_match_a_plain_log_for_every_serial_length() {
        // Entry i is (i % 20) + 1 bytes long, so every length from 1 to 20
        // bytes lands on both sides of each mark.
        let plain: Vec<SerialNumber> = (0..300u32)
            .map(|i| {
                let bytes: Vec<u8> = (0..=i % 20)
                    .map(|b| (i as u8).wrapping_mul(31) ^ b as u8)
                    .collect();
                SerialNumber::new(&bytes).unwrap()
            })
            .collect();
        let mut log = IssuanceLog::default();
        // Appended in uneven pieces, one crossing a mark mid-call.
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
        assert!(IssuanceLog::default().range(0, 0).is_empty());
    }

    #[test]
    fn a_three_byte_serial_costs_about_four_bytes() {
        let serials: Vec<SerialNumber> = (0..6_400).map(SerialNumber::from_u24).collect();
        let mut log = IssuanceLog::default();
        log.extend(&serials);
        assert_eq!(log.bytes.len(), 4 * 6_400);
        assert_eq!(log.marks.len(), 100);
    }

    #[test]
    #[should_panic(expected = "log range out of bounds")]
    fn a_range_past_the_end_panics() {
        let mut log = IssuanceLog::default();
        log.extend(&[SerialNumber::from_u24(1)]);
        let _ = log.range(0, 2);
    }
}
