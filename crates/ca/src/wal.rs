//! Crash-durable issuance log, of the CA and the RA alike.
//!
//! Every revocation issuance is appended to an append-only file *before*
//! it is disseminated, so a CA process that dies at any point can rebuild
//! its dictionary — including every historical signed root paged catch-up
//! anchors to — by replaying the log through
//! [`CaDictionary::replay`](ritm_dictionary::CaDictionary::replay). An RA
//! appends what each sync applied, and resumes from it.
//!
//! ## Record framing
//!
//! ```text
//! u32 BE payload length ‖ u32 BE CRC-32 of payload ‖ payload
//! ```
//!
//! where the payload is a serialized
//! [`RevocationIssuance`]. A crash
//! mid-append leaves a torn tail: a last record whose header or payload is
//! incomplete. Recovery parses the longest clean prefix, truncates the file
//! back to it, and continues from there — the paper's signed-root
//! verification chain makes anything past the last fully-written record
//! unrecoverable anyway (its root was never disseminated).
//!
//! A complete record whose CRC or decoding fails is corruption, not a
//! crash: good records may follow it. [`IssuanceLog::open`] then reports
//! [`TailState::Corrupt`] with the prefix before it, leaves the file byte
//! for byte as it found it, and returns a log whose
//! [`append`](IssuanceLog::append) refuses to write.

use ritm_dictionary::RevocationIssuance;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Upper bound on one log record's payload (a single issuance batch). A
/// length prefix past this is treated as corruption, not an allocation
/// request — the same posture the wire codecs take toward forged counts.
pub const MAX_RECORD_LEN: usize = 1 << 26;

const HEADER_LEN: usize = 8;

pub use ritm_crypto::crc32::crc32;

/// Why a log prefix ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The last record's length/CRC header or payload is incomplete — the
    /// classic crash-mid-append shape. [`IssuanceLog::open`] truncates it.
    Torn,
    /// A complete record whose CRC or payload decoding failed — bit rot or
    /// a forged log. The scan stops there; [`IssuanceLog::open`] keeps the
    /// file as it is and refuses appends.
    Corrupt,
}

/// Result of scanning a log image: the decoded records, the byte length of
/// the clean prefix that produced them, and how the scan ended.
#[derive(Debug)]
pub struct LogScan {
    /// Every fully-verified record, in append order.
    pub records: Vec<RevocationIssuance>,
    /// Bytes of the clean prefix; a torn file is truncated to this.
    pub good_len: u64,
    /// How the scan ended.
    pub tail: TailState,
}

/// Scans a raw log image into the longest clean prefix of records. Pure —
/// no I/O — so property tests can drive it with arbitrary torn/corrupt
/// images directly.
pub fn decode_records(bytes: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return LogScan {
                records,
                good_len: pos as u64,
                tail: TailState::Clean,
            };
        }
        if rest.len() < HEADER_LEN {
            return LogScan {
                records,
                good_len: pos as u64,
                tail: TailState::Torn,
            };
        }
        let len = u32::from_be_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return LogScan {
                records,
                good_len: pos as u64,
                tail: TailState::Corrupt,
            };
        }
        if rest.len() < HEADER_LEN + len {
            return LogScan {
                records,
                good_len: pos as u64,
                tail: TailState::Torn,
            };
        }
        let payload = &rest[HEADER_LEN..HEADER_LEN + len];
        if crc32(payload) != crc {
            return LogScan {
                records,
                good_len: pos as u64,
                tail: TailState::Corrupt,
            };
        }
        match RevocationIssuance::from_bytes(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                return LogScan {
                    records,
                    good_len: pos as u64,
                    tail: TailState::Corrupt,
                }
            }
        }
        pos += HEADER_LEN + len;
    }
}

/// Encodes one record frame (length ‖ CRC ‖ payload) — the exact bytes
/// [`IssuanceLog::append`] writes.
pub fn encode_record(issuance: &RevocationIssuance) -> Vec<u8> {
    let payload = issuance.to_bytes();
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// An open, append-only issuance log.
#[derive(Debug)]
pub struct IssuanceLog {
    path: PathBuf,
    file: File,
    /// `open` found a corrupt record: appending after the clean prefix
    /// would overwrite whatever follows it.
    corrupt: bool,
}

impl IssuanceLog {
    /// Opens (creating if absent) the log at `path`, scans it, truncates a
    /// torn tail, and returns the log handle positioned for appending plus
    /// the scan result. A [`TailState::Corrupt`] scan leaves the file
    /// untouched, and the returned log's [`append`](IssuanceLog::append)
    /// fails: the caller decides what to do with the records after the
    /// corrupt one.
    ///
    /// When `open` creates the file it also `sync_all`s the parent
    /// directory, so the new log cannot vanish with its directory entry
    /// after a power cut, taking records [`append`](IssuanceLog::append)
    /// reported durable with it. Only a power cut can tell the difference,
    /// so no test shows it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening, reading, truncating, or syncing
    /// the directory.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(Self, LogScan)> {
        let path = path.as_ref().to_path_buf();
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if created {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = decode_records(&bytes);
        if scan.tail == TailState::Torn {
            file.set_len(scan.good_len)?;
        }
        file.seek(SeekFrom::Start(scan.good_len))?;
        let corrupt = scan.tail == TailState::Corrupt;
        Ok((
            IssuanceLog {
                path,
                file,
                corrupt,
            },
            scan,
        ))
    }

    /// Appends one issuance record and flushes it to stable storage. Called
    /// *before* dissemination, so a crash after the publish can always be
    /// replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the file may hold a torn tail,
    /// which the next [`IssuanceLog::open`] truncates away. Fails with
    /// [`std::io::ErrorKind::InvalidData`], writing nothing, on a log that
    /// `open` found corrupt.
    pub fn append(&mut self, issuance: &RevocationIssuance) -> std::io::Result<()> {
        if self.corrupt {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "issuance log has a corrupt record; refusing to append after it",
            ));
        }
        self.file.write_all(&encode_record(issuance))?;
        self.file.sync_data()
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ritm_crypto::ed25519::SigningKey;
    use ritm_dictionary::{CaDictionary, CaId, SerialNumber};

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ritm-wal-{}-{}.log", std::process::id(), tag))
    }

    fn sample_records(n: usize) -> Vec<RevocationIssuance> {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ca = CaDictionary::new(
            CaId::from_name("WalCA"),
            SigningKey::from_seed([8u8; 32]),
            10,
            64,
            &mut rng,
            1_000,
        );
        (0..n)
            .map(|i| {
                let serials: Vec<SerialNumber> = (0..3u32)
                    .map(|j| SerialNumber::from_u24((i as u32) * 10 + j))
                    .collect();
                ca.insert(&serials, &mut rng, 1_001 + i as u64).unwrap()
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_reopen_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records = sample_records(3);
        {
            let (mut log, scan) = IssuanceLog::open(&path).unwrap();
            assert!(scan.records.is_empty());
            for r in &records {
                log.append(r).unwrap();
            }
        }
        let (_, scan) = IssuanceLog::open(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.tail, TailState::Clean);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let records = sample_records(3);
        let mut image = Vec::new();
        for r in &records {
            image.extend_from_slice(&encode_record(r));
        }
        let full = image.len();
        let last = encode_record(&records[2]).len();
        // Every proper prefix that cuts into the last record yields exactly
        // the first two records and a Torn tail.
        for cut in (full - last + 1)..full {
            let scan = decode_records(&image[..cut]);
            assert_eq!(scan.records, records[..2], "cut at {cut}");
            assert_eq!(scan.good_len as usize, full - last);
            assert_eq!(scan.tail, TailState::Torn);
        }
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let records = sample_records(2);
        let mut image = Vec::new();
        for r in &records {
            image.extend_from_slice(&encode_record(r));
        }
        let first = encode_record(&records[0]).len();
        // Flip a payload bit in the second record.
        image[first + HEADER_LEN + 2] ^= 0x40;
        let scan = decode_records(&image);
        assert_eq!(scan.records, records[..1]);
        assert_eq!(scan.good_len as usize, first);
        assert_eq!(scan.tail, TailState::Corrupt);
    }

    #[test]
    fn open_truncates_torn_file_on_disk() {
        let path = temp_path("truncate");
        let _ = std::fs::remove_file(&path);
        let records = sample_records(2);
        {
            let (mut log, _) = IssuanceLog::open(&path).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
        }
        // Simulate a crash mid-append: half a header of garbage.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xAB, 0xCD, 0xEF]).unwrap();
        }
        let (mut log, scan) = IssuanceLog::open(&path).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.tail, TailState::Torn);
        // The truncated log accepts further appends cleanly.
        let more = sample_records(3).pop().unwrap();
        log.append(&more).unwrap();
        drop(log);
        let (_, scan) = IssuanceLog::open(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.tail, TailState::Clean);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_keeps_a_corrupt_file_and_refuses_appends() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let records = sample_records(3);
        {
            let (mut log, _) = IssuanceLog::open(&path).unwrap();
            for r in &records {
                log.append(r).unwrap();
            }
        }
        // Bit rot in the middle record: the last one is still good.
        let mut image = std::fs::read(&path).unwrap();
        let first = encode_record(&records[0]).len();
        image[first + HEADER_LEN + 2] ^= 0x40;
        std::fs::write(&path, &image).unwrap();

        let (mut log, scan) = IssuanceLog::open(&path).unwrap();
        assert_eq!(scan.records, records[..1]);
        assert_eq!(scan.tail, TailState::Corrupt);
        let err = log.append(&records[1]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), image, "file left as found");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn forged_length_is_corruption_not_allocation() {
        let mut image = Vec::new();
        image.extend_from_slice(&u32::MAX.to_be_bytes());
        image.extend_from_slice(&[0u8; 4]);
        let scan = decode_records(&image);
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail, TailState::Corrupt);
    }
}
