//! # ritm-dictionary — RITM's authenticated dictionary (paper §III, Fig. 2)
//!
//! The central data structure of RITM: every CA maintains an append-only,
//! sorted-leaf hash tree of its revocations; every RA mirrors it; clients
//! verify logarithmic presence/absence proofs against CA-signed roots kept
//! fresh with hash-chain statements.
//!
//! * [`serial`] — certificate serial numbers (the leaf keys);
//! * [`tree`] — leaf and node hashing, audit-path verification, the
//!   [`tree::TreeReader`] trait proofs are generated against, and the
//!   built-once reference [`tree::MerkleTree`] tests compare with;
//! * [`chunk`] / [`persistent`] — the copy-on-write chunked storage and the
//!   structurally-shared [`PersistentTree`] both dictionaries write through,
//!   with incremental batch application
//!   ([`PersistentTree::apply_sorted_batch`]); mirrors publish snapshots
//!   from it in O(chunks) instead of O(n). The tree's sorted leaves hold a
//!   serial prefix and a revocation number; every serial is held once, in
//!   the tree's packed [`SerialLog`];
//! * [`snapshot`] — immutable, epoch-stamped [`DictionarySnapshot`]s
//!   published RCU-style through [`SnapshotCell`]s for lock-free proof
//!   serving;
//! * [`proof`] — presence and absence proofs in one form, the
//!   [`MultiProof`]: a [`RevocationProof`] is its one-serial case;
//! * [`root`] — signed roots, Eq. (1);
//! * [`freshness`] — hash-chain freshness statements, Eq. (2);
//! * [`dictionary`] — [`CaDictionary`] (`insert`/`refresh`) and
//!   [`MirrorDictionary`] (`update`/`prove`), plus [`RevocationStatus`],
//!   Eq. (3);
//! * [`consistency`] — equivocation detection and misbehavior proofs.
//!
//! # Examples
//!
//! End-to-end CA → RA → client flow:
//!
//! ```
//! use ritm_dictionary::{CaDictionary, CaId, MirrorDictionary, SerialNumber};
//! use ritm_crypto::SigningKey;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut ca = CaDictionary::new(
//!     CaId::from_name("ExampleCA"),
//!     SigningKey::from_seed([1u8; 32]),
//!     10,   // Δ = 10 s
//!     8640, // one day of periods per hash chain
//!     &mut rng,
//!     1_000_000,
//! );
//! let mut ra = MirrorDictionary::new(ca.ca(), ca.verifying_key(), *ca.signed_root())?;
//! ra.set_delta(10);
//!
//! // CA revokes a certificate and the RA mirrors it.
//! let bad = SerialNumber::from_u24(0x073e10);
//! let issuance = ca.insert(&[bad], &mut rng, 1_000_001).expect("new revocation");
//! ra.apply_issuance(&issuance, 1_000_001)?;
//!
//! // A client validates the RA's proof for some other certificate.
//! let queried = SerialNumber::from_u24(0x111111);
//! let status = ra.prove(&queried);
//! let outcome = status.validate(&queried, &ca.verifying_key(), 10, 1_000_002)?;
//! assert!(!outcome.is_revoked());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod chunk;
pub mod consistency;
pub mod dictionary;
pub mod freshness;
mod issuance_log;
pub mod persistent;
pub mod proof;
pub mod root;
pub mod serial;
pub mod snapshot;
pub mod tree;

pub use dictionary::{
    CaDictionary, MirrorDictionary, MultiRevocationStatus, RefreshMessage, RevocationIssuance,
    RevocationStatus, StatusError, UpdateError,
};
pub use freshness::{FreshnessError, FreshnessStatement};
pub use issuance_log::SerialLog;
pub use persistent::PersistentTree;
pub use proof::{MultiProof, ProofError, ProvenStatus, RevocationProof};
pub use root::{CaId, SignedRoot};
pub use serial::{SerialError, SerialNumber};
pub use snapshot::{DictionarySnapshot, SnapshotCell};
