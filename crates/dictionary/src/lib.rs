//! # ritm-dictionary — RITM's authenticated dictionary (paper §III, Fig. 2)
//!
//! The central data structure of RITM: every CA maintains an append-only,
//! sorted-leaf hash tree of its revocations; every RA mirrors it; clients
//! verify logarithmic presence/absence proofs against CA-signed roots kept
//! fresh with hash-chain statements.
//!
//! * [`serial`] — certificate serial numbers (the leaf keys);
//! * [`tree`] — the sorted-leaf Merkle tree: epoch-aware, with incremental
//!   batch application ([`tree::MerkleTree::apply_sorted_batch`]) and audit
//!   paths;
//! * [`chunk`] / [`persistent`] — the copy-on-write chunked storage and the
//!   structurally-shared [`PersistentTree`] mirrors publish snapshots from
//!   in O(chunks) instead of O(n);
//! * [`snapshot`] — immutable, epoch-stamped [`DictionarySnapshot`]s
//!   published RCU-style through [`SnapshotCell`]s for lock-free proof
//!   serving;
//! * [`proof`] — presence and absence proofs, plus the compressed
//!   [`MultiProof`] for certificate chains;
//! * [`root`] — signed roots, Eq. (1);
//! * [`freshness`] — hash-chain freshness statements, Eq. (2);
//! * [`dictionary`] — [`CaDictionary`] (`insert`/`refresh`) and
//!   [`MirrorDictionary`] (`update`/`prove`), plus [`RevocationStatus`],
//!   Eq. (3);
//! * [`consistency`] — equivocation detection and misbehavior proofs;
//! * [`sharding`] — expiry-based dictionary splitting (§VIII).
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
pub mod persistent;
pub mod proof;
pub mod root;
pub mod serial;
pub mod sharding;
pub mod snapshot;
pub mod tree;

pub use dictionary::{
    CaDictionary, MirrorDictionary, MultiRevocationStatus, RefreshMessage, RevocationIssuance,
    RevocationStatus, StatusError, UpdateError,
};
pub use freshness::{FreshnessError, FreshnessStatement};
pub use persistent::PersistentTree;
pub use proof::{MultiProof, PresenceProof, ProofError, ProvenStatus, RevocationProof};
pub use root::{CaId, SignedRoot};
pub use serial::{SerialError, SerialNumber};
pub use sharding::ShardedCa;
pub use snapshot::{DictionarySnapshot, SnapshotCell};
