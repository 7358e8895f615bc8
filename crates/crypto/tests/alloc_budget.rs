//! `sign` and `verify` never touch the heap: every intermediate — field
//! elements, the eight per-call multiples of `A`, the signed-digit
//! recodings — lives on the stack, and the base-point tables are statics.
//! A signature check runs once per certificate and once per stapled root on
//! the handshake path, so an allocation creeping in here is paid by every
//! connection. Neither do the dictionary's fixed-shape hashes —
//! `Digest20::hash` of anything that fits one block, `hash_pair`, every
//! hash-chain link — which a dictionary update calls tens of thousands of
//! times. Same counting-allocator pattern as
//! `crates/bench/tests/alloc_budget.rs`, counting this thread only so the
//! test harness's own bookkeeping cannot leak into the number.

use ritm_crypto::digest::{h_iter, Digest20};
use ritm_crypto::ed25519::{Signature, SigningKey};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// `Some(n)` while this thread is being measured.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_allocation() {
    ALLOCS.with(|count| count.set(count.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|count| count.set(Some(0)));
    let out = f();
    let spent = ALLOCS.with(|count| count.take()).expect("still counting");
    (out, spent)
}

#[test]
fn the_counter_sees_allocations() {
    let (v, spent) = allocations_in(|| vec![1u8; 100]);
    assert_eq!(v.len(), 100);
    assert!(spent >= 1);
}

#[test]
fn sign_and_verify_do_not_allocate() {
    let message = [0x5au8; 300];

    // Cold: the first calls in the process also build the static tables.
    let ((sk, first), spent) = allocations_in(|| {
        let sk = SigningKey::from_seed([7u8; 32]);
        let sig = sk.sign(&message);
        (sk, sig)
    });
    assert_eq!(spent, 0, "key derivation + first sign");
    let vk = sk.verifying_key();
    let (ok, spent) = allocations_in(|| vk.verify(&message, &first).is_ok());
    assert!(ok);
    assert_eq!(spent, 0, "first verify");

    // Warm, and on the rejecting paths too.
    let mut forged = first.0;
    forged[5] ^= 1;
    let mut high_s = first.0;
    high_s[63] |= 0xf0;
    let off_curve = ritm_crypto::ed25519::VerifyingKey::from_bytes({
        let mut y = [0u8; 32];
        y[0] = 2;
        y
    });
    let (_, spent) = allocations_in(|| {
        for round in 0..50u8 {
            let msg = [round; 64];
            let sig = sk.sign(&msg);
            assert!(vk.verify(&msg, &sig).is_ok());
            assert!(vk.verify(&message, &sig).is_err());
        }
        assert!(vk.verify(&message, &Signature::from_bytes(forged)).is_err());
        assert!(vk.verify(&message, &Signature::from_bytes(high_s)).is_err());
        assert!(off_curve.verify(&message, &first).is_err());
    });
    assert_eq!(spent, 0, "50 sign + 103 verify");
}

#[test]
fn fixed_shape_hashes_do_not_allocate() {
    let node = [0x01u8; 41];
    let (link, spent) = allocations_in(|| {
        let a = Digest20::hash(node);
        let b = Digest20::hash(&node[..30]);
        let pair = Digest20::hash_pair(&a, &b);
        h_iter(pair, 64)
    });
    assert_ne!(link, Digest20::ZERO);
    assert_eq!(spent, 0, "hash + hash_pair + h_iter(x, 64)");

    // Longer inputs take the streaming hasher, which lives on the stack too.
    let (_, spent) = allocations_in(|| Digest20::hash([0x5au8; 300]));
    assert_eq!(spent, 0, "streaming hasher");
}
