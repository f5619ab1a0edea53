//! # adbt-htm — software transactional memory standing in for Intel TSX
//!
//! The CGO'21 paper evaluates two HTM-backed schemes (PICO-HTM and
//! HST-HTM) on a TSX-capable Xeon. Portable reproductions cannot assume
//! RTM hardware, so this crate implements a word-granular, TL2-style
//! software transactional memory with the *interface and failure modes*
//! of RTM:
//!
//! * [`HtmDomain::begin`] ~ `xbegin`, [`Txn::commit`] ~ `xend`,
//!   [`Txn::abort`] ~ `xabort`.
//! * Transactions abort on **conflict** (another transaction committed to,
//!   or a non-transactional store hit, a location in the read set), on
//!   **capacity** overflow, **explicitly**, or on **engine interference**
//!   ([`Txn::poison`]) — the analogue of QEMU's own emulation work landing
//!   inside the transaction, which is what makes the paper's PICO-HTM
//!   livelock (§III-B / Fig. 11).
//! * *Strong atomicity*: plain stores are visible to the conflict
//!   detector because the execution engine calls
//!   [`HtmDomain::notify_plain_store`] for every non-transactional guest
//!   store while an HTM scheme is active — standing in for the cache
//!   coherence traffic real HTM snoops.
//!
//! Versioned locks live in a fixed hash table indexed by physical word
//! address; writes are buffered and published atomically at commit after
//! read-set validation, so a committed transaction is indistinguishable
//! from an atomic block, which is the property HST-HTM's SC emulation
//! depends on.
//!
//! # Example
//!
//! ```
//! use adbt_htm::{AbortReason, HtmDomain};
//! use adbt_mmu::GuestMemory;
//!
//! let mem = GuestMemory::new(4096);
//! let domain = HtmDomain::default();
//!
//! let mut txn = domain.begin();
//! let v = txn.load_word(&mem, 0x10)?;
//! txn.store_word(0x10, v + 1)?;
//! txn.commit(&mem)?;
//! assert_eq!(mem.load(0x10, adbt_mmu::Width::Word), 1);
//! # Ok::<(), AbortReason>(())
//! ```

mod domain;
mod txn;

pub use domain::HtmDomain;
pub use txn::{AbortReason, Txn};
