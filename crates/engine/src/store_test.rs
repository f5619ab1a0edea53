//! The non-blocking store-test hash table at the heart of the HST scheme.
//!
//! Faithful to the paper's Fig. 4 design: a power-of-two array of
//! single-word entries, indexed by dropping the low two address bits and
//! masking (4-byte-aligned entries, index embedded in the address). The
//! entry value is the id of the last thread that touched the hashed
//! address via an LL or an instrumented store — so both `Htable_set` and
//! `Htable_check` are one atomic access, cheap enough to inline at the IR
//! level with no helper call and no locking.
//!
//! Hash collisions are benign: a colliding store flips the entry to a
//! different tid, the victim's SC fails, and the guest's LL/SC retry loop
//! recovers — the scheme stays conservative.

use std::sync::atomic::{AtomicU32, Ordering};

/// The lock bit used by HST-WEAK's fine-grained SC serialization.
const LOCK_BIT: u32 = 1 << 31;

/// The store-test hash table; one per machine, shared by all vCPUs.
pub struct StoreTestTable {
    entries: Box<[AtomicU32; StoreTestTable::ENTRIES]>,
}

impl StoreTestTable {
    /// Number of entries: 2¹⁶, a power of two so the hash is a mask.
    pub const ENTRIES: usize = 1 << 16;

    /// Creates a table with every entry unowned.
    pub fn new() -> StoreTestTable {
        let entries: Box<[AtomicU32]> = (0..Self::ENTRIES).map(|_| AtomicU32::new(0)).collect();
        StoreTestTable {
            entries: entries.try_into().expect("ENTRIES entries"),
        }
    }

    /// The paper's hash: drop the two alignment bits, mask to table size.
    #[inline]
    pub fn index(&self, addr: u32) -> usize {
        ((addr >> 2) as usize) & (Self::ENTRIES - 1)
    }

    /// `Htable_set`: claim the entry for `tid` — one SeqCst store, the
    /// ordering every guest access has between parallel host threads.
    ///
    /// Emitted inline (IR-level) for every guest store and LL under HST;
    /// this function *is* the hot path the paper optimizes.
    #[inline]
    pub fn set(&self, addr: u32, tid: u32) {
        self.entries[self.index(addr)].store(tid, Ordering::SeqCst);
    }

    /// [`StoreTestTable::set`] in serial context: the same entry update
    /// as one plain store — how the paper's HST marks its entry. For use
    /// while one host thread runs every vCPU.
    #[inline]
    pub fn set_serial(&self, addr: u32, tid: u32) {
        self.entries[self.index(addr)].store(tid, Ordering::Relaxed);
    }

    /// `Htable_check`: read the entry's current owner — one SeqCst load.
    /// The lock bit is masked off.
    #[inline]
    pub fn get(&self, addr: u32) -> u32 {
        self.entries[self.index(addr)].load(Ordering::SeqCst) & !LOCK_BIT
    }

    /// HST-WEAK's LL entry claim: like [`StoreTestTable::set`] but never
    /// clobbers a *locked* entry — it CAS-loops until the holding SC
    /// releases.
    ///
    /// HST-WEAK has no stop-the-world section, so its SC's critical
    /// window is guarded only by the entry's lock bit; a plain-store
    /// claim racing into that window would hand the claimant a lock on
    /// an entry whose previous SC is still writing (a lost-update bug).
    /// Strong HST keeps the plain [`StoreTestTable::set`] because its SC
    /// runs with the world stopped. The closure `wait` runs on each
    /// failed attempt; HST-WEAK passes a bare spin, which never reaches
    /// a safepoint. That is sound because no holder of an entry lock
    /// waits for a stop-the-world: the SC resolves its target, faults
    /// included, before it takes the lock.
    #[inline]
    pub fn claim_unlocked(&self, addr: u32, tid: u32, mut wait: impl FnMut()) {
        let entry = &self.entries[self.index(addr)];
        loop {
            let current = entry.load(Ordering::SeqCst);
            if current & LOCK_BIT == 0
                && entry
                    .compare_exchange(current, tid, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return;
            }
            wait();
        }
    }

    /// HST-WEAK's SC entry lock: succeed only if the entry still belongs
    /// to `tid` and is unlocked, atomically setting the lock bit.
    ///
    /// A failure means another LL/SC pair claimed the entry (or holds the
    /// lock mid-SC), so the caller's SC must fail — this single CAS is
    /// "the lock in the hash table" that gives HST-WEAK its weak
    /// atomicity without any stop-the-world section.
    #[inline]
    pub fn try_lock(&self, addr: u32, tid: u32) -> bool {
        self.entries[self.index(addr)]
            .compare_exchange(tid, tid | LOCK_BIT, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases an entry locked by [`StoreTestTable::try_lock`], leaving
    /// the caller's ownership in place.
    #[inline]
    pub fn unlock(&self, addr: u32, tid: u32) {
        self.entries[self.index(addr)].store(tid, Ordering::SeqCst);
    }

    /// The synthetic HTM-conflict token for an entry: HTM-backed schemes
    /// `observe` this token inside SC transactions, and the engine bumps
    /// it on every `HtableSet` while HTM is enabled — standing in for
    /// the entry's cache line that real HTM would track. Tokens are
    /// tagged into high address space; hash collisions with guest words
    /// only ever cause spurious aborts, never missed conflicts.
    #[inline]
    pub fn htm_token(&self, addr: u32) -> u32 {
        0x8000_0000 ^ ((self.index(addr) as u32) << 2)
    }
}

impl Default for StoreTestTable {
    fn default() -> StoreTestTable {
        StoreTestTable::new()
    }
}

impl std::fmt::Debug for StoreTestTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreTestTable")
            .field("entries", &Self::ENTRIES)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_then_get() {
        let t = StoreTestTable::new();
        t.set(0x1000, 3);
        assert_eq!(t.get(0x1000), 3);
        // Different address, same entry: addresses one table's worth of
        // words apart collide.
        let colliding = 0x1000 + StoreTestTable::ENTRIES as u32 * 4;
        assert_eq!(t.index(0x1000), t.index(colliding));
        t.set(colliding, 7);
        assert_eq!(t.get(0x1000), 7);
    }

    #[test]
    fn aligned_words_spread_across_entries() {
        let t = StoreTestTable::new();
        assert_ne!(t.index(0x0), t.index(0x4));
        // Bytes within one word share an entry (4-byte alignment).
        assert_eq!(t.index(0x101), t.index(0x102));
    }

    #[test]
    fn lock_protocol() {
        let t = StoreTestTable::new();
        t.set(0x20, 5);
        assert!(t.try_lock(0x20, 5));
        // Locked: a second lock attempt fails even for the owner.
        assert!(!t.try_lock(0x20, 5));
        // get masks the lock bit.
        assert_eq!(t.get(0x20), 5);
        t.unlock(0x20, 5);
        assert!(t.try_lock(0x20, 5));
    }

    #[test]
    fn lock_fails_for_non_owner() {
        let t = StoreTestTable::new();
        t.set(0x20, 5);
        assert!(!t.try_lock(0x20, 6));
        assert_eq!(t.get(0x20), 5);
    }

    #[test]
    fn serial_set_equals_set_with_and_without_tracking() {
        let (ordered, serial) = (StoreTestTable::new(), StoreTestTable::new());
        // Repeats, a same-address overwrite, a collision (0x0 and one
        // table's worth of words above it share an entry) and a locked
        // entry's overwrite.
        let colliding = StoreTestTable::ENTRIES as u32 * 4;
        let sets = [(0x0, 1), (0x0, 2), (colliding, 3), (0x8, 3), (0x8, 4)];
        for (i, &(addr, tid)) in sets.iter().enumerate() {
            if i == 4 {
                assert!(ordered.try_lock(0x8, 3) && serial.try_lock(0x8, 3));
            }
            ordered.set(addr, tid);
            serial.set_serial(addr, tid);
            for entry in 0..StoreTestTable::ENTRIES {
                assert_eq!(
                    serial.entries[entry].load(Ordering::SeqCst),
                    ordered.entries[entry].load(Ordering::SeqCst),
                    "entry {entry} after set {i}"
                );
            }
        }
    }

    #[test]
    fn concurrent_lock_excludes() {
        let t = StoreTestTable::new();
        t.set(0x40, 1);
        // Only the thread whose tid matches the entry can ever lock it.
        std::thread::scope(|s| {
            let t = &t;
            let winner = s.spawn(move || {
                let mut wins = 0;
                for _ in 0..1000 {
                    if t.try_lock(0x40, 1) {
                        wins += 1;
                        t.unlock(0x40, 1);
                    }
                }
                wins
            });
            let loser = s.spawn(move || {
                let mut wins = 0;
                for _ in 0..1000 {
                    if t.try_lock(0x40, 2) {
                        wins += 1;
                        t.unlock(0x40, 2);
                    }
                }
                wins
            });
            assert!(winner.join().unwrap() > 0);
            assert_eq!(loser.join().unwrap(), 0);
        });
    }
}
