use crate::txn::Txn;
use std::sync::atomic::{AtomicU64, Ordering};

/// A transactional-memory domain: the shared versioned-lock table plus
/// capacity limits.
///
/// One domain is shared by all vCPUs of a machine. Locations are tracked
/// at word granularity: each aligned guest word hashes to one versioned
/// lock. Hash collisions can only cause *false* conflicts (spurious
/// aborts), never missed ones, so correctness is conservative — the same
/// property the paper's HST hash table has.
pub struct HtmDomain {
    /// Versioned locks; even = unlocked version, odd = write-locked.
    table: Box<[AtomicU64]>,
    mask: usize,
    write_capacity: usize,
    read_capacity: usize,
}

impl HtmDomain {
    /// Creates a domain with `2^index_bits` versioned locks and the given
    /// write-set capacity (reads get 8× that before a capacity abort).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24, or capacity is 0.
    pub fn new(index_bits: u8, write_capacity: usize) -> HtmDomain {
        assert!((1..=24).contains(&index_bits), "index_bits must be 1..=24");
        assert!(write_capacity > 0, "write capacity must be positive");
        let size = 1usize << index_bits;
        let mut table = Vec::with_capacity(size);
        table.resize_with(size, || AtomicU64::new(0));
        HtmDomain {
            table: table.into_boxed_slice(),
            mask: size - 1,
            write_capacity,
            read_capacity: write_capacity * 8,
        }
    }

    /// Starts a transaction (the `xbegin` analogue).
    pub fn begin(&self) -> Txn<'_> {
        Txn::new(self)
    }

    /// Marks a non-transactional store to the word containing `paddr`,
    /// so concurrent transactions that read it will fail validation.
    ///
    /// The execution engine calls this on every plain guest store while
    /// an HTM-based scheme is active; it is the software stand-in for
    /// the cache-coherence snooping that gives real HTM strong atomicity.
    /// Between parallel host threads the bump is one SeqCst RMW; in
    /// serial context the engine calls
    /// [`HtmDomain::notify_plain_store_serial`] instead.
    #[inline]
    pub fn notify_plain_store(&self, paddr: u32) {
        // Jump the version by 2, preserving evenness: a reader that saw
        // the old version fails validation; a locked entry (odd) stays
        // locked — its owner will still publish a higher even version at
        // unlock, so the reader aborts either way.
        self.entry(paddr).fetch_add(2, Ordering::SeqCst);
    }

    /// [`HtmDomain::notify_plain_store`] in serial context: the same +2
    /// bump as a plain load and store, with no host RMW.
    ///
    /// For use while no other host thread touches this domain at the
    /// same time — one host thread running every vCPU, as in the
    /// deterministic drivers.
    #[inline]
    pub fn notify_plain_store_serial(&self, paddr: u32) {
        let entry = self.entry(paddr);
        entry.store(
            entry.load(Ordering::Relaxed).wrapping_add(2),
            Ordering::Relaxed,
        );
    }

    /// The synthetic conflict tokens standing in for the emulator's own
    /// shared data structures (translation-block caches, dispatch
    /// tables). A region transaction spanning multiple translated blocks
    /// inevitably pulls these "cache lines" into its read set — QEMU
    /// code becoming part of the transaction, the paper's §III-B
    /// diagnosis of PICO-HTM — and every other thread's engine activity
    /// (commits, translations) writes them. Eight tokens ≈ the handful
    /// of hot shared lines in a real dispatcher.
    #[inline]
    pub fn engine_token(slot: usize) -> u32 {
        0xc000_0000 | (((slot & 7) as u32) << 2)
    }

    /// A non-transactional load that is *atomic with respect to commits*:
    /// it spins past a write-locked version entry and retries if the
    /// version changed mid-read.
    ///
    /// Real HTM gives this for free — a plain load never observes a
    /// half-committed transaction. The engine routes guest loads through
    /// here whenever an HTM scheme is active, so an LL racing a
    /// committing SC reads either fully-before or fully-after state
    /// (otherwise a stale LL value could be silently re-committed — a
    /// lost update).
    #[inline]
    pub fn consistent_load(
        &self,
        mem: &adbt_mmu::GuestMemory,
        paddr: u32,
        width: adbt_mmu::Width,
    ) -> u32 {
        let entry = self.entry(paddr & !3);
        loop {
            let v1 = entry.load(Ordering::SeqCst);
            if v1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let value = mem.load(paddr, width);
            if entry.load(Ordering::SeqCst) == v1 {
                return value;
            }
        }
    }

    #[inline]
    pub(crate) fn index(&self, paddr: u32) -> usize {
        ((paddr >> 2) as usize) & self.mask
    }

    #[inline]
    pub(crate) fn entry(&self, paddr: u32) -> &AtomicU64 {
        &self.table[self.index(paddr)]
    }

    #[inline]
    pub(crate) fn entry_by_index(&self, index: usize) -> &AtomicU64 {
        &self.table[index]
    }

    pub(crate) fn write_capacity(&self) -> usize {
        self.write_capacity
    }

    pub(crate) fn read_capacity(&self) -> usize {
        self.read_capacity
    }
}

impl Default for HtmDomain {
    /// A domain with 2¹⁶ locks and a 512-word write set — roughly the
    /// working-set envelope of first-generation TSX parts.
    fn default() -> HtmDomain {
        HtmDomain::new(16, 512)
    }
}

impl std::fmt::Debug for HtmDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmDomain")
            .field("locks", &self.table.len())
            .field("write_capacity", &self.write_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_words_hash_to_distinct_entries_when_table_is_large() {
        let d = HtmDomain::new(16, 512);
        assert_ne!(d.index(0x0), d.index(0x4));
        assert_eq!(d.index(0x0), d.index(0x0));
    }

    #[test]
    fn notify_bumps_version() {
        // Both contexts' bumps add exactly 2, so a write-locked (odd)
        // version stays locked.
        for serial in [false, true] {
            let d = HtmDomain::default();
            let bump = |paddr| {
                if serial {
                    d.notify_plain_store_serial(paddr)
                } else {
                    d.notify_plain_store(paddr)
                }
            };
            let before = d.entry(0x40).load(Ordering::SeqCst);
            bump(0x40);
            assert_eq!(d.entry(0x40).load(Ordering::SeqCst), before + 2);
            d.entry(0x80).store(7, Ordering::SeqCst);
            bump(0x80);
            assert_eq!(d.entry(0x80).load(Ordering::SeqCst), 9, "serial {serial}");
        }
    }

    #[test]
    #[should_panic(expected = "index_bits")]
    fn rejects_zero_bits() {
        let _ = HtmDomain::new(0, 16);
    }
}
