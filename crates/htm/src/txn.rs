use crate::domain::HtmDomain;
use adbt_mmu::{GuestMemory, Width};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::Ordering;

/// Why a transaction aborted (the `xabort` status analogue).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// Another thread committed to — or a plain store hit — a location
    /// in this transaction's read set.
    Conflict,
    /// The read or write set outgrew the domain's capacity.
    Capacity,
    /// The transaction aborted itself.
    Explicit,
    /// Emulation-engine work (translation, helper calls) executed inside
    /// the transaction window — the QEMU-inside-the-transaction problem
    /// that breaks PICO-HTM.
    EngineInterference,
}

impl AbortReason {
    /// A stable small integer for compact encodings (trace payloads,
    /// abort-cause tallies). Not a `#[repr]` discriminant — the enum
    /// stays free to reorder without breaking persisted traces.
    pub fn code(self) -> u32 {
        match self {
            AbortReason::Conflict => 1,
            AbortReason::Capacity => 2,
            AbortReason::Explicit => 3,
            AbortReason::EngineInterference => 4,
        }
    }

    /// A stable snake-case name for machine-readable exports (metrics
    /// snapshots, profile documents).
    pub fn name(self) -> &'static str {
        match self {
            AbortReason::Conflict => "conflict",
            AbortReason::Capacity => "capacity",
            AbortReason::Explicit => "explicit",
            AbortReason::EngineInterference => "engine_interference",
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbortReason::Conflict => "transactional conflict",
            AbortReason::Capacity => "transaction capacity exceeded",
            AbortReason::Explicit => "explicit abort",
            AbortReason::EngineInterference => "engine work inside transaction",
        })
    }
}

impl Error for AbortReason {}

/// An in-flight transaction.
///
/// Reads are versioned and validated at commit; writes are buffered and
/// published atomically by [`Txn::commit`]. A `Txn` holds no locks while
/// open — locking happens only inside `commit` — so an aborted or dropped
/// transaction cannot wedge other threads.
pub struct Txn<'d> {
    domain: &'d HtmDomain,
    /// (lock index, version observed at first read).
    reads: Vec<(usize, u64)>,
    /// Buffered writes, word-aligned address → value.
    writes: HashMap<u32, u32>,
    poisoned: bool,
}

impl<'d> Txn<'d> {
    pub(crate) fn new(domain: &'d HtmDomain) -> Txn<'d> {
        Txn {
            domain,
            reads: Vec::new(),
            writes: HashMap::new(),
            poisoned: false,
        }
    }

    /// Marks the transaction as doomed because engine work ran inside its
    /// window. The next [`Txn::commit`] fails with
    /// [`AbortReason::EngineInterference`].
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether [`Txn::poison`] has been called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Transactionally loads the aligned word containing `paddr`.
    ///
    /// # Errors
    ///
    /// Aborts with [`AbortReason::Conflict`] if the word is locked or
    /// changed mid-read, or [`AbortReason::Capacity`] if the read set is
    /// full. On error the transaction is dead; drop it.
    pub fn load_word(&mut self, mem: &GuestMemory, paddr: u32) -> Result<u32, AbortReason> {
        let word_addr = paddr & !3;
        if let Some(&buffered) = self.writes.get(&word_addr) {
            return Ok(buffered);
        }
        let idx = self.domain.index(word_addr);
        let entry = self.domain.entry_by_index(idx);
        let v1 = entry.load(Ordering::SeqCst);
        if v1 & 1 == 1 {
            return Err(AbortReason::Conflict);
        }
        let value = mem.load(word_addr, Width::Word);
        let v2 = entry.load(Ordering::SeqCst);
        if v1 != v2 {
            return Err(AbortReason::Conflict);
        }
        if self.reads.len() >= self.domain.read_capacity() {
            return Err(AbortReason::Capacity);
        }
        self.reads.push((idx, v1));
        Ok(value)
    }

    /// Adds a location to the read set *without* loading guest memory —
    /// used for host-side structures (e.g. the HST store-test hash
    /// entry) that live outside guest memory but whose writers call
    /// [`crate::HtmDomain::notify_plain_store`] with the same token.
    /// On real HTM this is just the structure's cache line entering the
    /// read set.
    ///
    /// # Errors
    ///
    /// Aborts on a locked/changing token or a full read set.
    pub fn observe(&mut self, token_paddr: u32) -> Result<(), AbortReason> {
        let idx = self.domain.index(token_paddr);
        let v = self.domain.entry_by_index(idx).load(Ordering::SeqCst);
        if v & 1 == 1 {
            return Err(AbortReason::Conflict);
        }
        if self.reads.len() >= self.domain.read_capacity() {
            return Err(AbortReason::Capacity);
        }
        self.reads.push((idx, v));
        Ok(())
    }

    /// Transactionally loads `width` bytes at `paddr` (zero-extended).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Txn::load_word`].
    pub fn load(
        &mut self,
        mem: &GuestMemory,
        paddr: u32,
        width: Width,
    ) -> Result<u32, AbortReason> {
        let word = self.load_word(mem, paddr)?;
        Ok(match width {
            Width::Word => word,
            Width::Half => (word >> ((paddr & 2) * 8)) & 0xffff,
            Width::Byte => (word >> ((paddr & 3) * 8)) & 0xff,
        })
    }

    /// Buffers a word store to `paddr` (must be 4-byte aligned).
    ///
    /// # Errors
    ///
    /// Aborts with [`AbortReason::Capacity`] when the write set is full.
    pub fn store_word(&mut self, paddr: u32, value: u32) -> Result<(), AbortReason> {
        debug_assert_eq!(paddr % 4, 0, "unaligned transactional word store");
        if self.writes.len() >= self.domain.write_capacity() && !self.writes.contains_key(&paddr) {
            return Err(AbortReason::Capacity);
        }
        self.writes.insert(paddr, value);
        Ok(())
    }

    /// Buffers a store of `width` bytes, merging into the containing word
    /// (which is transactionally read first, keeping detection sound).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Txn::load_word`] and [`Txn::store_word`].
    pub fn store(
        &mut self,
        mem: &GuestMemory,
        paddr: u32,
        width: Width,
        value: u32,
    ) -> Result<(), AbortReason> {
        let word_addr = paddr & !3;
        let merged = match width {
            Width::Word => value,
            Width::Half => {
                let current = self.load_word(mem, paddr)?;
                let shift = (paddr & 2) * 8;
                (current & !(0xffff << shift)) | ((value & 0xffff) << shift)
            }
            Width::Byte => {
                let current = self.load_word(mem, paddr)?;
                let shift = (paddr & 3) * 8;
                (current & !(0xff << shift)) | ((value & 0xff) << shift)
            }
        };
        self.store_word(word_addr, merged)
    }

    /// Explicitly aborts, consuming the transaction.
    pub fn abort(self) -> AbortReason {
        AbortReason::Explicit
    }

    /// Attempts to commit: locks the write set (in index order, so
    /// concurrent committers cannot deadlock), validates the read set,
    /// publishes the buffered writes and releases the locks.
    ///
    /// # Errors
    ///
    /// Returns the abort reason on failure; memory is untouched in that
    /// case. A poisoned transaction always fails with
    /// [`AbortReason::EngineInterference`].
    pub fn commit(self, mem: &GuestMemory) -> Result<(), AbortReason> {
        if self.poisoned {
            return Err(AbortReason::EngineInterference);
        }

        // Lock the write set in ascending index order.
        let mut lock_plan: Vec<(usize, u32)> = self
            .writes
            .keys()
            .map(|&addr| (self.domain.index(addr), addr))
            .collect();
        lock_plan.sort_unstable();
        lock_plan.dedup_by_key(|&mut (idx, _)| idx);

        // (index, version the lock was acquired from).
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(lock_plan.len());
        // Release by increment/decrement, NOT by storing an absolute
        // version: non-transactional stores bump locked entries by 2 and
        // those bumps must survive the unlock, or their conflicts would
        // be silently erased.
        let release = |held: &[(usize, u64)], bump: bool, domain: &HtmDomain| {
            for &(idx, _from) in held {
                let entry = domain.entry_by_index(idx);
                if bump {
                    entry.fetch_add(1, Ordering::SeqCst); // odd → even, +2 total
                } else {
                    entry.fetch_sub(1, Ordering::SeqCst); // odd → even, restore
                }
            }
        };

        for &(idx, _) in &lock_plan {
            let entry = self.domain.entry_by_index(idx);
            let v = entry.load(Ordering::SeqCst);
            if v & 1 == 1
                || entry
                    .compare_exchange(v, v + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
            {
                release(&held, false, self.domain);
                return Err(AbortReason::Conflict);
            }
            held.push((idx, v));
        }

        // Validate reads: every read location must still carry the version
        // we first observed (or be locked by us, acquired from that version).
        for &(idx, read_version) in &self.reads {
            let ok = match held.iter().find(|&&(h, _)| h == idx) {
                Some(&(_, locked_from)) => locked_from == read_version,
                None => {
                    let current = self.domain.entry_by_index(idx).load(Ordering::SeqCst);
                    current == read_version
                }
            };
            if !ok {
                release(&held, false, self.domain);
                return Err(AbortReason::Conflict);
            }
        }

        // Publish and unlock.
        for (&addr, &value) in &self.writes {
            mem.store(addr, Width::Word, value);
        }
        release(&held, true, self.domain);
        Ok(())
    }
}

impl fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("reads", &self.reads.len())
            .field("writes", &self.writes.len())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HtmDomain;

    #[test]
    fn read_own_writes() {
        let mem = GuestMemory::new(4096);
        let d = HtmDomain::default();
        let mut txn = d.begin();
        txn.store_word(0x20, 99).unwrap();
        assert_eq!(txn.load_word(&mem, 0x20).unwrap(), 99);
        txn.commit(&mem).unwrap();
        assert_eq!(mem.load(0x20, Width::Word), 99);
    }

    #[test]
    fn writes_invisible_until_commit() {
        let mem = GuestMemory::new(4096);
        let d = HtmDomain::default();
        let mut txn = d.begin();
        txn.store_word(0x20, 99).unwrap();
        assert_eq!(mem.load(0x20, Width::Word), 0);
        drop(txn);
        assert_eq!(mem.load(0x20, Width::Word), 0);
    }

    #[test]
    fn plain_store_aborts_reader() {
        let mem = GuestMemory::new(4096);
        let d = HtmDomain::default();
        let mut txn = d.begin();
        let _ = txn.load_word(&mem, 0x40).unwrap();
        // A non-transactional store to the same word, as the engine
        // reports for every guest store under an HTM scheme.
        mem.store(0x40, Width::Word, 1);
        d.notify_plain_store(0x40);
        txn.store_word(0x44, 7).unwrap();
        assert_eq!(txn.commit(&mem), Err(AbortReason::Conflict));
        // The buffered write must not have leaked.
        assert_eq!(mem.load(0x44, Width::Word), 0);
    }

    #[test]
    fn poison_forces_interference_abort() {
        let mem = GuestMemory::new(4096);
        let d = HtmDomain::default();
        let mut txn = d.begin();
        txn.store_word(0, 1).unwrap();
        txn.poison();
        assert_eq!(txn.commit(&mem), Err(AbortReason::EngineInterference));
        assert_eq!(mem.load(0, Width::Word), 0);
    }

    #[test]
    fn capacity_abort_on_large_write_set() {
        let mem = GuestMemory::new(1 << 20);
        let d = HtmDomain::new(16, 8);
        let mut txn = d.begin();
        for i in 0..8u32 {
            txn.store_word(i * 4, i).unwrap();
        }
        assert_eq!(txn.store_word(9 * 4, 9), Err(AbortReason::Capacity));
        drop(txn);
        // None of the buffered writes leaked.
        assert_eq!(mem.load(0, Width::Word), 0);
    }

    #[test]
    fn subword_stores_merge() {
        let mem = GuestMemory::new(4096);
        mem.store(0x10, Width::Word, 0xaabb_ccdd);
        let d = HtmDomain::default();
        let mut txn = d.begin();
        txn.store(&mem, 0x11, Width::Byte, 0x00).unwrap();
        txn.commit(&mem).unwrap();
        assert_eq!(mem.load(0x10, Width::Word), 0xaabb_00dd);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let mem = GuestMemory::new(4096);
        let d = HtmDomain::default();
        const THREADS: u32 = 8;
        const ITERS: u32 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let (mem, d) = (&mem, &d);
                s.spawn(move || {
                    for _ in 0..ITERS {
                        loop {
                            let mut txn = d.begin();
                            let ok = txn
                                .load_word(mem, 0x100)
                                .and_then(|v| txn.store_word(0x100, v + 1))
                                .is_ok();
                            if ok && txn.commit(mem).is_ok() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        assert_eq!(mem.load(0x100, Width::Word), THREADS * ITERS);
    }

    #[test]
    fn disjoint_transactions_commit_concurrently() {
        let mem = GuestMemory::new(1 << 16);
        let d = HtmDomain::default();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (mem, d) = (&mem, &d);
                s.spawn(move || {
                    for i in 0..500u32 {
                        let addr = 0x1000 + t * 0x100 + (i % 32) * 4;
                        loop {
                            let mut txn = d.begin();
                            let ok = txn
                                .load_word(mem, addr)
                                .and_then(|v| txn.store_word(addr, v + 1))
                                .is_ok();
                            if ok && txn.commit(mem).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        // Each thread incremented each of its 32 private words 500/32
        // times (with remainder); verify totals per thread region.
        for t in 0..4u32 {
            let mut total = 0;
            for w in 0..32 {
                total += mem.load(0x1000 + t * 0x100 + w * 4, Width::Word);
            }
            assert_eq!(total, 500);
        }
    }
}
