//! Flat physical guest memory made of atomic 32-bit cells.

use crate::Width;
use std::sync::atomic::{AtomicU32, Ordering};

/// The read-modify-write operations [`GuestMemory::fetch_rmw_word`]
/// supports, mirroring the host's atomic built-ins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RmwKind {
    /// `fetch_add`.
    Add,
    /// `fetch_sub`.
    Sub,
    /// `fetch_and`.
    And,
    /// `fetch_or`.
    Or,
    /// `fetch_xor`.
    Xor,
}

/// Physical guest memory.
///
/// Storage is a slice of [`AtomicU32`] cells, so every access — including
/// byte and halfword accesses, which read-modify-write their containing
/// word with a CAS loop — is a real host atomic operation. This is what
/// makes the reproduction honest: when sixteen vCPU threads hammer a
/// lock-free stack, the races, and the ABA hazard, are genuine.
///
/// All addresses here are *physical*; virtual translation lives in
/// [`crate::AddressSpace`]. Between parallel host threads every access is
/// sequentially consistent, which removes memory-model divergence as a
/// confound when comparing emulation schemes. When one host thread
/// performs every access, program order alone is sequentially
/// consistent, so [`GuestMemory::store_serial`] stores without host
/// ordering. QEMU draws the same line: TCG adds only the barriers the
/// guest's memory model needs beyond the host's (none for an ARM guest
/// on an x86 host), and emits its non-atomic code for guest atomics
/// unless a block is translated for a parallel context (`CF_PARALLEL`).
///
/// # Example
///
/// ```
/// use adbt_mmu::{GuestMemory, Width};
///
/// let mem = GuestMemory::new(4096);
/// mem.store(0x10, Width::Word, 0xdead_beef);
/// assert_eq!(mem.load(0x10, Width::Byte), 0xef); // little-endian
/// assert_eq!(mem.cas_word(0x10, 0xdead_beef, 1), Ok(0xdead_beef));
/// assert_eq!(mem.cas_word(0x10, 0xdead_beef, 2), Err(1));
/// ```
pub struct GuestMemory {
    cells: Box<[AtomicU32]>,
    size: u32,
}

impl GuestMemory {
    /// Allocates `size` bytes of zeroed physical memory.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a multiple of 4.
    pub fn new(size: u32) -> GuestMemory {
        assert!(
            size > 0 && size.is_multiple_of(4),
            "size must be a positive multiple of 4"
        );
        let mut cells = Vec::with_capacity(size as usize / 4);
        cells.resize_with(size as usize / 4, || AtomicU32::new(0));
        GuestMemory {
            cells: cells.into_boxed_slice(),
            size,
        }
    }

    /// The memory size in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    #[inline]
    fn cell(&self, paddr: u32) -> &AtomicU32 {
        &self.cells[(paddr / 4) as usize]
    }

    /// Loads a value of the given width from a physical address,
    /// zero-extended to 32 bits.
    ///
    /// # Panics
    ///
    /// Panics if the access is unaligned or out of bounds. The address
    /// space performs those checks before translation; physical accesses
    /// are trusted.
    #[inline]
    pub fn load(&self, paddr: u32, width: Width) -> u32 {
        debug_assert_eq!(paddr % width.bytes(), 0, "unaligned physical load");
        let word = self.cell(paddr).load(Ordering::SeqCst);
        match width {
            Width::Word => word,
            Width::Half => (word >> ((paddr & 2) * 8)) & 0xffff,
            Width::Byte => (word >> ((paddr & 3) * 8)) & 0xff,
        }
    }

    /// Stores the low `width` bits of `value` to a physical address.
    ///
    /// Sub-word stores read-modify-write their containing word with a CAS
    /// loop, so concurrent byte stores to different bytes of one word
    /// never lose updates.
    #[inline]
    pub fn store(&self, paddr: u32, width: Width, value: u32) {
        debug_assert_eq!(paddr % width.bytes(), 0, "unaligned physical store");
        let cell = self.cell(paddr);
        if width == Width::Word {
            return cell.store(value, Ordering::SeqCst);
        }
        let (mask, bits) = lane(paddr, width, value);
        let mut current = cell.load(Ordering::SeqCst);
        while let Err(actual) = cell.compare_exchange_weak(
            current,
            (current & !mask) | bits,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            current = actual;
        }
    }

    /// [`GuestMemory::store`] in serial context: the same value lands in
    /// the same word, with no host ordering. A sub-word store loads,
    /// merges and stores its word instead of CAS-looping.
    ///
    /// For use while no other host thread accesses this memory at the
    /// same time: one host thread performing every access in program
    /// order is sequentially consistent without a fence, and a thread
    /// that synchronizes with it afterwards (a join, a mutex) sees every
    /// store.
    #[inline]
    pub fn store_serial(&self, paddr: u32, width: Width, value: u32) {
        debug_assert_eq!(paddr % width.bytes(), 0, "unaligned physical store");
        let cell = self.cell(paddr);
        let next = if width == Width::Word {
            value
        } else {
            let (mask, bits) = lane(paddr, width, value);
            (cell.load(Ordering::Relaxed) & !mask) | bits
        };
        cell.store(next, Ordering::Relaxed);
    }

    /// Atomically compares-and-swaps the word at `paddr`.
    ///
    /// Returns `Ok(expected)` if the word equalled `expected` and was
    /// replaced by `new`; otherwise `Err(actual)` with the observed value.
    /// This is the host primitive PICO-CAS lowers `strex` to — a value
    /// comparison, which is exactly why it admits the ABA problem.
    #[inline]
    pub fn cas_word(&self, paddr: u32, expected: u32, new: u32) -> Result<u32, u32> {
        debug_assert_eq!(paddr % 4, 0, "unaligned CAS");
        self.cell(paddr)
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Atomically adds `delta` to the word at `paddr`, returning the
    /// previous value. Used by runtime helpers and statistics.
    #[inline]
    pub fn fetch_add_word(&self, paddr: u32, delta: u32) -> u32 {
        debug_assert_eq!(paddr % 4, 0, "unaligned fetch_add");
        self.cell(paddr).fetch_add(delta, Ordering::SeqCst)
    }

    /// Atomically applies a read-modify-write to the word at `paddr`,
    /// returning the previous value — the host atomic built-ins the
    /// rule-based translation pass (paper §VI) lowers recognized LL/SC
    /// loops to.
    #[inline]
    pub fn fetch_rmw_word(&self, paddr: u32, op: RmwKind, operand: u32) -> u32 {
        debug_assert_eq!(paddr % 4, 0, "unaligned fetch_rmw");
        let cell = self.cell(paddr);
        match op {
            RmwKind::Add => cell.fetch_add(operand, Ordering::SeqCst),
            RmwKind::Sub => cell.fetch_sub(operand, Ordering::SeqCst),
            RmwKind::And => cell.fetch_and(operand, Ordering::SeqCst),
            RmwKind::Or => cell.fetch_or(operand, Ordering::SeqCst),
            RmwKind::Xor => cell.fetch_xor(operand, Ordering::SeqCst),
        }
    }

    /// Copies `bytes` into memory starting at `paddr` (used to load
    /// program images before execution starts). Each whole aligned word
    /// is one word store; only an unaligned head or tail goes byte by
    /// byte, so the bytes around the slice survive.
    ///
    /// The stores are [`GuestMemory::store_serial`]'s: the caller must
    /// make sure no vCPU is running. Starting a vCPU thread afterwards
    /// publishes the bytes to it.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory size.
    pub fn write_slice(&self, paddr: u32, bytes: &[u8]) {
        assert!(
            paddr as usize + bytes.len() <= self.size as usize,
            "image write out of bounds"
        );
        let store_bytes = |at: u32, bytes: &[u8]| {
            for (i, &b) in bytes.iter().enumerate() {
                self.store_serial(at + i as u32, Width::Byte, b as u32);
            }
        };
        let head = (paddr.wrapping_neg() % 4) as usize;
        let (head_bytes, body) = bytes.split_at(head.min(bytes.len()));
        store_bytes(paddr, head_bytes);
        let at = paddr + head_bytes.len() as u32;
        let words = body.chunks_exact(4);
        let tail = words.remainder();
        for (i, word) in words.enumerate() {
            let value = u32::from_le_bytes(word.try_into().expect("chunks of four"));
            self.store_serial(at + 4 * i as u32, Width::Word, value);
        }
        store_bytes(at + (body.len() - tail.len()) as u32, tail);
    }

    /// Reads `len` bytes starting at `paddr` (used by host-side result
    /// verifiers after a run).
    pub fn read_slice(&self, paddr: u32, len: u32) -> Vec<u8> {
        assert!(
            paddr as u64 + len as u64 <= self.size as u64,
            "read out of bounds"
        );
        (0..len)
            .map(|i| self.load(paddr + i, Width::Byte) as u8)
            .collect()
    }
}

/// A sub-word access's byte lanes within its word, and `value`'s low
/// bits shifted into them (little-endian): `(mask, bits)`.
#[inline]
fn lane(paddr: u32, width: Width, value: u32) -> (u32, u32) {
    let (shift, lanes) = match width {
        Width::Byte => ((paddr & 3) * 8, 0xff),
        Width::Half => ((paddr & 2) * 8, 0xffff),
        Width::Word => (0, u32::MAX),
    };
    (lanes << shift, (value & lanes) << shift)
}

impl std::fmt::Debug for GuestMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestMemory")
            .field("size", &self.size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn little_endian_byte_lanes() {
        let mem = GuestMemory::new(64);
        mem.store(0, Width::Word, 0x0403_0201);
        assert_eq!(mem.load(0, Width::Byte), 0x01);
        assert_eq!(mem.load(1, Width::Byte), 0x02);
        assert_eq!(mem.load(2, Width::Byte), 0x03);
        assert_eq!(mem.load(3, Width::Byte), 0x04);
        assert_eq!(mem.load(0, Width::Half), 0x0201);
        assert_eq!(mem.load(2, Width::Half), 0x0403);
    }

    #[test]
    fn subword_stores_preserve_neighbours() {
        let mem = GuestMemory::new(64);
        mem.store(4, Width::Word, 0xffff_ffff);
        mem.store(5, Width::Byte, 0);
        assert_eq!(mem.load(4, Width::Word), 0xffff_00ff);
        mem.store(6, Width::Half, 0x1234);
        assert_eq!(mem.load(4, Width::Word), 0x1234_00ff);
    }

    #[test]
    fn serial_store_equals_store_at_every_width_and_offset() {
        let (ordered, serial) = (GuestMemory::new(64), GuestMemory::new(64));
        for width in [Width::Byte, Width::Half, Width::Word] {
            for offset in (0..4).step_by(width.bytes() as usize) {
                for mem in [&ordered, &serial] {
                    mem.store(8, Width::Word, 0xa5c3_5a3c);
                }
                let value = 0x1234_5678 ^ (offset * 0x0101_0101);
                ordered.store(8 + offset, width, value);
                serial.store_serial(8 + offset, width, value);
                assert_eq!(
                    serial.load(8, Width::Word),
                    ordered.load(8, Width::Word),
                    "{width:?} at +{offset}"
                );
                assert_ne!(serial.load(8, Width::Word), 0xa5c3_5a3c);
            }
        }
        assert_eq!(serial.read_slice(0, 64), ordered.read_slice(0, 64));
    }

    #[test]
    fn cas_success_and_failure() {
        let mem = GuestMemory::new(64);
        mem.store(8, Width::Word, 10);
        assert_eq!(mem.cas_word(8, 10, 11), Ok(10));
        assert_eq!(mem.load(8, Width::Word), 11);
        assert_eq!(mem.cas_word(8, 10, 12), Err(11));
        assert_eq!(mem.load(8, Width::Word), 11);
    }

    #[test]
    fn write_and_read_slices() {
        let mem = GuestMemory::new(64);
        mem.write_slice(3, &[1, 2, 3, 4, 5]);
        assert_eq!(mem.read_slice(3, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(mem.load(0, Width::Byte), 0);

        // An unaligned head (6, 7), whole words (8..16) and an unaligned
        // tail (16..19) over non-zero memory: the neighbouring bytes in
        // the head's and tail's words survive.
        for cell in 0..16 {
            mem.store(cell * 4, Width::Word, 0xa5a5_a5a5);
        }
        let bytes: Vec<u8> = (1..=13).collect();
        mem.write_slice(6, &bytes);
        assert_eq!(mem.read_slice(6, 13), bytes);
        assert_eq!(mem.load(4, Width::Word), 0x0201_a5a5);
        assert_eq!(mem.load(8, Width::Word), 0x0605_0403);
        assert_eq!(mem.load(12, Width::Word), 0x0a09_0807);
        assert_eq!(mem.load(16, Width::Word), 0xa50d_0c0b);
        assert_eq!(mem.load(20, Width::Word), 0xa5a5_a5a5);

        // A slice inside one word touches only its own bytes.
        mem.write_slice(25, &[0x11, 0x22]);
        assert_eq!(mem.load(24, Width::Word), 0xa522_11a5);
    }

    #[test]
    fn concurrent_byte_stores_do_not_tear() {
        // Four threads each own one byte lane of the same word and write
        // distinct patterns; all lanes must survive.
        let mem = GuestMemory::new(64);
        std::thread::scope(|s| {
            for lane in 0u32..4 {
                let mem = &mem;
                s.spawn(move || {
                    for i in 0..1000u32 {
                        mem.store(12 + lane, Width::Byte, (lane * 10 + i) & 0xff);
                    }
                    mem.store(12 + lane, Width::Byte, lane + 1);
                });
            }
        });
        assert_eq!(mem.load(12, Width::Word), 0x0403_0201);
    }

    #[test]
    fn concurrent_fetch_add_is_exact() {
        let mem = GuestMemory::new(64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let mem = &mem;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        mem.fetch_add_word(16, 1);
                    }
                });
            }
        });
        assert_eq!(mem.load(16, Width::Word), 80_000);
    }

    #[test]
    #[should_panic(expected = "positive multiple of 4")]
    fn rejects_unaligned_size() {
        let _ = GuestMemory::new(10);
    }
}
