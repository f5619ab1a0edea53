//! The paged virtual address space: permissions, mapping and remapping.

use crate::{Access, FaultKind, GuestMemory, PageFault, Width, PAGE_SHIFT, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-page permission bits.
///
/// ```
/// use adbt_mmu::Perms;
///
/// let rw = Perms::READ | Perms::WRITE;
/// assert!(rw.allows_write());
/// assert!(!rw.allows_exec());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Perms(u8);

impl Perms {
    /// No access at all.
    pub const NONE: Perms = Perms(0);
    /// Loads allowed.
    pub const READ: Perms = Perms(1);
    /// Stores allowed.
    pub const WRITE: Perms = Perms(2);
    /// Instruction fetches allowed.
    pub const EXEC: Perms = Perms(4);
    /// Read + write + execute; the default for mapped pages.
    pub const RWX: Perms = Perms(7);

    /// Whether loads are allowed.
    pub const fn allows_read(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether stores are allowed.
    pub const fn allows_write(self) -> bool {
        self.0 & 2 != 0
    }

    /// Whether instruction fetches are allowed.
    pub const fn allows_exec(self) -> bool {
        self.0 & 4 != 0
    }

    /// Whether an access of the given kind is allowed.
    pub const fn allows(self, access: Access) -> bool {
        match access {
            Access::Load => self.allows_read(),
            Access::Store => self.allows_write(),
            Access::Fetch => self.allows_exec(),
        }
    }

    const fn bits(self) -> u8 {
        self.0
    }

    const fn from_bits(bits: u8) -> Perms {
        Perms(bits & 7)
    }
}

impl std::ops::BitOr for Perms {
    type Output = Perms;
    fn bitor(self, rhs: Perms) -> Perms {
        Perms(self.0 | rhs.0)
    }
}

/// Configuration for an [`AddressSpace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceConfig {
    /// Physical memory size in bytes (multiple of [`PAGE_SIZE`]).
    pub phys_size: u32,
    /// Extra *unmapped* virtual pages appended after the identity-mapped
    /// physical range. PST-REMAP uses this area as remap targets.
    pub extra_virt_pages: u32,
}

// Page-entry bit layout (single AtomicU64 per virtual page):
//   [31:0]  frame number
//   [34:32] permission bits
//   [40]    mapped flag
//   [41]    write-track flag (SMC detection: stores fault even when
//           permissions allow them, so the translation cache can
//           invalidate blocks backed by this page)
const ENTRY_PERM_SHIFT: u64 = 32;
const ENTRY_MAPPED: u64 = 1 << 40;
const ENTRY_TRACKED: u64 = 1 << 41;

/// A paged virtual address space over a [`GuestMemory`].
///
/// Pages are [`PAGE_SIZE`] bytes. Each virtual page holds an atomic entry
/// with a frame number, permission bits and a mapped flag, so permission
/// changes made by one vCPU thread (e.g. PST's `mprotect` analogue) are
/// immediately visible to every other thread's next access — the
/// deterministic equivalent of a TLB shootdown.
///
/// Construction identity-maps all physical frames read-write-execute and
/// leaves `extra_virt_pages` unmapped on top, which PST-REMAP uses as the
/// destination window for [`AddressSpace::move_page`].
pub struct AddressSpace {
    mem: GuestMemory,
    entries: Box<[AtomicU64]>,
}

impl AddressSpace {
    /// Creates a space with `phys_size` bytes of identity-mapped physical
    /// memory and `extra_virt_pages` unmapped pages above it.
    ///
    /// # Errors
    ///
    /// Returns an error string if `phys_size` is zero, not page-aligned,
    /// or the total virtual size overflows the 32-bit guest address space.
    pub fn new(phys_size: u32, extra_virt_pages: u32) -> Result<AddressSpace, String> {
        AddressSpace::with_config(SpaceConfig {
            phys_size,
            extra_virt_pages,
        })
    }

    /// Creates a space from a [`SpaceConfig`]; see [`AddressSpace::new`].
    ///
    /// # Errors
    ///
    /// Returns an error string for an invalid configuration (zero or
    /// unaligned physical size, or a virtual span exceeding 2³² bytes).
    pub fn with_config(config: SpaceConfig) -> Result<AddressSpace, String> {
        if config.phys_size == 0 || !config.phys_size.is_multiple_of(PAGE_SIZE) {
            return Err(format!(
                "phys_size {:#x} must be a positive multiple of the {PAGE_SIZE}-byte page size",
                config.phys_size
            ));
        }
        let phys_pages = (config.phys_size >> PAGE_SHIFT) as u64;
        let total_pages = phys_pages + config.extra_virt_pages as u64;
        if total_pages > (1u64 << (32 - PAGE_SHIFT)) {
            return Err("virtual address space exceeds 32 bits".to_string());
        }
        let mut entries = Vec::with_capacity(total_pages as usize);
        for frame in 0..phys_pages {
            entries.push(AtomicU64::new(
                frame | ((Perms::RWX.bits() as u64) << ENTRY_PERM_SHIFT) | ENTRY_MAPPED,
            ));
        }
        entries.resize_with(total_pages as usize, || AtomicU64::new(0));
        Ok(AddressSpace {
            mem: GuestMemory::new(config.phys_size),
            entries: entries.into_boxed_slice(),
        })
    }

    /// The underlying physical memory (for image loading and host-side
    /// verification; guest accesses should translate).
    pub fn mem(&self) -> &GuestMemory {
        &self.mem
    }

    /// Number of virtual pages (mapped + unmapped).
    pub fn virt_pages(&self) -> u32 {
        self.entries.len() as u32
    }

    /// The first virtual page *above* the identity-mapped physical range —
    /// the start of the remap window when `extra_virt_pages > 0`.
    pub fn high_window_base(&self) -> u32 {
        self.mem.size() >> PAGE_SHIFT
    }

    #[inline]
    fn entry(&self, page: u32) -> Option<&AtomicU64> {
        self.entries.get(page as usize)
    }

    /// Translates a virtual address for the given access, returning the
    /// physical address.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] when the access is unaligned, the address
    /// is outside the virtual space, the page is unmapped, or permissions
    /// forbid the access.
    #[inline]
    pub fn translate(&self, vaddr: u32, access: Access, width: Width) -> Result<u32, PageFault> {
        if !vaddr.is_multiple_of(width.bytes()) {
            return Err(PageFault {
                vaddr,
                access,
                kind: FaultKind::Unaligned,
            });
        }
        let page = vaddr >> PAGE_SHIFT;
        let entry = self.entry(page).ok_or(PageFault {
            vaddr,
            access,
            kind: FaultKind::OutOfRange,
        })?;
        let bits = entry.load(Ordering::SeqCst);
        if bits & ENTRY_MAPPED == 0 {
            return Err(PageFault {
                vaddr,
                access,
                kind: FaultKind::Unmapped,
            });
        }
        let perms = Perms::from_bits((bits >> ENTRY_PERM_SHIFT) as u8);
        // Write-tracked pages fault on *every* store regardless of
        // permissions — that is how the translation cache hears about
        // guest writes into translated code. Same single atomic load as
        // the permission check, so untracked pages pay nothing.
        if !perms.allows(access) || (matches!(access, Access::Store) && bits & ENTRY_TRACKED != 0) {
            return Err(PageFault {
                vaddr,
                access,
                kind: FaultKind::Protected,
            });
        }
        let frame = (bits & 0xffff_ffff) as u32;
        Ok((frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Translates a virtual address checking only mapping and alignment,
    /// *not* permissions — the privileged path page-fault handlers use to
    /// complete a store on a write-protected page (PST's false-sharing
    /// case) or for an SC store while the page is read-only.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] for unaligned, out-of-range or unmapped
    /// addresses (access kind reported as [`Access::Store`]).
    #[inline]
    pub fn translate_bypass(&self, vaddr: u32, width: Width) -> Result<u32, PageFault> {
        if !vaddr.is_multiple_of(width.bytes()) {
            return Err(PageFault {
                vaddr,
                access: Access::Store,
                kind: FaultKind::Unaligned,
            });
        }
        let page = vaddr >> PAGE_SHIFT;
        let entry = self.entry(page).ok_or(PageFault {
            vaddr,
            access: Access::Store,
            kind: FaultKind::OutOfRange,
        })?;
        let bits = entry.load(Ordering::SeqCst);
        if bits & ENTRY_MAPPED == 0 {
            return Err(PageFault {
                vaddr,
                access: Access::Store,
                kind: FaultKind::Unmapped,
            });
        }
        let frame = (bits & 0xffff_ffff) as u32;
        Ok((frame << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Loads through translation.
    ///
    /// # Errors
    ///
    /// Propagates the [`PageFault`] from [`AddressSpace::translate`].
    #[inline]
    pub fn load(&self, vaddr: u32, width: Width) -> Result<u32, PageFault> {
        let paddr = self.translate(vaddr, Access::Load, width)?;
        Ok(self.mem.load(paddr, width))
    }

    /// Stores through translation.
    ///
    /// # Errors
    ///
    /// Propagates the [`PageFault`] from [`AddressSpace::translate`].
    #[inline]
    pub fn store(&self, vaddr: u32, width: Width, value: u32) -> Result<(), PageFault> {
        let paddr = self.translate(vaddr, Access::Store, width)?;
        self.mem.store(paddr, width, value);
        Ok(())
    }

    /// Compare-and-swap through translation (word-sized).
    ///
    /// The outer `Result` is the translation outcome; the inner one is the
    /// CAS outcome as in [`GuestMemory::cas_word`].
    ///
    /// # Errors
    ///
    /// Propagates the [`PageFault`] from [`AddressSpace::translate`].
    #[inline]
    pub fn cas_word(
        &self,
        vaddr: u32,
        expected: u32,
        new: u32,
    ) -> Result<Result<u32, u32>, PageFault> {
        let paddr = self.translate(vaddr, Access::Store, Width::Word)?;
        Ok(self.mem.cas_word(paddr, expected, new))
    }

    /// Returns the current permissions of a mapped page, or `None` if the
    /// page is unmapped or out of range.
    pub fn perms(&self, page: u32) -> Option<Perms> {
        let bits = self.entry(page)?.load(Ordering::SeqCst);
        if bits & ENTRY_MAPPED == 0 {
            return None;
        }
        Some(Perms::from_bits((bits >> ENTRY_PERM_SHIFT) as u8))
    }

    /// Atomically replaces the permissions of a mapped page — the
    /// `mprotect` analogue. Returns the previous permissions, or `None`
    /// (no change) if the page was unmapped or out of range.
    pub fn protect(&self, page: u32, perms: Perms) -> Option<Perms> {
        let entry = self.entry(page)?;
        let mut bits = entry.load(Ordering::SeqCst);
        loop {
            if bits & ENTRY_MAPPED == 0 {
                return None;
            }
            let new_bits =
                (bits & !(7u64 << ENTRY_PERM_SHIFT)) | ((perms.bits() as u64) << ENTRY_PERM_SHIFT);
            match entry.compare_exchange_weak(bits, new_bits, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(old) => return Some(Perms::from_bits((old >> ENTRY_PERM_SHIFT) as u8)),
                Err(actual) => bits = actual,
            }
        }
    }

    /// Marks a mapped page write-tracked: every subsequent store to it
    /// faults [`FaultKind::Protected`] even if permissions allow
    /// writing, until [`AddressSpace::write_untrack`] clears the mark.
    /// The translation cache tracks every page backing translated code
    /// this way so guest self-modification raises an invalidation event
    /// instead of silently racing stale translations. Returns `false`
    /// if the page is unmapped or out of range.
    pub fn write_track(&self, page: u32) -> bool {
        self.set_track(page, true)
    }

    /// Clears a page's write-track mark; see
    /// [`AddressSpace::write_track`]. Returns `false` if the page is
    /// unmapped or out of range.
    pub fn write_untrack(&self, page: u32) -> bool {
        self.set_track(page, false)
    }

    /// Whether a page is currently write-tracked.
    pub fn write_tracked(&self, page: u32) -> bool {
        let want = ENTRY_MAPPED | ENTRY_TRACKED;
        self.entry(page)
            .is_some_and(|e| e.load(Ordering::SeqCst) & want == want)
    }

    fn set_track(&self, page: u32, tracked: bool) -> bool {
        let Some(entry) = self.entry(page) else {
            return false;
        };
        let mut bits = entry.load(Ordering::SeqCst);
        loop {
            if bits & ENTRY_MAPPED == 0 {
                return false;
            }
            let new_bits = if tracked {
                bits | ENTRY_TRACKED
            } else {
                bits & !ENTRY_TRACKED
            };
            match entry.compare_exchange_weak(bits, new_bits, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(actual) => bits = actual,
            }
        }
    }

    /// Maps `page` to physical `frame` with the given permissions,
    /// replacing any existing mapping. The write-track mark belongs to
    /// the virtual page and survives. Returns `false` if `page` or
    /// `frame` is out of range.
    pub fn map(&self, page: u32, frame: u32, perms: Perms) -> bool {
        if (frame as u64) >= (self.mem.size() as u64) >> PAGE_SHIFT {
            return false;
        }
        let Some(entry) = self.entry(page) else {
            return false;
        };
        let mapping = frame as u64 | ((perms.bits() as u64) << ENTRY_PERM_SHIFT) | ENTRY_MAPPED;
        let _ = entry.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |bits| {
            Some((bits & ENTRY_TRACKED) | mapping)
        });
        true
    }

    /// Unmaps `page`, returning the frame it pointed to, or `None` if it
    /// was already unmapped or out of range. The write-track mark stays
    /// with the virtual page for its next mapping.
    pub fn unmap(&self, page: u32) -> Option<u32> {
        let bits = self.entry(page)?.fetch_and(ENTRY_TRACKED, Ordering::SeqCst);
        if bits & ENTRY_MAPPED == 0 {
            None
        } else {
            Some((bits & 0xffff_ffff) as u32)
        }
    }

    /// Moves the mapping of `from` to `to` with new permissions — the
    /// `mremap` analogue used by PST-REMAP during SC emulation.
    ///
    /// The source is unmapped *first*, so there is a window in which
    /// neither address is mapped (accesses fault with
    /// [`FaultKind::Unmapped`]) but never a window in which both are
    /// writable — that ordering is what gives PST-REMAP its exclusion.
    ///
    /// Returns the moved frame number.
    ///
    /// # Errors
    ///
    /// Returns an error string when `from` is unmapped/out-of-range or
    /// `to` is out of range (in which case the original mapping is
    /// restored before returning).
    pub fn move_page(&self, from: u32, to: u32, perms: Perms) -> Result<u32, String> {
        let frame = self
            .unmap(from)
            .ok_or_else(|| format!("move_page: source page {from:#x} not mapped"))?;
        if self.map(to, frame, perms) {
            Ok(frame)
        } else {
            // Restore the source mapping so a failed move is harmless.
            self.map(from, frame, Perms::RWX);
            Err(format!("move_page: destination page {to:#x} out of range"))
        }
    }
}

impl std::fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AddressSpace")
            .field("phys_size", &self.mem.size())
            .field("virt_pages", &self.virt_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(4 * PAGE_SIZE, 2).unwrap()
    }

    #[test]
    fn identity_mapping_round_trips() {
        let s = space();
        s.store(0x1234, Width::Word, 99).unwrap();
        assert_eq!(s.load(0x1234, Width::Word).unwrap(), 99);
        assert_eq!(s.mem().load(0x1234, Width::Word), 99);
    }

    #[test]
    fn unaligned_accesses_fault() {
        let s = space();
        let fault = s.load(0x1001, Width::Word).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Unaligned);
        assert!(s.load(0x1001, Width::Byte).is_ok());
        let fault = s.store(0x1002, Width::Word, 0).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Unaligned);
        assert!(s.store(0x1002, Width::Half, 0).is_ok());
    }

    #[test]
    fn out_of_range_faults() {
        let s = space();
        // 4 phys pages + 2 extra = 6 pages of virtual space.
        let fault = s.load(6 * PAGE_SIZE, Width::Word).unwrap_err();
        assert_eq!(fault.kind, FaultKind::OutOfRange);
    }

    #[test]
    fn extra_pages_start_unmapped() {
        let s = space();
        let fault = s.load(4 * PAGE_SIZE, Width::Word).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Unmapped);
        assert_eq!(s.high_window_base(), 4);
    }

    #[test]
    fn protect_blocks_only_the_denied_access() {
        let s = space();
        assert_eq!(s.protect(1, Perms::READ), Some(Perms::RWX));
        let addr = PAGE_SIZE + 8;
        assert!(s.load(addr, Width::Word).is_ok());
        let fault = s.store(addr, Width::Word, 1).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Protected);
        assert_eq!(fault.access, Access::Store);
        // Restore and the store succeeds.
        s.protect(1, Perms::RWX);
        assert!(s.store(addr, Width::Word, 1).is_ok());
    }

    #[test]
    fn fetch_requires_exec() {
        let s = space();
        s.protect(0, Perms::READ | Perms::WRITE);
        let fault = s.translate(0x10, Access::Fetch, Width::Word).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Protected);
    }

    #[test]
    fn move_page_redirects_and_unmaps_source() {
        let s = space();
        s.store(2 * PAGE_SIZE + 4, Width::Word, 77).unwrap();
        let frame = s
            .move_page(2, s.high_window_base(), Perms::READ | Perms::WRITE)
            .unwrap();
        assert_eq!(frame, 2);
        // Original address now faults MAPERR.
        let fault = s.load(2 * PAGE_SIZE + 4, Width::Word).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Unmapped);
        // Alias sees the same bytes.
        let alias = s.high_window_base() * PAGE_SIZE + 4;
        assert_eq!(s.load(alias, Width::Word).unwrap(), 77);
        s.store(alias, Width::Word, 78).unwrap();
        // Move back.
        s.move_page(s.high_window_base(), 2, Perms::RWX).unwrap();
        assert_eq!(s.load(2 * PAGE_SIZE + 4, Width::Word).unwrap(), 78);
    }

    /// PST-REMAP moves a code page to its alias and back inside an SC:
    /// the page must come back write-tracked, and the alias must not
    /// pick the mark up.
    #[test]
    fn tracking_belongs_to_the_virtual_page_across_a_move() {
        let s = space();
        let alias = s.high_window_base();
        assert!(s.write_track(2));
        s.move_page(2, alias, Perms::READ | Perms::WRITE).unwrap();
        assert!(!s.write_tracked(alias));
        s.store(alias * PAGE_SIZE, Width::Word, 5).unwrap();
        s.move_page(alias, 2, Perms::RWX).unwrap();
        assert!(s.write_tracked(2));
        let fault = s.store(2 * PAGE_SIZE, Width::Word, 6).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Protected);
        assert_eq!(s.load(2 * PAGE_SIZE, Width::Word).unwrap(), 5);
    }

    #[test]
    fn move_page_from_unmapped_errors() {
        let s = space();
        assert!(s.move_page(5, 4, Perms::RWX).is_err());
    }

    #[test]
    fn move_page_to_out_of_range_restores_source() {
        let s = space();
        assert!(s.move_page(1, 1000, Perms::RWX).is_err());
        // Source restored.
        assert!(s.load(PAGE_SIZE, Width::Word).is_ok());
    }

    #[test]
    fn cas_through_translation() {
        let s = space();
        s.store(0x40, Width::Word, 5).unwrap();
        assert_eq!(s.cas_word(0x40, 5, 6).unwrap(), Ok(5));
        assert_eq!(s.cas_word(0x40, 5, 7).unwrap(), Err(6));
        s.protect(0, Perms::READ);
        assert!(s.cas_word(0x40, 6, 8).is_err());
    }

    #[test]
    fn protect_is_immediately_visible_across_threads() {
        let s = space();
        let addr = 3 * PAGE_SIZE;
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut faults = 0u32;
                for i in 0..50_000u32 {
                    if s.store(addr, Width::Word, i).is_err() {
                        faults += 1;
                    }
                }
                faults
            });
            for _ in 0..100 {
                s.protect(3, Perms::READ);
                std::thread::yield_now();
                s.protect(3, Perms::RWX);
            }
            // The writer must have observed at least some protected
            // windows or none — either way it must terminate and the
            // final state must be writable.
            let _ = writer.join().unwrap();
        });
        assert!(s.store(addr, Width::Word, 1).is_ok());
    }

    #[test]
    fn write_tracked_pages_fault_stores_but_not_loads_or_fetches() {
        let s = space();
        let addr = PAGE_SIZE + 0x20;
        s.store(addr, Width::Word, 11).unwrap();
        assert!(!s.write_tracked(1));
        assert!(s.write_track(1));
        assert!(s.write_tracked(1));
        // Permissions still read RWX — tracking is orthogonal.
        assert_eq!(s.perms(1), Some(Perms::RWX));
        assert!(s.load(addr, Width::Word).is_ok());
        assert!(s.translate(addr, Access::Fetch, Width::Word).is_ok());
        let fault = s.store(addr, Width::Word, 12).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Protected);
        assert_eq!(fault.access, Access::Store);
        // The privileged bypass path ignores tracking (the fault
        // handler completes the store after invalidating).
        assert!(s.translate_bypass(addr, Width::Word).is_ok());
        // Untracking restores plain stores.
        assert!(s.write_untrack(1));
        assert!(!s.write_tracked(1));
        assert!(s.store(addr, Width::Word, 13).is_ok());
        assert_eq!(s.load(addr, Width::Word).unwrap(), 13);
    }

    #[test]
    fn tracking_survives_protect_and_rejects_unmapped_pages() {
        let s = space();
        assert!(s.write_track(2));
        // A permission change must not clobber the track bit (both
        // mutate the same entry with CAS loops).
        s.protect(2, Perms::READ | Perms::WRITE);
        assert!(s.write_tracked(2));
        let fault = s.store(2 * PAGE_SIZE, Width::Word, 1).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Protected);
        // Unmapped and out-of-range pages cannot be tracked.
        assert!(!s.write_track(4));
        assert!(!s.write_tracked(4));
        assert!(!s.write_track(1000));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(AddressSpace::new(0, 0).is_err());
        assert!(AddressSpace::new(100, 0).is_err());
        assert!(AddressSpace::with_config(SpaceConfig {
            phys_size: PAGE_SIZE,
            extra_virt_pages: u32::MAX,
        })
        .is_err());
    }
}
