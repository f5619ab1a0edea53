use adbt_isa::AluOp;
use adbt_mmu::Width;
use std::fmt;

/// A storage location: a guest architectural register or a block-local
/// temporary.
///
/// Keeping both in one enum lets lowered ops read and write guest
/// registers directly, with temporaries reserved for scheme-injected
/// sequences (address computations, status values, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A guest register, index `0..=15`.
    Reg(u8),
    /// A block-local temporary allocated by [`crate::BlockBuilder::temp`].
    Temp(u16),
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Reg(n) => write!(f, "r{n}"),
            Slot::Temp(n) => write!(f, "t{n}"),
        }
    }
}

/// An operand: a slot's current value or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Src {
    /// Read a register or temp.
    Slot(Slot),
    /// A 32-bit constant.
    Imm(u32),
}

impl From<Slot> for Src {
    fn from(slot: Slot) -> Src {
        Src::Slot(slot)
    }
}

impl From<u32> for Src {
    fn from(imm: u32) -> Src {
        Src::Imm(imm)
    }
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Slot(slot) => slot.fmt(f),
            Src::Imm(imm) => write!(f, "#{imm:#x}"),
        }
    }
}

/// An opaque runtime-helper identifier.
///
/// The engine holds a registry mapping ids to boxed closures; schemes
/// register their helpers at machine construction and embed the returned
/// ids in the IR they emit. The IR crate itself knows nothing about what
/// a helper does — mirroring how TCG treats QEMU helper calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HelperId(pub u16);

impl fmt::Display for HelperId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "helper#{}", self.0)
    }
}

/// One IR operation.
///
/// Ops execute in order within a [`crate::Block`]; faults (from memory
/// ops) and helper traps unwind to the engine, which may re-execute the
/// block after fault handling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `dst = src`. With `set_flags`, updates N and Z from the value.
    Mov {
        /// Destination.
        dst: Slot,
        /// Source value.
        src: Src,
        /// Update N/Z flags (for guest `movs`).
        set_flags: bool,
    },
    /// `dst = !src` (bitwise). With `set_flags`, updates N and Z.
    MovNot {
        /// Destination.
        dst: Slot,
        /// Source value, inverted.
        src: Src,
        /// Update N/Z flags (for guest `mvns`).
        set_flags: bool,
    },
    /// `dst = a <op> b`, optionally updating NZCV with ARM semantics.
    ///
    /// With `dst: None` the result is discarded — that form encodes the
    /// guest compare/test family (`cmp` = `Sub` + flags, `tst` = `And` +
    /// flags, …).
    Alu {
        /// The operation (shared with the ISA's [`AluOp`]).
        op: AluOp,
        /// Destination, or `None` to only set flags.
        dst: Option<Slot>,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Whether NZCV are updated.
        set_flags: bool,
    },
    /// `dst = (src << 16) | (dst & 0xffff)` — the guest `movt` (the only
    /// op that reads its destination).
    InsertHigh {
        /// Destination whose high half is replaced.
        dst: Slot,
        /// The 16-bit immediate.
        imm: u16,
    },
    /// Load through the soft-MMU: `dst = mem[addr]`, zero-extended.
    Load {
        /// Destination.
        dst: Slot,
        /// Virtual address.
        addr: Src,
        /// Access width.
        width: Width,
    },
    /// Store through the soft-MMU: `mem[addr] = src` (low `width` bits).
    ///
    /// `guest_store` marks architecturally-visible guest stores — the ones
    /// store-test schemes instrumented; scheme-internal stores emitted
    /// during lowering leave it `false` so they are not themselves
    /// instrumented or counted in the guest store profile.
    Store {
        /// Value to store.
        src: Src,
        /// Virtual address.
        addr: Src,
        /// Access width.
        width: Width,
        /// Whether this is an architectural guest store.
        guest_store: bool,
    },
    /// Host compare-and-swap on a guest word:
    /// `dst = (mem[addr] == expected) ? (mem[addr] = new, 1) : 0`.
    ///
    /// This is the x86 `lock cmpxchg` analogue that PICO-CAS lowers
    /// `strex` to.
    CasWord {
        /// Receives 1 on success, 0 on failure.
        dst: Slot,
        /// Virtual address of the word.
        addr: Src,
        /// Expected current value.
        expected: Src,
        /// Replacement value.
        new: Src,
    },
    /// Full memory fence (guest `dmb`).
    Fence,
    /// Inline store-test hash-table update: `htable[hash(addr)] = tid`.
    ///
    /// The single-store, lock-free fast path that distinguishes HST from
    /// PICO-ST. Executed as one array store against the engine's
    /// [`store-test table`](crate::Op::Helper) — no helper dispatch.
    HtableSet {
        /// The guest address whose hash entry is claimed.
        addr: Src,
    },
    /// Call a registered runtime helper with up to four word arguments;
    /// the return value, if any, lands in `ret`.
    ///
    /// Helpers run outside translated code — the engine counts their
    /// invocations and attributes their time to the *instrumentation*
    /// profile bucket, reproducing the helper-call overhead PICO-ST pays
    /// on every store.
    Helper {
        /// Which helper to call.
        id: HelperId,
        /// Argument values (evaluated left to right).
        args: Vec<Src>,
        /// Where the helper's return value goes, if anywhere.
        ret: Option<Slot>,
    },
    /// A no-op scheduling hint (guest `yield`); the threaded engine maps
    /// it to `std::thread::yield_now`.
    Yield,
    /// A scheme-emitted window marker: the point inside a lowered
    /// sequence where the modelled scheme has a genuine non-atomic
    /// window (e.g. PICO-ST between its store-test helper and the store
    /// itself). A complete no-op in every execution mode except
    /// scheduled runs, where the deterministic scheduler may deschedule
    /// the vCPU here — making the window's interleavings enumerable.
    Window,
    /// Arm the LL/SC local monitor: `dst = mem[addr]` (word) and record
    /// `(addr, dst)` in the vCPU's monitor — QEMU's inline
    /// `exclusive_addr`/`exclusive_val` bookkeeping, used by the schemes
    /// whose LL needs no helper (PICO-CAS, the HST family).
    MonitorArm {
        /// Receives the loaded word.
        dst: Slot,
        /// Virtual address of the synchronization variable.
        addr: Src,
    },
    /// PICO-CAS's inline SC: if the monitor is armed on `addr`, host-CAS
    /// the remembered value against `new`; `dst` gets 0 on success, 1 on
    /// failure (strex convention). Always disarms the monitor.
    ///
    /// This is a *value* comparison — the exact QEMU-4.1 lowering whose
    /// ABA vulnerability the paper demonstrates.
    MonitorScCas {
        /// Receives the strex status.
        dst: Slot,
        /// Virtual address of the synchronization variable.
        addr: Src,
        /// The value to store on success.
        new: Src,
    },
    /// Disarm the local monitor (guest `clrex`).
    MonitorClear,
    /// A fused atomic read-modify-write: `dst = atomic_fetch_<op>(addr,
    /// operand)` returning the *old* value.
    ///
    /// Emitted by the rule-based translation pass (paper §VI): a
    /// compiler-generated `ldrex; <alu>; strex; cmp; bne` retry loop is
    /// recognized at translation time and replaced with one host atomic
    /// built-in — inherently ABA-free and with no per-store
    /// instrumentation or exclusion needed.
    AtomicRmw {
        /// Receives the value *before* the update (what the guest loop's
        /// `ldrex` leaves in the loaded register on exit).
        dst: Slot,
        /// The operation applied.
        op: RmwOp,
        /// Virtual address of the word.
        addr: Src,
        /// The right-hand operand.
        operand: Src,
    },
}

/// The operations the fused-atomics pass can lower to host atomics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RmwOp {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_conversions() {
        assert_eq!(Src::from(Slot::Reg(3)), Src::Slot(Slot::Reg(3)));
        assert_eq!(Src::from(7u32), Src::Imm(7));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Slot::Reg(5).to_string(), "r5");
        assert_eq!(Slot::Temp(2).to_string(), "t2");
        assert_eq!(Src::Imm(16).to_string(), "#0x10");
        assert_eq!(HelperId(4).to_string(), "helper#4");
    }
}
