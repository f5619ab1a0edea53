use crate::{Cond, Op, Slot, Src, Tape, MAX_TEMPS};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The most arguments a runtime helper can take ([`Op::Helper`]); the
/// executor marshals arguments through a fixed buffer of this size,
/// so [`BlockBuilder::push`] rejects longer lists at build time.
pub const MAX_HELPER_ARGS: usize = 8;

/// Sentinel meaning "edge not patched" — arena ids never reach
/// `u32::MAX` (the cache caps out orders of magnitude earlier).
const UNPATCHED: u32 = u32::MAX;

/// A revocable successor link on a cached block's exit: the arena id of
/// the next block, patched by the first vCPU to traverse the edge and
/// *revoked* when the target is invalidated (self-modifying code, cache
/// flush). A revoked link reads as unpatched, sending the next
/// traversal back through the PC index — which no longer maps the stale
/// target — and may then be re-patched to the fresh translation.
///
/// Patching races are benign: all concurrent patchers of a live edge
/// store the id the PC index maps the target to, and revocation runs
/// only inside stop-the-world windows, so a patch racing a revoke
/// cannot happen. `set` still uses a compare-exchange from the sentinel
/// so the first writer wins — later writers with the *same* id are
/// no-ops and a stale writer cannot clobber a re-patched edge.
///
/// Links are identity-free metadata of the *cache entry*, not of the
/// translated code: `Clone` yields a fresh unpatched link and equality
/// ignores patch state, so two blocks compare equal iff their code
/// does.
#[derive(Debug)]
pub struct ChainLink(AtomicU32);

impl ChainLink {
    /// Creates an unpatched link.
    pub fn new() -> ChainLink {
        ChainLink(AtomicU32::new(UNPATCHED))
    }

    /// The linked successor's cache id, if the edge is currently
    /// patched.
    #[inline]
    pub fn get(&self) -> Option<u32> {
        match self.0.load(Ordering::Acquire) {
            UNPATCHED => None,
            id => Some(id),
        }
    }

    /// Patches the link; the first writer since the last revocation
    /// wins and later writes are ignored.
    #[inline]
    pub fn set(&self, id: u32) {
        let _ = self
            .0
            .compare_exchange(UNPATCHED, id, Ordering::Release, Ordering::Relaxed);
    }

    /// Revokes the link unconditionally; the next traversal goes back
    /// through the PC index. Callers run inside a stop-the-world window.
    #[inline]
    pub fn revoke(&self) {
        self.0.store(UNPATCHED, Ordering::Release);
    }

    /// Revokes the link only if it still points at `victim` — the edge
    /// index may hold stale registrations for edges that were already
    /// revoked and re-patched to a newer translation.
    #[inline]
    pub fn revoke_if(&self, victim: u32) {
        let _ = self
            .0
            .compare_exchange(victim, UNPATCHED, Ordering::Release, Ordering::Relaxed);
    }
}

impl Default for ChainLink {
    fn default() -> ChainLink {
        ChainLink::new()
    }
}

impl Clone for ChainLink {
    fn clone(&self) -> ChainLink {
        ChainLink::default()
    }
}

impl PartialEq for ChainLink {
    fn eq(&self, _: &ChainLink) -> bool {
        true
    }
}

impl Eq for ChainLink {}

/// A one-way invalidation flag on a cached block, raised (inside a
/// stop-the-world window) when the block's guest code is overwritten or
/// the cache is flushed. Retirement checks it so a block retires once,
/// and reclamation checks it before freeing the block.
///
/// Like [`ChainLink`], this is cache-entry metadata, not translated
/// code: `Clone` yields a fresh (clear) flag and equality ignores it.
#[derive(Debug, Default)]
pub struct InvalidFlag(AtomicBool);

impl InvalidFlag {
    /// Creates a clear flag.
    pub fn new() -> InvalidFlag {
        InvalidFlag::default()
    }

    /// Whether the block has been invalidated.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Raises the flag. Callers run inside a stop-the-world window.
    #[inline]
    pub fn set(&self) {
        self.0.store(true, Ordering::Release);
    }
}

impl Clone for InvalidFlag {
    fn clone(&self) -> InvalidFlag {
        InvalidFlag::default()
    }
}

impl PartialEq for InvalidFlag {
    fn eq(&self, _: &InvalidFlag) -> bool {
        true
    }
}

impl Eq for InvalidFlag {}

/// The successor links of a block's exit: `taken` serves
/// [`BlockExit::Jump`] and the taken leg of [`BlockExit::CondJump`];
/// `fallthrough` serves the not-taken leg.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExitLinks {
    /// Jump target / taken-branch successor.
    pub taken: ChainLink,
    /// Not-taken successor (CondJump only).
    pub fallthrough: ChainLink,
}

/// How control leaves a translated block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlockExit {
    /// Unconditional jump to a static guest address.
    Jump(u32),
    /// Conditional jump: `taken` if `cond` holds on the current flags,
    /// `fallthrough` otherwise.
    CondJump {
        /// The predicate, evaluated against NZCV at exit.
        cond: Cond,
        /// Target when the predicate holds.
        taken: u32,
        /// Target when it does not.
        fallthrough: u32,
    },
    /// Indirect jump to the address held in a slot (guest `bx`).
    Indirect {
        /// Slot holding the target address.
        target: Src,
    },
    /// Supervisor call into the emulation runtime, continuing at
    /// `ret_addr` unless the call terminates the vCPU.
    Svc {
        /// The service number.
        num: u16,
        /// The guest address of the next instruction.
        ret_addr: u32,
    },
    /// An undefined instruction: terminate the vCPU with a fault report.
    Undefined {
        /// The faulting guest address.
        addr: u32,
        /// The `udf` payload, or the raw word for decode failures.
        info: u32,
    },
}

/// A translated basic block: straight-line ops plus one exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The guest address of the block's first instruction.
    pub guest_pc: u32,
    /// The number of guest instructions covered.
    pub guest_len: u32,
    /// The ops, in order.
    pub ops: Vec<Op>,
    /// The ops pre-decoded, one entry per op at the same index — what
    /// the engine executes. Built with the block; `ops` stays the
    /// inspectable form (printer, optimizer, tests).
    pub tape: Tape,
    /// The exit.
    pub exit: BlockExit,
    /// Number of temporaries used (the executor sizes the slot file
    /// from this).
    pub temps: u16,
    /// Dynamic count of architectural guest stores in `ops` (profile
    /// metadata for the Table I experiment).
    pub guest_stores: u32,
    /// Whether the block contains an LL or SC (profile metadata).
    pub has_llsc: bool,
    /// Per-exit successor links, patched on first traversal by the
    /// dispatch loop (ignored by `Clone`/`PartialEq`; see [`ChainLink`]).
    pub links: ExitLinks,
    /// Invalidation flag, raised when the block's guest code is
    /// overwritten (ignored by `Clone`/`PartialEq`; see [`InvalidFlag`]).
    pub invalidated: InvalidFlag,
}

/// Incremental builder used by the frontend and by scheme lowering hooks.
///
/// # Example
///
/// ```
/// use adbt_ir::{BlockBuilder, BlockExit, Op, Slot, Src, Width};
///
/// let mut b = BlockBuilder::new(0x1000);
/// let t = b.temp();
/// b.push(Op::Mov { dst: t, src: Src::Imm(5), set_flags: false });
/// b.push(Op::Store { src: t.into(), addr: Src::Slot(Slot::Reg(0)), width: Width::Word, guest_store: true });
/// let block = b.finish(BlockExit::Jump(0x1004), 1);
/// assert_eq!(block.temps, 1);
/// assert_eq!(block.guest_stores, 1);
/// ```
#[derive(Debug)]
pub struct BlockBuilder {
    guest_pc: u32,
    current_pc: u32,
    ops: Vec<Op>,
    next_temp: u16,
    has_llsc: bool,
}

impl BlockBuilder {
    /// Starts a builder for the block at `guest_pc`.
    pub fn new(guest_pc: u32) -> BlockBuilder {
        BlockBuilder {
            guest_pc,
            current_pc: guest_pc,
            ops: Vec::new(),
            next_temp: 0,
            has_llsc: false,
        }
    }

    /// The guest address this block starts at.
    pub fn guest_pc(&self) -> u32 {
        self.guest_pc
    }

    /// The guest address of the instruction currently being lowered
    /// (maintained by the frontend; scheme hooks read it to embed restart
    /// points, e.g. PICO-HTM's transaction rollback PC).
    pub fn current_pc(&self) -> u32 {
        self.current_pc
    }

    /// Updates the current instruction address; called by the frontend
    /// before lowering each guest instruction.
    pub fn set_current_pc(&mut self, pc: u32) {
        self.current_pc = pc;
    }

    /// Allocates a fresh temporary slot.
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_TEMPS`] temps in one block.
    pub fn temp(&mut self) -> Slot {
        assert!(
            self.next_temp < MAX_TEMPS,
            "more than {MAX_TEMPS} temps in one block"
        );
        let t = Slot::Temp(self.next_temp);
        self.next_temp += 1;
        t
    }

    /// Appends an op.
    ///
    /// # Panics
    ///
    /// Panics if a [`Op::Helper`] carries more than [`MAX_HELPER_ARGS`]
    /// arguments. The executor marshals helper arguments through a
    /// fixed 8-word buffer, so a longer list cannot run; rejecting it
    /// when it is pushed turns a scheme-lowering bug into an immediate,
    /// attributable failure.
    pub fn push(&mut self, op: Op) {
        if let Op::Helper { id, args, .. } = &op {
            assert!(
                args.len() <= MAX_HELPER_ARGS,
                "helper {id} takes {} args; the executor marshals at most {MAX_HELPER_ARGS}",
                args.len(),
            );
        }
        self.ops.push(op);
    }

    /// Marks the block as containing an LL or SC (set by scheme lowering;
    /// feeds the Table I instruction profile).
    pub fn mark_llsc(&mut self) {
        self.has_llsc = true;
    }

    /// Number of ops appended so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no ops have been appended.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finalizes the block with its exit and guest instruction count,
    /// lowering its ops to the tape.
    pub fn finish(self, exit: BlockExit, guest_len: u32) -> Block {
        let (tape, guest_stores) = Tape::lower(&self.ops);
        Block {
            guest_pc: self.guest_pc,
            guest_len,
            ops: self.ops,
            tape,
            exit,
            temps: self.next_temp,
            guest_stores,
            has_llsc: self.has_llsc,
            links: ExitLinks::default(),
            invalidated: InvalidFlag::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Width;

    #[test]
    fn builder_counts_guest_stores_only() {
        let mut b = BlockBuilder::new(0);
        let t = b.temp();
        b.push(Op::Store {
            src: Src::Imm(1),
            addr: t.into(),
            width: Width::Word,
            guest_store: true,
        });
        b.push(Op::Store {
            src: Src::Imm(2),
            addr: t.into(),
            width: Width::Word,
            guest_store: false,
        });
        let block = b.finish(BlockExit::Jump(8), 2);
        assert_eq!(block.guest_stores, 1);
        assert!(!block.has_llsc);
    }

    #[test]
    fn temps_are_unique_and_counted() {
        let mut b = BlockBuilder::new(0);
        let t0 = b.temp();
        let t1 = b.temp();
        assert_ne!(t0, t1);
        let block = b.finish(BlockExit::Jump(4), 1);
        assert_eq!(block.temps, 2);
    }

    #[test]
    fn helper_arg_limit_is_enforced_at_build_time() {
        use crate::HelperId;
        let mut b = BlockBuilder::new(0);
        // Exactly MAX_HELPER_ARGS is fine.
        b.push(Op::Helper {
            id: HelperId(0),
            args: vec![Src::Imm(0); MAX_HELPER_ARGS],
            ret: None,
        });
        assert_eq!(b.len(), 1);
    }

    #[test]
    #[should_panic(expected = "helper")]
    fn over_long_helper_args_panic_at_build_time() {
        let mut b = BlockBuilder::new(0);
        b.push(Op::Helper {
            id: crate::HelperId(3),
            args: vec![Src::Imm(0); MAX_HELPER_ARGS + 1],
            ret: None,
        });
    }

    #[test]
    fn chain_links_ignore_patch_state_for_eq_and_clone() {
        let a = BlockBuilder::new(0).finish(BlockExit::Jump(4), 1);
        let b = a.clone();
        a.links.taken.set(7);
        assert_eq!(a.links.taken.get(), Some(7));
        // First writer wins.
        a.links.taken.set(9);
        assert_eq!(a.links.taken.get(), Some(7));
        // Clone produced a fresh, unpatched link; blocks still compare
        // equal because equality ignores link state.
        assert_eq!(b.links.taken.get(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn revoked_links_read_unpatched_and_repatch() {
        let link = ChainLink::new();
        link.set(3);
        assert_eq!(link.get(), Some(3));
        link.revoke();
        assert_eq!(link.get(), None);
        // After revocation the edge is patchable again.
        link.set(5);
        assert_eq!(link.get(), Some(5));
        // Conditional revocation only fires on the named victim.
        link.revoke_if(4);
        assert_eq!(link.get(), Some(5));
        link.revoke_if(5);
        assert_eq!(link.get(), None);
    }

    #[test]
    fn invalid_flag_is_sticky_and_ignored_by_eq_and_clone() {
        let a = BlockBuilder::new(0).finish(BlockExit::Jump(4), 1);
        let b = a.clone();
        assert!(!a.invalidated.is_set());
        a.invalidated.set();
        assert!(a.invalidated.is_set());
        assert!(!b.invalidated.is_set());
        assert_eq!(a, b);
    }

    #[test]
    fn mark_llsc_propagates() {
        let mut b = BlockBuilder::new(0x100);
        b.mark_llsc();
        let block = b.finish(
            BlockExit::CondJump {
                cond: Cond::Ne,
                taken: 0x100,
                fallthrough: 0x104,
            },
            1,
        );
        assert!(block.has_llsc);
    }
}
