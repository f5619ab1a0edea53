//! Litmus programs for the systematic interleaving checker
//! (`adbt-check`).
//!
//! Unlike [`crate::litmus`], which hard-codes the paper's four Seq
//! interleavings as one pinned lockstep schedule each, these programs
//! carry **no schedule at all**: the checker enumerates schedules itself
//! (instruction-granular, plus every [`adbt_ir::Op::Window`] pause point
//! a scheme emits) and judges each run with the LL/SC shadow-monitor
//! oracle. Each program is small on purpose — the schedule space grows
//! with the atom count, and a dozen guest instructions per thread keep
//! exhaustive low-preemption exploration inside a CI-sized budget.
//!
//! The suite:
//!
//! * [`Litmus::AbaLlsc`] — a single-attempt LL/SC against a competing
//!   thread that drives the word `100 → 200 → 100` with two complete
//!   retry-looped LL/SC pairs. The value returns to what the victim
//!   loaded, so a value-comparing SC (PICO-CAS) succeeds — the ABA bug —
//!   while every monitor-based scheme fails the SC. The interference
//!   uses LL/SC pairs (not plain stores) so even *weak* atomicity is
//!   expected to catch it.
//! * [`Litmus::StoreWindow`] — one plain store racing one LL/SC pair.
//!   Catches schemes whose store instrumentation is not atomic with the
//!   store itself (PICO-ST's check-then-store gap). Weakly-atomic
//!   schemes are *allowed* to miss a plain store, so the oracle only
//!   flags strongly-classified schemes here.
//! * [`Litmus::AbaStack`] — a two-thread, two-node instance of the §IV-A
//!   lock-free stack: the victim is descheduled mid-pop while the
//!   attacker pops and re-pushes the same node.
//!
//! The SMC (self-modifying code) trio exercises the translation-cache
//! lifecycle rather than the atomicity schemes, and is expected *clean*
//! on every scheme — a violation would mean a stale translation survived
//! an invalidation:
//!
//! * [`Litmus::SmcSelf`] — a thread overwrites an instruction in its own
//!   loop between iterations; the patched semantics must be observed on
//!   the next pass (exit code 8, deterministically, in every mode).
//! * [`Litmus::SmcCross`] — one thread patches another thread's loop
//!   body; the victim's iterations are bounded, so every schedule
//!   terminates whether the patch lands early, late, or never.
//! * [`Litmus::SmcSuper`] — the patch lands inside a hot two-block loop
//!   whose chained latch must be retranslated mid-loop.

use crate::stack::{self, StackConfig};

/// The checker's litmus programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Litmus {
    /// Single-attempt LL/SC vs. an A→B→A driver made of LL/SC pairs.
    AbaLlsc,
    /// A plain store racing an LL/SC pair (the store-test window probe).
    StoreWindow,
    /// The lock-free stack, miniature (2 threads, 2 nodes, 1 op each).
    AbaStack,
    /// A thread stores over its own translated loop body (SMC).
    SmcSelf,
    /// A thread patches *another* thread's translated loop body (SMC).
    SmcCross,
    /// The patch lands inside a hot two-block loop (SMC + chaining).
    SmcSuper,
}

/// A generated litmus program: source text plus per-vCPU entry points.
#[derive(Clone, Debug)]
pub struct LitmusProgram {
    /// Assembly source for [`adbt_isa::asm::assemble`] at
    /// [`crate::IMAGE_BASE`].
    pub source: String,
    /// Entry symbol per vCPU; `None` means the image base (the stack
    /// program dispatches on the thread id itself).
    pub entries: Vec<Option<&'static str>>,
}

impl Litmus {
    /// Every litmus, in report order.
    pub const ALL: [Litmus; 6] = [
        Litmus::AbaLlsc,
        Litmus::StoreWindow,
        Litmus::AbaStack,
        Litmus::SmcSelf,
        Litmus::SmcCross,
        Litmus::SmcSuper,
    ];

    /// The litmus' report/CLI name.
    pub const fn name(self) -> &'static str {
        match self {
            Litmus::AbaLlsc => "aba_llsc",
            Litmus::StoreWindow => "store_window",
            Litmus::AbaStack => "aba_stack",
            Litmus::SmcSelf => "smc_self",
            Litmus::SmcCross => "smc_cross",
            Litmus::SmcSuper => "smc_super",
        }
    }

    /// Looks a litmus up by its [`name`](Litmus::name).
    pub fn by_name(name: &str) -> Option<Litmus> {
        Litmus::ALL.into_iter().find(|l| l.name() == name)
    }

    /// Generates the program.
    pub fn program(self) -> LitmusProgram {
        match self {
            Litmus::AbaLlsc => LitmusProgram {
                source: ABA_LLSC.to_string(),
                entries: vec![Some("victim"), Some("attacker")],
            },
            Litmus::StoreWindow => LitmusProgram {
                source: STORE_WINDOW.to_string(),
                entries: vec![Some("storer"), Some("llsc")],
            },
            Litmus::AbaStack => LitmusProgram {
                source: stack::program(StackConfig {
                    nodes: 2,
                    ops_per_thread: 1,
                    stall: 0,
                    // The checker deschedules the victim wherever it
                    // wants; no artificial window needed.
                    victim_stall: 0,
                })
                .source,
                entries: vec![None, None],
            },
            Litmus::SmcSelf => LitmusProgram {
                source: SMC_SELF.to_string(),
                entries: vec![Some("patcher"), Some("bystander")],
            },
            Litmus::SmcCross => LitmusProgram {
                source: SMC_CROSS.to_string(),
                entries: vec![Some("victim"), Some("patcher")],
            },
            Litmus::SmcSuper => LitmusProgram {
                source: SMC_SUPER.to_string(),
                entries: vec![Some("hot"), Some("bystander")],
            },
        }
    }
}

impl std::fmt::Display for Litmus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The victim's single SC attempt exits with the strex status (0 =
/// stored, 1 = failed); the attacker retry-loops both transitions so it
/// always completes the full A→B→A cycle and exits 0.
const ABA_LLSC: &str = r#"
    victim:
        mov32 r5, x
        ldrex r1, [r5]          ; LL_v(x(100))
        mov   r4, #777
        strex r2, r4, [r5]      ; SC_v(x(100,777)) -- single attempt
        mov   r0, r2
        svc   #0

    attacker:
        mov32 r5, x
    flip:
        ldrex r1, [r5]          ; LL_a(x(100))
        mov   r6, #200
        strex r2, r6, [r5]      ; SC_a(x(100,200))
        cmp   r2, #0
        bne   flip
    flop:
        ldrex r1, [r5]          ; LL_a(x(200))
        mov   r6, #100
        strex r2, r6, [r5]      ; SC_a(x(200,100)) -- back to 100
        cmp   r2, #0
        bne   flop
        mov   r0, #0
        svc   #0

        .align 4096
    x:
        .word 100
"#;

/// One plain store vs. one single-attempt LL/SC pair. The interesting
/// schedules deschedule the storer inside its lowered store sequence
/// (at a scheme's `Op::Window`, if it emits one).
const STORE_WINDOW: &str = r#"
    storer:
        mov32 r5, x
        mov   r6, #200
        str   r6, [r5]          ; S(x(200))
        mov   r0, #0
        svc   #0

    llsc:
        mov32 r5, x
        ldrex r1, [r5]          ; LL(x)
        mov   r4, #777
        strex r2, r4, [r5]      ; SC(x(.,777)) -- single attempt
        mov   r0, r2
        svc   #0

        .align 4096
    x:
        .word 100
"#;

/// Store-to-own-code: the patcher runs its loop body once, overwrites
/// the body's first instruction with the donor instruction (a stash-copy
/// — `ldr` the donor's encoded bytes, `str` them over the target, so the
/// program never hard-codes an encoding), and loops back. The second
/// iteration must execute the patched instruction: exit code 1 + 7 = 8,
/// the same in threaded multi-instruction blocks (the store retires the
/// block it sits in; the stale tail finishes, the re-entry retranslates)
/// and in the checker's single-instruction blocks.
const SMC_SELF: &str = r#"
    patcher:
        mov   r0, #0
        mov   r3, #0
        mov32 r5, ppatch
        mov32 r6, pdonor
    ploop:
    ppatch:
        add   r0, r0, #1        ; patched to: add r0, r0, #7
        add   r3, r3, #1
        cmp   r3, #2
        beq   pdone
        ldr   r2, [r6]
        str   r2, [r5]          ; SMC: store over our own loop body
        b     ploop
    pdone:
        svc   #0                ; exit 8 iff the patch was honored

    bystander:
        mov   r0, #0
        svc   #0

    pdonor:
        add   r0, r0, #7
"#;

/// Cross-vCPU code patch: the patcher rewrites the victim's loop body
/// while the victim iterates a *bounded* number of times, so every
/// schedule terminates. The victim's exit code counts how many
/// iterations ran after the patch landed (0..=6) — any value is legal;
/// what must never happen is a stale translation executing after its
/// invalidation, which the oracle-clean verdict plus the engine's
/// differential tests pin down.
const SMC_CROSS: &str = r#"
    victim:
        mov   r0, #0
        mov   r3, #6
    vloop:
    vpatch:
        add   r0, r0, #0        ; patched to: add r0, r0, #1
        subs  r3, r3, #1
        bne   vloop
        svc   #0                ; exits 0..=6 depending on patch timing

    patcher:
        mov32 r5, vpatch
        mov32 r6, vdonor
        ldr   r2, [r6]
        str   r2, [r5]          ; SMC: patch another vCPU's code
        mov   r0, #0
        svc   #0

    vdonor:
        add   r0, r0, #1
"#;

/// Patch inside a hot loop: eight iterations of a two-block loop (body +
/// latch, chained to each other), with the latch instruction patched
/// when four iterations remain. With the default
/// translation-block size: four pre-patch latch passes add 1 each, the
/// patching pass still runs its already-translated stale latch (+1), and
/// the three remaining passes run the retranslated latch (+3 each) —
/// exit 4 + 1 + 9 = 14. A stale latch surviving the patch (a chain link
/// followed to the retired latch) would keep adding 1 and exit below 14.
const SMC_SUPER: &str = r#"
    hot:
        mov   r0, #0
        mov   r3, #8
        mov32 r5, spatch
        mov32 r6, sdonor
    sloop:
        add   r1, r1, #1        ; loop body: its own translation block
        cmp   r3, #4
        bne   sskip
        ldr   r2, [r6]
        str   r2, [r5]          ; SMC: patch the latch mid-loop
    sskip:
    spatch:
        add   r0, r0, #1        ; patched to: add r0, r0, #3
        subs  r3, r3, #1
        bne   sloop
        svc   #0

    bystander:
        mov   r0, #0
        svc   #0

    sdonor:
        add   r0, r0, #3
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_isa::asm::assemble;

    #[test]
    fn programs_assemble_with_expected_entries() {
        for litmus in Litmus::ALL {
            let program = litmus.program();
            let img = assemble(&program.source, crate::IMAGE_BASE)
                .unwrap_or_else(|e| panic!("{litmus}: {e}"));
            assert_eq!(program.entries.len(), 2, "{litmus}: two vCPUs");
            for sym in program.entries.iter().flatten() {
                assert!(img.symbol(sym).is_some(), "{litmus}: missing {sym}");
            }
        }
    }

    #[test]
    fn synchronization_words_get_their_own_page() {
        // PST write-protects whole pages; keep `x` isolated so false
        // sharing never muddies a litmus verdict.
        for litmus in [Litmus::AbaLlsc, Litmus::StoreWindow] {
            let img = assemble(&litmus.program().source, crate::IMAGE_BASE).unwrap();
            let x = img.symbol("x").unwrap();
            assert_eq!(x % 4096, 0, "{litmus}: x must start a page");
        }
    }

    #[test]
    fn names_round_trip() {
        for litmus in Litmus::ALL {
            assert_eq!(Litmus::by_name(litmus.name()), Some(litmus));
        }
        assert_eq!(Litmus::by_name("nope"), None);
    }
}
