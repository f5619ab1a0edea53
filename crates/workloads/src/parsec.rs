//! Synthetic kernels mirroring the PARSEC 3.0 programs' synchronization
//! profiles (paper Table I and §IV).
//!
//! The paper runs eight PARSEC programs (ARM binaries, `simlarge`) under
//! each scheme. What an atomic-emulation scheme sees of a program is its
//! *dynamic mix*: how many plain stores per LL/SC (Table I reports
//! 88×–3000×), whether synchronization is a global lock, fine-grained
//! locks, atomic adds or barriers, and how much private compute separates
//! synchronization points. Each kernel here reproduces one program's mix
//! with the same guest-level primitives real ARM binaries compile to
//! (spin mutexes, sense barriers and `__atomic_fetch_add`, all built on
//! `ldrex`/`strex` — see [`crate::rt`]).
//!
//! Sizing note: per-iteration constants are chosen so the *store:LL/SC
//! ratio* and synchronization cadence land in each program's Table I
//! band; absolute iteration counts scale with the caller's `scale`
//! factor so benches can trade runtime for stability.

use crate::rt;
use std::fmt::Write as _;

/// The eight modelled PARSEC programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Program {
    /// Embarrassingly parallel option pricing; atomics are rare.
    Blackscholes,
    /// Barrier-phased body tracking; shows the "U"-shaped scaling curve.
    Bodytrack,
    /// Lock-serialized annealing; ~30% parallelism, excluded from the
    /// scalability figure like the paper does.
    Canneal,
    /// Barrier-phased physics solve.
    Facesim,
    /// Fine-grained per-cell locks; the most lock-intensive program.
    Fluidanimate,
    /// Atomic-add heavy frequent-itemset mining.
    Freqmine,
    /// Coarse locks around independent pricing work.
    Swaptions,
    /// Streaming encoder: store-heavy, atomics very rare.
    X264,
}

impl Program {
    /// All programs in the paper's figure order.
    pub const ALL: [Program; 8] = [
        Program::Blackscholes,
        Program::Bodytrack,
        Program::Canneal,
        Program::Facesim,
        Program::Fluidanimate,
        Program::Freqmine,
        Program::Swaptions,
        Program::X264,
    ];

    /// The program's lowercase name.
    pub const fn name(self) -> &'static str {
        match self {
            Program::Blackscholes => "blackscholes",
            Program::Bodytrack => "bodytrack",
            Program::Canneal => "canneal",
            Program::Facesim => "facesim",
            Program::Fluidanimate => "fluidanimate",
            Program::Freqmine => "freqmine",
            Program::Swaptions => "swaptions",
            Program::X264 => "x264",
        }
    }

    /// Parses a program name.
    pub fn from_name(name: &str) -> Option<Program> {
        Program::ALL
            .into_iter()
            .find(|p| p.name() == name.to_ascii_lowercase())
    }

    /// Whether the paper includes the program in scalability figures
    /// (canneal is excluded: ~30% parallelism).
    pub const fn scalable(self) -> bool {
        !matches!(self, Program::Canneal)
    }

    /// The synchronization profile. Primary calibration target: the
    /// store:LL/SC instruction ratio lands in each program's Table I
    /// band (≈88× for the atomic-heavy programs up to ≈3000× for
    /// blackscholes), with the synchronization *shape* (global lock,
    /// fine-grained locks, atomic adds, barriers) matching the program.
    pub const fn spec(self) -> KernelSpec {
        match self {
            Program::Blackscholes => KernelSpec {
                // ratio ≈ 192×32/2 ≈ 3000
                iters: 1024,
                alu_per_iter: 24,
                stores_per_iter: 192,
                lock_every: 32,
                fine_locks: 0,
                atomic_adds_per_lock: 0,
                add_every: 0,
                barrier_every: 0,
            },
            Program::Bodytrack => KernelSpec {
                // ratio ≈ 16/(2/32 + 2/32 + 2/32) ≈ 85 with barrier +
                // locked atomic add included
                iters: 2048,
                alu_per_iter: 16,
                stores_per_iter: 16,
                lock_every: 32,
                fine_locks: 0,
                atomic_adds_per_lock: 1,
                add_every: 0,
                barrier_every: 32,
            },
            Program::Canneal => KernelSpec {
                // ratio ≈ 88×2/2 ≈ 88; the global lock every other
                // iteration is its ~30%-parallel character
                iters: 512,
                alu_per_iter: 8,
                stores_per_iter: 88,
                lock_every: 2,
                fine_locks: 0,
                atomic_adds_per_lock: 0,
                add_every: 0,
                barrier_every: 0,
            },
            Program::Facesim => KernelSpec {
                // ratio ≈ 25/(2/32 + 2/32) ≈ 200
                iters: 2048,
                alu_per_iter: 16,
                stores_per_iter: 25,
                lock_every: 32,
                fine_locks: 0,
                atomic_adds_per_lock: 0,
                add_every: 0,
                barrier_every: 32,
            },
            Program::Fluidanimate => KernelSpec {
                // ratio ≈ 22×8/2 ≈ 88; fine-grained per-cell locks
                iters: 2048,
                alu_per_iter: 8,
                stores_per_iter: 22,
                lock_every: 8,
                fine_locks: 64,
                atomic_adds_per_lock: 0,
                add_every: 0,
                barrier_every: 0,
            },
            Program::Freqmine => KernelSpec {
                // ratio ≈ 11×16/2 ≈ 88; standalone atomic adds
                iters: 2048,
                alu_per_iter: 8,
                stores_per_iter: 11,
                lock_every: 0,
                fine_locks: 0,
                atomic_adds_per_lock: 1,
                add_every: 16,
                barrier_every: 0,
            },
            Program::Swaptions => KernelSpec {
                // ratio ≈ 24×32/2 ≈ 384
                iters: 2048,
                alu_per_iter: 32,
                stores_per_iter: 24,
                lock_every: 32,
                fine_locks: 0,
                atomic_adds_per_lock: 0,
                add_every: 0,
                barrier_every: 0,
            },
            Program::X264 => KernelSpec {
                // ratio ≈ 32×64/2 ≈ 1024
                iters: 2048,
                alu_per_iter: 8,
                stores_per_iter: 32,
                lock_every: 64,
                fine_locks: 0,
                atomic_adds_per_lock: 0,
                add_every: 0,
                barrier_every: 0,
            },
        }
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A kernel's per-thread shape. All cadence fields (`lock_every`,
/// `barrier_every`, `fine_locks`) must be powers of two (or zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelSpec {
    /// Outer iterations per thread at `scale == 1.0`.
    pub iters: u32,
    /// Plain ALU instructions per iteration (private compute).
    pub alu_per_iter: u32,
    /// Plain stores to the thread-private buffer per iteration.
    pub stores_per_iter: u32,
    /// Take a lock every N iterations (0 = never).
    pub lock_every: u32,
    /// 0 = one global lock; otherwise the size of the fine-grained lock
    /// array (lock chosen by iteration index).
    pub fine_locks: u32,
    /// Atomic fetch-adds per synchronization point (with `lock_every ==
    /// 0` these run standalone, the `freqmine` shape).
    pub atomic_adds_per_lock: u32,
    /// Cadence for *standalone* atomic adds (`lock_every == 0` only):
    /// add every N iterations. 0 means every iteration.
    pub add_every: u32,
    /// Barrier every N iterations (0 = never).
    pub barrier_every: u32,
}

/// A generated kernel.
#[derive(Clone, Debug)]
pub struct ParsecProgram {
    /// The program modelled.
    pub program: Program,
    /// Assembly source.
    pub source: String,
    /// The spec after scaling.
    pub spec: KernelSpec,
    /// Threads the image was generated for.
    pub threads: u32,
}

/// The largest thread count a generated image supports (private-buffer
/// sizing).
pub const MAX_THREADS: u32 = 64;

/// Generates a kernel for `threads` vCPUs with total work scaled by
/// `scale` and **divided across threads** (strong scaling, like the
/// paper's fixed `simlarge` inputs): per-thread iterations are
/// `base × scale × 8 / threads`, so ideal speedup over one thread is
/// `threads` and the scalability figures measure how much each scheme's
/// synchronization erodes that.
///
/// # Panics
///
/// Panics if `threads` is 0 or exceeds [`MAX_THREADS`], or if a cadence
/// field in the spec is not a power of two.
pub fn generate(program: Program, threads: u32, scale: f64) -> ParsecProgram {
    assert!((1..=MAX_THREADS).contains(&threads), "bad thread count");
    let mut spec = program.spec();
    // The ×8 keeps per-thread counts meaningful up to 64 threads. The
    // floor guarantees every thread still reaches each synchronization
    // cadence at high thread counts (real PARSEC work units have a
    // minimum granularity too); past the floor, scaling becomes weak
    // rather than strong, which the harness normalization tolerates.
    let floor = spec
        .lock_every
        .max(spec.barrier_every)
        .max(spec.add_every)
        .max(1);
    spec.iters = (((spec.iters as f64 * scale * 8.0) / threads as f64).round() as u32).max(floor);
    // Barrier cadence must divide evenly into remaining counts for all
    // threads; any iters value works because every thread runs the same
    // count — just assert the power-of-two cadence contract.
    for cadence in [
        spec.lock_every,
        spec.barrier_every,
        spec.fine_locks,
        spec.add_every,
    ] {
        assert!(
            cadence == 0 || cadence.is_power_of_two(),
            "cadence fields must be powers of two"
        );
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"
        ; r0 = thread index (0-based), r1 = nthreads (launch ABI)
        mov32 r5, sync_page
        mov32 r12, barrier_page
        mov32 r7, buffers
        lsl   r2, r0, #12
        add   r7, r7, r2        ; private 4 KiB buffer
        mov   r8, #0            ; buffer cursor
        mov   r9, #0            ; barrier local sense
        mov   r4, #1            ; ALU accumulator
        mov32 r6, #{iters}
    iter_loop:"#,
        iters = spec.iters
    );

    // Private compute: a dependency chain the interpreter can't skip.
    for k in 0..spec.alu_per_iter {
        match k % 4 {
            0 => {
                let _ = writeln!(s, "        add   r4, r4, #3");
            }
            1 => {
                let _ = writeln!(s, "        eor   r4, r4, r6");
            }
            2 => {
                let _ = writeln!(s, "        lsl   r4, r4, #1");
            }
            _ => {
                let _ = writeln!(s, "        orr   r4, r4, #1");
            }
        }
    }

    // Private stores: the Table I numerator.
    for _ in 0..spec.stores_per_iter {
        let _ = writeln!(s, "        str   r4, [r7, r8]");
        let _ = writeln!(s, "        add   r8, r8, #4");
        let _ = writeln!(s, "        and   r8, r8, #4092");
    }

    // Standalone atomic adds (freqmine shape).
    if spec.lock_every == 0 && spec.atomic_adds_per_lock > 0 {
        if spec.add_every > 1 {
            let _ = writeln!(s, "        tst   r6, #{}", spec.add_every - 1);
            let _ = writeln!(s, "        bne   skip_add");
        }
        for k in 0..spec.atomic_adds_per_lock {
            let _ = writeln!(s, "        add   r11, r5, #8");
            let _ = write!(
                s,
                "{}",
                rt::atomic_add(&format!("aa{k}"), "r11", 1, "r2", "r3")
            );
        }
        if spec.add_every > 1 {
            let _ = writeln!(s, "    skip_add:");
        }
    }

    // Locked critical section every `lock_every` iterations.
    if spec.lock_every > 0 {
        if spec.lock_every > 1 {
            let _ = writeln!(s, "        tst   r6, #{}", spec.lock_every - 1);
            let _ = writeln!(s, "        bne   skip_lock");
        }
        if spec.fine_locks > 0 {
            // Pick a lock by iteration index: contention is spread but
            // the lock words share a page (real fluidanimate packs cell
            // locks the same way — and it is what makes PST suffer).
            let _ = writeln!(s, "        mov32 r11, fine_locks_page");
            let _ = writeln!(s, "        and   r2, r6, #{}", spec.fine_locks - 1);
            let _ = writeln!(s, "        lsl   r2, r2, #2");
            let _ = writeln!(s, "        add   r11, r11, r2");
        } else {
            let _ = writeln!(s, "        mov   r11, r5   ; global lock");
        }
        let _ = write!(s, "{}", rt::spin_lock("lk", "r11", "r2", "r3"));
        // Shared-data updates under the lock (plain stores to shared
        // data — the strong-vs-weak atomicity distinction lives here).
        // Each fine-grained lock guards its own counter one page above
        // it: vCPUs holding different locks must not share a word.
        let shared = if spec.fine_locks > 0 {
            "[r11, #4096]"
        } else {
            "[r5, #16]"
        };
        let _ = writeln!(s, "        ldr   r2, {shared}");
        let _ = writeln!(s, "        add   r2, r2, #1");
        let _ = writeln!(s, "        str   r2, {shared}");
        for k in 0..spec.atomic_adds_per_lock {
            let _ = writeln!(s, "        add   r10, r5, #8");
            let _ = write!(
                s,
                "{}",
                rt::atomic_add(&format!("la{k}"), "r10", 1, "r2", "r3")
            );
        }
        let _ = write!(s, "{}", rt::spin_unlock("r11", "r2"));
        if spec.lock_every > 1 {
            let _ = writeln!(s, "    skip_lock:");
        }
    }

    // Barrier phase.
    if spec.barrier_every > 0 {
        let _ = writeln!(s, "        tst   r6, #{}", spec.barrier_every - 1);
        let _ = writeln!(s, "        bne   skip_barrier");
        let _ = write!(s, "{}", rt::barrier("bar", "r12", "r1", "r9", "r2", "r3"));
        let _ = writeln!(s, "    skip_barrier:");
    }

    let _ = writeln!(
        s,
        r#"        subs  r6, r6, #1
        bne   iter_loop
        mov   r0, #0
        svc   #0

        .align 4096
    sync_page:
        .word 0                 ; global lock
        .word 0                 ; pad
        .word 0                 ; atomic counter (+8)
        .word 0                 ; pad
        .word 0                 ; global-lock-protected shared word (+16)
        .space 236
        .align 4096
    barrier_page:
        .word 0                 ; arrival count
        .word 0                 ; sense
        .space 248
        .align 4096
    fine_locks_page:
        .space 4096
        .align 4096
    fine_counters_page:
        .space 4096             ; one counter per fine-grained lock
        .align 4096
    buffers:
        .space {buf}
"#,
        buf = MAX_THREADS * 4096
    );

    ParsecProgram {
        program,
        source: s,
        spec,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_isa::asm::assemble;

    #[test]
    fn every_kernel_assembles() {
        for program in Program::ALL {
            let generated = generate(program, 8, 0.05);
            assemble(&generated.source, crate::IMAGE_BASE)
                .unwrap_or_else(|e| panic!("{program}: {e}"));
        }
    }

    #[test]
    fn scaling_shrinks_iterations() {
        let full = generate(Program::Swaptions, 4, 1.0);
        let small = generate(Program::Swaptions, 4, 0.01);
        assert!(small.spec.iters < full.spec.iters);
        assert!(small.spec.iters >= 1);
    }

    #[test]
    fn table_one_bands_hold() {
        // Stores per LL/SC: blackscholes ≫ x264 ≫ … ≫ canneal/fluidanimate,
        // spanning roughly the paper's 88×–3000× range. LL/SC per lock
        // acquisition ≈ 1 pair uncontended (plus the release plain store).
        let ratio = |p: Program| {
            let spec = p.spec();
            let iters = spec.iters as f64;
            let stores = spec.stores_per_iter as f64 * iters;
            let lock_events = if spec.lock_every > 0 {
                iters / spec.lock_every as f64
            } else {
                0.0
            };
            let atomic_events = if spec.lock_every == 0 {
                let cadence = spec.add_every.max(1) as f64;
                spec.atomic_adds_per_lock as f64 * iters / cadence
            } else {
                spec.atomic_adds_per_lock as f64 * lock_events
            };
            let barrier_events = if spec.barrier_every > 0 {
                iters / spec.barrier_every as f64
            } else {
                0.0
            };
            // Each lock/add/barrier event executes ≈ one LL/SC pair
            // (2 instructions) uncontended.
            let llsc_insns = 2.0 * (lock_events + atomic_events + barrier_events);
            stores / llsc_insns.max(1.0)
        };
        // Table I bands: atomic-heavy programs ≈ 88×, blackscholes ≈ 3000×.
        let blackscholes = ratio(Program::Blackscholes);
        let canneal = ratio(Program::Canneal);
        let fluidanimate = ratio(Program::Fluidanimate);
        let freqmine = ratio(Program::Freqmine);
        let x264 = ratio(Program::X264);
        assert!(blackscholes > 2500.0, "blackscholes ratio {blackscholes}");
        for (name, value) in [
            ("canneal", canneal),
            ("fluidanimate", fluidanimate),
            ("freqmine", freqmine),
        ] {
            assert!(
                (60.0..120.0).contains(&value),
                "{name} ratio {value} outside the ~88x band"
            );
        }
        assert!(x264 > 500.0, "x264 ratio {x264}");
        assert!(blackscholes > canneal);
    }

    #[test]
    fn names_round_trip() {
        for p in Program::ALL {
            assert_eq!(Program::from_name(p.name()), Some(p));
        }
        assert_eq!(Program::from_name("BODYTRACK"), Some(Program::Bodytrack));
        assert!(Program::from_name("quake").is_none());
    }

    #[test]
    fn canneal_is_not_scalable() {
        assert!(!Program::Canneal.scalable());
        assert_eq!(Program::ALL.iter().filter(|p| p.scalable()).count(), 7);
    }
}
