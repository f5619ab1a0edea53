//! The `big-code` generator: a seeded guest program with many more
//! distinct basic blocks than the per-vCPU L1 dispatch cache holds, each
//! run only a few times, so translation, cache insert and shared-cache
//! lookup dominate instead of IR execution.
//!
//! The generator predicts the program's results itself by evaluating the
//! same operations in Rust, never by running the engine: the exit code,
//! each thread's final accumulator, the LL/SC counter and every word of
//! the private buffers.

use adbt::engine::VcpuOutcome;
use adbt::workloads::rt;
use std::fmt::Write as _;

/// Blocks a full-size program has: 8× the engine's 1024-slot per-vCPU
/// L1 cache, so most lookups miss it.
pub const BLOCKS: u32 = 8 * 1024;
/// Times each vCPU runs the whole block chain.
pub const PASSES: u32 = 2;
/// One block in this many carries an LL/SC add on the shared counter.
const ATOMIC_ONE_IN: u64 = 32;
/// Words in each thread's private buffer (4 KiB).
const BUFFER_WORDS: u32 = 1024;

/// A deterministic SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One guest operation of a generated block, with its Rust model.
#[derive(Clone, Copy, Debug)]
enum GenOp {
    AddImm(u32),
    SubImm(u32),
    EorImm(u32),
    RorImm(u32),
    AddAux,
    EorIntoAux,
    Store(u32),
    AtomicAdd,
}

/// A generated program and its predicted results.
#[derive(Clone, Debug)]
pub struct BigCode {
    /// Assembly source (assemble at [`adbt::workloads::IMAGE_BASE`]).
    pub source: String,
    /// vCPUs the program is run with.
    pub threads: u32,
    /// Every thread's final accumulator (stored to `results[tid]`).
    pub acc: u32,
    /// Every thread's exit code: the accumulator's low byte.
    pub exit_code: i32,
    /// The shared counter's final value.
    pub counter: u32,
    /// Each thread's final private buffer, word by word.
    pub buffer: Vec<u32>,
}

/// Generates a program of `blocks` chained blocks that each of
/// `threads` vCPUs runs `passes` times. Control flows through the blocks
/// in index order, but the blocks are laid out in a seeded permutation,
/// so the L1 slot pattern differs from seed to seed.
///
/// # Panics
///
/// Panics if `blocks`, `passes` or `threads` is 0, or `threads > 64`.
pub fn generate(seed: u64, blocks: u32, passes: u32, threads: u32) -> BigCode {
    assert!(blocks > 0 && passes > 0, "empty big-code program");
    assert!((1..=64).contains(&threads), "bad thread count {threads}");
    let mut rng = Rng::new(seed ^ 0xb16c_0de0);
    let plan: Vec<Vec<GenOp>> = (0..blocks).map(|_| block_ops(&mut rng)).collect();
    let acc0 = rng.next_u64() as u32;
    let aux0 = rng.next_u64() as u32;

    // The model: every thread runs the same chain from the same state.
    let (mut acc, mut aux, mut adds) = (acc0, aux0, 0u32);
    let mut buffer = vec![0u32; BUFFER_WORDS as usize];
    for _ in 0..passes {
        for op in plan.iter().flatten() {
            match *op {
                GenOp::AddImm(v) => acc = acc.wrapping_add(v),
                GenOp::SubImm(v) => acc = acc.wrapping_sub(v),
                GenOp::EorImm(v) => acc ^= v,
                GenOp::RorImm(k) => acc = acc.rotate_right(k),
                GenOp::AddAux => acc = acc.wrapping_add(aux),
                GenOp::EorIntoAux => aux ^= acc,
                GenOp::Store(word) => buffer[word as usize] = acc,
                GenOp::AtomicAdd => adds += 1,
            }
        }
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "    ; r0 = thread index, r1 = thread count (launch ABI)
    mov32 r7, buffers
    lsl   r2, r0, #12
    add   r7, r7, r2        ; private 4 KiB buffer
    mov32 r5, counter
    mov32 r4, #{acc0}
    mov32 r8, #{aux0}
    mov32 r6, #{passes}
    b     b0
pass_end:
    subs  r6, r6, #1
    bne   b0
    mov32 r2, results
    lsl   r3, r0, #2
    add   r2, r2, r3
    str   r4, [r2]
    and   r0, r4, #255
    svc   #0"
    );
    let mut layout: Vec<u32> = (0..blocks).collect();
    rng.shuffle(&mut layout);
    for i in layout {
        let _ = writeln!(s, "b{i}:");
        for op in &plan[i as usize] {
            let _ = match *op {
                GenOp::AddImm(v) => writeln!(s, "    add   r4, r4, #{v}"),
                GenOp::SubImm(v) => writeln!(s, "    sub   r4, r4, #{v}"),
                GenOp::EorImm(v) => writeln!(s, "    eor   r4, r4, #{v}"),
                GenOp::RorImm(k) => writeln!(s, "    ror   r4, r4, #{k}"),
                GenOp::AddAux => writeln!(s, "    add   r4, r4, r8"),
                GenOp::EorIntoAux => writeln!(s, "    eor   r8, r8, r4"),
                GenOp::Store(word) => writeln!(s, "    str   r4, [r7, #{}]", word * 4),
                GenOp::AtomicAdd => write!(
                    s,
                    "{}",
                    rt::atomic_add(&format!("a{i}"), "r5", 1, "r2", "r3")
                ),
            };
        }
        if i + 1 == blocks {
            let _ = writeln!(s, "    b     pass_end");
        } else {
            let _ = writeln!(s, "    b     b{}", i + 1);
        }
    }
    let _ = writeln!(
        s,
        "    .align 4096
counter:
    .word 0
    .align 4096
results:
    .space 256
    .align 4096
buffers:
    .space {}",
        threads * BUFFER_WORDS * 4
    );
    BigCode {
        source: s,
        threads,
        acc,
        exit_code: (acc & 0xff) as i32,
        counter: adds * threads,
        buffer,
    }
}

/// Two to five ALU operations, a private store half the time, and an
/// occasional LL/SC add.
fn block_ops(rng: &mut Rng) -> Vec<GenOp> {
    let mut ops = Vec::with_capacity(7);
    for _ in 0..2 + rng.below(4) {
        let imm = 1 + rng.below(4095) as u32;
        ops.push(match rng.below(6) {
            0 => GenOp::AddImm(imm),
            1 => GenOp::SubImm(imm),
            2 => GenOp::EorImm(imm),
            3 => GenOp::RorImm(1 + imm % 31),
            4 => GenOp::AddAux,
            _ => GenOp::EorIntoAux,
        });
    }
    if rng.below(2) == 0 {
        ops.push(GenOp::Store(rng.below(BUFFER_WORDS as u64) as u32));
    }
    if rng.below(ATOMIC_ONE_IN) == 0 {
        ops.push(GenOp::AtomicAdd);
    }
    ops
}

impl BigCode {
    /// Checks a finished run against the prediction: every vCPU exited
    /// with the predicted code, and `read_word` (a guest word reader)
    /// finds the predicted counter, accumulators and buffers. `symbol`
    /// resolves `counter`, `results` and `buffers`.
    pub fn verify(
        &self,
        outcomes: &[VcpuOutcome],
        symbol: impl Fn(&str) -> Option<u32>,
        read_word: impl Fn(u32) -> Option<u32>,
    ) -> bool {
        let (Some(counter), Some(results), Some(buffers)) =
            (symbol("counter"), symbol("results"), symbol("buffers"))
        else {
            return false;
        };
        outcomes.len() == self.threads as usize
            && outcomes
                .iter()
                .all(|o| *o == VcpuOutcome::Exited(self.exit_code))
            && read_word(counter) == Some(self.counter)
            && (0..self.threads).all(|tid| {
                read_word(results + 4 * tid) == Some(self.acc)
                    && self.buffer.iter().enumerate().all(|(w, &v)| {
                        read_word(buffers + tid * BUFFER_WORDS * 4 + 4 * w as u32) == Some(v)
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt::workloads::IMAGE_BASE;
    use adbt::{MachineBuilder, SchemeKind};

    fn run(code: &BigCode, kind: SchemeKind, sim: bool) -> bool {
        let mut machine = MachineBuilder::new(kind)
            .tier_threshold(1024)
            .build()
            .unwrap();
        machine.load_asm(&code.source, IMAGE_BASE).unwrap();
        let report = if sim {
            machine.run_sim(code.threads, IMAGE_BASE)
        } else {
            machine.run(code.threads, IMAGE_BASE)
        };
        code.verify(
            &report.outcomes,
            |name| machine.symbol(name).ok(),
            |addr| machine.read_word(addr).ok(),
        )
    }

    #[test]
    fn several_seeds_assemble_at_full_size() {
        for seed in [0, 1, 42] {
            let code = generate(seed, BLOCKS, PASSES, 2);
            let image = adbt::assemble(&code.source, IMAGE_BASE)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(image.symbol("b8191").is_some());
            assert!(code.counter > 0, "seed {seed} has no LL/SC adds");
        }
    }

    #[test]
    fn seeds_change_the_program_and_its_prediction() {
        let a = generate(1, 256, 2, 2);
        let b = generate(2, 256, 2, 2);
        assert_ne!(a.source, b.source);
        assert_ne!(a.acc, b.acc);
        let again = generate(1, 256, 2, 2);
        assert_eq!(a.source, again.source);
        assert_eq!(a.acc, again.acc);
    }

    #[test]
    fn prediction_matches_a_threaded_and_a_sim_run() {
        for seed in [3, 4] {
            let code = generate(seed, 2048, PASSES, 2);
            assert!(run(&code, SchemeKind::Hst, false), "seed {seed} threaded");
            assert!(run(&code, SchemeKind::Pst, true), "seed {seed} sim");
        }
    }

    #[test]
    fn a_wrong_prediction_is_caught() {
        let mut code = generate(5, 512, 1, 2);
        assert!(run(&code, SchemeKind::PicoCas, false));
        code.counter += 1;
        assert!(!run(&code, SchemeKind::PicoCas, false));
    }
}
