//! Seed-replayable guest-program generator.
//!
//! Programs are built so their *results* are schedule-independent even
//! though their *executions* race freely — that is what makes them
//! usable as a differential oracle across schemes, modes, and chaos:
//!
//! - every shared word is assigned one commutative-associative RMW op
//!   class (`add`, `eor`, `orr`, or `and`) and every writer of that word
//!   sticks to the class, so the final value is the fold of all
//!   applications in any order;
//! - every store-conditional sits in a retry loop (chaos-injected SC
//!   failures and PICO-CAS ABA windows retry instead of diverging);
//! - everything else a thread touches (private slots, its near-code
//!   word, its page-straddling pair, its SMC patch site) is owned by
//!   that thread alone;
//! - each thread's exit code is a function of values the generator can
//!   compute statically, so the oracle checks absolute correctness, not
//!   just cross-cell agreement.
//!
//! The grammar deliberately leans on the engine's sore spots: LL/SC
//! retry loops (scheme hot path), counted loops (chained hot code), plain
//! stores adjacent to code (SMC false sharing), stores straddling page
//! boundaries (PST remap windows), byte/halfword loads from monitored
//! words, `clrex` between atomics, and a self-modifying patch loop in
//! the `SMC_SELF` shape that is deterministic in every mode.

use crate::rng::SplitMix64;
use adbt::workloads::rt;
use std::fmt::Write as _;

/// Shared words per program — each on the same page, each with its own
/// op class.
pub const NSHARED: usize = 4;

/// Private slots per thread.
pub const NPRIV: usize = 2;

/// The commutative-associative op classes a shared word may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RmwOp {
    /// Wrapping addition.
    Add,
    /// Bitwise exclusive or.
    Eor,
    /// Bitwise or.
    Orr,
    /// Bitwise and.
    And,
}

impl RmwOp {
    /// All classes, for generator draws.
    pub const ALL: [RmwOp; 4] = [RmwOp::Add, RmwOp::Eor, RmwOp::Orr, RmwOp::And];

    /// The ALU mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            RmwOp::Add => "add",
            RmwOp::Eor => "eor",
            RmwOp::Orr => "orr",
            RmwOp::And => "and",
        }
    }

    /// One application of the op — the generator's model of the guest.
    pub fn apply(self, value: u32, imm: u32) -> u32 {
        match self {
            RmwOp::Add => value.wrapping_add(imm),
            RmwOp::Eor => value ^ imm,
            RmwOp::Orr => value | imm,
            RmwOp::And => value & imm,
        }
    }
}

/// Branch conditions the generator emits (signed compares; operands are
/// small non-negative immediates, so signedness never matters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Greater than.
    Gt,
    /// Less than.
    Lt,
    /// Greater or equal.
    Ge,
    /// Less or equal.
    Le,
}

impl Cond {
    /// All conditions, for generator draws.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Gt, Cond::Lt, Cond::Ge, Cond::Le];

    /// The branch mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Gt => "bgt",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
        }
    }

    /// Whether `cmp a, b` followed by this branch is taken.
    pub fn taken(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Gt => a > b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::Le => a <= b,
        }
    }
}

/// Load widths for [`Action::SharedLoad`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadWidth {
    /// `ldr`.
    Word,
    /// `ldrh`.
    Half,
    /// `ldrb`.
    Byte,
}

impl LoadWidth {
    fn mnemonic(self) -> &'static str {
        match self {
            LoadWidth::Word => "ldr",
            LoadWidth::Half => "ldrh",
            LoadWidth::Byte => "ldrb",
        }
    }
}

/// One generated step of one thread's straight-line program. Each
/// variant renders to a self-contained fragment (no register state
/// flows between actions except the `r10` accumulator), which is what
/// makes drop-one minimization sound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// One atomic RMW retry loop on a shared word (the word's op class).
    Rmw {
        /// Shared-word index.
        word: usize,
        /// ALU immediate (≤ 4095).
        imm: u32,
    },
    /// A counted loop of atomic RMWs — chained hot code around the
    /// scheme hot path.
    RmwLoop {
        /// Shared-word index.
        word: usize,
        /// ALU immediate (≤ 4095).
        imm: u32,
        /// Loop iterations (≥ 1).
        iters: u32,
    },
    /// A counted pure-ALU loop accumulating into `r10`.
    AluLoop {
        /// Per-iteration accumulator delta (≤ 4095).
        delta: u32,
        /// Loop iterations (≥ 1).
        iters: u32,
    },
    /// Load–modify–store on a thread-private slot, folding the new
    /// value into the accumulator — exercises plain loads/stores whose
    /// values feed the exit code.
    PrivateRmw {
        /// Private-slot index.
        slot: usize,
        /// Added immediate (≤ 4095).
        imm: u32,
    },
    /// A plain store to the thread's near-code word — same page as
    /// translated code, so it rides the SMC false-sharing path.
    NearStore {
        /// Stored value (≤ 65535).
        value: u32,
    },
    /// Two plain stores to the thread's page-straddling pair (the
    /// second store's word is the first word of the next page).
    XPageStores {
        /// Value for the last word of the page.
        lo: u32,
        /// Value for the first word of the next page.
        hi: u32,
    },
    /// A discarded load from a shared word at word/half/byte width.
    SharedLoad {
        /// Shared-word index.
        word: usize,
        /// Access width.
        width: LoadWidth,
    },
    /// A conditional skip over an accumulator bump — both arms are
    /// statically decidable, so the generator knows the contribution.
    CondBranch {
        /// Left compare operand (≤ 4095).
        a: u32,
        /// Right compare operand (≤ 4095).
        b: u32,
        /// Branch condition.
        cond: Cond,
        /// Accumulator delta on the not-taken arm (≤ 4095).
        delta: u32,
    },
    /// The `SMC_SELF` shape: a two-iteration loop that patches its own
    /// head from a donor instruction near the loop end. Contributes
    /// `1 + delta` to the accumulator in every mode.
    SmcPatch {
        /// The donor instruction's accumulator delta (≤ 4095).
        delta: u32,
    },
    /// `clrex` between atomics (never inside an LL/SC window).
    Clrex,
    /// A `dmb` fence.
    Dmb,
    /// A `yield` hint.
    Yield,
}

impl Action {
    /// Static instruction-count estimate (mov32 counts as 2), used for
    /// the generator's program-size budget.
    pub fn est_insns(&self) -> u32 {
        match self {
            Action::Rmw { .. } => 7,
            Action::RmwLoop { .. } => 10,
            Action::AluLoop { .. } => 4,
            Action::PrivateRmw { .. } => 7,
            Action::NearStore { .. } => 4,
            Action::XPageStores { .. } => 7,
            Action::SharedLoad { .. } => 3,
            Action::CondBranch { .. } => 4,
            Action::SmcPatch { .. } => 13,
            Action::Clrex | Action::Dmb | Action::Yield => 1,
        }
    }
}

/// Generator tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Approximate static instruction budget per program.
    pub max_insns: u32,
    /// Maximum thread count (drawn uniformly from `1..=max_threads`).
    pub max_threads: u32,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_insns: 256,
            max_threads: 3,
        }
    }
}

/// A fully-specified program: initial values, per-word op classes, and
/// per-thread action lists. Rendering is a pure function of this, so
/// the shrinker can drop actions and re-render without re-seeding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramSpec {
    /// The seed the spec was generated from (recorded in the source
    /// header; a shrunk spec keeps its ancestor's seed).
    pub seed: u64,
    /// Thread count.
    pub threads: u32,
    /// Initial shared-word values.
    pub shared_init: [u32; NSHARED],
    /// Per-shared-word op class.
    pub shared_op: [RmwOp; NSHARED],
    /// Per-thread private-slot initial values.
    pub priv_init: Vec<[u32; NPRIV]>,
    /// Per-thread near-code-word initial values.
    pub near_init: Vec<u32>,
    /// Per-thread page-straddling-pair initial values.
    pub xpage_init: Vec<[u32; 2]>,
    /// Per-thread action lists.
    pub actions: Vec<Vec<Action>>,
}

/// A rendered program plus everything the oracle predicts statically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzProgram {
    /// Guest assembly source.
    pub source: String,
    /// Per-thread entry symbols (`t0_entry`, …), in vCPU order.
    pub entries: Vec<String>,
    /// Predicted per-thread exit codes (`acc & 0xff`).
    pub expected_exits: Vec<i32>,
    /// Predicted final values of every generator-owned data word, as
    /// `(symbol, value)` pairs.
    pub expected_words: Vec<(String, u32)>,
}

impl ProgramSpec {
    /// Draws a spec from `seed`. Equal `(seed, cfg)` ⇒ equal specs.
    pub fn generate(seed: u64, cfg: &GenConfig) -> ProgramSpec {
        let mut rng = SplitMix64::new(seed);
        let threads = rng.range(1, cfg.max_threads.max(1) as u64) as u32;
        let mut shared_init = [0u32; NSHARED];
        let mut shared_op = [RmwOp::Add; NSHARED];
        for w in 0..NSHARED {
            shared_init[w] = rng.below(0x1_0000) as u32;
            shared_op[w] = RmwOp::ALL[rng.below(RmwOp::ALL.len() as u64) as usize];
        }
        let mut spec = ProgramSpec {
            seed,
            threads,
            shared_init,
            shared_op,
            priv_init: (0..threads)
                .map(|_| [rng.below(4096) as u32, rng.below(4096) as u32])
                .collect(),
            near_init: (0..threads).map(|_| rng.below(4096) as u32).collect(),
            xpage_init: (0..threads)
                .map(|_| [rng.below(4096) as u32, rng.below(4096) as u32])
                .collect(),
            actions: vec![Vec::new(); threads as usize],
        };

        // Entry + exit overhead per thread, then round-robin actions
        // until the static budget is spent.
        let mut est: u32 = threads * 3;
        let mut smc_used = vec![false; threads as usize];
        let mut t = 0usize;
        while est < cfg.max_insns {
            let action = draw_action(&mut rng, smc_used[t]);
            if matches!(action, Action::SmcPatch { .. }) {
                smc_used[t] = true;
            }
            est += action.est_insns();
            spec.actions[t].push(action);
            t = (t + 1) % threads as usize;
        }
        spec
    }

    /// Flattens the per-thread action lists into `(thread, action)`
    /// pairs for drop-one minimization.
    pub fn flatten(&self) -> Vec<(usize, Action)> {
        let mut flat = Vec::new();
        for (t, list) in self.actions.iter().enumerate() {
            for a in list {
                flat.push((t, a.clone()));
            }
        }
        flat
    }

    /// Rebuilds a spec with the same initial values and op classes but
    /// the given (possibly-shrunk) flattened action list. Relative
    /// order within each thread is preserved.
    pub fn with_actions(&self, flat: &[(usize, Action)]) -> ProgramSpec {
        let mut spec = self.clone();
        spec.actions = vec![Vec::new(); self.threads as usize];
        for (t, a) in flat {
            spec.actions[*t].push(a.clone());
        }
        spec
    }

    /// Total action count across all threads.
    pub fn action_count(&self) -> usize {
        self.actions.iter().map(Vec::len).sum()
    }

    /// Renders the spec to assembly and computes the expected exits and
    /// final data-word values. Pure: equal specs ⇒ byte-identical
    /// output.
    pub fn render(&self) -> FuzzProgram {
        let mut src = String::new();
        let _ = writeln!(
            src,
            "; adbt_fuzz generated program — seed {:#018x}, {} thread(s)",
            self.seed, self.threads
        );

        let mut shared = self.shared_init;
        let mut expected_exits = Vec::new();
        let mut expected_words = Vec::new();
        let mut entries = Vec::new();

        for t in 0..self.threads as usize {
            let mut acc: u32 = 0;
            let mut privs = self.priv_init[t];
            let mut near = self.near_init[t];
            let mut xpage = self.xpage_init[t];
            let mut donors: Vec<(String, u32)> = Vec::new();

            entries.push(format!("t{t}_entry"));
            let _ = writeln!(src, "t{t}_entry:");
            let _ = writeln!(src, "    mov   r10, #0");
            for (i, action) in self.actions[t].iter().enumerate() {
                let p = format!("t{t}_a{i}");
                match action {
                    Action::Rmw { word, imm } => {
                        let op = self.shared_op[*word];
                        let _ = writeln!(src, "    mov32 r5, shared{word}");
                        src.push_str(&rt::atomic_rmw(&p, "r5", op.mnemonic(), *imm, "r1", "r2"));
                        shared[*word] = op.apply(shared[*word], *imm);
                    }
                    Action::RmwLoop { word, imm, iters } => {
                        let op = self.shared_op[*word];
                        let _ = writeln!(src, "    mov32 r5, shared{word}");
                        let _ = writeln!(src, "    mov   r4, #{iters}");
                        let _ = writeln!(src, "{p}_loop:");
                        src.push_str(&rt::atomic_rmw(&p, "r5", op.mnemonic(), *imm, "r1", "r2"));
                        let _ = writeln!(src, "    subs  r4, r4, #1");
                        let _ = writeln!(src, "    bne   {p}_loop");
                        for _ in 0..*iters {
                            shared[*word] = op.apply(shared[*word], *imm);
                        }
                    }
                    Action::AluLoop { delta, iters } => {
                        let _ = writeln!(src, "    mov   r4, #{iters}");
                        let _ = writeln!(src, "{p}_loop:");
                        let _ = writeln!(src, "    add   r10, r10, #{delta}");
                        let _ = writeln!(src, "    subs  r4, r4, #1");
                        let _ = writeln!(src, "    bne   {p}_loop");
                        acc = acc.wrapping_add(delta.wrapping_mul(*iters));
                    }
                    Action::PrivateRmw { slot, imm } => {
                        let _ = writeln!(src, "    mov32 r5, t{t}_priv{slot}");
                        let _ = writeln!(src, "    ldr   r1, [r5]");
                        let _ = writeln!(src, "    add   r1, r1, #{imm}");
                        let _ = writeln!(src, "    str   r1, [r5]");
                        let _ = writeln!(src, "    add   r10, r10, r1");
                        privs[*slot] = privs[*slot].wrapping_add(*imm);
                        acc = acc.wrapping_add(privs[*slot]);
                    }
                    Action::NearStore { value } => {
                        let _ = writeln!(src, "    mov32 r5, t{t}_near");
                        let _ = writeln!(src, "    mov   r1, #{value}");
                        let _ = writeln!(src, "    str   r1, [r5]");
                        near = *value;
                    }
                    Action::XPageStores { lo, hi } => {
                        let _ = writeln!(src, "    mov32 r5, t{t}_xlo");
                        let _ = writeln!(src, "    mov   r1, #{lo}");
                        let _ = writeln!(src, "    mov   r2, #{hi}");
                        let _ = writeln!(src, "    str   r1, [r5]");
                        let _ = writeln!(src, "    str   r2, [r5, #4]");
                        xpage = [*lo, *hi];
                    }
                    Action::SharedLoad { word, width } => {
                        let _ = writeln!(src, "    mov32 r5, shared{word}");
                        let _ = writeln!(src, "    {} r1, [r5]", width.mnemonic());
                    }
                    Action::CondBranch { a, b, cond, delta } => {
                        let _ = writeln!(src, "    mov   r1, #{a}");
                        let _ = writeln!(src, "    cmp   r1, #{b}");
                        let _ = writeln!(src, "    {}   {p}_skip", cond.mnemonic());
                        let _ = writeln!(src, "    add   r10, r10, #{delta}");
                        let _ = writeln!(src, "{p}_skip:");
                        if !cond.taken(*a, *b) {
                            acc = acc.wrapping_add(*delta);
                        }
                    }
                    Action::SmcPatch { delta } => {
                        let _ = writeln!(src, "    mov32 r5, {p}_patch");
                        let _ = writeln!(src, "    mov32 r6, {p}_donor");
                        let _ = writeln!(src, "    mov   r3, #0");
                        let _ = writeln!(src, "{p}_loop:");
                        let _ = writeln!(src, "{p}_patch:");
                        let _ = writeln!(src, "    add   r10, r10, #1");
                        let _ = writeln!(src, "    add   r3, r3, #1");
                        let _ = writeln!(src, "    cmp   r3, #2");
                        let _ = writeln!(src, "    beq   {p}_done");
                        let _ = writeln!(src, "    ldr   r2, [r6]");
                        let _ = writeln!(src, "    str   r2, [r5]");
                        let _ = writeln!(src, "    b     {p}_loop");
                        let _ = writeln!(src, "{p}_done:");
                        donors.push((p.clone(), *delta));
                        acc = acc.wrapping_add(1).wrapping_add(*delta);
                    }
                    Action::Clrex => {
                        let _ = writeln!(src, "    clrex");
                    }
                    Action::Dmb => {
                        let _ = writeln!(src, "    dmb");
                    }
                    Action::Yield => {
                        let _ = writeln!(src, "    yield");
                    }
                }
            }
            let _ = writeln!(src, "    and   r0, r10, #255");
            let _ = writeln!(src, "    svc   #0");
            // Donor instructions are code-as-data: emitted after the
            // exit so they never execute, read by the SMC patch loop.
            for (p, delta) in &donors {
                let _ = writeln!(src, "{p}_donor:");
                let _ = writeln!(src, "    add   r10, r10, #{delta}");
            }
            // The near-code word shares a page with this thread's code.
            let _ = writeln!(src, "t{t}_near:");
            let _ = writeln!(src, "    .word {}", self.near_init[t]);

            expected_exits.push((acc & 0xff) as i32);
            expected_words.push((format!("t{t}_near"), near));
            for (s, v) in privs.iter().enumerate() {
                expected_words.push((format!("t{t}_priv{s}"), *v));
            }
            expected_words.push((format!("t{t}_xlo"), xpage[0]));
            expected_words.push((format!("t{t}_xhi"), xpage[1]));
        }

        // Shared words: own page, away from all code.
        let _ = writeln!(src, "    .align 4096");
        for w in 0..NSHARED {
            let _ = writeln!(src, "shared{w}:");
            let _ = writeln!(src, "    .word {}", self.shared_init[w]);
        }
        for (w, value) in shared.iter().enumerate() {
            expected_words.push((format!("shared{w}"), *value));
        }
        // Private slots: one page, disjoint from the shared page.
        let _ = writeln!(src, "    .align 4096");
        for t in 0..self.threads as usize {
            for s in 0..NPRIV {
                let _ = writeln!(src, "t{t}_priv{s}:");
                let _ = writeln!(src, "    .word {}", self.priv_init[t][s]);
            }
        }
        // Page-straddling pairs: `xlo` is the last word of a page,
        // `xhi` the first word of the next.
        for t in 0..self.threads as usize {
            let _ = writeln!(src, "    .align 4096");
            let _ = writeln!(src, "    .space 4092");
            let _ = writeln!(src, "t{t}_xlo:");
            let _ = writeln!(src, "    .word {}", self.xpage_init[t][0]);
            let _ = writeln!(src, "t{t}_xhi:");
            let _ = writeln!(src, "    .word {}", self.xpage_init[t][1]);
        }

        FuzzProgram {
            source: src,
            entries,
            expected_exits,
            expected_words,
        }
    }
}

fn draw_action(rng: &mut SplitMix64, smc_used: bool) -> Action {
    // Weights lean toward atomics (the subject under test); SMC is
    // rare and at most one per thread.
    let weights: [u64; 12] = [
        20,                           // Rmw
        14,                           // RmwLoop
        8,                            // AluLoop
        10,                           // PrivateRmw
        6,                            // NearStore
        6,                            // XPageStores
        8,                            // SharedLoad
        8,                            // CondBranch
        if smc_used { 0 } else { 4 }, // SmcPatch
        3,                            // Clrex
        3,                            // Dmb
        2,                            // Yield
    ];
    match rng.weighted(&weights) {
        0 => Action::Rmw {
            word: rng.below(NSHARED as u64) as usize,
            imm: rng.range(1, 4095) as u32,
        },
        1 => Action::RmwLoop {
            word: rng.below(NSHARED as u64) as usize,
            imm: rng.range(1, 4095) as u32,
            iters: rng.range(2, 8) as u32,
        },
        2 => Action::AluLoop {
            delta: rng.range(1, 4095) as u32,
            iters: rng.range(2, 8) as u32,
        },
        3 => Action::PrivateRmw {
            slot: rng.below(NPRIV as u64) as usize,
            imm: rng.range(1, 4095) as u32,
        },
        4 => Action::NearStore {
            value: rng.below(0x1_0000) as u32,
        },
        5 => Action::XPageStores {
            lo: rng.below(4096) as u32,
            hi: rng.below(4096) as u32,
        },
        6 => Action::SharedLoad {
            word: rng.below(NSHARED as u64) as usize,
            width: [LoadWidth::Word, LoadWidth::Half, LoadWidth::Byte][rng.below(3) as usize],
        },
        7 => Action::CondBranch {
            a: rng.below(16) as u32,
            b: rng.below(16) as u32,
            cond: Cond::ALL[rng.below(Cond::ALL.len() as u64) as usize],
            delta: rng.range(1, 4095) as u32,
        },
        8 => Action::SmcPatch {
            delta: rng.range(1, 4095) as u32,
        },
        9 => Action::Clrex,
        10 => Action::Dmb,
        _ => Action::Yield,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt::workloads::IMAGE_BASE;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = ProgramSpec::generate(0xDEAD_BEEF, &cfg);
        let b = ProgramSpec::generate(0xDEAD_BEEF, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.render().source, b.render().source);
        let c = ProgramSpec::generate(0xDEAD_BEF0, &cfg);
        assert_ne!(a.render().source, c.render().source);
    }

    /// Every program over a spread of seeds must assemble, and its
    /// layout promises must hold: `xlo`/`xhi` straddle a page boundary
    /// and the shared words share one code-free page.
    #[test]
    fn generated_programs_assemble_with_the_promised_layout() {
        let cfg = GenConfig::default();
        for seed in 0..24u64 {
            let spec = ProgramSpec::generate(seed, &cfg);
            let prog = spec.render();
            let img = adbt::assemble(&prog.source, IMAGE_BASE)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", prog.source));
            for t in 0..spec.threads as usize {
                let xlo = img.symbol(&format!("t{t}_xlo")).unwrap();
                let xhi = img.symbol(&format!("t{t}_xhi")).unwrap();
                assert_eq!(xlo % 4096, 4092, "seed {seed}: xlo not at page end");
                assert_eq!(xhi, xlo + 4, "seed {seed}: pair not adjacent");
            }
            let s0 = img.symbol("shared0").unwrap();
            assert_eq!(s0 % 4096, 0, "seed {seed}: shared page misaligned");
            assert_eq!(prog.entries.len(), spec.threads as usize);
            assert_eq!(prog.expected_exits.len(), spec.threads as usize);
        }
    }

    /// Dropping an action and re-rendering must still assemble (the
    /// shrinker depends on every subset being well-formed).
    #[test]
    fn any_single_drop_still_assembles() {
        let spec = ProgramSpec::generate(11, &GenConfig::default());
        let flat = spec.flatten();
        assert!(flat.len() > 4, "seed 11 generated a trivial program");
        for skip in 0..flat.len() {
            let mut subset = flat.clone();
            subset.remove(skip);
            let prog = spec.with_actions(&subset).render();
            adbt::assemble(&prog.source, IMAGE_BASE).unwrap_or_else(|e| panic!("drop {skip}: {e}"));
        }
    }

    #[test]
    fn cond_model_matches_mnemonics() {
        assert!(Cond::Eq.taken(3, 3) && !Cond::Eq.taken(3, 4));
        assert!(Cond::Lt.taken(2, 9) && !Cond::Ge.taken(2, 9));
        assert!(Cond::Le.taken(9, 9) && Cond::Gt.taken(10, 9));
    }

    #[test]
    fn rmw_model_is_commutative_per_class() {
        let mut forward = 5u32;
        let mut reverse = 5u32;
        let imms = [3u32, 9, 12, 7];
        for op in RmwOp::ALL {
            for i in imms {
                forward = op.apply(forward, i);
            }
            for i in imms.iter().rev() {
                reverse = op.apply(reverse, *i);
            }
            assert_eq!(forward, reverse, "{op:?} not order-independent");
        }
    }
}
