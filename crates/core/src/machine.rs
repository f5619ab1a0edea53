//! The user-facing machine wrapper.

use crate::Error;
use adbt_engine::{ChaosCfg, MachineConfig, MachineCore, RunReport, Scheduler, Vcpu};

use adbt_isa::asm::{assemble, Image};
use adbt_mmu::Width;
use adbt_schemes::SchemeKind;

/// Builds a [`Machine`] for one atomic-emulation scheme.
///
/// # Example
///
/// ```
/// use adbt::{MachineBuilder, SchemeKind};
///
/// let machine = MachineBuilder::new(SchemeKind::HstWeak)
///     .memory(8 << 20)
///     .build()
///     .unwrap();
/// assert_eq!(machine.scheme(), SchemeKind::HstWeak);
/// ```
#[derive(Clone, Debug)]
pub struct MachineBuilder {
    kind: SchemeKind,
    config: MachineConfig,
}

impl MachineBuilder {
    /// Starts a builder for the given scheme with default configuration
    /// (32 MiB guest memory, 32-instruction translation blocks).
    pub fn new(kind: SchemeKind) -> MachineBuilder {
        MachineBuilder {
            kind,
            config: MachineConfig::default(),
        }
    }

    /// Sets the guest physical memory size in bytes (page-aligned).
    pub fn memory(mut self, bytes: u32) -> MachineBuilder {
        self.config.mem_size = bytes;
        self
    }

    /// Caps translated blocks at `n` guest instructions. Use `1` for
    /// deterministic runs needing instruction-granular interleaving
    /// (litmus lockstep, checker exploration, `--replay`).
    pub fn max_block_insns(mut self, n: u32) -> MachineBuilder {
        self.config.max_block_insns = n;
        self
    }

    /// Enables the rule-based translation pass (paper §VI): canonical
    /// LL/SC retry loops are fused into single host atomics, bypassing
    /// the scheme for those loops.
    pub fn fuse_atomics(mut self, on: bool) -> MachineBuilder {
        self.config.fuse_atomics = on;
        self
    }

    /// Caps how many blocks a threaded vCPU executes per dispatch while
    /// following chain links (`1` disables chaining; the deterministic
    /// driver always dispatches single blocks regardless).
    pub fn chain_limit(mut self, n: u32) -> MachineBuilder {
        self.config.chain_limit = n.max(1);
        self
    }

    /// Inert: sets [`MachineConfig::tier_threshold`], which the engine
    /// does not read. Kept only because the frozen `e2ebench/` calls
    /// it; it goes at the next change to the benchmark.
    pub fn tier_threshold(mut self, n: u32) -> MachineBuilder {
        self.config.tier_threshold = n;
        self
    }

    /// Enables deterministic chaos injection (fault injection at every
    /// scheme/engine failure edge, replayable from the seed). `None`
    /// keeps the zero-overhead default.
    pub fn chaos(mut self, cfg: Option<ChaosCfg>) -> MachineBuilder {
        self.config.chaos = cfg;
        self
    }

    /// Arms the liveness watchdog: if no live vCPU makes progress for
    /// `ms` milliseconds, the run halts with a diagnostic dump and
    /// `Livelocked` outcomes instead of hanging. `0` disables. Like
    /// `chaos`, it arms the degradation ladder's held window for storming
    /// retry loops in threaded runs ([`MachineConfig::watchdog_ms`]).
    pub fn watchdog_ms(mut self, ms: u64) -> MachineBuilder {
        self.config.watchdog_ms = ms;
        self
    }

    /// Bounds the translation cache to `bytes` (0 = unlimited). Under
    /// pressure the engine flushes generationally — oldest translations
    /// first — and retranslates on demand, so the
    /// working set stays under the budget at the cost of retranslation.
    /// Rejected at build time when below one arena segment
    /// ([`MachineCore::MIN_CACHE_LIMIT`]).
    pub fn cache_limit(mut self, bytes: u64) -> MachineBuilder {
        self.config.cache_limit = bytes;
        self
    }

    /// Enables the flight recorder: per-vCPU event rings plus latency
    /// histograms, exportable as Chrome trace-event JSON after the run.
    /// `false` keeps the zero-overhead default (one predicted branch per
    /// trace site).
    pub fn trace(mut self, on: bool) -> MachineBuilder {
        self.config.trace = on;
        self
    }

    /// Enables the guest-PC contention profiler: per-vCPU fixed-size
    /// profiles splitting the counter rows flagged `pc` by the guest
    /// address that incurred them. `false` keeps the zero-overhead
    /// default (one predicted branch per counted event, same discipline
    /// as `trace`).
    pub fn profile(mut self, on: bool) -> MachineBuilder {
        self.config.profile = on;
        self
    }

    /// Overrides the full engine configuration.
    pub fn config(mut self, config: MachineConfig) -> MachineBuilder {
        self.config = config;
        self
    }

    /// Constructs the machine.
    ///
    /// # Errors
    ///
    /// [`Error::Machine`] for invalid configuration.
    pub fn build(self) -> Result<Machine, Error> {
        let core = MachineCore::new(self.config, self.kind.build()).map_err(Error::Machine)?;
        Ok(Machine {
            core,
            kind: self.kind,
            image: None,
        })
    }
}

/// A guest machine bound to one scheme, with a loaded program image.
pub struct Machine {
    core: MachineCore,
    kind: SchemeKind,
    image: Option<Image>,
}

impl Machine {
    /// The scheme this machine runs.
    pub fn scheme(&self) -> SchemeKind {
        self.kind
    }

    /// The underlying engine machine (memory, stats services, …).
    pub fn core(&self) -> &MachineCore {
        &self.core
    }

    /// Assembles `source` at `base` and loads it into guest memory.
    ///
    /// # Errors
    ///
    /// [`Error::Asm`] on assembly failure, and [`Error::Load`] as
    /// [`load_image`](Self::load_image) returns it.
    pub fn load_asm(&mut self, source: &str, base: u32) -> Result<&Image, Error> {
        // An unaligned base is refused before the assembler trips over
        // the unaligned branch targets it makes.
        self.check_load(base, 0)?;
        let image = assemble(source, base)?;
        self.load_image(image)
    }

    /// Loads a pre-assembled image.
    ///
    /// # Errors
    ///
    /// [`Error::Load`], with nothing written, when the image's base is
    /// not word-aligned (every instruction fetch would be unaligned) or
    /// the image does not fit in guest memory.
    pub fn load_image(&mut self, image: Image) -> Result<&Image, Error> {
        self.check_load(image.base, image.bytes.len())?;
        self.core.load_image(&image);
        self.image = Some(image);
        Ok(self.image.as_ref().expect("just set"))
    }

    /// Whether `len` bytes can be loaded at `base`.
    fn check_load(&self, base: u32, len: usize) -> Result<(), Error> {
        if !base.is_multiple_of(4) {
            return Err(Error::Load(format!(
                "base {base:#x} is not a multiple of 4"
            )));
        }
        let end = u64::from(base) + len as u64;
        let mem = self.core.space.mem().size();
        if end > u64::from(mem) {
            return Err(Error::Load(format!(
                "[{base:#x}, {end:#x}) does not fit in {mem:#x} bytes of guest memory"
            )));
        }
        Ok(())
    }

    /// The loaded image, if any.
    pub fn image(&self) -> Option<&Image> {
        self.image.as_ref()
    }

    /// Looks up a symbol in the loaded image.
    ///
    /// # Errors
    ///
    /// [`Error::NoImage`] / [`Error::MissingSymbol`].
    pub fn symbol(&self, name: &str) -> Result<u32, Error> {
        self.image
            .as_ref()
            .ok_or(Error::NoImage)?
            .symbol(name)
            .ok_or_else(|| Error::MissingSymbol(name.to_string()))
    }

    /// Runs `threads` vCPUs from `entry` on real OS threads.
    pub fn run(&self, threads: u32, entry: u32) -> RunReport {
        self.core.run_threaded(self.core.make_vcpus(threads, entry))
    }

    /// Runs pre-built vCPUs on real OS threads (per-thread entry points).
    pub fn run_vcpus(&self, vcpus: Vec<Vcpu>) -> RunReport {
        self.core.run_threaded(vcpus)
    }

    /// Runs pre-built vCPUs deterministically on the calling thread, one
    /// atom at a time under `sched` — lockstep with
    /// [`adbt_engine::RoundRobin`], the mode `adbt_check` enumerates
    /// interleavings with, and what `adbt_run --replay` replays (see
    /// [`MachineCore::run_scheduled`]).
    pub fn run_scheduled<S: Scheduler + ?Sized>(
        &self,
        vcpus: Vec<Vcpu>,
        sched: &mut S,
        max_atoms: u64,
    ) -> RunReport {
        self.core.run_scheduled(vcpus, sched, max_atoms)
    }

    /// Runs `threads` vCPUs from `entry` on the simulated multicore with
    /// the default cost model (see [`adbt_engine::SimCosts`]).
    pub fn run_sim(&self, threads: u32, entry: u32) -> RunReport {
        self.core.run_sim(
            self.core.make_vcpus(threads, entry),
            &adbt_engine::SimCosts::default(),
        )
    }

    /// Builds vCPUs with the standard launch ABI (see
    /// [`MachineCore::make_vcpus`]).
    pub fn make_vcpus(&self, threads: u32, entry: u32) -> Vec<Vcpu> {
        self.core.make_vcpus(threads, entry)
    }

    /// Reads a guest word (host-side verification).
    ///
    /// # Errors
    ///
    /// [`Error::Memory`] for invalid addresses.
    pub fn read_word(&self, vaddr: u32) -> Result<u32, Error> {
        Ok(self.core.space.load(vaddr, Width::Word)?)
    }

    /// Writes a guest word (host-side setup).
    ///
    /// # Errors
    ///
    /// [`Error::Memory`] for invalid addresses.
    pub fn write_word(&self, vaddr: u32, value: u32) -> Result<(), Error> {
        Ok(self.core.space.store(vaddr, Width::Word, value)?)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("scheme", &self.kind)
            .field("image_loaded", &self.image.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_symbols() {
        let mut machine = MachineBuilder::new(SchemeKind::PicoCas)
            .memory(1 << 20)
            .build()
            .unwrap();
        assert!(machine.symbol("x").is_err());
        machine
            .load_asm("mov r0, #0\nsvc #0\nx: .word 5\n", 0x1000)
            .unwrap();
        let x = machine.symbol("x").unwrap();
        assert_eq!(machine.read_word(x).unwrap(), 5);
        machine.write_word(x, 9).unwrap();
        assert_eq!(machine.read_word(x).unwrap(), 9);
        assert!(matches!(machine.symbol("y"), Err(Error::MissingSymbol(_))));
    }

    #[test]
    fn run_executes_program() {
        let mut machine = MachineBuilder::new(SchemeKind::Hst).build().unwrap();
        machine.load_asm("mov r0, #7\nsvc #0\n", 0x1000).unwrap();
        let report = machine.run(2, 0x1000);
        assert!(report
            .outcomes
            .iter()
            .all(|o| *o == adbt_engine::VcpuOutcome::Exited(7)));
    }

    /// Loads a two-instruction image assembled at `base` into 1 MiB of
    /// guest memory: `load_image` checks it as `load_asm` checks its
    /// own, and a rejected image leaves nothing loaded.
    fn load_two_insns_at(base: u32) -> Result<(), Error> {
        let mut machine = MachineBuilder::new(SchemeKind::Hst)
            .memory(1 << 20)
            .build()?;
        let image = assemble("mov r0, #0\nsvc #0\n", base)?;
        let loaded = machine.load_image(image).map(|_| ());
        assert_eq!(machine.image().is_some(), loaded.is_ok());
        loaded
    }

    #[test]
    fn load_image_rejects_an_unaligned_base() {
        let why = "base 0x1002 is not a multiple of 4";
        assert_eq!(load_two_insns_at(0x1002), Err(Error::Load(why.into())));
    }

    #[test]
    fn load_image_rejects_an_image_beyond_guest_memory() {
        let why = "[0xffffc, 0x100004) does not fit in 0x100000 bytes of guest memory";
        assert_eq!(load_two_insns_at(0xf_fffc), Err(Error::Load(why.into())));
        assert_eq!(load_two_insns_at(0xf_fff8), Ok(()));
    }

    #[test]
    fn bad_memory_config_errors() {
        assert!(MachineBuilder::new(SchemeKind::Hst)
            .memory(123)
            .build()
            .is_err());
    }
}
