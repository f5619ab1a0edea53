//! The traced run: the benchmark's own single-host-thread dispatch loop,
//! calling each layer's public entry point directly and recording a span
//! around every call. The engine itself is untouched; its counts come
//! from the untraced run of the same cell.
//!
//! The loop runs a cell's vCPUs round-robin, a quantum of blocks each,
//! keeping its own `pc → Block` map in place of the engine's cache. It
//! has no chaining and no tiering, so its `interp` time is tier-1 block
//! interpretation.

use crate::workload::{final_image, Input};
use adbt::engine::{frontend, interp, ExecCtx, Trap, VcpuOutcome};
use adbt::workloads::IMAGE_BASE;
use adbt::Machine;
use adbt_htm::HtmDomain;
use adbt_ir::opt::{optimize, OptConfig};
use adbt_ir::Block;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The traced layers. `Cell` is the root span of one cell; every other
/// span is its direct child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// A whole traced cell (root).
    Cell,
    /// `ExclusiveBarrier::register`.
    Register,
    /// `ExecCtx::new`.
    CtxNew,
    /// `frontend::translate`.
    Translate,
    /// `adbt_ir::opt::optimize` on a copy of the block's ops.
    Optimize,
    /// `interp::run_block`.
    RunBlock,
}

impl Layer {
    /// Every layer, indexable by `layer as usize`.
    pub const ALL: [Layer; 6] = [
        Layer::Cell,
        Layer::Register,
        Layer::CtxNew,
        Layer::Translate,
        Layer::Optimize,
        Layer::RunBlock,
    ];

    /// The span name.
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Cell => "cell",
            Layer::Register => "exclusive.register",
            Layer::CtxNew => "runtime.exec_ctx_new",
            Layer::Translate => "frontend.translate",
            Layer::Optimize => "ir_opt.optimize",
            Layer::RunBlock => "interp.run_block",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer.
    pub layer: Layer,
    /// The cell id the span belongs to.
    pub cell: u32,
    /// Index of the parent span, `u32::MAX` for a root.
    pub parent: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Child spans kept in memory per run; beyond this only the per-layer
/// totals grow (a kernels sweep makes millions of `run_block` calls).
const MAX_SPANS: usize = 1 << 18;

/// Spans in memory plus exact per-layer totals.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    /// Per layer: total nanoseconds and call count.
    totals: [(u64, u64); 6],
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            totals: [(0, 0); 6],
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for `cell`; roots are always kept.
    fn open_root(&mut self, cell: u32) -> u32 {
        let now = self.now();
        self.spans.push(Span {
            layer: Layer::Cell,
            cell,
            parent: u32::MAX,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    fn close_root(&mut self, root: u32) {
        let now = self.now();
        let span = &mut self.spans[root as usize];
        span.end_ns = now;
        let total = &mut self.totals[Layer::Cell as usize];
        total.0 += now - span.start_ns;
        total.1 += 1;
    }

    /// Runs `f` inside a child span of `root`.
    #[inline]
    fn child<R>(&mut self, layer: Layer, cell: u32, root: u32, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let result = f();
        let end = self.now();
        let total = &mut self.totals[layer as usize];
        total.0 += end - start;
        total.1 += 1;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                layer,
                cell,
                parent: root,
                start_ns: start,
                end_ns: end,
            });
        } else {
            self.dropped += 1;
        }
        result
    }

    /// Total nanoseconds and calls of `layer`.
    pub fn total(&self, layer: Layer) -> (u64, u64) {
        self.totals[layer as usize]
    }

    /// Root time not covered by any child span: the loop's own lookup,
    /// bookkeeping and the clock reads themselves.
    pub fn unattributed_ns(&self) -> u64 {
        let children: u64 = Layer::ALL[1..].iter().map(|&l| self.total(l).0).sum();
        self.total(Layer::Cell).0.saturating_sub(children)
    }

    /// Child spans that only reached the totals.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every kept span as tab-separated
    /// `span cell parent name start_ns end_ns` lines, after one
    /// `# cell <id> <label>` line per cell.
    ///
    /// # Errors
    ///
    /// The I/O error.
    pub fn write(&self, path: &std::path::Path, labels: &[String]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, label) in labels.iter().enumerate() {
            writeln!(out, "# cell {id} {label}")?;
        }
        writeln!(
            out,
            "# {} child spans beyond the first {MAX_SPANS} are in the totals only",
            self.dropped
        )?;
        writeln!(out, "span\tcell\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                u32::MAX => "-".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.cell,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one run of the loop produced.
#[derive(Clone, Debug)]
pub struct LoopRun {
    /// Per-vCPU outcomes, in tid order.
    pub outcomes: Vec<VcpuOutcome>,
    /// Guest instructions retired.
    pub insns: u64,
    /// IR ops executed (block lengths summed over executions).
    pub ir_ops: u64,
    /// Blocks translated.
    pub translated: u64,
    /// IR ops handed to the optimizer.
    pub opt_ops: u64,
    /// Of those, eliminated or rewritten.
    pub opt_eliminated: u64,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// The final guest image.
    pub image: Vec<u32>,
}

/// Blocks one vCPU runs before the loop moves to the next.
const QUANTUM: u32 = 64;
/// Wall time after which a cell that has not finished is livelocked.
const LOOP_LIMIT: Duration = Duration::from_secs(60);

/// Runs `input` on `machine` (already loaded) with `threads` vCPUs on
/// the calling thread. With `TRACE` every layer call is wrapped in a
/// span of `tracer`; without it the loop makes no clock reads, which
/// gives the tracing overhead by comparison.
pub fn run_loop<const TRACE: bool>(
    machine: &Machine,
    input: &Input,
    threads: u32,
    tracer: &mut Tracer,
    cell: u32,
) -> LoopRun {
    let core = machine.core();
    let start = Instant::now();
    let root = if TRACE { tracer.open_root(cell) } else { 0 };
    macro_rules! span {
        ($layer:expr, $body:expr) => {
            if TRACE {
                tracer.child($layer, cell, root, || $body)
            } else {
                $body
            }
        };
    }
    span!(Layer::Register, core.exclusive.register());
    let mut ctxs: Vec<ExecCtx<'_>> = Vec::new();
    for cpu in machine.make_vcpus(threads, IMAGE_BASE) {
        let ctx = span!(Layer::CtxNew, ExecCtx::new(cpu, core, threads));
        ctxs.push(ctx);
    }
    let opt = OptConfig {
        coalesce_htable_marks: core.scheme.coalesce_htable_marks(),
    };
    let mut blocks: HashMap<u32, Block> = HashMap::new();
    let mut outcomes: Vec<Option<VcpuOutcome>> = vec![None; ctxs.len()];
    let (mut ir_ops, mut opt_ops, mut opt_eliminated) = (0u64, 0u64, 0u64);
    let mut live = ctxs.len();
    while live > 0 {
        if start.elapsed() > LOOP_LIMIT {
            for (ctx, outcome) in ctxs.iter().zip(&mut outcomes) {
                outcome.get_or_insert(VcpuOutcome::Livelocked { pc: ctx.cpu.pc });
            }
            break;
        }
        for (ctx, outcome) in ctxs.iter_mut().zip(&mut outcomes) {
            if outcome.is_some() {
                continue;
            }
            for _ in 0..QUANTUM {
                let pc = ctx.cpu.pc;
                let block = match blocks.entry(pc) {
                    Entry::Occupied(cached) => cached.into_mut(),
                    Entry::Vacant(slot) => {
                        // As in the engine: translating inside an open
                        // region transaction poisons it.
                        if let Some(txn) = &mut ctx.txn {
                            txn.poison();
                        }
                        match span!(Layer::Translate, frontend::translate(ctx, pc, &core.scheme)) {
                            Ok(block) => {
                                let mut ops = block.ops.clone();
                                let passes =
                                    span!(Layer::Optimize, optimize(&mut ops, &block.exit, &opt));
                                opt_ops += block.ops.len() as u64;
                                opt_eliminated += passes.total();
                                slot.insert(block)
                            }
                            Err(trap) => {
                                *outcome = Some(trap_outcome(trap));
                                break;
                            }
                        }
                    }
                };
                ir_ops += block.ops.len() as u64;
                // As in the engine: a region transaction spanning
                // dispatches reads the dispatcher's conflict tokens.
                let dispatched = match &mut ctx.txn {
                    Some(txn) => {
                        ctx.stats.txn_dispatches += 1;
                        (0..8)
                            .try_for_each(|slot| txn.observe(HtmDomain::engine_token(slot)))
                            .map_err(Trap::HtmAbort)
                    }
                    None => Ok(()),
                };
                let result = match dispatched {
                    Ok(()) => span!(Layer::RunBlock, interp::run_block(ctx, block)),
                    Err(trap) => Err(trap),
                };
                match result {
                    Ok(next) => ctx.cpu.pc = next,
                    // A region transaction aborted: roll back to its LL,
                    // as the engine's dispatch loop does.
                    Err(Trap::HtmAbort(reason)) => {
                        ctx.stats.htm_aborts += 1;
                        ctx.txn = None;
                        match ctx.txn_restart.take() {
                            Some((restart_pc, snapshot)) => {
                                ctx.cpu.restore(&snapshot);
                                ctx.cpu.pc = restart_pc;
                            }
                            None => {
                                *outcome = Some(VcpuOutcome::Crashed(Trap::HtmAbort(reason)));
                                break;
                            }
                        }
                    }
                    Err(trap) => {
                        *outcome = Some(trap_outcome(trap));
                        break;
                    }
                }
            }
            if outcome.is_some() {
                ctx.release_region();
                live -= 1;
            }
        }
    }
    core.exclusive.unregister();
    if TRACE {
        tracer.close_root(root);
    }
    let wall = start.elapsed();
    LoopRun {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every vCPU finished"))
            .collect(),
        insns: ctxs.iter().map(|c| c.stats.insns).sum(),
        ir_ops,
        translated: blocks.len() as u64,
        opt_ops,
        opt_eliminated,
        wall,
        image: final_image(&input.image, machine),
    }
}

fn trap_outcome(trap: Trap) -> VcpuOutcome {
    match trap {
        Trap::Exit(code) => VcpuOutcome::Exited(code),
        Trap::Livelock { pc, .. } => VcpuOutcome::Livelocked { pc },
        other => VcpuOutcome::Crashed(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{inputs, load, run_cell, Workload};
    use adbt::SchemeKind;

    #[test]
    fn traced_loop_reproduces_the_untraced_run() {
        for workload in [Workload::Kernels1v, Workload::BigCode] {
            let inputs = inputs(workload, 9).unwrap();
            let input = &inputs[0];
            for scheme in [SchemeKind::Hst, SchemeKind::Pst, SchemeKind::PicoHtm] {
                let reference = run_cell(workload, input, scheme).unwrap();
                assert!(reference.valid);
                let mut tracer = Tracer::default();
                let loaded = load(input, scheme).unwrap();
                let run =
                    run_loop::<true>(&loaded.machine, input, workload.threads(), &mut tracer, 0);
                assert_eq!(run.outcomes, reference.report.outcomes, "{scheme}");
                assert_eq!(run.image, reference.image, "{scheme}");
                if workload.threads() == 1 {
                    assert_eq!(run.insns, reference.report.stats.insns, "{scheme}");
                }
                // Spans close: children lie inside the root, and the
                // layers never account for more than the root.
                let root = tracer.spans[0];
                assert_eq!(root.layer, Layer::Cell);
                assert!(tracer.spans[1..].iter().all(|s| s.parent == 0
                    && s.start_ns >= root.start_ns
                    && s.end_ns <= root.end_ns));
                assert!(tracer.total(Layer::RunBlock).1 > 0);
                assert!(tracer.unattributed_ns() < tracer.total(Layer::Cell).0);
            }
        }
    }

    #[test]
    fn untraced_loop_records_nothing() {
        let inputs = inputs(Workload::Kernels1v, 0).unwrap();
        let loaded = load(&inputs[0], SchemeKind::HstWeak).unwrap();
        let mut tracer = Tracer::default();
        let run = run_loop::<false>(&loaded.machine, &inputs[0], 1, &mut tracer, 0);
        assert!(run.outcomes.iter().all(VcpuOutcome::is_success));
        assert!(tracer.spans.is_empty());
        assert_eq!(tracer.total(Layer::RunBlock), (0, 0));
    }
}
