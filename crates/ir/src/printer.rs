//! A human-readable block printer for debugging translated code.

use crate::{Block, BlockExit, Op};
use std::fmt::Write as _;

/// Renders a block as indented text, one op per line.
///
/// # Example
///
/// ```
/// use adbt_ir::{print_block, BlockBuilder, BlockExit, Op, Src, Slot};
///
/// let mut b = BlockBuilder::new(0x1000);
/// b.push(Op::Mov { dst: Slot::Reg(0), src: Src::Imm(1), set_flags: false });
/// let text = print_block(&b.finish(BlockExit::Jump(0x1004), 1));
/// assert!(text.contains("block @0x00001000"));
/// assert!(text.contains("mov r0, #0x1"));
/// ```
pub fn print_block(block: &Block) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "block @{:#010x} ({} guest insns, {} temps)",
        block.guest_pc, block.guest_len, block.temps
    );
    for op in &block.ops {
        let _ = writeln!(out, "  {}", print_op(op));
    }
    let _ = match &block.exit {
        BlockExit::Jump(target) => writeln!(out, "  -> jump {target:#x}"),
        BlockExit::CondJump {
            cond,
            taken,
            fallthrough,
        } => writeln!(
            out,
            "  -> if {cond:?} jump {taken:#x} else {fallthrough:#x}"
        ),
        BlockExit::Indirect { target } => writeln!(out, "  -> jump [{target}]"),
        BlockExit::Svc { num, ret_addr } => {
            writeln!(out, "  -> svc #{num}, return {ret_addr:#x}")
        }
        BlockExit::Undefined { addr, info } => {
            writeln!(out, "  -> undefined @{addr:#x} (info {info:#x})")
        }
    };
    out
}

fn print_op(op: &Op) -> String {
    match op {
        Op::Mov {
            dst,
            src,
            set_flags,
        } => {
            format!("mov{} {dst}, {src}", if *set_flags { "s" } else { "" })
        }
        Op::MovNot {
            dst,
            src,
            set_flags,
        } => {
            format!("mvn{} {dst}, {src}", if *set_flags { "s" } else { "" })
        }
        Op::Alu {
            op,
            dst,
            a,
            b,
            set_flags,
        } => {
            let s = if *set_flags { "s" } else { "" };
            match dst {
                Some(dst) => format!("{}{s} {dst}, {a}, {b}", op.mnemonic()),
                None => format!("{}{s} (discard), {a}, {b}", op.mnemonic()),
            }
        }
        Op::InsertHigh { dst, imm } => format!("movt {dst}, #{imm:#x}"),
        Op::Load { dst, addr, width } => format!("ld{:?} {dst}, [{addr}]", width),
        Op::Store {
            src,
            addr,
            width,
            guest_store,
        } => format!(
            "st{:?}{} {src}, [{addr}]",
            width,
            if *guest_store { "" } else { ".internal" }
        ),
        Op::CasWord {
            dst,
            addr,
            expected,
            new,
        } => format!("cas {dst}, [{addr}], {expected} -> {new}"),
        Op::Fence => "fence".to_string(),
        Op::HtableSet { addr } => format!("htable_set [{addr}]"),
        Op::Helper { id, args, ret } => {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            match ret {
                Some(ret) => format!("{ret} = {id}({})", args.join(", ")),
                None => format!("{id}({})", args.join(", ")),
            }
        }
        Op::Yield => "yield".to_string(),
        Op::Window => "window".to_string(),
        Op::MonitorArm { dst, addr } => format!("monitor_arm {dst}, [{addr}]"),
        Op::MonitorScCas { dst, addr, new } => {
            format!("monitor_sc_cas {dst}, [{addr}], {new}")
        }
        Op::MonitorClear => "monitor_clear".to_string(),
        Op::AtomicRmw {
            dst,
            op,
            addr,
            operand,
        } => format!("atomic_{op:?} {dst}, [{addr}], {operand}").to_lowercase(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, BlockBuilder, Slot, Src, Width};

    #[test]
    fn prints_every_op_kind() {
        let mut b = BlockBuilder::new(0);
        let t = b.temp();
        b.push(Op::Mov {
            dst: t,
            src: Src::Imm(1),
            set_flags: true,
        });
        b.push(Op::MovNot {
            dst: t,
            src: Src::Imm(1),
            set_flags: false,
        });
        b.push(Op::Alu {
            op: AluOp::Add,
            dst: Some(Slot::Reg(1)),
            a: t.into(),
            b: Src::Imm(2),
            set_flags: false,
        });
        b.push(Op::Alu {
            op: AluOp::Sub,
            dst: None,
            a: t.into(),
            b: Src::Imm(2),
            set_flags: true,
        });
        b.push(Op::InsertHigh { dst: t, imm: 0xff });
        b.push(Op::Load {
            dst: t,
            addr: Src::Slot(Slot::Reg(0)),
            width: Width::Word,
        });
        b.push(Op::Store {
            src: t.into(),
            addr: Src::Slot(Slot::Reg(0)),
            width: Width::Byte,
            guest_store: false,
        });
        b.push(Op::CasWord {
            dst: t,
            addr: Src::Slot(Slot::Reg(0)),
            expected: Src::Imm(0),
            new: Src::Imm(1),
        });
        b.push(Op::Fence);
        b.push(Op::HtableSet {
            addr: Src::Slot(Slot::Reg(0)),
        });
        b.push(Op::Helper {
            id: crate::HelperId(1),
            args: vec![t.into()],
            ret: Some(t),
        });
        b.push(Op::Yield);
        b.push(Op::Window);
        let text = print_block(&b.finish(BlockExit::Jump(4), 12));
        for needle in [
            "movs t0",
            "mvn t0",
            "add r1",
            "subs (discard)",
            "movt t0",
            "ldWord",
            "stByte.internal",
            "cas t0",
            "fence",
            "htable_set",
            "helper#1(t0)",
            "yield",
            "window",
            "-> jump 0x4",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
