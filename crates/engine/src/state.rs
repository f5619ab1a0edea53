//! Per-vCPU architectural state.

use adbt_ir::REG_SLOTS;

/// The guest NZCV condition flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Carry (NOT-borrow for subtraction, as on ARM).
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Flags {
    /// Evaluates a condition code against these flags.
    pub fn holds(&self, cond: adbt_isa::Cond) -> bool {
        cond.holds(self.n, self.z, self.c, self.v)
    }
}

/// The local-monitor record kept by LL/SC emulation schemes.
///
/// Mirrors QEMU's `exclusive_addr`/`exclusive_val` CPU-state fields: the
/// PICO-CAS lowering records the loaded value here and compares it at SC
/// time (the value comparison that admits ABA); other schemes use the
/// address to key the store-test structures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Monitor {
    /// The armed address, or `None` after `clrex`/a completed SC.
    pub addr: Option<u32>,
    /// The value observed by the arming LL.
    pub value: u32,
}

/// One virtual CPU's architectural state.
///
/// `r13..=r15` are sp/lr/pc by ABI convention, but the executor keeps
/// the *live* program counter in [`Vcpu::pc`]; `r15` is not read or
/// written by translated code (direct branches resolve at translation
/// time, indirect branches through `bx`).
#[derive(Clone, Debug)]
pub struct Vcpu {
    /// The slot file translated code reads and writes: registers
    /// `r0..=r15` at indices `0..REG_SLOTS`, then the running block's
    /// temps (grown by the executor to fit each block).
    pub(crate) slots: Vec<u32>,
    /// The live program counter.
    pub pc: u32,
    /// Condition flags.
    pub flags: Flags,
    /// This vCPU's thread id, `1`-based (`0` means "no owner" in the
    /// store-test hash table).
    pub tid: u32,
    /// The LL/SC local monitor.
    pub monitor: Monitor,
    /// Exit code once the vCPU has executed the exit syscall.
    pub exit_code: Option<i32>,
}

impl Vcpu {
    /// Creates a vCPU with the given 1-based thread id, all registers
    /// zero and the PC at `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is zero (zero is the store-test table's "vacant"
    /// marker).
    pub fn new(tid: u32, entry: u32) -> Vcpu {
        assert!(tid != 0, "vCPU thread ids are 1-based");
        Vcpu {
            slots: vec![0; REG_SLOTS],
            pc: entry,
            flags: Flags::default(),
            tid,
            monitor: Monitor::default(),
            exit_code: None,
        }
    }

    /// Reads a register by index (0..=15).
    #[inline]
    pub fn reg(&self, index: u8) -> u32 {
        self.slots[..REG_SLOTS][index as usize]
    }

    /// Writes a register by index (0..=15).
    #[inline]
    pub fn set_reg(&mut self, index: u8, value: u32) {
        self.slots[..REG_SLOTS][index as usize] = value;
    }

    /// A register/flag snapshot for HTM rollback (RTM aborts restore the
    /// full register state to the `xbegin` point).
    pub fn snapshot(&self) -> VcpuSnapshot {
        VcpuSnapshot {
            regs: self.slots[..REG_SLOTS]
                .try_into()
                .expect("the slot file starts with the registers"),
            pc: self.pc,
            flags: self.flags,
            monitor: self.monitor,
        }
    }

    /// Restores a snapshot taken by [`Vcpu::snapshot`].
    pub fn restore(&mut self, snap: &VcpuSnapshot) {
        self.slots[..REG_SLOTS].copy_from_slice(&snap.regs);
        self.pc = snap.pc;
        self.flags = snap.flags;
        self.monitor = snap.monitor;
    }
}

/// A register-file snapshot used to roll back aborted HTM transactions.
#[derive(Clone, Copy, Debug)]
pub struct VcpuSnapshot {
    regs: [u32; REG_SLOTS],
    pc: u32,
    flags: Flags,
    monitor: Monitor,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips() {
        let mut cpu = Vcpu::new(1, 0x1000);
        cpu.set_reg(0, 42);
        cpu.flags.z = true;
        cpu.monitor.addr = Some(0x80);
        let snap = cpu.snapshot();
        cpu.set_reg(0, 0);
        cpu.pc = 0;
        cpu.flags.z = false;
        cpu.monitor.addr = None;
        cpu.restore(&snap);
        assert_eq!(cpu.reg(0), 42);
        assert_eq!(cpu.pc, 0x1000);
        assert!(cpu.flags.z);
        assert_eq!(cpu.monitor.addr, Some(0x80));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn tid_zero_rejected() {
        let _ = Vcpu::new(0, 0);
    }

    #[test]
    fn cond_evaluation_uses_flags() {
        let mut cpu = Vcpu::new(1, 0);
        cpu.flags = Flags {
            n: true,
            z: false,
            c: false,
            v: true,
        };
        assert!(cpu.flags.holds(adbt_isa::Cond::Ge)); // n == v
        assert!(!cpu.flags.holds(adbt_isa::Cond::Eq));
    }
}
