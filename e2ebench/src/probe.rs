//! A fixed host-speed probe. The benchmark shares its host with other
//! tenants, whose load slows every timing by up to 2× for tens of
//! seconds at a time. Timing the same fixed loop right before each cell
//! measures that slowdown, and scaling the cell's timings by
//! `REFERENCE_MS / probe` takes it out. The probe touches no repository
//! code, so a change to the translator cannot move it.

use std::time::Instant;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns later, to the
/// CPU it is running on now, and returns that CPU (`None` where pinning
/// failed). The benchmark runs one host thread at a time, so this costs
/// no parallelism; it keeps each probe and the cell after it on the same
/// CPU, where the host's CPUs can differ in speed by half for tens of
/// seconds.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly sized `cpu_set_t` for the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Pinning is only implemented on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// The probe's time on an unloaded 2-core host: the speed every scaled
/// timing refers to.
pub const REFERENCE_MS: f64 = 0.83;

/// One probe run: a small interpreter-like dispatch loop over a register
/// file, about 0.5 M operations.
fn probe_once() -> f64 {
    let ops: Vec<u8> = (0..256u32).map(|i| (i * 7 % 5) as u8).collect();
    let mut regs = [1u32; 16];
    let start = Instant::now();
    for round in 0..2000u32 {
        for (i, &op) in ops.iter().enumerate() {
            let r = i & 15;
            match std::hint::black_box(op) {
                0 => regs[r] = regs[r].wrapping_add(regs[(r + 1) & 15]),
                1 => regs[r] ^= regs[(r + 3) & 15].rotate_left(5),
                2 => regs[r] = regs[r].wrapping_mul(0x9e37),
                3 => regs[r] = regs[(r + 7) & 15] >> 3,
                _ => regs[r] = regs[r].wrapping_sub(round),
            }
        }
    }
    std::hint::black_box(regs);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the probe where the next cell will run, and returns the slowest
/// copy's time in milliseconds: on `spawned` freshly spawned threads at
/// once (the cell's vCPU threads land on CPUs the same way), or on the
/// calling thread when `spawned` is 0.
pub fn probe_ms(spawned: u32) -> f64 {
    if spawned == 0 {
        return probe_once();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned).map(|_| scope.spawn(probe_once)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .fold(0.0, f64::max)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn spawned_threads_inherit_the_pin() {
        let Some(cpu) = pin_to_current_cpu() else {
            return;
        };
        // SAFETY: as in `pin_to_current_cpu`.
        let on = std::thread::spawn(|| unsafe { sched_getcpu() })
            .join()
            .unwrap();
        assert_eq!(on, cpu as i32);
    }

    #[test]
    fn probe_takes_time_inline_and_on_spawned_threads() {
        for spawned in 0..=2 {
            let ms = probe_ms(spawned);
            // Sanity bounds only: the probe is about a millisecond.
            assert!(ms > 0.0 && ms < 1000.0, "{spawned}: {ms}");
        }
    }
}
