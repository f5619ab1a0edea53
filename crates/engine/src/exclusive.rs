//! QEMU-style stop-the-world exclusive sections.
//!
//! This reimplements the `start_exclusive`/`end_exclusive` mechanism from
//! QEMU's `cpus-common.c`, which the paper's HST and PST schemes use to
//! make SC emulation atomic with respect to every other vCPU: the
//! requester waits until all other registered vCPUs are *parked* at a
//! safepoint (translated-block boundary), runs its critical work alone,
//! and then releases everyone.
//!
//! The cost of this mechanism — requester wait plus everyone else's
//! parked time — is the "exclusive" bucket of the paper's Fig. 12
//! breakdown, so both sides are measured and accumulated into
//! [`crate::VcpuStats::exclusive_ns`].

use adbt_sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Instant;

/// `holder` value when no exclusive section names an owner (plain
/// `start_exclusive`, or no section at all). Real tids are 1-based.
const NO_HOLDER: u32 = 0;

/// Error returned by [`ExclusiveBarrier::start_exclusive`] when
/// [`ExclusiveBarrier::halt`] fires before (or while) exclusivity is
/// granted. A halted machine grants no exclusivity: the requester must
/// abandon guest execution, not run its critical section against a
/// world that is no longer stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Halted;

#[derive(Debug, Default)]
struct Inner {
    /// Number of vCPUs currently running (registered and not parked).
    running: usize,
    /// Whether an exclusive section is in progress or being requested.
    exclusive_active: bool,
}

/// The shared exclusive-section barrier; one per machine.
#[derive(Debug, Default)]
pub struct ExclusiveBarrier {
    inner: Mutex<Inner>,
    cond: Condvar,
    /// Fast-path flag mirroring `exclusive_active`, checked lock-free at
    /// every safepoint.
    pending: AtomicBool,
    /// The tid owning the current exclusive section, when entered via
    /// [`ExclusiveBarrier::start_exclusive_as`]; the owner's own
    /// safepoints then pass through (a section spanning block dispatches
    /// must not park its holder).
    holder: AtomicU32,
    /// Watchdog teardown: when set, every wait loop exits so wedged
    /// threads drain instead of hanging.
    halted: AtomicBool,
}

impl ExclusiveBarrier {
    /// Creates a barrier with no registered vCPUs.
    pub fn new() -> ExclusiveBarrier {
        ExclusiveBarrier::default()
    }

    /// Registers the calling vCPU thread as running. Must be paired with
    /// [`ExclusiveBarrier::unregister`].
    pub fn register(&self) {
        let mut inner = self.inner.lock();
        // A newly arriving vCPU may not start running mid-exclusive.
        while inner.exclusive_active && !self.halted() {
            self.cond.wait(&mut inner);
        }
        inner.running += 1;
    }

    /// Unregisters the calling vCPU (at guest exit or fatal trap), waking
    /// any exclusive requester that was waiting on it.
    pub fn unregister(&self) {
        let mut inner = self.inner.lock();
        inner.running -= 1;
        self.cond.notify_all();
    }

    /// Enters an exclusive section: waits until every other registered
    /// vCPU is parked, then returns with exclusivity held. Returns the
    /// nanoseconds spent waiting (the requester side of the "exclusive"
    /// profile bucket), or [`Halted`] if [`ExclusiveBarrier::halt`]
    /// fired — in which case the section was **not** entered and the
    /// caller must not run its critical work.
    ///
    /// Concurrent requesters serialize; while waiting for another
    /// requester, the caller counts as parked so the two cannot deadlock.
    #[must_use = "add the returned wait time to VcpuStats::exclusive_ns"]
    pub fn start_exclusive(&self) -> Result<u64, Halted> {
        let start = Instant::now();
        let mut inner = self.inner.lock();
        while inner.exclusive_active && !self.halted() {
            // Park while another exclusive section runs.
            inner.running -= 1;
            self.cond.notify_all();
            self.cond.wait(&mut inner);
            inner.running += 1;
        }
        // A requester woken from the park above by `halt()` must observe
        // the halt *before* claiming the section: the previous holder may
        // still be mid-critical-work (wedged), and the watchdog already
        // declared the stop-the-world protocol dead.
        if self.halted() {
            return Err(Halted);
        }
        inner.exclusive_active = true;
        self.pending.store(true, Ordering::SeqCst);
        while inner.running > 1 && !self.halted() {
            self.cond.wait(&mut inner);
        }
        if self.halted() {
            // Claimed, but the world never finished stopping. Undo the
            // claim so late safepoint checks and `end_exclusive` debug
            // assertions see a consistent barrier, then report failure.
            inner.exclusive_active = false;
            self.pending.store(false, Ordering::SeqCst);
            self.cond.notify_all();
            return Err(Halted);
        }
        Ok(start.elapsed().as_nanos() as u64)
    }

    /// Like [`ExclusiveBarrier::start_exclusive`], but records `tid` as the
    /// section's holder so that the holder's own safepoints
    /// ([`ExclusiveBarrier::safepoint_for`]) pass through. Required when an
    /// exclusive section spans block dispatches (the degradation ladder's
    /// held window): the holder crosses its own safepoint while the
    /// section is active.
    #[must_use = "add the returned wait time to VcpuStats::exclusive_ns"]
    pub fn start_exclusive_as(&self, tid: u32) -> Result<u64, Halted> {
        let waited = self.start_exclusive()?;
        self.holder.store(tid, Ordering::SeqCst);
        Ok(waited)
    }

    /// Leaves the exclusive section entered by
    /// [`ExclusiveBarrier::start_exclusive`], resuming all parked vCPUs.
    pub fn end_exclusive(&self) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.exclusive_active || self.halted());
        self.holder.store(NO_HOLDER, Ordering::SeqCst);
        inner.exclusive_active = false;
        self.pending.store(false, Ordering::SeqCst);
        self.cond.notify_all();
    }

    /// The safepoint polled at every block boundary: parks the caller for
    /// the duration of any pending exclusive section. Returns the
    /// nanoseconds spent parked (zero on the overwhelmingly common fast
    /// path, which is a single atomic load).
    #[inline]
    #[must_use = "add the returned park time to VcpuStats::exclusive_ns"]
    pub fn safepoint(&self) -> u64 {
        if !self.pending.load(Ordering::SeqCst) {
            return 0;
        }
        self.park_slow()
    }

    /// Holder-aware safepoint: behaves like
    /// [`ExclusiveBarrier::safepoint`], except that when `tid` itself owns
    /// the active exclusive section (entered via
    /// [`ExclusiveBarrier::start_exclusive_as`]) the call is a no-op —
    /// the holder must not park at its own safepoint.
    #[inline]
    #[must_use = "add the returned park time to VcpuStats::exclusive_ns"]
    pub fn safepoint_for(&self, tid: u32) -> u64 {
        if !self.pending.load(Ordering::SeqCst) {
            return 0;
        }
        if self.holder.load(Ordering::SeqCst) == tid {
            return 0;
        }
        self.park_slow()
    }

    #[cold]
    fn park_slow(&self) -> u64 {
        let start = Instant::now();
        let mut inner = self.inner.lock();
        while inner.exclusive_active && !self.halted() {
            inner.running -= 1;
            self.cond.notify_all();
            self.cond.wait(&mut inner);
            inner.running += 1;
        }
        start.elapsed().as_nanos() as u64
    }

    /// Whether an exclusive section is pending or active: the dispatch
    /// loop's safepoint poll (one atomic load), also used by tests and
    /// by handlers that must avoid blocking across safepoints.
    #[inline]
    pub fn exclusive_pending(&self) -> bool {
        self.pending.load(Ordering::SeqCst)
    }

    /// Watchdog teardown: releases every wait loop in the barrier so
    /// stalled vCPU threads drain and exit instead of hanging forever.
    /// After `halt()`, exclusivity guarantees no longer hold — callers
    /// are expected to abandon guest execution and report failure.
    pub fn halt(&self) {
        self.halted.store(true, Ordering::SeqCst);
        let _inner = self.inner.lock();
        self.cond.notify_all();
    }

    /// Clears a previous [`ExclusiveBarrier::halt`], restoring normal
    /// blocking behaviour (used by tests that reuse a barrier).
    pub fn reset_halt(&self) {
        self.halted.store(false, Ordering::SeqCst);
    }

    /// Whether [`ExclusiveBarrier::halt`] has fired.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_enters_immediately() {
        let b = ExclusiveBarrier::new();
        b.register();
        let waited = b.start_exclusive().unwrap();
        b.end_exclusive();
        b.unregister();
        assert!(waited < 1_000_000_000);
    }

    /// An exclusive section must be atomic with respect to work done
    /// between safepoints by other threads.
    #[test]
    fn exclusive_section_excludes_other_workers() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        let counter = Arc::new(AtomicU64::new(0));
        const WORKERS: usize = 4;
        const EXCLUSIVE_ROUNDS: usize = 200;

        let mut handles = Vec::new();
        for _ in 0..WORKERS {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                barrier.register();
                for _ in 0..20_000 {
                    let _ = barrier.safepoint();
                    // Non-atomic read-modify-write "guest work"; only safe
                    // if exclusive sections truly stop the world.
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                barrier.unregister();
            }));
        }

        let observer = {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                barrier.register();
                let mut stable_reads = 0;
                for _ in 0..EXCLUSIVE_ROUNDS {
                    let _ = barrier.safepoint();
                    let _ = barrier.start_exclusive().unwrap();
                    // While exclusive, the counter must not move.
                    let before = counter.load(Ordering::Relaxed);
                    for _ in 0..50 {
                        std::hint::spin_loop();
                    }
                    let after = counter.load(Ordering::Relaxed);
                    if before == after {
                        stable_reads += 1;
                    }
                    barrier.end_exclusive();
                }
                barrier.unregister();
                stable_reads
            })
        };

        for h in handles {
            h.join().unwrap();
        }
        let stable = observer.join().unwrap();
        assert_eq!(
            stable, EXCLUSIVE_ROUNDS,
            "counter moved during an exclusive section"
        );
    }

    /// Two threads requesting exclusivity concurrently must both complete
    /// (the park-while-waiting logic prevents deadlock).
    #[test]
    fn concurrent_requesters_serialize() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.register();
                for _ in 0..500 {
                    let _ = barrier.safepoint();
                    let _ = barrier.start_exclusive().unwrap();
                    barrier.end_exclusive();
                }
                barrier.unregister();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A vCPU that exits while another requests exclusivity must not hang
    /// the requester.
    #[test]
    fn exit_wakes_requester() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main
        let worker = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.register();
                std::thread::sleep(std::time::Duration::from_millis(20));
                barrier.unregister(); // exits without ever parking
            })
        };
        // The point is deadlock-freedom: the requester must return even
        // though the worker never parks (it exits instead). The wait
        // duration itself is scheduling-dependent, so it is not asserted.
        let _waited = barrier.start_exclusive().unwrap();
        barrier.end_exclusive();
        barrier.unregister();
        worker.join().unwrap();
    }

    /// A vCPU registering while an exclusive section is active must park
    /// until the section ends — it may not start running mid-exclusive.
    #[test]
    fn register_during_exclusive_parks_until_end() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main
        let _ = barrier.start_exclusive().unwrap();

        let registered = Arc::new(AtomicBool::new(false));
        let late = {
            let barrier = Arc::clone(&barrier);
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || {
                barrier.register(); // must block here
                registered.store(true, Ordering::SeqCst);
                barrier.unregister();
            })
        };

        // Give the late arrival ample time to (incorrectly) get through.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !registered.load(Ordering::SeqCst),
            "a vCPU registered while an exclusive section was active"
        );

        barrier.end_exclusive();
        late.join().unwrap();
        assert!(registered.load(Ordering::SeqCst));
        barrier.unregister();
    }

    /// The holder of a named exclusive section passes through its own
    /// safepoint, while a bystander parks.
    #[test]
    fn holder_safepoint_is_a_no_op() {
        let barrier = ExclusiveBarrier::new();
        barrier.register();
        let _ = barrier.start_exclusive_as(7).unwrap();
        assert!(barrier.exclusive_pending());
        // The holder's safepoint must return immediately (no park, hence
        // effectively zero wait) even though an exclusive is pending.
        let waited = barrier.safepoint_for(7);
        assert_eq!(waited, 0);
        barrier.end_exclusive();
        barrier.unregister();
    }

    /// `halt()` must release a parked safepoint waiter even though the
    /// exclusive section never ends.
    #[test]
    fn halt_releases_parked_waiters() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main (will hold exclusivity forever)
        let waiter = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.register();
                // Wait until the exclusive request is pending, then park.
                while !barrier.exclusive_pending() {
                    std::hint::spin_loop();
                }
                let _ = barrier.safepoint();
                barrier.unregister();
            })
        };
        let _ = barrier.start_exclusive().unwrap();
        // Never end_exclusive: simulate a wedged holder. The watchdog
        // path must still free the parked waiter.
        barrier.halt();
        waiter.join().unwrap();
        barrier.end_exclusive();
        barrier.unregister();
    }

    /// Halt/park race regression: a requester parked inside
    /// `start_exclusive` (waiting out another holder's section) that is
    /// woken by `halt()` must observe the halt and report [`Halted`] —
    /// it must **not** claim the section and run "exclusively" against
    /// an unstopped world, which is what the pre-fix code did.
    #[test]
    fn halted_requester_never_claims_the_section() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main (the wedged holder)
        barrier.register(); // the requester thread's slot

        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Let main claim the section first, then park in
                // start_exclusive's first wait loop behind it.
                while !barrier.exclusive_pending() {
                    std::hint::spin_loop();
                }
                barrier.start_exclusive()
            })
        };

        // Granted once the requester parks; then wedge and halt.
        let _ = barrier.start_exclusive().unwrap();
        barrier.halt();

        let granted = requester.join().unwrap();
        assert_eq!(
            granted,
            Err(Halted),
            "a requester parked across halt() re-entered the exclusive section"
        );
        assert!(
            barrier.exclusive_pending(),
            "the failed requester must not have torn down the holder's section"
        );
        barrier.end_exclusive();
        barrier.unregister();
        barrier.unregister();
    }

    /// Same race on the second wait loop: the requester has claimed the
    /// section but `halt()` fires before the world finishes stopping.
    /// The claim must be undone (no dangling `pending` flag) and the
    /// requester told [`Halted`].
    #[test]
    fn halt_during_world_stop_undoes_the_claim() {
        let barrier = Arc::new(ExclusiveBarrier::new());
        barrier.register(); // main
        barrier.register(); // a peer that never parks

        let requester = {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || barrier.start_exclusive())
        };
        // The requester claims immediately (no active section) and then
        // waits for the peer — which never parks. Halt it loose.
        while !barrier.exclusive_pending() {
            std::hint::spin_loop();
        }
        barrier.halt();
        assert_eq!(requester.join().unwrap(), Err(Halted));
        assert!(
            !barrier.exclusive_pending(),
            "a halted half-claimed section left the pending flag set"
        );
        barrier.unregister();
        barrier.unregister();
    }

    /// `start_exclusive_as` propagates the halt without naming a holder.
    #[test]
    fn halted_named_requester_sets_no_holder() {
        let barrier = ExclusiveBarrier::new();
        barrier.register();
        barrier.halt();
        assert_eq!(barrier.start_exclusive_as(3), Err(Halted));
        // No section, no holder: a bystander safepoint passes through.
        assert_eq!(barrier.safepoint_for(9), 0);
        barrier.reset_halt();
        barrier.unregister();
    }
}
