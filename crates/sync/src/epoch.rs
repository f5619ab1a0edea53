//! Quiescent-state-based reclamation (QSBR) for the translation cache.
//!
//! The engine's dispatch loop holds references into the block arena
//! (the current block, a predecessor's chain link) for the duration of
//! one chained-dispatch step. Invalidated blocks therefore cannot be
//! freed at invalidation time — a parked or mid-step vCPU may still be
//! reading them. This module provides the grace-period machinery that
//! makes deferred freeing sound, hand-rolled because the workspace is
//! fully air-gapped (no `crossbeam-epoch`).
//!
//! # Protocol
//!
//! * A **global epoch** counter advances once per retirement batch
//!   ([`Qsbr::begin_grace`]).
//! * Each participating thread owns a **slot** holding its *local
//!   epoch* — the last global value it observed at a point where it
//!   held **zero** arena references ([`Qsbr::quiesce`]). The engine
//!   announces quiescence at the top of each dispatch step, where the
//!   chain-link reference is `None` by construction.
//! * A retirement batch stamped with epoch `E` may be freed once every
//!   *online* slot holds a local epoch `≥ E` ([`Qsbr::grace_elapsed`]):
//!   each such thread has passed through a zero-reference point after
//!   the retirement, so no reference to the batch can survive.
//!
//! Threads that go **offline** ([`Qsbr::unregister`]) stop blocking
//! grace — a thread that exited holds nothing. A thread about to block
//! at a zero-reference point (a safepoint park while another thread
//! holds the machine stopped) is **parked** ([`Qsbr::park`]): quiescent
//! for every grace period until its next [`Qsbr::quiesce`] re-joins it,
//! and, unlike an offline slot, never claimable by [`Qsbr::register`].
//! Threads that *never* quiesce (paused mid-block, spinning in a helper)
//! block grace indefinitely; that is the safety property, not a bug:
//! their held references stay valid until they next reach a
//! zero-reference point.
//!
//! The scheme is deliberately minimal: no per-thread deferral lists
//! (the cache keeps one global limbo list under its own lock — retiring
//! is rare), no epoch wrapping (a `u64` advancing once per invalidation
//! batch outlives any run), and a fixed slot array (the engine's
//! threaded runs take at most [`MAX_PARTICIPANTS`] vCPUs).

use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum concurrently-registered participants (vCPU threads plus the
/// run-mode driver). Fixed so the slot array needs no allocation or
/// resizing under readers.
pub const MAX_PARTICIPANTS: usize = 64;

/// Slot value meaning "unclaimed / offline" — never a valid epoch
/// (epochs start at 1 and a u64 counter bumped per retirement batch
/// cannot reach it).
const OFFLINE: u64 = u64::MAX;

/// Slot value meaning "claimed, parked at a zero-reference point". Above
/// every reachable epoch, so [`Qsbr::grace_elapsed`] reads it as
/// quiescent; distinct from [`OFFLINE`], so [`Qsbr::register`] skips it.
const PARKED: u64 = u64::MAX - 1;

/// The quiescent-state epoch tracker. One per machine, shared by every
/// vCPU thread; see the module docs for the protocol.
#[derive(Debug)]
pub struct Qsbr {
    global: AtomicU64,
    slots: [AtomicU64; MAX_PARTICIPANTS],
}

impl Default for Qsbr {
    fn default() -> Qsbr {
        Qsbr::new()
    }
}

impl Qsbr {
    /// Creates a tracker with no participants at epoch 1.
    pub fn new() -> Qsbr {
        Qsbr {
            global: AtomicU64::new(1),
            slots: std::array::from_fn(|_| AtomicU64::new(OFFLINE)),
        }
    }

    /// Claims a slot for the calling thread, initially quiesced at the
    /// current global epoch (a fresh participant cannot hold references
    /// retired before it existed).
    ///
    /// # Panics
    ///
    /// Panics if all [`MAX_PARTICIPANTS`] slots are taken. The engine
    /// registers one participant per vCPU thread, and its
    /// `MachineCore::run_threaded` refuses more than `MAX_PARTICIPANTS`
    /// vCPUs before spawning any (`adbt_run` and `adbt_bench` reject such
    /// thread counts as usage errors first), so exhaustion is a wiring
    /// bug.
    pub fn register(&self) -> usize {
        for (i, slot) in self.slots.iter().enumerate() {
            let epoch = self.global.load(Ordering::SeqCst);
            if slot
                .compare_exchange(OFFLINE, epoch, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return i;
            }
        }
        panic!("more than {MAX_PARTICIPANTS} concurrent QSBR participants");
    }

    /// Releases a slot; the thread stops blocking grace periods.
    pub fn unregister(&self, slot: usize) {
        self.slots[slot].store(OFFLINE, Ordering::SeqCst);
    }

    /// Parks a slot: the calling thread holds zero arena references and
    /// is about to block, so it counts as quiesced for every grace
    /// period until its next [`Qsbr::quiesce`], which re-joins it at the
    /// then-current epoch. The slot stays claimed.
    pub fn park(&self, slot: usize) {
        self.slots[slot].store(PARKED, Ordering::SeqCst);
    }

    /// Announces a quiescent state: the calling thread holds zero arena
    /// references right now. One global load and one own-slot load, plus
    /// an own-slot store only when the global epoch has moved since the
    /// slot's last announcement — cheap enough for once-per-dispatch-step
    /// use.
    ///
    /// Skipping the store when the slot already holds the global epoch
    /// `E` is safe:
    ///
    /// * The slot already holds the value the store would write, so no
    ///   [`Qsbr::grace_elapsed`] answer changes.
    /// * The batch that made epoch `E` was retired in a stop-the-world
    ///   window while this thread was parked (or, if this thread retired
    ///   it, mid-step). The thread stored `E` only after that, so nothing
    ///   it has touched since is in a batch stamped at or below `E`.
    /// * A later batch moves the global epoch, so the next announcement
    ///   stores, and its SeqCst store orders everything before it.
    #[inline]
    pub fn quiesce(&self, slot: usize) {
        let epoch = self.global.load(Ordering::SeqCst);
        let local = &self.slots[slot];
        // Only this thread writes its slot while registered, so a
        // relaxed load reads its own last announcement.
        if local.load(Ordering::Relaxed) != epoch {
            local.store(epoch, Ordering::SeqCst);
        }
    }

    /// Opens a grace period for a retirement batch, returning the epoch
    /// the batch must wait on: once [`Qsbr::grace_elapsed`] holds for
    /// it, no participant can still reference anything retired before
    /// this call.
    pub fn begin_grace(&self) -> u64 {
        self.global.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Whether every online participant has announced quiescence at or
    /// after `epoch` — i.e. the grace period opened by the matching
    /// [`Qsbr::begin_grace`] has elapsed.
    pub fn grace_elapsed(&self, epoch: u64) -> bool {
        self.slots.iter().all(|slot| {
            let local = slot.load(Ordering::SeqCst);
            local == OFFLINE || local >= epoch
        })
    }

    /// The current global epoch (diagnostics and tests).
    pub fn current_epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// The local epoch a slot last announced, or `None` if the slot is
    /// offline or parked. Used by debug-mode reachability checks: a
    /// retired segment is freeable only when no online slot's local
    /// epoch predates its retirement.
    pub fn local_epoch(&self, slot: usize) -> Option<u64> {
        match self.slots[slot].load(Ordering::SeqCst) {
            OFFLINE | PARKED => None,
            epoch => Some(epoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn grace_elapses_immediately_with_no_participants() {
        let q = Qsbr::new();
        let epoch = q.begin_grace();
        assert!(q.grace_elapsed(epoch));
    }

    #[test]
    fn unquiesced_participant_blocks_grace_until_it_quiesces() {
        let q = Qsbr::new();
        let slot = q.register();
        let epoch = q.begin_grace();
        assert!(!q.grace_elapsed(epoch), "reader never passed a safepoint");
        q.quiesce(slot);
        assert!(q.grace_elapsed(epoch));
    }

    #[test]
    fn quiescing_twice_in_one_epoch_leaves_the_slot_alone() {
        let q = Qsbr::new();
        let slot = q.register();
        let before = q.local_epoch(slot);
        q.quiesce(slot);
        q.quiesce(slot);
        assert_eq!(q.local_epoch(slot), before);
        // A grace opened afterwards still waits for the next quiesce,
        // which stores the new epoch.
        let epoch = q.begin_grace();
        assert!(!q.grace_elapsed(epoch), "no announcement since the grace");
        q.quiesce(slot);
        assert_eq!(q.local_epoch(slot), Some(epoch));
        assert!(q.grace_elapsed(epoch));
    }

    #[test]
    fn unregistering_stops_blocking_grace() {
        let q = Qsbr::new();
        let slot = q.register();
        let epoch = q.begin_grace();
        assert!(!q.grace_elapsed(epoch));
        q.unregister(slot);
        assert!(q.grace_elapsed(epoch), "offline threads hold nothing");
    }

    #[test]
    fn a_parked_slot_is_quiescent_until_it_rejoins_and_stays_claimed() {
        let q = Qsbr::new();
        let parked = q.register();
        let epoch = q.begin_grace();
        assert!(!q.grace_elapsed(epoch), "not yet parked");
        q.park(parked);
        assert!(q.grace_elapsed(epoch), "a parked thread holds nothing");
        assert_eq!(q.local_epoch(parked), None);
        // A late registrant takes a free slot, never the parked one.
        let late = q.register();
        assert_ne!(late, parked);
        q.quiesce(late);
        // Parked means quiescent for every grace period, later ones too.
        let later = q.begin_grace();
        q.quiesce(late);
        assert!(q.grace_elapsed(later));
        // Quiescing re-joins at the current epoch: the next grace period
        // waits for this thread again.
        q.quiesce(parked);
        assert_eq!(q.local_epoch(parked), Some(later));
        let next = q.begin_grace();
        q.quiesce(late);
        assert!(!q.grace_elapsed(next), "a re-joined slot blocks grace");
        q.quiesce(parked);
        assert!(q.grace_elapsed(next));
    }

    #[test]
    fn late_registrants_do_not_block_old_grace_periods() {
        let q = Qsbr::new();
        let epoch = q.begin_grace();
        let _slot = q.register();
        assert!(
            q.grace_elapsed(epoch),
            "a thread born after the retirement cannot reference it"
        );
    }

    #[test]
    fn slots_are_reusable_after_unregister() {
        let q = Qsbr::new();
        let a = q.register();
        q.unregister(a);
        let b = q.register();
        assert_eq!(a, b, "freed slot is reclaimed first");
        assert!(q.local_epoch(b).is_some());
    }

    #[test]
    fn one_laggard_blocks_grace_for_everyone() {
        let q = Qsbr::new();
        let fast = q.register();
        let slow = q.register();
        let epoch = q.begin_grace();
        q.quiesce(fast);
        assert!(!q.grace_elapsed(epoch), "slow reader still in its step");
        q.quiesce(slow);
        assert!(q.grace_elapsed(epoch));
    }

    #[test]
    fn threaded_smoke_grace_eventually_elapses() {
        let q = Arc::new(Qsbr::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let slot = q.register();
                for _ in 0..1_000 {
                    q.quiesce(slot);
                }
                q.unregister(slot);
            }));
        }
        let epoch = q.begin_grace();
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.grace_elapsed(epoch));
    }
}
