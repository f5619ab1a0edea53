//! # adbt-chaos — deterministic fault injection and unified retry policy
//!
//! The paper's schemes fail *subtly* — monitors are lost to races, HTM
//! regions abort under interference, page-protection handlers contend
//! with plain stores — but a test run only exercises those edges under
//! whatever interleavings the host scheduler happens to produce. This
//! crate provides the machinery to *force* them:
//!
//! * [`ChaosCfg`] — a seed + rate pair selecting an injection campaign;
//! * [`ChaosSite`] — the engine's failure edges, one per injection point;
//! * [`ChaosStream`] — a per-vCPU deterministic RNG deciding, draw by
//!   draw, whether the next edge fires. Streams are keyed by
//!   `(seed, tid)`, so a vCPU's fault sequence depends only on its own
//!   execution path — under the engine's deterministic simulated mode an
//!   identical seed replays an identical fault sequence;
//! * [`ChaosPlane`] — the per-machine aggregation point: configuration
//!   plus per-site fired counters ([`ChaosSnapshot`]);
//! * [`RetryPolicy`] — bounded attempts + staged backoff, shared by
//!   every retry loop in the engine so budgets and degradation
//!   thresholds live in one place instead of scattered constants.
//!
//! Everything here is dependency-free and engine-agnostic: the engine
//! decides *where* the sites live; this crate only decides *whether*
//! a given site fires and keeps the books.

use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for one fault-injection campaign.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosCfg {
    /// Seed for the per-vCPU streams. Same seed (and same schedule, in
    /// deterministic modes) ⇒ same fault sequence.
    pub seed: u64,
    /// Probability in `[0, 1]` that any given site roll fires.
    pub rate: f64,
    /// Probability in `[0, 1]` of a translation-invalidation storm roll
    /// ([`ChaosSite::Invalidate`]) per dispatch hop. Separate from
    /// `rate` — invalidation storms are a lifecycle stress, not a
    /// scheme-failure edge, and default to **off** so existing chaos
    /// campaigns keep their exact fault sequences.
    pub invalidate: f64,
}

impl ChaosCfg {
    /// Creates a campaign config, clamping `rate` into `[0, 1]`;
    /// invalidation storms are off.
    pub fn new(seed: u64, rate: f64) -> ChaosCfg {
        ChaosCfg {
            seed,
            rate: rate.clamp(0.0, 1.0),
            invalidate: 0.0,
        }
    }

    /// Sets the invalidation-storm rate, clamped into `[0, 1]`.
    pub fn with_invalidate(mut self, rate: f64) -> ChaosCfg {
        self.invalidate = rate.clamp(0.0, 1.0);
        self
    }
}

/// The engine's injection points — one per failure edge a healthy run
/// rarely exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ChaosSite {
    /// Spurious `AbortReason::Conflict`/`Capacity` at HTM commit.
    HtmCommit = 0,
    /// Forced SC failure in a scheme's SC helper (architecturally legal:
    /// ARM permits an SC to fail spuriously at any time).
    ScFail = 1,
    /// Spurious clear of the local exclusive monitor at a block boundary
    /// (architecturally legal: monitors may be cleared by the
    /// implementation at any time).
    MonitorClear = 2,
    /// Stall before requesting the stop-the-world exclusive section.
    ExclusiveStall = 3,
    /// Stall at a safepoint poll, widening stop-the-world entry windows.
    SafepointDelay = 4,
    /// Latency spike in the `mprotect`/remap path (PST family).
    MprotectDelay = 5,
    /// Latency spike in the page-fault handler path.
    FaultDelay = 6,
    /// Stall while acquiring a scheme's global registry lock.
    LockStall = 7,
    /// Forced invalidation of the currently-dispatching translated
    /// block — the cache-lifecycle storm (as if the guest had just
    /// overwritten that code). Driven by [`ChaosCfg::invalidate`], a
    /// separate rate that defaults to off.
    Invalidate = 8,
}

impl ChaosSite {
    /// Number of distinct sites (the size of per-site counter arrays).
    pub const COUNT: usize = 9;

    /// Every site, in counter order.
    pub const ALL: [ChaosSite; ChaosSite::COUNT] = [
        ChaosSite::HtmCommit,
        ChaosSite::ScFail,
        ChaosSite::MonitorClear,
        ChaosSite::ExclusiveStall,
        ChaosSite::SafepointDelay,
        ChaosSite::MprotectDelay,
        ChaosSite::FaultDelay,
        ChaosSite::LockStall,
        ChaosSite::Invalidate,
    ];

    /// Stable diagnostic name (used by `--stats` output).
    pub fn name(self) -> &'static str {
        match self {
            ChaosSite::HtmCommit => "htm-commit",
            ChaosSite::ScFail => "sc-fail",
            ChaosSite::MonitorClear => "monitor-clear",
            ChaosSite::ExclusiveStall => "exclusive-stall",
            ChaosSite::SafepointDelay => "safepoint-delay",
            ChaosSite::MprotectDelay => "mprotect-delay",
            ChaosSite::FaultDelay => "fault-delay",
            ChaosSite::LockStall => "lock-stall",
            ChaosSite::Invalidate => "invalidate",
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-vCPU deterministic fault stream.
///
/// Each query consumes one draw from a splitmix64 sequence keyed by
/// `(campaign seed, tid)`; the decision sequence is therefore a pure
/// function of the seed and the *order of queries this vCPU makes* —
/// which, under the engine's deterministic modes, is itself reproducible.
#[derive(Clone, Debug)]
pub struct ChaosStream {
    state: u64,
    threshold: u64,
    invalidate_threshold: u64,
}

impl ChaosStream {
    /// Creates the stream for one vCPU.
    pub fn new(cfg: ChaosCfg, tid: u32) -> ChaosStream {
        let mut state = cfg.seed ^ (u64::from(tid).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // Warm up so near-identical keys diverge immediately.
        let _ = splitmix64(&mut state);
        ChaosStream {
            state,
            // rate 1.0 must always fire; the f64→u64 product saturates.
            threshold: (cfg.rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
            invalidate_threshold: (cfg.invalidate.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
        }
    }

    /// Whether the next injection fires (one draw).
    pub fn roll(&mut self) -> bool {
        splitmix64(&mut self.state) <= self.threshold
    }

    /// Whether the next *invalidation-storm* injection fires. Consumes
    /// no draw when the invalidation rate is zero, so campaigns without
    /// storms keep byte-identical fault sequences whether or not the
    /// engine polls this site.
    pub fn roll_invalidate(&mut self) -> bool {
        if self.invalidate_threshold == 0 {
            return false;
        }
        splitmix64(&mut self.state) <= self.invalidate_threshold
    }

    /// A fair deterministic coin (one draw) — used to pick between
    /// variants of an injected fault (e.g. `Conflict` vs `Capacity`).
    pub fn flip(&mut self) -> bool {
        splitmix64(&mut self.state) & 1 == 1
    }

    /// A bounded stall length in spin units (one draw), for delay sites.
    pub fn stall_units(&mut self) -> u32 {
        1 + (splitmix64(&mut self.state) % 4096) as u32
    }
}

/// Per-site fired counters, comparable across runs (the deterministic
/// replay contract: same seed + same deterministic schedule ⇒ equal
/// snapshots).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosSnapshot {
    /// Fired count per site, indexed by `ChaosSite as usize`.
    pub counts: [u64; ChaosSite::COUNT],
}

impl ChaosSnapshot {
    /// Total injected faults across all sites.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(site, count)` pairs for sites that fired at least once.
    pub fn fired(&self) -> impl Iterator<Item = (ChaosSite, u64)> + '_ {
        ChaosSite::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, n)| n > 0)
    }

    /// Renders the per-site counts as one JSON object keyed by site
    /// name (all sites, fired or not, so consumers see a stable shape).
    pub fn to_json(&self) -> String {
        let sites = ChaosSite::ALL.map(ChaosSite::name);
        adbt_trace::json::object(sites.into_iter().zip(self.counts))
    }
}

/// The per-machine injection plane: campaign config plus shared per-site
/// counters. vCPU threads record fired sites with relaxed atomics (the
/// counts are diagnostics, not synchronization).
#[derive(Debug)]
pub struct ChaosPlane {
    cfg: ChaosCfg,
    counters: [AtomicU64; ChaosSite::COUNT],
}

impl ChaosPlane {
    /// Creates the plane for one machine.
    pub fn new(cfg: ChaosCfg) -> ChaosPlane {
        ChaosPlane {
            // Re-clamp both rates; a hand-built cfg may carry raw floats.
            cfg: ChaosCfg::new(cfg.seed, cfg.rate).with_invalidate(cfg.invalidate),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The campaign configuration.
    pub fn cfg(&self) -> ChaosCfg {
        self.cfg
    }

    /// The deterministic stream for one vCPU.
    pub fn stream(&self, tid: u32) -> ChaosStream {
        ChaosStream::new(self.cfg, tid)
    }

    /// Records one fired injection at `site`.
    pub fn record(&self, site: ChaosSite) {
        self.counters[site as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The current per-site counts.
    pub fn snapshot(&self) -> ChaosSnapshot {
        ChaosSnapshot {
            counts: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
        }
    }
}

/// Bounded attempts with staged backoff — the one retry shape every
/// engine loop shares (HTM region rollback, HST-HTM's SC transaction,
/// ...). Attempts are counted from 1; the stages are:
///
/// 1. attempts `1..=yield_after`: spin straight through (no backoff);
/// 2. attempts up to `sleep_after`: yield the OS thread;
/// 3. beyond `sleep_after`: sleep `attempt / sleep_after` microseconds,
///    capped at `max_sleep_us` (exponential-ish, like real RTM retry
///    paths);
/// 4. past `max_attempts`: [`RetryPolicy::exhausted`] — the caller
///    degrades (stop-the-world fallback) or reports livelock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before the budget is spent.
    pub max_attempts: u64,
    /// Attempts spun through before any backoff.
    pub yield_after: u64,
    /// Attempts before backoff escalates from yielding to sleeping.
    pub sleep_after: u64,
    /// Sleep cap in microseconds.
    pub max_sleep_us: u64,
    /// Consecutive failures before a storming retry loop degrades its
    /// next attempt to a guaranteed-completion fallback (a held
    /// stop-the-world window) instead of backing off again. Set to
    /// `u64::MAX` for loops with no degraded rung.
    pub degrade_after: u64,
}

impl RetryPolicy {
    /// Whether `attempts` consecutive failures exhaust the budget.
    pub fn exhausted(&self, attempts: u64) -> bool {
        attempts > self.max_attempts
    }

    /// Backs off after failed attempt number `attempt` (counted from 1),
    /// returning the nanoseconds spent backing off (zero in the spin
    /// stage). Callers on deterministic single-threaded schedulers should
    /// skip this — there is no other thread to yield to.
    pub fn backoff(&self, attempt: u64) -> u64 {
        if attempt <= self.yield_after {
            return 0;
        }
        let start = std::time::Instant::now();
        if attempt > self.sleep_after {
            std::thread::sleep(std::time::Duration::from_micros(
                (attempt / self.sleep_after.max(1)).min(self.max_sleep_us),
            ));
        } else {
            std::thread::yield_now();
        }
        start.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `chaos` block of `adbt-metrics-v2`: every site, fired or not.
    #[test]
    fn snapshot_json_is_pinned() {
        let snapshot = ChaosSnapshot {
            counts: std::array::from_fn(|i| 7 * i as u64),
        };
        let golden = include_str!("../tests/data/chaos_snapshot.json");
        assert_eq!(snapshot.to_json(), golden.trim_end());
    }

    #[test]
    fn rate_zero_never_fires_and_rate_one_always_fires() {
        let mut never = ChaosStream::new(ChaosCfg::new(42, 0.0), 1);
        let mut always = ChaosStream::new(ChaosCfg::new(42, 1.0), 1);
        for _ in 0..10_000 {
            assert!(!never.roll());
            assert!(always.roll());
        }
    }

    #[test]
    fn rate_is_roughly_honoured() {
        let mut stream = ChaosStream::new(ChaosCfg::new(7, 0.1), 3);
        let fired = (0..100_000).filter(|_| stream.roll()).count();
        assert!((8_000..12_000).contains(&fired), "fired {fired}");
    }

    #[test]
    fn streams_replay_identically_and_differ_across_tids() {
        let cfg = ChaosCfg::new(0xdead_beef, 0.25);
        let draw = |mut s: ChaosStream| (0..64).map(|_| s.roll()).collect::<Vec<_>>();
        assert_eq!(
            draw(ChaosStream::new(cfg, 1)),
            draw(ChaosStream::new(cfg, 1))
        );
        assert_ne!(
            draw(ChaosStream::new(cfg, 1)),
            draw(ChaosStream::new(cfg, 2))
        );
    }

    #[test]
    fn plane_counts_per_site() {
        let plane = ChaosPlane::new(ChaosCfg::new(1, 0.5));
        plane.record(ChaosSite::ScFail);
        plane.record(ChaosSite::ScFail);
        plane.record(ChaosSite::HtmCommit);
        let snap = plane.snapshot();
        assert_eq!(snap.counts[ChaosSite::ScFail as usize], 2);
        assert_eq!(snap.counts[ChaosSite::HtmCommit as usize], 1);
        assert_eq!(snap.total(), 3);
        assert_eq!(snap.fired().count(), 2);
    }

    #[test]
    fn plane_preserves_the_invalidate_rate() {
        // Regression: the plane used to rebuild its cfg with
        // `ChaosCfg::new(seed, rate)` alone, silently dropping the storm
        // rate — every stream it handed out had invalidations off.
        let plane = ChaosPlane::new(ChaosCfg::new(7, 0.1).with_invalidate(1.0));
        assert_eq!(plane.cfg().invalidate, 1.0);
        let mut stream = plane.stream(1);
        assert!(stream.roll_invalidate());
    }

    #[test]
    fn rate_is_clamped() {
        assert_eq!(ChaosCfg::new(0, 7.5).rate, 1.0);
        assert_eq!(ChaosCfg::new(0, -1.0).rate, 0.0);
    }

    #[test]
    fn retry_policy_stages() {
        let policy = RetryPolicy {
            max_attempts: 10,
            yield_after: 4,
            sleep_after: 8,
            max_sleep_us: 1,
            degrade_after: u64::MAX,
        };
        assert!(!policy.exhausted(10));
        assert!(policy.exhausted(11));
        assert_eq!(policy.backoff(1), 0);
        assert_eq!(policy.backoff(4), 0);
        // Yield/sleep stages return elapsed time; only sanity-check they
        // do not panic and move past the spin stage.
        let _ = policy.backoff(5);
        let _ = policy.backoff(9);
    }

    #[test]
    fn invalidate_rate_is_separate_and_off_by_default() {
        // Default: off, and polling it consumes no draw — the main
        // fault sequence is identical with or without the polls.
        let cfg = ChaosCfg::new(99, 0.5);
        assert_eq!(cfg.invalidate, 0.0);
        let mut plain = ChaosStream::new(cfg, 1);
        let mut polled = ChaosStream::new(cfg, 1);
        for _ in 0..256 {
            assert!(!polled.roll_invalidate());
            assert_eq!(plain.roll(), polled.roll());
        }
        // With a storm rate set, invalidation rolls fire independently.
        let mut storm = ChaosStream::new(ChaosCfg::new(99, 0.0).with_invalidate(1.0), 1);
        for _ in 0..64 {
            assert!(!storm.roll());
            assert!(storm.roll_invalidate());
        }
        assert_eq!(ChaosCfg::new(0, 0.0).with_invalidate(7.0).invalidate, 1.0);
    }

    #[test]
    fn site_names_are_stable_and_distinct() {
        let names: std::collections::HashSet<_> = ChaosSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), ChaosSite::COUNT);
    }
}
