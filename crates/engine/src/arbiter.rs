//! The adaptive-arbitration interface: epoch observations, migration
//! proposals, and the runtime state the machine keeps when it runs with
//! `--scheme auto`.
//!
//! The engine owns *when* arbitration happens (the per-vCPU epoch poll
//! at block edges), *what* the arbiter may do (atomicity-class policy,
//! store-family coexistence, hysteresis, cooldown), and *how* a
//! migration executes (retire + retranslate under the existing cache
//! lifecycle, inside an exclusive window). The scoring itself — which
//! scheme *should* run next — lives behind the [`SchemeArbiter`] trait
//! so the `adbt-adapt` crate's cost models stay out of the engine.

use crate::scheme::{AtomicScheme, Atomicity, SchemeCostModel, StoreFamily};
use crate::stats::VcpuStats;
use adbt_sync::Mutex;
use adbt_trace::json::{parse_json, Json, JsonWriter};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Which atomicity-class moves the arbiter may make, mirroring the
/// paper's strong/weak taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptPolicy {
    /// Migrations stay within the active scheme's atomicity class: a
    /// strong machine never silently weakens.
    Strong,
    /// Strong⇄weak moves are allowed; `Atomicity::Incorrect` schemes
    /// remain off-limits unless the run *started* in one.
    WeakOk,
}

impl AdaptPolicy {
    /// Parses the `--adapt-policy` argument.
    pub fn from_name(name: &str) -> Option<AdaptPolicy> {
        match name {
            "strong" => Some(AdaptPolicy::Strong),
            "weak-ok" => Some(AdaptPolicy::WeakOk),
            _ => None,
        }
    }
}

impl fmt::Display for AdaptPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AdaptPolicy::Strong => "strong",
            AdaptPolicy::WeakOk => "weak-ok",
        })
    }
}

/// Tuning for the adaptive arbiter.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// Retired-instruction epoch length per vCPU: the arbiter samples
    /// its signals every time the arbitrating vCPU crosses this many
    /// retired instructions. Counting retired instructions (not wall
    /// time) keeps scheduled/lockstep/sim arbitration deterministic.
    pub epoch_insns: u64,
    /// Atomicity-class movement policy.
    pub policy: AdaptPolicy,
    /// Consecutive epochs a candidate must win before a migration fires
    /// (flap damping).
    pub hysteresis: u32,
    /// Epochs to hold after a migration before another may fire.
    pub cooldown: u64,
    /// Whether to retain an `adbt-adapt-v1` decision log.
    pub log: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            epoch_insns: 20_000,
            policy: AdaptPolicy::Strong,
            hysteresis: 2,
            cooldown: 3,
            log: false,
        }
    }
}

/// Immutable descriptor of one candidate scheme, captured at machine
/// construction so the arbiter never touches trait objects.
#[derive(Clone, Copy, Debug)]
pub struct CandidateInfo {
    /// The scheme's short name (`"hst"`, …).
    pub name: &'static str,
    /// Its atomicity class.
    pub atomicity: Atomicity,
    /// Its store-instrumentation family (decides flush vs targeted
    /// retirement on migration).
    pub family: StoreFamily,
    /// Whether it needs the HTM domain.
    pub requires_htm: bool,
    /// Its cost weights.
    pub costs: SchemeCostModel,
}

impl CandidateInfo {
    /// Captures a descriptor from a scheme.
    pub fn of(scheme: &dyn AtomicScheme) -> CandidateInfo {
        CandidateInfo {
            name: scheme.name(),
            atomicity: scheme.atomicity(),
            family: scheme.store_family(),
            requires_htm: scheme.requires_htm(),
            costs: scheme.cost_model(),
        }
    }
}

/// Per-epoch workload signal deltas, sampled from the arbitrating
/// vCPU's own counters (deterministic in every execution mode; the
/// nanosecond-typed profile metrics are zero under virtual clocks, so
/// scoring leans on counts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSignals {
    /// Instructions retired this epoch.
    pub insns: u64,
    /// Plain guest stores.
    pub stores: u64,
    /// SC attempts.
    pub sc: u64,
    /// Failed SCs (the contention proxy for LL/SC).
    pub sc_failures: u64,
    /// HTM transaction aborts (the contention proxy for HTM schemes).
    pub htm_aborts: u64,
    /// Page faults taken (PST-family storm signal).
    pub page_faults: u64,
    /// False-sharing faults (PST-family storm signal).
    pub false_sharing: u64,
    /// Translation invalidations observed (SMC churn).
    pub invalidations: u64,
}

impl EpochSignals {
    /// Samples the cumulative counters an epoch's deltas are computed
    /// from.
    pub(crate) fn capture(stats: &VcpuStats) -> EpochSignals {
        EpochSignals {
            insns: stats.insns,
            stores: stats.stores,
            sc: stats.sc,
            sc_failures: stats.sc_failures,
            htm_aborts: stats.htm_aborts,
            page_faults: stats.page_faults,
            false_sharing: stats.false_sharing_faults,
            invalidations: stats.invalidations,
        }
    }

    /// Field-wise `self - prev` (saturating), turning two cumulative
    /// samples into one epoch's deltas.
    pub(crate) fn delta_from(&self, prev: &EpochSignals) -> EpochSignals {
        EpochSignals {
            insns: self.insns.saturating_sub(prev.insns),
            stores: self.stores.saturating_sub(prev.stores),
            sc: self.sc.saturating_sub(prev.sc),
            sc_failures: self.sc_failures.saturating_sub(prev.sc_failures),
            htm_aborts: self.htm_aborts.saturating_sub(prev.htm_aborts),
            page_faults: self.page_faults.saturating_sub(prev.page_faults),
            false_sharing: self.false_sharing.saturating_sub(prev.false_sharing),
            invalidations: self.invalidations.saturating_sub(prev.invalidations),
        }
    }

    /// The arbiter's predicted cost of running an epoch with these
    /// signals under a scheme's cost weights: baseline instruction
    /// stream plus the dot product of weights and signals. Contention
    /// events (SC failures + HTM aborts) are charged through
    /// `contention_unit` regardless of which scheme surfaced them —
    /// the interleaving causing them persists across a migration even
    /// though the symptom changes shape.
    pub fn cost_under(&self, m: &SchemeCostModel) -> u64 {
        let contended = self.sc_failures + self.htm_aborts;
        let faults = self.page_faults + self.false_sharing + self.invalidations;
        self.insns
            .saturating_add(self.stores.saturating_mul(m.store_unit))
            .saturating_add(self.sc.saturating_mul(m.sc_unit))
            .saturating_add(self.sc_failures.saturating_mul(m.sc_retry_unit))
            .saturating_add(contended.saturating_mul(m.contention_unit))
            .saturating_add(faults.saturating_mul(m.fault_unit))
    }
}

/// Everything an arbiter sees when scoring one epoch.
#[derive(Debug)]
pub struct EpochObservation<'a> {
    /// Monotone epoch number (machine-wide).
    pub epoch: u64,
    /// Index of the currently-active candidate.
    pub active: usize,
    /// The candidate set (index space of [`Proposal::target`]).
    pub candidates: &'a [CandidateInfo],
    /// The atomicity-class policy in force.
    pub policy: AdaptPolicy,
    /// This epoch's signal deltas.
    pub signals: EpochSignals,
    /// The hottest contended guest PC from the profile plane, with its
    /// contention-event count, if any site is hot.
    pub hot_site: Option<(u32, u64)>,
}

/// An arbiter's verdict for one epoch.
#[derive(Clone, Debug)]
pub struct Proposal {
    /// The candidate index that should be active next epoch (may equal
    /// `active` — a hold).
    pub target: usize,
    /// Per-candidate predicted epoch cost, for the decision log
    /// (`u64::MAX` marks a candidate the arbiter deemed ineligible).
    pub scores: Vec<u64>,
}

/// A pluggable scheme-selection policy. Implementations must be pure
/// functions of the observation — the engine supplies all hysteresis,
/// rate limiting, and legality checks — so decisions replay
/// deterministically.
pub trait SchemeArbiter: Send + Sync {
    /// Scores one epoch and names the candidate that should run next.
    fn decide(&self, obs: &EpochObservation<'_>) -> Proposal;
}

/// What the engine did with one epoch's proposal (the `action` field of
/// `adbt-adapt-v1` log lines and the payload of
/// [`adbt_trace::TraceKind::AdaptDecision`] records).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptAction {
    /// Proposal kept the active scheme.
    Hold,
    /// Proposal blocked by the atomicity-class policy.
    Deny,
    /// Proposal is building its hysteresis streak.
    Pending,
    /// Proposal blocked by the post-migration cooldown.
    Cooldown,
    /// Migration deferred because a vCPU is paused mid-block.
    Defer,
    /// Migration executed.
    Migrate,
}

impl AdaptAction {
    /// The action's log name.
    pub fn name(self) -> &'static str {
        match self {
            AdaptAction::Hold => "hold",
            AdaptAction::Deny => "deny",
            AdaptAction::Pending => "pending",
            AdaptAction::Cooldown => "cooldown",
            AdaptAction::Defer => "defer",
            AdaptAction::Migrate => "migrate",
        }
    }
}

/// Serialized arbitration state (everything that must be read-modify-
/// written atomically per epoch). Guarded by a try-lock: a vCPU that
/// loses the race simply skips arbitration for that epoch.
#[derive(Debug, Default)]
pub(crate) struct AdaptInner {
    /// Machine-wide epoch counter.
    pub epoch: u64,
    /// The candidate currently building a hysteresis streak.
    pub streak_target: usize,
    /// Consecutive epochs `streak_target` has won.
    pub streak: u32,
    /// Epochs left before another migration may fire.
    pub cooldown_left: u64,
    /// Retained `adbt-adapt-v1` decision log lines (when enabled).
    pub log: Vec<String>,
}

/// The machine's adaptive-arbitration runtime: candidate schemes, the
/// active index, and the serialized decision state.
pub(crate) struct AdaptRuntime {
    /// All candidate schemes, installed into the one helper registry.
    pub candidates: Vec<Arc<dyn AtomicScheme>>,
    /// Descriptors, parallel to `candidates`.
    pub infos: Vec<CandidateInfo>,
    /// Index of the scheme new translations use.
    pub active: AtomicUsize,
    /// Bumped once per executed migration. Every vCPU compares it
    /// against its last-seen value at dispatch edges and clears its
    /// local exclusive monitor on a change: an LL armed under the old
    /// scheme must never satisfy an SC lowered under the new one
    /// (spurious SC *failure* is architecturally legal; spurious
    /// success is not).
    pub generation: AtomicU64,
    /// Tuning.
    pub config: AdaptConfig,
    /// The scoring policy.
    pub arbiter: Arc<dyn SchemeArbiter>,
    /// Serialized decision state.
    pub inner: Mutex<AdaptInner>,
}

impl AdaptRuntime {
    pub(crate) fn new(
        candidates: Vec<Arc<dyn AtomicScheme>>,
        initial: usize,
        config: AdaptConfig,
        arbiter: Arc<dyn SchemeArbiter>,
    ) -> AdaptRuntime {
        let infos = candidates.iter().map(|s| CandidateInfo::of(&**s)).collect();
        AdaptRuntime {
            candidates,
            infos,
            active: AtomicUsize::new(initial),
            generation: AtomicU64::new(0),
            config,
            arbiter,
            inner: Mutex::new(AdaptInner::default()),
        }
    }

    /// Whether the policy lets the machine move `from ⇒ to`.
    pub(crate) fn class_move_ok(&self, from: usize, to: usize) -> bool {
        let (a, b) = (&self.infos[from], &self.infos[to]);
        if a.atomicity == b.atomicity {
            return true;
        }
        match self.config.policy {
            AdaptPolicy::Strong => false,
            AdaptPolicy::WeakOk => {
                a.atomicity != Atomicity::Incorrect && b.atomicity != Atomicity::Incorrect
            }
        }
    }

    /// Renders one `adbt-adapt-v1` decision line; a `u64::MAX` score
    /// (an ineligible candidate) is written as `null`.
    pub(crate) fn log_line(
        &self,
        epoch: u64,
        tid: u32,
        action: AdaptAction,
        target: usize,
        site: Option<u32>,
        scores: &[u64],
    ) -> String {
        let active = self.infos[self.active.load(Ordering::Relaxed)].name;
        let mut w = JsonWriter::new();
        w.obj().key("schema").str(LOG_SCHEMA).field("epoch", epoch);
        w.field("tid", tid).key("active").str(active);
        w.key("target").str(self.infos[target].name);
        w.key("action").str(action.name()).key("site");
        match site {
            Some(pc) => w.str(&format!("{pc:#010x}")),
            None => w.null(),
        };
        w.key("scores").arr();
        for &score in scores {
            match score {
                u64::MAX => w.null(),
                score => w.raw(score),
            };
        }
        w.end().end().finish()
    }
}

/// The schema tag of every decision-log line.
const LOG_SCHEMA: &str = "adbt-adapt-v1";

/// Validates an `adbt-adapt-v1` decision log (one JSON object per
/// line). Returns the number of lines on success, or a description of
/// the first violation.
pub fn validate_adapt_log(text: &str) -> Result<usize, String> {
    for (i, line) in text.lines().enumerate() {
        check_log_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(text.lines().count())
}

/// Checks one decision line: its schema tag and every field's type.
fn check_log_line(line: &str) -> Result<(), String> {
    let line = parse_json(line)?;
    if line.str_field("schema")? != LOG_SCHEMA {
        return Err(format!("not an {LOG_SCHEMA} object"));
    }
    line.u64_field("epoch")?;
    line.u64_field("tid")?;
    line.str_field("active")?;
    line.str_field("target")?;
    let action = line.str_field("action")?;
    let known = [
        AdaptAction::Hold,
        AdaptAction::Deny,
        AdaptAction::Pending,
        AdaptAction::Cooldown,
        AdaptAction::Defer,
        AdaptAction::Migrate,
    ];
    if !known.iter().any(|a| a.name() == action) {
        return Err(format!("unknown action {action:?}"));
    }
    if *line.field("site")? != Json::Null {
        line.u32_field("site")?;
    }
    for score in line.arr_field("scores")? {
        if *score != Json::Null && score.as_u64().is_none() {
            return Err(format!("bad score {score:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for p in [AdaptPolicy::Strong, AdaptPolicy::WeakOk] {
            assert_eq!(AdaptPolicy::from_name(&p.to_string()), Some(p));
        }
        assert_eq!(AdaptPolicy::from_name("bogus"), None);
    }

    #[test]
    fn cost_under_prices_signals() {
        let m = SchemeCostModel {
            store_unit: 2,
            sc_unit: 10,
            sc_retry_unit: 5,
            contention_unit: 7,
            fault_unit: 100,
        };
        let sig = EpochSignals {
            insns: 1000,
            stores: 50,
            sc: 10,
            sc_failures: 4,
            htm_aborts: 1,
            page_faults: 2,
            false_sharing: 1,
            invalidations: 0,
        };
        // 1000 + 100 + 100 + 20 + 35 + 300
        assert_eq!(sig.cost_under(&m), 1555);
        assert_eq!(sig.cost_under(&SchemeCostModel::NEUTRAL), 1000);
    }

    /// A candidate that only has a name.
    struct Named(&'static str);

    impl AtomicScheme for Named {
        fn name(&self) -> &'static str {
            self.0
        }
        fn atomicity(&self) -> Atomicity {
            Atomicity::Strong
        }
        fn install(&mut self, _: &mut crate::HelperRegistry) {}
        fn lower_ll(&self, _: &mut adbt_ir::BlockBuilder, _: adbt_ir::Slot, _: adbt_ir::Src) {}
        fn lower_sc(
            &self,
            _: &mut adbt_ir::BlockBuilder,
            _: adbt_ir::Slot,
            _: adbt_ir::Src,
            _: adbt_ir::Src,
        ) {
        }
        fn lower_clrex(&self, _: &mut adbt_ir::BlockBuilder) {}
    }

    /// An arbiter that always holds.
    struct HoldAll;

    impl SchemeArbiter for HoldAll {
        fn decide(&self, obs: &EpochObservation<'_>) -> Proposal {
            Proposal {
                target: obs.active,
                scores: Vec::new(),
            }
        }
    }

    /// One decision line, pinned byte for byte: a `null` site and an
    /// ineligible candidate's `null` score.
    #[test]
    fn log_line_is_pinned() {
        let candidates: Vec<Arc<dyn AtomicScheme>> =
            vec![Arc::new(Named("hst")), Arc::new(Named("pst"))];
        let runtime = AdaptRuntime::new(candidates, 1, AdaptConfig::default(), Arc::new(HoldAll));
        let line = runtime.log_line(7, 2, AdaptAction::Pending, 0, None, &[120, u64::MAX]);
        let golden = include_str!("../tests/data/adapt_log_line.json");
        assert_eq!(line, golden.trim_end());
        assert_eq!(validate_adapt_log(&line), Ok(1));
    }

    #[test]
    fn adapt_log_validator_accepts_rendered_lines() {
        let line = "{\"schema\":\"adbt-adapt-v1\",\"epoch\":3,\"tid\":0,\
                    \"active\":\"hst\",\"target\":\"pst\",\"action\":\"migrate\",\
                    \"site\":\"0x00001000\",\"scores\":[100,null,200]}";
        assert_eq!(validate_adapt_log(line), Ok(1));
        assert_eq!(validate_adapt_log(&format!("{line}\n{line}")), Ok(2));
        assert!(validate_adapt_log("{\"schema\":\"other\"}").is_err());
        assert!(validate_adapt_log("").is_ok());
        let bad = line.replace("migrate", "explode");
        assert!(validate_adapt_log(&bad).unwrap_err().contains("explode"));
        for bad in [
            "{\"schema\":\"adbt-adapt-v1\",\"epoch\":\"tid\":\"active\":\"target\":\
             \"action\":\"hold\",\"site\":\"scores\":[}",
            &line.replace("[100,null,200]", "[100,null,200,]"),
            &line.replace(
                "\"epoch\":3,\"tid\":0,\"active\":\"hst\",\"target\":\"pst\"",
                "\"epoch\":-5,\"tid\":\"x\",\"active\":7,\"target\":null",
            ),
        ] {
            assert!(validate_adapt_log(bad).is_err(), "{bad}");
        }
    }
}
