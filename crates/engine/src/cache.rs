//! The sharded shared translation cache, with a full lifecycle:
//! insert, invalidate, retire, reclaim.
//!
//! Two structures cooperate on the hot path:
//!
//! * an **arena** — a segmented table assigning each translated block a
//!   dense `u32` id. Reads ([`TranslationCache::block`]) are lock-free:
//!   segments are never reallocated, ids are never reused, and an id is
//!   only published (through a shard map, an L1 entry or a chain link)
//!   *after* its slot is initialized. Since PR 7 slots hold an
//!   `AtomicPtr` instead of a write-once cell: a retired block's
//!   pointer survives until a quiescent-state grace period elapses
//!   (every vCPU passed a safepoint), then the slot reads null and
//!   `block(id)` returns `None` — a stale id held across a grace
//!   period is a caller bug that panics, never a use-after-free;
//! * **16 PC-hashed shards** of `RwLock<HashMap<pc, id>>` — the cold
//!   lookup path. Sharding keeps one vCPU's cold-code translation from
//!   serializing every other vCPU's misses.
//!
//! Around them live the **lifecycle indexes**, all cold-path only:
//!
//! * a **page index** (code page → block ids) driving self-modifying
//!   code invalidation: every page backing translated code is
//!   write-tracked in the MMU, and a guest store into one resolves its
//!   victims here;
//! * an **edge index** (target id → patched predecessor links) so
//!   retiring a block revokes every chain link pointing at it —
//!   `adbt_ir::ChainLink` became revocable in this PR for exactly this;
//! * a **superblock registry** (superblock id → entry block + pages) so
//!   invalidation demotes stitched code back to the block tier and
//!   re-opens the entry block for promotion;
//! * a **limbo list** of retired ids stamped with their retirement
//!   epoch, freed by [`TranslationCache::reclaim_limbo`] once the
//!   QSBR grace period ([`adbt_sync::epoch::Qsbr`]) has elapsed.
//!
//! # Mutation discipline
//!
//! Retirement ([`TranslationCache::retire_batch`]) and flushes run only
//! inside the engine's stop-the-world exclusive window: every other
//! vCPU is parked at a safepoint, so the lifecycle indexes see a single
//! mutator and the revocation of a chain link cannot race a patch.
//! Reclamation runs *outside* the window, gated purely by the epoch
//! scheme. Inserts and edge registrations run concurrently under their
//! own locks.
//!
//! # Memory accounting
//!
//! Every live-or-limbo block holds a byte reservation
//! ([`TranslationCache::try_reserve`], released on duplicate inserts
//! and at physical free). With a configured limit the reservation is a
//! *hard* bound: the occupancy peak can never exceed it.

use adbt_ir::Block;
use adbt_sync::epoch::Qsbr;
use adbt_sync::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// log2 of blocks per arena segment.
const SEG_BITS: u32 = 10;
/// Blocks per segment.
const SEG_SIZE: u32 = 1 << SEG_BITS;
/// Maximum segments (caps the cache at 4 M blocks — far beyond any
/// guest this reproduction runs; exceeding it is a hard error).
const MAX_SEGS: usize = 4096;
/// Shard count; per-PC traffic spreads across these.
const SHARDS: usize = 16;

/// The smallest meaningful `--cache-limit`: one fully-populated arena
/// segment's fixed footprint. A limit below this could not hold even
/// one segment of empty blocks, so flag validation rejects it.
pub(crate) const SEGMENT_FOOTPRINT: u64 =
    SEG_SIZE as u64 * (std::mem::size_of::<ArenaSlot>() + std::mem::size_of::<Block>()) as u64;

/// Tier state of [`TierMeta::state`]: the block is cold (counting
/// executions toward the promotion threshold).
const TIER_COLD: u8 = 0;
/// One vCPU won the promotion claim and is building (or has deferred
/// building) the superblock; nobody else may try.
const TIER_CLAIMED: u8 = 1;
/// Promotion resolved: either `super_id` is published, or the block was
/// ruled permanently unsuitable (`super_id` stays [`NO_SUPERBLOCK`]).
const TIER_RESOLVED: u8 = 2;

/// Sentinel in [`TierMeta::super_id`]: no superblock.
const NO_SUPERBLOCK: u32 = u32::MAX;

/// Estimated bytes one cached block pins: its arena slot, the boxed
/// block header, the op vector's capacity and the tape's allocation.
/// Nested allocations (helper argument vectors) are ignored — the
/// estimate only needs to be *consistent* between reservation and free,
/// and dominated by the op vector and tape it does count.
pub(crate) fn block_footprint(block: &Block) -> u64 {
    (std::mem::size_of::<ArenaSlot>()
        + std::mem::size_of::<Block>()
        + block.ops.capacity() * std::mem::size_of::<adbt_ir::Op>()
        + block.tape.bytes()) as u64
}

/// Per-block tiering metadata, living beside the block in its arena
/// slot so the dispatch path finds it with the same index arithmetic as
/// the block itself.
pub(crate) struct TierMeta {
    /// Relaxed execution counter; compared against the promotion
    /// threshold on every counted dispatch.
    heat: AtomicU32,
    /// Promotion state machine: cold → claimed → resolved.
    state: AtomicU8,
    /// The published superblock's arena id, or [`NO_SUPERBLOCK`].
    super_id: AtomicU32,
    /// Index of the [`crate::AtomicScheme`] the block was lowered
    /// under (always 0 on static machines). Written once in `push`,
    /// before the slot is published; the adaptive arbiter and the
    /// tier-2 walker read it to keep scheme cohorts from mixing.
    scheme_tag: AtomicU8,
}

impl TierMeta {
    fn new() -> TierMeta {
        TierMeta {
            heat: AtomicU32::new(0),
            state: AtomicU8::new(TIER_COLD),
            super_id: AtomicU32::new(NO_SUPERBLOCK),
            scheme_tag: AtomicU8::new(0),
        }
    }
}

/// The block pointer of one arena slot: null when empty or freed,
/// otherwise an owned `Box<Block>` published with Release. The slot —
/// not any reader — owns the allocation; readers borrow it under the
/// QSBR contract (see [`TranslationCache::block`]).
struct BlockCell(AtomicPtr<Block>);

impl BlockCell {
    fn new() -> BlockCell {
        BlockCell(AtomicPtr::new(std::ptr::null_mut()))
    }
}

impl Drop for BlockCell {
    fn drop(&mut self) {
        let ptr = *self.0.get_mut();
        if !ptr.is_null() {
            // Safety: a non-null cell pointer is always the Box the
            // slot owns; by `&mut self` no reader can exist.
            drop(unsafe { Box::from_raw(ptr) });
        }
    }
}

/// One arena slot: the block pointer plus its mutable tier metadata.
/// Freed slots keep their metadata skeleton — it is arena bookkeeping,
/// not block state, and ids are never reused.
struct ArenaSlot {
    block: BlockCell,
    meta: TierMeta,
}

impl ArenaSlot {
    fn new() -> ArenaSlot {
        ArenaSlot {
            block: BlockCell::new(),
            meta: TierMeta::new(),
        }
    }
}

type Segment = Box<[ArenaSlot]>;

/// A retired block awaiting its grace period.
struct LimboEntry {
    id: u32,
    /// The QSBR epoch the retirement batch opened; freeable once every
    /// online vCPU has quiesced at or after it.
    epoch: u64,
}

/// Everything registered about one superblock, recorded at publication
/// and consumed at demotion.
struct SuperMeta {
    /// The original entry block whose redirect points at this
    /// superblock (demotion resets its tier metadata).
    entry: u32,
    /// Code pages the stitched segments cover — the superblock's page-
    /// index registrations, removed when it retires.
    pages: Vec<u32>,
}

/// The outcome of one [`TranslationCache::insert`].
pub(crate) struct InsertResult {
    /// The id `pc` now maps to.
    pub(crate) id: u32,
    /// Whether this call pushed the block (`false`: another vCPU won
    /// the translation race and the reservation was released).
    pub(crate) fresh: bool,
    /// Code pages newly added to the page index — the caller must
    /// write-track them in the MMU before resuming the guest.
    pub(crate) new_pages: Vec<u32>,
}

/// The outcome of one retirement batch.
#[derive(Debug, Default)]
pub(crate) struct RetireSummary {
    /// Original blocks retired.
    pub(crate) retired: u64,
    /// Superblocks demoted (also retired; counted separately).
    pub(crate) demoted: u64,
    /// Estimated bytes the retired blocks will release at reclaim.
    pub(crate) footprint: u64,
    /// Pages whose last registration disappeared — the caller must
    /// un-write-track them in the MMU.
    pub(crate) untrack_pages: Vec<u32>,
}

/// A point-in-time cache occupancy snapshot (`--stats`, watchdog
/// dumps, bounded-memory assertions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOccupancy {
    /// Original blocks currently live (inserted, not retired).
    pub live_blocks: u64,
    /// Superblocks currently live.
    pub live_superblocks: u64,
    /// Bytes currently reserved by live + limbo blocks.
    pub arena_bytes: u64,
    /// High-water mark of `arena_bytes` (never exceeds a configured
    /// cache limit).
    pub peak_bytes: u64,
    /// Invalidation events (SMC stores, chaos storms, flush passes) —
    /// batches, not victims.
    pub invalidations: u64,
    /// Cache-pressure flush passes.
    pub flushes: u64,
    /// Total blocks ever retired (originals + demoted superblocks).
    pub retired_blocks: u64,
    /// Blocks physically freed after their grace period.
    pub reclaimed_blocks: u64,
    /// Arena segments whose slots are all freed.
    pub reclaimed_segments: u64,
}

impl CacheOccupancy {
    /// Renders the snapshot as one JSON object — the occupancy block of
    /// the `adbt-metrics-v1` snapshot schema. Exhaustive destructure so
    /// a new field cannot silently miss the export.
    pub fn to_json(&self) -> String {
        let CacheOccupancy {
            live_blocks,
            live_superblocks,
            arena_bytes,
            peak_bytes,
            invalidations,
            flushes,
            retired_blocks,
            reclaimed_blocks,
            reclaimed_segments,
        } = self;
        format!(
            "{{\"live_blocks\":{live_blocks},\"live_superblocks\":{live_superblocks},\
             \"arena_bytes\":{arena_bytes},\"peak_bytes\":{peak_bytes},\
             \"invalidations\":{invalidations},\"flushes\":{flushes},\
             \"retired_blocks\":{retired_blocks},\"reclaimed_blocks\":{reclaimed_blocks},\
             \"reclaimed_segments\":{reclaimed_segments}}}"
        )
    }
}

/// The shared translation cache: sharded PC index over a segmented
/// block arena, plus the lifecycle indexes (see the module docs).
pub(crate) struct TranslationCache {
    shards: Vec<RwLock<HashMap<u32, u32>>>,
    segments: Vec<OnceLock<Segment>>,
    len: AtomicU32,
    /// Superblocks currently live (pushed minus demoted).
    superblocks: AtomicU32,
    /// Serializes appends (cold path: one lock hold per *translation*,
    /// not per dispatch).
    push_lock: Mutex<()>,
    /// Live blocks per segment; a fully-allocated segment whose count
    /// reaches zero is a *reclaimed* segment.
    seg_live: Vec<AtomicU32>,
    /// Code page → ids of translations backed by it.
    page_index: Mutex<HashMap<u32, Vec<u32>>>,
    /// Target id → `(predecessor id, taken-leg?)` of patched chain
    /// links, registered at patch time and consumed at retirement.
    edges: Mutex<HashMap<u32, Vec<(u32, bool)>>>,
    /// Superblock id → its registration (entry block, covered pages).
    supers: Mutex<HashMap<u32, SuperMeta>>,
    /// Retired blocks awaiting their grace period.
    limbo: Mutex<Vec<LimboEntry>>,
    /// Relaxed fast-path hint that `limbo` is non-empty, so the
    /// dispatch loop's quiesce hook pays one load when there is
    /// nothing to reclaim.
    limbo_pending: AtomicBool,
    /// Bytes reserved by live + limbo blocks.
    bytes: AtomicU64,
    /// High-water mark of `bytes`.
    peak_bytes: AtomicU64,
    /// Hard byte limit for reservations (0 = unlimited).
    limit: AtomicU64,
    /// Invalidation generation: bumped once per retirement batch or
    /// flush; per-vCPU L1 caches compare against it and clear on
    /// mismatch.
    version: AtomicU32,
    invalidations: AtomicU64,
    flushes: AtomicU64,
    retired: AtomicU64,
    reclaimed_blocks: AtomicU64,
    reclaimed_segments: AtomicU64,
}

impl TranslationCache {
    pub(crate) fn new() -> TranslationCache {
        TranslationCache {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            segments: (0..MAX_SEGS).map(|_| OnceLock::new()).collect(),
            len: AtomicU32::new(0),
            superblocks: AtomicU32::new(0),
            push_lock: Mutex::new(()),
            seg_live: (0..MAX_SEGS).map(|_| AtomicU32::new(0)).collect(),
            page_index: Mutex::new(HashMap::new()),
            edges: Mutex::new(HashMap::new()),
            supers: Mutex::new(HashMap::new()),
            limbo: Mutex::new(Vec::new()),
            limbo_pending: AtomicBool::new(false),
            bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            limit: AtomicU64::new(0),
            version: AtomicU32::new(0),
            invalidations: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            reclaimed_blocks: AtomicU64::new(0),
            reclaimed_segments: AtomicU64::new(0),
        }
    }

    /// Sets the hard byte limit (0 = unlimited); called once at machine
    /// construction, before any vCPU runs.
    pub(crate) fn set_limit(&self, bytes: u64) {
        self.limit.store(bytes, Ordering::Relaxed);
    }

    /// The configured hard byte limit (0 = unlimited).
    pub(crate) fn limit(&self) -> u64 {
        self.limit.load(Ordering::Relaxed)
    }

    #[inline]
    fn shard(&self, pc: u32) -> &RwLock<HashMap<u32, u32>> {
        // Low bits beyond the word alignment; adjacent blocks land in
        // different shards.
        &self.shards[(pc as usize >> 2) % SHARDS]
    }

    /// Looks up the id of the block translated at `pc`.
    #[inline]
    pub(crate) fn lookup(&self, pc: u32) -> Option<u32> {
        self.shard(pc).read().get(&pc).copied()
    }

    #[inline]
    fn slot(&self, id: u32) -> &ArenaSlot {
        let segment = self.segments[(id >> SEG_BITS) as usize]
            .get()
            .expect("published id implies initialized segment");
        &segment[(id & (SEG_SIZE - 1)) as usize]
    }

    /// Dereferences a block id; `None` if the block was retired and its
    /// grace period already reclaimed it.
    ///
    /// # Safety contract (enforced by the engine, not the type system)
    ///
    /// The returned borrow is only sound because callers obey the QSBR
    /// protocol: a vCPU thread announces quiescence *only* at points
    /// where it holds no such borrow (the top of a dispatch step), so a
    /// borrow taken after the thread's last announcement cannot be
    /// freed before its next one. Post-run accessors (dump, report,
    /// tests) are sound trivially — no reclaimer runs concurrently.
    #[inline]
    pub(crate) fn block(&self, id: u32) -> Option<&Block> {
        let ptr = self.slot(id).block.0.load(Ordering::Acquire);
        if ptr.is_null() {
            None
        } else {
            // Safety: non-null pointers are Boxes owned by the cell,
            // freed only after a QSBR grace period excludes live
            // borrows (see the contract above).
            Some(unsafe { &*ptr })
        }
    }

    /// The published superblock id for `id`, if one exists. Acquire
    /// pairs with the Release in [`TranslationCache::publish_superblock`];
    /// an observed id dereferences a fully initialized arena slot (the
    /// push's own Release/Acquire covers the slot contents).
    #[inline]
    pub(crate) fn hot_redirect(&self, id: u32) -> Option<u32> {
        let sid = self.slot(id).meta.super_id.load(Ordering::Acquire);
        (sid != NO_SUPERBLOCK).then_some(sid)
    }

    /// Counts one execution of `id` toward promotion. Returns `true`
    /// exactly once per claim cycle — when this caller's increment
    /// crossed `threshold` and won the cold→claimed race — meaning the
    /// caller now owns building the superblock.
    #[inline]
    pub(crate) fn bump_heat(&self, id: u32, threshold: u32) -> bool {
        let meta = &self.slot(id).meta;
        let heat = meta.heat.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        heat >= threshold
            && meta
                .state
                .compare_exchange(TIER_COLD, TIER_CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Publishes the built superblock `sid` as `id`'s hot redirect and
    /// registers it for lifecycle tracking: `parts` are the original
    /// blocks it stitched, whose code pages become the superblock's own
    /// page-index registrations (so a store into *any* stitched page
    /// demotes it, even if the overwritten original was itself already
    /// retired). Caller must hold the claim from
    /// [`TranslationCache::bump_heat`].
    pub(crate) fn publish_superblock(&self, id: u32, sid: u32, parts: &[u32]) {
        let mut pages: Vec<u32> = Vec::new();
        {
            let mut page_index = self.page_index.lock();
            for &part in parts {
                let Some(block) = self.block(part) else {
                    continue;
                };
                for page in page_range(block) {
                    let ids = page_index.entry(page).or_default();
                    if !ids.contains(&sid) {
                        ids.push(sid);
                        pages.push(page);
                    }
                }
            }
        }
        self.supers
            .lock()
            .insert(sid, SuperMeta { entry: id, pages });
        let meta = &self.slot(id).meta;
        meta.super_id.store(sid, Ordering::Release);
        meta.state.store(TIER_RESOLVED, Ordering::Release);
    }

    /// Returns a claimed block to the cold state so promotion is retried
    /// after its successor links warm up. Caller must hold the claim.
    pub(crate) fn retry_promotion_later(&self, id: u32) {
        let meta = &self.slot(id).meta;
        meta.heat.store(0, Ordering::Relaxed);
        meta.state.store(TIER_COLD, Ordering::Release);
    }

    /// Resolves a claimed block as permanently unsuitable for promotion
    /// (indirect exit, un-stitchable shape). Caller must hold the claim.
    pub(crate) fn never_promote(&self, id: u32) {
        self.slot(id)
            .meta
            .state
            .store(TIER_RESOLVED, Ordering::Release);
    }

    /// Appends a superblock to the arena *without* a PC-index entry:
    /// superblocks are reachable only through their entry block's
    /// redirect, never via cold lookup (so the block-granular tier
    /// always resolves original blocks). Caller must hold a byte
    /// reservation for the block.
    pub(crate) fn push_anonymous(&self, block: Block, scheme_tag: u8) -> u32 {
        let id = self.push(block, scheme_tag);
        self.superblocks.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// The scheme tag a live block was lowered under.
    pub(crate) fn scheme_tag(&self, id: u32) -> u8 {
        self.slot(id).meta.scheme_tag.load(Ordering::Relaxed)
    }

    /// Superblocks currently live in the arena.
    pub(crate) fn superblock_count(&self) -> u64 {
        self.superblocks.load(Ordering::Relaxed) as u64
    }

    /// Reserves `footprint` bytes for an upcoming insert. With a limit
    /// configured the reservation is all-or-nothing: on `false` nothing
    /// was reserved and the caller must make room (flush + reclaim)
    /// before retrying.
    pub(crate) fn try_reserve(&self, footprint: u64) -> bool {
        let limit = self.limit.load(Ordering::Relaxed);
        let total = self.bytes.fetch_add(footprint, Ordering::Relaxed) + footprint;
        if limit > 0 && total > limit {
            self.bytes.fetch_sub(footprint, Ordering::Relaxed);
            return false;
        }
        self.peak_bytes.fetch_max(total, Ordering::Relaxed);
        true
    }

    /// Releases an unused reservation (lost translation race, deferred
    /// promotion).
    pub(crate) fn unreserve(&self, footprint: u64) {
        self.bytes.fetch_sub(footprint, Ordering::Relaxed);
    }

    /// Current reserved bytes (live + limbo).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Inserts a freshly translated block, returning its id, whether
    /// this call pushed it, and any code pages that now need MMU
    /// write-tracking. Caller must hold a reservation of
    /// [`block_footprint`] bytes; it is released on a lost race.
    /// `scheme_tag` records which scheme lowered the block.
    pub(crate) fn insert(&self, pc: u32, block: Block, scheme_tag: u8) -> InsertResult {
        let footprint = block_footprint(&block);
        let pages = page_range(&block);
        let mut shard = self.shard(pc).write();
        if let Some(&id) = shard.get(&pc) {
            self.unreserve(footprint);
            return InsertResult {
                id,
                fresh: false,
                new_pages: Vec::new(),
            };
        }
        let id = self.push(block, scheme_tag);
        shard.insert(pc, id);
        drop(shard);
        let mut new_pages = Vec::new();
        let mut page_index = self.page_index.lock();
        for page in pages {
            let ids = page_index.entry(page).or_default();
            if ids.is_empty() {
                new_pages.push(page);
            }
            ids.push(id);
        }
        InsertResult {
            id,
            fresh: true,
            new_pages,
        }
    }

    fn push(&self, block: Block, scheme_tag: u8) -> u32 {
        let _guard = self.push_lock.lock();
        let id = self.len.load(Ordering::Relaxed);
        let seg_index = (id >> SEG_BITS) as usize;
        assert!(seg_index < MAX_SEGS, "translation cache full");
        let segment = self.segments[seg_index].get_or_init(|| {
            (0..SEG_SIZE)
                .map(|_| ArenaSlot::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        let slot = &segment[(id & (SEG_SIZE - 1)) as usize];
        // Written before the len Release below publishes the slot, so
        // any reader that can name `id` sees the tag.
        slot.meta.scheme_tag.store(scheme_tag, Ordering::Relaxed);
        let prev = slot
            .block
            .0
            .swap(Box::into_raw(Box::new(block)), Ordering::Release);
        assert!(prev.is_null(), "arena slot written twice");
        self.seg_live[seg_index].fetch_add(1, Ordering::Relaxed);
        // Publish only after the slot is initialized.
        self.len.store(id + 1, Ordering::Release);
        id
    }

    /// Number of ids ever allocated (including retired ones).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Registers a patched chain link `pred --taken?--> target` so
    /// retiring `target` can revoke it. Called from the dispatch loop's
    /// patch site — once per edge per lifetime, never per traversal.
    pub(crate) fn register_edge(&self, target: u32, pred: u32, taken: bool) {
        self.edges
            .lock()
            .entry(target)
            .or_default()
            .push((pred, taken));
    }

    /// Resolves the translations a guest store to `[addr, addr+width)`
    /// invalidates: original blocks whose code range overlaps the
    /// store, plus every superblock registered on the store's page
    /// (conservatively — a demotion is always safe, merely slower).
    /// An empty result means the tracked page faulted for an unrelated
    /// address: code/data false sharing on the page.
    pub(crate) fn victims_for_store(&self, addr: u32, width_bytes: u32) -> Vec<u32> {
        let page = addr >> adbt_mmu::PAGE_SHIFT;
        let page_index = self.page_index.lock();
        let Some(ids) = page_index.get(&page) else {
            return Vec::new();
        };
        let end = addr.saturating_add(width_bytes);
        ids.iter()
            .copied()
            .filter(|&id| {
                self.block(id).is_some_and(|block| {
                    block.superblock || {
                        let code_end = block.guest_pc + 4 * block.guest_len;
                        addr < code_end && end > block.guest_pc
                    }
                })
            })
            .collect()
    }

    /// Retires a batch of victims: marks them invalidated, unlinks
    /// their PC-index entries, revokes incoming chain links, demotes
    /// superblocks stitching them, and parks them in limbo stamped with
    /// `epoch` (from [`Qsbr::begin_grace`]) for later reclamation.
    ///
    /// **Must run inside a stop-the-world exclusive window** — the
    /// single-mutator discipline is what makes link revocation and
    /// index surgery race-free (see the module docs).
    pub(crate) fn retire_batch(&self, victims: &[u32], epoch: u64) -> RetireSummary {
        let mut summary = RetireSummary::default();
        let mut work: Vec<u32> = victims.to_vec();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut page_index = self.page_index.lock();
        let mut edges = self.edges.lock();
        let mut supers = self.supers.lock();
        let mut limbo = self.limbo.lock();
        while let Some(id) = work.pop() {
            if !seen.insert(id) {
                continue;
            }
            let Some(block) = self.block(id) else {
                continue;
            };
            if block.invalidated.is_set() {
                continue;
            }
            block.invalidated.set();
            summary.footprint += block_footprint(block);
            let pages: Vec<u32>;
            if block.superblock {
                // Demote: clear the entry block's redirect and reset
                // its tier state so it can heat up and re-promote
                // against the fresh code.
                let meta = supers.remove(&id);
                pages = meta.as_ref().map(|m| m.pages.clone()).unwrap_or_default();
                if let Some(meta) = meta {
                    // The entry may itself be retired in this batch (or
                    // an earlier one) — resetting its skeleton metadata
                    // is still harmless.
                    let entry_meta = &self.slot(meta.entry).meta;
                    entry_meta.super_id.store(NO_SUPERBLOCK, Ordering::Release);
                    entry_meta.heat.store(0, Ordering::Relaxed);
                    entry_meta.state.store(TIER_COLD, Ordering::Release);
                }
                self.superblocks.fetch_sub(1, Ordering::Relaxed);
                summary.demoted += 1;
            } else {
                pages = page_range(block).collect();
                // Unlink the PC index entry — but only if it still maps
                // to this id (a fresh retranslation may own it by now).
                let mut shard = self.shard(block.guest_pc).write();
                if shard.get(&block.guest_pc) == Some(&id) {
                    shard.remove(&block.guest_pc);
                }
                drop(shard);
                // A published superblock redirect dies with its entry.
                let sid = self.slot(id).meta.super_id.load(Ordering::Acquire);
                if sid != NO_SUPERBLOCK {
                    work.push(sid);
                }
                summary.retired += 1;
            }
            // Revoke every patched chain link pointing at the victim.
            // `revoke_if` leaves edges that were already revoked and
            // re-patched to a newer translation alone; predecessors
            // freed in earlier batches read as `None` and are skipped.
            if let Some(preds) = edges.remove(&id) {
                for (pred, taken) in preds {
                    if let Some(pred_block) = self.block(pred) {
                        let link = if taken {
                            &pred_block.links.taken
                        } else {
                            &pred_block.links.fallthrough
                        };
                        link.revoke_if(id);
                    }
                }
            }
            // Drop the victim's page registrations; a page with none
            // left no longer needs MMU write-tracking.
            for page in pages {
                if let Some(ids) = page_index.get_mut(&page) {
                    ids.retain(|&x| x != id);
                    if ids.is_empty() {
                        page_index.remove(&page);
                        summary.untrack_pages.push(page);
                    }
                }
            }
            limbo.push(LimboEntry { id, epoch });
        }
        if !limbo.is_empty() {
            self.limbo_pending.store(true, Ordering::Relaxed);
        }
        if summary.retired + summary.demoted > 0 {
            self.retired
                .fetch_add(summary.retired + summary.demoted, Ordering::Relaxed);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            // Invalidate every vCPU's L1 front cache.
            self.version.fetch_add(1, Ordering::Release);
        }
        summary
    }

    /// A generational cache-pressure flush, coldest code first: pass 1
    /// demotes every superblock back to its block tier; pass 2 (if pass
    /// 1's projected release cannot bring reservations down to
    /// `target_bytes`) retires original blocks in ascending heat order
    /// until it can; a target no passes can reach degenerates into a
    /// full flush. Must run inside a stop-the-world exclusive window.
    ///
    /// Bytes are actually released later, by reclamation after the
    /// grace period — the caller loops quiesce/reclaim/retry.
    pub(crate) fn flush_generational(&self, target_bytes: u64, epoch: u64) -> RetireSummary {
        let live_sids: Vec<u32> = self.supers.lock().keys().copied().collect();
        let mut summary = self.retire_batch(&live_sids, epoch);
        let needed = self.bytes().saturating_sub(target_bytes);
        if summary.footprint < needed {
            // Coldest original blocks next. Heat is a relaxed counter —
            // an approximate order is fine, the tie-break on id keeps
            // it deterministic.
            let len = self.len() as u32;
            let mut cold: Vec<(u32, u32)> = (0..len)
                .filter(|&id| {
                    self.block(id)
                        .is_some_and(|b| !b.superblock && !b.invalidated.is_set())
                })
                .map(|id| (self.slot(id).meta.heat.load(Ordering::Relaxed), id))
                .collect();
            cold.sort_unstable();
            for (_, id) in cold {
                if summary.footprint >= needed {
                    break;
                }
                let pass = self.retire_batch(&[id], epoch);
                summary.retired += pass.retired;
                summary.demoted += pass.demoted;
                summary.footprint += pass.footprint;
                summary.untrack_pages.extend(pass.untrack_pages);
            }
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        summary
    }

    /// Whether limbo holds anything — one relaxed load, cheap enough
    /// for the dispatch loop's quiesce hook.
    #[inline]
    pub(crate) fn limbo_pending(&self) -> bool {
        self.limbo_pending.load(Ordering::Relaxed)
    }

    /// Frees every limbo entry whose grace period has elapsed (every
    /// online participant quiesced at or after its retirement epoch).
    /// Runs *outside* exclusive windows; `try_lock` keeps concurrent
    /// quiesce hooks from convoying — one thread reclaims, the rest
    /// skip. Returns `(blocks freed, total segments reclaimed)` when
    /// anything was freed.
    pub(crate) fn reclaim_limbo(&self, qsbr: &Qsbr) -> Option<(u64, u64)> {
        if !self.limbo_pending() {
            return None;
        }
        let mut limbo = self.limbo.try_lock()?;
        let before = limbo.len();
        limbo.retain(|entry| {
            if qsbr.grace_elapsed(entry.epoch) {
                // Debug-mode reachability check: retirement must have
                // unlinked this block — freeing is only legal when it
                // is marked invalidated and its guest pc no longer
                // resolves to it through the PC index. (Superblocks are
                // anonymous: their entry pc resolves to the original.)
                #[cfg(debug_assertions)]
                if let Some(block) = self.block(entry.id) {
                    debug_assert!(
                        block.invalidated.is_set(),
                        "freeing block {} that was never invalidated",
                        entry.id
                    );
                    debug_assert!(
                        self.lookup(block.guest_pc) != Some(entry.id),
                        "freeing block {} still reachable at pc {:#x}",
                        entry.id,
                        block.guest_pc
                    );
                }
                self.free_slot(entry.id);
                false
            } else {
                true
            }
        });
        if limbo.is_empty() {
            self.limbo_pending.store(false, Ordering::Relaxed);
        }
        let freed = (before - limbo.len()) as u64;
        (freed > 0).then(|| {
            self.reclaimed_blocks.fetch_add(freed, Ordering::Relaxed);
            (freed, self.reclaimed_segments.load(Ordering::Relaxed))
        })
    }

    /// Physically frees one retired slot: swaps the pointer to null,
    /// drops the Box, releases the byte reservation, and counts the
    /// segment as reclaimed when its last live block goes.
    fn free_slot(&self, id: u32) {
        let ptr = self
            .slot(id)
            .block
            .0
            .swap(std::ptr::null_mut(), Ordering::AcqRel);
        assert!(!ptr.is_null(), "limbo entry {id} freed twice");
        // Safety: the pointer is the Box the cell owned; the caller
        // (reclaim) proved no reader can still hold a borrow.
        let block = unsafe { Box::from_raw(ptr) };
        self.unreserve(block_footprint(&block));
        drop(block);
        let seg = (id >> SEG_BITS) as usize;
        let seg_full = self.len.load(Ordering::Acquire) >= ((seg as u32) + 1) << SEG_BITS;
        if self.seg_live[seg].fetch_sub(1, Ordering::Relaxed) == 1 && seg_full {
            self.reclaimed_segments.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The current invalidation generation; per-vCPU L1 caches compare
    /// against it and clear on mismatch.
    #[inline]
    pub(crate) fn version(&self) -> u32 {
        self.version.load(Ordering::Acquire)
    }

    /// Retired ids still awaiting their grace period (tests).
    #[cfg(test)]
    fn limbo_len(&self) -> usize {
        self.limbo.lock().len()
    }

    /// A point-in-time occupancy snapshot.
    pub(crate) fn occupancy(&self) -> CacheOccupancy {
        let len = self.len.load(Ordering::Acquire) as u64;
        let retired = self.retired.load(Ordering::Relaxed);
        let live_superblocks = self.superblocks.load(Ordering::Relaxed) as u64;
        CacheOccupancy {
            live_blocks: (len - retired).saturating_sub(live_superblocks),
            live_superblocks,
            arena_bytes: self.bytes(),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            retired_blocks: retired,
            reclaimed_blocks: self.reclaimed_blocks.load(Ordering::Relaxed),
            reclaimed_segments: self.reclaimed_segments.load(Ordering::Relaxed),
        }
    }
}

/// The code pages `[guest_pc, guest_pc + 4·guest_len)` covers.
fn page_range(block: &Block) -> std::ops::RangeInclusive<u32> {
    let first = block.guest_pc >> adbt_mmu::PAGE_SHIFT;
    let last = (block.guest_pc + 4 * block.guest_len.max(1) - 1) >> adbt_mmu::PAGE_SHIFT;
    first..=last
}

impl std::fmt::Debug for TranslationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranslationCache")
            .field("blocks", &self.len())
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_ir::{BlockBuilder, BlockExit};

    fn block_at(pc: u32) -> Block {
        BlockBuilder::new(pc).finish(BlockExit::Jump(pc + 4), 1)
    }

    /// Reserve-then-insert, the way the engine drives the cache.
    fn insert(cache: &TranslationCache, pc: u32, block: Block) -> InsertResult {
        assert!(cache.try_reserve(block_footprint(&block)));
        cache.insert(pc, block, 0)
    }

    #[test]
    fn insert_then_lookup_roundtrips() {
        let cache = TranslationCache::new();
        assert_eq!(cache.lookup(0x1000), None);
        let result = insert(&cache, 0x1000, block_at(0x1000));
        assert!(result.fresh);
        assert_eq!(result.new_pages, vec![1], "code page 1 needs tracking");
        assert_eq!(cache.lookup(0x1000), Some(result.id));
        assert_eq!(cache.block(result.id).unwrap().guest_pc, 0x1000);
        assert_eq!(cache.len(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn duplicate_insert_reuses_id_and_releases_reservation() {
        let cache = TranslationCache::new();
        let a = insert(&cache, 0x2000, block_at(0x2000));
        let bytes_after_first = cache.bytes();
        let b = insert(&cache, 0x2000, block_at(0x2000));
        assert_eq!(a.id, b.id);
        assert!(!b.fresh);
        assert!(b.new_pages.is_empty());
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.bytes(),
            bytes_after_first,
            "lost race returns its reservation"
        );
    }

    #[test]
    fn ids_are_dense_across_segments() {
        let cache = TranslationCache::new();
        let n = SEG_SIZE + 17; // spill into a second segment
        for i in 0..n {
            let pc = i * 4;
            assert_eq!(insert(&cache, pc, block_at(pc)).id, i);
        }
        assert_eq!(cache.len(), n as usize);
        for i in 0..n {
            assert_eq!(cache.block(i).unwrap().guest_pc, i * 4);
        }
    }

    #[test]
    fn heat_claim_fires_exactly_once_per_cycle() {
        let cache = TranslationCache::new();
        let id = insert(&cache, 0x3000, block_at(0x3000)).id;
        assert!(!cache.bump_heat(id, 3));
        assert!(!cache.bump_heat(id, 3));
        assert!(cache.bump_heat(id, 3), "third execution crosses and claims");
        assert!(!cache.bump_heat(id, 3), "claim is exclusive");
        // Retry resets both heat and the claim.
        cache.retry_promotion_later(id);
        assert!(!cache.bump_heat(id, 3));
        assert!(!cache.bump_heat(id, 3));
        assert!(cache.bump_heat(id, 3), "reclaim after retry reset");
    }

    #[test]
    fn superblock_publish_and_redirect() {
        let cache = TranslationCache::new();
        let id = insert(&cache, 0x4000, block_at(0x4000)).id;
        assert_eq!(cache.hot_redirect(id), None);
        let mut sb = block_at(0x4000);
        sb.superblock = true;
        assert!(cache.try_reserve(block_footprint(&sb)));
        let sid = cache.push_anonymous(sb, 0);
        assert_eq!(
            cache.lookup(0x4000),
            Some(id),
            "anonymous push must not disturb the PC index"
        );
        cache.publish_superblock(id, sid, &[id]);
        assert_eq!(cache.hot_redirect(id), Some(sid));
        assert!(cache.block(sid).unwrap().superblock);
        assert_eq!(cache.superblock_count(), 1);
    }

    #[test]
    fn never_promote_blocks_reclaim() {
        let cache = TranslationCache::new();
        let id = insert(&cache, 0x5000, block_at(0x5000)).id;
        assert!(cache.bump_heat(id, 1));
        cache.never_promote(id);
        assert_eq!(cache.hot_redirect(id), None);
        for _ in 0..64 {
            assert!(!cache.bump_heat(id, 1), "resolved blocks never re-claim");
        }
    }

    #[test]
    fn concurrent_inserts_agree() {
        let cache = TranslationCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..256u32 {
                        let pc = i * 4;
                        let id = match cache.lookup(pc) {
                            Some(id) => id,
                            None => insert(&cache, pc, block_at(pc)).id,
                        };
                        assert_eq!(cache.block(id).unwrap().guest_pc, pc);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 256);
        for i in 0..256u32 {
            let id = cache.lookup(i * 4).unwrap();
            assert_eq!(cache.block(id).unwrap().guest_pc, i * 4);
        }
    }

    #[test]
    fn retire_unlinks_index_revokes_edges_and_parks_in_limbo() {
        let cache = TranslationCache::new();
        let qsbr = Qsbr::new();
        let a = insert(&cache, 0x1000, block_at(0x1000)).id;
        let b = insert(&cache, 0x1004, block_at(0x1004)).id;
        // a's taken link is patched to b, and the edge is registered.
        cache.block(a).unwrap().links.taken.set(b);
        cache.register_edge(b, a, true);
        let version_before = cache.version();

        let epoch = qsbr.begin_grace();
        let summary = cache.retire_batch(&[b], epoch);
        assert_eq!(summary.retired, 1);
        assert_eq!(summary.demoted, 0);
        assert!(summary.footprint > 0);
        assert_eq!(
            summary.untrack_pages,
            Vec::<u32>::new(),
            "a still backs page 1"
        );
        assert_eq!(cache.lookup(0x1004), None, "PC index entry unlinked");
        assert_eq!(
            cache.block(a).unwrap().links.taken.get(),
            None,
            "incoming chain link revoked"
        );
        assert!(cache.block(b).unwrap().invalidated.is_set());
        assert!(cache.limbo_pending());
        assert_eq!(cache.limbo_len(), 1);
        assert!(cache.version() > version_before, "L1 generation bumped");
        // Double retirement is a no-op.
        let again = cache.retire_batch(&[b], epoch);
        assert_eq!(again.retired + again.demoted, 0);
    }

    #[test]
    fn reclaim_waits_for_the_grace_period() {
        let cache = TranslationCache::new();
        let qsbr = Qsbr::new();
        let reader = qsbr.register();
        let id = insert(&cache, 0x1000, block_at(0x1000)).id;
        let bytes_full = cache.bytes();

        let epoch = qsbr.begin_grace();
        cache.retire_batch(&[id], epoch);
        // The reader has not quiesced since the retirement: nothing may
        // be freed, and the block stays dereferenceable.
        assert_eq!(cache.reclaim_limbo(&qsbr), None);
        assert!(cache.block(id).is_some(), "limbo blocks remain readable");
        assert_eq!(cache.bytes(), bytes_full, "limbo still holds its bytes");

        qsbr.quiesce(reader);
        let (freed, _) = cache.reclaim_limbo(&qsbr).expect("grace elapsed");
        assert_eq!(freed, 1);
        assert!(cache.block(id).is_none(), "freed slot reads None");
        assert_eq!(cache.bytes(), 0, "reservation released at free");
        assert!(!cache.limbo_pending());
        let occ = cache.occupancy();
        assert_eq!(occ.live_blocks, 0);
        assert_eq!(occ.retired_blocks, 1);
        assert_eq!(occ.reclaimed_blocks, 1);
    }

    #[test]
    fn retiring_an_entry_block_demotes_its_superblock() {
        let cache = TranslationCache::new();
        let qsbr = Qsbr::new();
        let id = insert(&cache, 0x1000, block_at(0x1000)).id;
        let mut sb = block_at(0x1000);
        sb.superblock = true;
        assert!(cache.try_reserve(block_footprint(&sb)));
        let sid = cache.push_anonymous(sb, 0);
        cache.publish_superblock(id, sid, &[id]);

        let summary = cache.retire_batch(&[id], qsbr.begin_grace());
        assert_eq!(summary.retired, 1);
        assert_eq!(summary.demoted, 1, "redirect target dies with its entry");
        assert_eq!(cache.superblock_count(), 0);
        assert!(
            summary.untrack_pages.contains(&1),
            "last registration on the page is gone"
        );
    }

    #[test]
    fn retiring_a_superblock_reopens_its_entry_for_promotion() {
        let cache = TranslationCache::new();
        let qsbr = Qsbr::new();
        let id = insert(&cache, 0x1000, block_at(0x1000)).id;
        assert!(cache.bump_heat(id, 1), "claim");
        let mut sb = block_at(0x1000);
        sb.superblock = true;
        assert!(cache.try_reserve(block_footprint(&sb)));
        let sid = cache.push_anonymous(sb, 0);
        cache.publish_superblock(id, sid, &[id]);
        assert_eq!(cache.hot_redirect(id), Some(sid));

        let summary = cache.retire_batch(&[sid], qsbr.begin_grace());
        assert_eq!(summary.demoted, 1);
        assert_eq!(summary.retired, 0);
        assert_eq!(cache.hot_redirect(id), None, "redirect cleared");
        assert_eq!(cache.lookup(0x1000), Some(id), "entry block stays live");
        // The entry re-heats and can claim promotion again.
        assert!(cache.bump_heat(id, 1), "entry is promotable again");
    }

    #[test]
    fn victims_for_store_is_range_precise_for_blocks() {
        let cache = TranslationCache::new();
        let a = insert(&cache, 0x1000, block_at(0x1000)).id; // [0x1000, 0x1004)
        let _b = insert(&cache, 0x1008, block_at(0x1008)).id; // [0x1008, 0x100c)
        assert_eq!(cache.victims_for_store(0x1000, 4), vec![a]);
        assert_eq!(
            cache.victims_for_store(0x1004, 4),
            Vec::<u32>::new(),
            "gap between blocks on a tracked page is false sharing"
        );
        assert_eq!(
            cache.victims_for_store(0x2000, 4),
            Vec::<u32>::new(),
            "untracked page has no victims"
        );
    }

    #[test]
    fn reservations_enforce_a_hard_limit_and_flush_makes_room() {
        let cache = TranslationCache::new();
        let qsbr = Qsbr::new();
        let probe = block_at(0);
        let per_block = block_footprint(&probe);
        cache.set_limit(3 * per_block);
        let mut ids = Vec::new();
        for i in 0..3u32 {
            let pc = 0x1000 + i * 4;
            assert!(cache.try_reserve(per_block));
            ids.push(cache.insert(pc, block_at(pc), 0).id);
        }
        // Full: the fourth reservation must fail, and the peak must
        // respect the limit.
        assert!(!cache.try_reserve(per_block));
        assert!(cache.occupancy().peak_bytes <= 3 * per_block);

        // A flush to half the limit retires cold blocks; after the
        // grace period the reservation succeeds again.
        let epoch = qsbr.begin_grace();
        let summary = cache.flush_generational(3 * per_block / 2, epoch);
        assert!(summary.retired >= 2, "flush retired {}", summary.retired);
        assert!(cache.reclaim_limbo(&qsbr).is_some());
        assert!(cache.try_reserve(per_block));
        assert!(cache.occupancy().peak_bytes <= 3 * per_block);
    }

    #[test]
    fn full_retirement_reclaims_whole_segments() {
        let cache = TranslationCache::new();
        let qsbr = Qsbr::new();
        let n = SEG_SIZE + 8; // fill segment 0, spill into segment 1
        let ids: Vec<u32> = (0..n)
            .map(|i| insert(&cache, i * 4, block_at(i * 4)).id)
            .collect();
        let epoch = qsbr.begin_grace();
        cache.retire_batch(&ids, epoch);
        let (freed, segments) = cache.reclaim_limbo(&qsbr).unwrap();
        assert_eq!(freed, n as u64);
        assert_eq!(
            segments, 1,
            "segment 0 is fully freed; segment 1 is not fully allocated"
        );
        for id in ids {
            assert!(cache.block(id).is_none());
        }
        assert_eq!(cache.occupancy().arena_bytes, 0);
    }
}
