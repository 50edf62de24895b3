//! The concurrent allocator front-end: a cloneable, `Send + Sync`
//! [`DeviceAllocator`] that wraps any [`AllocatorCore`] and keeps warm
//! allocation traffic away from the core's mutex.
//!
//! # Why a front-end?
//!
//! GMLake's promise is that defragmentation stays off the training critical
//! path — but a shared pool whose every operation funnels through one mutex
//! re-serializes the ranks at the allocator instead. The front-end splits
//! the traffic the way PyTorch's stream-aware caching allocator does. Both
//! routes below are served by the same lock-guarded cache type, a *bank*
//! (free lists, live table, pending ring, counters), and differ only in the
//! reuse key and the cap rule:
//!
//! * **Small requests** (below the stitch threshold, 2 MiB by default) are
//!   served from N size-class shards, each its own bank behind its own
//!   lock. A request's size class picks its shard and is its reuse key, so
//!   a warm allocate/deallocate pair costs exactly one short shard-lock
//!   acquisition each — threads working on different size classes never
//!   contend, and none of them ever waits behind stitch work.
//! * **Large / stitch requests** (at or above the threshold — the traffic
//!   GMLake exists for) are served from one *large bank* per stream, keyed
//!   by exact requested size: an exact-size, exact-stream hit costs one
//!   bank-lock acquisition, and misses optimistically re-scan the bank
//!   while the core's commit-time mutex is contended (see
//!   [`DeviceAllocatorConfig::max_cached_large_per_bank`]).
//! * **Cold misses** on either route fall back to the wrapped core behind
//!   a single mutex — the commit-time lock under which splits and stitches
//!   commit transactionally.
//!
//! # Stream-aware routing
//!
//! On top of the size-class sharding, the front-end partitions its cache by
//! **logical GPU stream** ([`StreamId`]): the shard array is organized as
//! one *stream bank* of size-class shards per configured stream
//! ([`DeviceAllocatorConfig::streams`], default 1), and
//! [`DeviceAllocator::alloc_on_stream`] routes a request to its stream's
//! shards (or its stream's large bank). Warm allocations on different
//! streams therefore never touch the same lock — not even for identical
//! sizes — which is what keeps independent GPU streams from serializing at
//! the allocator.
//!
//! Reuse follows PyTorch's event-guarded rule, on both routes:
//!
//! * a free issued on the **same stream** the block was allocated on parks
//!   the block in that stream's free list for immediate reuse (stream order
//!   already guarantees the previous user finished);
//! * a **cross-stream** free ([`DeviceAllocator::free_on_stream`] with a
//!   different stream than the allocating one) never lands in a free list
//!   directly. When the front-end was built with an [`EventSource`]
//!   (see [`DeviceAllocatorBuilder::events`]), the free **records an event
//!   on the freeing stream** and parks the block in the owning bank's
//!   *pending ring*; the allocation path and
//!   [`DeviceAllocator::process_events`] promote blocks whose events have
//!   completed back into the owning stream's free list — so a completed
//!   cross-stream block is reusable with one bank-lock acquisition instead
//!   of a core-mutex round trip. Without an event source (the default), the
//!   block is returned to the core, the conservative pre-event rule: it can
//!   only come back to *any* stream through the core mutex, a full
//!   synchronization point standing in for the event.
//!
//! Both halves of the rule compare **exact** [`StreamId`]s: every parked
//! block carries the stream that parked it, so even when distinct stream
//! ids fold onto the same stream bank (ids at or above the configured
//! stream count), an allocation only reuses a block its own stream parked —
//! another stream's block in the shared free list is simply skipped.
//!
//! [`DeviceAllocator::allocate`] / [`DeviceAllocator::deallocate`] are the
//! stream-oblivious entry points: they run on [`StreamId::DEFAULT`], so
//! single-stream callers see exactly the pre-stream behaviour (and pay no
//! extra cost — one stream bank is the PR 3 layout).
//!
//! Front-end ids encode their bank in the low bits (and live in the upper
//! half of the id space, disjoint from every core's sequential ids), so a
//! deallocation routes back to the owning bank — and thereby the owning
//! stream — without any shared lookup.
//!
//! The cache is transparent: blocks parked in a bank remain "live" from
//! the core's perspective and are returned to it by [`DeviceAllocator::flush`]
//! (which [`DeviceAllocator::release_cached`], [`DeviceAllocator::compact`],
//! and the out-of-memory retry path run automatically), so defragmentation
//! and OOM rescue still see every cached byte.
//!
//! # Example
//!
//! ```
//! use gmlake_alloc_api::{AllocRequest, DeviceAllocator, kib};
//! # use gmlake_alloc_api::{AllocatorCore, AllocError, Allocation, AllocationId, MemStats, VirtAddr};
//! # #[derive(Default)]
//! # struct TestCore { next: u64, live: std::collections::HashMap<AllocationId, u64>, stats: MemStats }
//! # impl AllocatorCore for TestCore {
//! #     fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
//! #         if req.size == 0 { return Err(AllocError::ZeroSize); }
//! #         self.next += 1;
//! #         let id = AllocationId::new(self.next);
//! #         self.live.insert(id, req.size);
//! #         self.stats.on_alloc(req.size, req.size);
//! #         let r = self.stats.active_bytes;
//! #         self.stats.set_reserved(r);
//! #         Ok(Allocation { id, va: VirtAddr::new(self.next << 20), size: req.size, requested: req.size })
//! #     }
//! #     fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
//! #         let size = self.live.remove(&id).ok_or(AllocError::UnknownAllocation(id))?;
//! #         self.stats.on_free(size);
//! #         Ok(())
//! #     }
//! #     fn stats(&self) -> MemStats { self.stats }
//! #     fn name(&self) -> &'static str { "test-core" }
//! # }
//! let pool = DeviceAllocator::new(TestCore::default());
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let pool = pool.clone();
//!         s.spawn(move || {
//!             for _ in 0..64 {
//!                 let a = pool.allocate(AllocRequest::new(kib(64 + t))).unwrap();
//!                 pool.deallocate(a.id).unwrap();
//!             }
//!         });
//!     }
//! });
//! let stats = pool.stats();
//! assert_eq!(stats.alloc_count, 4 * 64);
//! assert_eq!(stats.active_bytes, 0);
//! ```

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use gmlake_telemetry::{EventKind, PoolTelemetry};
use parking_lot::Mutex;

use crate::error::AllocError;
use crate::events::EventSource;
use crate::request::{AllocRequest, Allocation};
use crate::stats::MemStats;
use crate::traits::AllocatorCore;
use crate::types::{mib, AllocationId, EventId, StreamId, VirtAddr};

/// Front-end allocation ids live in the top half of the id space so they can
/// never collide with a core's sequential ids.
const FRONT_ID_BASE: u64 = 1 << 63;

/// Marks a front-end id as minted by the *large* route (the per-stream
/// large banks) rather than a small-route shard. Small ids never reach this
/// bit (`next_seq << shard_bits` stays far below 2^62), so the three id
/// spaces — core-sequential, front-end small, front-end large — are
/// disjoint and a free routes without any shared lookup.
const LARGE_ID_BIT: u64 = 1 << 62;

/// Smallest size class (bytes): requests below this round up to it.
const MIN_CLASS: u64 = 512;

/// Upper bound on [`DeviceAllocatorConfig::streams`] (1024). A power of two,
/// so any accepted value rounds up to at most the bound itself — the
/// power-of-two round-up at construction can never overflow.
pub const MAX_STREAMS: usize = 1 << 10;

/// Upper bound on [`DeviceAllocatorConfig::shards`] per stream (1024). With
/// [`MAX_STREAMS`] this caps the shard array at 2^20 entries, keeping the
/// `streams * shards` product far from overflow.
pub const MAX_SHARDS: usize = 1 << 10;

/// Multiply-shift hasher for the bank maps: every key is a `u64` (reuse
/// key or front-end id), so a single multiply + xor-shift beats the
/// default SipHash by a wide margin on the hot path.
#[derive(Default)]
struct U64MixHasher(u64);

impl Hasher for U64MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 keys (unused on the hot path).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64MixHasher>>;

/// Tuning knobs of the [`DeviceAllocator`] front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAllocatorConfig {
    /// Requests strictly below this size take the sharded small route
    /// (default: 2 MiB, GMLake's stitch threshold — everything the stitching
    /// machinery would not touch anyway). `0` disables both front-end
    /// routes, degenerating to the single-mutex baseline: every call goes
    /// through the core mutex and hands out core ids. Benches use this as
    /// the contention baseline.
    pub small_threshold: u64,
    /// Number of cache shards *per stream* (rounded up to a power of two,
    /// default 16).
    ///
    /// Must be in `1..=MAX_SHARDS`: [`DeviceAllocatorConfig::validate`]
    /// rejects values outside the range (surfaced by
    /// [`DeviceAllocatorBuilder::build`] as [`AllocError::InvalidConfig`]);
    /// [`DeviceAllocatorConfig::normalized`] clamps them instead.
    pub shards: usize,
    /// Maximum cached blocks per size class; overflowing frees go straight
    /// back to the core (default 64).
    pub max_cached_per_class: usize,
    /// Capacity of each bank's pending event ring (default 64) — the
    /// cross-stream-freed blocks that may wait on event completion per
    /// shard (or large bank), **across all of its sizes** (a coarser
    /// granularity than `max_cached_per_class`, which is per class).
    /// A full ring sends further cross-stream frees through the core
    /// fallback; `0` disables event parking entirely, restoring the
    /// conservative pre-event rule even when an
    /// [`EventSource`](crate::EventSource) is configured.
    pub pending_ring_cap: usize,
    /// Number of logical GPU streams to partition the cache for (rounded up
    /// to a power of two, default 1). Each stream gets its own `shards`
    /// size-class shards and its own large bank, so warm allocations on
    /// different streams never share a lock. Stream ids at or above the
    /// configured count fold onto the existing stream banks (placement
    /// only: folded streams share locks and free lists, but every parked
    /// block is tagged with the exact [`StreamId`] that parked it, and both
    /// reuse and the cross-stream free guard compare exact ids — a folded
    /// stream never receives another stream's block except through the core
    /// mutex).
    ///
    /// Must be in `1..=MAX_STREAMS` (stream 0 is the default stream):
    /// [`DeviceAllocatorConfig::validate`] rejects values outside the
    /// range, and [`DeviceAllocatorBuilder::build`] surfaces that as
    /// [`AllocError::InvalidConfig`] instead of panicking;
    /// [`DeviceAllocatorConfig::normalized`] clamps them instead.
    pub streams: usize,
    /// Maximum blocks cached per *stream's large bank* (default 32).
    /// Requests at or above `small_threshold` are served from a per-stream
    /// large bank: an exact-size, exact-stream hit costs one bank-lock
    /// acquisition and never touches the core mutex, and a same-stream free
    /// parks its block in the bank up to this cap. Unlike
    /// `max_cached_per_class` this cap is per bank across all sizes (large
    /// sizes are few and big — a handful of parked multi-MiB blocks is
    /// already a lot of memory).
    ///
    /// `0` disables the large route: every large allocation and free goes
    /// through the core mutex — the single-mutex baseline for large
    /// traffic that `bench_pr9` compares against. `small_threshold == 0`
    /// disables the large route too, so that knob stays a full single-mutex
    /// baseline for the benches built on it.
    pub max_cached_large_per_bank: usize,
}

impl Default for DeviceAllocatorConfig {
    fn default() -> Self {
        DeviceAllocatorConfig {
            small_threshold: mib(2),
            shards: 16,
            max_cached_per_class: 64,
            pending_ring_cap: 64,
            streams: 1,
            max_cached_large_per_bank: 32,
        }
    }
}

impl DeviceAllocatorConfig {
    /// Sets the fast-path threshold (`0` disables the fast path).
    #[must_use]
    pub fn with_small_threshold(mut self, small_threshold: u64) -> Self {
        self.small_threshold = small_threshold;
        self
    }

    /// Sets the shard count (rounded up to a power of two at construction;
    /// see [`DeviceAllocatorConfig::shards`]). Values outside
    /// `1..=MAX_SHARDS` are invalid and are reported by
    /// [`DeviceAllocatorConfig::validate`] / [`DeviceAllocatorBuilder::build`]
    /// as [`AllocError::InvalidConfig`] — never a panic.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-size-class cache capacity.
    #[must_use]
    pub fn with_max_cached_per_class(mut self, max: usize) -> Self {
        self.max_cached_per_class = max;
        self
    }

    /// Sets the per-bank pending event ring capacity (`0` disables event
    /// parking; see [`DeviceAllocatorConfig::pending_ring_cap`]).
    #[must_use]
    pub fn with_pending_ring_cap(mut self, cap: usize) -> Self {
        self.pending_ring_cap = cap;
        self
    }

    /// Sets the stream count (rounded up to a power of two at construction;
    /// see [`DeviceAllocatorConfig::streams`]). Values outside
    /// `1..=MAX_STREAMS` are invalid and are reported by
    /// [`DeviceAllocatorConfig::validate`] / [`DeviceAllocatorBuilder::build`]
    /// as [`AllocError::InvalidConfig`] — never a panic.
    #[must_use]
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// Sets the per-bank large-route cache capacity (`0` disables the
    /// large route; see
    /// [`DeviceAllocatorConfig::max_cached_large_per_bank`]).
    #[must_use]
    pub fn with_max_cached_large_per_bank(mut self, max: usize) -> Self {
        self.max_cached_large_per_bank = max;
        self
    }

    /// Checks the configuration for values no allocator can be built from.
    ///
    /// Every check here must have a repair in
    /// [`DeviceAllocatorConfig::normalized`] — the two functions are the
    /// strict and the forgiving face of the same rules, and callers that
    /// clamp rely on `normalized()` output always validating.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidConfig`] if `streams` is 0 (there is always at
    /// least the default stream) or above [`MAX_STREAMS`], or if `shards`
    /// is 0 (every stream needs a shard) or above [`MAX_SHARDS`]. The upper
    /// bounds keep the power-of-two round-up and the `streams * shards`
    /// product at construction from overflowing — out-of-range values are
    /// an error here, never a panic.
    pub fn validate(&self) -> Result<(), AllocError> {
        if self.streams == 0 {
            return Err(AllocError::InvalidConfig(
                "streams must be >= 1 (stream 0 is the default stream)".to_owned(),
            ));
        }
        if self.streams > MAX_STREAMS {
            return Err(AllocError::InvalidConfig(format!(
                "streams must be <= {MAX_STREAMS} (got {})",
                self.streams
            )));
        }
        if self.shards == 0 {
            return Err(AllocError::InvalidConfig(
                "shards must be >= 1 (every stream bank needs a shard)".to_owned(),
            ));
        }
        if self.shards > MAX_SHARDS {
            return Err(AllocError::InvalidConfig(format!(
                "shards must be <= {MAX_SHARDS} (got {})",
                self.shards
            )));
        }
        Ok(())
    }

    /// Repairs every value [`DeviceAllocatorConfig::validate`] would
    /// reject (currently: `streams` and `shards` are clamped into
    /// `1..=MAX_STREAMS` / `1..=MAX_SHARDS`), so the result always
    /// validates. Pass its output to [`DeviceAllocatorBuilder::config`] to
    /// clamp instead of erroring.
    #[must_use]
    pub fn normalized(mut self) -> Self {
        self.streams = self.streams.clamp(1, MAX_STREAMS);
        self.shards = self.shards.clamp(1, MAX_SHARDS);
        self
    }
}

/// A core allocation parked in (or in flight between) the bank caches.
#[derive(Debug, Clone, Copy)]
struct CachedBlock {
    /// The id the wrapped core knows this block by.
    core_id: AllocationId,
    va: VirtAddr,
    size: u64,
    /// The stream the block was allocated on — carried through the free
    /// lists so reuse can compare exact [`StreamId`]s. A free issued on the
    /// same stream may recycle the block in place, and a parked block is
    /// only ever handed back to that same stream; any other stream (even
    /// one folded onto the same bank) must receive it through the core
    /// mutex (the cross-stream reuse guard).
    stream: StreamId,
}

/// A live allocation handed out under a front-end id.
#[derive(Debug, Clone, Copy)]
struct LiveBlock {
    block: CachedBlock,
    /// The reuse key the block returns to on deallocation: the size class
    /// on the small route, the exact requested size on the large route
    /// (no class rounding above the stitch threshold).
    key: u64,
}

/// A cross-stream-freed block waiting in a bank's pending ring for its
/// event to complete before it may re-enter the owning stream's free list.
#[derive(Debug, Clone, Copy)]
struct PendingBlock {
    /// The parked block; `block.stream` is still the *owning* (allocating)
    /// stream — the only stream allowed to reuse it after promotion.
    block: CachedBlock,
    /// Reuse key the block is promoted under.
    key: u64,
    /// Event recorded on the *freeing* stream at free time: once it
    /// completes, that stream's in-flight work is done with the block.
    event: EventId,
    /// The freeing stream the event was recorded on. Events of one stream
    /// complete FIFO, so the promotion sweep queries at most one
    /// incomplete event per distinct freeing stream.
    freed_from: StreamId,
}

/// How many blocks a [`Bank`] may park — the one cache rule the two routes
/// do not share.
#[derive(Debug, Clone, Copy)]
enum Cap {
    /// Small route: at most this many blocks per size class. A same-stream
    /// free at the cap evicts a block a folded stream parked, so an idle
    /// foreign stream cannot wedge the warm path of the streams sharing the
    /// shard.
    PerClass(usize),
    /// Large route: at most this many blocks across the whole bank, and a
    /// cross-stream free only enters the pending ring while the bank has
    /// room.
    PerBank(usize),
}

/// Counters reconciling one bank's activity with the core's `MemStats`.
/// Guarded by the bank lock, so the hot path pays no atomic
/// read-modify-writes; [`DeviceAllocator::stats`] aggregates across banks.
///
/// A cache *hit* hands out a block the core still counts as active, and a
/// cached *free* parks a block the core never sees freed — these counters
/// carry the difference, so the aggregate stays exact whenever the pool is
/// quiescent (and a faithful snapshot under concurrency).
#[derive(Debug, Default, Clone, Copy)]
struct BankStats {
    /// Allocations served from the cache (the core saw nothing).
    hits: u64,
    /// Front-end allocations that fell through to the core.
    misses: u64,
    /// Frees absorbed by the front-end (the core saw nothing — yet).
    fast_frees: u64,
    /// Core-side deallocations performed for cache maintenance (flush,
    /// cap overflow, and cross-stream fallbacks); each undoes the
    /// core-visible half of a free already counted in `fast_frees`.
    cache_returns: u64,
    /// Cross-stream frees that recorded an event and parked the block in
    /// the pending ring (the event-guarded fast path — no core traffic).
    cross_stream_parked: u64,
    /// Cross-stream frees returned to the core instead: no event source is
    /// configured, or the pending ring was full (a subset of
    /// `cache_returns`).
    cross_stream_fallback: u64,
    /// Pending-ring blocks promoted into a free list after their event
    /// completed.
    event_promotions: u64,
    /// Bytes requested by cache hits (the core never saw the requests).
    requested: u64,
    /// Bytes of size-class rounding the core recorded as "requested" on
    /// small-route misses, subtracted back out of the aggregate (always 0
    /// on the large route, whose reuse key is the requested size).
    requested_inflation: u64,
    /// Bytes currently parked in this bank's free lists (active from the
    /// core's perspective, free from the caller's).
    cached_bytes: u64,
    /// Blocks currently parked in this bank's free lists.
    cached_blocks: u64,
    /// Bytes currently waiting in this bank's pending ring (also active
    /// from the core's perspective, freed from the caller's — but not yet
    /// reusable).
    pending_bytes: u64,
    /// Blocks currently waiting in this bank's pending ring.
    pending_blocks: u64,
}

impl BankStats {
    /// Adds `s` into `self` field-wise (the aggregation step of
    /// [`DeviceAllocator::stats`] / [`DeviceAllocator::cache_stats`]).
    fn absorb(&mut self, s: &BankStats) {
        self.hits += s.hits;
        self.misses += s.misses;
        self.fast_frees += s.fast_frees;
        self.cache_returns += s.cache_returns;
        self.cross_stream_parked += s.cross_stream_parked;
        self.cross_stream_fallback += s.cross_stream_fallback;
        self.event_promotions += s.event_promotions;
        self.requested += s.requested;
        self.requested_inflation += s.requested_inflation;
        self.cached_bytes += s.cached_bytes;
        self.cached_blocks += s.cached_blocks;
        self.pending_bytes += s.pending_bytes;
        self.pending_blocks += s.pending_blocks;
    }
}

/// One lock-guarded front-end cache: a size-class shard of the small route
/// or a stream's bank on the large route. Everything one warm allocate or
/// deallocate touches lives behind its one lock: the free lists, the live
/// table of the ids it minted, the pending ring of cross-stream frees, its
/// id sequence, and its statistics.
///
/// Reuse is exact on `(key, StreamId)`: the key is the size class on the
/// small route and the exact requested size on the large route, and the
/// stream tag is the *original* id (folded streams share a bank for
/// placement only). The two routes differ only in their [`Cap`].
///
/// `epoch` counts free-list inserts. The large route's miss path records
/// it, releases the bank lock, and — while the core commit lock is
/// contended — optimistically re-scans the bank whenever the epoch moved
/// (see [`DeviceAllocator::allocate_large`]).
#[derive(Debug)]
struct Bank {
    /// Free blocks keyed by reuse key.
    free: U64Map<Vec<CachedBlock>>,
    /// Front-end id -> live allocation (this is what lets the free path
    /// know the *allocating* stream of a block — the prerequisite for the
    /// cross-stream event guard).
    live: U64Map<LiveBlock>,
    /// Cross-stream-freed blocks waiting for their event to complete (in
    /// record order — within one freeing stream, completion is FIFO).
    pending: VecDeque<PendingBlock>,
    /// The fixed bits of every id minted here: [`FRONT_ID_BASE`], the
    /// route's [`LARGE_ID_BIT`] (or none), and this bank's index in its
    /// route — the low bits a free routes back by.
    id_base: u64,
    /// Bits the id sequence is shifted past (log2 of the route's bank count).
    seq_shift: u32,
    next_seq: u64,
    cap: Cap,
    stats: BankStats,
    epoch: u64,
}

// The warm-path methods below are `#[inline(always)]`: left to the
// inliner they stayed out of line, and a warm alloc/free pair measured
// ~25% slower than with the same code written inline (single thread, 2-core
// x86-64 host).
impl Bank {
    fn new(id_base: u64, seq_shift: u32, cap: Cap) -> Self {
        Bank {
            free: U64Map::default(),
            live: U64Map::default(),
            pending: VecDeque::new(),
            id_base,
            seq_shift,
            next_seq: 0,
            cap,
            stats: BankStats::default(),
            epoch: 0,
        }
    }

    /// Mints a fresh front-end id owned by this bank.
    #[inline]
    fn mint(&mut self) -> u64 {
        self.next_seq += 1;
        self.id_base | (self.next_seq << self.seq_shift)
    }

    /// Takes a block parked under `key` by exactly `stream`, if any.
    /// Scanning from the back keeps the common case (every entry is this
    /// stream's) at plain-pop cost; mixed stacks only exist when stream ids
    /// fold onto one bank. A drained stack stays in the map: the same key
    /// is about to be parked again on the warm cycle, and leaving the entry
    /// saves a hash remove + re-insert per hit.
    #[inline(always)]
    fn take(&mut self, key: u64, stream: StreamId) -> Option<CachedBlock> {
        let stack = self.free.get_mut(&key)?;
        let pos = stack.iter().rposition(|b| b.stream == stream)?;
        let block = stack.swap_remove(pos);
        self.stats.cached_bytes -= block.size;
        self.stats.cached_blocks -= 1;
        Some(block)
    }

    /// Serves `requested` bytes from a block parked under `key` by exactly
    /// `stream`: [`Bank::take`], and when the free list comes up empty,
    /// promotes the pending blocks whose events completed and looks again —
    /// still one bank-lock acquisition, no core mutex. A hit is booked
    /// (counters, a fresh front-end id, the live entry); a miss is not.
    #[inline(always)]
    fn hit(
        &mut self,
        key: u64,
        requested: u64,
        stream: StreamId,
        events: Option<&dyn EventSource>,
        tel: Option<&PoolTelemetry>,
    ) -> Option<Allocation> {
        let mut block = self.take(key, stream);
        if block.is_none() && !self.pending.is_empty() {
            if let Some(events) = events {
                if self.promote_completed(events) > 0 {
                    block = self.take(key, stream);
                }
            }
        }
        let block = block?;
        self.stats.hits += 1;
        self.stats.requested += requested;
        if let Some(t) = tel {
            t.record(EventKind::ShardHit, key, stream.as_u32() as u64, 0);
        }
        Some(self.adopt(block, key, requested))
    }

    /// Hands out `block` under a fresh front-end id and records it live.
    #[inline(always)]
    fn adopt(&mut self, block: CachedBlock, key: u64, requested: u64) -> Allocation {
        let id = self.mint();
        self.live.insert(id, LiveBlock { block, key });
        Allocation {
            id: AllocationId::new(id),
            va: block.va,
            size: block.size,
            requested,
        }
    }

    /// Parks `block` in the free list under `key`, bumping the epoch.
    #[inline(always)]
    fn park(&mut self, block: CachedBlock, key: u64) {
        self.stats.cached_bytes += block.size;
        self.stats.cached_blocks += 1;
        self.free.entry(key).or_default().push(block);
        self.epoch += 1;
    }

    /// Parks `block` under `key` if the cap leaves room; returns whether
    /// it did. One map lookup on either route.
    #[inline(always)]
    fn try_park(&mut self, block: CachedBlock, key: u64) -> bool {
        let stack = match self.cap {
            Cap::PerClass(max) => {
                let stack = self.free.entry(key).or_default();
                if stack.len() >= max {
                    return false;
                }
                stack
            }
            Cap::PerBank(max) => {
                if self.stats.cached_blocks as usize >= max {
                    return false;
                }
                self.free.entry(key).or_default()
            }
        };
        stack.push(block);
        self.stats.cached_bytes += block.size;
        self.stats.cached_blocks += 1;
        self.epoch += 1;
        true
    }

    /// Parks a same-stream free under the cap. Returns the block the core
    /// must take back: the freed one when the cap is reached, or — on the
    /// small route — a folded stream's block evicted to make room, since
    /// this stream can never reuse it.
    #[inline(always)]
    fn park_capped(&mut self, block: CachedBlock, key: u64) -> Option<CachedBlock> {
        if self.try_park(block, key) {
            return None;
        }
        self.stats.cache_returns += 1;
        if let (Cap::PerClass(_), Some(stack)) = (self.cap, self.free.get_mut(&key)) {
            if let Some(pos) = stack.iter().position(|b| b.stream != block.stream) {
                let evicted = stack.swap_remove(pos);
                stack.push(block);
                self.stats.cached_bytes += block.size;
                self.stats.cached_bytes -= evicted.size;
                return Some(evicted);
            }
        }
        Some(block)
    }

    /// Whether a cross-stream free may wait in the pending ring: the ring
    /// has room and, on the large route, so does the bank.
    fn can_pend(&self, ring_cap: usize) -> bool {
        self.pending.len() < ring_cap
            && match self.cap {
                Cap::PerClass(_) => true,
                Cap::PerBank(max) => (self.stats.cached_blocks as usize) < max,
            }
    }

    /// Moves every pending block whose event has completed into its free
    /// list; returns how many were promoted. Called under the bank lock;
    /// `events` is a lock-order leaf (see the [`EventSource`] ordering
    /// contract), so querying while holding the lock is safe.
    ///
    /// Events recorded from one freeing stream complete in FIFO order (the
    /// [`EventSource`] monotonicity rule), so once one entry of a stream
    /// reports incomplete, later entries of the same stream are skipped
    /// without querying — a sweep costs at most one query per *distinct*
    /// freeing stream with work in flight, not one per ring entry.
    ///
    /// Promotion may transiently push a free list past its cap; the
    /// overshoot is bounded by the ring's own cap and drains as the owner
    /// allocates (or at the next flush), so no key can hoard unboundedly.
    fn promote_completed(&mut self, events: &dyn EventSource) -> u64 {
        let mut promoted = 0;
        // Freeing streams already seen incomplete this sweep (ring-bounded,
        // so a linear scan beats any set).
        let mut stalled: Vec<StreamId> = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if stalled.contains(&p.freed_from) {
                i += 1;
                continue;
            }
            if events.query(p.event) {
                let p = self.pending.remove(i).expect("index checked");
                self.stats.pending_bytes -= p.block.size;
                self.stats.pending_blocks -= 1;
                self.stats.event_promotions += 1;
                self.park(p.block, p.key);
                promoted += 1;
            } else {
                stalled.push(p.freed_from);
                i += 1;
            }
        }
        promoted
    }

    /// Empties the free lists and the pending ring into `blocks` (and the
    /// pending blocks' events into `events`), counting every block as a
    /// cache return. The large route's keys are exact requested sizes — an
    /// unbounded key space — so its drains also forget the keys; the small
    /// route's few size classes stay mapped.
    fn drain_into(&mut self, blocks: &mut Vec<CachedBlock>, events: &mut Vec<EventId>) {
        for stack in self.free.values_mut() {
            for block in stack.iter() {
                self.stats.cache_returns += 1;
                self.stats.cached_bytes -= block.size;
                self.stats.cached_blocks -= 1;
            }
            blocks.append(stack);
        }
        if let Cap::PerBank(_) = self.cap {
            self.free.clear();
        }
        while let Some(p) = self.pending.pop_front() {
            self.stats.cache_returns += 1;
            self.stats.pending_bytes -= p.block.size;
            self.stats.pending_blocks -= 1;
            events.push(p.event);
            blocks.push(p.block);
        }
    }
}

/// Point-in-time cache telemetry (see [`DeviceAllocator::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCacheStats {
    /// Front-end allocations served without touching the core mutex.
    pub hits: u64,
    /// Front-end allocations that fell through to the core.
    pub misses: u64,
    /// Bytes currently parked in the free lists.
    pub cached_bytes: u64,
    /// Blocks currently parked in the free lists.
    pub cached_blocks: u64,
    /// Cross-stream frees that recorded an event and parked the block in a
    /// pending ring — the event-guarded fast path, which touched no core
    /// state (requires an [`EventSource`]; see
    /// [`DeviceAllocatorBuilder::events`]).
    pub cross_stream_parked: u64,
    /// Cross-stream frees conservatively returned to the core: no event
    /// source is configured, or the owning bank's pending ring was full.
    /// (Before the event subsystem, *every* cross-stream free took this
    /// path — the counter formerly named `cross_stream_returns`.)
    pub cross_stream_fallback: u64,
    /// Bytes currently waiting in the pending rings (freed by their
    /// cross-stream callers, not yet reusable).
    pub pending_bytes: u64,
    /// Blocks currently waiting in the pending rings.
    pub pending_blocks: u64,
    /// Pending blocks promoted to a free list after their event completed
    /// (cumulative).
    pub event_promotions: u64,
    /// Number of cache shards (across all streams), or of large banks in
    /// [`DeviceAllocator::large_cache_stats`].
    pub shards: usize,
    /// Number of per-stream banks.
    pub streams: usize,
}

struct Inner {
    core: Mutex<Box<dyn AllocatorCore + Send>>,
    /// Backend name, captured at construction so `name()` never locks.
    name: &'static str,
    small_threshold: u64,
    /// Per-bank pending event ring capacity (0 = event parking disabled).
    pending_ring_cap: usize,
    /// Number of per-stream banks (power of two).
    stream_banks: usize,
    /// Size-class shards per stream (power of two); the `shards` slice
    /// holds `stream_banks * class_shards` entries, stream-major.
    class_shards: usize,
    /// Mask of the class-shard index within one stream (`class_shards - 1`).
    class_mask: u64,
    /// The small route's size-class shards; a small id's low bits index it.
    shards: Box<[Mutex<Bank>]>,
    /// Whether requests at or above `small_threshold` take the large route
    /// (`small_threshold > 0` and `max_cached_large_per_bank > 0`).
    large_route: bool,
    /// The large route's banks, one per stream; a large id's low bits
    /// index it.
    large: Box<[Mutex<Bank>]>,
    /// Stream-completion event source backing the cross-stream reuse fast
    /// path; `None` keeps the conservative free-through-the-core rule.
    events: Option<Arc<dyn EventSource>>,
    /// Optional observability sink: sampled alloc/free latencies and bank
    /// hit/miss/park/promote trace records. `None` costs one branch.
    telemetry: Option<Arc<PoolTelemetry>>,
}

/// The concurrent allocator front-end: cloneable, `Send + Sync`, `&self` on
/// every call. See the source module docs in `device.rs` and the
/// repository's `docs/streams-and-events.md` for the routing design.
///
/// This is the only type the runtime, the workload replayers, the examples,
/// and the benches speak to when a pool is shared between threads; the
/// wrapped [`AllocatorCore`] stays single-owner behind the front-end.
/// Build one with [`DeviceAllocator::new`] (default configuration) or
/// [`DeviceAllocator::builder`].
///
/// `DeviceAllocator` also implements [`AllocatorCore`] itself (delegating to
/// the `&self` methods), so trait-generic code such as the sequential
/// replayer drives a shared pool unmodified.
#[derive(Clone)]
pub struct DeviceAllocator {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DeviceAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceAllocator")
            .field("name", &self.inner.name)
            .field("shards", &self.inner.shards.len())
            .field("small_threshold", &self.inner.small_threshold)
            .finish_non_exhaustive()
    }
}

/// Builder of a [`DeviceAllocator`] with a non-default configuration, an
/// [`EventSource`], or a [`PoolTelemetry`] sink (see
/// [`DeviceAllocator::builder`]).
#[derive(Default)]
#[must_use]
pub struct DeviceAllocatorBuilder {
    config: DeviceAllocatorConfig,
    events: Option<Arc<dyn EventSource>>,
    telemetry: Option<Arc<PoolTelemetry>>,
}

impl DeviceAllocatorBuilder {
    /// Sets the front-end configuration (default:
    /// [`DeviceAllocatorConfig::default`]). [`DeviceAllocatorBuilder::build`]
    /// rejects invalid values; pass [`DeviceAllocatorConfig::normalized`]
    /// output to clamp them instead.
    pub fn config(mut self, config: DeviceAllocatorConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a stream-completion [`EventSource`], enabling the
    /// event-guarded cross-stream reuse fast path: a cross-stream free
    /// records an event and parks the block in a pending ring instead of
    /// round-tripping through the core mutex (see
    /// `docs/streams-and-events.md` and [`DeviceAllocator::process_events`]).
    /// Without one, cross-stream frees take the conservative
    /// free-through-the-core rule.
    ///
    /// The source must uphold the [`EventSource`] ordering contract — in
    /// particular it must never call back into this allocator. When the
    /// wrapped core sits on a simulated device, pass a clone of the same
    /// `CudaDriver` so event completion rides the device's clock and
    /// per-stream frontiers.
    pub fn events(mut self, events: Arc<dyn EventSource>) -> Self {
        self.events = Some(events);
        self
    }

    /// Attaches a [`PoolTelemetry`] sink fed by the alloc/free fast paths
    /// (disabled sinks cost one relaxed atomic load per call; see the
    /// `gmlake-telemetry` crate docs for the overhead model).
    pub fn telemetry(mut self, telemetry: Arc<PoolTelemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Wraps `core`. The core comes boxed so registries holding a
    /// `Box<dyn AllocatorCore + Send>` hand it over without a second box.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidConfig`] — see [`DeviceAllocatorConfig::validate`].
    pub fn build(self, core: Box<dyn AllocatorCore + Send>) -> Result<DeviceAllocator, AllocError> {
        let config = self.config;
        config.validate()?;
        let class_shards = config.shards.next_power_of_two();
        let stream_banks = config.streams.next_power_of_two();
        let total = stream_banks * class_shards;
        let (shard_bits, bank_bits) = (total.trailing_zeros(), stream_banks.trailing_zeros());
        let small_cap = Cap::PerClass(config.max_cached_per_class);
        let large_cap = Cap::PerBank(config.max_cached_large_per_bank);
        let name = core.name();
        Ok(DeviceAllocator {
            inner: Arc::new(Inner {
                core: Mutex::new(core),
                name,
                small_threshold: config.small_threshold,
                pending_ring_cap: config.pending_ring_cap,
                stream_banks,
                class_shards,
                class_mask: class_shards as u64 - 1,
                shards: (0..total)
                    .map(|i| Mutex::new(Bank::new(FRONT_ID_BASE | i as u64, shard_bits, small_cap)))
                    .collect(),
                large_route: config.small_threshold > 0 && config.max_cached_large_per_bank > 0,
                large: (0..stream_banks)
                    .map(|i| {
                        let id_base = FRONT_ID_BASE | LARGE_ID_BIT | i as u64;
                        Mutex::new(Bank::new(id_base, bank_bits, large_cap))
                    })
                    .collect(),
                events: self.events,
                telemetry: self.telemetry,
            }),
        })
    }
}

/// Rounds a small request up to its size class (the next power of two, at
/// least [`MIN_CLASS`]). Classing at allocation time guarantees every cached
/// block in a class is large enough for every request of that class.
#[inline]
fn size_class(size: u64) -> u64 {
    size.next_power_of_two().max(MIN_CLASS)
}

/// Fibonacci hash of a size class into a shard index.
#[inline]
fn class_shard_index(class: u64, mask: u64) -> usize {
    ((class.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) & mask) as usize
}

impl DeviceAllocator {
    /// Wraps `core` with the default [`DeviceAllocatorConfig`], no event
    /// source and no telemetry sink.
    pub fn new<A: AllocatorCore + Send + 'static>(core: A) -> Self {
        Self::builder()
            .build(Box::new(core))
            .expect("the default configuration is valid")
    }

    /// Starts a [`DeviceAllocatorBuilder`]: set a configuration, an
    /// [`EventSource`] and a [`PoolTelemetry`] sink, then
    /// [`build`](DeviceAllocatorBuilder::build) around a boxed core.
    pub fn builder() -> DeviceAllocatorBuilder {
        DeviceAllocatorBuilder::default()
    }

    /// The attached telemetry sink, if any — enable it to start recording,
    /// and snapshot it to export what was recorded.
    pub fn telemetry(&self) -> Option<&Arc<PoolTelemetry>> {
        self.inner.telemetry.as_ref()
    }

    /// The stream bank `stream` folds onto (placement only — guard and
    /// affinity decisions always compare the exact [`StreamId`] tag).
    #[inline]
    fn bank_index(&self, stream: StreamId) -> usize {
        stream.as_u32() as usize & (self.inner.stream_banks - 1)
    }

    /// Global shard index of `(stream, class)`: the stream's bank of
    /// shards, then the class hash within it.
    #[inline]
    fn shard_index(&self, stream: StreamId, class: u64) -> usize {
        self.bank_index(stream) * self.inner.class_shards
            + class_shard_index(class, self.inner.class_mask)
    }

    /// The slice of shards serving `stream`'s small route.
    #[inline]
    fn stream_shards(&self, stream: StreamId) -> &[Mutex<Bank>] {
        let n = self.inner.class_shards;
        let first = self.bank_index(stream) * n;
        &self.inner.shards[first..first + n]
    }

    /// Allocates through the core mutex, with the OOM retry of
    /// [`DeviceAllocator::retry_after_flush`].
    fn core_allocate(&self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let first = self.inner.core.lock().allocate(req);
        self.retry_after_flush(first, |core| core.allocate(req))
    }

    /// The front-end's one OOM step, shared by every route: when `first`
    /// failed with out-of-memory, returns every bank and ring to the core
    /// (the core's own OOM fallback cannot reach blocks parked in the
    /// front-end) and runs `retry` once behind the plain core lock.
    ///
    /// The retry runs even when this thread's own `flush()` found the banks
    /// empty: a concurrent flush may have drained the banks but not yet
    /// handed its blocks to the core, and the retry — sequenced after that
    /// flush's core deallocations by the core lock — is what rescues the
    /// allocation in that window. The extra attempt only costs time on the
    /// already-failing error path.
    fn retry_after_flush(
        &self,
        first: Result<Allocation, AllocError>,
        retry: impl FnOnce(&mut (dyn AllocatorCore + Send)) -> Result<Allocation, AllocError>,
    ) -> Result<Allocation, AllocError> {
        let Err(AllocError::OutOfMemory { .. }) = &first else {
            return first;
        };
        self.flush();
        retry(&mut **self.inner.core.lock())
    }

    /// Books a block the core just served into `bank`. The core recorded
    /// `key` bytes as requested; `requested_inflation` subtracts the small
    /// route's class rounding back out (zero on the large route).
    fn adopt_core_block(
        bank: &Mutex<Bank>,
        core_alloc: Allocation,
        key: u64,
        requested: u64,
        stream: StreamId,
    ) -> Allocation {
        let block = CachedBlock {
            core_id: core_alloc.id,
            va: core_alloc.va,
            size: core_alloc.size,
            stream,
        };
        let mut g = bank.lock();
        g.stats.requested_inflation += key - requested;
        g.adopt(block, key, requested)
    }

    fn allocate_small(
        &self,
        req: AllocRequest,
        stream: StreamId,
        tel: Option<&PoolTelemetry>,
    ) -> Result<Allocation, AllocError> {
        let class = size_class(req.size);
        let bank = &self.inner.shards[self.shard_index(stream, class)];
        {
            let mut g = bank.lock();
            if let Some(hit) = g.hit(class, req.size, stream, self.inner.events.as_deref(), tel) {
                return Ok(hit);
            }
            g.stats.misses += 1;
        }
        if let Some(t) = tel {
            t.record(EventKind::ShardMiss, class, stream.as_u32() as u64, 0);
        }
        // Miss: allocate the whole class size from the core (no shard lock
        // held), so the block can later serve any request of the class.
        let core_alloc = self.core_allocate(AllocRequest::new(class).with_tag(req.tag))?;
        Ok(Self::adopt_core_block(
            bank, core_alloc, class, req.size, stream,
        ))
    }

    /// Serves a large (at-or-above-threshold) request from `stream`'s large
    /// bank. BestFit-style candidate selection runs entirely outside the
    /// core mutex:
    ///
    /// 1. **Hit** — an exact-size block parked by this exact stream (with a
    ///    promote-and-rescan of the bank's pending ring on a first miss)
    ///    is handed out under one short bank-lock acquisition; the core
    ///    mutex is never touched.
    /// 2. **Miss** — the request must go to the core (whose mutex is the
    ///    *commit-time lock*: splits and stitches commit transactionally
    ///    under it). While that lock is contended, the miss path
    ///    optimistically re-scans its bank whenever the bank `epoch` moved:
    ///    a block freed concurrently by this stream satisfies the request
    ///    cheaper than waiting to run a core split/stitch. The epoch check
    ///    makes each revalidation O(1) when nothing changed.
    ///
    /// The bank lock and the core lock are never held simultaneously.
    fn allocate_large(
        &self,
        req: AllocRequest,
        stream: StreamId,
        tel: Option<&PoolTelemetry>,
    ) -> Result<Allocation, AllocError> {
        let bank = &self.inner.large[self.bank_index(stream)];
        let mut epoch_seen = {
            let mut g = bank.lock();
            if let Some(hit) = g.hit(
                req.size,
                req.size,
                stream,
                self.inner.events.as_deref(),
                tel,
            ) {
                return Ok(hit);
            }
            g.stats.misses += 1;
            g.epoch
        };
        if let Some(t) = tel {
            t.record(EventKind::ShardMiss, req.size, stream.as_u32() as u64, 0);
        }
        // Optimistic selection against the commit-time lock: try the core
        // mutex without blocking; while someone else is committing, watch
        // the bank epoch for a concurrent free that makes the trip
        // unnecessary. Neither lock is ever held while taking the other.
        let first = loop {
            if let Some(mut core) = self.inner.core.try_lock() {
                break core.alloc_on_stream(req, stream);
            }
            {
                let mut g = bank.lock();
                if g.epoch != epoch_seen {
                    epoch_seen = g.epoch;
                    // The re-scan only takes parked blocks; promoting
                    // pending ones is left to the lookup above and to
                    // `process_events`.
                    if let Some(hit) = g.hit(req.size, req.size, stream, None, tel) {
                        return Ok(hit);
                    }
                }
            }
            std::thread::yield_now();
        };
        let core_alloc = self.retry_after_flush(first, |core| core.alloc_on_stream(req, stream))?;
        // A core-served large allocation carries the same `Alloc` event it
        // does when the route is disabled and every large request goes
        // straight through the core mutex.
        if let Some(t) = tel {
            t.record(EventKind::Alloc, core_alloc.size, stream.as_u32() as u64, 0);
        }
        Ok(Self::adopt_core_block(
            bank, core_alloc, req.size, req.size, stream,
        ))
    }

    /// Allocates memory for `req` (see [`AllocatorCore::allocate`] for the
    /// contract) on the default stream. Small requests take the sharded
    /// small route, requests at or above the threshold the default stream's
    /// large bank; misses go to the wrapped core.
    pub fn allocate(&self, req: AllocRequest) -> Result<Allocation, AllocError> {
        self.alloc_on_stream(req, StreamId::DEFAULT)
    }

    /// Allocates memory for `req` on behalf of `stream`: small requests are
    /// served from the stream's own size-class shards and large requests
    /// from the stream's own large bank, so warm allocations on different
    /// streams never contend on a lock. Misses go to the core mutex, as do
    /// all large requests when the large route is disabled
    /// ([`DeviceAllocatorConfig::max_cached_large_per_bank`] `== 0`).
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::allocate`].
    pub fn alloc_on_stream(
        &self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        if req.size == 0 {
            return Err(AllocError::ZeroSize);
        }
        // Telemetry gate: `None` when detached, disabled, or not sampled
        // this call — everything below then skips all telemetry work.
        let tel = match &self.inner.telemetry {
            Some(t) if t.hot_sample() => Some(&**t),
            _ => None,
        };
        let start = tel.map(|_| std::time::Instant::now());
        let result = if req.size < self.inner.small_threshold {
            self.allocate_small(req, stream, tel)
        } else if self.inner.large_route {
            self.allocate_large(req, stream, tel)
        } else {
            // Large route disabled (`max_cached_large_per_bank == 0`), or
            // the whole fast path is off (`small_threshold == 0`, the
            // single-mutex degeneration the benches baseline against):
            // straight through the core mutex, core id handed out.
            let result = self.core_allocate(req);
            if let (Some(t), Ok(a)) = (tel, &result) {
                t.record(EventKind::Alloc, a.size, stream.as_u32() as u64, 0);
            }
            result
        };
        if let (Some(t), Some(start)) = (tel, start) {
            t.alloc_ns().record(start.elapsed().as_nanos() as u64);
        }
        result
    }

    /// Releases the allocation identified by `id` (see
    /// [`AllocatorCore::deallocate`]) from the default stream. Allocations
    /// made on the default stream are parked in their bank for reuse
    /// instead of being returned to the core.
    pub fn deallocate(&self, id: AllocationId) -> Result<(), AllocError> {
        self.free_on_stream(id, StreamId::DEFAULT)
    }

    /// Releases the allocation identified by `id`, where the free is issued
    /// from `stream`.
    ///
    /// The block always routes back to the bank that minted its id (a
    /// size-class shard or a large bank of its allocating stream — the id's
    /// low bits name it, no shared lookup). What happens there depends on
    /// the freeing stream:
    ///
    /// * **same stream** as the allocation: the block is parked in the
    ///   stream's free list for immediate reuse, up to the route's cap
    ///   ([`DeviceAllocatorConfig::max_cached_per_class`] /
    ///   [`DeviceAllocatorConfig::max_cached_large_per_bank`]);
    /// * **different stream**, with an [`EventSource`] configured: an event
    ///   is recorded on the freeing stream and the block waits in the
    ///   bank's pending ring; once the event completes it is promoted back
    ///   into the *owning* stream's free list (by the allocation path or
    ///   [`DeviceAllocator::process_events`]) — PyTorch's event-guarded
    ///   cross-stream reuse rule, with no core-mutex round trip. When the
    ///   freeing stream is already caught up
    ///   ([`EventSource::try_record`] reports the event complete), the
    ///   park + promote pair collapses into one step: the block re-pools
    ///   into the owner's free list immediately;
    /// * **different stream**, without an event source (or with the ring
    ///   full): the block is returned to the core instead — it can only be
    ///   handed out again through the core mutex, a full synchronization
    ///   point standing in for the event. With an event source, the event
    ///   is recorded and synchronized before the core sees the block.
    ///
    /// # Errors
    ///
    /// See [`AllocatorCore::deallocate`].
    pub fn free_on_stream(&self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        let tel = match &self.inner.telemetry {
            Some(t) if t.hot_sample() => Some(&**t),
            _ => None,
        };
        let start = tel.map(|_| std::time::Instant::now());
        let result = self.free_on_stream_impl(id, stream, tel);
        if let (Some(t), Some(start)) = (tel, start) {
            t.free_ns().record(start.elapsed().as_nanos() as u64);
        }
        result
    }

    fn free_on_stream_impl(
        &self,
        id: AllocationId,
        stream: StreamId,
        tel: Option<&PoolTelemetry>,
    ) -> Result<(), AllocError> {
        let raw = id.as_u64();
        if raw < FRONT_ID_BASE {
            // A core-minted id (the large route or the whole fast path is
            // disabled, or the id is unknown): the core owns it. Core ids
            // and front-end ids live in disjoint halves of the id space,
            // so a double-freed front-end id can never alias a core
            // allocation.
            return self.inner.core.lock().deallocate(id);
        }
        let banks = if raw & LARGE_ID_BIT != 0 {
            &self.inner.large
        } else {
            &self.inner.shards
        };
        // The minting bank rides in the id's low bits; its lock covers the
        // live entry, the free list, and the stats in one acquisition.
        let bank = &banks[raw as usize & (banks.len() - 1)];
        // A cross-stream fallback with an event source must synchronize the
        // freeing stream before the core may re-serve the block (same rule
        // as `drain_to_core`); carried out of the lock scope.
        let mut sync_before_core = None;
        let to_core = {
            let mut g = bank.lock();
            let Some(entry) = g.live.remove(&raw) else {
                return Err(AllocError::UnknownAllocation(id));
            };
            g.stats.fast_frees += 1;
            let (block, key) = (entry.block, entry.key);
            if block.stream == stream {
                if let Some(t) = tel {
                    t.record(EventKind::Free, block.size, stream.as_u32() as u64, 0);
                }
                g.park_capped(block, key)
            } else {
                // Cross-stream free: the block must not be reusable (by
                // anyone, on any stream) until the freeing stream's
                // in-flight work is done with it. With an event source,
                // record an event on the freeing stream and park the block
                // in the pending ring (promotion hands it back to the
                // OWNING stream once the event completes); without one —
                // or when the ring is full — fall back to the
                // return-through-the-core rule.
                if let Some(events) = &self.inner.events {
                    if g.can_pend(self.inner.pending_ring_cap) {
                        let parked = match events.try_record(stream) {
                            Some(event) => {
                                g.stats.pending_bytes += block.size;
                                g.stats.pending_blocks += 1;
                                g.pending.push_back(PendingBlock {
                                    block,
                                    key,
                                    event,
                                    freed_from: stream,
                                });
                                true
                            }
                            // The event is already complete at record time
                            // (the freeing stream has nothing in flight):
                            // skip the ring and park straight into the
                            // OWNER's free list — the park+promote pair
                            // collapsed into one step.
                            None if g.try_park(block, key) => {
                                g.stats.event_promotions += 1;
                                true
                            }
                            // Caught up but the free list is at its cap:
                            // overflow to the core, no synchronization owed.
                            None => false,
                        };
                        if parked {
                            g.stats.cross_stream_parked += 1;
                            if let Some(t) = tel {
                                t.record(
                                    EventKind::CrossStreamPark,
                                    key,
                                    stream.as_u32() as u64,
                                    block.stream.as_u32() as u64,
                                );
                            }
                            return Ok(());
                        }
                    } else {
                        // Ring (or large bank) full: the block goes to the
                        // core, but the freeing stream is still owed a
                        // synchronization — record the event now (under the
                        // bank lock, the source is a lock-order leaf) and
                        // wait it out after the lock drops, before the core
                        // can re-serve the block.
                        sync_before_core = Some(events.record(stream));
                    }
                }
                // Without an event source the core round trip itself is
                // the stand-in for the event: the core mutex is a full
                // synchronization point (the PR 4 conservative rule).
                g.stats.cross_stream_fallback += 1;
                g.stats.cache_returns += 1;
                Some(block)
            }
        };
        if let Some(block) = to_core {
            if let (Some(event), Some(events)) = (sync_before_core, &self.inner.events) {
                events.synchronize(event);
            }
            self.inner
                .core
                .lock()
                .deallocate(block.core_id)
                .expect("front-end owns every cached block");
        }
        Ok(())
    }

    /// Drains the free lists **and pending rings** of `banks` and hands
    /// the blocks to the core; returns the bytes handed back.
    ///
    /// Pending blocks are drained even when their event has not completed:
    /// handing a block to the core is a full synchronization point (the
    /// core mutex serializes against every stream), so the event is
    /// [`synchronize`](EventSource::synchronize)d — after the bank locks
    /// are released, before the core sees the block — exactly as PyTorch
    /// synchronizes outstanding events when `empty_cache` reclaims
    /// cross-stream blocks. Defrag and OOM rescue therefore always see
    /// every cached byte, including not-yet-completed cross-stream blocks.
    fn drain_to_core(&self, banks: &[Mutex<Bank>]) -> u64 {
        let mut blocks: Vec<CachedBlock> = Vec::new();
        let mut pending_events: Vec<EventId> = Vec::new();
        for bank in banks {
            bank.lock().drain_into(&mut blocks, &mut pending_events);
        }
        if blocks.is_empty() {
            return 0;
        }
        if let Some(events) = &self.inner.events {
            for event in pending_events {
                events.synchronize(event);
            }
        }
        let mut bytes = 0;
        let mut core = self.inner.core.lock();
        for block in &blocks {
            bytes += block.size;
            core.deallocate(block.core_id)
                .expect("front-end owns every cached block");
        }
        bytes
    }

    /// Sweeps every bank's pending ring, promoting each cross-stream-freed
    /// block whose event has completed into its owning stream's free list;
    /// returns how many blocks were promoted.
    ///
    /// The allocation path already promotes opportunistically (a free-list
    /// miss checks the bank's own ring before falling through to the
    /// core), so calling this is optional — it is the *proactive* sweep for
    /// natural synchronization points (iteration boundaries, scheduler
    /// ticks), keeping rings short when the owning stream goes idle. A
    /// no-op without an [`EventSource`].
    pub fn process_events(&self) -> u64 {
        let Some(events) = &self.inner.events else {
            return 0;
        };
        let mut promoted = 0;
        for bank in self.inner.shards.iter().chain(self.inner.large.iter()) {
            let mut guard = bank.lock();
            if !guard.pending.is_empty() {
                promoted += guard.promote_completed(&**events);
            }
        }
        if promoted > 0 {
            if let Some(t) = &self.inner.telemetry {
                // A proactive sweep is rare (iteration boundaries), so it
                // is recorded whenever telemetry is on, not sampled.
                t.record(EventKind::EventPromotion, 0, promoted, 0);
            }
        }
        promoted
    }

    /// Returns every block parked in the front-end — small shards and
    /// large banks of **every** stream — to the wrapped core and reports
    /// the bytes handed back. The core decides what happens next (pool
    /// them, release them); flushing itself frees no physical memory.
    ///
    /// This is the flush the defrag/OOM paths run: defragmentation must see
    /// every cached byte, so it can never be scoped to one stream.
    pub fn flush(&self) -> u64 {
        self.drain_to_core(&self.inner.shards) + self.drain_to_core(&self.inner.large)
    }

    /// Returns the blocks parked in `stream`'s shards and large bank (only)
    /// to the wrapped core and reports the bytes handed back — the targeted
    /// variant of [`DeviceAllocator::flush`] for callers that want to
    /// retire one idle stream without disturbing the others' warm caches.
    ///
    /// **Folding caveat:** a stream id at or above the configured
    /// [`DeviceAllocatorConfig::streams`] count folds onto an existing
    /// stream bank (see the config docs), so this drains that *shared*
    /// bank — e.g. `flush_stream(StreamId(8))` on an 8-stream pool drains
    /// stream 0's warm cache too. Pass only configured stream ids when you
    /// want the flush to stay targeted.
    pub fn flush_stream(&self, stream: StreamId) -> u64 {
        let large = std::slice::from_ref(&self.inner.large[self.bank_index(stream)]);
        self.drain_to_core(self.stream_shards(stream)) + self.drain_to_core(large)
    }

    /// Sums the reconciliation counters of a slice of banks.
    fn sum(banks: &[Mutex<Bank>]) -> BankStats {
        let mut total = BankStats::default();
        for bank in banks {
            total.absorb(&bank.lock().stats);
        }
        total
    }

    /// Sums the counters of every bank, small and large.
    fn totals(&self) -> BankStats {
        let mut total = Self::sum(&self.inner.shards);
        total.absorb(&Self::sum(&self.inner.large));
        total
    }

    /// Memory statistics of the pool: the wrapped core's counters
    /// reconciled with the per-bank front-end counters. Exact whenever the
    /// pool is quiescent; a faithful snapshot under concurrency.
    ///
    /// Blocks waiting in the pending rings count as *freed* here, exactly
    /// like blocks parked in the free lists: the caller relinquished them,
    /// only the event machinery still holds them back from reuse. A block
    /// between selection and commit is counted exactly once (live at the
    /// core, no longer cached: `take` uncounts it under the same bank-lock
    /// acquisition that books the hit).
    ///
    /// Peak watermarks are measured at the core, so bytes parked in the
    /// front-end count toward `peak_active_bytes` (an upper bound).
    pub fn stats(&self) -> MemStats {
        let fast = self.totals();
        let mut s = self.inner.core.lock().stats();
        s.alloc_count += fast.hits;
        s.free_count = (s.free_count + fast.fast_frees).saturating_sub(fast.cache_returns);
        s.requested_bytes_total =
            (s.requested_bytes_total + fast.requested).saturating_sub(fast.requested_inflation);
        s.active_bytes = s
            .active_bytes
            .saturating_sub(fast.cached_bytes + fast.pending_bytes);
        s
    }

    /// Projects summed bank counters into the public telemetry shape.
    fn cache_stats_of(fast: BankStats, shards: usize, streams: usize) -> DeviceCacheStats {
        DeviceCacheStats {
            hits: fast.hits,
            misses: fast.misses,
            cached_bytes: fast.cached_bytes,
            cached_blocks: fast.cached_blocks,
            cross_stream_parked: fast.cross_stream_parked,
            cross_stream_fallback: fast.cross_stream_fallback,
            pending_bytes: fast.pending_bytes,
            pending_blocks: fast.pending_blocks,
            event_promotions: fast.event_promotions,
            shards,
            streams,
        }
    }

    /// Cache telemetry aggregated across every stream — small shards
    /// **and** large banks (see [`DeviceAllocator::large_cache_stats`] for
    /// the large route alone).
    pub fn cache_stats(&self) -> DeviceCacheStats {
        Self::cache_stats_of(
            self.totals(),
            self.inner.shards.len(),
            self.inner.stream_banks,
        )
    }

    /// Cache telemetry of the large route only: the per-stream large banks'
    /// hits/misses, parked and pending blocks, and event-guard counters
    /// (`shards` reports the bank count). Empty unless requests at or above
    /// the threshold ran with `max_cached_large_per_bank > 0`.
    pub fn large_cache_stats(&self) -> DeviceCacheStats {
        Self::cache_stats_of(
            Self::sum(&self.inner.large),
            self.inner.large.len(),
            self.inner.stream_banks,
        )
    }

    /// Cache telemetry of one stream's shards and large bank only (`shards`
    /// reports the stream's shard count, `streams` is 1). Includes the
    /// pending-ring occupancy ([`DeviceCacheStats::pending_bytes`] /
    /// [`DeviceCacheStats::pending_blocks`]): cross-stream-freed blocks
    /// owned by this stream that are still waiting on their event.
    ///
    /// **Folding caveat:** a stream id at or above the configured
    /// [`DeviceAllocatorConfig::streams`] count folds onto an existing
    /// stream bank (see the config docs), so the counters reported here are
    /// the shared bank's — they include activity from every stream folded
    /// onto it.
    pub fn stream_cache_stats(&self, stream: StreamId) -> DeviceCacheStats {
        let mut fast = Self::sum(self.stream_shards(stream));
        fast.absorb(&self.inner.large[self.bank_index(stream)].lock().stats);
        Self::cache_stats_of(fast, self.inner.class_shards, 1)
    }

    /// Backend name, cached at construction (never takes a lock).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Forwards the iteration hint to the core (see
    /// [`AllocatorCore::iteration_boundary`]).
    pub fn iteration_boundary(&self) {
        self.inner.core.lock().iteration_boundary();
    }

    /// Flushes the front-end caches into the core, then releases the core's
    /// cached memory (see [`AllocatorCore::release_cached`]). Returns the
    /// physical bytes released.
    pub fn release_cached(&self) -> u64 {
        self.flush();
        self.inner.core.lock().release_cached()
    }

    /// Flushes the front-end caches into the core, then runs the core's
    /// proactive defrag pass (see [`AllocatorCore::compact`]). Returns the
    /// physical bytes released.
    pub fn compact(&self) -> u64 {
        self.flush();
        self.inner.core.lock().compact()
    }

    /// Instantaneous fragmentation ratio over the reconciled [`stats`]
    /// (bytes parked in the front-end count as reclaimable, not active).
    ///
    /// [`stats`]: DeviceAllocator::stats
    pub fn fragmentation(&self) -> f64 {
        let s = self.stats();
        if s.reserved_bytes == 0 {
            0.0
        } else {
            1.0 - s.active_bytes as f64 / s.reserved_bytes as f64
        }
    }

    /// Runs `f` with exclusive access to the wrapped core — the escape
    /// hatch for implementation-specific calls. The front-end caches are
    /// *not* flushed first (call [`DeviceAllocator::flush`] if `f` needs to
    /// see every block); do not block inside `f`, every core-path caller
    /// waits.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut dyn AllocatorCore) -> R) -> R {
        f(&mut **self.inner.core.lock())
    }

    /// Forwards [`AllocatorCore::set_stitch_enabled`] to the wrapped core.
    /// The front-end caches are untouched — only the core's composition
    /// machinery is gated, so warm fast paths stay warm while a circuit
    /// breaker holds stitching open.
    pub fn set_stitch_enabled(&self, enabled: bool) {
        self.inner.core.lock().set_stitch_enabled(enabled);
    }

    /// Forwards [`AllocatorCore::fault_journal_stats`] to the wrapped core
    /// without flushing the front-end caches (journal counters live in the
    /// core and are unaffected by parked blocks).
    pub fn fault_journal_stats(&self) -> crate::stats::FaultJournalStats {
        self.inner.core.lock().fault_journal_stats()
    }

    /// Typed variant of [`DeviceAllocator::with_core`]: runs `f` on the
    /// wrapped core if it is a `T` (via [`AllocatorCore::as_any_mut`]),
    /// e.g. to read `GmLakeAllocator::state_counters` behind the
    /// type-erased front-end. Returns `None` when the core is not a `T`.
    pub fn with_core_as<T: AllocatorCore + 'static, R>(
        &self,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let mut guard = self.inner.core.lock();
        guard.as_any_mut()?.downcast_mut::<T>().map(f)
    }
}

/// `DeviceAllocator` is itself an [`AllocatorCore`] so trait-generic code
/// (the sequential replayer, ablation harnesses) can drive a shared pool;
/// every method delegates to the concurrent `&self` inherent API.
impl AllocatorCore for DeviceAllocator {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        DeviceAllocator::allocate(self, req)
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        DeviceAllocator::deallocate(self, id)
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        DeviceAllocator::alloc_on_stream(self, req, stream)
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        DeviceAllocator::free_on_stream(self, id, stream)
    }

    fn stats(&self) -> MemStats {
        DeviceAllocator::stats(self)
    }

    fn name(&self) -> &'static str {
        DeviceAllocator::name(self)
    }

    fn iteration_boundary(&mut self) {
        DeviceAllocator::iteration_boundary(self)
    }

    fn process_events(&mut self) -> u64 {
        DeviceAllocator::process_events(self)
    }

    fn release_cached(&mut self) -> u64 {
        DeviceAllocator::release_cached(self)
    }

    fn compact(&mut self) -> u64 {
        DeviceAllocator::compact(self)
    }

    fn fragmentation(&self) -> f64 {
        DeviceAllocator::fragmentation(self)
    }

    fn set_stitch_enabled(&mut self, enabled: bool) {
        DeviceAllocator::set_stitch_enabled(self, enabled)
    }

    fn fault_journal_stats(&self) -> crate::stats::FaultJournalStats {
        DeviceAllocator::fault_journal_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::ManualEvents;
    use std::collections::HashMap as StdHashMap;

    /// Test core with strict accounting and a bounded capacity.
    #[derive(Default)]
    struct TestCore {
        next: u64,
        live: StdHashMap<AllocationId, u64>,
        stats: MemStats,
        capacity: u64,
        released: u64,
    }

    impl TestCore {
        fn bounded(capacity: u64) -> Self {
            TestCore {
                capacity,
                ..TestCore::default()
            }
        }
    }

    impl AllocatorCore for TestCore {
        fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
            if req.size == 0 {
                return Err(AllocError::ZeroSize);
            }
            if self.capacity > 0 && self.stats.active_bytes + req.size > self.capacity {
                return Err(AllocError::OutOfMemory {
                    requested: req.size,
                    reserved: self.stats.reserved_bytes,
                    capacity: self.capacity,
                });
            }
            self.next += 1;
            let id = AllocationId::new(self.next);
            self.live.insert(id, req.size);
            self.stats.on_alloc(req.size, req.size);
            let r = self.stats.active_bytes;
            self.stats.set_reserved(r.max(self.stats.reserved_bytes));
            Ok(Allocation {
                id,
                va: VirtAddr::new(self.next << 24),
                size: req.size,
                requested: req.size,
            })
        }

        fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
            let size = self
                .live
                .remove(&id)
                .ok_or(AllocError::UnknownAllocation(id))?;
            self.stats.on_free(size);
            Ok(())
        }

        fn stats(&self) -> MemStats {
            self.stats
        }

        fn name(&self) -> &'static str {
            "test-core"
        }

        fn release_cached(&mut self) -> u64 {
            let r = self.stats.reserved_bytes - self.stats.active_bytes;
            self.released += r;
            let active = self.stats.active_bytes;
            self.stats.set_reserved(active);
            // set_reserved only raises the peak; force the current value.
            self.stats.reserved_bytes = active;
            r
        }
    }

    /// A front-end over `core` with `config`, strictly validated.
    fn pool_with(core: TestCore, config: DeviceAllocatorConfig) -> DeviceAllocator {
        DeviceAllocator::builder()
            .config(config)
            .build(Box::new(core))
            .unwrap()
    }

    /// [`pool_with`] plus an event source.
    fn events_pool_with(
        core: TestCore,
        config: DeviceAllocatorConfig,
        events: Arc<dyn EventSource>,
    ) -> DeviceAllocator {
        DeviceAllocator::builder()
            .config(config)
            .events(events)
            .build(Box::new(core))
            .unwrap()
    }

    /// Mask of the global shard index — the low bits of a small-route id.
    fn shard_mask(pool: &DeviceAllocator) -> u64 {
        pool.inner.shards.len() as u64 - 1
    }

    /// Builds with `cfg` as given: the strict path.
    fn build_strict(cfg: &DeviceAllocatorConfig) -> Result<DeviceAllocator, AllocError> {
        DeviceAllocator::builder()
            .config(cfg.clone())
            .build(Box::new(TestCore::default()))
    }

    #[test]
    fn size_classes_round_up_to_powers_of_two() {
        assert_eq!(size_class(1), MIN_CLASS);
        assert_eq!(size_class(512), 512);
        assert_eq!(size_class(513), 1024);
        assert_eq!(size_class(mib(1)), mib(1));
        assert_eq!(size_class(mib(1) + 1), mib(2));
    }

    #[test]
    fn minted_ids_are_unique_and_route_back_to_their_shard() {
        let pool = DeviceAllocator::new(TestCore::default());
        let mask = shard_mask(&pool);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200u64 {
            let size = 512 << (i % 8); // several classes, several shards
            let a = pool.allocate(AllocRequest::new(size)).unwrap();
            assert!(a.id.as_u64() >= FRONT_ID_BASE);
            assert!(seen.insert(a.id), "front-end ids are never reused");
            let class = size_class(size);
            assert_eq!(
                (a.id.as_u64() & mask) as usize,
                class_shard_index(class, mask),
                "the id's low bits name the minting shard"
            );
            pool.deallocate(a.id).unwrap();
        }
    }

    #[test]
    fn fast_path_reuses_blocks_without_touching_the_core() {
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(1000)).unwrap();
        assert!(a.size >= 1000);
        pool.deallocate(a.id).unwrap();
        // Same class: served from the shard cache — the core sees nothing.
        let b = pool.allocate(AllocRequest::new(900)).unwrap();
        assert_eq!(b.va, a.va, "the cached block was reused");
        assert!(b.size >= 900);
        assert_ne!(b.id, a.id, "front-end ids are never reused");
        pool.deallocate(b.id).unwrap();
        let cache = pool.cache_stats();
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        assert_eq!(cache.cached_blocks, 1);
        assert_eq!(pool.with_core(|c| c.stats().alloc_count), 1);
    }

    #[test]
    fn stats_reconcile_exactly_at_quiescence() {
        let pool = DeviceAllocator::new(TestCore::default());
        for _ in 0..5 {
            let a = pool.allocate(AllocRequest::new(700)).unwrap();
            pool.deallocate(a.id).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(s.requested_bytes_total, 5 * 700, "true requested bytes");
        // Flushing hands the cached block back to the core without
        // disturbing the caller-visible counters.
        assert_eq!(pool.flush(), 1024);
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(pool.cache_stats().cached_blocks, 0);
    }

    #[test]
    fn double_free_of_a_front_end_id_is_reported() {
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(100)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(
            pool.deallocate(a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id)
        );
    }

    #[test]
    fn zero_size_rejected_without_locking_the_core() {
        let pool = DeviceAllocator::new(TestCore::default());
        let _hold = pool.inner.core.lock();
        // Must not deadlock: the zero-size check precedes any core access.
        assert_eq!(
            pool.allocate(AllocRequest::new(0)).unwrap_err(),
            AllocError::ZeroSize
        );
    }

    #[test]
    fn large_requests_bypass_the_shards() {
        // Large requests never touch the small size-class shards: they are
        // served by the per-stream large banks, under ids carrying
        // LARGE_ID_BIT, and a warm exact-size hit costs no core traffic.
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        assert!(a.id.as_u64() >= FRONT_ID_BASE, "front-end id handed out");
        assert_ne!(a.id.as_u64() & LARGE_ID_BIT, 0, "large-route id");
        assert_eq!(pool.cache_stats().misses, 1);
        pool.deallocate(a.id).unwrap();
        let large = pool.large_cache_stats();
        assert_eq!(large.cached_blocks, 1, "parked in the large bank");
        assert_eq!(
            DeviceAllocator::sum(&pool.inner.shards).cached_blocks,
            0,
            "shards untouched"
        );
        assert_eq!(
            pool.deallocate(a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id),
            "large double-free detected by the bank's live table"
        );
        let b = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        assert_eq!(b.va, a.va, "exact-size reuse from the bank");
        assert_ne!(b.id, a.id, "front-end ids are never reused");
        assert_eq!(pool.with_core(|c| c.stats().alloc_count), 1, "one miss");
        pool.deallocate(b.id).unwrap();
        assert_eq!(pool.flush(), mib(8), "flush drains the large banks");
    }

    #[test]
    fn large_route_disabled_hands_out_core_ids() {
        // max_cached_large_per_bank == 0 is the single-mutex baseline: the
        // pre-PR 9 behaviour, and what bench_pr9 compares against.
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_max_cached_large_per_bank(0),
        );
        let a = pool.allocate(AllocRequest::new(mib(8))).unwrap();
        assert!(a.id.as_u64() < FRONT_ID_BASE, "core id handed out");
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.large_cache_stats().cached_blocks, 0);
        assert_eq!(
            pool.deallocate(a.id).unwrap_err(),
            AllocError::UnknownAllocation(a.id),
            "large double-free detected by the core"
        );
    }

    #[test]
    fn cross_stream_large_free_waits_for_its_event_before_reuse() {
        // Satellite-1 regression pin: a large block freed on a
        // NON-allocating stream must not be reusable (by any path) until
        // the freeing stream's event completes — and once it is served
        // again, no event may still be outstanding.
        let (pool, events) = event_pool(u64::MAX);
        let a = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let large = pool.large_cache_stats();
        assert_eq!(large.cross_stream_parked, 1, "event recorded and parked");
        assert_eq!(large.pending_blocks, 1);
        assert_eq!(events.pending(), 1, "the guard event is outstanding");
        // The owner asks again while the event is incomplete: the bank must
        // NOT hand the block back; the request goes to the core instead.
        let b = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        assert_ne!(b.va, a.va, "pending block must not be re-served");
        events.complete_all();
        let c = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        assert_eq!(c.va, a.va, "promoted after completion and re-served");
        assert_eq!(events.pending(), 0, "no event outstanding before reuse");
        assert_eq!(pool.large_cache_stats().event_promotions, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        pool.free_on_stream(c.id, StreamId(1)).unwrap();
    }

    #[test]
    fn cross_stream_large_fallback_synchronizes_before_the_core() {
        // Ring capacity 0 disables large event parking: the fallback must
        // still record an event on the freeing stream and synchronize it
        // before the core dealloc — the drain_to_core rule large frees
        // used to bypass entirely.
        let events = Arc::new(ManualEvents::new());
        let pool = events_pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default()
                .with_streams(2)
                .with_pending_ring_cap(0),
            events.clone(),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let large = pool.large_cache_stats();
        assert_eq!(large.cross_stream_fallback, 1, "fell back to the core");
        assert_eq!(
            events.pending(),
            0,
            "the guard event was recorded AND synchronized before the core \
             could re-serve the block"
        );
        assert_eq!(pool.with_core(|c| c.stats().free_count), 1);
    }

    #[test]
    fn folded_streams_large_path() {
        // Satellite-2 pin: streams folded onto the same bank (ids at or
        // above the configured stream count) share a bank for PLACEMENT
        // only. Affinity keys on the original StreamId — stream 5's parked
        // block is invisible to stream 1 even though both live in bank 1 —
        // and the cross-stream guard fires on original ids too.
        let (pool, events) = event_pool(u64::MAX); // 2 banks
        let a = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(5)).unwrap(); // same stream: parks
        assert_eq!(pool.stream_cache_stats(StreamId(5)).cached_blocks, 1);
        // Stream 1 folds onto the same bank but must not receive 5's block.
        let b = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        assert_ne!(b.va, a.va, "foreign folded block skipped");
        // A free of stream-1's block issued from stream 5 is cross-stream
        // (same bank, different original id): the event guard must fire.
        pool.free_on_stream(b.id, StreamId(5)).unwrap();
        let large = pool.large_cache_stats();
        assert_eq!(large.cross_stream_parked, 1, "guard keyed on original id");
        assert_eq!(events.pending(), 1);
        // Stream 5 still reuses its own block.
        let c = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(5))
            .unwrap();
        assert_eq!(c.va, a.va, "affinity keyed on original id");
        pool.free_on_stream(c.id, StreamId(5)).unwrap();
        events.complete_all();
        pool.flush();
        assert_eq!(events.pending(), 0);
    }

    #[test]
    fn large_stats_reconcile_exactly_at_quiescence() {
        // Satellite-3 pin: hits, parked frees, and in-flight commits of the
        // large route never double-count as cached+active; at quiescence
        // the reconciled counters are exact.
        let pool = DeviceAllocator::new(TestCore::default());
        for _ in 0..5 {
            let a = pool.allocate(AllocRequest::new(mib(4))).unwrap();
            pool.deallocate(a.id).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(s.requested_bytes_total, 5 * mib(4), "exact requested");
        let large = pool.large_cache_stats();
        assert_eq!((large.hits, large.misses), (4, 1));
        assert_eq!(pool.flush(), mib(4));
        let s = pool.stats();
        assert_eq!(s.alloc_count, 5);
        assert_eq!(s.free_count, 5);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(pool.large_cache_stats().cached_blocks, 0);
    }

    #[test]
    fn large_bank_cap_overflows_to_the_core() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_max_cached_large_per_bank(2),
        );
        let ids: Vec<_> = (0..4)
            .map(|_| pool.allocate(AllocRequest::new(mib(4))).unwrap().id)
            .collect();
        for id in ids {
            pool.deallocate(id).unwrap();
        }
        let large = pool.large_cache_stats();
        assert_eq!(large.cached_blocks, 2, "bank cap respected");
        assert_eq!(pool.with_core(|c| c.stats().free_count), 2, "2 overflowed");
        assert_eq!(pool.stats().active_bytes, 0);
    }

    #[test]
    fn large_oom_flushes_the_banks_and_retries() {
        // Capacity fits exactly one 4 MiB block: the parked large block
        // must be handed back to the core for the next allocation to
        // succeed (the flush-and-retry reaches the large banks).
        let pool = DeviceAllocator::new(TestCore::bounded(mib(4)));
        let a = pool.allocate(AllocRequest::new(mib(4))).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.large_cache_stats().cached_blocks, 1);
        let b = pool.allocate(AllocRequest::new(mib(3))).unwrap();
        assert_eq!(b.size, mib(3));
        pool.deallocate(b.id).unwrap();
        let s = pool.stats();
        assert_eq!(s.alloc_count, 2);
        assert_eq!(s.free_count, 2);
        assert_eq!(s.active_bytes, 0);
    }

    #[test]
    fn oom_flushes_the_shards_and_retries() {
        // Capacity fits exactly one 1 KiB class block. The cached block
        // must be handed back to the core for the second allocation to
        // succeed — the core alone could never free it.
        let pool = DeviceAllocator::new(TestCore::bounded(1024));
        let a = pool.allocate(AllocRequest::new(1000)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, 1);
        let b = pool.allocate(AllocRequest::new(600)).unwrap();
        assert!(b.size >= 600);
        pool.deallocate(b.id).unwrap();
        // 600 rounds to the 1024 class: the flush made room for it.
        let s = pool.stats();
        assert_eq!(s.alloc_count, 2);
        assert_eq!(s.free_count, 2);
        assert_eq!(s.active_bytes, 0);
    }

    #[test]
    fn per_class_cache_overflow_returns_to_the_core() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_max_cached_per_class(2),
        );
        let ids: Vec<_> = (0..4)
            .map(|_| pool.allocate(AllocRequest::new(800)).unwrap().id)
            .collect();
        for id in ids {
            pool.deallocate(id).unwrap();
        }
        assert_eq!(pool.cache_stats().cached_blocks, 2, "capped at 2");
        let s = pool.stats();
        assert_eq!(s.alloc_count, 4);
        assert_eq!(s.free_count, 4);
        assert_eq!(s.active_bytes, 0);
        assert_eq!(
            pool.with_core(|c| c.stats().live_allocations()),
            2,
            "only the cached blocks remain live in the core"
        );
    }

    #[test]
    fn release_cached_reaches_blocks_parked_in_shards() {
        let pool = DeviceAllocator::new(TestCore::default());
        let a = pool.allocate(AllocRequest::new(1024)).unwrap();
        pool.deallocate(a.id).unwrap();
        assert_eq!(pool.cache_stats().cached_bytes, 1024);
        let released = pool.release_cached();
        assert_eq!(released, 1024, "the parked block reached the device");
        assert_eq!(pool.cache_stats().cached_bytes, 0);
        assert_eq!(pool.stats().reserved_bytes, 0);
    }

    #[test]
    fn threshold_zero_disables_the_fast_path() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_small_threshold(0),
        );
        let a = pool.allocate(AllocRequest::new(100)).unwrap();
        assert!(a.id.as_u64() < FRONT_ID_BASE);
        pool.deallocate(a.id).unwrap();
        let c = pool.cache_stats();
        assert_eq!((c.hits, c.misses, c.cached_blocks), (0, 0, 0));
    }

    #[test]
    fn front_end_is_send_sync_clone() {
        fn assert_traits<T: Send + Sync + Clone>() {}
        assert_traits::<DeviceAllocator>();
    }

    #[test]
    fn zero_streams_is_an_error_not_a_panic() {
        let cfg = DeviceAllocatorConfig::default().with_streams(0);
        assert!(matches!(
            cfg.validate(),
            Err(AllocError::InvalidConfig(msg)) if msg.contains("streams")
        ));
        let err = build_strict(&cfg).unwrap_err();
        assert!(matches!(err, AllocError::InvalidConfig(_)));
        // Normalizing first repairs the value instead of panicking.
        let pool = pool_with(TestCore::default(), cfg.normalized());
        assert_eq!(pool.cache_stats().streams, 1);
    }

    #[test]
    fn zero_shards_is_an_error_not_a_panic() {
        let cfg = DeviceAllocatorConfig::default().with_shards(0);
        assert!(matches!(
            cfg.validate(),
            Err(AllocError::InvalidConfig(msg)) if msg.contains("shards")
        ));
        let err = build_strict(&cfg).unwrap_err();
        assert!(matches!(err, AllocError::InvalidConfig(_)));
        // Normalizing first repairs the value instead of panicking.
        let pool = pool_with(TestCore::default(), cfg.normalized());
        assert_eq!(pool.cache_stats().shards, 1);
    }

    #[test]
    fn oversized_streams_or_shards_are_an_error_not_a_panic() {
        // usize::MAX would overflow next_power_of_two() (and the
        // banks * shards product) at construction — the bounds check must
        // catch it in validate(), upholding the "never a panic" contract.
        for cfg in [
            DeviceAllocatorConfig::default().with_streams(usize::MAX),
            DeviceAllocatorConfig::default().with_streams(MAX_STREAMS + 1),
            DeviceAllocatorConfig::default().with_shards(usize::MAX),
            DeviceAllocatorConfig::default().with_shards(MAX_SHARDS + 1),
        ] {
            assert!(matches!(cfg.validate(), Err(AllocError::InvalidConfig(_))));
            let err = build_strict(&cfg).unwrap_err();
            assert!(matches!(err, AllocError::InvalidConfig(_)));
            // Normalizing first clamps instead of panicking.
            let pool = pool_with(TestCore::default(), cfg.normalized());
            let c = pool.cache_stats();
            assert!(c.streams <= MAX_STREAMS && c.shards <= MAX_STREAMS * MAX_SHARDS);
        }
        // The bounds themselves are accepted.
        assert!(DeviceAllocatorConfig::default()
            .with_streams(MAX_STREAMS)
            .with_shards(MAX_SHARDS)
            .validate()
            .is_ok());
    }

    #[test]
    fn normalized_output_always_validates() {
        // The contract clamping callers rely on: whatever validate()
        // rejects, normalized() repairs.
        for cfg in [
            DeviceAllocatorConfig::default()
                .with_streams(0)
                .with_shards(0),
            DeviceAllocatorConfig::default()
                .with_streams(usize::MAX)
                .with_shards(usize::MAX),
        ] {
            assert!(cfg.validate().is_err());
            assert!(cfg.normalized().validate().is_ok());
        }
        let repaired = DeviceAllocatorConfig::default()
            .with_streams(0)
            .with_shards(0)
            .normalized();
        assert_eq!((repaired.streams, repaired.shards), (1, 1));
        let clamped = DeviceAllocatorConfig::default()
            .with_streams(usize::MAX)
            .with_shards(usize::MAX)
            .normalized();
        assert_eq!((clamped.streams, clamped.shards), (MAX_STREAMS, MAX_SHARDS));
    }

    #[test]
    fn stream_count_rounds_to_a_power_of_two_banks() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default()
                .with_streams(3)
                .with_shards(4),
        );
        let c = pool.cache_stats();
        assert_eq!(c.streams, 4, "3 streams round up to 4 banks");
        assert_eq!(c.shards, 16, "4 banks x 4 class shards");
        assert_eq!(pool.stream_cache_stats(StreamId(1)).shards, 4);
    }

    #[test]
    fn same_class_different_streams_use_disjoint_shards() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(4),
        );
        // Same size class on two streams: each bank minted its own id and
        // caches its own block.
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_ne!(
            a.id.as_u64() & shard_mask(&pool),
            b.id.as_u64() & shard_mask(&pool),
            "the id's low bits name different shards"
        );
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        assert_eq!(pool.stream_cache_stats(StreamId(0)).cached_blocks, 1);
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_blocks, 1);
        // Each stream reuses only its own cached block.
        let a2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        assert_eq!(a2.va, a.va, "stream 0 got stream 0's block back");
        pool.free_on_stream(a2.id, StreamId(0)).unwrap();
    }

    #[test]
    fn cross_stream_free_routes_through_the_core() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(2),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        // Freed from stream 0: the block must NOT be parked for reuse.
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let c = pool.cache_stats();
        assert_eq!(c.cached_blocks, 0, "cross-stream free never parks");
        assert_eq!(c.cross_stream_fallback, 1, "no event source: via the core");
        assert_eq!(c.cross_stream_parked, 0);
        assert_eq!(
            pool.with_core(|core| core.stats().live_allocations()),
            0,
            "the block went back to the core"
        );
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (1, 1, 0));
        // A fresh allocation on either stream misses (nothing was cached).
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        assert_eq!(pool.cache_stats().hits, 0);
        pool.free_on_stream(b.id, StreamId(0)).unwrap();
    }

    #[test]
    fn same_stream_free_on_a_nondefault_stream_parks_for_reuse() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(2),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(1)).unwrap();
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_blocks, 1);
        let b = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va, "same-stream reuse hit the cache");
        assert_eq!(pool.cache_stats().hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
    }

    #[test]
    fn flush_and_flush_stream_cover_the_right_banks() {
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(2),
        );
        // One small-class and one large block parked per stream.
        let per_stream = 1024 + mib(4);
        for s in [StreamId(0), StreamId(1)] {
            let a = pool.alloc_on_stream(AllocRequest::new(1000), s).unwrap();
            let big = pool.alloc_on_stream(AllocRequest::new(mib(4)), s).unwrap();
            pool.free_on_stream(a.id, s).unwrap();
            pool.free_on_stream(big.id, s).unwrap();
        }
        assert_eq!(pool.cache_stats().cached_bytes, 2 * per_stream);
        assert_eq!(pool.large_cache_stats().cached_blocks, 2);
        // Targeted flush: only stream 1's shards and large bank drain.
        assert_eq!(pool.flush_stream(StreamId(1)), per_stream);
        assert_eq!(pool.stream_cache_stats(StreamId(1)).cached_bytes, 0);
        assert_eq!(
            pool.stream_cache_stats(StreamId(0)).cached_bytes,
            per_stream
        );
        assert_eq!(pool.large_cache_stats().cached_blocks, 1);
        // Full flush reaches every remaining bank.
        assert_eq!(pool.flush(), per_stream);
        assert_eq!(pool.cache_stats().cached_bytes, 0);
        assert_eq!(pool.large_cache_stats().cached_blocks, 0);
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (4, 4, 0));
    }

    #[test]
    fn oom_retry_flushes_every_streams_cache() {
        // Capacity fits exactly two 1 KiB class blocks; both end up parked,
        // one per stream. A 2 KiB-class allocation can only succeed if the
        // OOM retry flushes BOTH banks, not just the allocating stream's.
        let pool = pool_with(
            TestCore::bounded(2048),
            DeviceAllocatorConfig::default().with_streams(2),
        );
        for s in [StreamId(0), StreamId(1)] {
            let a = pool.alloc_on_stream(AllocRequest::new(1024), s).unwrap();
            pool.free_on_stream(a.id, s).unwrap();
        }
        assert_eq!(pool.cache_stats().cached_bytes, 2048);
        let big = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(0))
            .unwrap();
        assert_eq!(big.size, 2048, "flush-across-streams rescued the request");
        assert_eq!(pool.cache_stats().cached_bytes, 0);
        pool.free_on_stream(big.id, StreamId(0)).unwrap();
    }

    #[test]
    fn streams_beyond_the_configured_banks_fold_but_stay_guarded() {
        // Placement folds stream 5 onto bank 1 (2 banks), but the reuse
        // guard compares exact StreamIds: stream 1 freeing stream 5's block
        // is cross-stream even though they share a bank.
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(2),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(1)).unwrap();
        let c = pool.cache_stats();
        assert_eq!(c.cross_stream_fallback, 1);
        assert_eq!(c.cached_blocks, 0);
    }

    #[test]
    fn folded_streams_never_reuse_each_others_parked_blocks() {
        // Stream 5 folds onto bank 1 (2 banks) and parks a block there via a
        // same-stream free. Stream 1 shares that bank's free lists, but an
        // allocation on stream 1 must NOT be handed stream 5's block — a
        // block only moves between streams through the core mutex.
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(2),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(5)).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, 1, "parked in bank 1");
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_ne!(b.va, a.va, "stream 1 must not get stream 5's block");
        let c = pool.cache_stats();
        assert_eq!(c.hits, 0, "the mismatched block is a miss, not a hit");
        assert_eq!(c.cached_blocks, 1, "stream 5's block stays parked");
        // Stream 5 itself still reuses its own block.
        let a2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        assert_eq!(a2.va, a.va, "stream 5 got its own block back");
        assert_eq!(pool.cache_stats().hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        pool.free_on_stream(a2.id, StreamId(5)).unwrap();
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (3, 3, 0));
    }

    #[test]
    fn foreign_blocks_at_cap_are_evicted_not_wedged() {
        // Stream 5 folds onto bank 1 (2 banks) and fills the class cache to
        // its cap, then goes idle. Stream 1 shares that shard: its frees
        // must evict the foreign blocks (to the core) rather than overflow
        // forever, so the warm path recovers instead of staying wedged.
        let pool = pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default()
                .with_streams(2)
                .with_max_cached_per_class(2),
        );
        let foreign: Vec<_> = (0..2)
            .map(|_| {
                pool.alloc_on_stream(AllocRequest::new(1024), StreamId(5))
                    .unwrap()
                    .id
            })
            .collect();
        for id in foreign {
            pool.free_on_stream(id, StreamId(5)).unwrap();
        }
        assert_eq!(
            pool.cache_stats().cached_blocks,
            2,
            "cap filled by stream 5"
        );
        // Stream 1's free at cap evicts one of stream 5's blocks and parks
        // its own.
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(1)).unwrap();
        assert_eq!(pool.cache_stats().cached_blocks, 2, "still at cap");
        // The warm path works for stream 1 now: its own block is parked.
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va, "stream 1 reuses the block it parked");
        assert_eq!(pool.cache_stats().hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (4, 4, 0));
        // Full accounting survives a flush.
        pool.flush();
        assert_eq!(pool.with_core(|c| c.stats().live_allocations()), 0);
    }

    /// A 2-stream pool over a `ManualEvents` source plus a control handle
    /// to script pending→ready transitions.
    fn event_pool(capacity: u64) -> (DeviceAllocator, Arc<ManualEvents>) {
        let events = Arc::new(ManualEvents::new());
        let pool = events_pool_with(
            TestCore::bounded(capacity),
            DeviceAllocatorConfig::default().with_streams(2),
            events.clone(),
        );
        (pool, events)
    }

    #[test]
    fn cross_stream_free_with_events_parks_until_completion() {
        let (pool, events) = event_pool(0);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        // Freed from stream 0: records an event, parks in the pending ring.
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let c = pool.cache_stats();
        assert_eq!(c.cross_stream_parked, 1);
        assert_eq!(c.cross_stream_fallback, 0);
        assert_eq!((c.pending_blocks, c.pending_bytes), (1, 1024));
        assert_eq!(c.cached_blocks, 0, "not reusable before the event");
        assert_eq!(
            pool.with_core(|core| core.stats().live_allocations()),
            1,
            "the core never saw the free — no round trip"
        );
        // The caller-visible stats already count the block as freed.
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (1, 1, 0));
        // While the event is outstanding, the owner's allocation MISSES:
        // the block must not come back early.
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_ne!(b.va, a.va, "pending block must not be handed out");
        assert_eq!(pool.cache_stats().hits, 0);
        // Event completes (b stays live, so the free list is empty): the
        // next owner-stream allocation promotes the pending block and
        // reuses it — one shard lock, no core traffic.
        events.complete_all();
        let core_allocs_before = pool.with_core(|core| core.stats().alloc_count);
        let c2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_eq!(c2.va, a.va, "the promoted block was reused");
        assert_eq!(
            pool.with_core(|core| core.stats().alloc_count),
            core_allocs_before,
            "promotion + reuse required no core allocation"
        );
        let cs = pool.cache_stats();
        assert_eq!(cs.event_promotions, 1);
        assert_eq!(cs.pending_blocks, 0);
        assert_eq!(cs.hits, 1);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        pool.free_on_stream(c2.id, StreamId(1)).unwrap();
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (3, 3, 0));
    }

    #[test]
    fn process_events_sweeps_the_pending_rings() {
        let (pool, events) = event_pool(0);
        // One small-class and one large block, both freed cross-stream.
        let a = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(1))
            .unwrap();
        let big = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        pool.free_on_stream(big.id, StreamId(0)).unwrap();
        assert_eq!(pool.process_events(), 0, "events still outstanding");
        assert_eq!(pool.cache_stats().pending_blocks, 2);
        assert_eq!(pool.large_cache_stats().pending_blocks, 1);
        events.complete_all();
        assert_eq!(pool.process_events(), 2, "the sweep reaches both rings");
        let c = pool.cache_stats();
        assert_eq!(c.pending_blocks, 0);
        assert_eq!(c.cached_blocks, 2, "promoted into the owner's free lists");
        assert_eq!(pool.large_cache_stats().event_promotions, 1);
        // The owner reuses both promoted blocks.
        let b = pool
            .alloc_on_stream(AllocRequest::new(2048), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va);
        let big2 = pool
            .alloc_on_stream(AllocRequest::new(mib(4)), StreamId(1))
            .unwrap();
        assert_eq!(big2.va, big.va);
        assert_eq!(pool.cache_stats().hits, 2);
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        pool.free_on_stream(big2.id, StreamId(1)).unwrap();
    }

    #[test]
    fn process_events_without_a_source_is_a_noop() {
        let pool = DeviceAllocator::new(TestCore::default());
        assert_eq!(pool.process_events(), 0);
    }

    #[test]
    fn full_pending_ring_falls_back_to_the_core_after_synchronizing() {
        let events = Arc::new(ManualEvents::new());
        let pool = events_pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default()
                .with_streams(2)
                .with_pending_ring_cap(1),
            events.clone(),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        assert_eq!(events.pending(), 1, "parked event outstanding");
        pool.free_on_stream(b.id, StreamId(0)).unwrap();
        let c = pool.cache_stats();
        assert_eq!(c.cross_stream_parked, 1, "ring capacity is 1");
        assert_eq!(c.cross_stream_fallback, 1, "overflow went to the core");
        assert_eq!(c.pending_blocks, 1);
        // The overflowing free recorded AND synchronized its event before
        // the core saw the block — same rule as the flush path, so the
        // core can never re-serve a block whose freeing stream is still
        // using it. (ManualEvents completes along a global timeline, so
        // the sync also completed the parked block's earlier event.)
        assert_eq!(events.pending(), 0, "fallback synchronized its event");
        assert_eq!(
            pool.with_core(|core| core.stats().live_allocations()),
            1,
            "exactly the parked block is still core-live"
        );
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (2, 2, 0));
    }

    #[test]
    fn zero_pending_ring_cap_disables_event_parking() {
        let events = Arc::new(ManualEvents::new());
        let pool = events_pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default()
                .with_streams(2)
                .with_pending_ring_cap(0),
            events.clone(),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let c = pool.cache_stats();
        assert_eq!(c.cross_stream_parked, 0, "parking disabled");
        assert_eq!(c.cross_stream_fallback, 1);
        assert_eq!(c.pending_blocks, 0);
        assert_eq!(events.pending(), 0, "fallback event synchronized");
        assert_eq!(pool.with_core(|core| core.stats().live_allocations()), 0);
    }

    #[test]
    fn flush_drains_pending_rings_and_synchronizes_their_events() {
        let (pool, events) = event_pool(0);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1000), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        assert_eq!(events.pending(), 1, "event outstanding");
        // Flush must reach the NOT-yet-completed cross-stream block:
        // defrag/OOM rescue sees every cached byte.
        assert_eq!(pool.flush(), 1024, "the pending block's bytes came back");
        assert_eq!(
            events.pending(),
            0,
            "handing the block to the core synchronized its event"
        );
        let c = pool.cache_stats();
        assert_eq!(
            (c.pending_blocks, c.pending_bytes, c.cached_blocks),
            (0, 0, 0)
        );
        assert_eq!(pool.with_core(|core| core.stats().live_allocations()), 0);
        let s = pool.stats();
        assert_eq!((s.alloc_count, s.free_count, s.active_bytes), (1, 1, 0));
    }

    #[test]
    fn oom_retry_reclaims_pending_blocks() {
        // Capacity fits exactly one 1 KiB-class block, which is stuck in a
        // pending ring behind an uncompleted event. The OOM retry's flush
        // must synchronize and reclaim it or the allocation cannot succeed.
        let (pool, _events) = event_pool(1024);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        assert_eq!(pool.cache_stats().pending_blocks, 1);
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(0))
            .unwrap();
        assert_eq!(b.size, 1024, "flush-and-retry rescued the request");
        assert_eq!(pool.cache_stats().pending_blocks, 0);
        pool.free_on_stream(b.id, StreamId(0)).unwrap();
    }

    #[test]
    fn immediate_events_promote_on_the_very_next_owner_alloc() {
        let pool = events_pool_with(
            TestCore::default(),
            DeviceAllocatorConfig::default().with_streams(2),
            Arc::new(crate::events::ImmediateEvents),
        );
        let a = pool
            .alloc_on_stream(AllocRequest::new(4096), StreamId(1))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        let b = pool
            .alloc_on_stream(AllocRequest::new(4096), StreamId(1))
            .unwrap();
        assert_eq!(b.va, a.va, "already-complete event: immediate reuse");
        let c = pool.cache_stats();
        assert_eq!(
            (c.hits, c.event_promotions, c.cross_stream_parked),
            (1, 1, 1)
        );
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
    }

    #[test]
    fn promoted_blocks_stay_guarded_by_exact_stream_ids() {
        // Stream 5 folds onto bank 1 (2 banks). Its block, cross-stream
        // freed and promoted, must still only be reusable by stream 5 —
        // promotion must not launder the owner tag.
        let (pool, events) = event_pool(0);
        let a = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        pool.free_on_stream(a.id, StreamId(0)).unwrap();
        events.complete_all();
        assert_eq!(pool.process_events(), 1);
        let b = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(1))
            .unwrap();
        assert_ne!(b.va, a.va, "stream 1 must not get stream 5's block");
        let a2 = pool
            .alloc_on_stream(AllocRequest::new(1024), StreamId(5))
            .unwrap();
        assert_eq!(a2.va, a.va, "the owner reuses its promoted block");
        pool.free_on_stream(b.id, StreamId(1)).unwrap();
        pool.free_on_stream(a2.id, StreamId(5)).unwrap();
    }

    #[test]
    fn cross_thread_alloc_free_keeps_exact_accounting() {
        let pool = DeviceAllocator::new(TestCore::default());
        let (tx, rx) = std::sync::mpsc::channel::<AllocationId>();
        std::thread::scope(|s| {
            let producer = pool.clone();
            s.spawn(move || {
                for _ in 0..100 {
                    tx.send(producer.allocate(AllocRequest::new(2048)).unwrap().id)
                        .unwrap();
                }
            });
            let consumer = pool.clone();
            s.spawn(move || {
                for id in rx {
                    consumer.deallocate(id).unwrap();
                }
            });
        });
        let s = pool.stats();
        assert_eq!(s.alloc_count, 100);
        assert_eq!(s.free_count, 100);
        assert_eq!(s.active_bytes, 0);
    }
}
