//! Shared differential-test machinery: the single-mutex `MirrorCore`
//! oracle (used by `stream_differential`), the seeded `xorshift` PRNG
//! (used by `stream_interleaving`), and the lockstep trace driver the
//! planning suite replays two `AllocatorCore`s with (`planning_differential`).
//!
//! Each integration-test crate compiles this module independently and
//! uses a different subset, hence the file-wide `dead_code` allowance.
#![allow(dead_code)]

use std::collections::HashMap;

use gmlake::prelude::*;
use gmlake_workload::{Trace, TraceEvent};

/// The single-mutex oracle's core: strict accounting against a byte budget,
/// no caching, no rounding — deterministic feasibility (`active + size <=
/// capacity`) and exact counters. Differential suites run the same type on
/// both sides, so any disagreement is introduced by the layer under test.
#[derive(Default)]
pub struct MirrorCore {
    next: u64,
    live: HashMap<AllocationId, u64>,
    stats: MemStats,
    capacity: u64,
}

impl MirrorCore {
    /// A mirror that refuses allocations past `capacity` active bytes
    /// (`capacity == 0` means unbounded).
    pub fn bounded(capacity: u64) -> Self {
        MirrorCore {
            capacity,
            ..MirrorCore::default()
        }
    }
}

impl AllocatorCore for MirrorCore {
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
        let active = self.stats.active_bytes;
        self.stats
            .set_reserved(active.max(self.stats.reserved_bytes));
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
        "mirror-core"
    }

    fn release_cached(&mut self) -> u64 {
        let releasable = self.stats.reserved_bytes - self.stats.active_bytes;
        let active = self.stats.active_bytes;
        self.stats.reserved_bytes = active;
        releasable
    }
}

/// The single-mutex oracle: the pre-PR 3 shared-handle shape — every
/// call funnels through one lock, no cache, no streams. `free_on_stream`
/// falls back to plain `deallocate` via the trait default, which is exactly
/// the stream-oblivious semantics the front-end must be equivalent to.
pub struct MutexOracle(pub std::sync::Mutex<MirrorCore>);

impl MutexOracle {
    /// Wraps a [`MirrorCore`] bounded at `capacity` (0 = unbounded).
    pub fn bounded(capacity: u64) -> Self {
        MutexOracle(std::sync::Mutex::new(MirrorCore::bounded(capacity)))
    }

    pub fn alloc(&self, size: u64) -> Result<Allocation, AllocError> {
        self.0.lock().unwrap().allocate(AllocRequest::new(size))
    }

    pub fn free(&self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        self.0.lock().unwrap().free_on_stream(id, stream)
    }

    pub fn stats(&self) -> MemStats {
        self.0.lock().unwrap().stats()
    }
}

/// The deterministic-interleaving suites' seeded PRNG (xorshift64).
pub fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// What the lockstep trace driver observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockstepReport {
    /// Alloc events where both sides succeeded.
    pub agreed_allocs: u64,
    /// Alloc events where both sides returned `OutOfMemory`.
    pub agreed_ooms: u64,
    /// Alloc events the subject served but the oracle refused (only
    /// permitted when the driver runs with `allow_subject_wins`).
    pub subject_wins: u64,
    /// Peak `reserved_bytes` the subject reported after any event.
    pub subject_peak_reserved: u64,
    /// Peak `reserved_bytes` the oracle reported after any event.
    pub oracle_peak_reserved: u64,
}

/// Replays `trace` through `subject` and `oracle` in lockstep, asserting
/// per-op outcome agreement.
///
/// * Both sides see the same alloc/free sequence on the same streams;
///   iteration ends invoke `iteration_boundary` + `process_events` on
///   both, mirroring the `Replayer`'s synchronization points.
/// * An alloc must either succeed on both sides or fail with
///   `OutOfMemory` on both. With `allow_subject_wins`, the subject may
///   additionally succeed where the oracle OOMs (a planner packing
///   tighter than the reactive core is *better*, not divergent) — but a
///   subject OOM where the oracle succeeds always panics.
/// * OOM-failed keys are skipped on later frees for the failing side,
///   matching `ReplayOptions { stop_on_oom: false }` semantics.
pub fn lockstep_replay(
    trace: &Trace,
    subject: &mut dyn AllocatorCore,
    oracle: &mut dyn AllocatorCore,
    allow_subject_wins: bool,
) -> LockstepReport {
    let mut report = LockstepReport::default();
    let mut subject_live: HashMap<u64, AllocationId> = HashMap::new();
    let mut oracle_live: HashMap<u64, AllocationId> = HashMap::new();

    for (i, ev) in trace.events.iter().enumerate() {
        match *ev {
            TraceEvent::Alloc {
                key, size, stream, ..
            } => {
                let s = subject.alloc_on_stream(AllocRequest::new(size), stream);
                let o = oracle.alloc_on_stream(AllocRequest::new(size), stream);
                match (s, o) {
                    (Ok(sa), Ok(oa)) => {
                        assert!(sa.size >= size, "op {i}: subject short-served {key}");
                        assert!(oa.size >= size, "op {i}: oracle short-served {key}");
                        subject_live.insert(key, sa.id);
                        oracle_live.insert(key, oa.id);
                        report.agreed_allocs += 1;
                    }
                    (Err(AllocError::OutOfMemory { .. }), Err(AllocError::OutOfMemory { .. })) => {
                        report.agreed_ooms += 1;
                    }
                    (Ok(sa), Err(AllocError::OutOfMemory { .. })) if allow_subject_wins => {
                        subject_live.insert(key, sa.id);
                        report.subject_wins += 1;
                    }
                    (s, o) => panic!(
                        "op {i}: outcome divergence on key {key} ({size} B, {stream:?}): \
                         subject {s:?} vs oracle {o:?}"
                    ),
                }
            }
            TraceEvent::Free { key, stream } => {
                if let Some(id) = subject_live.remove(&key) {
                    subject
                        .free_on_stream(id, stream)
                        .unwrap_or_else(|e| panic!("op {i}: subject free of {key} failed: {e:?}"));
                }
                if let Some(id) = oracle_live.remove(&key) {
                    oracle
                        .free_on_stream(id, stream)
                        .unwrap_or_else(|e| panic!("op {i}: oracle free of {key} failed: {e:?}"));
                }
            }
            TraceEvent::Compute { .. } | TraceEvent::IterBegin { .. } => {}
            TraceEvent::IterEnd { .. } => {
                subject.iteration_boundary();
                subject.process_events();
                oracle.iteration_boundary();
                oracle.process_events();
            }
        }
        report.subject_peak_reserved = report
            .subject_peak_reserved
            .max(subject.stats().reserved_bytes);
        report.oracle_peak_reserved = report
            .oracle_peak_reserved
            .max(oracle.stats().reserved_bytes);
    }
    assert!(subject_live.is_empty(), "trace left subject keys live");
    assert!(oracle_live.is_empty(), "trace left oracle keys live");
    report
}
