//! Correctness gate: allocation sizes, disjoint live VA ranges and
//! quiescence. The checks run in untimed passes; a violation fails the
//! benchmark command.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use gmlake::alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, FaultJournalStats, MemStats,
    StreamId,
};

/// A broken output of the program under test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Violation {}

/// Fails with `msg` unless `ok`.
pub fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), Violation> {
    if ok {
        Ok(())
    } else {
        Err(Violation(msg()))
    }
}

/// The live allocations' VA ranges; rejects an allocation whose range
/// overlaps a live one, or whose usable size is below the request.
#[derive(Debug, Default)]
pub struct VaRanges {
    /// start -> (end, owner)
    ranges: BTreeMap<u64, (u64, AllocationId)>,
    starts: HashMap<AllocationId, u64>,
}

impl VaRanges {
    /// Records the allocation `a` made for a `requested`-byte request.
    pub fn insert(&mut self, requested: u64, a: &Allocation) -> Result<(), Violation> {
        ensure(a.size >= requested, || {
            format!(
                "allocation {:?} is {} bytes, smaller than the {requested} requested",
                a.id, a.size
            )
        })?;
        let start = a.va.as_u64();
        let end = start + a.size;
        if let Some((&s, &(e, other))) = self.ranges.range(..end).next_back() {
            ensure(e <= start, || {
                format!(
                    "allocation {:?} [{start:#x}, {end:#x}) overlaps live {other:?} [{s:#x}, {e:#x})",
                    a.id
                )
            })?;
        }
        ensure(self.starts.insert(a.id, start).is_none(), || {
            format!("allocation id {:?} handed out twice", a.id)
        })?;
        self.ranges.insert(start, (end, a.id));
        Ok(())
    }

    /// Forgets the freed allocation `id`.
    pub fn remove(&mut self, id: AllocationId) {
        if let Some(start) = self.starts.remove(&id) {
            self.ranges.remove(&start);
        }
    }

    /// Live ranges.
    pub fn len(&self) -> usize {
        self.starts.len()
    }
}

/// Checks that `core` is quiescent: nothing active, and nothing reserved
/// once its caches are released.
pub fn check_quiescent(core: &mut dyn AllocatorCore) -> Result<(), Violation> {
    let active = core.stats().active_bytes;
    ensure(active == 0, || {
        format!("{active} bytes still active after the workload freed everything")
    })?;
    core.release_cached();
    let reserved = core.stats().reserved_bytes;
    ensure(reserved == 0, || {
        format!("{reserved} bytes still reserved after release_cached")
    })
}

/// Wraps the outermost layer of a stack and checks every allocation it
/// hands out against [`VaRanges`]; the first violation is kept. Used to
/// check a replay driven by code the benchmark does not own (the
/// workload crate's `Replayer`).
pub struct CheckingCore<'a> {
    inner: &'a mut dyn AllocatorCore,
    ranges: VaRanges,
    violation: Option<Violation>,
}

impl<'a> CheckingCore<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn AllocatorCore) -> Self {
        CheckingCore {
            inner,
            ranges: VaRanges::default(),
            violation: None,
        }
    }

    /// The first violation seen, then quiescence of the wrapped stack.
    pub fn finish(self) -> Result<(), Violation> {
        if let Some(v) = self.violation {
            return Err(v);
        }
        ensure(self.ranges.len() == 0, || {
            format!("{} allocations still live at the end", self.ranges.len())
        })?;
        check_quiescent(self.inner)
    }

    fn note(&mut self, req: AllocRequest, r: &Result<Allocation, AllocError>) {
        if let Ok(a) = r {
            if let Err(v) = self.ranges.insert(req.size, a) {
                self.violation.get_or_insert(v);
            }
        }
    }
}

impl AllocatorCore for CheckingCore<'_> {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        let r = self.inner.allocate(req);
        self.note(req, &r);
        r
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        self.ranges.remove(id);
        self.inner.deallocate(id)
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        let r = self.inner.alloc_on_stream(req, stream);
        self.note(req, &r);
        r
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        self.ranges.remove(id);
        self.inner.free_on_stream(id, stream)
    }

    fn stats(&self) -> MemStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn iteration_boundary(&mut self) {
        self.inner.iteration_boundary();
    }

    fn process_events(&mut self) -> u64 {
        self.inner.process_events()
    }

    fn release_cached(&mut self) -> u64 {
        self.inner.release_cached()
    }

    fn compact(&mut self) -> u64 {
        self.inner.compact()
    }

    fn fragmentation(&self) -> f64 {
        self.inner.fragmentation()
    }

    fn set_stitch_enabled(&mut self, enabled: bool) {
        self.inner.set_stitch_enabled(enabled);
    }

    fn fault_journal_stats(&self) -> FaultJournalStats {
        self.inner.fault_journal_stats()
    }
}

#[cfg(test)]
pub mod fake {
    //! A deliberately broken allocator core for the gate's tests.

    use super::*;
    use gmlake::alloc_api::VirtAddr;

    /// Defects [`FakeCore`] can inject.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Defects {
        /// Every allocation starts at the same VA.
        pub overlap: bool,
        /// Allocations are one byte short of the request.
        pub short: bool,
        /// Frees are ignored, so bytes stay active.
        pub leak: bool,
        /// `release_cached` keeps the reservation.
        pub keep_reserved: bool,
    }

    /// Bump allocator over a flat VA space with injectable defects.
    #[derive(Debug, Default)]
    pub struct FakeCore {
        pub defects: Defects,
        next_va: u64,
        next_id: u64,
        live: HashMap<AllocationId, u64>,
        stats: MemStats,
    }

    impl FakeCore {
        pub fn new(defects: Defects) -> Self {
            FakeCore {
                defects,
                next_va: 1 << 20,
                ..FakeCore::default()
            }
        }
    }

    impl AllocatorCore for FakeCore {
        fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
            let size = if self.defects.short {
                req.size - 1
            } else {
                req.size
            };
            let va = self.next_va;
            if !self.defects.overlap {
                self.next_va += size;
            }
            self.next_id += 1;
            let id = AllocationId::new(self.next_id);
            self.live.insert(id, size);
            self.stats.on_alloc(req.size, size);
            let reserved = self.stats.reserved_bytes + size;
            self.stats.set_reserved(reserved);
            Ok(Allocation {
                id,
                va: VirtAddr::new(va),
                size,
                requested: req.size,
            })
        }

        fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
            let size = self
                .live
                .remove(&id)
                .ok_or(AllocError::UnknownAllocation(id))?;
            if !self.defects.leak {
                self.stats.on_free(size);
            }
            Ok(())
        }

        fn stats(&self) -> MemStats {
            self.stats
        }

        fn name(&self) -> &'static str {
            "fake"
        }

        fn release_cached(&mut self) -> u64 {
            if self.defects.keep_reserved {
                return 0;
            }
            let freed = self.stats.reserved_bytes - self.stats.active_bytes;
            let active = self.stats.active_bytes;
            self.stats.set_reserved(active);
            freed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fake::{Defects, FakeCore};
    use super::*;
    use gmlake::alloc_api::VirtAddr;

    fn alloc(id: u64, va: u64, size: u64) -> Allocation {
        Allocation {
            id: AllocationId::new(id),
            va: VirtAddr::new(va),
            size,
            requested: size,
        }
    }

    #[test]
    fn ranges_accept_disjoint_and_reject_overlapping() {
        let mut r = VaRanges::default();
        r.insert(100, &alloc(1, 1000, 100)).unwrap();
        r.insert(100, &alloc(2, 1100, 100)).unwrap(); // touching is fine
        r.insert(50, &alloc(3, 900, 100)).unwrap();
        assert!(
            r.insert(10, &alloc(4, 1150, 10)).is_err(),
            "inside a live range"
        );
        assert!(
            r.insert(10, &alloc(5, 950, 100)).is_err(),
            "straddles a start"
        );
        assert!(
            r.insert(10, &alloc(6, 500, 2000)).is_err(),
            "covers several"
        );
        r.remove(AllocationId::new(2));
        r.insert(10, &alloc(7, 1150, 10)).unwrap();
        assert!(
            r.insert(200, &alloc(8, 5000, 100)).is_err(),
            "short allocation"
        );
    }

    fn drive(core: &mut dyn AllocatorCore) -> Result<(), Violation> {
        let mut checked = CheckingCore::new(core);
        let a = checked.allocate(AllocRequest::new(4096)).unwrap();
        let b = checked.allocate(AllocRequest::new(8192)).unwrap();
        checked.deallocate(a.id).unwrap();
        checked.deallocate(b.id).unwrap();
        checked.finish()
    }

    #[test]
    fn gate_passes_a_sound_core_and_rejects_each_injected_defect() {
        assert_eq!(drive(&mut FakeCore::new(Defects::default())), Ok(()));
        for (defects, what) in [
            (
                Defects {
                    overlap: true,
                    ..Defects::default()
                },
                "overlaps",
            ),
            (
                Defects {
                    short: true,
                    ..Defects::default()
                },
                "smaller than",
            ),
            (
                Defects {
                    leak: true,
                    ..Defects::default()
                },
                "still active",
            ),
            (
                Defects {
                    keep_reserved: true,
                    ..Defects::default()
                },
                "still reserved",
            ),
        ] {
            let err = drive(&mut FakeCore::new(defects)).unwrap_err();
            assert!(err.0.contains(what), "{defects:?}: {err}");
        }
    }
}
