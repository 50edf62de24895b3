//! In-memory span recording for the traced mode, and the benchmark-owned
//! [`TracingCore`] wrapper that records the inner (core) spans.
//!
//! The log is thread-local: the benchmark drives every rung from one
//! client thread, so recording takes no lock. When recording is off (the
//! untraced mode) [`TracingCore`] is never built and the outer loop skips
//! every call in this module.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use gmlake::alloc_api::{
    AllocError, AllocRequest, Allocation, AllocationId, AllocatorCore, FaultJournalStats, MemStats,
    StreamId,
};

use crate::stats::{Layer, Span, NO_PARENT};

struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
    /// Index of the open outer span, or [`NO_PARENT`].
    open: u32,
    /// Id of the open (or last) outermost call.
    call: u32,
}

thread_local! {
    static LOG: RefCell<SpanLog> = RefCell::new(SpanLog {
        base: Instant::now(),
        spans: Vec::new(),
        open: NO_PARENT,
        call: 0,
    });
}

fn ns_since(base: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(base).as_nanos() as u64
}

/// Clears the log and starts a new time base.
pub fn reset() {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.base = Instant::now();
        l.spans.clear();
        l.open = NO_PARENT;
        l.call = 0;
    });
}

/// Takes the recorded spans, leaving the log empty.
pub fn take() -> Vec<Span> {
    LOG.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Opens the outer span of a new outermost call; spans recorded by
/// [`TracingCore`] until [`close_outer`] nest under it. Call this before
/// starting the call's timer.
pub fn open_outer(layer: Layer) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.call += 1;
        let (call, idx) = (l.call, l.spans.len() as u32);
        l.spans.push(Span {
            layer,
            call,
            parent: NO_PARENT,
            start: 0,
            end: 0,
        });
        l.open = idx;
    });
}

/// Closes the span opened by [`open_outer`] with the call's timer readings.
pub fn close_outer(start: Instant, end: Instant) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let (base, open) = (l.base, l.open);
        let s = &mut l.spans[open as usize];
        s.start = ns_since(base, start);
        s.end = ns_since(base, end);
        l.open = NO_PARENT;
    });
}

fn record_inner(layer: Layer, start: Instant, end: Instant) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let span = Span {
            layer,
            call: if l.open == NO_PARENT { 0 } else { l.call },
            parent: l.open,
            start: ns_since(l.base, start),
            end: ns_since(l.base, end),
        };
        l.spans.push(span);
    });
}

/// Writes `spans` as tab-separated `index name call parent start end`
/// lines (`-` for no parent).
pub fn write_tsv(out: &mut impl Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(out, "index\tname\tcall\tparent\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == NO_PARENT {
            writeln!(
                out,
                "{i}\t{}\t{}\t-\t{}\t{}",
                s.layer.name(),
                s.call,
                s.start,
                s.end
            )?;
        } else {
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.call,
                s.parent,
                s.start,
                s.end
            )?;
        }
    }
    Ok(())
}

/// Times `f` as an inner span of `layer`.
fn inner<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    record_inner(layer, start, Instant::now());
    r
}

/// Wraps an allocator core and records an inner span around every call
/// that does work. Every trait method is forwarded, `as_any_mut`
/// included, so `DeviceAllocator::with_core_as` still reaches the wrapped
/// concrete core through it.
#[derive(Debug)]
pub struct TracingCore<C> {
    inner: C,
}

impl<C: AllocatorCore> TracingCore<C> {
    /// Wraps `inner`.
    pub fn new(inner: C) -> Self {
        TracingCore { inner }
    }
}

impl<C: AllocatorCore + 'static> AllocatorCore for TracingCore<C> {
    fn allocate(&mut self, req: AllocRequest) -> Result<Allocation, AllocError> {
        inner(Layer::CoreAlloc, || self.inner.allocate(req))
    }

    fn deallocate(&mut self, id: AllocationId) -> Result<(), AllocError> {
        inner(Layer::CoreFree, || self.inner.deallocate(id))
    }

    fn alloc_on_stream(
        &mut self,
        req: AllocRequest,
        stream: StreamId,
    ) -> Result<Allocation, AllocError> {
        inner(Layer::CoreAlloc, || self.inner.alloc_on_stream(req, stream))
    }

    fn free_on_stream(&mut self, id: AllocationId, stream: StreamId) -> Result<(), AllocError> {
        inner(Layer::CoreFree, || self.inner.free_on_stream(id, stream))
    }

    fn stats(&self) -> MemStats {
        self.inner.stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn iteration_boundary(&mut self) {
        inner(Layer::CoreOther, || self.inner.iteration_boundary());
    }

    fn process_events(&mut self) -> u64 {
        inner(Layer::CoreOther, || self.inner.process_events())
    }

    fn release_cached(&mut self) -> u64 {
        inner(Layer::CoreOther, || self.inner.release_cached())
    }

    fn compact(&mut self) -> u64 {
        inner(Layer::CoreOther, || self.inner.compact())
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

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::self_times;
    use gmlake::alloc_api::{mib, DeviceAllocator};
    use gmlake::core::{GmLakeAllocator, GmLakeConfig};
    use gmlake::gpu_sim::{CudaDriver, DeviceConfig};

    #[test]
    fn wrapper_nests_core_spans_and_keeps_the_typed_escape_hatch() {
        reset();
        let driver = CudaDriver::new(DeviceConfig::small_test());
        let core = TracingCore::new(GmLakeAllocator::new(driver, GmLakeConfig::default()));
        let pool = DeviceAllocator::new(core);
        open_outer(Layer::OuterAlloc);
        let t0 = Instant::now();
        let a = pool.allocate(AllocRequest::new(mib(4))).unwrap();
        close_outer(t0, Instant::now());
        let spans = take();
        assert_eq!(spans.len(), 2, "one outer and one core span");
        assert_eq!(spans[1].layer, Layer::CoreAlloc);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].call, spans[0].call);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let own = self_times(&spans, Layer::OuterAlloc)[0];
        assert_eq!(own, spans[0].duration() - spans[1].duration());
        // `with_core_as` reaches the concrete core through the wrapper.
        let stitches = pool.with_core_as(|g: &mut GmLakeAllocator| g.state_counters().stitches);
        assert_eq!(stitches, Some(0));
        pool.deallocate(a.id).unwrap();
        assert!(
            take().iter().all(|s| s.parent == NO_PARENT),
            "a free outside any outer span has no parent"
        );
    }
}
