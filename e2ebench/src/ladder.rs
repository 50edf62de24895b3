//! The layer ladder: per-rung accumulation of replays, and the per-layer
//! metrics every workload shares (runtime, alloc-api, core, gpu-sim and
//! the caching reference).
//!
//! A rung is one stack shape replaying the same inputs: core only,
//! `DeviceAllocator::new(core)`, the shipped `PoolHandle`, and the
//! reference cores. Rungs that wrap GMLake do so through
//! [`TracingCore`](crate::spans::TracingCore) on both the `DeviceAllocator`
//! and the `PoolHandle` rung, so the tracing cost cancels in their
//! differences and ratios.

use gmlake::core::{GmLakeAllocator, StateCounters};
use gmlake::runtime::PoolHandle;

use crate::ops::RunStats;
use crate::report::{gib, Report};
use crate::spans;
use crate::stats::{median, pct, ratio, self_times, Layer, Span};

/// Replays of one rung, summed over the jobs it ran.
#[derive(Debug, Default)]
pub struct Rung {
    runs: u64,
    ops: u64,
    timed_s: f64,
    alloc_ns: Vec<u64>,
    peak_reserved: u64,
    growth: Vec<f64>,
    driver_calls: u64,
    driver_alloc_ns: u64,
    sim_ns: u64,
    outer_spans: u64,
    core_calls: u64,
    core_alloc_ns: Vec<u64>,
    core_free_ns: Vec<u64>,
    core_busy_ns: u64,
    self_alloc_ns: Vec<u64>,
}

impl Rung {
    /// Adds one replay and the spans of its timed phase.
    pub fn add(&mut self, run: &RunStats, spans: &[Span]) {
        self.runs += 1;
        self.ops += run.ops;
        self.timed_s += run.timed_s;
        self.alloc_ns.extend_from_slice(&run.alloc_ns);
        self.peak_reserved += run.peak_reserved;
        if let (Some(&first), Some(&last)) = (run.iter_s.first(), run.iter_s.last()) {
            self.growth.push(ratio(last, first));
        }
        self.driver_calls += run.driver_calls_timed;
        self.driver_alloc_ns += run.driver_alloc_ns_timed;
        self.sim_ns += run.sim_timed_ns;
        for s in spans {
            match s.layer {
                Layer::OuterAlloc | Layer::OuterFree => self.outer_spans += 1,
                Layer::CoreAlloc => self.core_alloc_ns.push(s.duration()),
                Layer::CoreFree => self.core_free_ns.push(s.duration()),
                Layer::CoreOther => {}
            }
            if !s.layer.is_outer() {
                self.core_busy_ns += s.duration();
            }
            if matches!(s.layer, Layer::CoreAlloc | Layer::CoreFree) {
                self.core_calls += 1;
            }
        }
        self.self_alloc_ns
            .extend(self_times(spans, Layer::OuterAlloc));
    }

    /// Timed alloc and free calls per wall second, over every replay.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.ops as f64, self.timed_s)
    }

    /// Mean peak reserved bytes per replay, in GiB.
    pub fn peak_gib(&self) -> f64 {
        ratio(gib(self.peak_reserved), self.runs as f64)
    }

    /// Exact percentile `q` of the timed alloc calls (0 without samples).
    pub fn alloc_pct(&mut self, q: f64) -> f64 {
        pct(&mut self.alloc_ns, q)
    }

    /// Exact percentile `q` of the rung's self time per timed alloc: the
    /// call minus the core spans nested in it.
    pub fn self_pct(&mut self, q: f64) -> f64 {
        pct(&mut self.self_alloc_ns, q)
    }

    /// Median last ÷ first timed-iteration wall time across replays.
    pub fn growth(&self) -> f64 {
        median(&self.growth)
    }
}

/// Public counters of shipped-stack pools, summed over jobs.
#[derive(Debug, Default)]
pub struct PoolCounters {
    small_hits: u64,
    small_misses: u64,
    large_hits: u64,
    large_misses: u64,
    states: StateCounters,
    sblocks: u64,
    retries: u64,
    rescues: u64,
    pools: u64,
}

impl PoolCounters {
    /// Adds the counters of `pool`, whose core is GMLake.
    pub fn add(&mut self, pool: &PoolHandle) {
        let all = pool.allocator().cache_stats();
        let large = pool.allocator().large_cache_stats();
        let (states, sblocks) = pool
            .allocator()
            .with_core_as(|g: &mut GmLakeAllocator| (g.state_counters(), g.sblock_count()))
            .expect("the stack's core is GMLake");
        let faults = pool.fault_stats();
        self.absorb(&PoolCounters {
            small_hits: all.hits - large.hits,
            small_misses: all.misses - large.misses,
            large_hits: large.hits,
            large_misses: large.misses,
            states,
            sblocks: sblocks as u64,
            retries: faults.retries,
            rescues: faults.rescues,
            pools: 1,
        });
    }

    /// Adds another set of counters.
    pub fn absorb(&mut self, o: &PoolCounters) {
        self.small_hits += o.small_hits;
        self.small_misses += o.small_misses;
        self.large_hits += o.large_hits;
        self.large_misses += o.large_misses;
        let (t, s) = (&mut self.states, &o.states);
        t.exact += s.exact;
        t.single += s.single;
        t.multi += s.multi;
        t.insufficient += s.insufficient;
        t.oom += s.oom;
        t.stitches += s.stitches;
        t.splits += s.splits;
        t.evictions += s.evictions;
        self.sblocks += o.sblocks;
        self.retries += o.retries;
        self.rescues += o.rescues;
        self.pools += o.pools;
    }
}

/// The rungs beneath the outermost layer, for [`layer_metrics`].
pub struct Ladder {
    /// The shipped `PoolHandle` stack, traced.
    pub stack: Rung,
    /// Counters of the traced stack's pools.
    pub counters: PoolCounters,
    /// `DeviceAllocator::new(core)`, traced.
    pub raw: Rung,
    /// The core alone.
    pub core: Rung,
    /// The caching allocator alone (reference).
    pub caching: Rung,
    /// Whether the inputs have iterations, so growth is defined.
    pub iterations: bool,
}

/// Per-layer metrics of the runtime, alloc-api, core and gpu-sim layers,
/// and the caching reference.
pub fn layer_metrics(r: &mut Report, l: &mut Ladder) {
    let c = &l.counters;
    let per_pool = |v: u64| ratio(v as f64, c.pools as f64);
    r.metric(
        "runtime.self_ns_p50",
        l.stack.self_pct(0.5) - l.raw.self_pct(0.5),
        "ns",
    );
    r.metric(
        "runtime.handle_over_raw",
        ratio(l.raw.ops_per_s(), l.stack.ops_per_s()),
        "ratio",
    );
    r.metric("runtime.retries", per_pool(c.retries), "count");
    r.metric("runtime.rescues", per_pool(c.rescues), "count");

    r.metric(
        "alloc-api.small_hit_rate",
        ratio(c.small_hits as f64, (c.small_hits + c.small_misses) as f64),
        "ratio",
    );
    r.metric(
        "alloc-api.core_calls_per_op",
        ratio(l.stack.core_calls as f64, l.stack.outer_spans as f64),
        "ratio",
    );
    r.metric(
        "alloc-api.large_hit_rate",
        ratio(c.large_hits as f64, (c.large_hits + c.large_misses) as f64),
        "ratio",
    );
    r.metric(
        "alloc-api.parked_gib",
        l.raw.peak_gib() - l.core.peak_gib(),
        "GiB",
    );
    let growth = |rung: &Rung| if l.iterations { rung.growth() } else { 0.0 };
    r.metric("alloc-api.iter_growth", growth(&l.raw), "ratio");
    r.metric("alloc-api.self_ns_p50", l.raw.self_pct(0.5), "ns");

    r.metric(
        "core.alloc_ns_p50",
        pct(&mut l.stack.core_alloc_ns, 0.5),
        "ns",
    );
    r.metric(
        "core.alloc_ns_p99",
        pct(&mut l.stack.core_alloc_ns, 0.99),
        "ns",
    );
    r.metric(
        "core.free_ns_p50",
        pct(&mut l.stack.core_free_ns, 0.5),
        "ns",
    );
    r.metric(
        "core.busy_share",
        ratio(l.stack.core_busy_ns as f64 / 1e9, l.stack.timed_s),
        "ratio",
    );
    r.metric("core.iter_growth", growth(&l.core), "ratio");
    let s = &c.states;
    let decided = (s.exact + s.single + s.multi + s.insufficient + s.oom) as f64;
    r.metric("core.exact_share", ratio(s.exact as f64, decided), "ratio");
    r.metric("core.multi_share", ratio(s.multi as f64, decided), "ratio");
    r.metric("core.stitches", per_pool(s.stitches), "count");
    r.metric("core.splits", per_pool(s.splits), "count");
    r.metric("core.sblocks", per_pool(c.sblocks), "count");
    r.metric("core.peak_reserved_gib", l.core.peak_gib(), "GiB");

    r.metric(
        "gpu-sim.calls_per_kop",
        ratio(l.stack.driver_calls as f64 * 1000.0, l.stack.ops as f64),
        "count",
    );
    r.metric(
        "gpu-sim.sim_alloc_share",
        ratio(l.stack.driver_alloc_ns as f64, l.stack.sim_ns as f64),
        "ratio",
    );

    r.metric("caching.peak_reserved_gib", l.caching.peak_gib(), "GiB");
    r.metric("caching.alloc_ns_p50", l.caching.alloc_pct(0.5), "ns");
    r.metric(
        "caching.saving_gib",
        l.caching.peak_gib() - l.stack.peak_gib(),
        "GiB",
    );
}

/// Writes the spans of the last traced stack run next to the benchmark's
/// sources, as `out/<tag>.spans.tsv`. Best effort: a write failure is
/// reported on standard error, not fatal.
pub fn write_spans(tag: &str, spans: &[Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{tag}.spans.tsv"));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        spans::write_tsv(&mut out, spans)?;
        std::io::Write::flush(&mut out)
    });
    if let Err(e) = result {
        eprintln!("could not write {}: {e}", path.display());
    }
}
