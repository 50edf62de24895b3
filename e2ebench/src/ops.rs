//! The call log a rung replays, and the timed replay loop.
//!
//! Training traces convert one-to-one into a log; the serving workload
//! records into one the allocations and frees serving sent down for its
//! tenants (not its defrag passes), so the layer ladder below the serving
//! layer replays that traffic.
//! Keys are dense integers, so live allocations sit in a `Vec` indexed by
//! key.

use std::time::Instant;

use gmlake::alloc_api::{AllocRequest, AllocTag, AllocationId, AllocatorCore, StreamId};
use gmlake::gpu_sim::{CudaDriver, DriverStats};
use gmlake::workload::{Trace, TraceEvent};

use crate::spans;
use crate::stats::Layer;

/// One step of a call log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Allocate `size` bytes for `key` on `stream`.
    Alloc {
        key: u32,
        size: u64,
        tag: AllocTag,
        stream: StreamId,
    },
    /// Free `key`, issued from `stream`.
    Free { key: u32, stream: StreamId },
    /// Simulated compute on the default stream.
    Compute(u64),
    /// A training iteration starts.
    IterBegin,
    /// A training iteration ends: device sync, iteration hint, events.
    IterEnd,
}

/// A call log plus where its timed phase starts.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    pub ops: Vec<Op>,
    /// One more than the largest key.
    pub keys: usize,
    /// Index of the first op of the timed phase; everything before it is
    /// warm-up.
    pub timed_from: usize,
}

impl OpLog {
    /// Converts a training trace; the timed phase starts after iteration 0.
    pub fn from_trace(trace: &Trace) -> OpLog {
        let mut log = OpLog::default();
        for ev in &trace.events {
            let op = match *ev {
                TraceEvent::Alloc {
                    key,
                    size,
                    tag,
                    stream,
                } => Op::Alloc {
                    key: dense_key(key),
                    size,
                    tag,
                    stream,
                },
                TraceEvent::Free { key, stream } => Op::Free {
                    key: dense_key(key),
                    stream,
                },
                TraceEvent::Compute { ns } => Op::Compute(ns),
                TraceEvent::IterBegin { .. } => Op::IterBegin,
                TraceEvent::IterEnd { index } => {
                    log.ops.push(Op::IterEnd);
                    if index == 0 {
                        log.timed_from = log.ops.len();
                    }
                    continue;
                }
            };
            log.push(op);
        }
        log
    }

    /// Appends `op`, growing the key space as needed.
    pub fn push(&mut self, op: Op) {
        if let Op::Alloc { key, .. } | Op::Free { key, .. } = op {
            self.keys = self.keys.max(key as usize + 1);
        }
        self.ops.push(op);
    }
}

/// Seed of job `job` of a run with seed `seed` (SplitMix64 of the pair),
/// so every job of every run draws distinct inputs.
pub fn job_seed(seed: u64, job: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(job)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn dense_key(key: u64) -> u32 {
    u32::try_from(key).expect("trace keys are dense and fit in u32")
}

/// Everything one replay of a log measured. "Timed" quantities cover only
/// the ops from [`OpLog::timed_from`] on.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall time of the warm-up ops.
    pub warmup_s: f64,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Alloc and free calls completed in the timed phase.
    pub ops: u64,
    /// Wall time of each timed alloc call, ns, in call order.
    pub alloc_ns: Vec<u64>,
    /// Wall time of each timed iteration, s.
    pub iter_s: Vec<f64>,
    /// Timed alloc attempts.
    pub alloc_attempts: u64,
    /// Timed calls that returned an error.
    pub failed: u64,
    /// Peak of the summed *requested* bytes of live allocations.
    pub peak_requested: u64,
    /// Peak reserved bytes, from the rung's own stats.
    pub peak_reserved: u64,
    /// Samples per simulated second, computed as `ReplayReport::throughput`.
    pub sim_throughput: f64,
    /// Driver entries over the timed phase.
    pub driver_calls_timed: u64,
    /// Simulated driver allocation time over the timed phase, ns.
    pub driver_alloc_ns_timed: u64,
    /// Simulated time of the timed phase, ns.
    pub sim_timed_ns: u64,
}

/// Replays `log` against `core` (the rung's outermost layer) on `driver`'s
/// simulated device, timing each alloc call. With `traced`, every alloc
/// and free call also records an outer span, and the span log is reset
/// where the timed phase starts, so it holds the timed phase only.
/// `samples_per_iter` feeds the simulated-throughput formula.
pub fn replay(
    core: &mut dyn AllocatorCore,
    driver: &CudaDriver,
    log: &OpLog,
    traced: bool,
    samples_per_iter: u64,
) -> RunStats {
    let mut out = RunStats {
        alloc_ns: Vec::with_capacity(log.ops.len() / 2),
        ..RunStats::default()
    };
    let mut live: Vec<Option<(AllocationId, u64)>> = vec![None; log.keys];
    let mut live_requested = 0u64;
    let mut first_iter_sim = None;
    let mut iter_end_sim = Vec::new();
    let start = Instant::now();
    let mut timed_start = start;
    let mut iter_start = start;
    let mut driver_before = DriverStats::default();
    let mut sim_before = 0;
    let mut timed = false;
    for (i, op) in log.ops.iter().enumerate() {
        if i == log.timed_from {
            if traced {
                spans::reset();
            }
            timed = true;
            timed_start = Instant::now();
            iter_start = timed_start;
            out.warmup_s = (timed_start - start).as_secs_f64();
            driver_before = driver.stats();
            sim_before = driver.now_ns();
        }
        match *op {
            Op::Alloc {
                key,
                size,
                tag,
                stream,
            } => {
                let req = AllocRequest::new(size).with_tag(tag);
                if traced {
                    spans::open_outer(Layer::OuterAlloc);
                }
                let t0 = Instant::now();
                let r = core.alloc_on_stream(req, stream);
                let t1 = Instant::now();
                if traced {
                    spans::close_outer(t0, t1);
                }
                if timed {
                    out.alloc_ns.push((t1 - t0).as_nanos() as u64);
                    out.alloc_attempts += 1;
                }
                match r {
                    Ok(a) => {
                        live[key as usize] = Some((a.id, size));
                        live_requested += size;
                        out.peak_requested = out.peak_requested.max(live_requested);
                        out.ops += u64::from(timed);
                    }
                    Err(_) => out.failed += u64::from(timed),
                }
            }
            Op::Free { key, stream } => {
                // A key whose alloc failed has nothing to free.
                let Some((id, size)) = live[key as usize].take() else {
                    continue;
                };
                live_requested -= size;
                if traced {
                    spans::open_outer(Layer::OuterFree);
                }
                let t0 = Instant::now();
                let r = core.free_on_stream(id, stream);
                if traced {
                    spans::close_outer(t0, Instant::now());
                }
                match r {
                    Ok(()) => out.ops += u64::from(timed),
                    Err(_) => out.failed += u64::from(timed),
                }
            }
            // Compute is launched asynchronously on the default stream and
            // an iteration ends with a device sync, exactly as the workload
            // crate's `Replayer` does, so simulated time matches it.
            Op::Compute(ns) => driver.stream_launch(StreamId::DEFAULT, ns),
            Op::IterBegin => {
                first_iter_sim.get_or_insert_with(|| driver.now_ns());
            }
            Op::IterEnd => {
                driver.device_synchronize();
                core.iteration_boundary();
                core.process_events();
                iter_end_sim.push(driver.now_ns());
                if timed {
                    let now = Instant::now();
                    out.iter_s.push((now - iter_start).as_secs_f64());
                    iter_start = now;
                }
            }
        }
    }
    let end = Instant::now();
    if timed {
        out.timed_s = (end - timed_start).as_secs_f64();
        let d = driver.stats();
        out.driver_calls_timed = d.total_calls() - driver_before.total_calls();
        out.driver_alloc_ns_timed = d.allocator_time_ns() - driver_before.allocator_time_ns();
        out.sim_timed_ns = driver.now_ns() - sim_before;
    } else {
        out.warmup_s = (end - start).as_secs_f64();
    }
    driver.device_synchronize();
    core.process_events();
    out.peak_reserved = core.stats().peak_reserved_bytes;
    out.sim_throughput = sim_throughput(first_iter_sim, &iter_end_sim, samples_per_iter);
    out
}

/// Samples per simulated second over the completed iterations, by the
/// same rule as `ReplayReport::throughput`: with at least four
/// iterations, the second half only (post-warm-up steady state).
pub fn sim_throughput(first_iter: Option<u64>, iter_end: &[u64], samples_per_iter: u64) -> f64 {
    let n = iter_end.len();
    match first_iter {
        Some(_) if n >= 4 => {
            let mid = n / 2;
            let span_s = (iter_end[n - 1] - iter_end[mid - 1]) as f64 / 1e9;
            crate::stats::ratio(((n - mid) as u64 * samples_per_iter) as f64, span_s)
        }
        Some(t0) if n > 0 => {
            let span_s = (iter_end[n - 1] - t0) as f64 / 1e9;
            crate::stats::ratio((n as u64 * samples_per_iter) as f64, span_s)
        }
        _ => 0.0,
    }
}
