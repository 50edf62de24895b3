//! The training workloads: `TraceGenerator` traces replayed through the
//! shipped stack (`PoolService::register` → `PoolHandle` →
//! `DeviceAllocator` → `GmLakeAllocator` → simulated driver), and the
//! layer ladder beneath it for the traced mode.
//!
//! A run is a sequence of short fine-tuning jobs, job `i` generated from
//! the run seed and `i`. The stack's behaviour depends strongly on the
//! trace seed (on some seeds the front-end makes the core stitch on every
//! iteration), so a run measures many jobs rather than one long one. The
//! untraced mode plays a fixed set of them round after round and reports
//! each job's fastest repetition (see [`crate::rounds`]).

use std::time::{Duration, Instant};

use gmlake::alloc_api::{AllocatorCore, DeviceAllocator};
use gmlake::caching::CachingAllocator;
use gmlake::core::{GmLakeAllocator, GmLakeConfig, StateCounters};
use gmlake::gpu_sim::{CudaDriver, DeviceConfig};
use gmlake::planning::{PlannedConfig, PlannedCore};
use gmlake::runtime::{DeviceId, PoolHandle, PoolService};
use gmlake::workload::{ModelSpec, Replayer, StrategySet, TraceGenerator, TrainConfig};

use crate::check::{check_quiescent, ensure, CheckingCore, Violation};
use crate::ladder::{layer_metrics, write_spans, Ladder, PoolCounters, Rung};
use crate::ops::{job_seed, replay, OpLog, RunStats};
use crate::report::{gib, serving_absent, Report};
use crate::rounds;
use crate::spans::{self, TracingCore};
use crate::stats::{median, pct, ratio, Span};

/// The two training workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainWorkload {
    /// OPT-13B, LoRA + recompute + ZeRO-Offload, batch 16, seq 2048, 3
    /// streams: every request is at least 2 MiB.
    Offload,
    /// OPT-1.3B LR, batch 2, seq 256, 1 stream: most requests are small.
    SmallTensor,
}

impl TrainWorkload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            TrainWorkload::Offload => "train-offload",
            TrainWorkload::SmallTensor => "train-smalltensor",
        }
    }

    /// The training configuration of job `job` of a run with seed `seed`.
    pub fn config(self, seed: u64, job: u64) -> TrainConfig {
        let cfg = match self {
            TrainWorkload::Offload => TrainConfig::new(ModelSpec::opt_13b(), StrategySet::LRO)
                .with_batch(16)
                .with_seq_len(2048)
                .with_streams(3)
                .with_iterations(4),
            TrainWorkload::SmallTensor => TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
                .with_batch(2)
                .with_seq_len(256)
                .with_streams(1)
                .with_iterations(4),
        };
        cfg.with_seed(job_seed(seed, job))
    }

    /// Distinct jobs of a run, played round after round (see
    /// [`rounds`]): enough that the mix of cheap and costly traces is
    /// steady from seed to seed, few enough that every job is repeated
    /// several times within a run.
    fn jobs(self) -> u64 {
        match self {
            TrainWorkload::Offload => 10,
            TrainWorkload::SmallTensor => 256,
        }
    }

    /// Jobs that also get the untimed correctness pass.
    fn checked_jobs(self) -> u64 {
        match self {
            TrainWorkload::Offload => 4,
            TrainWorkload::SmallTensor => 32,
        }
    }
}

/// Pooled timed alloc and free calls per wall second of `runs`.
pub fn ops_per_s(runs: &[&RunStats]) -> f64 {
    let ops: u64 = runs.iter().map(|r| r.ops).sum();
    ratio(ops as f64, runs.iter().map(|r| r.timed_s).sum())
}

/// Exact percentile `q` of the pooled timed alloc calls of `runs`.
pub fn alloc_pct(runs: &[&RunStats], q: f64) -> f64 {
    let mut v: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.alloc_ns.iter().copied())
        .collect();
    pct(&mut v, q)
}

fn samples_per_iter(cfg: &TrainConfig) -> u64 {
    u64::from(cfg.batch_size) * u64::from(cfg.n_gpus)
}

fn gmlake(driver: &CudaDriver) -> GmLakeAllocator {
    GmLakeAllocator::new(driver.clone(), GmLakeConfig::default())
}

fn a100() -> CudaDriver {
    CudaDriver::new(DeviceConfig::a100_80g())
}

/// The shipped stack, built as `PoolService::register` builds it; with
/// `traced`, the core sits inside the benchmark's [`TracingCore`].
fn stack(traced: bool) -> (PoolHandle, CudaDriver) {
    let driver = a100();
    let core: Box<dyn AllocatorCore + Send> = if traced {
        Box::new(TracingCore::new(gmlake(&driver)))
    } else {
        Box::new(gmlake(&driver))
    };
    let pool = PoolService::new()
        .register(DeviceId(0), core)
        .expect("a fresh service has no pool yet");
    (pool, driver)
}

/// Outputs that must repeat bit for bit: across runs, between traced and
/// untraced runs, and against the workload crate's `Replayer`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Exact {
    peak_reserved: u64,
    peak_requested: u64,
    sim_throughput: f64,
    attempts: u64,
    failed: u64,
    driver_calls: u64,
    states: StateCounters,
}

/// One job: input generation, stack construction and warm-up (iteration
/// 0) form its set-up; the remaining iterations are timed.
struct Episode {
    setup_s: f64,
    gen_s: f64,
    run: RunStats,
    exact: Exact,
    /// The stack's counters at the end of the job, before its caches
    /// were released.
    counters: PoolCounters,
    /// Spans of the timed phase (traced episodes only).
    spans: Vec<Span>,
}

fn episode(cfg: &TrainConfig, traced: bool) -> Result<Episode, Violation> {
    let t0 = Instant::now();
    let log = OpLog::from_trace(&TraceGenerator::new(cfg.clone()).generate());
    let gen_s = t0.elapsed().as_secs_f64();
    let (mut pool, driver) = stack(traced);
    let built_s = t0.elapsed().as_secs_f64();
    let run = replay(&mut pool, &driver, &log, traced, samples_per_iter(cfg));
    let spans = if traced { spans::take() } else { Vec::new() };
    let exact = Exact {
        peak_reserved: run.peak_reserved,
        peak_requested: run.peak_requested,
        sim_throughput: run.sim_throughput,
        attempts: run.alloc_attempts,
        failed: run.failed,
        driver_calls: driver.stats().total_calls(),
        states: pool
            .allocator()
            .with_core_as(|g: &mut GmLakeAllocator| g.state_counters())
            .expect("the stack's core is GMLake"),
    };
    let mut counters = PoolCounters::default();
    counters.add(&pool);
    check_quiescent(&mut pool)?;
    Ok(Episode {
        setup_s: built_s + run.warmup_s,
        gen_s,
        run,
        exact,
        counters,
        spans,
    })
}

/// The untimed correctness pass of one job: the workload crate's
/// `Replayer` drives `stack` (fresh, on `driver`) through
/// [`CheckingCore`], which checks sizes, live-range disjointness and
/// quiescence; the replay's peak and throughput must equal the timed
/// job's.
fn check_pass(
    stack: &mut dyn AllocatorCore,
    driver: CudaDriver,
    cfg: &TrainConfig,
    timed: &Exact,
) -> Result<(), Violation> {
    let trace = TraceGenerator::new(cfg.clone()).generate();
    let mut checked = CheckingCore::new(stack);
    let report = Replayer::new(driver).replay(&mut checked, &trace, cfg);
    checked.finish()?;
    ensure(
        report.throughput == timed.sim_throughput && report.peak_reserved == timed.peak_reserved,
        || {
            format!(
                "Replayer reports throughput {} and peak {} where the timed run saw {} and {}",
                report.throughput, report.peak_reserved, timed.sim_throughput, timed.peak_reserved
            )
        },
    )
}

impl rounds::Job for Episode {
    fn timed_s(&self) -> f64 {
        self.run.timed_s
    }
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn counts(&self) -> (u64, u64) {
        (self.run.alloc_attempts, self.run.failed)
    }
    fn same_outputs(&self, other: &Self) -> bool {
        self.exact == other.exact
    }
}

/// The untraced mode: end-to-end metrics of the shipped stack, over each
/// job's fastest repetition.
pub fn end_to_end(w: TrainWorkload, seed: u64, budget: Duration) -> Result<Report, Violation> {
    let played = rounds::run(w.jobs(), budget, |job| episode(&w.config(seed, job), false))?;
    let exact: Vec<Exact> = played.best.iter().map(|e| e.exact).collect();
    for (job, x) in exact.iter().take(w.checked_jobs() as usize).enumerate() {
        let (mut pool, driver) = stack(false);
        check_pass(&mut pool, driver, &w.config(seed, job as u64), x)?;
    }

    let mean = |f: &dyn Fn(&Exact) -> f64| exact.iter().map(f).sum::<f64>() / exact.len() as f64;
    let runs: Vec<&RunStats> = played.best.iter().map(|e| &e.run).collect();
    let mut r = Report::new(played.attempted, played.failed);
    r.note(format!(
        "{} jobs, {} repetitions; {} timed alloc samples in the fastest ones",
        exact.len(),
        played.reps,
        runs.iter().map(|r| r.alloc_ns.len()).sum::<usize>(),
    ));
    r.metric("setup_s", median(&played.setup_s), "s");
    r.metric("ops_per_s", ops_per_s(&runs), "1/s");
    for (name, q) in [("alloc_p50_ns", 0.50), ("alloc_p99_ns", 0.99)] {
        r.metric(name, alloc_pct(&runs, q), "ns");
    }
    r.metric("peak_reserved_gib", mean(&|x| gib(x.peak_reserved)), "GiB");
    r.metric(
        "fragmentation",
        mean(&|x| 1.0 - ratio(x.peak_requested as f64, x.peak_reserved as f64)),
        "ratio",
    );
    r.metric("sim_samples_per_s", mean(&|x| x.sim_throughput), "1/s");
    let (failed, attempts) = exact
        .iter()
        .fold((0, 0), |(f, a), x| (f + x.failed, a + x.attempts));
    r.metric(
        "completed_op_share",
        1.0 - ratio(failed as f64, attempts as f64),
        "ratio",
    );
    Ok(r)
}

/// The traced mode: per-layer metrics from the stack's spans and counters
/// and from the layer ladder replaying the same jobs.
pub fn per_layer(w: TrainWorkload, seed: u64, budget: Duration) -> Result<Report, Violation> {
    let start = Instant::now();
    let (mut plain, mut gen) = (Rung::default(), Vec::new());
    let mut ladder = Ladder {
        stack: Rung::default(),
        counters: PoolCounters::default(),
        raw: Rung::default(),
        core: Rung::default(),
        caching: Rung::default(),
        iterations: true,
    };
    let mut planned = Rung::default();
    let mut hit_rates = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last_spans = Vec::new();
    let mut job = 0;
    while job == 0 || start.elapsed() < budget {
        let cfg = w.config(seed, job);
        let untraced = episode(&cfg, false)?;
        let traced = episode(&cfg, true)?;
        ensure(untraced.exact == traced.exact, || {
            format!(
                "job {job}: traced outputs {:?} differ from untraced {:?}",
                traced.exact, untraced.exact
            )
        })?;
        plain.add(&untraced.run, &[]);
        ladder.stack.add(&traced.run, &traced.spans);
        ladder.counters.absorb(&traced.counters);
        gen.extend([untraced.gen_s, traced.gen_s]);
        attempted += untraced.run.alloc_attempts + traced.run.alloc_attempts;
        failed += untraced.run.failed + traced.run.failed;
        last_spans = traced.spans;

        let log = OpLog::from_trace(&TraceGenerator::new(cfg.clone()).generate());
        let spi = samples_per_iter(&cfg);
        let driver = a100();
        ladder.core.add(
            &replay(&mut gmlake(&driver), &driver, &log, false, spi),
            &[],
        );
        let driver = a100();
        let mut raw = DeviceAllocator::new(TracingCore::new(gmlake(&driver)));
        let run = replay(&mut raw, &driver, &log, true, spi);
        ladder.raw.add(&run, &spans::take());
        check_quiescent(&mut raw)?;
        let driver = a100();
        let mut caching = CachingAllocator::new(driver.clone());
        ladder
            .caching
            .add(&replay(&mut caching, &driver, &log, false, spi), &[]);
        let driver = a100();
        let mut plan = PlannedCore::new(driver.clone(), PlannedConfig::default());
        planned.add(&replay(&mut plan, &driver, &log, false, spi), &[]);
        hit_rates.push(plan.counters().hit_rate());
        job += 1;
    }

    let mut r = Report::new(attempted, failed);
    r.note(format!("{job} jobs, each on every rung"));
    r.metric("workload.gen_s", median(&gen), "s");
    r.metric(
        "trace.overhead",
        ratio(ladder.stack.ops_per_s(), plain.ops_per_s()),
        "ratio",
    );
    serving_absent(&mut r);
    layer_metrics(&mut r, &mut ladder);
    r.metric("planning.peak_reserved_gib", planned.peak_gib(), "GiB");
    r.metric("planning.plan_hit_rate", median(&hit_rates), "ratio");
    r.metric("planning.alloc_ns_p50", planned.alloc_pct(0.5), "ns");
    write_spans(w.name(), &last_spans);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fake::{Defects, FakeCore};

    fn tiny_job() -> TrainConfig {
        TrainConfig::new(ModelSpec::opt_1_3b(), StrategySet::LR)
            .with_batch(1)
            .with_seq_len(64)
            .with_iterations(2)
    }

    #[test]
    fn check_pass_accepts_the_shipped_stack() {
        let cfg = tiny_job();
        let ep = episode(&cfg, false).unwrap();
        let (mut pool, driver) = stack(false);
        check_pass(&mut pool, driver, &cfg, &ep.exact).unwrap();
        // The traced stack produces the same exact outputs.
        assert_eq!(episode(&cfg, true).unwrap().exact, ep.exact);
    }

    #[test]
    fn check_pass_fails_on_an_injected_violation() {
        let cfg = tiny_job();
        let exact = episode(&cfg, false).unwrap().exact;
        let overlapping = Defects {
            overlap: true,
            ..Defects::default()
        };
        let err = check_pass(&mut FakeCore::new(overlapping), a100(), &cfg, &exact).unwrap_err();
        assert!(err.0.contains("overlaps"), "{err}");
        // A sound core whose replay disagrees with the timed run fails too.
        let err =
            check_pass(&mut FakeCore::new(Defects::default()), a100(), &cfg, &exact).unwrap_err();
        assert!(err.0.contains("Replayer reports"), "{err}");
    }
}
