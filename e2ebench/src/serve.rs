//! The serving workload: a `ServingPlan` driven through the shipped
//! serving stack (`ServingService` → `PoolHandle` → `DeviceAllocator` →
//! `GmLakeAllocator` → simulated driver) by one closed-loop client.
//!
//! The client plays the plan step by step: due arrivals are offered,
//! every live tenant retires last step's requests, pins its resident set
//! when it holds none, issues this step's requests, and tenants whose
//! lifetime ended depart. The client keeps its own record of every live
//! allocation and of the pool calls the serving layer made on its behalf
//! (an [`OpLog`]), which the traced mode replays down the layer ladder.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gmlake::alloc_api::{
    gib, mib, AllocError, AllocTag, AllocationId, AllocatorCore, DeviceAllocator, StreamId,
};
use gmlake::caching::CachingAllocator;
use gmlake::core::{GmLakeAllocator, GmLakeConfig, StateCounters};
use gmlake::gpu_sim::{CudaDriver, DeviceConfig};
use gmlake::runtime::{DeviceId, PoolService};
use gmlake::serving::{AdmissionPolicy, ServingConfig, ServingService, TenantId};
use gmlake::workload::{ServingPlan, ServingWorkloadConfig};

use crate::check::{check_quiescent, ensure, VaRanges, Violation};
use crate::ladder::{layer_metrics, write_spans, Ladder, PoolCounters, Rung};
use crate::ops::{job_seed, replay, Op, OpLog};
use crate::report::{gib as to_gib, Report};
use crate::rounds;
use crate::spans::{self, TracingCore};
use crate::stats::{median, pct, ratio, self_times, Layer, Span};

/// Committed-quota ceiling as a multiple of the device. Quotas are charged
/// at rounded allocation sizes, so at 1.0 the admitted tenants'
/// allocations together fit the device and none fails; above it, a few
/// plans in a thousand exhaust the device even after the rescue stage has
/// dropped every idle working set.
pub const OVERCOMMIT: f64 = 1.0;
/// Warm-up steps: one mean tenant lifetime, while the population ramps up.
pub const WARMUP_STEPS: u64 = 96;
/// Timed steps after the warm-up: few, so that a run repeats every job
/// often enough to find its undisturbed repetition.
pub const TIMED_STEPS: u64 = 64;

/// The plan for workload seed `seed`, in `bench_pr8`'s shape.
pub fn plan_config(seed: u64) -> ServingWorkloadConfig {
    ServingWorkloadConfig {
        seed,
        steps: WARMUP_STEPS + TIMED_STEPS,
        arrivals_per_step: 2.0,
        mean_lifetime_steps: WARMUP_STEPS,
        shard_range: (32, 128),
        requests_per_step: (1, 4),
    }
}

fn gmlake(driver: &CudaDriver) -> GmLakeAllocator {
    GmLakeAllocator::new(
        driver.clone(),
        GmLakeConfig::default().with_frag_limit(mib(32)),
    )
}

fn boxed_core(driver: &CudaDriver, traced: bool) -> Box<dyn AllocatorCore + Send> {
    if traced {
        Box::new(TracingCore::new(gmlake(driver)))
    } else {
        Box::new(gmlake(driver))
    }
}

/// The shipped serving stack, built as `ServingService::new` over a pool
/// from `PoolService::register`.
fn a100() -> CudaDriver {
    CudaDriver::new(DeviceConfig::a100_80g())
}

fn service(traced: bool, overcommit: f64) -> (ServingService, CudaDriver) {
    let driver = a100();
    let pool = PoolService::new()
        .register(DeviceId(0), boxed_core(&driver, traced))
        .expect("a fresh service has no pool yet");
    let serving = ServingService::new(
        pool,
        ServingConfig::new(gib(80))
            .with_overcommit(overcommit)
            .with_policy(AdmissionPolicy::Shed)
            .with_idle_after(8)
            .with_streams(4),
    );
    (serving, driver)
}

/// Outputs that must repeat bit for bit across episodes and between
/// traced and untraced runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Exact {
    peak_reserved: u64,
    peak_requested: u64,
    attempts: u64,
    refusals: u64,
    failed: u64,
    served: u64,
    sim_timed_ns: u64,
    driver_calls: u64,
    states: StateCounters,
}

struct Tenant {
    id: TenantId,
    stream: StreamId,
    depart_at: u64,
    plan: usize,
    resident: Vec<u32>,
    transient: Vec<u32>,
}

/// Client state of one episode.
struct Client<'a> {
    serving: &'a ServingService,
    traced: bool,
    timed: bool,
    /// Live allocations by key: id and requested bytes.
    live: Vec<Option<(AllocationId, u64)>>,
    live_requested: u64,
    peak_requested: u64,
    /// Pool calls the serving layer made for the client.
    log: OpLog,
    ranges: Option<VaRanges>,
    violation: Option<Violation>,
    evicted_seen: u64,
    shed_seen: u64,
    alloc_ns: Vec<u64>,
    /// Per timed alloc of a traced run: whether it succeeded.
    alloc_ok: Vec<bool>,
    attempts: u64,
    refusals: u64,
    failed: u64,
    ops: u64,
    served: u64,
}

impl Client<'_> {
    /// One timed alloc for `t`; the other live `tenants` are reconciled
    /// before the result is recorded, because the call's OOM rescue may
    /// have dropped their working sets and handed their blocks to `t`.
    fn alloc(
        &mut self,
        t: &Tenant,
        bytes: u64,
        tenants: &mut BTreeMap<u64, Tenant>,
    ) -> Option<u32> {
        if self.traced {
            spans::open_outer(Layer::OuterAlloc);
        }
        let t0 = Instant::now();
        let r = self.serving.alloc(t.id, bytes);
        let t1 = Instant::now();
        if self.traced {
            spans::close_outer(t0, t1);
        }
        self.reconcile(tenants, false);
        if self.timed {
            self.alloc_ns.push((t1 - t0).as_nanos() as u64);
            self.attempts += 1;
            if self.traced {
                self.alloc_ok.push(r.is_ok());
            }
        }
        match r {
            Ok(a) => {
                let key = self.live.len() as u32;
                self.live.push(Some((a.id, bytes)));
                self.live_requested += bytes;
                self.peak_requested = self.peak_requested.max(self.live_requested);
                self.log.push(Op::Alloc {
                    key,
                    size: bytes,
                    tag: AllocTag::Unspecified,
                    stream: t.stream,
                });
                if let Some(ranges) = &mut self.ranges {
                    if let Err(v) = ranges.insert(bytes, &a) {
                        self.violation.get_or_insert(v);
                    }
                }
                if self.timed {
                    self.ops += 1;
                    self.served += 1;
                }
                Some(key)
            }
            Err(AllocError::QuotaExceeded { .. }) => {
                self.refusals += u64::from(self.timed);
                None
            }
            Err(_) => {
                self.failed += u64::from(self.timed);
                None
            }
        }
    }

    fn free(&mut self, t: &Tenant, key: u32) {
        let Some((id, _)) = self.live[key as usize] else {
            return;
        };
        if self.traced {
            spans::open_outer(Layer::OuterFree);
        }
        let t0 = Instant::now();
        let r = self.serving.free(t.id, id);
        if self.traced {
            spans::close_outer(t0, Instant::now());
        }
        match r {
            Ok(()) => self.ops += u64::from(self.timed),
            Err(_) => self.failed += u64::from(self.timed),
        }
        self.forget(t.stream, key);
    }

    /// Drops the record of `key`, which the serving layer freed on `stream`.
    fn forget(&mut self, stream: StreamId, key: u32) {
        if let Some((id, bytes)) = self.live[key as usize].take() {
            self.live_requested -= bytes;
            self.log.push(Op::Free { key, stream });
            if let Some(ranges) = &mut self.ranges {
                ranges.remove(id);
            }
        }
    }

    fn forget_all(&mut self, t: &mut Tenant) {
        for key in t
            .resident
            .drain(..)
            .chain(t.transient.drain(..))
            .collect::<Vec<_>>()
        {
            self.forget(t.stream, key);
        }
    }

    /// Reconciles the record with tenants the serving layer shed (gone
    /// from the registry; only an offer sheds) or whose working set its
    /// OOM rescue dropped (only an alloc evicts).
    fn reconcile(&mut self, tenants: &mut BTreeMap<u64, Tenant>, after_offer: bool) {
        if after_offer {
            let shed = self.serving.admission_stats().tenants_shed;
            if shed == self.shed_seen {
                return;
            }
            self.shed_seen = shed;
        } else {
            let evicted = self.serving.serving_stats().allocs_evicted;
            if evicted == self.evicted_seen {
                return;
            }
            self.evicted_seen = evicted;
        }
        let mut gone = Vec::new();
        for (&tid, t) in tenants.iter_mut() {
            let held = (t.resident.len() + t.transient.len()) as u64;
            match self.serving.usage(t.id) {
                None => gone.push(tid),
                Some(u) if u.live_allocs < held => self.forget_all(t),
                Some(_) => {}
            }
        }
        for tid in gone {
            let mut t = tenants.remove(&tid).expect("listed above");
            self.forget_all(&mut t);
        }
    }
}

/// One episode's measurements.
struct Episode {
    gen_s: f64,
    setup_s: f64,
    timed_s: f64,
    alloc_ns: Vec<u64>,
    alloc_ok: Vec<bool>,
    ops: u64,
    exact: Exact,
    log: OpLog,
    peak_tenants: u64,
    evictions: u64,
    spans: Vec<Span>,
}

/// One job: plan generation, stack construction and the warm-up steps
/// form its set-up; the remaining steps are timed. `check` adds the
/// live-range check of every allocation.
fn episode(
    plan: &ServingWorkloadConfig,
    overcommit: f64,
    traced: bool,
    check: bool,
) -> Result<Episode, Violation> {
    let t0 = Instant::now();
    let plan = ServingPlan::generate(plan.clone());
    let gen_s = t0.elapsed().as_secs_f64();
    let (serving, driver) = service(traced, overcommit);
    let mut c = Client {
        serving: &serving,
        traced,
        timed: false,
        live: Vec::new(),
        live_requested: 0,
        peak_requested: 0,
        log: OpLog::default(),
        ranges: check.then(VaRanges::default),
        violation: None,
        evicted_seen: 0,
        shed_seen: 0,
        alloc_ns: Vec::new(),
        alloc_ok: Vec::new(),
        attempts: 0,
        refusals: 0,
        failed: 0,
        ops: 0,
        served: 0,
    };
    let mut tenants: BTreeMap<u64, Tenant> = BTreeMap::new();
    let mut next_arrival = 0;
    let mut setup_s = 0.0;
    let mut timed_start = t0;
    let (mut calls_before, mut sim_before) = (0, 0);
    let mut peak_tenants = 0;
    for step in 0..plan.steps() {
        if step == WARMUP_STEPS {
            c.timed = true;
            c.log.timed_from = c.log.ops.len();
            if traced {
                spans::reset();
            }
            calls_before = driver.stats().total_calls();
            sim_before = driver.now_ns();
            timed_start = Instant::now();
            setup_s = (timed_start - t0).as_secs_f64();
        }
        while next_arrival < plan.tenants.len() && plan.tenants[next_arrival].arrive_step <= step {
            let planned = &plan.tenants[next_arrival];
            if let Some(id) = serving.offer(planned.quota_bytes).tenant() {
                let stream = serving.usage(id).expect("just admitted").stream;
                tenants.insert(
                    id.0,
                    Tenant {
                        id,
                        stream,
                        depart_at: step + planned.lifetime_steps,
                        plan: next_arrival,
                        resident: Vec::new(),
                        transient: Vec::new(),
                    },
                );
            }
            c.reconcile(&mut tenants, true);
            next_arrival += 1;
        }
        peak_tenants = peak_tenants.max(tenants.len() as u64);
        let ids: Vec<u64> = tenants.keys().copied().collect();
        let mut departures = Vec::new();
        for tid in ids {
            // Out of the map while it works: a tenant allocating is active,
            // so the rescue (which drops idle tenants only) never touches
            // it, while `reconcile` checks the others. A tenant an earlier
            // reconcile dropped is skipped.
            let Some(mut t) = tenants.remove(&tid) else {
                continue;
            };
            for key in std::mem::take(&mut t.transient) {
                c.free(&t, key);
            }
            if step + 1 >= t.depart_at {
                departures.push(t);
                continue;
            }
            let planned = &plan.tenants[t.plan];
            if t.resident.is_empty() {
                for &size in &planned.resident {
                    match c.alloc(&t, size, &mut tenants) {
                        Some(k) => t.resident.push(k),
                        None => break,
                    }
                }
            }
            for _ in 0..planned.requests_per_step {
                if let Some(k) = c.alloc(&t, planned.request_bytes, &mut tenants) {
                    t.transient.push(k);
                }
            }
            tenants.insert(tid, t);
        }
        for mut t in departures {
            serving.depart(t.id);
            c.forget_all(&mut t);
        }
        serving.step();
    }
    let timed_s = timed_start.elapsed().as_secs_f64();
    let spans = if traced { spans::take() } else { Vec::new() };
    let exact = Exact {
        peak_reserved: serving.pool().stats().peak_reserved_bytes,
        peak_requested: c.peak_requested,
        attempts: c.attempts,
        refusals: c.refusals,
        failed: c.failed,
        served: c.served,
        sim_timed_ns: driver.now_ns() - sim_before,
        driver_calls: driver.stats().total_calls() - calls_before,
        states: serving
            .pool()
            .allocator()
            .with_core_as(|g: &mut GmLakeAllocator| g.state_counters())
            .expect("the stack's core is GMLake"),
    };
    for (_, mut t) in std::mem::take(&mut tenants) {
        serving.depart(t.id);
        c.forget_all(&mut t);
    }
    if let Some(v) = c.violation.take() {
        return Err(v);
    }
    ensure(serving.used_bytes() == 0, || {
        format!(
            "serving reports {} bytes used at the end",
            serving.used_bytes()
        )
    })?;
    check_quiescent(&mut serving.pool().clone())?;
    let evictions = serving.serving_stats().tenants_evicted;
    Ok(Episode {
        gen_s,
        setup_s,
        timed_s,
        alloc_ns: c.alloc_ns,
        alloc_ok: c.alloc_ok,
        ops: c.ops,
        exact,
        log: c.log,
        peak_tenants,
        evictions,
        spans,
    })
}

/// Distinct plans of a run, played round after round (see [`rounds`]).
const JOBS: u64 = 48;
/// Jobs that also get the untimed checked pass.
const CHECKED_JOBS: u64 = 4;

impl rounds::Job for Episode {
    fn timed_s(&self) -> f64 {
        self.timed_s
    }
    fn setup_s(&self) -> f64 {
        self.setup_s
    }
    fn counts(&self) -> (u64, u64) {
        (self.exact.attempts, self.exact.failed)
    }
    fn same_outputs(&self, other: &Self) -> bool {
        self.exact == other.exact
    }
}

/// The untraced mode: end-to-end metrics of the serving stack, over each
/// job's fastest repetition.
pub fn end_to_end(seed: u64, budget: Duration) -> Result<Report, Violation> {
    let played = rounds::run(JOBS, budget, |job| {
        episode(&plan_config(job_seed(seed, job)), OVERCOMMIT, false, false)
    })?;
    let eps = &played.best;
    let exact: Vec<Exact> = eps.iter().map(|e| e.exact).collect();
    // The untimed checked pass: live ranges and sizes of every allocation.
    for job in 0..CHECKED_JOBS {
        let checked = episode(&plan_config(job_seed(seed, job)), OVERCOMMIT, false, true)?;
        ensure(checked.exact == exact[job as usize], || {
            format!("job {job}: the checked pass diverged from the timed episode")
        })?;
    }
    let sum = |f: &dyn Fn(&Exact) -> u64| exact.iter().map(f).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&Exact) -> f64| exact.iter().map(f).sum::<f64>() / exact.len() as f64;
    let mut samples: Vec<u64> = eps
        .iter()
        .flat_map(|e| e.alloc_ns.iter().copied())
        .collect();
    let mut r = Report::new(played.attempted, played.failed);
    r.note(format!(
        "{} jobs, {} repetitions; {} timed alloc samples in the fastest ones; \
         {:.0} quota refusals per job",
        exact.len(),
        played.reps,
        samples.len(),
        sum(&|x| x.refusals) / exact.len() as f64
    ));
    let ops: u64 = eps.iter().map(|e| e.ops).sum();
    r.metric("setup_s", median(&played.setup_s), "s");
    r.metric(
        "ops_per_s",
        ratio(ops as f64, eps.iter().map(|e| e.timed_s).sum()),
        "1/s",
    );
    for (name, q) in [("alloc_p50_ns", 0.50), ("alloc_p99_ns", 0.99)] {
        r.metric(name, pct(&mut samples, q), "ns");
    }
    r.metric(
        "peak_reserved_gib",
        mean(&|x| to_gib(x.peak_reserved)),
        "GiB",
    );
    r.metric(
        "fragmentation",
        mean(&|x| 1.0 - ratio(x.peak_requested as f64, x.peak_reserved as f64)),
        "ratio",
    );
    r.metric(
        "sim_samples_per_s",
        ratio(sum(&|x| x.served), sum(&|x| x.sim_timed_ns) / 1e9),
        "1/s",
    );
    r.metric(
        "completed_op_share",
        1.0 - ratio(sum(&|x| x.failed), sum(&|x| x.attempts)),
        "ratio",
    );
    Ok(r)
}

/// The traced mode: serving-layer metrics from the stack, and the ladder
/// below serving replaying the pool calls serving made, job by job.
pub fn per_layer(seed: u64, budget: Duration) -> Result<Report, Violation> {
    let start = Instant::now();
    let mut ladder = Ladder {
        stack: Rung::default(),
        counters: PoolCounters::default(),
        raw: Rung::default(),
        core: Rung::default(),
        caching: Rung::default(),
        iterations: false,
    };
    let (mut plain_ops, mut plain_s, mut traced_ops, mut traced_s) = (0, 0.0, 0, 0.0);
    let (mut serve_self, mut gen) = (Vec::new(), Vec::new());
    let (mut attempts, mut refusals, mut failed) = (0, 0, 0);
    let (mut evictions, mut peak_tenants) = (Vec::new(), Vec::new());
    let mut last_spans = Vec::new();
    let mut job = 0;
    while job == 0 || start.elapsed() < budget {
        let plan = plan_config(job_seed(seed, job));
        let untraced = episode(&plan, OVERCOMMIT, false, false)?;
        let traced = episode(&plan, OVERCOMMIT, true, false)?;
        ensure(untraced.exact == traced.exact, || {
            format!(
                "job {job}: traced outputs {:?} differ from untraced {:?}",
                traced.exact, untraced.exact
            )
        })?;
        plain_ops += untraced.ops;
        plain_s += untraced.timed_s;
        traced_ops += traced.ops;
        traced_s += traced.timed_s;
        // Self time above the core of the successful serving allocs (a
        // refused one never reaches the pool).
        let own = self_times(&traced.spans, Layer::OuterAlloc);
        serve_self.extend(
            own.iter()
                .zip(&traced.alloc_ok)
                .filter(|(_, &ok)| ok)
                .map(|(&ns, _)| ns),
        );
        gen.extend([untraced.gen_s, traced.gen_s]);
        attempts += traced.exact.attempts;
        refusals += traced.exact.refusals;
        failed += untraced.exact.failed + traced.exact.failed;
        evictions.push(traced.evictions as f64);
        peak_tenants.push(traced.peak_tenants as f64);

        // The ladder below serving, on the pool calls serving made.
        let log = &traced.log;
        let driver = a100();
        let mut pool = PoolService::new()
            .register(DeviceId(0), boxed_core(&driver, true))
            .expect("a fresh service has no pool yet");
        let run = replay(&mut pool, &driver, log, true, 1);
        ladder.stack.add(&run, &spans::take());
        ladder.counters.add(&pool);
        check_quiescent(&mut pool)?;
        let driver = a100();
        let mut raw = DeviceAllocator::new(TracingCore::new(gmlake(&driver)));
        let run = replay(&mut raw, &driver, log, true, 1);
        ladder.raw.add(&run, &spans::take());
        let driver = a100();
        let run = replay(&mut gmlake(&driver), &driver, log, false, 1);
        ladder.core.add(&run, &[]);
        let driver = a100();
        let run = replay(
            &mut CachingAllocator::new(driver.clone()),
            &driver,
            log,
            false,
            1,
        );
        ladder.caching.add(&run, &[]);
        last_spans = traced.spans;
        job += 1;
    }

    let mut r = Report::new(2 * attempts, failed);
    r.note(format!("{job} jobs, each on every rung"));
    r.metric("workload.gen_s", median(&gen), "s");
    r.metric(
        "trace.overhead",
        ratio(
            ratio(traced_ops as f64, traced_s),
            ratio(plain_ops as f64, plain_s),
        ),
        "ratio",
    );
    for (name, q) in [("serving.self_ns_p50", 0.5), ("serving.self_ns_p99", 0.99)] {
        let below = ladder.stack.self_pct(q);
        r.metric(name, pct(&mut serve_self, q) - below, "ns");
    }
    r.metric(
        "serving.quota_refusal_share",
        ratio(refusals as f64, attempts as f64),
        "ratio",
    );
    r.metric("serving.evictions", median(&evictions), "count");
    r.metric("serving.peak_tenants", median(&peak_tenants), "count");
    layer_metrics(&mut r, &mut ladder);
    for (name, unit) in [
        ("planning.peak_reserved_gib", "GiB"),
        ("planning.plan_hit_rate", "ratio"),
        ("planning.alloc_ns_p50", "ns"),
    ] {
        r.metric(name, 0.0, unit);
    }
    write_spans("serve-churn", &last_spans);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Job `job` of seed 208, timed for 192 steps instead of the
    /// workload's 64, long enough for an overcommitted device to fill.
    fn long_plan(job: u64) -> ServingWorkloadConfig {
        ServingWorkloadConfig {
            steps: WARMUP_STEPS + 192,
            ..plan_config(job_seed(208, job))
        }
    }

    /// A plan on which an overcommitted device fills up: the pool's OOM
    /// rescue drops idle tenants' working sets inside another tenant's
    /// alloc and hands their blocks to it. The client must reconcile
    /// those evictions before it records the new allocation, or the
    /// live-range check sees the reused block as an overlap.
    #[test]
    fn checked_job_survives_rescue_evictions_and_repeats_exactly() {
        let plan = &long_plan(2);
        let checked = episode(plan, 1.5, false, true).unwrap();
        assert!(checked.evictions > 0, "the plan exercises the rescue");
        assert_eq!(
            episode(plan, 1.5, false, false).unwrap().exact,
            checked.exact
        );
        assert_eq!(
            episode(plan, 1.5, true, false).unwrap().exact,
            checked.exact
        );
    }

    /// Plans that run a 1.5x-overcommitted device out of memory even
    /// after the rescue fit it without overcommit.
    #[test]
    fn without_overcommit_no_allocation_fails() {
        let failed = |overcommit| -> Vec<u64> {
            (0..8)
                .map(|job| episode(&long_plan(job), overcommit, false, false).unwrap())
                .map(|ep| ep.exact.failed)
                .collect()
        };
        assert!(failed(1.5).iter().any(|&f| f > 0));
        assert_eq!(failed(OVERCOMMIT), [0; 8]);
    }
}
