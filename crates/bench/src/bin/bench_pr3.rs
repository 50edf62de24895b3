//! Perf snapshot for the PR 3 concurrent-first allocator API: sweeps the
//! shared-pool small-allocation path over 1/2/4/8 threads, comparing the
//! sharded `DeviceAllocator` fast path against the retired single-mutex
//! design (a `DeviceAllocator` with the fast path disabled — every call
//! funnels through the core mutex, exactly like the old shared handle),
//! and re-samples the PR 2 `BestFit` probe so the scaling trend stays
//! monitored. Results are written as machine-readable `BENCH_PR3.json`
//! (committed to the repo, uploaded as a CI artifact).
//!
//! `bench_pr3 --check` re-runs the sweep and compares it against the
//! committed snapshot, failing on order-of-magnitude regressions in either
//! the contention throughput or the `bestfit_scaling` probe — the CI
//! perf-trajectory gate.
//!
//! Wall-clock numbers are host-dependent; the stable quantities are the
//! *ratios* (sharded vs mutex at each thread count) and the order of
//! magnitude of the absolute throughputs.

use std::time::Instant;

use gmlake_alloc_api::{AllocRequest, DeviceAllocator};
use gmlake_bench::perf::{contention_pool, contention_thread_size, sample_pool};
use gmlake_bench::report;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const OPS_PER_THREAD: usize = 20_000;
/// Pool size for the re-sampled PR 2 BestFit probe.
const PROBE_POOL_BLOCKS: usize = 10_000;
/// Acceptance floor: sharded 8-thread small-alloc throughput over the
/// single-mutex baseline. Below it `--check` *warns* (wall-clock ratios on
/// shared CI runners are noisy); CI only fails when the sharded path is
/// outright slower than the mutex baseline — machine-independent evidence
/// the fast path is broken.
const MIN_SPEEDUP_8T: f64 = 3.0;

/// Runs `threads` workers, each doing `OPS_PER_THREAD` small alloc/free
/// cycles; returns aggregate operations (one alloc + one free = 2 ops) per
/// second.
fn measure(pool: &DeviceAllocator, threads: usize) -> f64 {
    // Warm every thread's size class so the sweep measures the steady
    // state, not the first-touch core misses.
    for t in 0..threads {
        let a = pool
            .allocate(AllocRequest::new(contention_thread_size(t)))
            .unwrap();
        pool.deallocate(a.id).unwrap();
    }
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = pool.clone();
            s.spawn(move || {
                let size = contention_thread_size(t);
                for _ in 0..OPS_PER_THREAD {
                    let a = pool.allocate(AllocRequest::new(size)).unwrap();
                    pool.deallocate(a.id).unwrap();
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    (threads * OPS_PER_THREAD * 2) as f64 / secs
}

struct SweepPoint {
    threads: usize,
    mutex_ops_per_sec: f64,
    sharded_ops_per_sec: f64,
}

impl SweepPoint {
    fn speedup(&self) -> f64 {
        self.sharded_ops_per_sec / self.mutex_ops_per_sec
    }
}

fn run_sweep() -> Vec<SweepPoint> {
    THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let mutex_ops_per_sec = measure(&contention_pool(false), threads);
            let sharded_ops_per_sec = measure(&contention_pool(true), threads);
            let point = SweepPoint {
                threads,
                mutex_ops_per_sec,
                sharded_ops_per_sec,
            };
            eprintln!(
                "  {threads} thread(s): mutex {:>12.0} ops/s, sharded {:>12.0} ops/s ({:.1}x)",
                point.mutex_ops_per_sec,
                point.sharded_ops_per_sec,
                point.speedup()
            );
            point
        })
        .collect()
}

fn render_json(sweep: &[SweepPoint], probe_indexed_ns: f64, alloc_free_ns: f64) -> String {
    let mut json = String::from("{\n  \"schema\": \"gmlake-bench-pr3/v1\",\n");
    json.push_str("  \"contention_sweep\": [\n");
    for (i, p) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"mutex_ops_per_sec\": {:.0}, \
             \"sharded_ops_per_sec\": {:.0}, \"sharded_over_mutex\": {:.2}}}{}\n",
            p.threads,
            p.mutex_ops_per_sec,
            p.sharded_ops_per_sec,
            p.speedup(),
            if i + 1 == sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    let eight = sweep.last().expect("sweep is non-empty");
    json.push_str(&format!(
        "  \"speedup_8t\": {:.2},\n  \"bestfit_probe\": {{\"pool_blocks\": {}, \
         \"probe_indexed_ns\": {:.1}, \"alloc_free_s1_ns\": {:.1}}},\n",
        eight.speedup(),
        PROBE_POOL_BLOCKS,
        probe_indexed_ns,
        alloc_free_ns
    ));
    json.push_str(
        "  \"notes\": \"small-alloc (8 KiB..1 MiB, one size class per thread) \
         alloc+free cycles through a shared pool; mutex = DeviceAllocator with \
         the fast path disabled (the retired single-mutex design); sharded \
         = default DeviceAllocator; bestfit_probe re-samples the PR 2 S3 \
         classification on a converged pool\"\n}\n",
    );
    json
}

/// Compares a freshly measured sweep against the committed snapshot.
/// Returns the hard failures (empty = pass); sub-floor but still-faster
/// speedups only warn, since cross-machine wall-clock ratios are noisy.
fn check_against(committed: &str, sweep: &[SweepPoint], probe_indexed_ns: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let eight = sweep.last().expect("sweep is non-empty");
    if eight.speedup() < 1.0 {
        // Machine-independent: the sharded fast path must never lose to
        // the single mutex it replaced.
        failures.push(format!(
            "8-thread sharded path is SLOWER than the single-mutex baseline ({:.2}x)",
            eight.speedup()
        ));
    } else if eight.speedup() < MIN_SPEEDUP_8T {
        eprintln!(
            "warning: 8-thread sharded speedup {:.2}x is below the {MIN_SPEEDUP_8T}x floor \
             recorded in the snapshot (noisy runner?)",
            eight.speedup()
        );
    }
    // First sweep entry in the snapshot is the 1-thread point; compare
    // the same-shape quantity: current 1-thread sharded throughput.
    failures.extend(report::throughput_guard(
        committed,
        "sharded_ops_per_sec",
        sweep[0].sharded_ops_per_sec,
        "1-thread sharded throughput",
        "ops/s",
    ));
    failures.extend(report::latency_guard(
        committed,
        "probe_indexed_ns",
        probe_indexed_ns,
        "bestfit_scaling probe",
    ));
    failures
}

fn main() {
    eprintln!("contention sweep, {OPS_PER_THREAD} alloc/free cycles per thread:");
    let sweep = run_sweep();
    eprintln!("re-sampling BestFit probe at {PROBE_POOL_BLOCKS} blocks...");
    let probe = sample_pool(PROBE_POOL_BLOCKS, 200);

    report::finish(
        "BENCH_PR3.json",
        || render_json(&sweep, probe.probe_indexed_ns, probe.alloc_free_s1_ns),
        |committed| check_against(committed, &sweep, probe.probe_indexed_ns),
        || {
            let eight = sweep.last().unwrap();
            format!(
                "8-thread sharded speedup {:.2}x, probe {:.1} ns",
                eight.speedup(),
                probe.probe_indexed_ns
            )
        },
    );
}
