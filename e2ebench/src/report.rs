//! Result sets: named metrics with units, the host they ran on, and the
//! one-line JSON result the command prints last.

use std::fmt::Write as _;

/// Bytes to GiB.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// One run's metrics.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// A report over `attempted` calls of which `failed` failed.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report {
            attempted,
            failed,
            ..Report::default()
        }
    }

    /// Adds a metric. Names are unique within a report.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, ..)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The human-readable summary: host, notes, one metric per line.
    pub fn summary(&self, header: &str) -> String {
        let mut s = format!("{header}\nhost: {}\n", host());
        for n in &self.notes {
            let _ = writeln!(s, "{n}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "  {name:<28} {value:>16.6} {unit}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Serving-layer metrics of a workload that does not cross the serving
/// layer: it adds no time, refuses nothing and hosts no tenants.
pub fn serving_absent(r: &mut Report) {
    for (name, unit) in [
        ("serving.self_ns_p50", "ns"),
        ("serving.self_ns_p99", "ns"),
        ("serving.quota_refusal_share", "ratio"),
        ("serving.evictions", "count"),
        ("serving.peak_tenants", "count"),
    ] {
        r.metric(name, 0.0, unit);
    }
}

/// The host a result set ran on: cores, CPU model, and the compiler that
/// built the benchmark.
pub fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    format!(
        "nproc {nproc}; cpu {cpu}; {}",
        env!("E2EBENCH_RUSTC_VERSION")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_result_shape() {
        let mut r = Report::new(10, 1);
        r.metric("latency_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
