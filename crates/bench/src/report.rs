//! Shared scaffolding for the `bench_prN` perf-snapshot binaries.
//!
//! Every `bench_prN` binary follows one protocol:
//!
//! * **snapshot mode** (no args) — run the sweep, render a hand-rolled
//!   JSON document, write it to `BENCH_PRN.json` (committed to the repo,
//!   uploaded as a CI artifact), and echo it to stdout;
//! * **`--check` mode** — re-run the sweep, compare it against the
//!   committed snapshot, print `PERF REGRESSION: …` lines and exit
//!   non-zero on hard failures, or a one-line pass summary on success.
//!
//! [`finish`] implements that tail end once; the binaries keep only what
//! is genuinely theirs (the sweep, the JSON body, the acceptance bounds).
//! [`throughput_guard`] and [`latency_guard`] implement the shared
//! order-of-magnitude drift checks against a committed snapshot field.

pub use crate::perf::extract_field;

/// Order-of-magnitude guard used by every `--check` against its snapshot:
/// wall-clock numbers are host-dependent, so only a ≥ 10× drift against
/// the committed value is treated as a hard structural regression.
pub const MAX_REGRESSION: f64 = 10.0;

/// True when the binary was invoked with `--check`.
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Guards a throughput-like snapshot field (bigger is better): returns a
/// failure line when `current` fell more than [`MAX_REGRESSION`]× below
/// the first `field` occurrence in `committed`. `what` names the quantity
/// (e.g. `"1-thread sharded throughput"`); `unit` its unit (e.g.
/// `"ops/s"`).
pub fn throughput_guard(
    committed: &str,
    field: &str,
    current: f64,
    what: &str,
    unit: &str,
) -> Option<String> {
    let baseline = extract_field(committed, field)?;
    if current * MAX_REGRESSION < baseline {
        Some(format!(
            "{what} regressed {:.1}x (snapshot {baseline:.0} {unit}, now {current:.0} {unit})",
            baseline / current
        ))
    } else {
        None
    }
}

/// Guards a latency-like snapshot field (smaller is better): returns a
/// failure line when `current` rose more than [`MAX_REGRESSION`]× above
/// the first `field` occurrence in `committed`.
pub fn latency_guard(committed: &str, field: &str, current: f64, what: &str) -> Option<String> {
    let baseline = extract_field(committed, field)?;
    if current > baseline * MAX_REGRESSION {
        Some(format!(
            "{what} regressed {:.1}x (snapshot {baseline:.1} ns, now {current:.1} ns)",
            current / baseline
        ))
    } else {
        None
    }
}

/// The shared tail of every `bench_prN` `main`.
///
/// In `--check` mode, reads the committed `snapshot` file (its absence is
/// fatal — the gate needs a baseline), evaluates `check` against it, and
/// either prints `perf check passed: {pass_summary}` or one
/// `PERF REGRESSION:` line per failure followed by `exit(1)`. Otherwise
/// renders the JSON, writes it to `snapshot`, and echoes it to stdout.
pub fn finish(
    snapshot: &str,
    render_json: impl FnOnce() -> String,
    check: impl FnOnce(&str) -> Vec<String>,
    pass_summary: impl FnOnce() -> String,
) {
    if check_mode() {
        let committed = std::fs::read_to_string(snapshot).unwrap_or_else(|e| {
            panic!("--check needs the committed {snapshot} in the working directory: {e}")
        });
        let failures = check(&committed);
        if failures.is_empty() {
            println!("perf check passed: {}", pass_summary());
            return;
        }
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = render_json();
    std::fs::write(snapshot, &json).unwrap_or_else(|e| panic!("write {snapshot}: {e}"));
    println!("{json}");
    eprintln!("wrote {snapshot}");
}

/// Where `--check` writes a report that carried warnings (relative to the
/// working directory, under the build directory git ignores).
pub const CHECK_DIR: &str = "target/bench-check";

/// Like [`finish`], but the check step also reports *warnings*: non-fatal
/// observations (typically scheduler noise on an oversubscribed runner)
/// that must survive a discarded stderr. Each warning prints exactly once,
/// and in `--check` mode a non-empty warning set renders the report — the
/// freshly measured sweep plus a `"warnings"` array — into
/// [`CHECK_DIR`]`/<snapshot>`, so the uploaded CI artifact records both the
/// measured values and why they were tolerated. `--check` never writes the
/// committed snapshot.
///
/// `render_json` receives the warnings to embed (empty in snapshot mode —
/// a committed baseline never starts life with a warning).
pub fn finish_with_warnings(
    snapshot: &str,
    render_json: impl FnOnce(&[String]) -> String,
    check: impl FnOnce(&str) -> (Vec<String>, Vec<String>),
    pass_summary: impl FnOnce() -> String,
) {
    if check_mode() {
        let committed = std::fs::read_to_string(snapshot).unwrap_or_else(|e| {
            panic!("--check needs the committed {snapshot} in the working directory: {e}")
        });
        let (failures, warnings) = check(&committed);
        for w in &warnings {
            eprintln!("warning: {w}");
        }
        if failures.is_empty() {
            if !warnings.is_empty() {
                let out = std::path::Path::new(CHECK_DIR).join(snapshot);
                std::fs::create_dir_all(CHECK_DIR)
                    .and_then(|()| std::fs::write(&out, render_json(&warnings)))
                    .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
                eprintln!(
                    "recorded {} warning(s) into {}",
                    warnings.len(),
                    out.display()
                );
            }
            println!("perf check passed: {}", pass_summary());
            return;
        }
        for f in &failures {
            eprintln!("PERF REGRESSION: {f}");
        }
        std::process::exit(1);
    }

    let json = render_json(&[]);
    std::fs::write(snapshot, &json).unwrap_or_else(|e| panic!("write {snapshot}: {e}"));
    println!("{json}");
    eprintln!("wrote {snapshot}");
}

/// Renders a `"warnings": [...]` JSON array line (with trailing comma and
/// newline) from plain-text warnings, escaping quotes and backslashes.
pub fn warnings_json(warnings: &[String]) -> String {
    let items: Vec<String> = warnings
        .iter()
        .map(|w| format!("\"{}\"", w.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("  \"warnings\": [{}],\n", items.join(", "))
}
