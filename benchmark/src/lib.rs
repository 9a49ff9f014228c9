//! The repository benchmark: three workloads that drive the ClearView crates
//! through their public APIs, check every output, and report end-to-end and
//! per-layer metrics. `README.md` in this directory documents the workloads,
//! the metrics and which layer metric should move which end-to-end metric.
//!
//! A run has two shapes:
//!
//! * **untraced** (`--trace 0`): one pass of the workload; prints every
//!   end-to-end metric;
//! * **traced** (`--trace 1`): an untraced pass, then a traced pass of the same
//!   inputs that keeps a span around every call into a layer, then the layer
//!   probes; prints every per-layer metric, the layer table, and writes the
//!   spans as a Chrome trace.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod inputs;
pub mod probes;
pub mod protect;
pub mod repair;
pub mod spans;
pub mod stats;

use spans::Spans;
use stats::Metric;
use std::collections::BTreeMap;
use std::path::Path;

/// The workloads, by the name the command line uses.
pub const WORKLOADS: [&str; 3] = ["protect_pages", "repair_red_team", "fleet_churn"];

/// The end-to-end metrics every workload reports, `(name, unit)`, in output
/// order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pages_per_s", "pages/s"),
    ("page_p50_us", "us"),
    ("patch_ms", "ms"),
    ("learn_ms", "ms"),
    ("presentations_to_patch", "count"),
    ("peak_rss_mb", "MB"),
];

/// Counts operations and the output checks that failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output check did not hold.
    pub failed: u64,
    /// The first few failures, for the log.
    pub first_failures: Vec<String>,
}

impl Checks {
    /// Record one checked operation; `what` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// The end-to-end metrics, named as in [`END_TO_END`] (without
    /// `peak_rss_mb`, which is read once per process).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics the workload itself exercised.
    pub layers: Vec<Metric>,
}

impl Pass {
    /// The value of end-to-end metric `name`.
    pub fn value(&self, name: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .unwrap_or_else(|| panic!("pass has no metric {name}"))
    }
}

/// One pass of `workload` on `seed`, measuring for at least `seconds`.
pub fn run_pass(
    workload: &str,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Pass {
    match workload {
        "protect_pages" => protect::run(&protect::Params::full(), seed, seconds, spans, checks),
        "repair_red_team" => repair::run(&repair::Params::full(), seed, seconds, spans, checks),
        "fleet_churn" => fleet::run(&fleet::Params::full(), seed, seconds, spans, checks),
        other => panic!("unknown workload {other}"),
    }
}

/// The result line of a run.
#[derive(Debug)]
pub struct Report {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The metrics to print, in order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Untraced run: one pass, every end-to-end metric.
pub fn run_untraced(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut checks = Checks::default();
    let pass = run_pass(workload, seed, seconds, &mut Spans::off(), &mut checks);
    let mut metrics = pass.end_to_end;
    metrics.push(Metric::value("peak_rss_mb", "MB", peak_rss_mb(), 1));
    let names: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        names, END_TO_END,
        "{workload} reports the end-to-end metrics in order"
    );
    for m in &metrics {
        m.require_tail_samples();
    }
    log_failures(&checks);
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

/// Traced run: an untraced pass, a traced pass of the same inputs, then the
/// layer probes. Writes the Chrome trace and the layer table under `out_dir`
/// and reports every per-layer metric.
pub fn run_traced(workload: &str, seed: u64, seconds: f64, out_dir: &Path) -> Report {
    let mut checks = Checks::default();
    let untraced = run_pass(workload, seed, seconds, &mut Spans::off(), &mut checks);
    let mut spans = Spans::on();
    let traced = run_pass(workload, seed, seconds, &mut spans, &mut checks);
    let wall = spans.elapsed();

    let table = spans.layer_table(wall);
    println!("\nlayer table, traced pass of {workload} (seed {seed}):\n{table}");
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let stem = format!("{workload}-seed{seed}");
    let trace_path = out_dir.join(format!("{stem}.trace.json"));
    std::fs::write(&trace_path, spans.chrome_trace()).expect("write the Chrome trace");
    std::fs::write(out_dir.join(format!("{stem}.layers.txt")), &table)
        .expect("write the layer table");
    println!("trace written to {}", trace_path.display());

    // Probes measure the layers on seeded inputs; a layer metric the workload
    // measured on its own calls replaces the probe's.
    let mut layers: BTreeMap<&'static str, Metric> = BTreeMap::new();
    for m in probes::run(workload, seed, &mut checks) {
        layers.insert(m.name, m);
    }
    let overhead = (untraced.value("pages_per_s") / traced.value("pages_per_s") - 1.0) * 100.0;
    for m in traced.layers {
        layers.insert(m.name, m);
    }
    layers.insert(
        "obs.trace_overhead_pct",
        Metric::value("obs.trace_overhead_pct", "%", overhead, 2),
    );

    let metrics: Vec<Metric> = probes::PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let m = layers
                .remove(name)
                .unwrap_or_else(|| panic!("no measurement of layer metric {name}"));
            assert_eq!(m.unit, *unit, "unit of {name}");
            m.require_tail_samples();
            m
        })
        .collect();
    assert!(
        layers.is_empty(),
        "layer metrics missing from PER_LAYER: {:?}",
        layers.keys().collect::<Vec<_>>()
    );
    log_failures(&checks);
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}

fn log_failures(checks: &Checks) {
    for f in &checks.first_failures {
        println!("CHECK FAILED: {f}");
    }
}
