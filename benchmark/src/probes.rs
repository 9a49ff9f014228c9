//! Layer probes: timed calls into one layer's public functions on seeded
//! inputs, run after the traced pass of every workload.
//!
//! The runtime, patch and inference probes are the definitions of their
//! metrics. The core and fleet probes run a small version of the workload
//! that owns those layers (one `protect_pages` window, which passes through
//! every response phase; a 4,096-member fleet), so that a workload that never
//! calls a layer still reports it; when the traced workload measured a layer
//! metric on its own calls, that value replaces the probe's (see
//! `run_traced`).

use crate::spans::Spans;
use crate::stats::{ms, us, Metric};
use crate::{fleet, inputs, protect, Checks};
use cv_apps::{expanded_learning_suite, Browser};
use cv_core::{checks_for, learn_model};
use cv_inference::{Invariant, LearningFrontend};
use cv_isa::Word;
use cv_patch::{install_hooks, uninstall};
use cv_runtime::{
    EnvConfig, ExecutionStats, ManagedExecutionEnvironment, MonitorConfig, RunResult, SharedProgram,
};
use std::time::Instant;

/// Every per-layer metric, `(name, unit)`, in output order.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("runtime.run_us.bare", "us"),
    ("runtime.run_us.mf", "us"),
    ("runtime.run_us.mf_ss", "us"),
    ("runtime.run_us.mf_hg", "us"),
    ("runtime.run_us.full", "us"),
    ("runtime.shared_run_us.full", "us"),
    ("runtime.monitor_overhead_x", "x"),
    ("runtime.instructions_per_page", "count"),
    ("runtime.blocks_built_per_page", "count"),
    ("runtime.monitor_checks_per_page", "count"),
    ("runtime.hook_invocations_per_page", "count"),
    ("patch.build_hooks_us", "us"),
    ("patch.install_us", "us"),
    ("patch.uninstall_us", "us"),
    ("patch.hooked_run_us", "us"),
    ("patch.hook_cost_us", "us"),
    ("inference.traced_run_us", "us"),
    ("inference.commit_us", "us"),
    ("inference.infer_ms", "ms"),
    ("inference.events_per_page", "count"),
    ("inference.invariants", "count"),
    ("inference.learning_slowdown_x", "x"),
    ("core.present_us.detect", "us"),
    ("core.present_us.checking", "us"),
    ("core.present_us.repairing", "us"),
    ("core.present_us.protected", "us"),
    ("core.present_us.unprotected", "us"),
    ("core.checks_built", "count"),
    ("core.repairs_built", "count"),
    ("core.unsuccessful_repair_runs", "count"),
    ("fleet.new_ms", "ms"),
    ("fleet.distributed_learning_ms", "ms"),
    ("fleet.attack_epoch_ms", "ms"),
    ("fleet.benign_epoch_ms", "ms"),
    ("fleet.churn_epoch_ms", "ms"),
    ("fleet.epochs_to_immunity", "count"),
    ("fleet.patch_applications", "count"),
    ("fleet.envelopes_sent", "count"),
    ("fleet.tier_depth", "count"),
    ("fleet.execution_ms", "ms"),
    ("fleet.manager_ms", "ms"),
    ("fleet.push_ms", "ms"),
    ("sync.checkpoint_us", "us"),
    ("sync.delta_since_us", "us"),
    ("sync.rejoin_delta_us", "us"),
    ("sync.rejoin_full_us", "us"),
    ("sync.join_warm_us", "us"),
    ("sync.rejoin_p50_us", "us"),
    ("sync.rejoin_p99_us", "us"),
    ("sync.bytes_per_op", "B"),
    ("sync.leaf_served_share", "ratio"),
    ("store.snapshot_encode_us", "us"),
    ("store.snapshot_decode_us", "us"),
    ("store.delta_encode_us", "us"),
    ("store.delta_decode_us", "us"),
    ("store.snapshot_bytes", "B"),
    ("store.delta_bytes", "B"),
    ("obs.trace_overhead_pct", "%"),
];

/// Reads one event count out of a run's statistics.
type StatCount = fn(&ExecutionStats) -> u64;

/// Seeded benign pages per probe round (the size of the evaluation suite).
const PROBE_PAGES: usize = 57;
/// Measured rounds over the probe pages, after one warm-up round.
const ROUNDS: usize = 10;
/// Members of the fleet-layer probe.
const PROBE_MEMBERS: usize = 4096;

/// Run every probe for `workload`'s traced run.
pub fn run(workload: &str, seed: u64, checks: &mut Checks) -> Vec<Metric> {
    let browser = Browser::build();
    let pages = inputs::benign_pages(&mut inputs::rng(seed, 4), PROBE_PAGES);
    let mut out = runtime_and_patch(&browser, &pages, checks);
    out.extend(inference(&browser, &pages, checks));
    let mut off = Spans::off();
    out.extend(protect::run(&protect::Params::probe(), seed, 0.0, &mut off, checks).layers);
    if workload != "fleet_churn" {
        let small = fleet::Params::small(PROBE_MEMBERS);
        out.extend(fleet::run(&small, seed, 0.0, &mut off, checks).layers);
    }
    out
}

fn completed(result: &RunResult, checks: &mut Checks) {
    checks.check(result.is_completed(), || {
        format!("benign probe page ended {:?}", result.status)
    });
}

/// µs of one classic run of each page, flushing the cache before each run as
/// `present` does.
fn classic_runs(
    env: &mut ManagedExecutionEnvironment,
    pages: &[Vec<Word>],
    checks: &mut Checks,
) -> Vec<f64> {
    let mut samples = Vec::new();
    for page in pages {
        env.flush_cache();
        let start = Instant::now();
        let result = env.run(page);
        samples.push(us(start.elapsed()));
        completed(&result, checks);
    }
    samples
}

fn runtime_and_patch(browser: &Browser, pages: &[Vec<Word>], checks: &mut Checks) -> Vec<Metric> {
    let configs = [
        ("runtime.run_us.bare", MonitorConfig::bare()),
        ("runtime.run_us.mf", MonitorConfig::memory_firewall_only()),
        (
            "runtime.run_us.mf_ss",
            MonitorConfig::firewall_and_shadow_stack(),
        ),
        (
            "runtime.run_us.mf_hg",
            MonitorConfig::firewall_and_heap_guard(),
        ),
        ("runtime.run_us.full", MonitorConfig::full()),
        ("patch.hooked_run_us", MonitorConfig::full()),
    ];
    let image = &browser.image;
    let mut envs: Vec<ManagedExecutionEnvironment> = configs
        .iter()
        .map(|(_, monitors)| {
            ManagedExecutionEnvironment::new(image.clone(), EnvConfig::with_monitors(*monitors))
        })
        .collect();
    let program = SharedProgram::new(image.clone());
    let full = EnvConfig::with_monitors(MonitorConfig::full());
    let mut shared = ManagedExecutionEnvironment::with_shared(&program, full);

    // The last environment gets a check patch for every model invariant.
    let (model, _) = learn_model(image, &expanded_learning_suite(), MonitorConfig::full());
    let invariants: Vec<Invariant> = model.invariants.iter().cloned().collect();
    let (mut build, mut install, mut remove) = (Vec::new(), Vec::new(), Vec::new());
    let mut handles = Vec::new();
    for patch in checks_for(&invariants) {
        let start = Instant::now();
        let hooks = patch.build_hooks();
        build.push(us(start.elapsed()));
        let start = Instant::now();
        handles.push(install_hooks(&mut envs[5], hooks));
        install.push(us(start.elapsed()));
    }

    // Warm every configuration, then interleave them round by round, so that
    // the ratios and differences below compare runs made at the same time.
    let mut samples = vec![Vec::new(); configs.len()];
    let mut shared_samples = Vec::new();
    for round in 0..=ROUNDS {
        for (k, env) in envs.iter_mut().enumerate() {
            let s = classic_runs(env, pages, checks);
            if round > 0 {
                samples[k].extend(s);
            }
        }
        for page in pages {
            let start = Instant::now();
            let result = shared.run(page);
            let d = start.elapsed();
            completed(&result, checks);
            if round > 0 {
                shared_samples.push(us(d));
            }
        }
    }
    let mut out: Vec<Metric> = configs
        .iter()
        .zip(&samples)
        .map(|((name, _), s)| Metric::median(name, "us", s))
        .collect();
    let (bare, full_us, hooked_us) = (out[0].value, out[4].value, out[5].value);
    out.extend([
        Metric::median("runtime.shared_run_us.full", "us", &shared_samples),
        Metric::value(
            "runtime.monitor_overhead_x",
            "x",
            full_us / bare,
            samples[4].len(),
        ),
        Metric::value(
            "patch.hook_cost_us",
            "us",
            hooked_us - full_us,
            samples[5].len(),
        ),
        Metric::median("patch.build_hooks_us", "us", &build),
        Metric::median("patch.install_us", "us", &install),
    ]);

    // Per-page event counts of the fully monitored configuration; hook
    // invocations with every check installed (the bare application runs none).
    let per_page = |env: &mut ManagedExecutionEnvironment, count: StatCount| {
        let total: u64 = pages
            .iter()
            .map(|page| {
                env.flush_cache();
                count(&env.run(page).stats)
            })
            .sum();
        Metric::value("", "count", total as f64 / pages.len() as f64, pages.len())
    };
    let counts: [(&'static str, usize, StatCount); 4] = [
        ("runtime.instructions_per_page", 4, |s| s.instructions),
        ("runtime.blocks_built_per_page", 4, |s| s.blocks_built),
        ("runtime.monitor_checks_per_page", 4, |s| {
            s.firewall_checks + s.heap_guard_checks + s.shadow_stack_ops
        }),
        ("runtime.hook_invocations_per_page", 5, |s| {
            s.hook_invocations
        }),
    ];
    for (name, env, count) in counts {
        out.push(Metric {
            name,
            ..per_page(&mut envs[env], count)
        });
    }

    for handle in &handles {
        let start = Instant::now();
        let removed = uninstall(&mut envs[5], handle);
        remove.push(us(start.elapsed()));
        checks.check(removed.is_ok(), || format!("uninstall failed: {removed:?}"));
    }
    out.push(Metric::median("patch.uninstall_us", "us", &remove));
    out
}

fn inference(browser: &Browser, pages: &[Vec<Word>], checks: &mut Checks) -> Vec<Metric> {
    let image = &browser.image;
    let config = EnvConfig::with_monitors(MonitorConfig::full());
    let mut traced_env = ManagedExecutionEnvironment::new(image.clone(), config);
    let mut plain_env = ManagedExecutionEnvironment::new(image.clone(), config);
    let mut frontend = LearningFrontend::new(image.clone());
    let (mut traced, mut plain, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for page in pages {
            let start = Instant::now();
            let result = traced_env.run_with_tracer(page, &mut frontend);
            traced.push(us(start.elapsed()));
            completed(&result, checks);
            let start = Instant::now();
            frontend.commit_run();
            commit.push(us(start.elapsed()));
            let start = Instant::now();
            let result = plain_env.run(page);
            plain.push(us(start.elapsed()));
            completed(&result, checks);
        }
    }
    let mut infer = Vec::new();
    let mut invariants = 0;
    for _ in 0..5 {
        let start = Instant::now();
        invariants = frontend.infer().len();
        infer.push(ms(start.elapsed()));
    }
    let traced_us = Metric::median("inference.traced_run_us", "us", &traced);
    let slowdown = traced_us.value / Metric::median("plain", "us", &plain).value;
    vec![
        Metric::value("inference.learning_slowdown_x", "x", slowdown, traced.len()),
        traced_us,
        Metric::median("inference.commit_us", "us", &commit),
        Metric::median("inference.infer_ms", "ms", &infer),
        Metric::value(
            "inference.events_per_page",
            "count",
            frontend.events_processed() as f64 / traced.len() as f64,
            traced.len(),
        ),
        Metric::value("inference.invariants", "count", invariants as f64, 1),
    ]
}
