//! Regenerates the learning-overhead result of Section 4.4.1 — loading the learning
//! pages with the Daikon front end attached is orders of magnitude slower than loading
//! them without learning (the paper reports 5.2 s vs 1600 s, a factor of ≈300) — and
//! tracks the *hot-path* performance of this reproduction's front end: events/sec,
//! ns/event, and a heap-allocation proxy for the tracing path, compared against the
//! retained straightforward `ReferenceFrontend`.
//!
//! Run with: `cargo run --release -p cv-bench --bin learning_overhead [-- --json] [-- --rounds N]`
//!
//! `--json` also writes a `BENCH_learning.json` record (committed alongside
//! `BENCH_fleet.json` so the perf trajectory is tracked over time).
//! `--rounds N` replays the captured stream N times per front end (after one
//! untimed warmup pass each); the flat `events_per_second` keys become medians
//! and a `"spread"` object carries median/min/max/MAD/IQR plus raw samples —
//! the numbers `perf_gate` checks.

use cv_apps::{learning_suite, Browser};
use cv_bench::{cores, json_and_rounds, print_table, write_record};
use cv_inference::{InvariantDatabase, LearningFrontend, ReferenceFrontend};
use cv_isa::Addr;
use cv_perf::json::Value;
use cv_perf::{json_obj, MetricStats};
use cv_runtime::{
    CostModel, EnvConfig, ExecEvent, ExecutionStats, ManagedExecutionEnvironment, Tracer,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A [`System`] wrapper that counts every allocation — the "allocations proxy" used
/// to demonstrate that the tracing path performs no per-event heap allocation.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic increment.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One tracer callback in original delivery order — replaying a captured stream must
/// interleave block discoveries, call observations, and events exactly as the live
/// environment delivered them (procedure discovery is order-sensitive).
enum Step {
    Block(Addr),
    Call(Addr, Addr),
    Event(ExecEvent),
}

/// The captured trace of one run.
struct CapturedRun {
    steps: Vec<Step>,
    completed: bool,
}

#[derive(Default)]
struct CaptureTracer {
    steps: Vec<Step>,
}

impl Tracer for CaptureTracer {
    fn on_block_first_execution(&mut self, block_start: Addr) {
        self.steps.push(Step::Block(block_start));
    }

    fn on_inst(&mut self, event: &ExecEvent) {
        self.steps.push(Step::Event(event.clone()));
    }

    fn on_call(&mut self, call_site: Addr, target: Addr) {
        self.steps.push(Step::Call(call_site, target));
    }
}

/// Execute the workload once, capturing every tracer callback per run.
fn capture(browser: &Browser, pages: &[Vec<u32>]) -> Vec<CapturedRun> {
    let mut env = ManagedExecutionEnvironment::new(browser.image.clone(), EnvConfig::default());
    pages
        .iter()
        .map(|page| {
            let mut tracer = CaptureTracer::default();
            let completed = env.run_with_tracer(page, &mut tracer).is_completed();
            CapturedRun {
                steps: tracer.steps,
                completed,
            }
        })
        .collect()
}

/// The outcome of one front-end pass (live or replayed).
struct Pass {
    /// Wall seconds of the measured loop.
    seconds: f64,
    /// Events committed into the model.
    events: u64,
    /// Heap allocations during the loop.
    allocs: u64,
    /// The inferred database.
    db: InvariantDatabase,
}

/// Replay the captured stream through a front end, timing **only the learning data
/// plane** (on_inst / discovery callbacks / commit) — no guest execution. This is
/// the events/sec measurement: what one traced instruction costs the front end.
fn replay<F, C, D, I>(runs: &[CapturedRun], mut fe: F, commit: C, discard: D, finish: I) -> Pass
where
    C: Fn(&mut F),
    D: Fn(&mut F),
    I: Fn(&F) -> (u64, InvariantDatabase),
    F: Tracer,
{
    let allocs_before = allocations();
    let start = Instant::now();
    for run in runs {
        for step in &run.steps {
            match step {
                Step::Block(b) => fe.on_block_first_execution(*b),
                Step::Call(site, target) => fe.on_call(*site, *target),
                Step::Event(ev) => fe.on_inst(ev),
            }
        }
        if run.completed {
            commit(&mut fe);
        } else {
            discard(&mut fe);
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let allocs = allocations() - allocs_before;
    let (events, db) = finish(&fe);
    Pass {
        seconds,
        events,
        allocs,
        db,
    }
}

/// Replay with the interned/columnar front end.
fn fast_replay(browser: &Browser, runs: &[CapturedRun]) -> Pass {
    replay(
        runs,
        LearningFrontend::new(browser.image.clone()),
        |fe| fe.commit_run(),
        |fe| fe.discard_run(),
        |fe| (fe.events_processed(), fe.infer()),
    )
}

/// Replay with the retained reference front end (the pre-optimization path).
fn reference_replay(browser: &Browser, runs: &[CapturedRun]) -> Pass {
    replay(
        runs,
        ReferenceFrontend::new(browser.image.clone()),
        |fe| fe.commit_run(),
        |fe| fe.discard_run(),
        |fe| (fe.events_processed(), fe.infer()),
    )
}

/// One *live* traced learning pass (guest execution included) with the interned
/// front end — the Section 4.4.1 learning-overhead measurement.
fn live_pass(browser: &Browser, pages: &[Vec<u32>]) -> (f64, ExecutionStats) {
    let mut env = ManagedExecutionEnvironment::new(browser.image.clone(), EnvConfig::default());
    let mut fe = LearningFrontend::new(browser.image.clone());
    let start = Instant::now();
    for page in pages {
        if env.run_with_tracer(page, &mut fe).is_completed() {
            fe.commit_run();
        } else {
            fe.discard_run();
        }
    }
    (start.elapsed().as_secs_f64(), env.cumulative_stats())
}

/// Untimed replay passes per front end before the timed rounds.
const REPLAY_WARMUPS: usize = 1;

/// Hot-path measurement repetitions of the learning suite: enough events that
/// per-suite one-time costs (code-cache warmup, table growth) do not dominate, on a
/// workload identical in shape to the paper's.
const REPEAT: usize = 20;

fn main() {
    let (json, rounds) = json_and_rounds();
    let browser = Browser::build();
    let pages = learning_suite();
    let cost = CostModel::default();

    // The hot-path workload: the learning suite repeated REPEAT times.
    let workload: Vec<Vec<u32>> = std::iter::repeat_with(|| pages.clone())
        .take(REPEAT)
        .flatten()
        .collect();

    // Without learning (the Section 4.4.1 baseline).
    let mut env = ManagedExecutionEnvironment::new(browser.image.clone(), EnvConfig::default());
    let wall_start = Instant::now();
    for page in &workload {
        env.run(page);
    }
    let untraced_wall = wall_start.elapsed().as_secs_f64();
    let untraced = env.cumulative_stats();

    // With learning, live (guest execution + front end).
    let (traced_wall, traced) = live_pass(&browser, &workload);

    // The front-end data plane in isolation: capture the event stream once, then
    // replay it through each front end — REPLAY_WARMUPS untimed passes each (the first
    // pass pays cold caches for everybody), then `rounds` timed passes whose
    // events/sec samples feed the spread statistics. Medians, not fastest-of-N:
    // one lucky round must not set the record.
    let runs = capture(&browser, &workload);
    for _ in 0..REPLAY_WARMUPS {
        fast_replay(&browser, &runs);
    }
    let fast_passes: Vec<Pass> = (0..rounds).map(|_| fast_replay(&browser, &runs)).collect();
    for _ in 0..REPLAY_WARMUPS {
        reference_replay(&browser, &runs);
    }
    let reference_passes: Vec<Pass> = (0..rounds)
        .map(|_| reference_replay(&browser, &runs))
        .collect();
    let fast = fast_passes.last().expect("at least one round");
    let reference = reference_passes.last().expect("at least one round");
    assert_eq!(
        fast.events, reference.events,
        "frontends must process identical events"
    );
    assert_eq!(
        fast.db, reference.db,
        "hot-path parity violated — benchmark is void"
    );
    for pass in fast_passes.iter().chain(&reference_passes) {
        assert_eq!(pass.events, fast.events, "replay must be deterministic");
    }

    let fast_rates: Vec<f64> = fast_passes
        .iter()
        .map(|p| p.events as f64 / p.seconds)
        .collect();
    let reference_rates: Vec<f64> = reference_passes
        .iter()
        .map(|p| p.events as f64 / p.seconds)
        .collect();
    let fast_stats = MetricStats::from_samples(&fast_rates);
    let reference_stats = MetricStats::from_samples(&reference_rates);
    let events_per_sec = fast_stats.median;
    let ns_per_event = 1e9 / events_per_sec;
    let allocs_per_event = fast.allocs as f64 / fast.events as f64;
    let ref_events_per_sec = reference_stats.median;
    let speedup = events_per_sec / ref_events_per_sec;

    let sim_ratio = cost.cost(&traced) / cost.cost(&untraced);
    let wall_ratio = traced_wall / untraced_wall;
    let rows = vec![
        vec![
            "Without learning".to_string(),
            format!("{:.0}", cost.cost(&untraced)),
            format!("{untraced_wall:.4}"),
            "1.0".to_string(),
            "1.0 (5.2 s)".to_string(),
        ],
        vec![
            "With learning (Daikon front end)".to_string(),
            format!("{:.0}", cost.cost(&traced)),
            format!("{traced_wall:.4}"),
            format!("{sim_ratio:.0}x / {wall_ratio:.1}x (sim/wall)"),
            "~300x (1600 s)".to_string(),
        ],
    ];
    print_table(
        &format!(
            "Learning overhead over {} learning pages ({}x suite, {} invariants learned)",
            workload.len(),
            REPEAT,
            fast.db.len()
        ),
        &[
            "Configuration",
            "Simulated cost",
            "Wall clock (s)",
            "Slowdown (measured)",
            "Slowdown (paper)",
        ],
        &rows,
    );
    print_table(
        "Front-end data plane (captured stream replayed; no guest execution)",
        &[
            "front end",
            "events/sec",
            "ns/event",
            "allocs/event",
            "speedup",
        ],
        &[
            vec![
                "reference (HashMap<Variable, _>)".into(),
                format!("{ref_events_per_sec:.0}"),
                format!("{:.1}", 1e9 / ref_events_per_sec),
                format!("{:.4}", reference.allocs as f64 / reference.events as f64),
                "1.00x".into(),
            ],
            vec![
                "interned/columnar".into(),
                format!("{events_per_sec:.0}"),
                format!("{ns_per_event:.1}"),
                format!("{allocs_per_event:.4}"),
                format!("{speedup:.2}x"),
            ],
        ],
    );
    println!(
        "\nLearning statistics: {} trace events, {} variables, {} invariants \
         ({} one-of, {} lower-bound, {} less-than, {} sp-offset), {} duplicates removed, {} pointers.",
        fast.db.stats.events_processed,
        fast.db.stats.variables_observed,
        fast.db.len(),
        fast.db.stats.one_of,
        fast.db.stats.lower_bound,
        fast.db.stats.less_than,
        fast.db.stats.sp_offset,
        fast.db.stats.duplicates_removed,
        fast.db.stats.pointers_classified,
    );

    if json {
        let record = learning_record(
            rounds,
            workload.len(),
            [fast, reference],
            [&fast_stats, &reference_stats],
            [untraced_wall, traced_wall],
        );
        write_record("BENCH_learning.json", &record);
    }
}

/// The `BENCH_learning.json` record, from the last interned and reference
/// replay passes, their events/sec statistics, and the untraced and traced
/// live wall times.
fn learning_record(
    rounds: usize,
    pages: usize,
    [fast, reference]: [&Pass; 2],
    [fast_rate, reference_rate]: [&MetricStats; 2],
    [untraced_wall, traced_wall]: [f64; 2],
) -> Value {
    let per_event = |pass: &Pass| pass.allocs as f64 / pass.events as f64;
    let (fast_eps, reference_eps) = (fast_rate.median, reference_rate.median);
    json_obj! {
        "bench": "learning_overhead",
        "cores": cores(),
        "rounds": rounds,
        "warmups": REPLAY_WARMUPS,
        "pages": pages,
        "events": fast.events,
        "invariants": fast.db.len(),
        "frontend_seconds": fast.events as f64 / fast_eps,
        "events_per_second": fast_eps,
        "ns_per_event": 1e9 / fast_eps,
        "allocations": fast.allocs,
        "allocations_per_event": per_event(fast),
        "reference_seconds": reference.events as f64 / reference_eps,
        "reference_events_per_second": reference_eps,
        "reference_allocations_per_event": per_event(reference),
        "speedup_vs_reference": fast_eps / reference_eps,
        "untraced_seconds": untraced_wall,
        "traced_seconds": traced_wall,
        "slowdown_vs_untraced": traced_wall / untraced_wall,
        "spread": json_obj! {
            "events_per_second": fast_rate,
            "reference_events_per_second": reference_rate,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cv_perf::json;

    #[test]
    fn record_parses_and_carries_every_gated_key() {
        let pass = |seconds: f64| Pass {
            seconds,
            events: 1000,
            allocs: 10,
            db: InvariantDatabase::new(),
        };
        let rates = [
            MetricStats::from_samples(&[9e6, 1e7, 1.1e7]),
            MetricStats::from_samples(&[2e6, 2.5e6, 3e6]),
        ];
        let record = learning_record(
            3,
            1120,
            [&pass(1e-4), &pass(4e-4)],
            [&rates[0], &rates[1]],
            [0.1, 0.12],
        );
        let record = json::parse(&json::to_string(&record)).unwrap();
        let (_, bench, keys) = cv_bench::GATED
            .iter()
            .find(|(file, _, _)| *file == "BENCH_learning.json")
            .unwrap();
        assert_eq!(record.get("bench").unwrap().as_str(), Some(*bench));
        for key in *keys {
            let median = record
                .get("spread")
                .and_then(|s| s.get(key))
                .and_then(|s| s.get("median"));
            assert!(median.and_then(Value::as_f64).is_some(), "{key}");
        }
        // The history signature and comparability fields.
        for key in ["pages", "cores", "rounds", "warmups"] {
            assert!(record.get(key).and_then(Value::as_f64).is_some(), "{key}");
        }
    }
}
