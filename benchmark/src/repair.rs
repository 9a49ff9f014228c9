//! `repair_red_team`: the single-variant protocol of §4.3.1, repeated. Each
//! iteration takes the ten exploits in a seeded order, learns a model with
//! each exploit's reconfiguration and presents the exploit to a fresh
//! `ProtectedApplication` until a presentation survives.

use crate::inputs;
use crate::protect::{contained, count_metrics, timeline_counts, PhaseTimes};
use crate::spans::Spans;
use crate::stats::{ms, us, BestWindow, Metric, Window};
use crate::{Checks, Pass};
use cv_apps::{red_team_exploits, Browser, Exploit, Reconfiguration};
use cv_bench::{config_for, model_for, MAX_PRESENTATIONS};
use cv_core::ProtectedApplication;
use cv_runtime::RunStatus;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sizes of a `repair_red_team` pass.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Set-ups to run at least, whatever the time.
    pub min_setups: usize,
    /// Presentations to make after each set-up (whole iterations, so at
    /// least this many). Each iteration is a window.
    pub pages_per_setup: usize,
}

impl Params {
    /// The benchmark's sizes.
    pub fn full() -> Params {
        Params {
            min_setups: 3,
            pages_per_setup: 1_000,
        }
    }

    /// One set-up and one measured iteration.
    pub fn probe() -> Params {
        Params {
            min_setups: 1,
            pages_per_setup: 1,
        }
    }
}

/// Per-exploit presentations to the first surviving one (`None` = unpatched).
pub type Counts = BTreeMap<u32, Option<u32>>;

/// Samples kept over a whole pass.
#[derive(Debug, Default)]
struct Samples {
    presentations: Vec<f64>,
    phases: PhaseTimes,
    timeline_sums: Vec<[f64; 3]>,
}

/// One iteration of the protocol over `exploits` in `order`; its timings go
/// to `w`.
fn iteration(
    browser: &Browser,
    exploits: &[Exploit],
    order: Vec<usize>,
    spans: &mut Spans,
    checks: &mut Checks,
    s: &mut Samples,
    w: &mut Window,
) -> Counts {
    let mut counts = Counts::new();
    let mut sums = [0.0; 3];
    for i in order {
        let exploit = &exploits[i];
        let (model, d) = spans.time("learn_model", "inference", || model_for(browser, exploit));
        w.learn_ms.push(ms(d));
        let (mut app, _) = spans.time("ProtectedApplication::new", "core", || {
            ProtectedApplication::new(browser.image.clone(), model, config_for(exploit))
        });
        let first = Instant::now();
        let mut location = None;
        let mut patched = None;
        for n in 1..=MAX_PRESENTATIONS {
            let phase = location.and_then(|l| app.phase_of(l));
            let (out, d) = spans.time("present", "core", || app.present(exploit.page()));
            w.pages += 1;
            w.page_us.push(us(d));
            s.phases.record(phase, d);
            if let RunStatus::Failure(f) = &out.status {
                location.get_or_insert(f.location);
            }
            checks.check(contained(&out.status, out.blocked), || {
                format!("exploit {} escaped containment", exploit.bugzilla)
            });
            if matches!(out.status, RunStatus::Completed) {
                patched = Some(n);
                break;
            }
        }
        let elapsed = first.elapsed();
        w.wall += elapsed;
        if let Some(n) = patched {
            w.patch_ms.push(ms(elapsed));
            s.presentations.push(f64::from(n));
        }
        let [c, r, u] = timeline_counts(&app.timelines());
        sums = [sums[0] + c, sums[1] + r, sums[2] + u];
        counts.insert(exploit.bugzilla, patched);
    }
    s.timeline_sums.push(sums);
    let patched_all = exploits.iter().all(|e| {
        counts[&e.bugzilla].is_some() == (e.reconfiguration != Reconfiguration::NotRepairable)
    });
    checks.check(patched_all, || format!("iteration patched {counts:?}"));
    counts
}

/// One `repair_red_team` pass; also returns each iteration's counts.
pub fn run_counts(
    p: &Params,
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> (Pass, Vec<Counts>) {
    // A set-up builds the image and the exploits, then runs one unmeasured
    // iteration in Red Team order so lazy state is in place.
    let mut setup_times = Vec::new();
    let mut rng = inputs::rng(seed, 2);
    let mut s = Samples::default();
    let mut best = BestWindow::default();
    let mut iterations: Vec<Counts> = Vec::new();
    let start = Instant::now();
    while setup_times.len() < p.min_setups || start.elapsed().as_secs_f64() < seconds {
        let setup = Instant::now();
        let (browser, _) = spans.time("Browser::build", "apps", Browser::build);
        let (exploits, _) = spans.time("red_team_exploits", "apps", || red_team_exploits(&browser));
        let red_team_order = (0..exploits.len()).collect();
        let (warm_up, warm_window) = (&mut Samples::default(), &mut Window::default());
        iteration(
            &browser,
            &exploits,
            red_team_order,
            spans,
            checks,
            warm_up,
            warm_window,
        );
        setup_times.push(setup.elapsed().as_secs_f64());

        let mut pages = 0;
        while pages < p.pages_per_setup {
            let mut window = Window::default();
            let (order, _) = spans.time("exploit_order", "bench", || {
                inputs::shuffled(&mut rng, exploits.len())
            });
            let counts = iteration(
                &browser,
                &exploits,
                order,
                spans,
                checks,
                &mut s,
                &mut window,
            );
            if let Some(first) = iterations.first() {
                checks.check(*first == counts, || {
                    format!("presentation counts {counts:?} differ from the first iteration's {first:?}")
                });
            }
            iterations.push(counts);
            pages += window.pages;
            best.add(window);
        }
    }

    let mut end_to_end = vec![Metric::median("setup_s", "s", &setup_times)];
    end_to_end.extend(best.metrics());
    end_to_end.push(Metric::mean(
        "presentations_to_patch",
        "count",
        &s.presentations,
    ));
    let mut layers = s.phases.metrics();
    layers.extend(count_metrics(&s.timeline_sums));
    let pass = Pass { end_to_end, layers };
    (pass, iterations)
}

/// One `repair_red_team` pass.
pub fn run(p: &Params, seed: u64, seconds: f64, spans: &mut Spans, checks: &mut Checks) -> Pass {
    run_counts(p, seed, seconds, spans, checks).0
}
