//! `protect_pages`: one `ProtectedApplication` serving a seeded page stream
//! (§4.4.2), after learning on the expanded suite and immunizing against the
//! Red Team exploits.

use crate::inputs::{self, StreamPage};
use crate::spans::Spans;
use crate::stats::{ms, us, BestWindow, Metric, Window};
use crate::{Checks, Pass};
use cv_apps::DONE_MARKER;
use cv_apps::{expanded_learning_suite, red_team_exploits, Browser, Exploit, Reconfiguration};
use cv_bench::MAX_PRESENTATIONS;
use cv_core::{learn_model, AttackTimeline, ClearViewConfig, Phase, ProtectedApplication};
use cv_isa::{Addr, Word};
use cv_runtime::{MonitorConfig, RunStatus};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Sizes of a `protect_pages` pass.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Windows to run at least, whatever the time; each starts with a set-up.
    pub min_windows: usize,
    /// Stream pages per window.
    pub window_pages: usize,
}

impl Params {
    /// The benchmark's sizes: at least twenty set-ups (ten beyond the median
    /// `setup_s`).
    pub fn full() -> Params {
        Params {
            min_windows: 20,
            window_pages: 2_000,
        }
    }

    /// One short window, for the core-layer probe.
    pub fn probe() -> Params {
        Params {
            min_windows: 1,
            window_pages: 500,
        }
    }
}

/// Samples kept per phase: a pass's memory must not grow with its length,
/// since `peak_rss_mb` is an end-to-end metric.
const PHASE_SAMPLES: usize = 50_000;

/// `present` latencies in µs, by the response phase of the page's failure
/// location just before the call (`detect` = no response yet); the first
/// [`PHASE_SAMPLES`] of each phase.
#[derive(Debug, Default)]
pub struct PhaseTimes {
    by_phase: BTreeMap<&'static str, Vec<f64>>,
}

impl PhaseTimes {
    /// Record one `present` of `duration`, made while the location was in `phase`.
    pub fn record(&mut self, phase: Option<Phase>, duration: Duration) {
        let name = match phase {
            None => "core.present_us.detect",
            Some(Phase::Checking) => "core.present_us.checking",
            Some(Phase::Repairing) => "core.present_us.repairing",
            Some(Phase::Protected) => "core.present_us.protected",
            Some(Phase::Unprotected) => "core.present_us.unprotected",
        };
        let samples = self.by_phase.entry(name).or_default();
        if samples.len() < PHASE_SAMPLES {
            samples.push(us(duration));
        }
    }

    /// `core.present_us.<phase>` for every phase that has samples.
    pub fn metrics(&self) -> Vec<Metric> {
        self.by_phase
            .iter()
            .map(|(name, samples)| Metric::median(name, "us", samples))
            .collect()
    }
}

/// `core.checks_built`, `core.repairs_built` and
/// `core.unsuccessful_repair_runs`, summed over `timelines`.
pub fn timeline_counts(timelines: &[AttackTimeline]) -> [f64; 3] {
    timelines.iter().fold([0.0; 3], |[c, r, u], t| {
        [
            c + f64::from(t.check_counts.total()),
            r + f64::from(t.repair_counts.total()),
            u + f64::from(t.unsuccessful_repair_runs),
        ]
    })
}

/// The core-layer count metrics from per-run `timeline_counts`.
pub fn count_metrics(counts: &[[f64; 3]]) -> Vec<Metric> {
    let column = |i: usize| counts.iter().map(|c| c[i]).collect::<Vec<f64>>();
    vec![
        Metric::mean("core.checks_built", "count", &column(0)),
        Metric::mean("core.repairs_built", "count", &column(1)),
        Metric::mean("core.unsuccessful_repair_runs", "count", &column(2)),
    ]
}

/// True if an exploit presentation was contained: blocked by a monitor,
/// crashed, or completed under a repair — never silently compromised.
pub fn contained(status: &RunStatus, blocked: bool) -> bool {
    blocked || !matches!(status, RunStatus::Failure(_))
}

/// The outcome of immunizing against one exploit.
struct Immunization {
    presentations: u32,
    survived: bool,
    elapsed: Duration,
}

/// Present `exploit` until a presentation survives, its response gives up
/// (`Unprotected`), or [`MAX_PRESENTATIONS`] are spent.
fn immunize(
    app: &mut ProtectedApplication,
    exploit: &Exploit,
    locations: &mut BTreeMap<Word, Addr>,
    spans: &mut Spans,
    phases: &mut PhaseTimes,
    checks: &mut Checks,
) -> Immunization {
    let feature = exploit.page()[0];
    let start = Instant::now();
    let mut presentations = 0;
    let mut survived = false;
    while presentations < MAX_PRESENTATIONS && !survived {
        let phase = locations.get(&feature).and_then(|l| app.phase_of(*l));
        if phase == Some(Phase::Unprotected) {
            break;
        }
        let (out, d) = spans.time("present", "core", || app.present(exploit.page()));
        phases.record(phase, d);
        presentations += 1;
        if let RunStatus::Failure(f) = &out.status {
            locations.entry(feature).or_insert(f.location);
        }
        checks.check(contained(&out.status, out.blocked), || {
            format!("exploit {} escaped containment", exploit.bugzilla)
        });
        survived = matches!(out.status, RunStatus::Completed);
    }
    Immunization {
        presentations,
        survived,
        elapsed: start.elapsed(),
    }
}

/// What a page of the stream must do.
fn expected_ok(
    page: &StreamPage,
    exploits: &[Exploit],
    status: &RunStatus,
    blocked: bool,
    rendered: &[Word],
) -> bool {
    match page {
        StreamPage::Benign(_) => {
            matches!(status, RunStatus::Completed) && rendered.last() == Some(&DONE_MARKER)
        }
        StreamPage::Exploit(i)
            if exploits[*i].reconfiguration == Reconfiguration::NotRepairable =>
        {
            blocked
        }
        StreamPage::Exploit(_) => matches!(status, RunStatus::Completed),
    }
}

/// A served application: the set-up's result.
struct Served {
    exploits: Vec<Exploit>,
    app: ProtectedApplication,
    locations: BTreeMap<Word, Addr>,
}

/// Samples kept over a whole pass.
#[derive(Debug, Default)]
struct Samples {
    setup_s: Vec<f64>,
    presentations: Vec<f64>,
    phases: PhaseTimes,
}

/// Build the image, learn on the expanded suite and immunize a fresh
/// application against every Red Team exploit.
fn set_up(spans: &mut Spans, checks: &mut Checks, s: &mut Samples, w: &mut Window) -> Served {
    let start = Instant::now();
    let (browser, _) = spans.time("Browser::build", "apps", Browser::build);
    let (exploits, _) = spans.time("red_team_exploits", "apps", || red_team_exploits(&browser));
    let (model, d) = spans.time("learn_model", "inference", || {
        learn_model(
            &browser.image,
            &expanded_learning_suite(),
            MonitorConfig::full(),
        )
        .0
    });
    w.learn_ms.push(ms(d));
    let mut app = ProtectedApplication::new(
        browser.image.clone(),
        model,
        ClearViewConfig::with_stack_walk(2),
    );
    let mut locations = BTreeMap::new();
    for exploit in &exploits {
        let run = immunize(
            &mut app,
            exploit,
            &mut locations,
            spans,
            &mut s.phases,
            checks,
        );
        let patchable = exploit.reconfiguration != Reconfiguration::NotRepairable;
        checks.check(run.survived == patchable, || {
            format!(
                "immunization against {} ended survived={}",
                exploit.bugzilla, run.survived
            )
        });
        if run.survived {
            w.patch_ms.push(ms(run.elapsed));
            s.presentations.push(f64::from(run.presentations));
        }
    }
    s.setup_s.push(start.elapsed().as_secs_f64());
    Served {
        exploits,
        app,
        locations,
    }
}

/// One `protect_pages` pass: windows of [`Params::window_pages`] stream pages,
/// each served by a freshly set-up application, until the pass has lasted
/// `seconds` and run [`Params::min_windows`] windows.
pub fn run(p: &Params, seed: u64, seconds: f64, spans: &mut Spans, checks: &mut Checks) -> Pass {
    let mut s = Samples::default();
    let mut best = BestWindow::default();
    let mut counts = Vec::new();
    let mut rng = inputs::rng(seed, 1);
    let start = Instant::now();
    while counts.len() < p.min_windows || start.elapsed().as_secs_f64() < seconds {
        let mut window = Window::default();
        let Served {
            exploits,
            mut app,
            locations,
        } = set_up(spans, checks, &mut s, &mut window);
        counts.push(timeline_counts(&app.timelines()));
        let (pages, _) = spans.time("window_pages", "bench", || {
            inputs::window_pages(&mut rng, p.window_pages, exploits.len())
        });
        for page in &pages {
            let words = match page {
                StreamPage::Benign(w) => w.as_slice(),
                StreamPage::Exploit(i) => exploits[*i].page(),
            };
            let phase = locations.get(&words[0]).and_then(|l| app.phase_of(*l));
            let (out, d) = spans.time("present", "core", || app.present(words));
            window.pages += 1;
            window.wall += d;
            window.page_us.push(us(d));
            s.phases.record(phase, d);
            checks.check(
                expected_ok(page, &exploits, &out.status, out.blocked, &out.rendered),
                || format!("stream page {page:?} ended {:?}", out.status),
            );
        }
        best.add(window);
    }

    let mut end_to_end = vec![Metric::median("setup_s", "s", &s.setup_s)];
    end_to_end.extend(best.metrics());
    end_to_end.push(Metric::mean(
        "presentations_to_patch",
        "count",
        &s.presentations,
    ));
    let mut layers = s.phases.metrics();
    layers.extend(count_metrics(&counts));
    Pass { end_to_end, layers }
}
