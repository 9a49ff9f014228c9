//! The changepoint/trend verdict engine.
//!
//! One-shot thresholding against a single committed baseline (`perf_gate`'s
//! tolerance check) has two failure modes: slow drift that stays inside the
//! tolerance every step but compounds across PRs, and a tolerance wide enough
//! (30%) to be deaf to real 15% regressions. This engine replaces it with two
//! rules evaluated against the *trailing history window* of comparable
//! records:
//!
//! 1. **Changepoint** — the fresh median falls outside `k · noise` of the
//!    window median, where `noise` is the larger of the commit-to-commit MAD
//!    (how much the median itself moves between commits), the typical
//!    within-run MAD (round-to-round jitter), and a relative floor (so a
//!    dead-quiet history cannot make the band vanish and alarm on harmless
//!    wobble). Medians and MADs — not means and standard deviations — so a
//!    single outlier commit in the window cannot recenter or inflate the band.
//! 2. **Monotone drift** — the last `drift_len` window medians plus the fresh
//!    one move strictly in the bad direction and lose more than `drift_frac`
//!    in total, even if every individual step is inside the changepoint band.
//!
//! Records captured under a different configuration (flags or core count) are
//! *skipped with a warning*, never compared: a 1-core container median versus
//! a 4-core runner median is not a regression, it is a category error.

use crate::history::History;
use crate::record::PerfRecord;
use crate::stats::{mad, median, MAD_SCALE};

/// Which way is good for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughputs: a *drop* is a regression.
    HigherIsBetter,
    /// Latencies / byte counts: a *rise* is a regression.
    LowerIsBetter,
}

/// Tunables for the verdict engine.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Band half-width in scaled-MAD units (the "sigmas" of the gate).
    pub k: f64,
    /// Relative noise floor: the band is never narrower than
    /// `k · floor_frac · |window median|`.
    pub floor_frac: f64,
    /// Trailing window size (comparable records considered).
    pub window: usize,
    /// Minimum comparable records before the changepoint rule arms; below
    /// this the verdict is [`Outcome::ShortHistory`] (a pass with a note —
    /// the single-baseline tolerance check still guards the bootstrap phase).
    pub min_history: usize,
    /// History medians (plus the fresh one) the drift rule looks at.
    pub drift_len: usize,
    /// Total relative loss over the drift run that fails the gate.
    pub drift_frac: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            k: 4.0,
            floor_frac: 0.02,
            window: 8,
            min_history: 3,
            drift_len: 4,
            drift_frac: 0.10,
        }
    }
}

/// What the engine concluded for one gated key.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Inside the band, no drift.
    Pass,
    /// The fresh median crossed the `k·noise` band edge at `limit`.
    Changepoint {
        /// The band edge the fresh median crossed.
        limit: f64,
    },
    /// Monotone movement in the bad direction across the drift run.
    Drift {
        /// Total relative change over the run (positive = loss).
        total_frac: f64,
        /// Number of strictly-bad steps observed.
        steps: usize,
    },
    /// No comparable history at all — pass with a warning.
    NoHistory,
    /// Fewer comparable records than `min_history` — pass with a note.
    ShortHistory {
        /// Comparable records found.
        have: usize,
    },
    /// The fresh record does not carry the gated key — format drift, a failure.
    MissingMetric,
}

/// The full verdict for one gated key, with everything `--explain` prints.
#[derive(Debug, Clone)]
pub struct KeyVerdict {
    /// The bench the key lives in.
    pub bench: String,
    /// The gated metric key.
    pub key: String,
    /// Which way is good.
    pub direction: Direction,
    /// The fresh multi-round median (None when the key is missing).
    pub fresh_median: Option<f64>,
    /// Per-window-record `(commit, median)`, oldest first.
    pub history: Vec<(String, f64)>,
    /// Median of the window medians (the gate's center), if a window existed.
    pub window_median: Option<f64>,
    /// The noise estimate behind the band, if a window existed.
    pub noise: Option<f64>,
    /// Same-bench records skipped as configuration-mismatched.
    pub skipped_mismatched: usize,
    /// The conclusion.
    pub outcome: Outcome,
}

impl KeyVerdict {
    /// Whether this verdict fails the gate.
    pub fn is_failure(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::Changepoint { .. } | Outcome::Drift { .. } | Outcome::MissingMetric
        )
    }

    /// Which rule fired (or why the key passed), one word for the table.
    pub fn rule(&self) -> &'static str {
        match self.outcome {
            Outcome::Pass => "pass",
            Outcome::Changepoint { .. } => "CHANGEPOINT",
            Outcome::Drift { .. } => "DRIFT",
            Outcome::NoHistory => "no-history",
            Outcome::ShortHistory { .. } => "short-history",
            Outcome::MissingMetric => "MISSING",
        }
    }
}

/// Evaluate one gated key of `fresh` against the trailing comparable window.
pub fn evaluate_key(
    history: &History,
    fresh: &PerfRecord,
    key: &str,
    direction: Direction,
    config: &GateConfig,
) -> KeyVerdict {
    let (window, skipped) = history.window_for(fresh, config.window);
    let mut verdict = KeyVerdict {
        bench: fresh.bench.clone(),
        key: key.to_string(),
        direction,
        fresh_median: fresh.metrics.get(key).map(|s| s.median),
        history: window
            .iter()
            .filter_map(|r| r.metrics.get(key).map(|s| (r.commit.clone(), s.median)))
            .collect(),
        window_median: None,
        noise: None,
        skipped_mismatched: skipped,
        outcome: Outcome::Pass,
    };
    let Some(fresh_median) = verdict.fresh_median else {
        verdict.outcome = Outcome::MissingMetric;
        return verdict;
    };
    if verdict.history.is_empty() {
        verdict.outcome = Outcome::NoHistory;
        return verdict;
    }
    if verdict.history.len() < config.min_history {
        verdict.outcome = Outcome::ShortHistory {
            have: verdict.history.len(),
        };
        return verdict;
    }

    let medians: Vec<f64> = verdict.history.iter().map(|(_, m)| *m).collect();
    let center = median(&medians);
    // Round-to-round jitter: the typical within-record MAD across the window.
    let within: Vec<f64> = window
        .iter()
        .filter_map(|r| r.metrics.get(key).map(|s| s.mad))
        .collect();
    let noise = (MAD_SCALE * mad(&medians))
        .max(MAD_SCALE * median(&within))
        .max(config.floor_frac * center.abs());
    verdict.window_median = Some(center);
    verdict.noise = Some(noise);

    // Rule 1: changepoint against the band edge.
    let limit = match direction {
        Direction::HigherIsBetter => center - config.k * noise,
        Direction::LowerIsBetter => center + config.k * noise,
    };
    let crossed = match direction {
        Direction::HigherIsBetter => fresh_median < limit,
        Direction::LowerIsBetter => fresh_median > limit,
    };
    if crossed {
        verdict.outcome = Outcome::Changepoint { limit };
        return verdict;
    }

    // Rule 2: monotone drift over the last `drift_len` medians + fresh.
    if medians.len() >= config.drift_len {
        let mut run: Vec<f64> = medians[medians.len() - config.drift_len..].to_vec();
        run.push(fresh_median);
        let monotone_bad = run.windows(2).all(|w| match direction {
            Direction::HigherIsBetter => w[1] < w[0],
            Direction::LowerIsBetter => w[1] > w[0],
        });
        let total_frac = match direction {
            Direction::HigherIsBetter => {
                (run[0] - fresh_median) / run[0].abs().max(f64::MIN_POSITIVE)
            }
            Direction::LowerIsBetter => {
                (fresh_median - run[0]) / run[0].abs().max(f64::MIN_POSITIVE)
            }
        };
        if monotone_bad && total_frac > config.drift_frac {
            verdict.outcome = Outcome::Drift {
                total_frac,
                steps: run.len() - 1,
            };
            return verdict;
        }
    }

    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MetricStats;
    use std::collections::BTreeMap;

    /// A record whose key "m" was measured as `samples`.
    fn record(commit: &str, samples: &[f64]) -> PerfRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("m".to_string(), MetricStats::from_samples(samples));
        PerfRecord {
            bench: "bench".to_string(),
            commit: commit.to_string(),
            flags: "f".to_string(),
            cores: 1,
            rounds: samples.len() as u32,
            warmups: 1,
            metrics,
        }
    }

    /// A history whose per-commit medians are `medians` (three samples each,
    /// ±1% jitter, so each record carries a small honest MAD).
    fn history_of(medians: &[f64]) -> History {
        History {
            records: medians
                .iter()
                .enumerate()
                .map(|(i, m)| record(&format!("c{i}"), &[*m, m * 1.01, m * 0.99]))
                .collect(),
        }
    }

    fn gate(history: &History, fresh_samples: &[f64]) -> KeyVerdict {
        evaluate_key(
            history,
            &record("fresh", fresh_samples),
            "m",
            Direction::HigherIsBetter,
            &GateConfig::default(),
        )
    }

    #[test]
    fn flat_series_passes() {
        let history = history_of(&[100.0, 101.0, 99.5, 100.5, 100.0, 99.8]);
        let verdict = gate(&history, &[100.2, 99.9, 100.4]);
        assert_eq!(verdict.outcome, Outcome::Pass);
        assert!(!verdict.is_failure());
    }

    #[test]
    fn step_regression_fires_changepoint() {
        let history = history_of(&[100.0, 101.0, 99.5, 100.5, 100.0, 99.8]);
        // A 15% step: well outside k·noise of a ±1% history.
        let verdict = gate(&history, &[85.0, 85.3, 84.8]);
        assert!(
            matches!(verdict.outcome, Outcome::Changepoint { .. }),
            "{verdict:?}"
        );
        assert!(verdict.is_failure());
    }

    #[test]
    fn improvement_never_fires_for_higher_is_better() {
        let history = history_of(&[100.0, 101.0, 99.5, 100.5]);
        let verdict = gate(&history, &[130.0, 131.0, 129.0]);
        assert_eq!(verdict.outcome, Outcome::Pass);
    }

    #[test]
    fn slow_monotone_drift_fires_even_inside_the_band() {
        // Each step is ~3.5% down — inside a wide band (history of such steps
        // has a large commit-to-commit MAD) — but the run loses >10% total.
        let history = history_of(&[100.0, 96.5, 93.0, 89.5, 86.5]);
        let verdict = gate(&history, &[83.5, 83.6, 83.4]);
        assert!(
            matches!(verdict.outcome, Outcome::Drift { .. }),
            "{verdict:?}"
        );
        if let Outcome::Drift { total_frac, steps } = verdict.outcome {
            assert!(total_frac > 0.10, "lost {total_frac}");
            assert_eq!(steps, 4);
        }
    }

    #[test]
    fn single_outlier_in_history_does_not_fire_on_a_normal_fresh_value() {
        // One bad commit in the window (a CI hiccup): median/MAD absorb it,
        // so a normal fresh value must pass — this is exactly where a
        // mean/stddev gate would have recentered and alarmed.
        let history = history_of(&[100.0, 100.5, 55.0, 99.5, 100.2, 100.0]);
        let verdict = gate(&history, &[100.1, 99.8, 100.3]);
        assert_eq!(verdict.outcome, Outcome::Pass, "{verdict:?}");
    }

    #[test]
    fn noisy_but_flat_series_passes() {
        // ±6% commit-to-commit wobble with no trend: the band scales with the
        // observed MAD, so honest noise is not an alarm.
        let history = history_of(&[100.0, 94.0, 106.0, 97.0, 104.0, 95.0]);
        let verdict = gate(&history, &[93.5, 94.0, 93.0]);
        assert_eq!(verdict.outcome, Outcome::Pass, "{verdict:?}");
    }

    #[test]
    fn short_history_is_a_pass_with_a_note() {
        let history = history_of(&[100.0, 100.5]);
        let verdict = gate(&history, &[50.0]);
        assert_eq!(verdict.outcome, Outcome::ShortHistory { have: 2 });
        assert!(!verdict.is_failure(), "bootstrap phase never alarms");
        let verdict = gate(&History::default(), &[50.0]);
        assert_eq!(verdict.outcome, Outcome::NoHistory);
    }

    #[test]
    fn missing_metric_is_format_drift_and_fails() {
        let history = history_of(&[100.0, 100.0, 100.0]);
        let fresh = PerfRecord {
            metrics: BTreeMap::new(),
            ..record("fresh", &[1.0])
        };
        let verdict = evaluate_key(
            &history,
            &fresh,
            "m",
            Direction::HigherIsBetter,
            &GateConfig::default(),
        );
        assert_eq!(verdict.outcome, Outcome::MissingMetric);
        assert!(verdict.is_failure());
    }

    #[test]
    fn config_mismatched_records_are_skipped_not_compared() {
        // History: three comparable records + five 8-core records with awful
        // numbers. The 8-core records must be warned about, never gated on.
        let mut history = history_of(&[100.0, 100.5, 99.5]);
        for i in 0..5 {
            let mut r = record(&format!("x{i}"), &[10.0]);
            r.cores = 8;
            history.records.push(r);
        }
        let verdict = gate(&history, &[100.0]);
        assert_eq!(verdict.outcome, Outcome::Pass, "{verdict:?}");
        assert_eq!(verdict.skipped_mismatched, 5);
        assert_eq!(verdict.history.len(), 3);
    }

    #[test]
    fn lower_is_better_fails_on_rises() {
        let history = history_of(&[100.0, 101.0, 99.0, 100.0]);
        let up = evaluate_key(
            &history,
            &record("fresh", &[125.0]),
            "m",
            Direction::LowerIsBetter,
            &GateConfig::default(),
        );
        assert!(matches!(up.outcome, Outcome::Changepoint { .. }));
        let down = evaluate_key(
            &history,
            &record("fresh", &[80.0]),
            "m",
            Direction::LowerIsBetter,
            &GateConfig::default(),
        );
        assert_eq!(down.outcome, Outcome::Pass);
    }

    #[test]
    fn injected_15_percent_regression_is_caught_where_legacy_30_percent_gate_sleeps() {
        // The acceptance scenario: a quiet history, then a 15% slowdown. The
        // legacy gate's 30% tolerance would wave it through; the changepoint
        // band (k=4, 2% floor ⇒ ±8%) must not.
        let history = history_of(&[100.0, 100.4, 99.7, 100.1, 99.9]);
        let verdict = gate(&history, &[85.0, 84.9, 85.2]);
        assert!(verdict.is_failure(), "{verdict:?}");
        // And five consecutive no-change rounds must raise zero alarms.
        let mut rolling = history;
        for round in 0..5 {
            let fresh = record(&format!("r{round}"), &[100.2, 99.8, 100.0]);
            let verdict = evaluate_key(
                &rolling,
                &fresh,
                "m",
                Direction::HigherIsBetter,
                &GateConfig::default(),
            );
            assert_eq!(verdict.outcome, Outcome::Pass, "round {round}: {verdict:?}");
            rolling.records.push(fresh);
        }
    }
}
