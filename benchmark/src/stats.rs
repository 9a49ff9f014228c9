//! Metrics and the few statistics the benchmark needs. Medians come from
//! `cv_perf`; the only new code is the nearest-rank percentile of a named
//! percentile metric, whose rank the ten-samples-beyond check needs.

use cv_perf::MetricStats;
use std::time::Duration;

/// Samples a named percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// The percentile the value is, for a named percentile.
    pub quantile: Option<f64>,
}

/// Nearest-rank index (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

impl Metric {
    /// A single measured value (a count, a ratio, a mean).
    pub fn value(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            quantile: None,
        }
    }

    /// The median of `samples` (via `cv_perf::MetricStats`), for a metric
    /// that is not named as a percentile.
    pub fn median(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        assert!(!samples.is_empty(), "{name}: no samples");
        let median = MetricStats::from_samples(samples).median;
        Metric::value(name, unit, median, samples.len())
    }

    /// Nearest-rank percentile `q` of `samples`, for a metric named as that
    /// percentile (`_p50`, `_p99`).
    pub fn percentile(name: &'static str, unit: &'static str, samples: &[f64], q: f64) -> Metric {
        assert!(!samples.is_empty(), "{name}: no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Metric {
            quantile: Some(q),
            ..Metric::value(name, unit, sorted[rank(sorted.len(), q) - 1], sorted.len())
        }
    }

    /// The mean of `samples`.
    pub fn mean(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        assert!(!samples.is_empty(), "{name}: no samples");
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Metric::value(name, unit, mean, samples.len())
    }

    /// Samples beyond this metric's percentile (`None` unless it is named as
    /// a percentile).
    pub fn tail_samples(&self) -> Option<usize> {
        self.quantile.map(|q| self.samples - rank(self.samples, q))
    }

    /// Panic unless a named percentile has [`TAIL_SAMPLES`] samples beyond it.
    /// The workloads size themselves so this always holds.
    pub fn require_tail_samples(&self) {
        if let Some(beyond) = self.tail_samples() {
            assert!(
                beyond >= TAIL_SAMPLES,
                "{}: only {beyond} of {} samples beyond the percentile",
                self.name,
                self.samples
            );
        }
    }

    /// One log line: value, unit and sample count.
    pub fn line(&self) -> String {
        format!(
            "{:<34} {:>14.4} {:<8} n={}",
            self.name, self.value, self.unit, self.samples
        )
    }
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The samples of one window of a run: a stretch of consecutive work.
#[derive(Debug, Default)]
pub struct Window {
    /// Pages served in the window.
    pub pages: usize,
    /// Wall time spent serving them.
    pub wall: Duration,
    /// Per-page latencies, µs (every page, or a sample of them).
    pub page_us: Vec<f64>,
    /// Times from first attack to protection, ms.
    pub patch_ms: Vec<f64>,
    /// Learning times, ms.
    pub learn_ms: Vec<f64>,
}

/// The windowed end-to-end metrics, in output order, with whether higher is
/// better.
const WINDOWED: [(&str, bool); 4] = [
    ("pages_per_s", true),
    ("page_p50_us", false),
    ("patch_ms", false),
    ("learn_ms", false),
];

/// The windowed end-to-end metrics of the least-disturbed window, fed one
/// window at a time so that a pass holds only the current window's samples.
///
/// `pages_per_s`, `page_p50_us`, `patch_ms` (the window's median) and
/// `learn_ms` (the window's median) are computed per window that has samples
/// of them, and the best window's value is kept. Interference from other
/// tenants of the machine only ever slows a window down, so the best window
/// tracks the program's own speed far more steadily than a whole-run figure,
/// while a regression slows every window.
#[derive(Debug, Default)]
pub struct BestWindow {
    best: [Option<Metric>; 4],
}

impl BestWindow {
    fn offer(&mut self, i: usize, candidate: Metric) {
        let better = match &self.best[i] {
            None => true,
            Some(b) if WINDOWED[i].1 => candidate.value > b.value,
            Some(b) => candidate.value < b.value,
        };
        if better {
            self.best[i] = Some(candidate);
        }
    }

    /// Account one finished window.
    pub fn add(&mut self, w: Window) {
        if w.pages > 0 {
            let rate = w.pages as f64 / w.wall.as_secs_f64();
            self.offer(0, Metric::value("pages_per_s", "pages/s", rate, w.pages));
        }
        if !w.page_us.is_empty() {
            self.offer(1, Metric::percentile("page_p50_us", "us", &w.page_us, 0.5));
        }
        if !w.patch_ms.is_empty() {
            self.offer(2, Metric::median("patch_ms", "ms", &w.patch_ms));
        }
        if !w.learn_ms.is_empty() {
            self.offer(3, Metric::median("learn_ms", "ms", &w.learn_ms));
        }
    }

    /// The four metrics, in [`WINDOWED`] order.
    pub fn metrics(self) -> Vec<Metric> {
        self.best
            .into_iter()
            .zip(WINDOWED)
            .map(|(m, (name, _))| m.unwrap_or_else(|| panic!("no window measured {name}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_samples_follow_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = Metric::percentile("x", "us", &xs, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.tail_samples(), Some(10));
        let p50 = Metric::percentile("x", "us", &xs[..20], 0.5);
        assert_eq!(p50.tail_samples(), Some(10));
        assert_eq!(Metric::median("x", "us", &xs).tail_samples(), None);
    }

    #[test]
    fn best_window_keeps_each_metric_from_its_best_window() {
        let window = |wall, base: f64, learn: f64| Window {
            pages: 1000,
            wall: Duration::from_secs(wall),
            page_us: (0..1000).map(|i| base + f64::from(i % 10)).collect(),
            patch_ms: vec![base / 100.0; 3],
            learn_ms: vec![learn],
        };
        // The fast window has the best pages, the slow one the best learning.
        let mut best = BestWindow::default();
        best.add(window(2, 200.0, 5.0));
        best.add(window(1, 100.0, 9.0));
        let best = best.metrics();
        let values: Vec<f64> = best.iter().map(|m| m.value).collect();
        assert_eq!(values, [1000.0, 104.0, 1.0, 5.0]);
        assert_eq!(best[3].name, "learn_ms");
    }
}
