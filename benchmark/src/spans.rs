//! Spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Spans::time`], which always returns the
//! call's duration (the workloads need it for their metrics) and, in a traced
//! pass, also keeps a span: name, layer, start and duration. Spans never nest
//! — a closure passed to `time` cannot reach the `Spans` it runs under — so
//! the layer table sums them directly and the remainder of the pass's wall
//! time is its own `unattributed` row.

use cv_obs::{chrome_trace_json, EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// One kept span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: &'static str,
    start: Duration,
    duration: Duration,
}

/// The span recorder of one pass.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that only measures (untraced pass).
    pub fn off() -> Spans {
        Spans {
            origin: Instant::now(),
            keep: false,
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps every span (traced pass).
    pub fn on() -> Spans {
        Spans {
            keep: true,
            ..Spans::off()
        }
    }

    /// Time since the recorder was created.
    pub fn elapsed(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Run `f` as the call `name` into `layer`; return its result and duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let duration = start.elapsed();
        if self.keep {
            self.spans.push(Span {
                name,
                layer,
                start: start - self.origin,
                duration,
            });
        }
        (out, duration)
    }

    /// The per-layer table of a pass that lasted `wall`: each layer's total
    /// span time, then `unattributed`, then the total, which equals `wall`.
    pub fn layer_table(&self, wall: Duration) -> String {
        let mut rows: BTreeMap<(&str, &str), (Duration, usize)> = BTreeMap::new();
        for s in &self.spans {
            let row = rows.entry((s.layer, s.name)).or_default();
            row.0 += s.duration;
            row.1 += 1;
        }
        let mut by_layer: BTreeMap<&str, Duration> = BTreeMap::new();
        for ((layer, _), (d, _)) in &rows {
            *by_layer.entry(layer).or_default() += *d;
        }
        let attributed: Duration = by_layer.values().sum();
        let share = |d: Duration| 100.0 * d.as_secs_f64() / wall.as_secs_f64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>12} {:>7} {:>9}",
            "layer", "call", "ms", "%", "calls"
        );
        for (layer, total) in &by_layer {
            for ((l, name), (d, n)) in rows.iter().filter(|((l, _), _)| l == layer) {
                let _ = writeln!(
                    out,
                    "{:<12} {:<28} {:>12.3} {:>7.2} {:>9}",
                    l,
                    name,
                    d.as_secs_f64() * 1e3,
                    share(*d),
                    n
                );
            }
            let _ = writeln!(
                out,
                "{:<12} {:<28} {:>12.3} {:>7.2}",
                layer,
                "(layer total)",
                total.as_secs_f64() * 1e3,
                share(*total)
            );
        }
        let unattributed = wall.saturating_sub(attributed);
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>12.3} {:>7.2}",
            "unattributed",
            "",
            unattributed.as_secs_f64() * 1e3,
            share(unattributed)
        );
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>12.3} {:>7.2}",
            "total",
            "(wall time)",
            (attributed + unattributed).as_secs_f64() * 1e3,
            share(attributed + unattributed)
        );
        out
    }

    /// The kept spans as Chrome `trace_event` JSON (via `cv_obs`).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans
            .iter()
            .map(|s| TraceEvent {
                name: s.name,
                cat: s.layer,
                kind: EventKind::Span {
                    dur_nanos: s.duration.as_nanos() as u64,
                },
                ts_nanos: s.start.as_nanos() as u64,
                tid: 0,
                args: Vec::new(),
            })
            .collect();
        chrome_trace_json(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_table_rows_sum_to_wall_time() {
        let mut spans = Spans::on();
        spans.time("a", "core", || std::thread::sleep(Duration::from_millis(2)));
        spans.time("b", "fleet", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let wall = spans.elapsed() + Duration::from_millis(3);
        let table = spans.layer_table(wall);
        assert!(table.contains("unattributed"));
        let total_line = table.lines().last().expect("total row");
        let ms: f64 = total_line
            .split_whitespace()
            .nth(3)
            .unwrap()
            .parse()
            .unwrap();
        assert!((ms - wall.as_secs_f64() * 1e3).abs() < 1e-3, "{table}");
        let json = spans.chrome_trace();
        assert!(json.contains("\"name\":\"a\"") && json.contains("\"cat\":\"fleet\""));
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_measures() {
        let mut spans = Spans::off();
        let (v, d) = spans.time("a", "core", || 7);
        assert_eq!(v, 7);
        assert!(d <= spans.elapsed());
        assert!(spans.spans.is_empty());
    }
}
