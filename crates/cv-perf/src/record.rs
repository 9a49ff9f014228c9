//! The versioned per-commit benchmark record.
//!
//! One [`PerfRecord`] is one bench run on one commit: which bench, which
//! commit, what configuration it was captured under (flags signature, core
//! count, rounds, warmups), and the multi-round [`MetricStats`] for every
//! metric the bench measured. Records serialize to a **canonical single JSON
//! line** — keys sorted, numbers in shortest round-trip form — so
//! `encode(decode(line)) == line` for any line this module wrote, and the
//! append-only history file diffs cleanly commit over commit.

use crate::json::{self, Value};
use crate::stats::MetricStats;
use std::collections::BTreeMap;

/// The record schema version. Bump on any shape change; the reader rejects
/// versions it does not know rather than misreading them.
pub const SCHEMA_VERSION: u32 = 1;

/// One bench run on one commit.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    /// The bench that produced this record (`"fleet_scale"`, …).
    pub bench: String,
    /// The commit the measured tree was at (short hash, or `"unknown"`).
    pub commit: String,
    /// Canonical configuration signature (sorted `key=value` pairs joined with
    /// `,`): records with different flags are never compared.
    pub flags: String,
    /// CPU cores visible to the run — a 1-core container and a 4-core CI
    /// runner produce incomparable numbers.
    pub cores: u32,
    /// Measurement rounds behind each metric's stats.
    pub rounds: u32,
    /// Untimed warmup rounds run before measuring.
    pub warmups: u32,
    /// Per-metric multi-round statistics, keyed by metric name.
    pub metrics: BTreeMap<String, MetricStats>,
}

impl MetricStats {
    /// Serialize as a canonical JSON object (keys sorted, shortest
    /// round-trip numbers) — the shape used both inside history records and
    /// in the `"spread"` section of the `BENCH_*.json` files the bench bins
    /// write.
    pub fn to_json(&self) -> String {
        let samples: Vec<String> = self.samples.iter().map(|s| json::fmt_f64(*s)).collect();
        format!(
            "{{\"iqr\":{},\"mad\":{},\"max\":{},\"median\":{},\"min\":{},\"samples\":[{}]}}",
            json::fmt_f64(self.iqr),
            json::fmt_f64(self.mad),
            json::fmt_f64(self.max),
            json::fmt_f64(self.median),
            json::fmt_f64(self.min),
            samples.join(",")
        )
    }

    /// Parse the object form produced by [`MetricStats::to_json`]. `key`
    /// names the metric in error messages.
    pub fn from_json(value: &Value, key: &str) -> Result<MetricStats, String> {
        let num = |field: &str| {
            value
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {key:?}: missing numeric {field:?}"))
        };
        let samples = value
            .get("samples")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("metric {key:?}: missing \"samples\" array"))?
            .iter()
            .map(|s| {
                s.as_f64()
                    .ok_or_else(|| format!("metric {key:?}: non-numeric sample"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        Ok(MetricStats {
            median: num("median")?,
            min: num("min")?,
            max: num("max")?,
            mad: num("mad")?,
            iqr: num("iqr")?,
            samples,
        })
    }
}

impl From<&MetricStats> for Value {
    /// The same object as [`MetricStats::to_json`], as a tree for the
    /// `"spread"` sections of `BENCH_*.json` records.
    fn from(stats: &MetricStats) -> Value {
        Value::obj([
            ("iqr", stats.iqr.into()),
            ("mad", stats.mad.into()),
            ("max", stats.max.into()),
            ("median", stats.median.into()),
            ("min", stats.min.into()),
            ("samples", stats.samples.clone().into()),
        ])
    }
}

impl PerfRecord {
    /// Serialize to the canonical single-line JSON form (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(key, stats)| format!("\"{}\":{}", json::escape(key), stats.to_json()))
            .collect();
        format!(
            "{{\"bench\":\"{}\",\"commit\":\"{}\",\"cores\":{},\"flags\":\"{}\",\"metrics\":{{{}}},\"rounds\":{},\"schema\":{},\"warmups\":{}}}",
            json::escape(&self.bench),
            json::escape(&self.commit),
            self.cores,
            json::escape(&self.flags),
            metrics.join(","),
            self.rounds,
            SCHEMA_VERSION,
            self.warmups,
        )
    }

    /// Parse one history line. Rejects unknown schema versions and malformed
    /// shapes with a description — the history file is a long-lived artifact,
    /// and a misread record is worse than a loud failure.
    pub fn parse(line: &str) -> Result<PerfRecord, String> {
        let value = json::parse(line).map_err(|e| format!("bad record JSON: {e}"))?;
        let schema = value
            .get("schema")
            .and_then(Value::as_f64)
            .ok_or("record has no \"schema\" field")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "unknown schema version {schema} (this reader understands {SCHEMA_VERSION})"
            ));
        }
        let text = |field: &str| {
            value
                .get(field)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record has no string {field:?}"))
        };
        let int = |field: &str| {
            value
                .get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("record has no numeric {field:?}"))
                .map(|n| n as u32)
        };
        let metrics_obj = value
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("record has no \"metrics\" object")?;
        let mut metrics = BTreeMap::new();
        for (key, stats_value) in metrics_obj {
            metrics.insert(key.clone(), MetricStats::from_json(stats_value, key)?);
        }
        Ok(PerfRecord {
            bench: text("bench")?,
            commit: text("commit")?,
            flags: text("flags")?,
            cores: int("cores")?,
            rounds: int("rounds")?,
            warmups: int("warmups")?,
            metrics,
        })
    }

    /// Whether `other` was captured under a comparable configuration: same
    /// bench, same flags signature, same core count. Rounds and warmups may
    /// differ (medians of different round counts are still comparable); flags
    /// or cores differing makes the numbers incommensurable, and the gate
    /// skips such records with a warning instead of raising a false alarm.
    pub fn comparable_with(&self, other: &PerfRecord) -> bool {
        self.bench == other.bench && self.flags == other.flags && self.cores == other.cores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> PerfRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "pages_per_second".to_string(),
            MetricStats::from_samples(&[512737.8, 513709.1, 509000.25]),
        );
        metrics.insert(
            "events_per_second".to_string(),
            MetricStats::from_samples(&[12103565.0]),
        );
        PerfRecord {
            bench: "fleet_scale".to_string(),
            commit: "d978f92".to_string(),
            flags: "epochs=2,nodes=64,workers=2".to_string(),
            cores: 1,
            rounds: 3,
            warmups: 1,
            metrics,
        }
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let line = record().to_json_line();
        assert!(!line.contains('\n'), "one record = one line");
        let parsed = PerfRecord::parse(&line).unwrap();
        assert_eq!(parsed, record());
        assert_eq!(parsed.to_json_line(), line);
    }

    #[test]
    fn stats_value_reads_back_to_the_same_stats() {
        let stats = MetricStats::from_samples(&[512737.8, 513709.0, 509000.25]);
        let text = json::to_string(&Value::from(&stats));
        let back = MetricStats::from_json(&json::parse(&text).unwrap(), "k").unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let line = record()
            .to_json_line()
            .replace("\"schema\":1", "\"schema\":99");
        let err = PerfRecord::parse(&line).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
    }

    #[test]
    fn malformed_records_are_rejected_with_detail() {
        assert!(PerfRecord::parse("not json").is_err());
        assert!(PerfRecord::parse("{}").is_err());
        let no_metrics =
            r#"{"bench":"b","commit":"c","cores":1,"flags":"","rounds":1,"schema":1,"warmups":0}"#;
        assert!(PerfRecord::parse(no_metrics)
            .unwrap_err()
            .contains("metrics"));
    }

    #[test]
    fn comparability_requires_flags_and_cores() {
        let a = record();
        let mut b = record();
        assert!(a.comparable_with(&b));
        b.rounds = 5; // rounds may differ
        assert!(a.comparable_with(&b));
        b.cores = 4;
        assert!(!a.comparable_with(&b));
        b = record();
        b.flags = "epochs=4,nodes=64,workers=2".to_string();
        assert!(!a.comparable_with(&b));
    }
}
