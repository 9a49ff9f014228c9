//! The perf gate: every regression check over the `BENCH_*.json` records the
//! bench bins write. A check runs only when its input is named:
//!
//! - **tolerance** (`--baseline DIR`): each gated median may drop at most
//!   `--tolerance` below DIR's copy — CI's floor against the committed
//!   records, and its traced-vs-untraced overhead guard;
//! - **caps** (`--cap FILE:KEY:MAX`): every occurrence of KEY in the fresh
//!   FILE must be `<= MAX` — budgets for lower-is-better resource counters;
//! - **changepoint** (`--history PATH`): each fresh multi-round median is
//!   judged against the trailing window of comparable records (same bench,
//!   flags signature, and core count) in the append-only history, by the
//!   `k · noise` changepoint band and the monotone-drift rule of
//!   [`cv_perf::gate`]. Incomparable records are skipped, never compared.
//!
//! Both comparative checks read the same numbers: the `"median"` of each
//! [`GATED`] key's `"spread"` entry. A gated or capped key that is missing, or
//! occurs a different number of times in the two copies, fails — the record
//! shape is part of what the gate pins. A `null` or non-numeric occurrence is
//! noted, never silently dropped.
//!
//! Run with: `cargo run --release -p cv-bench --bin perf_gate -- [OPTIONS]`
//!
//! Options:
//!   --fresh DIR         directory holding the fresh records (default `.`)
//!   --only FILE         run the comparative checks on FILE's gated keys only
//!   --baseline DIR      tolerance check against the records in DIR
//!   --tolerance F       allowed fractional drop, 0..1 (default 0.30)
//!   --cap FILE:KEY:MAX  (repeatable) absolute budget on the fresh FILE
//!   --history PATH      changepoint check against the history file PATH
//!   --append            append the fresh records to the history after a
//!                       clean run (never after a failure: a regressed run
//!                       must not quietly become the new normal)
//!   --commit HASH       commit stamped into history records (default:
//!                       `git rev-parse --short HEAD`, else `"unknown"`)
//!   --explain           print each changepoint verdict in full: the window
//!                       (commit → median), noise band, fresh median, rule
//!   --k F               changepoint band half-width in noise units (default 4)
//!   --window N          trailing window size (default 8)
//!   --min-history N     comparable records before verdicts fire (default 3)

use cv_bench::{arg, GATED};
use cv_perf::json::{self, Value};
use cv_perf::{
    evaluate_key, Direction, GateConfig, History, KeyVerdict, MetricStats, Outcome, PerfRecord,
};
use std::path::Path;
use std::process::ExitCode;

/// Every numeric occurrence of one key, plus a note for each occurrence that
/// was skipped (`null`, or a non-number like the string `"NaN"`).
#[derive(Debug, Default, PartialEq)]
struct Extracted {
    values: Vec<f64>,
    notes: Vec<String>,
}

/// Every value keyed by `key` anywhere in `value`, in document order (array
/// rows in order, object entries in key order). A key that never occurs
/// yields nothing and no note: absence is a shape question for the caller.
fn extract(value: &Value, key: &str) -> Extracted {
    fn walk(value: &Value, key: &str, out: &mut Extracted) {
        match value {
            Value::Obj(map) => {
                for (k, v) in map {
                    if k != key {
                        walk(v, key, out);
                        continue;
                    }
                    let occurrence = out.values.len() + out.notes.len() + 1;
                    match v {
                        Value::Num(n) => out.values.push(*n),
                        Value::Null => out
                            .notes
                            .push(format!("{key} occurrence {occurrence} is null — skipped")),
                        other => out.notes.push(format!(
                            "{key} occurrence {occurrence} is not a JSON number ({:.16}) — skipped",
                            json::to_string(other).trim()
                        )),
                    }
                }
            }
            Value::Arr(items) => items.iter().for_each(|item| walk(item, key, out)),
            _ => {}
        }
    }
    let mut out = Extracted::default();
    walk(value, key, &mut out);
    out
}

/// The gated reading of `key` in a record: the median of its `"spread"` entry.
fn spread_median(record: &Value, key: &str) -> Extracted {
    let stats = record.get("spread").and_then(|spread| spread.get(key));
    stats.map_or_else(Extracted::default, |stats| extract(stats, "median"))
}

/// One check that failed.
#[derive(Debug, PartialEq)]
enum Violation {
    /// The fresh value dropped more than the tolerance below the baseline.
    Regression {
        metric: String,
        baseline: f64,
        fresh: f64,
    },
    /// A checked metric is missing, or its occurrence count changed.
    Shape { metric: String, detail: String },
    /// A capped metric exceeded its absolute budget.
    Cap {
        metric: String,
        cap: f64,
        fresh: f64,
    },
    /// The changepoint check failed a key (changepoint, drift, or missing).
    Verdict { metric: String, rule: &'static str },
}

/// The bound every occurrence of one checked metric must hold.
#[derive(Clone, Copy)]
enum Bound<'a> {
    /// Row by row, at most `tolerance` below the baseline's occurrence.
    Floor { baseline: &'a [f64], tolerance: f64 },
    /// Every occurrence at most the cap.
    Cap(f64),
}

/// Check every fresh occurrence of `metric` against `bound`, returning one
/// report line per row. An absent metric, or a baseline with a different
/// number of occurrences, is format drift, not a pass.
fn check_metric(
    metric: &str,
    fresh: &[f64],
    bound: Bound,
    violations: &mut Vec<Violation>,
) -> Vec<String> {
    let drift = match bound {
        Bound::Floor { baseline, .. } if baseline.is_empty() || baseline.len() != fresh.len() => {
            Some(format!(
                "baseline has {} occurrence(s), fresh has {}",
                baseline.len(),
                fresh.len()
            ))
        }
        Bound::Cap(_) if fresh.is_empty() => {
            Some("capped metric absent from fresh record".to_string())
        }
        _ => None,
    };
    if let Some(detail) = drift {
        violations.push(Violation::Shape {
            metric: metric.to_string(),
            detail,
        });
        return Vec::new();
    }
    let mut lines = Vec::new();
    for (row, &f) in fresh.iter().enumerate() {
        let metric = match fresh.len() {
            1 => metric.to_string(),
            _ => format!("{metric}[{row}]"),
        };
        let (ok, detail, violation) = match bound {
            Bound::Floor {
                baseline,
                tolerance,
            } => {
                let b = baseline[row];
                let detail = format!(
                    "baseline {b:.1}, fresh {f:.1} ({:+.1}%)",
                    (f / b - 1.0) * 100.0
                );
                let violation = Violation::Regression {
                    metric: metric.clone(),
                    baseline: b,
                    fresh: f,
                };
                (f >= b * (1.0 - tolerance), detail, violation)
            }
            Bound::Cap(cap) => {
                let violation = Violation::Cap {
                    metric: metric.clone(),
                    cap,
                    fresh: f,
                };
                (f <= cap, format!("fresh {f:.1} vs cap {cap:.1}"), violation)
            }
        };
        lines.push(format!(
            "  {} {metric}: {detail}",
            if ok { "ok  " } else { "FAIL" }
        ));
        if !ok {
            violations.push(violation);
        }
    }
    lines
}

/// Build the canonical flags signature for one bench record: the sorted
/// `key=value` pairs of every configuration axis that makes runs
/// incomparable. Flags capture *workload shape*; `cores` rides separately.
fn flags_signature(bench: &str, value: &Value) -> Result<String, String> {
    let field = |name: &str| {
        value
            .get(name)
            .and_then(|v| {
                v.as_f64()
                    .map(|n| (n as u64).to_string())
                    .or(v.as_str().map(str::to_string))
            })
            .ok_or_else(|| format!("{bench}: record has no {name:?}"))
    };
    let mut flags = match bench {
        "fleet_scale" => {
            let mut flags = vec![
                format!("epochs={}", field("epochs")?),
                format!("nodes={}", field("nodes")?),
                format!("workers={}", field("workers")?),
            ];
            // Axes that change throughput join the signature only off their
            // default, so default runs keep the signature their history has.
            for (axis, default) in [("transport", "inprocess"), ("tree_fanout", "0")] {
                let setting = field(axis)?;
                if setting != default {
                    flags.push(format!("{axis}={setting}"));
                }
            }
            flags
        }
        "learning_overhead" => vec![format!("pages={}", field("pages")?)],
        "snapshot" => {
            // One size per `encode_mb_s_<size>` spread key, smallest first.
            let spread = value.get("spread").and_then(Value::as_obj);
            let mut sizes: Vec<&str> = spread
                .into_iter()
                .flat_map(|spread| spread.keys())
                .filter_map(|key| key.strip_prefix("encode_mb_s_"))
                .collect();
            if sizes.is_empty() {
                return Err(format!("{bench}: no encode_mb_s_<size> spread keys"));
            }
            sizes.sort_by_key(|size| size.trim_end_matches('k').parse::<u64>().ok());
            vec![format!("sizes={}", sizes.join(","))]
        }
        other => return Err(format!("no flags signature rule for bench {other:?}")),
    };
    flags.sort();
    Ok(flags.join(","))
}

/// Convert one fresh `BENCH_*.json` record (with a `"spread"` section) into a
/// [`PerfRecord`] stamped with `commit`.
fn record_from_bench(
    value: &Value,
    file: &str,
    bench: &str,
    commit: &str,
) -> Result<PerfRecord, String> {
    let got_bench = value.get("bench").and_then(Value::as_str).unwrap_or("none");
    if got_bench != bench {
        return Err(format!(
            "{file}: expected bench {bench:?}, found {got_bench:?} — was this file \
             overwritten by a different mode (e.g. --chaos)?"
        ));
    }
    let old_format = |what: String| {
        format!("{file}: no {what} — re-run the bench with --rounds (old-format records cannot be gated)")
    };
    let int = |field: &str| {
        let n = value.get(field).and_then(Value::as_f64);
        n.map(|n| n as u32)
            .ok_or_else(|| old_format(format!("numeric {field:?}")))
    };
    let spread = value.get("spread").and_then(Value::as_obj);
    let spread = spread.ok_or_else(|| old_format("\"spread\" object".to_string()))?;
    Ok(PerfRecord {
        bench: bench.to_string(),
        commit: commit.to_string(),
        flags: flags_signature(bench, value)?,
        cores: int("cores")?,
        rounds: int("rounds")?,
        warmups: int("warmups")?,
        metrics: spread
            .iter()
            .map(|(key, stats)| Ok((key.clone(), MetricStats::from_json(stats, key)?)))
            .collect::<Result<_, String>>()?,
    })
}

/// Judge every fresh record's gated keys against the history. Returns all
/// verdicts in table order.
fn gate(history: &History, fresh: &[(&str, PerfRecord)], config: &GateConfig) -> Vec<KeyVerdict> {
    let mut verdicts = Vec::new();
    for (file, record) in fresh {
        let keys = GATED
            .iter()
            .find(|(f, _, _)| f == file)
            .map_or(&[][..], |(_, _, keys)| keys);
        for key in keys {
            verdicts.push(evaluate_key(
                history,
                record,
                key,
                Direction::HigherIsBetter,
                config,
            ));
        }
    }
    verdicts
}

/// Render one verdict as the `--explain` block: what the gate saw and why it
/// decided what it decided.
fn explain(verdict: &KeyVerdict) -> String {
    let mut out = format!(
        "{} :: {} [{}]\n",
        verdict.bench,
        verdict.key,
        verdict.rule()
    );
    for (commit, median) in &verdict.history {
        out.push_str(&format!("    history {commit:>10}  {median:14.1}\n"));
    }
    if verdict.skipped_mismatched > 0 {
        out.push_str(&format!(
            "    ({} history record(s) skipped: different flags/cores)\n",
            verdict.skipped_mismatched
        ));
    }
    if let (Some(center), Some(noise)) = (verdict.window_median, verdict.noise) {
        out.push_str(&format!(
            "    window median {center:14.1}   noise {noise:10.1}\n"
        ));
    }
    if let Some(fresh) = verdict.fresh_median {
        out.push_str(&format!("    fresh  median {fresh:14.1}\n"));
    }
    out.push_str(&match &verdict.outcome {
        Outcome::Changepoint { limit } => {
            format!("    CHANGEPOINT: fresh median crossed the limit {limit:.1}\n")
        }
        Outcome::Drift { total_frac, steps } => format!(
            "    DRIFT: {steps} consecutive worsening steps, {:.1}% total\n",
            total_frac * 100.0
        ),
        Outcome::NoHistory => "    no comparable history yet — pass (seeding)\n".to_string(),
        Outcome::ShortHistory { have } => {
            format!("    only {have} comparable record(s) — pass until min-history reached\n")
        }
        Outcome::MissingMetric => {
            "    MISSING: gated key absent from the fresh spread\n".to_string()
        }
        Outcome::Pass => String::new(),
    });
    out
}

/// `git rev-parse --short HEAD`, or `"unknown"` outside a repo.
fn head_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Read and parse `dir/file`.
fn read_record(dir: &str, file: &str) -> Result<Value, String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The parsed command line; `None` is the documented default.
#[derive(Default)]
struct Options {
    fresh: Option<String>,
    only: Option<String>,
    baseline: Option<String>,
    tolerance: Option<f64>,
    caps: Vec<(String, String, f64)>,
    history: Option<String>,
    append: bool,
    commit: Option<String>,
    explain: bool,
    config: GateConfig,
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options::default();
    while let Some(name) = args.next() {
        let args = &mut args;
        match name.as_str() {
            "--fresh" => opts.fresh = Some(arg(&name, args)),
            "--only" => opts.only = Some(arg(&name, args)),
            "--baseline" => opts.baseline = Some(arg(&name, args)),
            "--tolerance" => opts.tolerance = Some(arg(&name, args)),
            "--cap" => {
                let spec: String = arg(&name, args);
                let mut parts = spec.splitn(3, ':').map(str::to_string);
                let (Some(file), Some(key), Some(max)) = (parts.next(), parts.next(), parts.next())
                else {
                    panic!("--cap requires FILE:KEY:MAX, got {spec:?}");
                };
                opts.caps
                    .push((file, key, arg(&name, &mut std::iter::once(max))));
            }
            "--history" => opts.history = Some(arg(&name, args)),
            "--append" => opts.append = true,
            "--commit" => opts.commit = Some(arg(&name, args)),
            "--explain" => opts.explain = true,
            "--k" => opts.config.k = arg(&name, args),
            "--window" => opts.config.window = arg(&name, args),
            "--min-history" => opts.config.min_history = arg(&name, args),
            other => panic!("unknown option {other}"),
        }
    }
    let tolerance = opts.tolerance.unwrap_or_default();
    assert!(
        (0.0..1.0).contains(&tolerance),
        "--tolerance must be in 0..1"
    );
    opts
}

/// Run every check `opts` names; `Err` when the run itself is malformed
/// (nothing to check, an unreadable record), otherwise every violation found.
fn run(opts: &Options) -> Result<Vec<Violation>, String> {
    let only = |file: &str| opts.only.as_deref().is_none_or(|only| only == file);
    let files: Vec<_> = GATED.iter().filter(|(file, _, _)| only(file)).collect();
    let comparative = opts.baseline.is_some() || opts.history.is_some();
    if let (true, true, Some(only)) = (comparative, files.is_empty(), &opts.only) {
        return Err(format!("--only {only} matches no gated file"));
    }
    if !comparative && opts.caps.is_empty() {
        return Err("nothing to check: name --baseline, --history, or --cap".to_string());
    }
    if opts.append && opts.history.is_none() {
        return Err("--append requires --history".to_string());
    }
    let (fresh_dir, tolerance) = (
        opts.fresh.as_deref().unwrap_or("."),
        opts.tolerance.unwrap_or(0.30),
    );
    let print = |lines: Vec<String>| lines.iter().for_each(|line| println!("{line}"));
    let notes = |found: &Extracted| found.notes.iter().map(|n| format!("  note: {n}")).collect();

    let mut violations = Vec::new();
    if let Some(dir) = &opts.baseline {
        for (file, _, keys) in &files {
            let (baseline, fresh) = (read_record(dir, file)?, read_record(fresh_dir, file)?);
            println!("{file}: tolerance {:.0}% against {dir}", tolerance * 100.0);
            for key in *keys {
                let (b, f) = (spread_median(&baseline, key), spread_median(&fresh, key));
                print(notes(&b));
                print(notes(&f));
                let bound = Bound::Floor {
                    baseline: &b.values,
                    tolerance,
                };
                let metric = format!("{file}::{key}");
                print(check_metric(&metric, &f.values, bound, &mut violations));
            }
        }
    }
    for (file, key, cap) in &opts.caps {
        let fresh = extract(&read_record(fresh_dir, file)?, key);
        println!("{file}: cap");
        print(notes(&fresh));
        let metric = format!("{file}::{key}");
        print(check_metric(
            &metric,
            &fresh.values,
            Bound::Cap(*cap),
            &mut violations,
        ));
    }
    let Some(path) = &opts.history else {
        return Ok(violations);
    };

    let history = History::load(Path::new(path))?;
    let commit = opts.commit.clone().unwrap_or_else(head_commit);
    let mut fresh = Vec::new();
    for (file, bench, _) in &files {
        let value = read_record(fresh_dir, file)?;
        fresh.push((*file, record_from_bench(&value, file, bench, &commit)?));
    }
    println!(
        "history '{path}' ({} record(s)), commit {commit}:",
        history.records.len()
    );
    for verdict in gate(&history, &fresh, &opts.config) {
        let failed = verdict.is_failure();
        if opts.explain {
            println!("{}", explain(&verdict));
        } else {
            let median = verdict
                .fresh_median
                .map_or("absent".to_string(), |m| format!("{m:.1}"));
            let mark = if failed { "FAIL" } else { "ok  " };
            let (bench, key, rule) = (&verdict.bench, &verdict.key, verdict.rule());
            println!("  {mark} {bench} :: {key} [{rule}] (fresh {median})");
        }
        if failed {
            let metric = format!("{}::{}", verdict.bench, verdict.key);
            violations.push(Violation::Verdict {
                metric,
                rule: verdict.rule(),
            });
        }
    }
    if opts.append && violations.is_empty() {
        let records: Vec<PerfRecord> = fresh.into_iter().map(|(_, r)| r).collect();
        History::append(Path::new(path), &records)?;
        println!(
            "appended {} record(s) for commit {commit} to {path}",
            records.len()
        );
    } else if opts.append {
        println!("records NOT appended: the run has violations");
    }
    Ok(violations)
}

fn main() -> ExitCode {
    match run(&parse_options(std::env::args().skip(1))) {
        Err(message) => eprintln!("perf_gate error: {message}"),
        Ok(violations) if violations.is_empty() => {
            println!("perf_gate: every check passed");
            return ExitCode::SUCCESS;
        }
        Ok(violations) => {
            eprintln!("perf_gate: {} violation(s):", violations.len());
            violations.iter().for_each(|v| eprintln!("  {v:?}"));
        }
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = r#"{
  "bench": "snapshot",
  "codec": [
    { "invariants": 1001, "encode_mb_s": 87.82, "decode_mb_s": 150.57 },
    { "invariants": 10002, "encode_mb_s": 65.98, "decode_mb_s": 149.68 }
  ],
  "events_per_second": 11041893.6,
  "negative": -3.5
}"#;

    fn gate_metric(
        metric: &str,
        baseline: &[f64],
        fresh: &[f64],
        tolerance: f64,
        violations: &mut Vec<Violation>,
    ) -> Vec<String> {
        check_metric(
            metric,
            fresh,
            Bound::Floor {
                baseline,
                tolerance,
            },
            violations,
        )
    }

    fn cap_metric(metric: &str, cap: f64, fresh: &[f64], v: &mut Vec<Violation>) -> Vec<String> {
        check_metric(metric, fresh, Bound::Cap(cap), v)
    }

    fn parsed(text: &str) -> Value {
        json::parse(text).unwrap()
    }

    /// A fleet record as `fleet_scale --json --rounds 3` writes it, at the CI
    /// flags, with both gated rates around `rate`.
    fn fleet_bench_value(rate: f64) -> Value {
        let stats = MetricStats::from_samples(&[rate * 0.99, rate, rate * 1.01]);
        Value::obj([
            ("bench", "fleet_scale".into()),
            ("nodes", 64usize.into()),
            ("workers", 2usize.into()),
            ("cores", 1usize.into()),
            ("epochs", 2usize.into()),
            ("rounds", 3usize.into()),
            ("warmups", 1usize.into()),
            ("transport", "inprocess".into()),
            ("tree_fanout", 0usize.into()),
            (
                "spread",
                Value::obj([
                    ("pages_per_second_sequential", (&stats).into()),
                    ("pages_per_second_parallel", (&stats).into()),
                ]),
            ),
        ])
    }

    /// A record holding only a spread section with the given medians.
    fn spread_record(medians: &[(&str, f64)]) -> String {
        let spread = medians
            .iter()
            .map(|(key, median)| (*key, (&MetricStats::from_samples(&[*median])).into()));
        json::to_string(&Value::obj([("spread", Value::obj(spread))]))
    }

    /// A fresh scratch directory for one test's records.
    fn scratch_dir(name: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir.to_str().unwrap().to_string()
    }

    fn cap(file: &str, key: &str, max: f64) -> (String, String, f64) {
        (file.to_string(), key.to_string(), max)
    }

    #[test]
    fn extract_finds_every_occurrence_in_order() {
        let record = parsed(RECORD);
        assert_eq!(extract(&record, "encode_mb_s").values, vec![87.82, 65.98]);
        assert_eq!(
            extract(&record, "events_per_second").values,
            vec![11041893.6]
        );
        assert_eq!(extract(&record, "negative").values, vec![-3.5]);
        // A key that prefixes another must not match it.
        assert!(extract(&record, "encode_mb").values.is_empty());
    }

    #[test]
    fn extract_skips_null_with_a_note() {
        let record = parsed(r#"{"manager_parallel_speedup": null, "pages_per_second": 100.0}"#);
        let got = extract(&record, "manager_parallel_speedup");
        assert!(got.values.is_empty(), "null is not a numeric occurrence");
        assert_eq!(got.notes.len(), 1, "…but it is noted, never silent");
        assert!(got.notes[0].contains("null"), "{:?}", got.notes);
        // A null row does not hide later numeric ones.
        let record = parsed(r#"{"rows": [{"speedup": null}, {"speedup": 2.5}]}"#);
        let got = extract(&record, "speedup");
        assert_eq!(got.values, vec![2.5]);
        assert_eq!(got.notes.len(), 1);
    }

    #[test]
    fn extract_reports_missing_key_as_empty_without_notes() {
        let got = extract(&parsed(RECORD), "missing_key");
        assert!(got.values.is_empty());
        assert!(
            got.notes.is_empty(),
            "a key that never appears is a shape question for the gate, not a skip"
        );
        // …and gate_metric turns that emptiness into a Shape violation.
        let mut violations = Vec::new();
        gate_metric("f::missing_key", &got.values, &[1.0], 0.30, &mut violations);
        assert!(matches!(&violations[0], Violation::Shape { .. }));
        // A gated key missing from a record's spread reads the same way.
        assert_eq!(
            spread_median(&parsed(RECORD), "events_per_second"),
            Extracted::default()
        );
    }

    #[test]
    fn extract_skips_nan_string_with_a_note() {
        let record = parsed(r#"{"rows": [{"rate": "NaN"}, {"rate": 5.0}]}"#);
        let got = extract(&record, "rate");
        assert_eq!(got.values, vec![5.0], "the string \"NaN\" is not a number");
        assert_eq!(got.notes.len(), 1);
        assert!(
            got.notes[0].contains("not a JSON number"),
            "{:?}",
            got.notes
        );
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let mut violations = Vec::new();
        gate_metric("m", &[100.0], &[71.0], 0.30, &mut violations);
        assert!(violations.is_empty(), "a 29% drop is within 30% tolerance");
        gate_metric("m", &[100.0], &[69.0], 0.30, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::Regression { fresh, .. } if *fresh == 69.0
        ));
        // Improvements always pass.
        violations.clear();
        gate_metric("m", &[100.0], &[250.0], 0.30, &mut violations);
        assert!(violations.is_empty());
    }

    #[test]
    fn gate_fails_on_shape_drift() {
        let mut violations = Vec::new();
        gate_metric("m", &[100.0, 90.0], &[100.0], 0.30, &mut violations);
        assert!(matches!(&violations[0], Violation::Shape { .. }));
        violations.clear();
        gate_metric("m", &[], &[], 0.30, &mut violations);
        assert!(
            matches!(&violations[0], Violation::Shape { .. }),
            "a gated metric absent from both copies is drift, not a pass"
        );
    }

    #[test]
    fn only_filter_restricts_gating_to_one_file() {
        let dir = scratch_dir("perf_gate_only_test");
        std::fs::write(
            format!("{dir}/BENCH_fleet.json"),
            spread_record(&[
                ("pages_per_second_sequential", 100.0),
                ("pages_per_second_parallel", 200.0),
            ]),
        )
        .unwrap();
        let opts = |only: Option<&str>| Options {
            fresh: Some(dir.clone()),
            baseline: Some(dir.clone()),
            tolerance: Some(0.05),
            only: only.map(str::to_string),
            ..Options::default()
        };
        // Only the fleet record exists, so an unfiltered run fails on the
        // missing learning/snapshot files — but `--only BENCH_fleet.json` gates
        // cleanly against the one file that is there.
        assert!(run(&opts(None)).is_err());
        let violations = run(&opts(Some("BENCH_fleet.json"))).unwrap();
        assert!(violations.is_empty(), "identical records gate clean");
        // A filter that matches nothing is an error, not a silent pass.
        assert!(run(&opts(Some("BENCH_nope.json"))).is_err());
    }

    #[test]
    fn caps_only_skips_baselines_entirely() {
        let dir = scratch_dir("perf_gate_caps_only_test");
        // Only a chaos record exists — no baseline files at all. Caps alone
        // check their budgets without touching the gated keys.
        std::fs::write(
            format!("{dir}/BENCH_fleet.json"),
            "{\"bench\": \"fleet_scale_chaos\", \"retransmits\": 894, \"envelopes_dropped\": 114}\n",
        )
        .unwrap();
        let opts = |caps: Vec<(String, String, f64)>| Options {
            fresh: Some(dir.clone()),
            caps,
            ..Options::default()
        };
        let violations = run(&opts(vec![
            cap("BENCH_fleet.json", "retransmits", 2000.0),
            cap("BENCH_fleet.json", "envelopes_dropped", 500.0),
        ]))
        .unwrap();
        assert!(violations.is_empty());
        // Over budget fails; a run that names no check is an error, not a pass.
        let violations = run(&opts(vec![cap("BENCH_fleet.json", "retransmits", 100.0)])).unwrap();
        assert!(matches!(&violations[0], Violation::Cap { .. }));
        assert!(run(&opts(Vec::new())).is_err());
    }

    #[test]
    fn caps_bound_every_occurrence_and_require_presence() {
        let mut violations = Vec::new();
        // All occurrences within budget: clean.
        let lines = cap_metric("f::bytes", 1024.0, &[900.0, 1024.0], &mut violations);
        assert_eq!(lines.len(), 2);
        assert!(violations.is_empty());
        // One row over budget: a Cap violation naming the row.
        cap_metric("f::bytes", 1024.0, &[900.0, 1500.0], &mut violations);
        assert!(matches!(
            &violations[0],
            Violation::Cap { metric, fresh, .. } if metric == "f::bytes[1]" && *fresh == 1500.0
        ));
        // A budgeted metric absent from the record is drift, not a pass.
        violations.clear();
        cap_metric("f::bytes", 1024.0, &[], &mut violations);
        assert!(matches!(&violations[0], Violation::Shape { .. }));
    }

    #[test]
    fn cap_only_invocation_gates_without_baselines() {
        let dir = scratch_dir("perf_gate_cap_test");
        std::fs::write(
            format!("{dir}/BENCH_fleet_sweep.json"),
            "{\"points\": [{\"bytes_per_member\": 500.0}, {\"bytes_per_member\": 800.0}]}\n",
        )
        .unwrap();
        let opts = |max: f64| Options {
            fresh: Some(dir.clone()),
            only: Some("BENCH_fleet_sweep.json".to_string()),
            caps: vec![cap("BENCH_fleet_sweep.json", "bytes_per_member", max)],
            ..Options::default()
        };
        // `--only` names a file with no gated keys, but no comparative check
        // is asked for — a cap-only run is not an error.
        assert!(run(&opts(1024.0)).unwrap().is_empty());
        let violations = run(&opts(600.0)).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(matches!(&violations[0], Violation::Cap { .. }));
    }

    #[test]
    fn array_rows_gate_individually() {
        let mut violations = Vec::new();
        let lines = gate_metric(
            "f::k",
            &[100.0, 100.0, 100.0],
            &[95.0, 60.0, 110.0],
            0.30,
            &mut violations,
        );
        assert_eq!(lines.len(), 3);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            &violations[0],
            Violation::Regression { metric, .. } if metric == "f::k[1]"
        ));
    }

    #[test]
    fn tolerance_check_reads_the_spread_medians() {
        let (base, fresh) = (
            scratch_dir("perf_gate_spread_base"),
            scratch_dir("perf_gate_spread_fresh"),
        );
        let record = |rate: f64| {
            spread_record(&[
                ("pages_per_second_sequential", rate),
                ("pages_per_second_parallel", rate),
            ])
        };
        std::fs::write(format!("{base}/BENCH_fleet.json"), record(1000.0)).unwrap();
        std::fs::write(format!("{fresh}/BENCH_fleet.json"), record(960.0)).unwrap();
        let opts = |tolerance: f64| Options {
            fresh: Some(fresh.clone()),
            baseline: Some(base.clone()),
            tolerance: Some(tolerance),
            only: Some("BENCH_fleet.json".to_string()),
            ..Options::default()
        };
        assert!(run(&opts(0.30)).unwrap().is_empty(), "a 4% drop passes 30%");
        let violations = run(&opts(0.03)).unwrap();
        assert_eq!(violations.len(), 2, "a 4% drop fails 3% on both keys");
    }

    #[test]
    fn bench_record_conversion_builds_the_flags_signature() {
        let record = record_from_bench(
            &fleet_bench_value(1000.0),
            "BENCH_fleet.json",
            "fleet_scale",
            "abc",
        )
        .unwrap();
        assert_eq!(record.flags, "epochs=2,nodes=64,workers=2");
        assert_eq!(record.cores, 1);
        assert_eq!(record.rounds, 3);
        assert_eq!(record.warmups, 1);
        assert_eq!(record.commit, "abc");
        assert_eq!(record.metrics["pages_per_second_sequential"].median, 1000.0);
    }

    #[test]
    fn off_default_workload_axes_make_records_incomparable() {
        let convert = |value: &Value| {
            record_from_bench(value, "BENCH_fleet.json", "fleet_scale", "abc").unwrap()
        };
        let default = convert(&fleet_bench_value(1000.0));
        let with = |field: &str, to: Value| {
            let mut value = fleet_bench_value(1000.0);
            if let Value::Obj(map) = &mut value {
                map.insert(field.to_string(), to);
            }
            convert(&value)
        };
        let socket = with("transport", "socket".into());
        assert_eq!(socket.flags, "epochs=2,nodes=64,transport=socket,workers=2");
        assert!(!default.comparable_with(&socket));
        let tree = with("tree_fanout", 8usize.into());
        assert_eq!(tree.flags, "epochs=2,nodes=64,tree_fanout=8,workers=2");
        assert!(!default.comparable_with(&tree));
        assert!(!socket.comparable_with(&tree));
    }

    #[test]
    fn default_records_reproduce_the_committed_signatures() {
        let history =
            History::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perf/history.jsonl"))
                .unwrap();
        let committed = |bench: &str| {
            let flags: Vec<&str> = history
                .records
                .iter()
                .filter(|r| r.bench == bench)
                .map(|r| r.flags.as_str())
                .collect();
            assert!(!flags.is_empty(), "no committed {bench} records");
            flags
        };
        for flags in committed("fleet_scale") {
            assert_eq!(flags, "epochs=2,nodes=64,workers=2");
        }
        let snapshot = Value::obj([(
            "spread",
            Value::obj(
                [
                    "decode_mb_s_50k",
                    "encode_mb_s_10k",
                    "encode_mb_s_1k",
                    "encode_mb_s_50k",
                ]
                .map(|key| (key, Value::obj([]))),
            ),
        )]);
        let sizes = flags_signature("snapshot", &snapshot).unwrap();
        for flags in committed("snapshot") {
            assert_eq!(flags, sizes, "sizes derived from the spread keys");
        }
        let learning = Value::obj([("pages", 1120usize.into())]);
        for flags in committed("learning_overhead") {
            assert_eq!(
                flags,
                flags_signature("learning_overhead", &learning).unwrap()
            );
        }
    }

    #[test]
    fn old_format_records_are_rejected_with_guidance() {
        let no_spread = parsed(
            "{\"bench\": \"fleet_scale\", \"nodes\": 64, \"workers\": 2, \"cores\": 1, \"epochs\": 2, \"rounds\": 3, \"warmups\": 1}",
        );
        let err =
            record_from_bench(&no_spread, "BENCH_fleet.json", "fleet_scale", "abc").unwrap_err();
        assert!(err.contains("--rounds"), "{err}");
        // A chaos record left behind in the same file is named, not misread.
        let chaos = parsed("{\"bench\": \"fleet_scale_chaos\", \"cores\": 1}");
        let err = record_from_bench(&chaos, "BENCH_fleet.json", "fleet_scale", "abc").unwrap_err();
        assert!(err.contains("fleet_scale_chaos"), "{err}");
    }

    #[test]
    fn gate_catches_a_step_against_real_bench_files() {
        // Build a history of 5 flat records, then gate a 15%-down fresh file.
        let convert = |rate: f64, commit: &str| {
            record_from_bench(
                &parsed(&json::to_string(&fleet_bench_value(rate))),
                "BENCH_fleet.json",
                "fleet_scale",
                commit,
            )
            .unwrap()
        };
        let history = History {
            records: (0..5)
                .map(|k| convert(1000.0 + k as f64, &format!("c{k}")))
                .collect(),
        };
        let verdicts = gate(
            &history,
            &[("BENCH_fleet.json", convert(850.0, "fresh"))],
            &GateConfig::default(),
        );
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| v.is_failure()), "{verdicts:?}");
        // The explain table names the rule and the window.
        let text = explain(&verdicts[0]);
        assert!(text.contains("CHANGEPOINT"), "{text}");
        assert!(text.contains("history"), "{text}");

        // An unchanged fresh file passes the same window.
        let verdicts = gate(
            &history,
            &[("BENCH_fleet.json", convert(1002.0, "fresh"))],
            &GateConfig::default(),
        );
        assert!(verdicts.iter().all(|v| !v.is_failure()), "{verdicts:?}");
    }

    #[test]
    fn a_run_names_at_least_one_check() {
        assert!(run(&Options::default()).is_err());
        let append_alone = Options {
            append: true,
            caps: vec![cap("BENCH_fleet.json", "retransmits", 1.0)],
            ..Options::default()
        };
        assert!(run(&append_alone).unwrap_err().contains("--history"));
    }
}
