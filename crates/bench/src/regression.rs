//! Throughput-regression diffing for the committed `BENCH_*.json`
//! artifacts — the first step toward the ROADMAP's benchmark job with
//! regression tracking.
//!
//! Every experiment binary writes a flat JSON file of the shape
//!
//! ```json
//! { "bench": "…", "mode": "…", "results": [ { flat row }, … ] }
//! ```
//!
//! (our own format, written by hand — no serde in the tree). This module
//! parses that shape, matches rows between a committed baseline and a
//! fresh run by their **identity fields** (everything except metrics and
//! volatile measurements), and reports every metric that regressed by
//! more than a caller-chosen factor:
//!
//! * **throughput** metrics (fields ending in `_per_sec`) regress by
//!   *dropping* below `baseline / factor`;
//! * **memory** metrics (fields ending in `_bytes`, e.g.
//!   `peak_rss_bytes`, or in `_entries`, e.g. the online checker's
//!   `peak_retained_entries`) regress by *growing* beyond
//!   `baseline × factor` — footprint counts are far less noisy than
//!   wall-clock, so a 2× growth is a real layout or leak problem, not
//!   jitter.
//!
//! The `bench_diff` binary wraps this as a CI step that *warns* (CI
//! machines vary too much to gate on wall-clock throughput), and
//! reports how many rows matched, so a diff that compared nothing is
//! visible — and fails under `--strict`, as does a fresh row with no
//! baseline to compare it against.

use std::collections::{BTreeMap, BTreeSet};

/// A scalar cell of a result row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A JSON string.
    Str(String),
    /// A JSON number (all our numbers fit f64 exactly enough for
    /// ratio checks).
    Num(f64),
    /// A JSON boolean.
    Bool(bool),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Num(x) => format!("{x}"),
            Cell::Bool(b) => format!("{b}"),
        }
    }
}

/// One flat result row.
pub type Row = BTreeMap<String, Cell>;

/// A parsed `BENCH_*.json` file.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// The top-level `bench` tag.
    pub bench: String,
    /// The top-level `mode` tag, when present (`full` / `smoke`).
    pub mode: Option<String>,
    /// The result rows.
    pub results: Vec<Row>,
}

/// The direction a metric is good in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Higher is better (`_per_sec`): a regression *drops*.
    Throughput,
    /// Lower is better (`_bytes`): a regression *grows*.
    Memory,
}

/// Compared-metric classification; `None` for identity/volatile fields.
fn metric_kind(name: &str) -> Option<MetricKind> {
    if name.ends_with("_per_sec") {
        Some(MetricKind::Throughput)
    } else if name.ends_with("_bytes") || name.ends_with("_entries") {
        Some(MetricKind::Memory)
    } else {
        None
    }
}

fn is_volatile(name: &str) -> bool {
    const VOLATILE: &[&str] = &[
        "millis",
        "steps",
        "ops",
        "writes",
        "reads",
        "interleavings",
        "pruned_subtrees",
        "steps_replayed",
        "violations",
    ];
    // The suffix classes cover obs metric-snapshot exports: raw event
    // counts (`_total`, histogram `_count`) and histogram quantiles
    // (`_p50`/`_p90`/`_p99`/`_max`) vary run to run and carry no
    // better/worse direction, so they are neither identity nor
    // compared metrics.
    const VOLATILE_SUFFIXES: &[&str] = &[
        "_avg", "_ms", "_total", "_count", "_p50", "_p90", "_p99", "_max",
    ];
    VOLATILE.contains(&name) || VOLATILE_SUFFIXES.iter().any(|s| name.ends_with(s))
}

/// The identity key of a row: every stable field, rendered.
pub fn identity(row: &Row) -> String {
    row.iter()
        .filter(|(k, _)| metric_kind(k).is_none() && !is_volatile(k))
        .map(|(k, v)| format!("{k}={}", v.render()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One detected metric regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Identity of the affected row.
    pub row: String,
    /// The metric that regressed.
    pub metric: String,
    /// Which way "worse" points for this metric.
    pub kind: MetricKind,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
}

impl Regression {
    /// How many times worse the fresh run is: `baseline / fresh` for
    /// throughput (slowdown), `fresh / baseline` for memory (growth).
    /// Always > 1 for a reported regression.
    pub fn severity(&self) -> f64 {
        match self.kind {
            MetricKind::Throughput => self.baseline / self.fresh.max(f64::MIN_POSITIVE),
            MetricKind::Memory => self.fresh / self.baseline.max(f64::MIN_POSITIVE),
        }
    }

    /// `baseline / fresh` — how many times slower the fresh run is.
    /// Meaningful for throughput metrics only; see
    /// [`severity`](Regression::severity) for the direction-aware ratio.
    pub fn slowdown(&self) -> f64 {
        self.baseline / self.fresh.max(f64::MIN_POSITIVE)
    }
}

/// Compare `fresh` against `baseline`: every compared metric present in
/// both versions of a row that got more than `factor` times worse —
/// throughput below `baseline / factor`, memory above
/// `baseline × factor` — is reported. Rows present on only one side are
/// skipped (configs come and go); [`match_rows`] counts them.
pub fn diff(baseline: &BenchFile, fresh: &BenchFile, factor: f64) -> Vec<Regression> {
    assert!(factor >= 1.0, "a regression factor below 1 is meaningless");
    let mut by_id: BTreeMap<String, &Row> = BTreeMap::new();
    for row in &baseline.results {
        by_id.insert(identity(row), row);
    }
    let mut out = Vec::new();
    for row in &fresh.results {
        let id = identity(row);
        let Some(base) = by_id.get(&id) else {
            continue;
        };
        for (name, cell) in row.iter() {
            let Some(kind) = metric_kind(name) else {
                continue;
            };
            let (Cell::Num(fresh_v), Some(Cell::Num(base_v))) = (cell, base.get(name)) else {
                continue;
            };
            let regressed = match kind {
                MetricKind::Throughput => *fresh_v * factor < *base_v,
                MetricKind::Memory => *fresh_v > *base_v * factor,
            };
            if *base_v > 0.0 && regressed {
                out.push(Regression {
                    row: id.clone(),
                    metric: name.clone(),
                    kind,
                    baseline: *base_v,
                    fresh: *fresh_v,
                });
            }
        }
    }
    out
}

/// How the rows of a baseline and a fresh run pair up by identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMatch {
    /// Fresh rows with a baseline row of the same identity.
    pub matched: usize,
    /// Baseline rows no fresh row matches.
    pub baseline_only: usize,
    /// Fresh rows with no baseline row.
    pub fresh_only: usize,
}

/// Count matched and one-sided rows — what [`diff`] compared and what
/// it skipped.
pub fn match_rows(baseline: &BenchFile, fresh: &BenchFile) -> RowMatch {
    let base_ids: BTreeSet<String> = baseline.results.iter().map(identity).collect();
    let fresh_ids: BTreeSet<String> = fresh.results.iter().map(identity).collect();
    let matched = fresh
        .results
        .iter()
        .filter(|r| base_ids.contains(&identity(r)))
        .count();
    RowMatch {
        matched,
        baseline_only: baseline
            .results
            .iter()
            .filter(|r| !fresh_ids.contains(&identity(r)))
            .count(),
        fresh_only: fresh.results.len() - matched,
    }
}

/// The `--strict` verdict: fail on any regression beyond the factor,
/// when no row matched at all — a diff that compared nothing must not
/// pass — and when a fresh row has no baseline (a schema or grid change
/// the committed file was not regenerated for). Baseline-only rows
/// pass: a smaller grid compares a subset.
pub fn strict_verdict(rows: RowMatch, regressions: &[Regression]) -> Result<(), String> {
    if rows.matched == 0 {
        return Err("no fresh row matches a baseline row: nothing was compared".into());
    }
    if rows.fresh_only > 0 {
        return Err(format!(
            "{} fresh row(s) have no baseline row: recommit the baseline",
            rows.fresh_only
        ));
    }
    if !regressions.is_empty() {
        return Err(format!(
            "{} regression(s) beyond the factor",
            regressions.len()
        ));
    }
    Ok(())
}

/// Parse a `BENCH_*.json` file (the flat shape our binaries write).
pub fn parse_bench_json(text: &str) -> Result<BenchFile, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut bench = None;
    let mut mode = None;
    let mut results = Vec::new();
    loop {
        p.skip_ws();
        if p.eat(b'}') {
            break;
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        match key.as_str() {
            "results" => {
                p.expect(b'[')?;
                loop {
                    p.skip_ws();
                    if p.eat(b']') {
                        break;
                    }
                    results.push(p.flat_object()?);
                    p.skip_ws();
                    p.eat(b',');
                }
            }
            _ => {
                let cell = p.cell()?;
                match (key.as_str(), cell) {
                    ("bench", Cell::Str(s)) => bench = Some(s),
                    ("mode", Cell::Str(s)) => mode = Some(s),
                    _ => {} // other top-level scalars: ignored
                }
            }
        }
        p.skip_ws();
        p.eat(b',');
    }
    Ok(BenchFile {
        bench: bench.ok_or("missing top-level \"bench\" tag")?,
        mode,
        results,
    })
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.at += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char,
                self.at,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|e| e.to_string())?
                    .to_string();
                self.at += 1;
                return Ok(s);
            }
            if b == b'\\' {
                return Err("escapes are not used in bench JSON".into());
            }
            self.at += 1;
        }
        Err("unterminated string".into())
    }

    fn cell(&mut self) -> Result<Cell, String> {
        match self.peek() {
            Some(b'"') => Ok(Cell::Str(self.string()?)),
            Some(b't') | Some(b'f') => {
                let word = if self.peek() == Some(b't') {
                    "true"
                } else {
                    "false"
                };
                if self.bytes[self.at..].starts_with(word.as_bytes()) {
                    self.at += word.len();
                    Ok(Cell::Bool(word == "true"))
                } else {
                    Err(format!("malformed literal at byte {}", self.at))
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Cell::Num)
                    .ok_or_else(|| format!("malformed number at byte {start}"))
            }
            other => Err(format!(
                "unexpected value start {other:?} at byte {}",
                self.at
            )),
        }
    }

    fn flat_object(&mut self) -> Result<Row, String> {
        self.expect(b'{')?;
        let mut row = Row::new();
        loop {
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(row);
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let cell = self.cell()?;
            row.insert(key, cell);
            self.skip_ws();
            self.eat(b',');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{
  "bench": "sketch_workloads",
  "mode": "full",
  "results": [
    {"object": "topk", "backend": "coop", "n": 8, "shards": 4, "adds_per_sec": 1000000, "millis": 12.5, "violations": 0, "peak_rss_bytes": 100000000},
    {"object": "topk", "backend": "thread", "n": 4, "shards": 1, "adds_per_sec": 500000, "millis": 9.0, "violations": 0, "peak_rss_bytes": 50000000}
  ]
}"#;

    #[test]
    fn parses_our_shape() {
        let f = parse_bench_json(OLD).expect("parses");
        assert_eq!(f.bench, "sketch_workloads");
        assert_eq!(f.mode.as_deref(), Some("full"));
        assert_eq!(f.results.len(), 2);
        assert_eq!(f.results[0].get("backend"), Some(&Cell::Str("coop".into())));
        assert_eq!(f.results[0].get("n"), Some(&Cell::Num(8.0)));
    }

    #[test]
    fn identity_ignores_metrics_and_volatiles() {
        let f = parse_bench_json(OLD).unwrap();
        let id = identity(&f.results[0]);
        assert!(id.contains("backend=coop") && id.contains("n=8"));
        assert!(!id.contains("adds_per_sec") && !id.contains("millis"));
        assert!(!id.contains("violations"));
        assert!(
            !id.contains("peak_rss_bytes"),
            "memory metrics compared, not matched"
        );
    }

    #[test]
    fn detects_a_regression_beyond_the_factor() {
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD
            .replace("\"adds_per_sec\": 1000000", "\"adds_per_sec\": 400000")
            .replace("\"adds_per_sec\": 500000", "\"adds_per_sec\": 300000");
        let new = parse_bench_json(&new_text).unwrap();
        let regs = diff(&old, &new, 2.0);
        // 1M → 400k is a 2.5× drop (reported); 500k → 300k is 1.67×
        // (within tolerance).
        assert_eq!(regs.len(), 1);
        assert!(regs[0].row.contains("backend=coop"));
        assert_eq!(regs[0].metric, "adds_per_sec");
        assert_eq!(regs[0].kind, MetricKind::Throughput);
        assert!((regs[0].slowdown() - 2.5).abs() < 1e-9);
        assert!((regs[0].severity() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn detects_a_memory_regression_in_the_growth_direction() {
        let old = parse_bench_json(OLD).unwrap();
        // Coop row: RSS grows 2.5× (reported). Thread row: RSS *shrinks*
        // 10× — an improvement, never a regression.
        let new_text = OLD
            .replace(
                "\"peak_rss_bytes\": 100000000",
                "\"peak_rss_bytes\": 250000000",
            )
            .replace(
                "\"peak_rss_bytes\": 50000000",
                "\"peak_rss_bytes\": 5000000",
            );
        let fresh = parse_bench_json(&new_text).unwrap();
        let regs = diff(&old, &fresh, 2.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "peak_rss_bytes");
        assert_eq!(regs[0].kind, MetricKind::Memory);
        assert!(regs[0].row.contains("backend=coop"));
        assert!((regs[0].severity() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn memory_growth_within_the_factor_passes() {
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD.replace(
            "\"peak_rss_bytes\": 100000000",
            "\"peak_rss_bytes\": 180000000",
        );
        let fresh = parse_bench_json(&new_text).unwrap();
        assert!(
            diff(&old, &fresh, 2.0).is_empty(),
            "1.8x growth is within 2x"
        );
    }

    #[test]
    fn unmatched_rows_are_ignored() {
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD.replace("\"n\": 8", "\"n\": 16");
        let new = parse_bench_json(&new_text).unwrap();
        let regs = diff(
            &old,
            &parse_bench_json(&new_text.replace("1000000", "1")).unwrap(),
            2.0,
        );
        let _ = new;
        assert!(regs.is_empty(), "different n: different identity");
    }

    #[test]
    fn strict_fails_when_no_row_matches() {
        let old = parse_bench_json(OLD).unwrap();
        let fresh = parse_bench_json(&OLD.replace("\"n\": ", "\"procs\": ")).unwrap();
        let rows = match_rows(&old, &fresh);
        assert_eq!(
            rows,
            RowMatch {
                matched: 0,
                baseline_only: 2,
                fresh_only: 2
            }
        );
        let regs = diff(&old, &fresh, 2.0);
        assert!(regs.is_empty(), "nothing compared, nothing regressed");
        let err = strict_verdict(rows, &regs).expect_err("a diff over nothing must fail");
        assert!(err.contains("nothing was compared"), "{err}");

        // One row renamed: the other still matches, but the renamed
        // fresh row has no baseline, so strict fails on it.
        let fresh = parse_bench_json(&OLD.replace("\"n\": 8", "\"n\": 16")).unwrap();
        let rows = match_rows(&old, &fresh);
        assert_eq!(
            rows,
            RowMatch {
                matched: 1,
                baseline_only: 1,
                fresh_only: 1
            }
        );
        assert!(strict_verdict(rows, &diff(&old, &fresh, 2.0)).is_err());
    }

    #[test]
    fn strict_fails_on_fresh_rows_without_a_baseline() {
        let old = parse_bench_json(OLD).unwrap();
        // A fresh run with an extra row no baseline covers.
        let extra = r#"{"object": "topk", "backend": "coop", "n": 64, "shards": 4, "adds_per_sec": 1000000, "millis": 12.5, "violations": 0, "peak_rss_bytes": 100000000},
    {"object": "topk", "backend": "thread""#;
        let fresh =
            parse_bench_json(&OLD.replacen(r#"{"object": "topk", "backend": "thread""#, extra, 1))
                .unwrap();
        let rows = match_rows(&old, &fresh);
        assert_eq!(
            rows,
            RowMatch {
                matched: 2,
                baseline_only: 0,
                fresh_only: 1
            }
        );
        let regs = diff(&old, &fresh, 2.0);
        assert!(regs.is_empty());
        let err = strict_verdict(rows, &regs).expect_err("an uncovered fresh row must fail");
        assert!(err.contains("1 fresh row(s) have no baseline"), "{err}");

        // The converse stays allowed: a smaller fresh grid (a baseline
        // row with no fresh counterpart) compares a subset and passes.
        let rows = match_rows(&fresh, &old);
        assert_eq!(rows.baseline_only, 1);
        assert_eq!(rows.fresh_only, 0);
        assert_eq!(strict_verdict(rows, &diff(&fresh, &old, 2.0)), Ok(()));
    }

    #[test]
    fn mode_mismatch_still_matches_rows() {
        // Smoke runs produce a subset of rows with the same identities;
        // the top-level mode tag does not enter row identity.
        let old = parse_bench_json(OLD).unwrap();
        let new_text = OLD.replace("\"mode\": \"full\"", "\"mode\": \"smoke\"");
        let fresh = parse_bench_json(&new_text).unwrap();
        assert!(diff(&old, &fresh, 2.0).is_empty());
    }

    #[test]
    fn explore_rows_key_on_algo() {
        // exp_explore emits one row per (config, algo) pair; the algo
        // tag must be part of row identity so a dpor row is never
        // diffed against a dfs baseline.
        let text = r#"{
  "bench": "schedule_exploration",
  "results": [
    {"config": "collect-3x2", "algo": "dfs", "prune": false, "max_crashes": 0, "interleavings": 131, "millis": 1.9, "interleavings_per_sec": 69216, "violations": 0},
    {"config": "collect-3x2", "algo": "dpor", "prune": true, "max_crashes": 0, "interleavings": 132, "millis": 1.0, "interleavings_per_sec": 128883, "violations": 0}
  ]
}"#;
        let f = parse_bench_json(text).unwrap();
        let ids: Vec<String> = f.results.iter().map(identity).collect();
        assert!(ids[0].contains("algo=dfs ") && ids[1].contains("algo=dpor"));
        assert_ne!(ids[0], ids[1], "algo distinguishes otherwise-equal rows");
    }

    #[test]
    fn checker_rows_key_on_mode() {
        // exp_checker emits offline and online rows for the same
        // record count; the per-row mode tag must enter identity so an
        // online row is never diffed against an offline one, while
        // peak_retained_entries is a compared memory metric, not
        // identity.
        let text = r#"{
  "bench": "checker_throughput",
  "results": [
    {"engine": "naive", "mode": "offline", "records": 10000, "millis": 5.0, "records_per_sec": 2000000},
    {"engine": "online", "mode": "online", "records": 10000, "millis": 4.0, "records_per_sec": 2500000, "peak_retained_entries": 120}
  ]
}"#;
        let f = parse_bench_json(text).unwrap();
        let ids: Vec<String> = f.results.iter().map(identity).collect();
        assert!(ids[0].contains("mode=offline") && ids[1].contains("mode=online"));
        assert_ne!(ids[0], ids[1], "mode distinguishes the rows");
        assert!(
            !ids[1].contains("peak_retained_entries"),
            "retained-state metrics compared, not matched"
        );
        // Retained state growing beyond the factor is a reported memory
        // regression, in the growth direction only.
        let grown = text.replace(
            "\"peak_retained_entries\": 120",
            "\"peak_retained_entries\": 500",
        );
        let regs = diff(&f, &parse_bench_json(&grown).unwrap(), 2.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "peak_retained_entries");
        assert_eq!(regs[0].kind, MetricKind::Memory);
    }

    #[test]
    fn real_bench_artifacts_parse() {
        // The committed artifacts in the repo root must stay parseable —
        // this is what CI diffs against.
        for name in [
            "BENCH_checker.json",
            "BENCH_scale.json",
            "BENCH_explore.json",
            "BENCH_sketch.json",   // consumed by CI's sketch bench_diff step
            "BENCH_analysis.json", // consumed by CI's analysis bench_diff step
            "BENCH_obs.json",      // consumed by CI's obs-overhead bench_diff step
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            if let Ok(text) = std::fs::read_to_string(&path) {
                let f = parse_bench_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!f.results.is_empty(), "{name} has rows");
            }
        }
    }
}
