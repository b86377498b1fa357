//! pipebench — the end-to-end checked-pipeline benchmark.
//!
//! ```text
//! pipebench --workload <counter_gated|maxreg_audited|free_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run: the tampered-read self-check, one discarded warm-up
//! iteration, then iterations on identical inputs regenerated from the
//! seed until `--seconds` have passed (at least [`MIN_ITERS`]). Every
//! iteration must end with a clean verdict, no inert pass, every
//! operation checked, and the same step counts and history digest as
//! the warm-up. The last line of standard output is one JSON object:
//! the end-to-end metrics (`--trace 0`) or, from a separate traced
//! iteration alternating with each untraced one, the per-layer metrics
//! (`--trace 1`). Any breach exits with code 1, bad arguments with 2.

mod probe;
mod selfcheck;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Layer;
use workloads::{avg, Iteration, Workload};

/// Fewest timed iterations a run reports a median over.
const MIN_ITERS: usize = 5;

const USAGE: &str = "usage: pipebench --workload <counter_gated|maxreg_audited|free_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| (1..=3600).contains(&s))
                        .ok_or_else(|| bad("expected 1 to 3600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The median; the mean of the middle two for an even count.
fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(warm: &Iteration, timed: &[Iteration], peak_rss_mb: f64) -> Metrics {
    let completed: u64 = timed.iter().map(|it| it.completed).sum();
    let checked: u64 = timed.iter().map(|it| it.checked).sum();
    vec![
        (
            "ops_per_s",
            median(timed.iter().map(Iteration::ops_per_s).collect()),
            "ops/s",
        ),
        (
            "setup_s",
            median(timed.iter().map(Iteration::setup_scaled_s).collect()),
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        (
            "steps_per_op",
            warm.steps.total as f64 / warm.steps.ops as f64,
            "steps",
        ),
        ("op_steps_max", warm.steps.max as f64, "steps"),
        (
            "checked_op_frac",
            checked as f64 / completed as f64,
            "ratio",
        ),
    ]
}

/// The per-layer metrics of one traced iteration.
fn layers(it: &Iteration) -> Metrics {
    use obs::names::*;
    let t = it.trace.as_ref().expect("a traced iteration");
    let sp = &t.spans;
    let analysis = [
        Layer::PollDiscipline,
        Layer::Conformance,
        Layer::HappensBefore,
    ];
    let children: f64 = [Layer::Sched, Layer::Objects, Layer::Sketch, Layer::LinPass]
        .into_iter()
        .chain(analysis)
        .map(|l| sp.self_s(l))
        .sum();
    let driver_self = (t.run_phase_s - children).max(0.0);
    let polls = t.obs(SUB_COOP, COOP_POLLS);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("smr.driver.self_s", driver_self, "s"),
        (
            "smr.driver.ns_per_poll",
            per(driver_self * 1e9, polls),
            "ns",
        ),
        ("smr.driver.polls", polls, "count"),
        ("smr.driver.submit_s", t.submit_s, "s"),
        (
            "smr.driver.arena_bytes",
            t.obs(SUB_COOP, COOP_ARENA_BYTES),
            "bytes",
        ),
        ("smr.sched.self_s", sp.self_s(Layer::Sched), "s"),
        ("smr.sched.picks", sp.calls(Layer::Sched) as f64, "count"),
        ("approx_objects.poll_s", sp.self_s(Layer::Objects), "s"),
        (
            "approx_objects.ns_per_poll",
            sp.ns_per_span(Layer::Objects),
            "ns",
        ),
        ("approx_objects.inc_steps_avg", avg(it.steps.inc), "steps"),
        ("approx_objects.read_steps_avg", avg(it.steps.read), "steps"),
        (
            "approx_objects.write_steps_avg",
            avg(it.steps.write),
            "steps",
        ),
        ("sketch.poll_s", sp.self_s(Layer::Sketch), "s"),
        ("sketch.flushes", t.obs(SUB_SKETCH, SKETCH_FLUSHES), "count"),
        ("sketch.read_steps_avg", avg(it.steps.sketch_read), "steps"),
        (
            "smr.analysis.attach_s",
            analysis.iter().map(|&l| sp.attach_s(l)).sum(),
            "s",
        ),
        (
            "smr.analysis.poll_discipline.s",
            sp.self_s(Layer::PollDiscipline),
            "s",
        ),
        (
            "smr.analysis.conformance.s",
            sp.self_s(Layer::Conformance),
            "s",
        ),
        (
            "smr.analysis.happens_before.s",
            sp.self_s(Layer::HappensBefore),
            "s",
        ),
        (
            "smr.analysis.happens_before.ns_per_event",
            sp.ns_per_span(Layer::HappensBefore),
            "ns",
        ),
        (
            "smr.analysis.events",
            sp.calls(Layer::HappensBefore) as f64,
            "count",
        ),
        (
            "smr.analysis.finish_s",
            analysis.iter().map(|&l| sp.finish_s(l)).sum(),
            "s",
        ),
        ("lincheck.pass.s", sp.self_s(Layer::LinPass), "s"),
        (
            "lincheck.pass.events",
            sp.calls(Layer::LinPass) as f64,
            "count",
        ),
        (
            "lincheck.pass.ns_per_event",
            sp.ns_per_span(Layer::LinPass),
            "ns",
        ),
        ("lincheck.pass.finish_s", sp.finish_s(Layer::LinPass), "s"),
        (
            "lincheck.pass.pushes",
            t.obs(SUB_LINCHECK, LINCHECK_PUSHES),
            "count",
        ),
        (
            "lincheck.pass.retained_entries",
            t.obs(SUB_LINCHECK, LINCHECK_RETAINED),
            "count",
        ),
        (
            "lincheck.pass.inert_transitions",
            t.obs(SUB_LINCHECK, LINCHECK_INERT),
            "count",
        ),
        ("lincheck.offline.s", t.offline_s, "s"),
        (
            "lincheck.offline.records",
            t.offline_records as f64,
            "count",
        ),
        (
            "lincheck.offline.ns_per_record",
            per(t.offline_s * 1e9, t.offline_records as f64),
            "ns",
        ),
    ]
}

/// Names of the per-layer metrics that are counts and must repeat
/// exactly between traced iterations of one seed.
fn is_exact(name: &str, unit: &str) -> bool {
    unit == "count" || unit == "steps" || name == "smr.driver.arena_bytes"
}

/// Per-layer medians over the traced iterations, plus the tracing
/// overhead against the untraced iterations of the same seed.
fn per_layer(traced: &[Iteration], untraced: &[Iteration], problems: &mut Vec<String>) -> Metrics {
    let rows: Vec<Metrics> = traced.iter().map(layers).collect();
    let mut out: Metrics = rows[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, first, unit))| {
            let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
            if is_exact(name, unit) && values.iter().any(|&v| v != first) {
                problems.push(format!(
                    "{name} differs between traced iterations: {values:?}"
                ));
            }
            (name, median(values), unit)
        })
        .collect();
    let traced_rate = median(traced.iter().map(Iteration::ops_per_s).collect());
    let untraced_rate = median(untraced.iter().map(Iteration::ops_per_s).collect());
    out.push((
        "trace.overhead_frac",
        1.0 - traced_rate / untraced_rate,
        "ratio",
    ));
    out
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// Every breach of the iteration's own checks, and of determinism
/// against the warm-up.
fn audit(name: &str, it: &Iteration, warm: &Iteration, problems: &mut Vec<String>) {
    problems.extend(it.problems.iter().map(|p| format!("{name}: {p}")));
    if it.failed() > 0 {
        problems.push(format!(
            "{name}: {} of {} operations failed",
            it.failed(),
            it.submitted
        ));
    }
    if it.checked != it.completed {
        problems.push(format!(
            "{name}: only {} of {} completed operations were checked",
            it.checked, it.completed
        ));
    }
    if it.steps != warm.steps || it.digest != warm.digest {
        problems.push(format!(
            "{name}: the history or its step counts differ from the warm-up on the same seed"
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if let Err(e) = selfcheck::tampered_read_is_counted(args.seed) {
        eprintln!("self-check failed: {e}");
        return ExitCode::FAILURE;
    }

    if args.trace {
        trace::calibrate();
    }
    let warm = workloads::iterate(w, args.seed, false);
    // The peak of one iteration in a fresh process: later iterations
    // reuse freed memory and add allocator history, not program memory.
    let peak_rss_mb = peak_rss_mib();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    // Each iteration is bracketed by host-speed probes.
    let mut host_before = probe::time();
    let mut timed = |traced: bool| {
        let mut it = workloads::iterate(w, args.seed, traced);
        let host_after = probe::time();
        it.host_s = (host_before + host_after) / 2.0;
        host_before = host_after;
        it
    };
    let start = Instant::now();
    while start.elapsed() < budget || untraced.len() < MIN_ITERS {
        untraced.push(timed(false));
        if args.trace {
            traced.push(timed(true));
        }
    }

    let mut problems = Vec::new();
    audit("warm-up", &warm, &warm, &mut problems);
    for (i, it) in untraced.iter().chain(&traced).enumerate() {
        audit(&format!("iteration {i}"), it, &warm, &mut problems);
    }
    let timed: Vec<&Iteration> = untraced.iter().chain(&traced).collect();
    let attempted: u64 = timed.iter().map(|it| it.submitted).sum();
    let failed: u64 = timed.iter().map(|it| it.failed()).sum();
    let metrics = if args.trace {
        per_layer(&traced, &untraced, &mut problems)
    } else {
        end_to_end(&warm, &untraced, peak_rss_mb)
    };

    eprintln!(
        "{}: seed {}, {} untraced + {} traced iterations of {} operations",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        warm.submitted
    );
    let raw = |f: fn(&Iteration) -> f64| median(untraced.iter().map(f).collect());
    eprintln!(
        "  unscaled medians: {:.1} ops/s, set-up {:.6} s; probe {:.6} s (nominal {})",
        raw(|it| it.completed as f64 / it.run_s),
        raw(|it| it.setup_s),
        raw(|it| it.host_s),
        probe::NOMINAL_S
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<44} {value:>16.6} {unit}");
    }
    for p in problems.iter().take(20) {
        eprintln!("FAIL {p}");
    }
    let correct = problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
