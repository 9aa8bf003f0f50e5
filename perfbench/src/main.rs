//! The repository benchmark: three workloads, a few end-to-end metrics
//! measured untraced, and a traced run for the per-layer numbers. See
//! `README.md` for what each workload and metric means.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dense_crowd --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! record the host and the workload's own end-to-end figures. The
//! process exits non-zero when a correctness check fails.

mod dense;
mod fig2;
mod host;
mod stats;
mod tcp;
mod trace;

use matrix_core::{GameStats, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("cpu_ms_per_game_s", "ms/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// workload that bypasses a layer, or where the layer cannot be timed
/// from outside the program, reports 0 for it.
const PER_LAYER: [(&str, &str); 35] = [
    ("node.ingest_ms", "ms/tick"),
    ("node.flush_ms", "ms/tick"),
    ("node.ingest_allocs", "count/tick"),
    ("node.flush_allocs", "count/tick"),
    ("interest.fanned", "count/tick"),
    ("interest.rate_limited", "count/tick"),
    ("interest.sampled_out", "count/tick"),
    ("interest.useful_frac", "frac"),
    ("stage_query_us", "us"),
    ("stage_tier_us", "us"),
    ("stage_predict_us", "us"),
    ("stage_policy_us", "us"),
    ("stage_delta_us", "us"),
    ("flush_us", "us"),
    ("predict.suppressed", "count/s"),
    ("codec.encode_ms", "ms/tick"),
    ("codec.encode_allocs", "count/tick"),
    ("codec.decode_ms", "ms/tick"),
    ("codec.bytes_per_item", "B"),
    ("client.apply_ms", "ms/tick"),
    ("client.items", "count/tick"),
    ("server.forward_us", "us/tick"),
    ("server.peer_bytes", "B/s"),
    ("server.switches", "count/s"),
    ("coord.recomputes", "count/s"),
    ("coord.tables_sent", "count/s"),
    ("pool.grants", "count/s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim_tick_us", "us"),
    ("rt_tick_us", "us"),
    ("rt.batches_flushed", "count/s"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_latency_ms_p50", "ms"),
    ("trace.overhead_cpu_ms_per_game_s", "ms/s"),
];

const WORKLOADS: [&str; 3] = ["dense_crowd", "fig2_adapt", "tcp_loopback"];

const USAGE: &str = "usage: perfbench --workload <dense_crowd|fig2_adapt|tcp_loopback> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// One run's settings.
pub struct RunCfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Checks that failed outright, one line each.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    report: Vec<(String, f64, &'static str)>,
    /// The traced run's spans.
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    /// Sets a metric of `END_TO_END` or `PER_LAYER`.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a workload-specific end-to-end figure.
    pub fn report(&mut self, name: &str, value: f64, unit: &'static str) {
        self.report.push((name.to_string(), value, unit));
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// The interest-layer and predictor figures from the node's counters
/// between two readings.
pub fn game_stat_layers(out: &mut Outcome, s0: &GameStats, s1: &GameStats, ticks: f64, secs: f64) {
    let fanned = (s1.updates_fanned - s0.updates_fanned) as f64;
    let batched = (s1.updates_batched - s0.updates_batched) as f64;
    out.metric("interest.fanned", fanned / ticks);
    let limited = s1.updates_rate_limited - s0.updates_rate_limited;
    out.metric("interest.rate_limited", limited as f64 / ticks);
    let sampled = s1.updates_sampled_out - s0.updates_sampled_out;
    out.metric("interest.sampled_out", sampled as f64 / ticks);
    if fanned > 0.0 {
        out.metric("interest.useful_frac", batched / fanned);
    }
    let suppressed = s1.updates_suppressed - s0.updates_suppressed;
    out.metric("predict.suppressed", suppressed as f64 / secs);
    out.metric(
        "server.switches",
        (s1.redirects_out - s0.redirects_out) as f64 / secs,
    );
}

/// Mean µs per recorded span of the telemetry histograms between two
/// snapshots (`None` = nothing recorded yet).
pub fn telemetry_layers(
    out: &mut Outcome,
    t0: Option<&TelemetrySnapshot>,
    t1: Option<&TelemetrySnapshot>,
) {
    let Some(t1) = t1 else { return };
    for name in [
        "stage_query_us",
        "stage_tier_us",
        "stage_predict_us",
        "stage_policy_us",
        "stage_delta_us",
        "flush_us",
        "sim_tick_us",
        "rt_tick_us",
    ] {
        let Some(h1) = t1.get_hist(name) else {
            continue;
        };
        let (c0, s0) = t0
            .and_then(|t| t.get_hist(name))
            .map_or((0, 0.0), |h| (h.count, h.sum));
        if h1.count > c0 {
            out.metric(name, (h1.sum - s0) / (h1.count - c0) as f64);
        }
    }
}

fn parse(args: &[String]) -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let cfg = RunCfg {
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    };
    Ok((workload, cfg))
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
fn metrics_json<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in items.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = match workload.as_str() {
        "dense_crowd" => dense::run(&cfg),
        "fig2_adapt" => fig2::run(&cfg),
        _ => tcp::run(&cfg),
    };
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in table {
        if cfg.trace {
            out.metrics.entry(name).or_insert(0.0);
        }
        match out.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(_) => out.problems.push(format!("{name} is not a finite number")),
            None => out.problems.push(format!("{name} was not measured")),
        }
    }
    out.report.retain(|(name, value, _)| {
        value.is_finite() || {
            out.problems.push(format!("{name} is not a finite number"));
            false
        }
    });
    if let Some(spans) = &out.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{workload}-seed{}.jsonl", cfg.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            out.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    let correct = out.failed == 0 && out.problems.is_empty();

    println!(
        "{{\"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"commit\": \"{}\"}}, \
         \"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host::nproc(),
        host::profile(),
        host::git_commit(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    if !cfg.trace {
        let report = out.report.iter().map(|(n, v, u)| (n.as_str(), *v, *u));
        println!("{{\"report\": {}}}", metrics_json(report));
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    let metrics = if correct {
        metrics_json(
            table
                .iter()
                .map(|(name, unit)| (*name, out.metrics[name], *unit)),
        )
    } else {
        "{}".into()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let (w, c) = parse(&args(
            "--workload fig2_adapt --seed 7 --seconds 25 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (w.as_str(), c.seed, c.seconds, c.trace),
            ("fig2_adapt", 7, 25.0, true)
        );
        assert!(parse(&args("--workload nope --seed 7 --seconds 25 --trace 1")).is_err());
        assert!(parse(&args(
            "--workload fig2_adapt --seed 7 --seconds 25 --trace 2"
        ))
        .is_err());
        assert!(parse(&args("--workload fig2_adapt --seed 7 --trace 0")).is_err());
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
