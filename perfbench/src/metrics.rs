//! The metric catalogue and how each metric is computed.
//!
//! `BENCHMARK.json` lists exactly these names and units; a self-test
//! keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::replay::Replay;
use crate::workload::Workload;

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The name in the result line.
    pub name: &'static str,
    /// The unit printed with it.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, host time, from the untraced run. The seventh,
/// `error_rate`, is the result line's `failed / attempted`: it is 0 on
/// a passing run, and a gated metric must never read 0.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", "lower"),
    m("latency_p50_us", "us", "lower"),
    m("latency_p90_us", "us", "lower"),
    m("throughput_rps", "1/s", "higher"),
    m("sim_deltas_per_s", "1/s", "higher"),
    m("peak_rss_kb", "kB", "lower"),
];

/// Per-layer metrics from the traced run. A metric of a layer that a
/// workload does not run reads 0 on that workload.
pub const PER_LAYER: [Metric; 37] = [
    m("cli.overhead_us", "us", "lower"),
    m("daemon.overhead_us", "us", "lower"),
    m("parse.us", "us", "lower"),
    m("parse.mb_per_s", "MB/s", "higher"),
    m("interpret.us", "us", "lower"),
    m("interpret.ns_per_delta", "ns", "lower"),
    m("lower.us", "us", "lower"),
    m("lower.actions", "count", "lower"),
    m("compile.us", "us", "lower"),
    m("compile.micro_ops", "count", "lower"),
    m("execute.traced_us", "us", "lower"),
    m("execute.untraced_us", "us", "lower"),
    m("execute.ns_per_delta", "ns", "lower"),
    m("render.us", "us", "lower"),
    m("render.bytes", "B", "lower"),
    m("protocol.decode_us", "us", "lower"),
    m("protocol.encode_us", "us", "lower"),
    m("protocol.bytes_in", "B", "lower"),
    m("protocol.bytes_out", "B", "lower"),
    m("cache.lookup_us", "us", "lower"),
    m("cache.prime_us", "us", "lower"),
    m("cache.hit_ratio", "ratio", "higher"),
    m("faults.generate_us", "us", "lower"),
    m("faults.campaign_us", "us", "lower"),
    m("faults.render_us", "us", "lower"),
    m("faults.mutants", "count", "higher"),
    m("faults.mutants_per_s", "1/s", "higher"),
    m("faults.applicable_ratio", "ratio", "higher"),
    m("faults.coverage", "ratio", "higher"),
    m("checkers.build_us", "us", "lower"),
    m("fleet.spec_us", "us", "lower"),
    m("fleet.batch_us", "us", "lower"),
    m("fleet.render_us", "us", "lower"),
    m("fleet.jobs_per_s", "1/s", "higher"),
    m("fleet.failed_jobs", "count", "lower"),
    m("hls.synth_us", "us", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Models of the layer table (ROADMAP item 1).
pub const TABLE_MODELS: [&str; 4] = ["fig1", "iks_ik", "iks_fir", "dag48"];

/// Stages of the layer table.
pub const TABLE_STAGES: [&str; 7] = [
    "parse",
    "lower",
    "compile",
    "execute_traced",
    "execute_untraced",
    "render",
    "interpret",
];

/// Every per-layer metric: [`PER_LAYER`] plus one per table cell,
/// `table.<model>.<stage>_us`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .collect();
    for model in TABLE_MODELS {
        for stage in TABLE_STAGES {
            all.push((format!("table.{model}.{stage}_us"), "us", "lower"));
        }
    }
    all
}

/// Value at quantile `q` (nearest rank) of sorted `v`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `v` (any order).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Outcome tally of the requests of one run.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: error envelope, nonzero exit, mismatch,
    /// or a defective reference.
    pub failed: u64,
    /// Latency of every timed request, µs; a failed one counts as
    /// missing every limit (infinite).
    pub latencies_us: Vec<f64>,
    /// Delta cycles inside the checked responses.
    pub deltas: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Records one response: `got` is the program's answer (or why
    /// there is none), checked against `expected` byte for byte.
    pub fn observe(
        &mut self,
        expected: &crate::reference::Expected,
        got: Result<&[u8], String>,
        latency_us: Option<f64>,
    ) {
        self.attempted += 1;
        let verdict = match (got, &expected.defect) {
            (_, Some(defect)) => Err(format!("reference defect: {defect}")),
            (Err(e), None) => Err(e),
            (Ok(bytes), None) if bytes == expected.bytes.as_slice() => Ok(()),
            (Ok(bytes), None) => Err(format!(
                "response differs from the reference ({} vs {} bytes): {}",
                bytes.len(),
                expected.bytes.len(),
                String::from_utf8_lossy(&bytes[..bytes.len().min(160)])
            )),
        };
        match verdict {
            Ok(()) => {
                self.deltas += expected.deltas;
                if let Some(l) = latency_us {
                    self.latencies_us.push(l);
                }
            }
            Err(reason) => {
                self.failed += 1;
                if latency_us.is_some() {
                    self.latencies_us.push(f64::INFINITY);
                }
                if self.reasons.len() < 5 {
                    self.reasons.push(reason);
                }
            }
        }
    }
}

/// Per-layer metric values from a traced and an untraced replay of the
/// same requests, the end-to-end mean latency they account for, and
/// the daemon's cache hit ratio.
pub fn layer_metrics(
    workload: Workload,
    traced: &Replay,
    untraced: &Replay,
    mean_latency_us: f64,
    cache_hit_ratio: f64,
) -> BTreeMap<String, f64> {
    let (setup, timed) = split_totals(traced);
    let n = traced.requests.max(1) as f64;
    let c = &traced.counts;
    let per_req = |name: &str| timed.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
    let ns = |name: &str| {
        (timed.get(name).copied().unwrap_or(0) + setup.get(name).copied().unwrap_or(0)) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };

    // The residual of the end-to-end mean latency over the layers'
    // self times is the process or daemon overhead.
    let overhead = mean_latency_us - accounted_us(traced);
    put(
        "cli.overhead_us",
        if workload.is_serve() { 0.0 } else { overhead },
    );
    put(
        "daemon.overhead_us",
        if workload.is_serve() { overhead } else { 0.0 },
    );

    for (metric, span) in [
        ("parse.us", "parse"),
        ("interpret.us", "interpret"),
        ("lower.us", "lower"),
        ("compile.us", "compile"),
        ("execute.traced_us", "execute.traced"),
        ("execute.untraced_us", "execute.untraced"),
        ("render.us", "render"),
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.encode_us", "protocol.encode"),
        ("cache.lookup_us", "cache.lookup"),
        ("faults.generate_us", "faults.generate"),
        ("faults.campaign_us", "faults.campaign"),
        ("faults.render_us", "faults.render"),
        ("checkers.build_us", "checkers.build"),
        ("fleet.spec_us", "fleet.spec"),
        ("fleet.batch_us", "fleet.batch"),
        ("fleet.render_us", "fleet.render"),
        ("hls.synth_us", "hls.synth"),
    ] {
        put(metric, per_req(span));
    }
    // Rates and sizes include the set-up priming, where the daemon
    // workloads parse, lower and compile.
    put(
        "parse.mb_per_s",
        ratio(c.parse_bytes as f64 * 1e3, ns("parse")),
    );
    put(
        "interpret.ns_per_delta",
        ratio(ns("interpret"), c.interp_deltas as f64),
    );
    put("lower.actions", ratio(c.actions as f64, c.lowerings as f64));
    put(
        "compile.micro_ops",
        ratio(c.micro_ops as f64, c.compiles as f64),
    );
    put(
        "execute.ns_per_delta",
        ratio(ns("execute.traced"), c.exec_deltas as f64),
    );
    put(
        "render.bytes",
        ratio(c.render_bytes as f64, c.renders as f64),
    );
    put("protocol.bytes_in", c.bytes_in as f64 / n);
    put("protocol.bytes_out", c.bytes_out as f64 / n);
    let prime_ns: u64 = traced
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "cache.prime")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    put(
        "cache.prime_us",
        ratio(prime_ns as f64 / 1e3, c.primed as f64),
    );
    put("cache.hit_ratio", cache_hit_ratio);
    let span_ns = |name: &str| -> f64 {
        traced
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    };
    put(
        "faults.mutants",
        ratio(c.mutants as f64, c.campaigns as f64),
    );
    put(
        "faults.mutants_per_s",
        ratio(c.mutants as f64 * 1e9, span_ns("faults.campaign")),
    );
    put(
        "faults.applicable_ratio",
        ratio(c.applicable as f64, c.mutants as f64),
    );
    put("faults.coverage", ratio(c.coverage_sum, c.campaigns as f64));
    put(
        "fleet.jobs_per_s",
        ratio(c.fleet_jobs as f64 * 1e9, span_ns("fleet.batch")),
    );
    put("fleet.failed_jobs", c.failed_jobs as f64);
    // Tracing overhead: the traced replay minus its probes against the
    // untraced replay of the same passes.
    let traced_ns = traced.wall_ns.saturating_sub(traced.tracer.probe_ns()) as f64;
    put(
        "trace.overhead_pct",
        ratio(traced_ns - untraced.wall_ns as f64, untraced.wall_ns as f64) * 100.0,
    );
    out
}

/// Σ layer self times per timed request, µs: every span on the
/// request's path except the request's own glue, plus the probes that
/// stand in for work inside a library call.
pub fn accounted_us(r: &Replay) -> f64 {
    let (_, timed) = split_totals(r);
    let path: u64 = timed
        .iter()
        .filter(|(name, _)| **name != "request" && **name != "execute.untraced")
        .map(|(_, t)| t)
        .sum();
    path as f64 / r.requests.max(1) as f64 / 1e3
}

/// Self-time totals per span name, ns, split into the set-up priming
/// and the timed requests.
pub fn split_totals(r: &Replay) -> (BTreeMap<&'static str, u64>, BTreeMap<&'static str, u64>) {
    let own = r.tracer.self_times();
    let mut setup = BTreeMap::new();
    let mut timed = BTreeMap::new();
    for (s, t) in r.tracer.spans().iter().zip(own) {
        let map = if s.request >= crate::workload::setup_id(0) {
            &mut setup
        } else {
            &mut timed
        };
        *map.entry(s.name).or_insert(0) += t;
    }
    (setup, timed)
}

/// Formats a metric value with all its digits (`null` if not finite).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[(String, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)
        );
    }
    out.push_str("}}");
    out
}
