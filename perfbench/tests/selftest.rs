//! Self-tests of the benchmark itself: seeded inputs, exact counts,
//! failure accounting and the metric catalogue. Run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use clockless_core::json::Json;
use clockless_perfbench::metrics::{self, layer_metrics, Tally};
use clockless_perfbench::reference::expected;
use clockless_perfbench::replay::replay;
use clockless_perfbench::run::Measured;
use clockless_perfbench::table::layer_table;
use clockless_perfbench::workload::{pass_id, plan, Plan, Workload};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn corpus() -> PathBuf {
    root().join("models")
}

/// A plan whose model files exist (under `perfbench/work/`), cut to its
/// first `keep` timed requests so the test stays quick.
struct Fixture {
    plan: Plan,
    dir: PathBuf,
}

impl Fixture {
    fn new(w: Workload, seed: u64, keep: usize) -> Fixture {
        let dir =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("work/selftest-{w}-{seed}-{keep}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut plan = plan(w, seed, &dir, &corpus()).unwrap();
        plan.pass.truncate(keep);
        for (path, text) in plan.files() {
            std::fs::write(path, text).unwrap();
        }
        Fixture { plan, dir }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn the_same_seed_gives_the_same_request_stream() {
    let dir = Path::new("work/stream-test");
    for w in Workload::ALL {
        let a = plan(w, 7, dir, &corpus()).unwrap().stream_bytes();
        let b = plan(w, 7, dir, &corpus()).unwrap().stream_bytes();
        let c = plan(w, 8, dir, &corpus()).unwrap().stream_bytes();
        assert!(!a.is_empty(), "{w}");
        assert_eq!(a, b, "{w}: same seed, same bytes");
        assert_ne!(a, c, "{w}: another seed, another stream");
    }
}

#[test]
fn deterministic_counts_repeat_exactly() {
    for w in Workload::ALL {
        let fx = Fixture::new(w, 3, 4);
        let (a, _) = replay(&fx.plan, Duration::ZERO, 1).unwrap();
        let (b, _) = replay(&fx.plan, Duration::ZERO, 1).unwrap();
        assert_eq!(a.counts, b.counts, "{w}");
        assert_eq!((a.requests, a.passes), (4, 1), "{w}");
        // The numerators of sim_deltas_per_s come from the references.
        let ea = expected(&fx.plan, &fx.plan.pass, pass_id);
        let eb = expected(&fx.plan, &fx.plan.pass, pass_id);
        let deltas = |e: &[clockless_perfbench::reference::Expected]| {
            e.iter().map(|x| x.deltas).collect::<Vec<_>>()
        };
        assert_eq!(deltas(&ea), deltas(&eb), "{w}");
        assert!(
            deltas(&ea).iter().all(|&d| d > 0),
            "{w}: every payload reports delta cycles"
        );
        assert!(
            ea.iter().all(|e| e.defect.is_none()),
            "{w}: references agree with the DFG"
        );
        let c = &a.counts;
        match w {
            Workload::OneshotRun => assert!(c.interp_deltas + c.exec_deltas > 0),
            Workload::ServeRun => {
                assert!(c.lowerings > 0 && c.actions > 0 && c.micro_ops > 0);
                assert_eq!(c.cache.misses, c.primed, "{w}: only priming misses");
                assert_eq!(c.cache.hits, 4, "{w}: every timed request hits");
            }
            Workload::ServeFaults => assert!(c.mutants > 0 && c.campaigns == 4),
            Workload::ServeFleet => assert!(c.fleet_jobs > 0 && c.failed_jobs == 0),
        }
    }
}

#[test]
fn a_corrupted_response_counts_as_a_failure() {
    let fx = Fixture::new(Workload::ServeRun, 5, 2);
    let exp = expected(&fx.plan, &fx.plan.pass, pass_id);
    let good = exp[0].bytes.clone();
    let mut bad = good.clone();
    let at = bad.len() / 2;
    bad[at] ^= 0x01;

    let mut tally = Tally::default();
    tally.observe(&exp[0], Ok(&good), Some(10.0));
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    tally.observe(&exp[0], Ok(&bad), Some(10.0));
    tally.observe(&exp[0], Ok(&good[..good.len() - 1]), Some(10.0));
    tally.observe(&exp[0], Err("child exited with Some(1)".into()), Some(10.0));
    let envelope = clockless_serve::render_error(
        Some(1),
        Some("run"),
        clockless_serve::ErrorCode::RunFailed,
        "boom",
    );
    tally.observe(&exp[0], Ok(envelope.as_bytes()), Some(10.0));
    assert_eq!((tally.attempted, tally.failed), (5, 4));
    assert_eq!(
        tally.deltas, exp[0].deltas,
        "only the good response counts its deltas"
    );
    // A failed request misses every latency limit.
    assert_eq!(
        tally
            .latencies_us
            .iter()
            .filter(|l| l.is_infinite())
            .count(),
        4
    );
    let mut sorted = tally.latencies_us.clone();
    sorted.sort_by(f64::total_cmp);
    assert!(metrics::quantile(&sorted, 0.5).is_infinite());
}

fn benchmark_json() -> Json {
    Json::parse(&std::fs::read_to_string(root().join("BENCHMARK.json")).unwrap()).unwrap()
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics() {
    let doc = benchmark_json();
    let e2e: Vec<_> = metrics::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect();
    assert_eq!(listed(&doc, "end_to_end"), e2e);
    let layers: Vec<_> = metrics::per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(listed(&doc, "per_layer"), layers);
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    let m = Measured {
        setup_s: vec![0.5, 0.4, 0.6],
        wall_s: 2.0,
        peak_rss_kb: 1234,
        timed: Tally {
            attempted: 3,
            latencies_us: vec![3.0, 1.0, 2.0],
            deltas: 90,
            ..Tally::default()
        },
        ..Measured::default()
    };
    let line = metrics::result_line(true, &m.timed, &m.end_to_end());
    for (name, unit, _) in listed(&doc, "end_to_end") {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {line}"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} in {line}"
        );
    }
    let parsed = Json::parse(&line).unwrap();
    assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(3));

    // Each workload's traced run yields every per-layer metric.
    let table = layer_table(&corpus(), 1).unwrap();
    for w in Workload::ALL {
        let fx = Fixture::new(w, 9, 2);
        let (traced, untraced) = replay(&fx.plan, Duration::ZERO, 1).unwrap();
        let mut layers = layer_metrics(w, &traced, &untraced, 5000.0, 0.5);
        layers.extend(table.iter().cloned());
        let values: Vec<(String, &str, f64)> = metrics::per_layer()
            .into_iter()
            .map(|(name, unit, _)| {
                let v = *layers
                    .get(&name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                (name, unit, v)
            })
            .collect();
        let line = metrics::result_line(true, &m.timed, &values);
        for (name, unit, _) in listed(&doc, "per_layer") {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{w}: {name}"
            );
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{w}: {unit}"
            );
        }
        // Spans carry parent links and request ids.
        let spans = traced.tracer.spans();
        assert!(spans.iter().any(|s| s.parent.is_some()), "{w}");
        assert!(
            spans
                .iter()
                .filter(|s| s.name == "request")
                .all(|s| s.request >= 1),
            "{w}"
        );
    }
}

#[test]
fn time_metrics_are_scaled_by_the_host_factor() {
    let reference = clockless_perfbench::calib::REFERENCE.as_secs_f64();
    let mut m = Measured {
        setup_s: vec![0.5],
        wall_s: 2.0,
        peak_rss_kb: 1234,
        timed: Tally {
            attempted: 3,
            latencies_us: vec![3.0, 1.0, 2.0],
            deltas: 90,
            ..Tally::default()
        },
        ..Measured::default()
    };
    // No slice timed: the figures are as timed.
    assert_eq!(m.host_factor(), 1.0);
    assert_eq!(m.end_to_end(), m.end_to_end_raw());

    // A host twice as slow as the reference halves the times and
    // doubles the rates; memory is not scaled.
    m.calibration_s = vec![1.5 * reference, 2.5 * reference];
    assert!((m.host_factor() - 2.0).abs() < 1e-12);
    let raw = m.end_to_end_raw();
    for ((name, _, v), (_, unit, r)) in m.end_to_end().into_iter().zip(raw) {
        let want = match unit {
            "s" | "us" => r / 2.0,
            "1/s" => r * 2.0,
            _ => r,
        };
        assert!(
            (v - want).abs() <= 1e-9 * want.abs(),
            "{name}: {v} vs {want}"
        );
    }
}
