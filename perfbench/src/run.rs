//! One benchmark run: build, generate, compute references, set up,
//! time, check, and (traced) replay in-process.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use clockless_core::json::Json;
use clockless_serve::decode_payload;

use crate::calib::{self, Calibration};
use crate::drive::{Program, Session};
use crate::metrics::{self, median, quantile, Tally};
use crate::reference::{expected, Expected};
use crate::workload::{pass_id, setup_id, Plan, Request, Workload};

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Run the traced in-process replay and report per-layer metrics.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be an unsigned integer")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be in 1..=60".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The working set is set up at least `MIN_SETUPS` times per run, and
/// again while the set-ups so far took under `SETUP_BUDGET` (at most
/// `MAX_SETUPS` times); `setup_s` is the median. Cheap set-ups thus get
/// many samples, dear ones still several.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// What the untraced, end-to-end part of a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up requests.
    pub setup: Tally,
    /// Timed requests.
    pub timed: Tally,
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase, s.
    pub wall_s: f64,
    /// Whole passes timed.
    pub passes: u64,
    /// Peak RSS of the program, kB.
    pub peak_rss_kb: u64,
    /// The daemon's plan-cache hit ratio after the timed phase (0 for
    /// one-shot runs).
    pub cache_hit_ratio: f64,
    /// Mean latency over every timed pass position, µs.
    pub mean_latency_us: f64,
    /// Durations of the calibration slices timed after each set-up and
    /// between timed requests, s.
    pub calibration_s: Vec<f64>,
}

fn rendered(plan: &Plan, jobs: &[crate::workload::Job], id: impl Fn(usize) -> u64) -> Vec<Request> {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| plan.request(j, id(i)))
        .collect()
}

/// Sends every request once, checking each answer.
fn send_all(session: &mut Session, requests: &[Request], expected: &[Expected], tally: &mut Tally) {
    let mut buf = Vec::new();
    for (req, exp) in requests.iter().zip(expected) {
        let got = session.send(req, &mut buf).map(|()| buf.as_slice());
        tally.observe(exp, got, None);
    }
}

/// The plan-cache hit ratio from the daemon's `stats` op.
fn cache_hit_ratio(session: &mut Session) -> Result<f64, String> {
    let mut buf = Vec::new();
    session.send(
        &Request::Line("{\"id\":0,\"op\":\"stats\"}\n".into()),
        &mut buf,
    )?;
    let payload = decode_payload(&String::from_utf8_lossy(&buf)).ok_or("stats op failed")?;
    let doc = Json::parse(&payload)?;
    let cache = doc.get("cache").ok_or("stats without cache")?;
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap_or(0) as f64;
    let misses = cache.get("misses").and_then(Json::as_u64).unwrap_or(0) as f64;
    Ok(if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    })
}

/// Sets up, then times whole passes until `timed` has passed.
pub fn measure(plan: &Plan, program: &Program, timed: Duration) -> Result<Measured, String> {
    let serve = plan.workload.is_serve();
    let setup_reqs = rendered(plan, &plan.setup, setup_id);
    let pass_reqs = rendered(plan, &plan.pass, pass_id);
    // References first: nothing below may include their cost.
    let setup_exp = expected(plan, &plan.setup, setup_id);
    let pass_exp = expected(plan, &plan.pass, pass_id);

    let mut m = Measured::default();
    let mut cal = Calibration::new();
    let mut session = None;
    let setups = Instant::now();
    while m.setup_s.len() < MIN_SETUPS
        || (setups.elapsed() < SETUP_BUDGET && m.setup_s.len() < MAX_SETUPS)
    {
        if let Some(old) = session.take() {
            let _ = Session::close(old)?;
        }
        let t0 = Instant::now();
        let mut s = Session::open(program, serve)?;
        send_all(&mut s, &setup_reqs, &setup_exp, &mut m.setup);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        session = Some(s);
        cal.slice();
    }
    let mut session = session.expect("at least one set-up");

    let mut buf = Vec::new();
    let mut sum_us = 0.0;
    // Calibration slices run between requests; their time is not the
    // program's and leaves the timed wall time.
    let mut calibrating = Duration::ZERO;
    let start = Instant::now();
    let mut dead = false;
    while !dead && (m.passes == 0 || start.elapsed() < timed) {
        for (req, exp) in pass_reqs.iter().zip(&pass_exp) {
            let t0 = Instant::now();
            let sent = session.send(req, &mut buf);
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            sum_us += us;
            // A daemon that cannot be written to or read from is gone.
            dead = serve && sent.is_err();
            m.timed
                .observe(exp, sent.map(|()| buf.as_slice()), Some(us));
            if dead {
                break;
            }
            calibrating += cal.tick();
        }
        m.passes += 1;
    }
    m.wall_s = (start.elapsed() - calibrating).as_secs_f64();
    m.calibration_s = cal.into_slices();
    m.mean_latency_us = sum_us / m.timed.attempted.max(1) as f64;
    if serve {
        m.cache_hit_ratio = cache_hit_ratio(&mut session)?;
    }
    m.peak_rss_kb = session.close()?;
    Ok(m)
}

impl Measured {
    /// How much slower than [`calib::REFERENCE`] the host ran during
    /// this run's set-ups and timed phase.
    pub fn host_factor(&self) -> f64 {
        calib::host_factor(&self.calibration_s)
    }

    /// The end-to-end metrics, in [`metrics::END_TO_END`] order, at the
    /// reference host speed: times divided by [`Measured::host_factor`],
    /// rates multiplied by it, memory as measured.
    pub fn end_to_end(&self) -> Vec<(String, &'static str, f64)> {
        let k = self.host_factor();
        let scale = [1.0 / k, 1.0 / k, 1.0 / k, k, k, 1.0];
        self.end_to_end_raw()
            .into_iter()
            .zip(scale)
            .map(|((name, unit, v), s)| (name, unit, v * s))
            .collect()
    }

    /// The end-to-end metrics as timed on the host, unscaled.
    pub fn end_to_end_raw(&self) -> Vec<(String, &'static str, f64)> {
        let mut lat = self.timed.latencies_us.clone();
        lat.sort_by(f64::total_cmp);
        let ok = (self.timed.attempted - self.timed.failed) as f64;
        let values = [
            median(&self.setup_s),
            quantile(&lat, 0.50),
            quantile(&lat, 0.90),
            ok / self.wall_s,
            self.timed.deltas as f64 / self.wall_s,
            self.peak_rss_kb as f64,
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name.to_string(), m.unit, v))
            .collect()
    }

    /// Failed over attempted, set-up included.
    pub fn error_rate(&self) -> f64 {
        let attempted = self.setup.attempted + self.timed.attempted;
        (self.setup.failed + self.timed.failed) as f64 / attempted.max(1) as f64
    }

    /// p99 and how many samples lie above it (printed, not gated).
    pub fn p99(&self) -> (f64, usize) {
        let mut lat = self.timed.latencies_us.clone();
        lat.sort_by(f64::total_cmp);
        let p99 = quantile(&lat, 0.99);
        (p99, lat.iter().filter(|&&l| l > p99).count())
    }
}

/// The directory generated model files of one run go to.
pub fn work_dir(root: &Path, args: &Args) -> PathBuf {
    root.join("perfbench/work")
        .join(format!("{}-s{}", args.workload, args.seed))
}
