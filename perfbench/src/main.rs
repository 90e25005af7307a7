use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use clockless_core::json::escape;
use clockless_perfbench::drive::Program;
use clockless_perfbench::metrics::{self, layer_metrics};
use clockless_perfbench::run::{measure, parse_args, work_dir, Args, Measured};
use clockless_perfbench::{program, replay, table, workload};

const USAGE: &str = "usage: perfbench --workload <oneshot-run|serve-run|serve-faults|serve-fleet> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a response failed its check.
fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("src/bin/clockless.rs").is_file() || !root.join("models").is_dir() {
        return Err(
            "run from the root of a clockless checkout (no src/bin/clockless.rs or models/)".into(),
        );
    }
    let bin = program::build(&root)?;
    let program = Program {
        bin,
        cwd: root.clone(),
    };
    let work = work_dir(&root, args);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(&root, &work, args, &program);
    let _ = std::fs::remove_dir_all(&work);
    // Also the parent, when no other run is using it.
    let _ = work.parent().map(std::fs::remove_dir);
    result
}

fn run_in(root: &Path, work: &Path, args: &Args, program: &Program) -> Result<bool, String> {
    let plan = workload::plan(args.workload, args.seed, work, &root.join("models"))?;
    for (path, text) in plan.files() {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = format!(
        "workload={} seed={} seconds={} trace={} nproc={nproc} commit={} source={} binary={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        program::commit(root),
        program::source_digest(root),
        program.bin.display()
    );
    println!("# perfbench {meta}");

    // A traced run reports no end-to-end metric; its timed phase only
    // feeds the overhead residuals, so it lasts half as long and the
    // replay a quarter, keeping a traced run shorter than an untraced one.
    let seconds = Duration::from_secs(args.seconds);
    let timed = if args.trace { seconds / 2 } else { seconds };
    let m = measure(&plan, program, timed)?;
    let e2e = m.end_to_end();
    let (p99, above) = m.p99();
    println!(
        "# {} requests in {} passes over {:.3} s; {} set-up requests in {} set-ups",
        m.timed.attempted,
        m.passes,
        m.wall_s,
        m.setup.attempted,
        m.setup_s.len()
    );
    println!(
        "# host_factor = {} ({} calibration slices, mean over the {} ms reference)",
        metrics::number(m.host_factor()),
        m.calibration_s.len(),
        clockless_perfbench::calib::REFERENCE.as_millis()
    );
    for ((name, unit, v), (_, _, raw)) in e2e.iter().zip(m.end_to_end_raw()) {
        println!(
            "# {name} = {} {unit} (as timed: {})",
            metrics::number(*v),
            metrics::number(raw)
        );
    }
    println!(
        "# error_rate = {} ratio (failed / attempted)",
        m.error_rate()
    );
    println!(
        "# latency_p99_us = {} us as timed (over all {} timed samples, {above} above it; printed, not gated)",
        metrics::number(p99),
        m.timed.latencies_us.len()
    );
    println!(
        "# latency_mean_us = {} us as timed",
        metrics::number(m.mean_latency_us)
    );
    for reason in m.setup.reasons.iter().chain(&m.timed.reasons) {
        println!("# FAILED: {reason}");
    }
    let correct = m.setup.failed + m.timed.failed == 0;
    let mut tally = m.timed.clone();
    tally.attempted += m.setup.attempted;
    tally.failed += m.setup.failed;

    let reported = if args.trace {
        layer_report(root, args, &plan, &m, &meta)?
    } else {
        e2e
    };
    println!("{}", metrics::result_line(correct, &tally, &reported));
    Ok(correct)
}

/// The traced run: replays the timed pass in-process, prints the
/// accounting and the layer table, writes the spans, and returns every
/// per-layer metric.
fn layer_report(
    root: &Path,
    args: &Args,
    plan: &workload::Plan,
    m: &Measured,
    meta: &str,
) -> Result<Vec<(String, &'static str, f64)>, String> {
    let budget = Duration::from_secs(args.seconds) / 4;
    let (traced, untraced) = replay::replay(plan, budget, 1)?;
    let mut layers = layer_metrics(
        args.workload,
        &traced,
        &untraced,
        m.mean_latency_us,
        m.cache_hit_ratio,
    );
    let accounted = metrics::accounted_us(&traced);
    println!(
        "# traced replay: {} requests in {} passes; layer self times {:.1} us + overhead {:.1} us \
         = mean latency {:.1} us (latency_p50_us as timed {:.1})",
        traced.requests,
        traced.passes,
        accounted,
        m.mean_latency_us - accounted,
        m.mean_latency_us,
        m.end_to_end_raw()[1].2
    );
    let table = table::layer_table(&root.join("models"), 25)?;
    println!(
        "# layer table (median us): model {}",
        metrics::TABLE_STAGES.join(" ")
    );
    for row in table.chunks(metrics::TABLE_STAGES.len()) {
        let model = row[0].0.split('.').nth(1).unwrap_or("?");
        let cells: Vec<String> = row.iter().map(|(_, v)| format!("{v:.1}")).collect();
        println!("#   {model:<8} {}", cells.join(" "));
    }
    layers.extend(table);

    let out = root.join("perfbench/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let file = out.join(format!("trace-{}-s{}.jsonl", args.workload, args.seed));
    let doc = format!(
        "{{\"meta\":\"{}\"}}\n{}",
        escape(meta),
        traced.tracer.to_json_lines()
    );
    std::fs::write(&file, doc).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("# spans written to {}", file.display());

    metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let v = *layers
                .get(&name)
                .ok_or_else(|| format!("layer metric {name} missing"))?;
            println!("# {name} = {} {unit}", metrics::number(v));
            Ok((name, unit, v))
        })
        .collect()
}
