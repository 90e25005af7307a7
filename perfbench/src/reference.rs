//! Expected responses, computed in-process before anything is timed.
//!
//! `run` payloads come from the interpreter — the independent oracle —
//! through `Backend::Interpreted` and `json::run_report`; for models
//! synthesized from a DAG the output registers must also equal
//! `Dfg::evaluate` on the same inputs. `faults` and `fleet` payloads
//! come from the same library calls the daemon makes, with the same
//! arguments. Correctness here means agreement across engines and with
//! the data-flow graph: the model is not validated against hardware.

use std::collections::HashMap;

use clockless_core::json::{run_report, Json};
use clockless_core::text::parse_model;
use clockless_core::{Backend, ExecOptions, RunSummary, Value};
use clockless_fleet::{run_batch_with, BatchSpec, FleetConfig};
use clockless_serve::render_ok;
use clockless_verify::{run_campaign, CampaignConfig, CheckerMode};

use crate::workload::{Job, Plan, Workload};

/// What the program must answer to one request.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The exact bytes: the response line for the daemon, standard
    /// output for a one-shot run.
    pub bytes: Vec<u8>,
    /// Delta cycles reported inside the payload.
    pub deltas: u64,
    /// Why the reference itself is wrong (the interpreter disagrees with
    /// the data-flow graph, a fleet job failed, …). A request with a
    /// defect always counts as failed.
    pub defect: Option<String>,
}

/// The campaign configuration the daemon builds for a `faults` request
/// carrying `seed`, `checkers` and `jobs: 1`.
pub fn campaign_config(seed: u64, all: bool) -> CampaignConfig {
    CampaignConfig {
        seed,
        checkers: if all {
            CheckerMode::All
        } else {
            CheckerMode::Off
        },
        workers: 1,
        ..CampaignConfig::default()
    }
}

/// The payload of `run` on `text`: a traced interpreted run.
fn run_payload(text: &str) -> Result<(String, RunSummary), String> {
    let model = parse_model(text).map_err(|e| e.to_string())?;
    let outcome = Backend::Interpreted
        .execute(&model, &ExecOptions::traced())
        .map_err(|e| e.to_string())?;
    Ok((run_report(&model, &outcome.summary), outcome.summary))
}

/// Compares the registers a run reported with what the DAG computes.
fn check_outputs(
    expected: &[(String, i64)],
    actual: impl Fn(&str) -> Option<Value>,
) -> Option<String> {
    expected.iter().find_map(|(reg, want)| {
        let got = actual(reg);
        (got != Some(Value::Num(*want)))
            .then(|| format!("register `{reg}` ended {got:?}, the DFG says {want}"))
    })
}

/// Delta cycles recorded in a payload: `kernel.delta_cycles` of a run
/// document, `totals.delta_cycles` of a campaign or fleet report.
fn payload_deltas(payload: &str) -> Option<u64> {
    let doc = Json::parse(payload).ok()?;
    let section = doc.get("kernel").or_else(|| doc.get("totals"))?;
    section.get("delta_cycles")?.as_u64()
}

fn payload(
    plan: &Plan,
    job: &Job,
    runs: &mut HashMap<usize, (String, Option<String>)>,
) -> (String, Option<String>) {
    match job {
        Job::Run { model, .. } => runs
            .entry(*model)
            .or_insert_with(|| {
                let m = &plan.models[*model];
                match run_payload(&m.text) {
                    Ok((doc, summary)) => {
                        let defect = m.hls.as_ref().and_then(|h| match h.expected_outputs(&[]) {
                            Ok(want) => check_outputs(&want, |r| summary.register(r)),
                            Err(e) => Some(e),
                        });
                        (doc, defect.map(|d| format!("{}: {d}", m.label)))
                    }
                    Err(e) => (String::new(), Some(format!("{}: {e}", m.label))),
                }
            })
            .clone(),
        Job::Faults { model, seed, all } => {
            let m = &plan.models[*model];
            let result = parse_model(&m.text)
                .map_err(|e| e.to_string())
                .and_then(|model| {
                    run_campaign(&model, &campaign_config(*seed, *all)).map_err(|e| e.to_string())
                });
            match result {
                Ok(report) => (report.to_json(), None),
                Err(e) => (String::new(), Some(format!("{}: {e}", m.label))),
            }
        }
        Job::Fleet { spec, stimulus, .. } => {
            let result = BatchSpec::parse(spec, ".")
                .and_then(|spec| run_batch_with(&spec, 1, &FleetConfig::default()))
                .map_err(|e| e.to_string());
            match result {
                Ok(report) => {
                    let mut defect = (report.failed_jobs() > 0)
                        .then(|| format!("{} fleet job(s) failed", report.failed_jobs()));
                    for s in stimulus {
                        let hls = plan.models[s.model]
                            .hls
                            .as_ref()
                            .expect("fleet models are DAGs");
                        let Some(job) = report.job(&s.job) else {
                            defect.get_or_insert_with(|| format!("job `{}` missing", s.job));
                            continue;
                        };
                        let found = match hls.expected_outputs(&s.overrides) {
                            Ok(want) => check_outputs(&want, |r| job.register(r)),
                            Err(e) => Some(e),
                        };
                        if let Some(d) = found {
                            defect.get_or_insert_with(|| format!("job `{}`: {d}", s.job));
                        }
                    }
                    (report.to_json(false), defect)
                }
                Err(e) => (String::new(), Some(e)),
            }
        }
    }
}

/// Expected responses to `jobs`, the `i`-th answering the request with
/// id `id(i)`.
pub fn expected(plan: &Plan, jobs: &[Job], id: impl Fn(usize) -> u64) -> Vec<Expected> {
    let mut runs = HashMap::new();
    jobs.iter()
        .enumerate()
        .map(|(i, job)| {
            let (doc, defect) = payload(plan, job, &mut runs);
            let bytes = match plan.workload {
                Workload::OneshotRun => doc.clone().into_bytes(),
                _ => render_ok(id(i), job.op(), &doc).into_bytes(),
            };
            let deltas = payload_deltas(&doc).unwrap_or(0);
            Expected {
                bytes,
                deltas,
                defect,
            }
        })
        .collect()
}
