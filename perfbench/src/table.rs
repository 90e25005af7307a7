//! The layer table of ROADMAP item 1: parse, lower, compile, execute
//! (traced and untraced), render and the interpreter, timed one by one
//! on `fig1`, `iks_ik`, `iks_fir` and `dag48`. Item 1's ratio gates read
//! straight off it, e.g. one-shot compiled against interpreted is
//! `parse + lower + compile + execute_traced + render` against
//! `parse + interpret + render`.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use clockless_core::json::run_report;
use clockless_core::text::{parse_model, to_text};
use clockless_core::{Backend, ExecOptions, ExecPlan, OptLevel, OptPlan};
use clockless_hls::{random_dag, synthesize, ResourceSet};
use clockless_iks::build_ik_chip;
use clockless_iks::prelude::*;

use crate::metrics::{median, TABLE_MODELS, TABLE_STAGES};

/// Model texts of the table, in [`TABLE_MODELS`] order.
fn table_texts(corpus: &Path) -> Result<Vec<String>, String> {
    let read = |f: &str| std::fs::read_to_string(corpus.join(f)).map_err(|e| format!("{f}: {e}"));
    let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
    let ik = build_ik_chip(to_fx(1.0), to_fx(1.0), constants)
        .map_err(|e| e.to_string())?
        .model;
    // `dag48` exactly as the `opt_pipeline` bench builds it.
    let dag = random_dag(48, 48, 4);
    let names = dag.inputs();
    let inputs: HashMap<&str, i64> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as i64 + 1))
        .collect();
    let dag48 = synthesize(&dag, &ResourceSet::unconstrained(&dag), &inputs)
        .map_err(|e| e.to_string())?
        .model;
    Ok(vec![
        read("fig1.rtl")?,
        to_text(&ik),
        read("iks_fir.rtl")?,
        to_text(&dag48),
    ])
}

/// Median µs of each `(model, stage)` cell over `reps` repetitions.
pub fn layer_table(corpus: &Path, reps: usize) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    let traced = ExecOptions::traced();
    let untraced = ExecOptions::default();
    for (name, text) in TABLE_MODELS.iter().zip(table_texts(corpus)?) {
        let mut samples: [Vec<f64>; TABLE_STAGES.len()] = Default::default();
        for _ in 0..reps {
            let mut lap = {
                let mut t = Instant::now();
                move || {
                    let us = t.elapsed().as_nanos() as f64 / 1e3;
                    t = Instant::now();
                    us
                }
            };
            let model = parse_model(&text).map_err(|e| e.to_string())?;
            samples[0].push(lap());
            let plan = ExecPlan::lower(&model);
            samples[1].push(lap());
            let opt = OptPlan::from_plan(plan, OptLevel::O2.config());
            samples[2].push(lap());
            let outcome = opt.execute(&traced).map_err(|e| e.to_string())?;
            samples[3].push(lap());
            std::hint::black_box(opt.execute(&untraced).map_err(|e| e.to_string())?);
            samples[4].push(lap());
            std::hint::black_box(run_report(&model, &outcome.summary));
            samples[5].push(lap());
            std::hint::black_box(
                Backend::Interpreted
                    .execute(&model, &traced)
                    .map_err(|e| e.to_string())?,
            );
            samples[6].push(lap());
        }
        for (stage, s) in TABLE_STAGES.iter().zip(&samples) {
            out.push((format!("table.{name}.{stage}_us"), median(s)));
        }
    }
    Ok(out)
}
