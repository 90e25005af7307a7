//! The traced run: the same seeded requests replayed in-process through
//! the public entry point of each layer, with a span around every call.
//!
//! The replay makes the calls the program makes for each request, in
//! the same order, with the same arguments (`src/bin/clockless.rs` for
//! one-shot runs, `clockless_serve`'s job functions for daemon
//! requests). Only the process start, argument handling, file reading,
//! pipes, queue and writer thread are missing: that residual is what
//! `cli.overhead_us` and `daemon.overhead_us` report.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use clockless_core::json::run_report;
use clockless_core::text::parse_model;
use clockless_core::{Backend, ExecOptions, ExecPlan, OptLevel, OptPlan, Phase, RtModel};
use clockless_fleet::{run_batch_with, BatchSpec, FleetConfig};
use clockless_hls::{random_dag, synthesize, ResourceSet};
use clockless_serve::cache::cache_key;
use clockless_serve::{render_ok, CacheStats, CachedPlan, PlanCache};
use clockless_verify::{build_checkers, generate_faults, run_campaign_with_faults, CheckerMode};

use crate::reference::campaign_config;
use crate::trace::{SpanId, Tracer};
use crate::workload::{pass_id, setup_id, Job, Plan, Request, Workload};

/// Work counted at the layer boundaries. Every field is a pure
/// function of the requests replayed, so two replays of the same seed
/// and pass count agree exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Bytes handed to `parse_model`.
    pub parse_bytes: u64,
    /// Plans lowered.
    pub lowerings: u64,
    /// Σ actions over every `(step, phase)` slot of the lowered plans.
    pub actions: u64,
    /// Micro-op streams compiled.
    pub compiles: u64,
    /// Σ micro-ops of the compiled streams.
    pub micro_ops: u64,
    /// Delta cycles of interpreted runs.
    pub interp_deltas: u64,
    /// Delta cycles of compiled traced runs.
    pub exec_deltas: u64,
    /// Run reports rendered.
    pub renders: u64,
    /// Σ bytes of rendered reports.
    pub render_bytes: u64,
    /// Σ request line bytes (daemon workloads).
    pub bytes_in: u64,
    /// Σ response line bytes (daemon workloads).
    pub bytes_out: u64,
    /// Campaigns run.
    pub campaigns: u64,
    /// Σ faults injected.
    pub mutants: u64,
    /// Σ faults applicable to their model.
    pub applicable: u64,
    /// Σ campaign coverage (a mean once divided by `campaigns`).
    pub coverage_sum: f64,
    /// Σ fleet jobs.
    pub fleet_jobs: u64,
    /// Σ quarantined fleet jobs.
    pub failed_jobs: u64,
    /// Plan-cache counters of the replay's own cache.
    pub cache: CacheStats,
    /// Working-set items primed into the cache.
    pub primed: u64,
}

/// One replay's spans, counts and timing.
pub struct Replay {
    /// Every span (empty for an untraced replay).
    pub tracer: Tracer,
    /// The counts.
    pub counts: Counts,
    /// Timed requests replayed.
    pub requests: u64,
    /// Whole passes replayed.
    pub passes: u64,
    /// Wall time of the timed requests, ns.
    pub wall_ns: u64,
}

/// Σ `ExecPlan::actions` lengths over every slot.
pub fn plan_actions(plan: &ExecPlan) -> u64 {
    (1..=plan.cs_max())
        .flat_map(|step| Phase::ALL.into_iter().map(move |phase| (step, phase)))
        .map(|(step, phase)| plan.actions(step, phase).map_or(0, <[_]>::len) as u64)
        .sum()
}

struct State<'p> {
    plan: &'p Plan,
    t: Tracer,
    c: Counts,
    cache: PlanCache,
}

const O2: OptLevel = OptLevel::O2;

impl<'p> State<'p> {
    fn new(plan: &'p Plan, traced: bool) -> Result<State<'p>, String> {
        let mut st = State {
            plan,
            t: Tracer::new(traced),
            c: Counts::default(),
            cache: PlanCache::new(64),
        };
        // The daemon's set-up fills its plan cache with one `run` per
        // working-set item; the replay's cache is filled the same way.
        if matches!(plan.workload, Workload::ServeRun | Workload::ServeFaults) {
            for (i, job) in plan.setup.iter().enumerate() {
                if let Job::Run { model, .. } = job {
                    st.t.request(setup_id(i));
                    st.prime(&plan.models[*model].text)?;
                }
            }
        }
        Ok(st)
    }

    fn parse(&mut self, text: &str) -> Result<RtModel, String> {
        let s = self.t.begin("parse");
        let model = parse_model(text).map_err(|e| e.to_string());
        self.t.end(s);
        self.c.parse_bytes += text.len() as u64;
        model
    }

    fn render(&mut self, doc: impl FnOnce() -> String) -> String {
        let s = self.t.begin("render");
        let doc = doc();
        self.t.end(s);
        self.c.renders += 1;
        self.c.render_bytes += doc.len() as u64;
        doc
    }

    /// `clockless run <file> --json [--backend compiled]`.
    fn oneshot(&mut self, model: usize, compiled: bool) -> Result<(), String> {
        let plan = self.plan;
        let model = self.parse(&plan.models[model].text)?;
        let traced = ExecOptions::traced();
        let outcome = if compiled {
            let s = self.t.begin("lower");
            let plan = ExecPlan::lower(&model);
            self.t.end(s);
            self.c.lowerings += 1;
            self.c.actions += plan_actions(&plan);
            let s = self.t.begin("compile");
            let opt = OptPlan::from_plan(plan, O2.config());
            self.t.end(s);
            self.c.compiles += 1;
            self.c.micro_ops += opt.op_count() as u64;
            let s = self.t.begin("execute.traced");
            let outcome = opt.execute(&traced).map_err(|e| e.to_string())?;
            self.t.end(s);
            self.c.exec_deltas += outcome.summary.stats.delta_cycles;
            if self.t.on() {
                let p = self.t.probe("execute.untraced", None);
                std::hint::black_box(
                    opt.execute(&ExecOptions::default())
                        .map_err(|e| e.to_string())?,
                );
                self.t.end(p);
            }
            outcome
        } else {
            let s = self.t.begin("interpret");
            let outcome = Backend::Interpreted
                .execute(&model, &traced)
                .map_err(|e| e.to_string())?;
            self.t.end(s);
            self.c.interp_deltas += outcome.summary.stats.delta_cycles;
            outcome
        };
        self.render(|| run_report(&model, &outcome.summary));
        Ok(())
    }

    /// Loads a working-set item into the cache the way a miss does,
    /// with its parse, lowering and compilation measured.
    fn prime(&mut self, text: &str) -> Result<(), String> {
        let key = cache_key(text.as_bytes(), false, O2);
        let prime = self.t.begin("cache.prime");
        let t = &mut self.t;
        let mut parsed = 0;
        let cached = self.cache.get_or_insert(key, O2, || {
            let s = t.begin("parse");
            let m = parse_model(text).map_err(|e| e.to_string());
            t.end(s);
            parsed = text.len() as u64;
            m
        })?;
        self.t.end(prime);
        self.c.parse_bytes += parsed;
        self.c.primed += 1;
        let p = self.t.probe("lower", Some(prime));
        let plan = ExecPlan::lower(&cached.model);
        self.t.end(p);
        self.c.lowerings += 1;
        self.c.actions += plan_actions(&plan);
        let p = self.t.probe("compile", Some(prime));
        let opt = OptPlan::compile(&plan, O2.config());
        self.t.end(p);
        self.c.compiles += 1;
        self.c.micro_ops += opt.op_count() as u64;
        Ok(())
    }

    /// One daemon request line: decode, job, encode.
    fn serve(&mut self, line: &str, op: &'static str, job: &Job) -> Result<(), String> {
        let s = self.t.begin("protocol.decode");
        let req = clockless_serve::Request::parse(line.trim_end()).map_err(|(_, e)| e.message);
        self.t.end(s);
        let req = req?;
        self.c.bytes_in += line.len() as u64;
        let field = |k: &str| req.body.get(k).and_then(|v| v.as_str()).map(str::to_string);
        let doc = match job {
            Job::Run { .. } => {
                let text = field("model").ok_or("run without model")?;
                let cached = self.lookup(&text)?;
                let s = self.t.begin("execute.traced");
                let outcome = cached
                    .execute(&ExecOptions::traced())
                    .map_err(|e| e.to_string())?;
                self.t.end(s);
                self.c.exec_deltas += outcome.summary.stats.delta_cycles;
                if self.t.on() {
                    let p = self.t.probe("execute.untraced", None);
                    std::hint::black_box(
                        cached
                            .execute(&ExecOptions::default())
                            .map_err(|e| e.to_string())?,
                    );
                    self.t.end(p);
                }
                self.render(|| run_report(&cached.model, &outcome.summary))
            }
            Job::Faults { seed, all, .. } => {
                let text = field("model").ok_or("faults without model")?;
                let cached = self.lookup(&text)?;
                let config = campaign_config(*seed, *all);
                let s = self.t.begin("faults.generate");
                let faults = generate_faults(&cached.model, &config);
                self.t.end(s);
                let campaign = self.t.begin("faults.campaign");
                let report = run_campaign_with_faults(&cached.model, faults, &config)
                    .map_err(|e| e.to_string())?;
                self.t.end(campaign);
                if *all && self.t.on() {
                    let p = self.t.probe("checkers.build", Some(campaign));
                    std::hint::black_box(
                        build_checkers(&cached.model, CheckerMode::All)
                            .map_err(|e| e.to_string())?,
                    );
                    self.t.end(p);
                }
                self.c.campaigns += 1;
                self.c.mutants += report.rows.len() as u64;
                self.c.applicable += report.applicable() as u64;
                self.c.coverage_sum += report.coverage();
                let s = self.t.begin("faults.render");
                let doc = report.to_json();
                self.t.end(s);
                doc
            }
            Job::Fleet { hls, .. } => {
                let text = field("spec").ok_or("fleet without spec")?;
                let s = self.t.begin("fleet.spec");
                let spec = BatchSpec::parse(&text, ".").map_err(|e| e.to_string());
                self.t.end(s);
                let spec = spec?;
                let batch = self.t.begin("fleet.batch");
                let report =
                    run_batch_with(&spec, 1, &FleetConfig::default()).map_err(|e| e.to_string())?;
                self.t.end(batch);
                // Probes for the two layers the batch runs inside itself:
                // on-the-fly synthesis and the interpreter.
                if self.t.on() {
                    self.fleet_probes(&spec, hls, batch)?;
                }
                self.c.fleet_jobs += spec.jobs.len() as u64;
                self.c.failed_jobs += report.failed_jobs() as u64;
                let s = self.t.begin("fleet.render");
                let doc = report.to_json(false);
                self.t.end(s);
                doc
            }
        };
        let s = self.t.begin("protocol.encode");
        let out = render_ok(req.id, op, &doc);
        self.t.end(s);
        self.c.bytes_out += out.len() as u64;
        Ok(())
    }

    /// Re-measures the synthesis and interpretation a fleet batch does
    /// inside `batch`.
    fn fleet_probes(
        &mut self,
        spec: &BatchSpec,
        hls: &[(u64, usize)],
        batch: SpanId,
    ) -> Result<(), String> {
        let p = self.t.probe("hls.synth", Some(batch));
        for &(seed, nodes) in hls {
            let dfg = random_dag(seed, nodes, crate::workload::DAG_INPUTS);
            let names = dfg.inputs();
            let inputs: HashMap<&str, i64> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i as i64 + 1))
                .collect();
            std::hint::black_box(
                synthesize(&dfg, &ResourceSet::unconstrained(&dfg), &inputs)
                    .map_err(|e| e.to_string())?,
            );
        }
        self.t.end(p);
        let models: Vec<RtModel> = spec
            .jobs
            .iter()
            .map(|j| j.resolve().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let p = self.t.probe("interpret", Some(batch));
        for m in &models {
            let out = Backend::Interpreted
                .execute(m, &ExecOptions::traced())
                .map_err(|e| e.to_string())?;
            self.c.interp_deltas += out.summary.stats.delta_cycles;
        }
        self.t.end(p);
        Ok(())
    }

    fn lookup(&mut self, text: &str) -> Result<std::sync::Arc<CachedPlan>, String> {
        let s = self.t.begin("cache.lookup");
        let key = cache_key(text.as_bytes(), false, O2);
        let cached = self
            .cache
            .get_or_insert(key, O2, || parse_model(text).map_err(|e| e.to_string()));
        self.t.end(s);
        cached
    }

    /// Timed request `i`; `line` is its rendered NDJSON line on the
    /// daemon workloads.
    fn request(&mut self, i: usize, line: Option<&str>) -> Result<(), String> {
        let plan = self.plan;
        match (&plan.pass[i], line) {
            (Job::Run { model, compiled }, None) => self.oneshot(*model, *compiled),
            (job, Some(line)) => self.serve(line, job.op(), job),
            (_, None) => Err("daemon requests need their line".into()),
        }
    }

    /// One whole pass; returns its wall time in ns.
    fn pass(&mut self, lines: &[Option<String>]) -> Result<u64, String> {
        let start = Instant::now();
        for (i, line) in lines.iter().enumerate() {
            self.t.request(pass_id(i));
            let root = self.t.begin("request");
            self.request(i, line.as_deref())?;
            self.t.end(root);
        }
        Ok(start.elapsed().as_nanos() as u64)
    }

    fn finish(mut self, passes: u64, wall_ns: u64) -> Replay {
        self.c.cache = self.cache.stats();
        Replay {
            requests: passes * self.plan.pass.len() as u64,
            passes,
            wall_ns,
            tracer: self.t,
            counts: self.c,
        }
    }
}

/// Replays whole passes of `plan` in-process until `budget` has passed
/// (at least `min_passes`), alternating a traced pass with an untraced
/// one so that drift on the host hits both alike. Returns the traced
/// and the untraced replay.
pub fn replay(plan: &Plan, budget: Duration, min_passes: u64) -> Result<(Replay, Replay), String> {
    let lines: Vec<Option<String>> = plan
        .pass
        .iter()
        .enumerate()
        .map(|(i, job)| match plan.request(job, pass_id(i)) {
            Request::Line(l) => Some(l),
            Request::Spawn(_) => None,
        })
        .collect();
    let mut traced = State::new(plan, true)?;
    let mut untraced = State::new(plan, false)?;
    let (mut traced_ns, mut untraced_ns, mut passes) = (0, 0, 0);
    let start = Instant::now();
    while passes < min_passes || start.elapsed() < budget {
        traced_ns += traced.pass(&lines)?;
        untraced_ns += untraced.pass(&lines)?;
        passes += 1;
    }
    Ok((
        traced.finish(passes, traced_ns),
        untraced.finish(passes, untraced_ns),
    ))
}
