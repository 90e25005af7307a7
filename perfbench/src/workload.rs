//! The four workloads: seeded model sets and request streams.
//!
//! Everything here is a pure function of the workload, the seed and the
//! two directories it is given (where generated model files go, and the
//! repository's `models/` corpus). The program under test only ever
//! sees the rendered [`Request`]s and the files [`Plan::files`] lists.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use clockless_core::json::escape;
use clockless_core::text::to_text;
use clockless_core::{ModuleTiming, Op};
use clockless_hls::{
    list_schedule, random_dag, synthesize, Dfg, ResourceClass, ResourceSet, ValueId,
};

use crate::rng::{stratified, Rng};

/// Primary inputs of every generated DAG.
pub const DAG_INPUTS: usize = 8;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One `clockless run <model> --json` child process per request.
    OneshotRun,
    /// `run` requests with inline model text to one warm daemon.
    ServeRun,
    /// `faults` campaign requests to one daemon.
    ServeFaults,
    /// `fleet` requests with an inline spec to one daemon.
    ServeFleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::OneshotRun,
        Workload::ServeRun,
        Workload::ServeFaults,
        Workload::ServeFleet,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotRun => "oneshot-run",
            Workload::ServeRun => "serve-run",
            Workload::ServeFaults => "serve-faults",
            Workload::ServeFleet => "serve-fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload talks to a resident daemon.
    pub fn is_serve(self) -> bool {
        self != Workload::OneshotRun
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What an HLS model must compute: the data-flow graph it was
/// synthesized from, the inputs it was preloaded with, and where the
/// inputs and outputs live.
#[derive(Debug, Clone)]
pub struct HlsRef {
    /// The algorithmic-level reference.
    pub dfg: Dfg,
    /// Input name → preloaded value.
    pub inputs: Vec<(String, i64)>,
    /// Input name → register preloaded with it.
    pub input_regs: Vec<(String, String)>,
    /// Output name → register holding it after the run.
    pub output_regs: Vec<(String, String)>,
}

impl HlsRef {
    /// The expected final value of every output register when the
    /// registers in `overrides` start from the given values instead.
    pub fn expected_outputs(
        &self,
        overrides: &[(String, i64)],
    ) -> Result<Vec<(String, i64)>, String> {
        let mut inputs: HashMap<&str, i64> =
            self.inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        for (reg, value) in overrides {
            let (input, _) = self
                .input_regs
                .iter()
                .find(|(_, r)| r == reg)
                .ok_or_else(|| format!("register `{reg}` holds no input"))?;
            inputs.insert(input.as_str(), *value);
        }
        let outputs = self.dfg.evaluate(&inputs).map_err(|e| e.to_string())?;
        Ok(self
            .output_regs
            .iter()
            .map(|(out, reg)| (reg.clone(), outputs[out]))
            .collect())
    }
}

/// One model of a workload's working set.
#[derive(Debug, Clone)]
pub struct Model {
    /// Short label for reports (`dag017`, `fig1`, …).
    pub label: String,
    /// The model in the text format the program parses.
    pub text: String,
    /// Where the program reads it from, for workloads that pass paths.
    pub path: Option<PathBuf>,
    /// Set for models synthesized from a DAG.
    pub hls: Option<HlsRef>,
}

/// An `rtl` job of a fleet spec whose outputs the benchmark checks.
#[derive(Debug, Clone)]
pub struct StimulusJob {
    /// The job's name in the spec.
    pub job: String,
    /// Index into [`Plan::models`].
    pub model: usize,
    /// `init` overrides: register → value.
    pub overrides: Vec<(String, i64)>,
}

/// One request of a workload, before it is rendered for the wire.
#[derive(Debug, Clone)]
pub enum Job {
    /// Simulate one model (`run`).
    Run {
        /// Index into [`Plan::models`].
        model: usize,
        /// One-shot only: add `--backend compiled`.
        compiled: bool,
    },
    /// A fault campaign (`faults`).
    Faults {
        /// Index into [`Plan::models`].
        model: usize,
        /// The campaign seed.
        seed: u64,
        /// `checkers: all` (else `off`).
        all: bool,
    },
    /// A batch (`fleet`).
    Fleet {
        /// The inline `.fleet` spec.
        spec: String,
        /// `hls random` jobs as `(seed, nodes)`.
        hls: Vec<(u64, usize)>,
        /// The `rtl` jobs with their stimulus.
        stimulus: Vec<StimulusJob>,
    },
}

impl Job {
    /// The protocol op (and one-shot subcommand) of the job.
    pub fn op(&self) -> &'static str {
        match self {
            Job::Run { .. } => "run",
            Job::Faults { .. } => "faults",
            Job::Fleet { .. } => "fleet",
        }
    }
}

/// A rendered request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Spawn the program with these arguments.
    Spawn(Vec<String>),
    /// Write this NDJSON line (newline included) to the daemon.
    Line(String),
}

impl Request {
    /// The bytes the program receives (arguments are NUL-joined).
    pub fn bytes(&self) -> Vec<u8> {
        match self {
            Request::Spawn(args) => args.join("\0").into_bytes(),
            Request::Line(line) => line.clone().into_bytes(),
        }
    }
}

/// A workload instance: its models, the set-up requests that touch each
/// working-set item once, and the pass of timed requests that the
/// timed phase repeats.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed everything was drawn from.
    pub seed: u64,
    /// The working set.
    pub models: Vec<Model>,
    /// One untimed request per working-set item.
    pub setup: Vec<Job>,
    /// The timed requests, in order; the timed phase repeats whole passes.
    pub pass: Vec<Job>,
}

/// Id of the `i`-th timed request of a pass. Ids repeat from pass to
/// pass, so every expected response can be rendered before timing.
pub fn pass_id(i: usize) -> u64 {
    i as u64 + 1
}

/// Id of the `i`-th set-up request.
pub fn setup_id(i: usize) -> u64 {
    1_000_000 + i as u64
}

/// The two-ALU, one-pipelined-multiplier resource set (long schedules).
pub fn constrained_resources() -> ResourceSet {
    ResourceSet::new([
        ResourceClass::new(
            "ALU",
            [Op::Add, Op::Sub, Op::Min, Op::Max, Op::Xor],
            ModuleTiming::Pipelined { latency: 1 },
            2,
        ),
        ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Pipelined { latency: 2 }, 1),
    ])
}

/// Seeded DAGs drawn per generated model; the one of median schedule
/// length is kept.
const DAG_CANDIDATES: usize = 9;

/// The resource set a generated model is synthesized on.
fn resources_for(dfg: &Dfg, constrained: bool) -> ResourceSet {
    if constrained {
        constrained_resources()
    } else {
        ResourceSet::unconstrained(dfg)
    }
}

/// Synthesizes a `random_dag(_, nodes, DAG_INPUTS)` with seeded input
/// values, on the unconstrained or the constrained resource set.
///
/// Of [`DAG_CANDIDATES`] seeded graphs the one whose schedule length is
/// the median is kept. A model's delta cycles follow its schedule
/// length, which for one size spans 4× across unconstrained random
/// graphs; the median keeps the simulated work of a model set, and so
/// `sim_deltas_per_s`, from moving with the seed.
pub fn dag_model(
    rng: &mut Rng,
    label: String,
    nodes: usize,
    constrained: bool,
) -> Result<Model, String> {
    let mut candidates = Vec::with_capacity(DAG_CANDIDATES);
    for _ in 0..DAG_CANDIDATES {
        let dfg = random_dag(rng.next_u64(), nodes, DAG_INPUTS);
        let length = list_schedule(&dfg, &resources_for(&dfg, constrained))
            .map_err(|e| format!("{label}: {e}"))?
            .length;
        candidates.push((length, dfg));
    }
    // Stable: equal lengths keep their draw order.
    candidates.sort_by_key(|(length, _)| *length);
    let (_, dfg) = candidates.swap_remove(DAG_CANDIDATES / 2);
    let resources = resources_for(&dfg, constrained);
    let inputs: Vec<(String, i64)> = dfg
        .inputs()
        .into_iter()
        .map(|name| (name, rng.range_i64(-20, 20)))
        .collect();
    let map: HashMap<&str, i64> = inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let syn = synthesize(&dfg, &resources, &map).map_err(|e| format!("{label}: {e}"))?;
    let mut input_regs: Vec<(String, String)> = syn
        .allocation
        .register_of
        .iter()
        .filter_map(|(v, r)| match v {
            ValueId::Input(name) => Some((name.clone(), format!("r{r}"))),
            _ => None,
        })
        .collect();
    input_regs.sort();
    let mut output_regs: Vec<(String, String)> = syn.output_registers.into_iter().collect();
    output_regs.sort();
    Ok(Model {
        label,
        text: to_text(&syn.model),
        path: None,
        hls: Some(HlsRef {
            dfg,
            inputs,
            input_regs,
            output_regs,
        }),
    })
}

/// `count` DAG models with stratified sizes in `lo..=hi`; odd indices
/// use the constrained resource set, so exactly half of them schedule
/// long and narrow and half short and wide.
fn dag_models(rng: &mut Rng, count: usize, lo: usize, hi: usize) -> Result<Vec<Model>, String> {
    stratified(rng, count, lo, hi)
        .into_iter()
        .enumerate()
        .map(|(i, n)| dag_model(rng, format!("dag{i:03}n{n}"), n, i % 2 == 1))
        .collect()
}

fn corpus_model(corpus: &Path, file: &str) -> Result<Model, String> {
    let path = corpus.join(file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(Model {
        label: file.trim_end_matches(".rtl").to_string(),
        text,
        path: Some(path),
        hls: None,
    })
}

/// Every `*.rtl` file of the corpus, sorted by name.
fn corpus_models(corpus: &Path) -> Result<Vec<Model>, String> {
    let entries =
        std::fs::read_dir(corpus).map_err(|e| format!("cannot list {}: {e}", corpus.display()))?;
    let mut files: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rtl"))
        .collect();
    files.sort();
    files.iter().map(|f| corpus_model(corpus, f)).collect()
}

/// Zipf(1) request counts for `ranks` items over a pass of about `len`
/// requests; every item appears at least once.
fn zipf_counts(ranks: usize, len: usize) -> Vec<usize> {
    let h: f64 = (1..=ranks).map(|k| 1.0 / k as f64).sum();
    (1..=ranks)
        .map(|k| ((len as f64 / (k as f64 * h)).round() as usize).max(1))
        .collect()
}

/// Centre-out order over `n` size-sorted items: the most popular Zipf
/// rank always lands on a mid-sized model, the next ones alternate
/// below and above it. The seed then moves model structure, never the
/// expected cost of the mix.
fn centre_out(n: usize) -> Vec<usize> {
    let mid = n / 2;
    let mut order = vec![mid];
    for d in 1..=n {
        if d <= mid {
            order.push(mid - d);
        }
        if mid + d < n {
            order.push(mid + d);
        }
    }
    order
}

/// One-shot: DAG models written to `dir` plus the corpus.
const ONESHOT_DAGS: usize = 40;
/// Serve-run working set (below the daemon's 64-entry plan cache).
const SERVE_MODELS: usize = 32;
/// Requests in one serve-run pass.
const SERVE_PASS: usize = 256;
/// Fault-campaign DAGs (plus `fig1` and `iks_fir`). Each model is one
/// campaign of a pass, so a pass holds an odd number (35) of distinct
/// campaigns and p50 and p90 fall mid-way inside one campaign's cluster
/// of latencies, never on the edge between two (see the README).
const FAULT_DAGS: usize = 33;
/// Generated models the fleet `rtl` jobs replay.
const FLEET_MODELS: usize = 4;
/// Fleet requests in one pass.
const FLEET_PASS: usize = 12;
/// Stimulus variants per fleet `rtl` model and request.
const FLEET_STIMULI: usize = 3;
/// `hls random` jobs per fleet request.
const FLEET_HLS: usize = 8;
/// `iks ik` jobs per fleet request.
const FLEET_IKS: usize = 4;

/// Builds the plan of `workload` for `seed`. Generated model files go
/// under `dir` (not written here; see [`Plan::files`]); `corpus` is the
/// repository's `models/` directory.
pub fn plan(workload: Workload, seed: u64, dir: &Path, corpus: &Path) -> Result<Plan, String> {
    // Each workload draws from its own stream of the seed.
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut models;
    let mut setup = Vec::new();
    let mut pass = Vec::new();
    match workload {
        Workload::OneshotRun => {
            models = dag_models(&mut rng, ONESHOT_DAGS, 48, 320)?;
            for (i, m) in models.iter_mut().enumerate() {
                m.path = Some(dir.join(format!("oneshot{i:03}.rtl")));
            }
            models.extend(corpus_models(corpus)?);
            for model in 0..models.len() {
                setup.push(Job::Run {
                    model,
                    compiled: false,
                });
                pass.push(Job::Run {
                    model,
                    compiled: false,
                });
                pass.push(Job::Run {
                    model,
                    compiled: true,
                });
            }
            rng.shuffle(&mut pass);
        }
        Workload::ServeRun => {
            models = dag_models(&mut rng, SERVE_MODELS, 48, 320)?;
            setup = (0..models.len())
                .map(|model| Job::Run {
                    model,
                    compiled: false,
                })
                .collect();
            let counts = zipf_counts(SERVE_MODELS, SERVE_PASS);
            for (rank, model) in centre_out(SERVE_MODELS).into_iter().enumerate() {
                for _ in 0..counts[rank] {
                    pass.push(Job::Run {
                        model,
                        compiled: false,
                    });
                }
            }
            rng.shuffle(&mut pass);
        }
        Workload::ServeFaults => {
            models = dag_models(&mut rng, FAULT_DAGS, 32, 128)?;
            models.push(corpus_model(corpus, "fig1.rtl")?);
            models.push(corpus_model(corpus, "iks_fir.rtl")?);
            for model in 0..models.len() {
                // A `run` per model fills the plan cache the campaigns use.
                setup.push(Job::Run {
                    model,
                    compiled: false,
                });
                // `checkers: all` on every other pair of sizes, so both
                // resource sets (alternating by index) get both modes
                // across the size range; the corpus models get one each.
                pass.push(Job::Faults {
                    model,
                    seed: rng.next_u64() >> 16,
                    all: model % 4 >= 2,
                });
            }
            rng.shuffle(&mut pass);
        }
        Workload::ServeFleet => {
            models = dag_models(&mut rng, FLEET_MODELS, 32, 96)?;
            for (i, m) in models.iter_mut().enumerate() {
                m.path = Some(dir.join(format!("fleet{i}.rtl")));
            }
            for model in 0..models.len() {
                setup.push(fleet_job(&models, &[model], 0, &mut rng, "setup", 0, 0)?);
            }
            let all: Vec<usize> = (0..models.len()).collect();
            for _ in 0..FLEET_PASS {
                pass.push(fleet_job(
                    &models,
                    &all,
                    FLEET_STIMULI,
                    &mut rng,
                    "bench",
                    FLEET_HLS,
                    FLEET_IKS,
                )?);
            }
        }
    }
    Ok(Plan {
        workload,
        seed,
        models,
        setup,
        pass,
    })
}

/// One fleet request: `stimuli` seeded-`init` replays of each model in
/// `rtl_models` (a single plain replay when `stimuli` is 0), `hls`
/// on-the-fly random DAGs with stratified sizes and `iks` IK chips.
fn fleet_job(
    models: &[Model],
    rtl_models: &[usize],
    stimuli: usize,
    rng: &mut Rng,
    name: &str,
    hls: usize,
    iks: usize,
) -> Result<Job, String> {
    let mut spec = format!("fleet {name}\n");
    let mut stimulus = Vec::new();
    for &m in rtl_models {
        let model = &models[m];
        let path = model.path.as_ref().expect("fleet models have files");
        let path = path
            .to_str()
            .filter(|p| !p.contains(char::is_whitespace))
            .ok_or_else(|| {
                format!(
                    "fleet specs cannot name {} (whitespace or non-UTF-8 path)",
                    path.display()
                )
            })?;
        let input_regs = &model
            .hls
            .as_ref()
            .expect("fleet models are DAGs")
            .input_regs;
        for s in 0..stimuli.max(1) {
            let job = format!("m{m}s{s}");
            let mut overrides = Vec::new();
            if stimuli > 0 {
                for _ in 0..2 {
                    let (_, reg) = &input_regs[rng.below(input_regs.len() as u64) as usize];
                    overrides.retain(|(r, _): &(String, i64)| r != reg);
                    overrides.push((reg.clone(), rng.range_i64(-20, 20)));
                }
            }
            spec.push_str(&format!("job {job} rtl {path}"));
            for (reg, v) in &overrides {
                spec.push_str(&format!(" init {reg}={v}"));
            }
            spec.push('\n');
            stimulus.push(StimulusJob {
                job,
                model: m,
                overrides,
            });
        }
    }
    let mut dags = Vec::new();
    for (j, n) in stratified(rng, hls, 24, 72).into_iter().enumerate() {
        let seed = rng.next_u64() >> 16;
        spec.push_str(&format!("job h{j} hls random {seed} {n} {DAG_INPUTS}\n"));
        dags.push((seed, n));
    }
    for j in 0..iks {
        let x = 0.5 + 0.7 * rng.unit();
        let y = 0.5 + 0.7 * rng.unit();
        spec.push_str(&format!("job k{j} iks ik {x:.3} {y:.3}\n"));
    }
    Ok(Job::Fleet {
        spec,
        hls: dags,
        stimulus,
    })
}

impl Plan {
    /// Files the program reads: `(path, contents)` for every generated
    /// model that is passed by path.
    pub fn files(&self) -> Vec<(&Path, &str)> {
        self.models
            .iter()
            .filter(|m| m.hls.is_some())
            .filter_map(|m| m.path.as_deref().map(|p| (p, m.text.as_str())))
            .collect()
    }

    /// Renders `job` as the request the program receives.
    pub fn request(&self, job: &Job, id: u64) -> Request {
        match (self.workload, job) {
            (Workload::OneshotRun, Job::Run { model, compiled }) => {
                let path = self.models[*model].path.as_ref().expect("one-shot models have files");
                let mut args = vec!["run".to_string(), path.display().to_string(), "--json".to_string()];
                if *compiled {
                    args.extend(["--backend".to_string(), "compiled".to_string()]);
                }
                Request::Spawn(args)
            }
            (_, Job::Run { model, .. }) => Request::Line(format!(
                "{{\"id\":{id},\"op\":\"run\",\"model\":\"{}\"}}\n",
                escape(&self.models[*model].text)
            )),
            (_, Job::Faults { model, seed, all }) => Request::Line(format!(
                "{{\"id\":{id},\"op\":\"faults\",\"model\":\"{}\",\"seed\":{seed},\"checkers\":\"{}\",\"jobs\":1}}\n",
                escape(&self.models[*model].text),
                if *all { "all" } else { "off" }
            )),
            (_, Job::Fleet { spec, .. }) => Request::Line(format!(
                "{{\"id\":{id},\"op\":\"fleet\",\"spec\":\"{}\",\"jobs\":1}}\n",
                escape(spec)
            )),
        }
    }

    /// The whole request stream (set-up, then one pass) as bytes, one
    /// request per record.
    pub fn stream_bytes(&self) -> Vec<u8> {
        let setup = self
            .setup
            .iter()
            .enumerate()
            .map(|(i, j)| self.request(j, setup_id(i)));
        let pass = self
            .pass
            .iter()
            .enumerate()
            .map(|(i, j)| self.request(j, pass_id(i)));
        let mut out = Vec::new();
        for r in setup.chain(pass) {
            out.extend(r.bytes());
            out.push(b'\x1e');
        }
        out
    }
}
