//! Job implementations: one function per `op`, each returning the
//! byte-exact document the one-shot CLI would print for the same job.
//!
//! Byte-identity is the contract this module exists to keep: `run`
//! renders through [`clockless_core::json::run_report`], `faults`
//! through `CampaignReport::to_json`, `fleet` through
//! `FleetReport::to_json` — the same functions the CLI calls — so a
//! daemon payload diffs clean against the corresponding one-shot
//! command (`scripts/ci.sh` enforces exactly that).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use clockless_core::text::parse_model;
use clockless_core::{Backend, ExecOptions, OptLevel};
use clockless_fleet::{run_batch_with, BatchSpec, FleetConfig};
use clockless_verify::{conflict_sweep, model_from_vhdl, run_campaign, CampaignConfig};

use crate::cache::{cache_key, CachedPlan, PlanCache};
use crate::daemon::ServeStats;
use crate::protocol::{render_error, render_ok, ErrorCode, JobError, Json, Request};

/// What a job closure gets to work with: the daemon's shared state plus
/// per-submission snapshots.
pub(crate) struct JobCtx {
    pub cache: Arc<Mutex<PlanCache>>,
    pub stats: Arc<ServeStats>,
    /// Queue depth sampled when this job was accepted (reported by
    /// `stats`; a job cannot observe the pool it runs inside).
    pub queue_depth: usize,
    pub workers: usize,
}

/// Executes one parsed request to a complete, newline-terminated
/// response envelope, updating the daemon counters.
pub(crate) fn dispatch(req: &Request, ctx: &JobCtx) -> String {
    let result = match req.op.as_str() {
        "run" => job_run(&req.body, ctx),
        "faults" => job_faults(&req.body, ctx),
        "fleet" => job_fleet(&req.body),
        "sweep" => job_sweep(&req.body, ctx),
        "stats" => Ok(stats_document(ctx)),
        "ping" => Ok("pong\n".to_string()),
        other => Err(JobError::new(
            ErrorCode::UnknownOp,
            format!("unknown op `{other}` (expected run|faults|fleet|sweep|stats|ping|shutdown)"),
        )),
    };
    match result {
        Ok(payload) => {
            ctx.stats.completed.fetch_add(1, Ordering::Relaxed);
            render_ok(req.id, &req.op, &payload)
        }
        Err(e) => {
            ctx.stats.errors.fetch_add(1, Ordering::Relaxed);
            render_error(Some(req.id), Some(&req.op), e.code, &e.message)
        }
    }
}

// ---------------------------------------------------------------- fields

fn bad(message: impl Into<String>) -> JobError {
    JobError::new(ErrorCode::BadRequest, message)
}

fn opt_str<'a>(body: &'a Json, key: &str) -> Result<Option<&'a str>, JobError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a string"))),
    }
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, JobError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_bool(body: &Json, key: &str) -> Result<Option<bool>, JobError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a boolean"))),
    }
}

/// String field parsed through `FromStr` (backend/engine selectors).
fn opt_parse<T: std::str::FromStr>(body: &Json, key: &str) -> Result<Option<T>, JobError> {
    match opt_str(body, key)? {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| bad(format!("invalid `{key}` value `{s}`"))),
    }
}

/// The request's optimization level (`"opt"`, a number `0..=2`); absent
/// means the daemon default, `-O2` — warm runs execute the fully
/// optimized stream unless a client asks for a lower level.
fn opt_level(body: &Json) -> Result<OptLevel, JobError> {
    match opt_u64(body, "opt")? {
        None => Ok(OptLevel::default()),
        Some(0) => Ok(OptLevel::O0),
        Some(1) => Ok(OptLevel::O1),
        Some(2) => Ok(OptLevel::O2),
        Some(n) => Err(bad(format!("`opt` must be 0, 1 or 2 (got {n})"))),
    }
}

/// Worker-thread count for the job's own internal parallelism
/// (`faults`/`fleet`/`sweep`); defaults to 1 so a job never oversubscribes
/// the daemon's pool unless asked to.
fn job_threads(body: &Json) -> Result<usize, JobError> {
    match opt_u64(body, "jobs")? {
        None => Ok(1),
        Some(0) => Err(bad("`jobs` must be >= 1")),
        Some(n) => Ok(n as usize),
    }
}

// ----------------------------------------------------------- model source

/// Resolves the job's model source text: inline `model` text, or a
/// `path` read from the daemon's filesystem (`.vhd`/`.vhdl` paths are
/// parsed as the paper's VHDL subset, like the CLI).
fn model_source(body: &Json) -> Result<(String, bool), JobError> {
    if let Some(text) = opt_str(body, "model")? {
        return Ok((text.to_string(), false));
    }
    if let Some(path) = opt_str(body, "path")? {
        let text = std::fs::read_to_string(path).map_err(|e| {
            JobError::new(ErrorCode::BuildFailed, format!("cannot read {path}: {e}"))
        })?;
        return Ok((text, path.ends_with(".vhd") || path.ends_with(".vhdl")));
    }
    Err(bad(
        "needs `model` (inline text) or `path` (file on the daemon host)",
    ))
}

/// Parses + lowers + optimizes through the daemon's plan cache. The
/// cache key is the content hash of the source text mixed with the
/// source flavor (VHDL sources parse differently from the same bytes)
/// and the optimization level (each level caches its own compiled
/// stream).
fn cache_get(
    ctx: &JobCtx,
    text: &str,
    vhdl: bool,
    opt: OptLevel,
) -> Result<Arc<CachedPlan>, JobError> {
    let key = cache_key(text.as_bytes(), vhdl, opt);
    let mut cache = ctx.cache.lock().unwrap_or_else(|e| e.into_inner());
    cache
        .get_or_insert(key, opt, || {
            if vhdl {
                model_from_vhdl(text).map_err(|e| e.to_string())
            } else {
                parse_model(text).map_err(|e| e.to_string())
            }
        })
        .map_err(|e| JobError::new(ErrorCode::BuildFailed, e))
}

// ------------------------------------------------------------------ jobs

/// `run`: one untraced simulation, rendered as the `clockless run --json`
/// document. The warm path executes the cached
/// [`ExecPlan`](clockless_core::plan::ExecPlan) directly —
/// no parse, no lowering — which is where the daemon's >=5x speedup over
/// one-shot CLI runs comes from. The payload needs no waveform: every
/// engine records conflict sites inline, so no trace, commit log or VCD
/// is built only to be dropped. Backends are observationally
/// byte-identical, so an explicit `"backend":"interpreted"` changes the
/// engine but never the payload.
fn job_run(body: &Json, ctx: &JobCtx) -> Result<String, JobError> {
    let (text, vhdl) = model_source(body)?;
    let backend: Option<Backend> = opt_parse(body, "backend")?;
    let opt = opt_level(body)?;
    let cached = cache_get(ctx, &text, vhdl, opt)?;
    let options = ExecOptions::default().at_opt(opt);
    let outcome = match backend {
        Some(Backend::Interpreted) => Backend::Interpreted.execute(&cached.model, &options),
        _ => cached.execute(&options),
    }
    .map_err(|e| JobError::new(ErrorCode::RunFailed, e.to_string()))?;
    Ok(clockless_core::json::run_report(
        &cached.model,
        &outcome.summary,
    ))
}

/// `faults`: a seeded fault-injection campaign, rendered as the
/// `clockless faults --json` document.
fn job_faults(body: &Json, ctx: &JobCtx) -> Result<String, JobError> {
    let (text, vhdl) = model_source(body)?;
    let opt = opt_level(body)?;
    let cached = cache_get(ctx, &text, vhdl, opt)?;
    let mut config = CampaignConfig {
        workers: job_threads(body)?,
        max_faults: opt_u64(body, "max")?.map(|n| n as usize),
        backend: opt_parse(body, "backend")?.unwrap_or_default(),
        engine: opt_parse(body, "engine")?.unwrap_or_default(),
        checkers: opt_parse(body, "checkers")?.unwrap_or_default(),
        opt,
        ..Default::default()
    };
    if let Some(seed) = opt_u64(body, "seed")? {
        config.seed = seed;
    }
    if let Some(list) = opt_str(body, "classes")? {
        for part in list.split(',') {
            config
                .classes
                .push(part.trim().parse().map_err(|e: String| bad(e))?);
        }
    }
    let report = run_campaign(&cached.model, &config)
        .map_err(|e| JobError::new(ErrorCode::RunFailed, e.to_string()))?;
    Ok(report.to_json())
}

/// `fleet`: a batch over the shared job-queue executor, rendered as the
/// `clockless fleet --json` document. Quarantined jobs stay *inside* the
/// payload (the report rows), exactly as on the CLI — the envelope is
/// still `ok:true`, because the batch itself completed.
fn job_fleet(body: &Json) -> Result<String, JobError> {
    let jobs = job_threads(body)?;
    let timing = opt_bool(body, "timing")?.unwrap_or(false);
    let mut config = FleetConfig {
        fail_fast: opt_bool(body, "fail_fast")?.unwrap_or(false),
        ..FleetConfig::default()
    };
    if let Some(n) = opt_u64(body, "retries")? {
        config.max_retries = n as u32;
    }
    if let Some(n) = opt_u64(body, "delta_budget")? {
        config.delta_budget = Some(n);
    }
    if let Some(ms) = opt_u64(body, "wall_budget_ms")? {
        config.wall_budget = Some(std::time::Duration::from_millis(ms));
    }
    config.backend = opt_parse(body, "backend")?;
    config.opt = opt_level(body)?;

    let spec = if let Some(text) = opt_str(body, "spec")? {
        BatchSpec::parse(text, ".")
            .map_err(|e| JobError::new(ErrorCode::BuildFailed, e.to_string()))?
    } else if let Some(path) = opt_str(body, "path")? {
        BatchSpec::load(path).map_err(|e| JobError::new(ErrorCode::BuildFailed, e.to_string()))?
    } else if let Some(models) = body.get("models").and_then(Json::as_array) {
        let paths: Vec<&str> = models
            .iter()
            .map(|m| {
                m.as_str()
                    .ok_or_else(|| bad("`models` must be an array of paths"))
            })
            .collect::<Result<_, _>>()?;
        BatchSpec::from_rtl_paths(paths)
    } else {
        return Err(bad(
            "needs `spec` (inline text), `path` (.fleet file) or `models` (paths)",
        ));
    };
    let report = run_batch_with(&spec, jobs, &config)
        .map_err(|e| JobError::new(ErrorCode::RunFailed, e.to_string()))?;
    Ok(report.to_json(timing))
}

/// `sweep`: the static/dynamic conflict cross-check over a set of model
/// paths, rendered by `ConflictSweep::to_json`. Models load through the
/// plan cache, so repeated sweeps over the same candidates stay warm.
fn job_sweep(body: &Json, ctx: &JobCtx) -> Result<String, JobError> {
    let Some(paths) = body.get("paths").and_then(Json::as_array) else {
        return Err(bad("needs `paths` (array of model paths)"));
    };
    if paths.is_empty() {
        return Err(bad("`paths` must not be empty"));
    }
    let opt = opt_level(body)?;
    let mut models = Vec::with_capacity(paths.len());
    for p in paths {
        let path = p
            .as_str()
            .ok_or_else(|| bad("`paths` must be an array of strings"))?;
        let text = std::fs::read_to_string(path).map_err(|e| {
            JobError::new(ErrorCode::BuildFailed, format!("cannot read {path}: {e}"))
        })?;
        let vhdl = path.ends_with(".vhd") || path.ends_with(".vhdl");
        models.push(cache_get(ctx, &text, vhdl, opt)?.model.clone());
    }
    let sweep = conflict_sweep(&models, job_threads(body)?)
        .map_err(|e| JobError::new(ErrorCode::RunFailed, e.to_string()))?;
    Ok(sweep.to_json())
}

/// `stats`: the daemon introspection document — cache counters, job
/// tallies, queue depth (sampled at submission).
fn stats_document(ctx: &JobCtx) -> String {
    let cache = ctx.cache.lock().unwrap_or_else(|e| e.into_inner()).stats();
    ctx.stats.document(cache, ctx.queue_depth, ctx.workers)
}
