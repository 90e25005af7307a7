//! Parallel conflict sweeps: the static/dynamic cross-check at batch
//! scale.
//!
//! [`cross_check`](crate::conflicts::cross_check) validates one model.
//! When an allocator (or a fuzzer) produces dozens of schedule
//! candidates, running those checks serially wastes the independence of
//! the jobs — exactly the shape the `clockless-fleet` engine exists for.
//! [`conflict_sweep`] farms the (untraced) dynamic runs over a fleet worker
//! pool and folds each result back against its static prediction.

use clockless_core::RtModel;
use clockless_fleet::{run_batch_with, BatchSpec, FleetConfig, FleetError, JobSource, JobSpec};
use clockless_kernel::SimStats;

use crate::conflicts::static_conflicts;

/// One model's verdict within a [`ConflictSweep`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// The model's name.
    pub model: String,
    /// Statically predicted conflict sites.
    pub predicted: usize,
    /// Dynamically observed conflict sites (includes downstream
    /// propagation of a root conflict).
    pub observed: usize,
    /// `true` when every static prediction was confirmed by a dynamic
    /// `ILLEGAL` at the predicted step and phase — the paper's claim
    /// that the two detectors agree.
    pub all_confirmed: bool,
}

/// Results of a parallel conflict sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictSweep {
    /// Per-model rows, in input order.
    pub rows: Vec<SweepRow>,
    /// Merged kernel counters of every dynamic run.
    pub totals: SimStats,
}

impl ConflictSweep {
    /// `true` when no model showed any conflict, statically or
    /// dynamically.
    pub fn all_clean(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.predicted == 0 && r.observed == 0)
    }

    /// `true` when every static prediction across the sweep was
    /// dynamically confirmed (models may still have conflicts — they
    /// just must be *consistent* ones).
    pub fn detectors_agree(&self) -> bool {
        self.rows.iter().all(|r| r.all_confirmed)
    }

    /// Renders the sweep as deterministic JSON (the serve daemon's
    /// `sweep` job payload): per-model rows in input order plus merged
    /// kernel totals, no wall-clock fields.
    ///
    /// # Examples
    ///
    /// ```
    /// use clockless_core::model::fig1_model;
    /// use clockless_verify::sweep::conflict_sweep;
    ///
    /// let sweep = conflict_sweep(&[fig1_model(1, 2)], 1)?;
    /// let json = sweep.to_json();
    /// assert!(json.contains("\"all_clean\": true"), "{json}");
    /// assert!(json.contains("\"model\": \"fig1_example\""), "{json}");
    /// # Ok::<(), clockless_fleet::FleetError>(())
    /// ```
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"sweep\": {{\"models\": {}, \"all_clean\": {}, \"detectors_agree\": {}}},",
            self.rows.len(),
            self.all_clean(),
            self.detectors_agree()
        );
        let _ = writeln!(
            out,
            "  \"totals\": {},",
            clockless_core::json::sim_stats(&self.totals)
        );
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"model\": \"{}\", \"predicted\": {}, \"observed\": {}, \
                 \"all_confirmed\": {}}}{}",
                clockless_core::json::escape(&r.model),
                r.predicted,
                r.observed,
                r.all_confirmed,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs the dynamic conflict detector over every model on `workers`
/// fleet threads and compares against the static analysis.
///
/// # Errors
///
/// Propagates [`FleetError`] from the batch engine (empty input, failed
/// elaboration or simulation).
///
/// # Examples
///
/// ```
/// use clockless_core::model::fig1_model;
/// use clockless_verify::sweep::conflict_sweep;
///
/// let candidates = vec![fig1_model(1, 2), fig1_model(3, 4)];
/// let sweep = conflict_sweep(&candidates, 2)?;
/// assert!(sweep.all_clean());
/// assert!(sweep.detectors_agree());
/// # Ok::<(), clockless_fleet::FleetError>(())
/// ```
pub fn conflict_sweep(models: &[RtModel], workers: usize) -> Result<ConflictSweep, FleetError> {
    let jobs = models
        .iter()
        .enumerate()
        .map(|(i, m)| JobSpec::new(format!("sweep_{i}"), JobSource::Model(Box::new(m.clone()))))
        .collect();
    // A sweep wants errors, not quarantine rows: run fail-fast so a bad
    // candidate aborts with its attributed FleetError.
    let config = FleetConfig {
        fail_fast: true,
        ..FleetConfig::default()
    };
    let report = run_batch_with(&BatchSpec { jobs }, workers, &config)?;

    let rows = models
        .iter()
        .zip(&report.jobs)
        .map(|(model, job)| {
            let job = job
                .result()
                .expect("fail-fast batches only return completed jobs");
            let predicted = static_conflicts(model);
            let all_confirmed = predicted.iter().all(|p| {
                job.conflicts
                    .conflicts
                    .iter()
                    .any(|c| c.name == p.name && c.visible_at == p.visible_at())
            });
            SweepRow {
                model: model.name().to_string(),
                predicted: predicted.len(),
                observed: job.conflicts.conflicts.len(),
                all_confirmed,
            }
        })
        .collect();
    Ok(ConflictSweep {
        rows,
        totals: report.totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::model::fig1_model;
    use clockless_core::text::parse_model;

    fn conflicted() -> RtModel {
        parse_model(
            "model clash steps 4\nregister A init 1\nregister B init 2\nregister T\n\
             bus X\nbus Y\nbus Z\nmodule CPA ops passa comb\nmodule CPB ops passa comb\n\
             transfer (A,X,-,-,2,CPA,2,Y,T)\ntransfer (B,X,-,-,2,CPB,2,Z,T)\n",
        )
        .expect("parses")
    }

    #[test]
    fn sweep_confirms_static_predictions_in_parallel() {
        let models = vec![fig1_model(1, 2), conflicted(), fig1_model(5, 6)];
        let sweep = conflict_sweep(&models, 4).expect("runs");
        assert_eq!(sweep.rows.len(), 3);
        assert!(!sweep.all_clean());
        // Every static prediction is dynamically confirmed — including
        // in the deliberately double-booked model.
        assert!(sweep.detectors_agree());
        let clash = &sweep.rows[1];
        // Bus `X` is double-driven at ra, and both transfers write back
        // into register `T` at wa — two predicted sites.
        assert_eq!(clash.predicted, 2);
        assert!(clash.observed >= 2, "dynamic sees both root sites");
        // Worker count does not change the verdict.
        assert_eq!(sweep, conflict_sweep(&models, 1).expect("runs"));
    }
}
