//! Experiment E3 (§2.7 conflict localization): every injected conflict is
//! found at exactly the predicted step and phase; the bench measures the
//! cost of the traced run plus report extraction, and of the static
//! analysis, across conflict densities.

use clockless_bench::conflicted_model;
use clockless_bench::harness::Harness;
use clockless_core::{Phase, PhaseTime, RtSimulation};
use clockless_verify::{cross_check, static_conflicts};

fn report() {
    eprintln!("--- E3: conflict detection and localization ---");
    eprintln!(
        "{:>8} {:>10} {:>10} {:>12} {:>14}",
        "pairs", "predicted", "confirmed", "dyn-only", "localization"
    );
    for pairs in [1usize, 4, 16] {
        let model = conflicted_model(pairs);
        let cc = cross_check(&model).expect("runs");
        // Every injected pair is predicted and confirmed at (step, rb).
        let mut exact = true;
        for i in 0..pairs {
            let want = PhaseTime::new(2 * i as u32 + 1, Phase::Rb);
            exact &= cc
                .confirmed
                .iter()
                .any(|p| p.name == format!("X{i}") && p.visible_at() == want);
        }
        eprintln!(
            "{pairs:>8} {:>10} {:>10} {:>12} {:>14}",
            cc.predicted.len(),
            cc.confirmed.len(),
            cc.dynamic_only.len(),
            if exact { "exact" } else { "MISSED" }
        );
        assert!(cc.all_confirmed());
        assert!(exact);
    }
}

fn main() {
    report();
    let mut h = Harness::new();
    {
        let mut g = h.group("conflict_detection");

        for pairs in [1usize, 4, 16] {
            let model = conflicted_model(pairs);
            g.bench(format!("dynamic_traced_run/{pairs}"), || {
                let mut sim = RtSimulation::traced(&model).expect("elaborates");
                sim.run_to_completion().expect("runs");
                sim.conflicts()
            });
            g.bench(format!("static_analysis/{pairs}"), || {
                static_conflicts(&model)
            });
        }
    }
    h.print_table();
}
