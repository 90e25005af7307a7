//! Shared workload builders for the experiment benches.
//!
//! Every bench in `benches/` regenerates one experiment of DESIGN.md's
//! per-experiment index (E1–E8). The builders here produce the
//! parameterized models those benches sweep over.

use clockless_core::prelude::*;

pub mod harness;
pub mod snapshot;

/// A dense synthetic schedule: `width` independent accumulate transfers
/// (`A_i := A_i + B_i`) in each of `depth` read/write step pairs —
/// the workload used by the style-comparison and timing experiments.
///
/// # Panics
///
/// Panics only on internal name collisions (impossible for fresh builds).
pub fn dense_model(width: usize, depth: u32) -> RtModel {
    let mut m = RtModel::new(format!("dense_w{width}_d{depth}"), depth * 2);
    for i in 0..width {
        m.add_register_init(format!("A{i}"), Value::Num(i as i64 + 1))
            .expect("fresh name");
        m.add_register_init(format!("B{i}"), Value::Num(2 * i as i64 + 1))
            .expect("fresh name");
        m.add_bus(format!("X{i}")).expect("fresh name");
        m.add_bus(format!("Y{i}")).expect("fresh name");
        m.add_module(ModuleDecl::single(
            format!("ADD{i}"),
            Op::Add,
            ModuleTiming::Pipelined { latency: 1 },
        ))
        .expect("fresh name");
    }
    for d in 0..depth {
        let read = 2 * d + 1;
        for i in 0..width {
            m.add_transfer(
                TransferTuple::new(read, format!("ADD{i}"))
                    .src_a(format!("A{i}"), format!("X{i}"))
                    .src_b(format!("B{i}"), format!("Y{i}"))
                    .write(read + 1, format!("X{i}"), format!("A{i}")),
            )
            .expect("schedule is valid by construction");
        }
    }
    m
}

/// A model with `pairs` deliberately double-booked buses (each conflict
/// pair drives one bus at the same `ra` phase) plus `pairs` clean
/// transfers, for the conflict-localization experiment.
///
/// # Panics
///
/// Panics only on internal name collisions.
pub fn conflicted_model(pairs: usize) -> RtModel {
    let steps = (pairs as u32).max(1) * 2 + 2;
    let mut m = RtModel::new(format!("conflicted_{pairs}"), steps);
    for i in 0..pairs {
        m.add_register_init(format!("A{i}"), Value::Num(1))
            .expect("fresh");
        m.add_register_init(format!("B{i}"), Value::Num(2))
            .expect("fresh");
        m.add_register(format!("T{i}")).expect("fresh");
        m.add_register(format!("U{i}")).expect("fresh");
        m.add_bus(format!("X{i}")).expect("fresh");
        m.add_bus(format!("Y{i}")).expect("fresh");
        m.add_bus(format!("Z{i}")).expect("fresh");
        m.add_module(ModuleDecl::single(
            format!("CPA{i}"),
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .expect("fresh");
        m.add_module(ModuleDecl::single(
            format!("CPB{i}"),
            Op::PassA,
            ModuleTiming::Combinational,
        ))
        .expect("fresh");
        let s = 2 * i as u32 + 1;
        // The colliding pair: both read over X_i at step s.
        m.add_transfer(
            TransferTuple::new(s, format!("CPA{i}"))
                .src_a(format!("A{i}"), format!("X{i}"))
                .write(s, format!("Y{i}"), format!("T{i}")),
        )
        .expect("valid");
        m.add_transfer(
            TransferTuple::new(s, format!("CPB{i}"))
                .src_a(format!("B{i}"), format!("X{i}"))
                .write(s, format!("Z{i}"), format!("U{i}")),
        )
        .expect("valid");
        // A clean transfer one step later.
        m.add_transfer(
            TransferTuple::new(s + 1, format!("CPA{i}"))
                .src_a(format!("B{i}"), format!("Y{i}"))
                .write(s + 1, format!("Z{i}"), format!("T{i}")),
        )
        .expect("valid");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockless_core::RtSimulation;

    #[test]
    fn dense_model_runs_clean() {
        let m = dense_model(4, 3);
        let mut sim = RtSimulation::traced(&m).unwrap();
        let summary = sim.run_to_completion().unwrap();
        assert!(summary.conflicts.is_clean());
        // A_0 = 1 + 3 * 1
        assert_eq!(summary.register("A0"), Some(Value::Num(4)));
    }

    #[test]
    fn conflicted_model_has_expected_conflict_sites() {
        let m = conflicted_model(3);
        let mut sim = RtSimulation::traced(&m).unwrap();
        let summary = sim.run_to_completion().unwrap();
        let report = summary.conflicts;
        for i in 0..3 {
            assert!(
                report.on(&format!("X{i}")).count() >= 1,
                "bus X{i} must conflict: {report}"
            );
        }
    }
}
