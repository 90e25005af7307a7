//! Experiment E3: conflict detection and localization (§2.7).
//!
//! A matrix of injected scheduling errors, each checked for (a) a dynamic
//! `ILLEGAL` at exactly the predicted step and phase, (b) agreement with
//! the static analysis, (c) rejection by the clocked translation — three
//! independent detectors, one verdict.

use clockless::clocked::{ClockScheme, ClockedDesign};
use clockless::core::prelude::*;
use clockless::verify::{cross_check, static_conflicts};

/// A minimal playground: three loaded registers, two spares, three
/// buses, an adder and two copy units.
fn playground() -> RtModel {
    let mut m = RtModel::new("playground", 10);
    m.add_register_init("A", Value::Num(10)).unwrap();
    m.add_register_init("B", Value::Num(20)).unwrap();
    m.add_register_init("C", Value::Num(30)).unwrap();
    m.add_register("T1").unwrap();
    m.add_register("T2").unwrap();
    for b in ["X", "Y", "Z"] {
        m.add_bus(b).unwrap();
    }
    m.add_module(ModuleDecl::single(
        "ADD",
        Op::Add,
        ModuleTiming::Pipelined { latency: 1 },
    ))
    .unwrap();
    m.add_module(ModuleDecl::single(
        "CP1",
        Op::PassA,
        ModuleTiming::Combinational,
    ))
    .unwrap();
    m.add_module(ModuleDecl::single(
        "CP2",
        Op::PassA,
        ModuleTiming::Combinational,
    ))
    .unwrap();
    m
}

fn assert_conflict_at(model: &RtModel, name: &str, visible: PhaseTime) {
    // Dynamic detector.
    let mut sim = RtSimulation::traced(model).unwrap();
    sim.run_to_completion().unwrap();
    let report = sim.conflicts();
    let first = report
        .first()
        .unwrap_or_else(|| panic!("no conflict found on {name}"));
    assert_eq!(first.name, name, "site: {report}");
    assert_eq!(first.visible_at, visible, "localization: {report}");

    // Static detector agrees.
    let cc = cross_check(model).unwrap();
    assert!(!cc.predicted.is_empty());
    assert!(cc.all_confirmed(), "unconfirmed: {:?}", cc.unconfirmed);

    // The clocked translation rejects the schedule.
    assert!(
        ClockedDesign::translate(model, ClockScheme::default()).is_err(),
        "clocked translation should reject the conflicting schedule"
    );
}

#[test]
fn bus_double_booked_in_read_phase() {
    let mut m = playground();
    m.add_transfer(
        TransferTuple::new(4, "ADD")
            .src_a("A", "X")
            .src_b("B", "Y")
            .write(5, "X", "T1"),
    )
    .unwrap();
    m.add_transfer(
        TransferTuple::new(4, "CP1")
            .src_a("C", "X")
            .write(4, "Z", "T2"),
    )
    .unwrap();
    // Both drive X at ra of step 4; visible at rb.
    assert_conflict_at(&m, "X", PhaseTime::new(4, Phase::Rb));
}

#[test]
fn bus_double_booked_in_write_phase() {
    let mut m = playground();
    m.add_transfer(
        TransferTuple::new(2, "CP1")
            .src_a("A", "X")
            .write(2, "Z", "T1"),
    )
    .unwrap();
    m.add_transfer(
        TransferTuple::new(2, "CP2")
            .src_a("B", "Y")
            .write(2, "Z", "T2"),
    )
    .unwrap();
    // Both results ride Z at wa of step 2; visible at wb.
    assert_conflict_at(&m, "Z", PhaseTime::new(2, Phase::Wb));
}

#[test]
fn module_port_fed_twice() {
    let mut m = playground();
    // Two different buses into ADD.in1 in the same step.
    m.add_transfer(
        TransferTuple::new(3, "ADD")
            .src_a("A", "X")
            .src_b("B", "Y")
            .write(4, "X", "T1"),
    )
    .unwrap();
    // A second tuple cannot reuse ADD.in1 at step 3 through the model
    // builder (it validates arity, not cross-tuple conflicts), so this
    // conflict *is* expressible:
    m.add_transfer(
        TransferTuple::new(3, "ADD")
            .src_a("C", "Z")
            .src_b("B", "Y")
            .write(4, "Z", "T2"),
    )
    .unwrap();
    // ADD.in1 receives X's and Z's values at rb of step 3; visible at cm.
    let mut sim = RtSimulation::traced(&m).unwrap();
    sim.run_to_completion().unwrap();
    let report = sim.conflicts();
    assert!(
        report
            .conflicts
            .iter()
            .any(|c| c.site == ConflictSite::ModulePort
                && c.name == "ADD"
                && c.visible_at == PhaseTime::new(3, Phase::Cm)),
        "{report}"
    );
}

#[test]
fn register_written_twice() {
    let mut m = playground();
    m.add_transfer(
        TransferTuple::new(5, "CP1")
            .src_a("A", "X")
            .write(5, "X", "T1"),
    )
    .unwrap();
    m.add_transfer(
        TransferTuple::new(5, "CP2")
            .src_a("B", "Y")
            .write(5, "Y", "T1"),
    )
    .unwrap();
    // T1's input port gets both at wb of step 5; visible at cr, and the
    // register stores the ILLEGAL (§2.5: everything non-DISC is stored).
    assert_conflict_at(&m, "T1", PhaseTime::new(5, Phase::Cr));
    let mut sim = RtSimulation::new(&m).unwrap();
    sim.run_to_completion().unwrap();
    assert_eq!(sim.poisoned_registers(), vec!["T1".to_string()]);
}

#[test]
fn sequential_module_reinitiated_while_busy() {
    let mut m = RtModel::new("seqbusy", 8);
    m.add_register_init("A", Value::Num(3)).unwrap();
    m.add_register_init("B", Value::Num(4)).unwrap();
    m.add_register("T1").unwrap();
    m.add_register("T2").unwrap();
    for b in ["X", "Y", "Z", "W"] {
        m.add_bus(b).unwrap();
    }
    m.add_module(ModuleDecl::single(
        "MUL",
        Op::Mul,
        ModuleTiming::Sequential { latency: 3 },
    ))
    .unwrap();
    m.add_transfer(
        TransferTuple::new(1, "MUL")
            .src_a("A", "X")
            .src_b("B", "Y")
            .write(4, "Z", "T1"),
    )
    .unwrap();
    // Re-initiate at step 2 < 1 + 3: a busy conflict.
    m.add_transfer(
        TransferTuple::new(2, "MUL")
            .src_a("B", "X")
            .src_b("A", "Y")
            .write(5, "W", "T2"),
    )
    .unwrap();

    // Dynamically: the module poisons its in-flight results.
    let mut sim = RtSimulation::traced(&m).unwrap();
    sim.run_to_completion().unwrap();
    let poisoned = sim.poisoned_registers();
    assert!(
        poisoned.contains(&"T1".to_string()),
        "poisoned: {poisoned:?}"
    );
    assert!(
        poisoned.contains(&"T2".to_string()),
        "poisoned: {poisoned:?}"
    );

    // The clocked translation rejects it statically.
    let err = ClockedDesign::translate(&m, ClockScheme::default()).unwrap_err();
    assert!(matches!(
        err,
        clockless::clocked::TranslateError::SequentialOverlap { step: 2, .. }
    ));
}

#[test]
fn data_dependent_illegality_only_dynamic() {
    // A shift by a *data-dependent* out-of-range amount: statically the
    // schedule is clean; only the dynamic detector can see it (the
    // ablation DESIGN.md calls out).
    let mut m = RtModel::new("datadep", 4);
    m.add_register_init("V", Value::Num(1)).unwrap();
    m.add_register_init("S", Value::Num(99)).unwrap(); // shift amount > 63
    m.add_register("T").unwrap();
    m.add_bus("X").unwrap();
    m.add_bus("Y").unwrap();
    m.add_module(ModuleDecl::single(
        "SH",
        Op::Shr,
        ModuleTiming::Combinational,
    ))
    .unwrap();
    m.add_transfer(
        TransferTuple::new(2, "SH")
            .src_a("V", "X")
            .src_b("S", "Y")
            .write(2, "X", "T"),
    )
    .unwrap();

    assert!(static_conflicts(&m).is_empty(), "statically clean");
    assert!(
        ClockedDesign::translate(&m, ClockScheme::default()).is_ok(),
        "translation accepts it too"
    );
    let cc = cross_check(&m).unwrap();
    assert!(
        !cc.dynamic_only.is_empty(),
        "the dynamic detector alone catches the illegal shift"
    );
    let mut sim = RtSimulation::new(&m).unwrap();
    sim.run_to_completion().unwrap();
    assert_eq!(sim.poisoned_registers(), vec!["T".to_string()]);
}

#[test]
fn conflict_free_models_are_clean_everywhere() {
    let m = fig1_model(5, 9);
    assert!(static_conflicts(&m).is_empty());
    let cc = cross_check(&m).unwrap();
    assert!(cc.predicted.is_empty() && cc.dynamic_only.is_empty());
    assert!(ClockedDesign::translate(&m, ClockScheme::default()).is_ok());
}
