//! Locating resource conflicts the paper's way (§2.7).
//!
//! "Simulation results allow easily to locate design errors leading to
//! resource conflicts: it would result to ILLEGAL values of resolved
//! signals in specific simulation cycles associated with a specific phase
//! of a specific control step." This example injects a double-booked bus
//! into an otherwise correct schedule, shows the dynamic conflict report
//! pinpointing step and phase, cross-checks it against the static
//! analysis, and dumps a VCD waveform for inspection.
//!
//! Run with: `cargo run --example conflict_debugging`

use clockless::core::prelude::*;
use clockless::verify::cross_check;

fn build_buggy_model() -> Result<RtModel, ModelError> {
    let mut m = RtModel::new("buggy", 8);
    m.add_register_init("A", Value::Num(10))?;
    m.add_register_init("B", Value::Num(20))?;
    m.add_register_init("C", Value::Num(30))?;
    m.add_register("T1")?;
    m.add_register("T2")?;
    m.add_bus("BusA")?;
    m.add_bus("BusB")?;
    m.add_bus("BusC")?;
    m.add_module(ModuleDecl::single(
        "ADD1",
        Op::Add,
        ModuleTiming::Pipelined { latency: 1 },
    ))?;
    m.add_module(ModuleDecl::single(
        "ADD2",
        Op::Add,
        ModuleTiming::Pipelined { latency: 1 },
    ))?;
    // Correct transfer: T1 := A + B at steps 3/4.
    m.add_transfer(
        TransferTuple::new(3, "ADD1")
            .src_a("A", "BusA")
            .src_b("B", "BusB")
            .write(4, "BusA", "T1"),
    )?;
    // The bug: this transfer also routes its first operand over BusA in
    // step 3 — a scheduling error a designer would make by double-booking
    // the bus.
    m.add_transfer(
        TransferTuple::new(3, "ADD2")
            .src_a("C", "BusA")
            .src_b("B", "BusC")
            .write(4, "BusC", "T2"),
    )?;
    Ok(m)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = build_buggy_model()?;

    // Dynamic detection: run and read the conflict report. The kernel
    // records every ILLEGAL transition as it happens; tracing is only for
    // the waveform exported below.
    let mut sim = RtSimulation::traced(&model)?;
    let summary = sim.run_to_completion()?;
    let report = summary.conflicts;
    println!("dynamic conflict report:\n{report}");
    let first = report.first().expect("the bug is detected");
    assert_eq!(first.name, "BusA");
    assert_eq!(first.visible_at, PhaseTime::new(3, Phase::Rb));
    println!(
        "root cause localized: bus `{}` conflicts, visible at {} (driven at ra).",
        first.name, first.visible_at
    );

    // The poison propagates: both destination registers are ILLEGAL.
    println!(
        "\npoisoned registers after the run: {:?}",
        sim.poisoned_registers()
    );

    // Static cross-check: the scheduler-level analysis predicts the same
    // collision before any simulation.
    let cc = cross_check(&model)?;
    println!(
        "\nstatic analysis predicted {} conflict(s):",
        cc.predicted.len()
    );
    for p in &cc.predicted {
        println!("  {p}  (will be visible at {})", p.visible_at());
    }
    assert!(cc.all_confirmed(), "every prediction must be confirmed");
    println!(
        "all {} prediction(s) confirmed dynamically; {} additional dynamic site(s) are downstream propagation.",
        cc.confirmed.len(),
        cc.dynamic_only.len()
    );

    // Waveform export: delta cycles become VCD timesteps.
    let vcd = sim.to_vcd().expect("traced run");
    let path = std::env::temp_dir().join("clockless_conflict.vcd");
    std::fs::write(&path, &vcd)?;
    println!(
        "\nwaveform with the ILLEGAL value written to {}",
        path.display()
    );
    println!("OK: the conflict was located to an exact control step and phase.");
    Ok(())
}
