//! Experiment E4: the IKS chip application (§3, Fig. 3) across the whole
//! flow — microcode → transfers → clock-free simulation → equivalence
//! with the algorithmic level, plus translation to clocked RTL.

use clockless::clocked::{check_clocked_equivalence, ClockScheme, HandshakeSim};
use clockless::core::RtSimulation;
use clockless::iks::prelude::*;
use clockless::iks::{ik_microprogram, ik_opcode_maps, THETA1_REG, THETA2_REG};
use clockless::verify::{cross_check, roundtrip_check};

fn constants() -> IkConstants {
    IkConstants::new(ArmGeometry::new(1.0, 1.0))
}

fn chip_angles(px: f64, py: f64) -> (i64, i64) {
    let chip = build_ik_chip(to_fx(px), to_fx(py), constants()).expect("chip builds");
    let mut sim = RtSimulation::new(&chip.model).expect("elaborates");
    let summary = sim.run_to_completion().expect("runs");
    (
        summary
            .register(THETA1_REG)
            .unwrap()
            .num()
            .expect("θ1 number"),
        summary
            .register(THETA2_REG)
            .unwrap()
            .num()
            .expect("θ2 number"),
    )
}

#[test]
fn pose_grid_matches_golden_model_bit_exactly() {
    let consts = constants();
    let mut checked = 0;
    for ix in -4..=4 {
        for iy in -4..=4 {
            let (px, py) = (ix as f64 * 0.4, iy as f64 * 0.4);
            let r = (px * px + py * py).sqrt();
            if !(0.4..=1.8).contains(&r) {
                continue;
            }
            let Ok(golden) = solve_ik(to_fx(px), to_fx(py), &consts) else {
                continue;
            };
            let (t1, t2) = chip_angles(px, py);
            assert_eq!(t1, golden.theta1, "θ1 at ({px},{py})");
            assert_eq!(t2, golden.theta2, "θ2 at ({px},{py})");
            checked += 1;
        }
    }
    assert!(checked >= 20, "checked only {checked} poses");
}

#[test]
fn chip_works_for_other_geometries() {
    for (l1, l2) in [(2.0, 1.5), (0.8, 1.3), (1.0, 0.5)] {
        let consts = IkConstants::new(ArmGeometry::new(l1, l2));
        let (px, py) = (l1 * 0.7, l2 * 0.9);
        let chip = build_ik_chip(to_fx(px), to_fx(py), consts).unwrap();
        let mut sim = RtSimulation::new(&chip.model).unwrap();
        let summary = sim.run_to_completion().unwrap();
        let golden = solve_ik(to_fx(px), to_fx(py), &consts).unwrap();
        assert_eq!(
            summary.register(THETA1_REG).unwrap().num(),
            Some(golden.theta1)
        );
        assert_eq!(
            summary.register(THETA2_REG).unwrap().num(),
            Some(golden.theta2)
        );
    }
}

#[test]
fn chip_microprogram_is_conflict_free() {
    let chip = build_ik_chip(to_fx(1.0), to_fx(0.8), constants()).unwrap();
    let cc = cross_check(&chip.model).unwrap();
    assert!(cc.predicted.is_empty(), "static: {:?}", cc.predicted);
    assert!(cc.dynamic_only.is_empty(), "dynamic: {:?}", cc.dynamic_only);
}

#[test]
fn chip_tuples_roundtrip_through_processes() {
    let chip = build_ik_chip(to_fx(1.0), to_fx(0.8), constants()).unwrap();
    roundtrip_check(&chip.model).expect("§2.7 mappings invert on the chip model");
}

#[test]
fn chip_translates_to_clocked_rtl_equivalently() {
    let chip = build_ik_chip(to_fx(0.9), to_fx(1.1), constants()).unwrap();
    for scheme in [
        ClockScheme::OneCyclePerStep {
            period_fs: clockless::kernel::NS,
        },
        ClockScheme::TwoCyclesPerStep {
            period_fs: clockless::kernel::NS,
        },
    ] {
        let report = check_clocked_equivalence(&chip.model, scheme).unwrap();
        assert!(report.equivalent(), "{report}");
    }
}

#[test]
fn chip_handshake_rendering_computes_the_same_angles() {
    let chip = build_ik_chip(to_fx(1.3), to_fx(0.4), constants()).unwrap();
    let mut hs = HandshakeSim::new(&chip.model).unwrap();
    hs.run_to_completion().unwrap();
    let golden = solve_ik(to_fx(1.3), to_fx(0.4), &constants()).unwrap();
    assert_eq!(
        hs.register_value(THETA1_REG).unwrap().num(),
        Some(golden.theta1)
    );
    assert_eq!(
        hs.register_value(THETA2_REG).unwrap().num(),
        Some(golden.theta2)
    );
}

/// The §2.7 verification story taken to its conclusion: the chip model
/// is simulated **symbolically** with the pose as variables, and the
/// resulting expressions for θ1/θ2 are proven equal (by normalization)
/// to the algorithmic model's expressions — for *all* inputs, not just
/// the tested poses. `mulfx`/`atan2`/`sqrt` are opaque atoms, so the
/// equality is structural on those and polynomial on the ring fragment.
#[test]
fn ik_microprogram_proven_symbolically_for_all_poses() {
    use clockless::core::Op;
    use clockless::verify::{equivalent, symbolic_run, Expr};
    use std::collections::HashMap;
    use std::rc::Rc;

    let consts = constants();
    let chip = build_ik_chip(to_fx(1.0), to_fx(1.0), consts).unwrap();

    // Bind the pose registers to variables; constants stay concrete.
    let bindings: HashMap<String, Rc<Expr>> = [
        ("M0".to_string(), Expr::var("px")),
        ("M1".to_string(), Expr::var("py")),
    ]
    .into_iter()
    .collect();
    let state = symbolic_run(&chip.model, &bindings).expect("symbolic run");

    // The golden model as expressions, mirroring algorithm::solve_ik
    // step for step with the same operations.
    let frac = clockless::iks::fixed::FRAC;
    let apply = |op: Op, args: Vec<Rc<Expr>>| Expr::apply(op, args).expect("no illegal consts");
    let px = Expr::var("px");
    let py = Expr::var("py");
    let mulfx = |a: &Rc<Expr>, b: &Rc<Expr>| apply(Op::MulFx(frac), vec![a.clone(), b.clone()]);
    let add = |a: Rc<Expr>, b: Rc<Expr>| apply(Op::Add, vec![a, b]);
    let sub = |a: Rc<Expr>, b: Rc<Expr>| apply(Op::Sub, vec![a, b]);
    let g = consts.geometry;
    let (l1, l2) = (Expr::constant(g.l1), Expr::constant(g.l2));
    let one = Expr::constant(clockless::iks::fixed::ONE);

    let r2 = add(mulfx(&px, &px), mulfx(&py, &py));
    let num = sub(r2, Expr::constant(consts.k_sum));
    let c2 = mulfx(&num, &Expr::constant(consts.inv_2l1l2));
    let s2sq = sub(one, mulfx(&c2, &c2));
    let s2 = apply(Op::SqrtFx(frac), vec![s2sq]);
    let theta2 = apply(Op::Atan2Fx(frac), vec![s2.clone(), c2.clone()]);
    let k1 = add(l1, mulfx(&l2, &c2));
    let k2 = mulfx(&l2, &s2);
    let phi = apply(Op::Atan2Fx(frac), vec![py, px]);
    let psi = apply(Op::Atan2Fx(frac), vec![k2, k1]);
    let theta1 = sub(phi, psi);

    assert!(
        equivalent(&state[THETA2_REG], &theta2),
        "θ2: chip {} vs golden {theta2}",
        state[THETA2_REG]
    );
    assert!(
        equivalent(&state[THETA1_REG], &theta1),
        "θ1: chip {} vs golden {theta1}",
        state[THETA1_REG]
    );
}

#[test]
fn microprogram_decode_table_is_total() {
    // Every row of the microprogram decodes against the maps — the
    // paper's "code maps exist" invariant.
    let maps = ik_opcode_maps();
    for row in ik_microprogram() {
        let ops = row.decode(&maps).expect("row decodes");
        assert!(
            !ops.is_empty() || (row.opc1 == 0 && row.opc2 == 0),
            "active row {row:?} decodes to nothing"
        );
    }
}

#[test]
fn unreachable_pose_never_reaches_the_chip() {
    // The reachability check lives in the algorithmic level; the chip
    // model would compute sqrt of a negative number (ILLEGAL).
    assert_eq!(
        solve_ik(to_fx(3.0), to_fx(3.0), &constants()),
        Err(clockless::iks::IkError::Unreachable)
    );
    // Building the chip for such a pose still works structurally…
    let chip = build_ik_chip(to_fx(3.0), to_fx(3.0), constants()).unwrap();
    let mut sim = RtSimulation::traced(&chip.model).unwrap();
    let summary = sim.run_to_completion().unwrap();
    // …and the sqrt of the negative discriminant poisons the datapath:
    // the conflict report localizes the ILLEGAL to the CORDIC core.
    let conflicts = summary.conflicts;
    assert!(
        conflicts.conflicts.iter().any(|c| c.name == "CORDIC"),
        "expected CORDIC ILLEGAL, got {conflicts}"
    );
}

#[test]
fn fir_macc_chip_full_flow() {
    use clockless::iks::fixed::mul_fx;
    use clockless::iks::{build_fir_chip, FIR_OUT_REG};

    let samples = [to_fx(0.5), to_fx(1.5), to_fx(-1.0), to_fx(2.0)];
    let coeffs = [to_fx(2.0), to_fx(-0.5), to_fx(0.25), to_fx(1.0)];
    let model = build_fir_chip(samples, coeffs).expect("fir chip builds");

    // Clock-free result equals the fixed-point dot product.
    let mut sim = RtSimulation::new(&model).unwrap();
    let summary = sim.run_to_completion().unwrap();
    let golden: i64 = samples
        .iter()
        .zip(&coeffs)
        .map(|(&x, &c)| mul_fx(x, c))
        .sum();
    assert_eq!(summary.register(FIR_OUT_REG).unwrap().num(), Some(golden));

    // Static + dynamic conflict detectors agree it is clean, the §2.7
    // semantics invert, and no dataflow lints fire.
    let cc = cross_check(&model).unwrap();
    assert!(cc.predicted.is_empty() && cc.dynamic_only.is_empty());
    roundtrip_check(&model).unwrap();
    let lints = clockless::verify::lint_model(&model);
    assert!(
        !lints.iter().any(|l| matches!(
            l,
            clockless::verify::Lint::DeadWrite { .. }
                | clockless::verify::Lint::ReadOfUndefined { .. }
        )),
        "{lints:?}"
    );

    // The clocked translation is commit-trace equivalent.
    let report = check_clocked_equivalence(
        &model,
        ClockScheme::OneCyclePerStep {
            period_fs: clockless::kernel::NS,
        },
    )
    .unwrap();
    assert!(report.equivalent(), "{report}");

    // And the handshake rendering computes the same sum.
    let mut hs = HandshakeSim::new(&model).unwrap();
    hs.run_to_completion().unwrap();
    assert_eq!(hs.register_value(FIR_OUT_REG).unwrap().num(), Some(golden));
}
