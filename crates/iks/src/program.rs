//! The inverse-kinematics microprogram.
//!
//! The original IKS microprogram (Leung & Shanblatt) is not available;
//! per DESIGN.md we write real microcode in the reconstructed format for
//! the two-link planar inverse kinematics of
//! [`crate::algorithm::solve_ik`], scheduled onto the Fig. 3 resources:
//!
//! | cycle | MULT (lat 2)        | ZADD (comb)    | CORDIC (seq, lat 8)     |
//! |-------|---------------------|----------------|--------------------------|
//! | 1     | px·px               |                |                          |
//! | 2     | py·py               |                | atan2(py, px) → φ        |
//! | 3     | → X                 |                |                          |
//! | 4     | → Y                 |                |                          |
//! | 5     |                     | Z := X+Y (r²)  |                          |
//! | 6     |                     | Z := Z−M2      |                          |
//! | 7     | Z·M3 (c2)           |                |                          |
//! | 9     | → X                 |                |                          |
//! | 10    | X·X (c2²)           |                | → P (φ)                  |
//! | 12    | → Y                 |                |                          |
//! | 13    |                     | Z := M4−Y      |                          |
//! | 14    |                     |                | sqrt(Z) (s2)             |
//! | 15    | M6·X (l2·c2)        |                |                          |
//! | 17    | → Z                 |                |                          |
//! | 18    |                     | Z := M5+Z (k1) |                          |
//! | 22    |                     |                | → Y (s2)                 |
//! | 23    | M6·Y (k2)           |                | atan2(Y, X) (θ2)         |
//! | 25    | → R0                |                |                          |
//! | 31    |                     |                | → J1 (θ2); atan2(R0, Z)  |
//! | 39    |                     |                | → R1 (ψ)                 |
//! | 40    |                     | J0 := P−R1     |                          |
//!
//! The `M[]` file holds the pose and the host-precomputed constants:
//! `M0 = px`, `M1 = py`, `M2 = l1²+l2²`, `M3 = 1/(2·l1·l2)`, `M4 = 1.0`,
//! `M5 = l1`, `M6 = l2`.

use clockless_core::{Op, RtModel};

use crate::algorithm::IkConstants;
use crate::fixed::{FRAC, ONE};
use crate::microcode::{Field, MicroInstruction, MicroOpTemplate, OpcodeMaps, OperandPort, RegRef};
use crate::resources::chip_model;
use crate::translate::{translate, TranslateMicrocodeError};

/// Total control steps of the IK microprogram.
pub const IK_STEPS: u32 = 40;

/// Register holding θ1 after the run.
pub const THETA1_REG: &str = "J0";
/// Register holding θ2 after the run.
pub const THETA2_REG: &str = "J1";

fn operand(src: RegRef, bus: &str, module: &str, port: OperandPort) -> MicroOpTemplate {
    MicroOpTemplate::Operand {
        src,
        bus: bus.into(),
        module: module.into(),
        port,
    }
}

fn result(module: &str, bus: &str, dst: RegRef) -> MicroOpTemplate {
    MicroOpTemplate::Result {
        module: module.into(),
        bus: bus.into(),
        dst,
    }
}

fn operation(module: &str, op: Op) -> MicroOpTemplate {
    MicroOpTemplate::Operation {
        module: module.into(),
        op,
    }
}

/// The opcode maps of the IK microprogram.
///
/// Routing codes (`opc1`): 1x = multiplier operand routes, 2x = CORDIC
/// operand routes, 4x = result routes, 5x = the combined configurations
/// a single cycle needs. Operation codes (`opc2`) select what the
/// multiplier, adder and CORDIC core compute.
pub fn ik_opcode_maps() -> OpcodeMaps {
    use Field::{Mr, J, R1};
    use OperandPort::{In1, In2};

    let m_mr = || RegRef::indexed("M", Mr);
    let m_r1 = || RegRef::indexed("M", R1);
    let m_j = || RegRef::indexed("M", J);
    let r_r1 = || RegRef::indexed("R", R1);
    let j_j = || RegRef::indexed("J", J);
    let x = || RegRef::named("X");
    let y = || RegRef::named("Y");
    let z = || RegRef::named("Z");
    let p = || RegRef::named("P");

    let mut maps = OpcodeMaps::default();
    let o1 = &mut maps.opc1;
    o1.insert(0, vec![]);
    o1.insert(
        10,
        vec![
            operand(m_mr(), "BusA", "MULT", In1),
            operand(m_r1(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        11,
        vec![
            operand(x(), "BusA", "MULT", In1),
            operand(x(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        12,
        vec![
            operand(z(), "BusA", "MULT", In1),
            operand(m_mr(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        13,
        vec![
            operand(m_mr(), "BusA", "MULT", In1),
            operand(x(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        14,
        vec![
            operand(m_mr(), "BusA", "MULT", In1),
            operand(y(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        15,
        vec![
            operand(m_mr(), "BusA", "MULT", In1),
            operand(z(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        16,
        vec![
            operand(m_mr(), "BusA", "MULT", In1),
            operand(p(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(21, vec![operand(z(), "LCA", "CORDIC", In1)]);
    o1.insert(40, vec![result("MULT", "W", x())]);
    o1.insert(41, vec![result("MULT", "W", y())]);
    o1.insert(42, vec![result("MULT", "W", z())]);
    o1.insert(43, vec![result("MULT", "W", r_r1())]);
    o1.insert(47, vec![result("CORDIC", "W", y())]);
    o1.insert(49, vec![result("CORDIC", "W", r_r1())]);
    o1.insert(
        50,
        vec![
            operand(m_r1(), "BusA", "MULT", In1),
            operand(m_r1(), "BusB", "MULT", In2),
            operand(m_mr(), "LCA", "CORDIC", In1),
            operand(m_j(), "LCB", "CORDIC", In2),
        ],
    );
    o1.insert(
        51,
        vec![
            operand(x(), "LZA", "ZADD", In1),
            operand(y(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
        ],
    );
    o1.insert(
        52,
        vec![
            operand(z(), "LZA", "ZADD", In1),
            operand(m_mr(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
        ],
    );
    o1.insert(
        53,
        vec![
            result("CORDIC", "W", p()),
            operand(x(), "BusA", "MULT", In1),
            operand(x(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        54,
        vec![
            operand(m_mr(), "LZA", "ZADD", In1),
            operand(y(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
        ],
    );
    o1.insert(
        55,
        vec![
            operand(m_mr(), "LZA", "ZADD", In1),
            operand(z(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
        ],
    );
    o1.insert(
        56,
        vec![
            operand(m_mr(), "BusA", "MULT", In1),
            operand(y(), "BusB", "MULT", In2),
            operand(y(), "LCA", "CORDIC", In1),
            operand(x(), "LCB", "CORDIC", In2),
        ],
    );
    o1.insert(
        57,
        vec![
            result("CORDIC", "W", j_j()),
            operand(r_r1(), "LCA", "CORDIC", In1),
            operand(z(), "LCB", "CORDIC", In2),
        ],
    );
    o1.insert(
        58,
        vec![
            operand(p(), "LZA", "ZADD", In1),
            operand(r_r1(), "LZB", "ZADD", In2),
            result("ZADD", "W", j_j()),
        ],
    );

    // Codes 60+: the forward-kinematics configurations.
    o1.insert(
        60,
        vec![
            operand(m_mr(), "LZA", "ZADD", In1),
            operand(m_r1(), "LZB", "ZADD", In2),
            result("ZADD", "W", p()),
            operand(m_j(), "LCA", "CORDIC", In1),
        ],
    );
    o1.insert(
        61,
        vec![
            result("CORDIC", "W", x()),
            operand(m_j(), "LCA", "CORDIC", In1),
        ],
    );
    o1.insert(
        62,
        vec![
            result("CORDIC", "W", y()),
            operand(p(), "LCA", "CORDIC", In1),
        ],
    );
    o1.insert(
        63,
        vec![
            result("CORDIC", "W", z()),
            operand(p(), "LCA", "CORDIC", In1),
        ],
    );
    o1.insert(64, vec![result("CORDIC", "W", p())]);
    o1.insert(
        66,
        vec![
            operand(RegRef::indexed("R", R1), "LZA", "ZADD", In1),
            operand(RegRef::indexed("R", Mr), "LZB", "ZADD", In2),
            result("ZADD", "W", j_j()),
        ],
    );

    // Codes 67+: the MACC/FIR configurations (the paper names "MACC,
    // multiplier/accumulator" among the modeled resources).
    o1.insert(
        67,
        vec![
            operand(z(), "LZA", "ZADD", In1),
            operand(r_r1(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
        ],
    );
    o1.insert(
        68,
        vec![
            operand(z(), "LZA", "ZADD", In1),
            operand(r_r1(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
            result("MULT", "BusB", RegRef::indexed("R", Mr)),
        ],
    );
    o1.insert(
        69,
        vec![
            result("MULT", "W", x()),
            operand(m_mr(), "BusA", "MULT", In1),
            operand(m_r1(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        70,
        vec![
            result("MULT", "W", y()),
            operand(m_mr(), "BusA", "MULT", In1),
            operand(m_r1(), "BusB", "MULT", In2),
        ],
    );
    o1.insert(
        71,
        vec![
            result("MULT", "BusB", RegRef::indexed("R", J)),
            operand(x(), "LZA", "ZADD", In1),
            operand(y(), "LZB", "ZADD", In2),
            result("ZADD", "W", z()),
        ],
    );

    let o2 = &mut maps.opc2;
    o2.insert(0, vec![]);
    o2.insert(1, vec![operation("MULT", Op::MulFx(FRAC))]);
    o2.insert(2, vec![operation("ZADD", Op::Add)]);
    o2.insert(3, vec![operation("ZADD", Op::Sub)]);
    o2.insert(4, vec![operation("CORDIC", Op::SqrtFx(FRAC))]);
    o2.insert(
        5,
        vec![
            operation("MULT", Op::MulFx(FRAC)),
            operation("CORDIC", Op::Atan2Fx(FRAC)),
        ],
    );
    o2.insert(6, vec![operation("CORDIC", Op::Atan2Fx(FRAC))]);
    o2.insert(
        7,
        vec![
            operation("ZADD", Op::Add),
            operation("CORDIC", Op::CosFx(FRAC)),
        ],
    );
    o2.insert(8, vec![operation("CORDIC", Op::SinFx(FRAC))]);
    o2.insert(9, vec![operation("CORDIC", Op::CosFx(FRAC))]);

    maps
}

/// The IK microprogram: one row per active cycle
/// (`addr cycle opc1 opc2 j r1 mr`, the paper's table format).
pub fn ik_microprogram() -> Vec<MicroInstruction> {
    let row = |addr, step, opc1, opc2, j, r1, mr| MicroInstruction {
        addr,
        step,
        opc1,
        opc2,
        j,
        r1,
        mr,
    };
    vec![
        row(0, 1, 10, 1, 0, 0, 0),   // MULT px·px
        row(1, 2, 50, 5, 0, 1, 1),   // MULT py·py ; CORDIC atan2(M1, M0)
        row(2, 3, 40, 0, 0, 0, 0),   // X := px²
        row(3, 4, 41, 0, 0, 0, 0),   // Y := py²
        row(4, 5, 51, 2, 0, 0, 0),   // Z := X + Y
        row(5, 6, 52, 3, 0, 0, 2),   // Z := Z − M2
        row(6, 7, 12, 1, 0, 0, 3),   // MULT Z·M3
        row(7, 9, 40, 0, 0, 0, 0),   // X := c2
        row(8, 10, 53, 1, 0, 0, 0),  // P := φ ; MULT X·X
        row(9, 12, 41, 0, 0, 0, 0),  // Y := c2²
        row(10, 13, 54, 3, 0, 0, 4), // Z := M4 − Y
        row(11, 14, 21, 4, 0, 0, 0), // CORDIC sqrt(Z)
        row(12, 15, 13, 1, 0, 0, 6), // MULT M6·X
        row(13, 17, 42, 0, 0, 0, 0), // Z := l2·c2
        row(14, 18, 55, 2, 0, 0, 5), // Z := M5 + Z  (k1)
        row(15, 22, 47, 0, 0, 0, 0), // Y := s2
        row(16, 23, 56, 5, 0, 0, 6), // MULT M6·Y ; CORDIC atan2(Y, X)
        row(17, 25, 43, 0, 0, 0, 0), // R0 := k2
        row(18, 31, 57, 6, 1, 0, 0), // J1 := θ2 ; CORDIC atan2(R0, Z)
        row(19, 39, 49, 0, 0, 1, 0), // R1 := ψ
        row(20, 40, 58, 3, 0, 1, 0), // J0 := P − R1
    ]
}

/// Total control steps of the forward-kinematics microprogram.
pub const FK_STEPS: u32 = 37;

/// Register holding the x coordinate after a forward-kinematics run.
pub const FK_X_REG: &str = "J0";
/// Register holding the y coordinate after a forward-kinematics run.
pub const FK_Y_REG: &str = "J1";

/// The forward-kinematics microprogram: computes
/// `x = l1·cos θ1 + l2·cos(θ1+θ2)`, `y = l1·sin θ1 + l2·sin(θ1+θ2)` on
/// the same chip resources, with the CORDIC core in rotation mode
/// (`M0 = θ1`, `M1 = θ2`, `M5 = l1`, `M6 = l2`):
///
/// | cycle | MULT       | ZADD             | CORDIC                  |
/// |-------|------------|------------------|-------------------------|
/// | 1     |            | P := θ1+θ2       | cos(θ1)                 |
/// | 9     |            |                  | → X ; sin(θ1)           |
/// | 10    | l1·X       |                  |                         |
/// | 12    | → R0       |                  |                         |
/// | 17    |            |                  | → Y ; cos(P)            |
/// | 18    | l1·Y       |                  |                         |
/// | 20    | → R1       |                  |                         |
/// | 25    |            |                  | → Z ; sin(P)            |
/// | 26    | l2·Z       |                  |                         |
/// | 28    | → R2       |                  |                         |
/// | 29    |            | J0 := R0+R2 (x)  |                         |
/// | 33    |            |                  | → P                     |
/// | 34    | l2·P       |                  |                         |
/// | 36    | → R3       |                  |                         |
/// | 37    |            | J1 := R1+R3 (y)  |                         |
pub fn fk_microprogram() -> Vec<MicroInstruction> {
    let row = |addr, step, opc1, opc2, j, r1, mr| MicroInstruction {
        addr,
        step,
        opc1,
        opc2,
        j,
        r1,
        mr,
    };
    vec![
        row(0, 1, 60, 7, 0, 1, 0),   // ZADD M0+M1 -> P ; CORDIC cos(M0)
        row(1, 9, 61, 8, 0, 0, 0),   // X := cos θ1 ; CORDIC sin(M0)
        row(2, 10, 13, 1, 0, 0, 5),  // MULT M5·X
        row(3, 12, 43, 0, 0, 0, 0),  // R0 := l1·cos θ1
        row(4, 17, 62, 9, 0, 0, 0),  // Y := sin θ1 ; CORDIC cos(P)
        row(5, 18, 14, 1, 0, 0, 5),  // MULT M5·Y
        row(6, 20, 43, 0, 0, 1, 0),  // R1 := l1·sin θ1
        row(7, 25, 63, 8, 0, 0, 0),  // Z := cos θ12 ; CORDIC sin(P)
        row(8, 26, 15, 1, 0, 0, 6),  // MULT M6·Z
        row(9, 28, 43, 0, 0, 2, 0),  // R2 := l2·cos θ12
        row(10, 29, 66, 2, 0, 0, 2), // J0 := R0 + R2 (x)
        row(11, 33, 64, 0, 0, 0, 0), // P := sin θ12
        row(12, 34, 16, 1, 0, 0, 6), // MULT M6·P
        row(13, 36, 43, 0, 0, 3, 0), // R3 := l2·sin θ12
        row(14, 37, 66, 2, 1, 1, 3), // J1 := R1 + R3 (y)
    ]
}

/// Builds the chip model running the forward-kinematics microprogram for
/// joint angles `(theta1, theta2)` (Q16.16 radians).
///
/// # Errors
///
/// Propagates microcode-translation and model-validation errors.
pub fn build_fk_chip(
    theta1: i64,
    theta2: i64,
    constants: IkConstants,
) -> Result<IksChip, Box<dyn std::error::Error>> {
    let g = constants.geometry;
    let m_init = [(0, theta1), (1, theta2), (5, g.l1), (6, g.l2)];
    let mut model = chip_model(FK_STEPS, &m_init);
    let tuples = translate(&fk_microprogram(), &ik_opcode_maps(), &model).map_err(Box::new)?;
    for t in tuples {
        model.add_transfer(t)?;
    }
    Ok(IksChip { model, constants })
}

/// Total control steps of the 4-tap FIR (MACC) microprogram.
pub const FIR_STEPS: u32 = 7;

/// Register holding the FIR result (the accumulator) after the run.
pub const FIR_OUT_REG: &str = "Z";

/// A 4-tap FIR filter microprogram on the MACC datapath: the pipelined
/// multiplier streams one product per cycle (`x_i · c_i` in Q16.16) and
/// the Z-adder accumulates them — the paper's "MACC,
/// multiplier/accumulator" resource in action.
///
/// `M0..M3` hold the samples, `M4..M7` the coefficients; `X`/`Y`/`R0`/`R1`
/// buffer products in flight; the sum lands in `Z`:
///
/// | cycle | MULT        | ZADD            |
/// |-------|-------------|-----------------|
/// | 1     | x0·c0       |                 |
/// | 2     | x1·c1       |                 |
/// | 3     | x2·c2 → X   |                 |
/// | 4     | x3·c3 → Y   |                 |
/// | 5     | → R0        | Z := X+Y        |
/// | 6     | → R1        | Z := Z+R0       |
/// | 7     |             | Z := Z+R1       |
pub fn fir_microprogram() -> Vec<MicroInstruction> {
    let row = |addr, step, opc1, opc2, j, r1, mr| MicroInstruction {
        addr,
        step,
        opc1,
        opc2,
        j,
        r1,
        mr,
    };
    vec![
        row(0, 1, 10, 1, 0, 4, 0), // MULT M0·M4
        row(1, 2, 10, 1, 0, 5, 1), // MULT M1·M5
        row(2, 3, 69, 1, 0, 6, 2), // X := p0 ; MULT M2·M6
        row(3, 4, 70, 1, 0, 7, 3), // Y := p1 ; MULT M3·M7
        row(4, 5, 71, 2, 0, 0, 0), // R0 := p2 ; Z := X+Y
        row(5, 6, 68, 2, 0, 0, 1), // R1 := p3 ; Z := Z+R0
        row(6, 7, 67, 2, 0, 1, 0), // Z := Z+R1
    ]
}

/// Builds the chip model running the 4-tap FIR microprogram over Q16.16
/// samples and coefficients.
///
/// # Errors
///
/// Propagates microcode-translation and model-validation errors.
pub fn build_fir_chip(
    samples: [i64; 4],
    coefficients: [i64; 4],
) -> Result<RtModel, Box<dyn std::error::Error>> {
    let m_init: Vec<(usize, i64)> = samples
        .iter()
        .enumerate()
        .map(|(i, &v)| (i, v))
        .chain(coefficients.iter().enumerate().map(|(i, &v)| (i + 4, v)))
        .collect();
    let mut model = chip_model(FIR_STEPS, &m_init);
    let tuples = translate(&fir_microprogram(), &ik_opcode_maps(), &model).map_err(Box::new)?;
    for t in tuples {
        model.add_transfer(t)?;
    }
    Ok(model)
}

/// A fully built IKS chip model for one pose.
#[derive(Debug, Clone)]
pub struct IksChip {
    /// The complete clock-free RT model (resources + transfers).
    pub model: RtModel,
    /// The constants the `M[]` file was loaded with.
    pub constants: IkConstants,
}

/// Builds the chip model for a pose `(px, py)` (Q16.16) and arm
/// constants: chip skeleton, `M[]` preload, microcode translation, and
/// transfer insertion.
///
/// # Errors
///
/// Propagates microcode-translation errors; model-validation failures
/// (which would indicate an inconsistency between the microprogram and
/// the resource declarations) are also reported as strings.
pub fn build_ik_chip(
    px: i64,
    py: i64,
    constants: IkConstants,
) -> Result<IksChip, Box<dyn std::error::Error>> {
    let g = constants.geometry;
    let m_init = [
        (0, px),
        (1, py),
        (2, constants.k_sum),
        (3, constants.inv_2l1l2),
        (4, ONE),
        (5, g.l1),
        (6, g.l2),
    ];
    let mut model = chip_model(IK_STEPS, &m_init);
    let maps = ik_opcode_maps();
    let program = ik_microprogram();
    let tuples = translate(&program, &maps, &model).map_err(Box::new)?;
    for t in tuples {
        model.add_transfer(t)?;
    }
    Ok(IksChip { model, constants })
}

/// Convenience: number of transfer tuples the microprogram expands to.
pub fn ik_tuple_count() -> Result<usize, TranslateMicrocodeError> {
    let model = chip_model(IK_STEPS, &[]);
    Ok(translate(&ik_microprogram(), &ik_opcode_maps(), &model)?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{solve_ik, ArmGeometry};
    use crate::fixed::{from_fx, to_fx};
    use clockless_core::{RtSimulation, Value};

    fn run_chip(px: f64, py: f64) -> (i64, i64, IkConstants) {
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        let chip = build_ik_chip(to_fx(px), to_fx(py), constants).expect("chip builds");
        let mut sim = RtSimulation::traced(&chip.model).expect("elaborates");
        let summary = sim.run_to_completion().expect("runs");
        assert!(
            summary.conflicts.is_clean(),
            "microprogram must be conflict-free: {}",
            summary.conflicts
        );
        let t1 = summary.register(THETA1_REG).expect("J0 exists");
        let t2 = summary.register(THETA2_REG).expect("J1 exists");
        let (Value::Num(t1), Value::Num(t2)) = (t1, t2) else {
            panic!("joint registers must hold numbers, got {t1:?}/{t2:?}");
        };
        (t1, t2, constants)
    }

    #[test]
    fn chip_matches_algorithmic_model_bit_exactly() {
        for (px, py) in [(1.0, 1.0), (1.5, 0.2), (-0.8, 1.1), (0.3, -1.2)] {
            let (t1, t2, constants) = run_chip(px, py);
            let golden = solve_ik(to_fx(px), to_fx(py), &constants).expect("reachable");
            assert_eq!(t1, golden.theta1, "θ1 for ({px},{py})");
            assert_eq!(t2, golden.theta2, "θ2 for ({px},{py})");
        }
    }

    #[test]
    fn chip_solution_satisfies_forward_kinematics() {
        let (t1, t2, constants) = run_chip(1.2, 0.7);
        let sol = crate::algorithm::IkSolution {
            theta1: t1,
            theta2: t2,
        };
        let (fx, fy) = crate::algorithm::forward_kinematics(&sol, &constants.geometry);
        assert!((fx - 1.2).abs() < 1e-2, "fx = {fx}");
        assert!((fy - 0.7).abs() < 1e-2, "fy = {fy}");
        // Sanity: the angles are plausible radians.
        assert!(from_fx(t2) > 0.0 && from_fx(t2) < std::f64::consts::PI);
    }

    #[test]
    fn microprogram_translates_to_expected_tuple_count() {
        // 11 initiations: 6 MULT, 5 ZADD... counted from the table:
        // MULT at 1,2,7,10,15,23 (6), ZADD at 5,6,13,18,40 (5),
        // CORDIC at 2,14,23,31 (4) = 15 tuples.
        assert_eq!(ik_tuple_count().unwrap(), 15);
    }

    #[test]
    fn microprogram_is_conflict_free_statically() {
        // The microprogram must also pass the *static* conflict check of
        // the clocked translation (cross-validation of both detectors).
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        let chip = build_ik_chip(to_fx(1.0), to_fx(1.0), constants).unwrap();
        // Reuse core validation only here; the full clocked check lives
        // in the cross-crate integration tests.
        for t in chip.model.tuples() {
            chip.model.validate_tuple(t).expect("tuples validate");
        }
    }

    #[test]
    fn fk_chip_matches_fixed_point_golden_bit_exactly() {
        use crate::algorithm::forward_kinematics_fx;
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        for (t1, t2) in [(0.3f64, 0.9f64), (-0.7, 1.2), (2.4, 0.5), (-2.0, -1.0)] {
            let (t1, t2) = (to_fx(t1), to_fx(t2));
            let chip = build_fk_chip(t1, t2, constants).expect("fk chip builds");
            let mut sim = RtSimulation::traced(&chip.model).expect("elaborates");
            let summary = sim.run_to_completion().expect("runs");
            assert!(summary.conflicts.is_clean());
            let x = summary.register(FK_X_REG).unwrap().num().unwrap();
            let y = summary.register(FK_Y_REG).unwrap().num().unwrap();
            let (gx, gy) = forward_kinematics_fx(t1, t2, &constants.geometry);
            assert_eq!(x, gx, "x for angles ({t1},{t2})");
            assert_eq!(y, gy, "y for angles ({t1},{t2})");
        }
    }

    #[test]
    fn ik_then_fk_on_chip_closes_the_loop() {
        // The full robotics loop, entirely on simulated hardware: solve
        // the pose with the IK microprogram, feed the joint angles into
        // the FK microprogram, land back on the target.
        let constants = IkConstants::new(ArmGeometry::new(1.0, 1.0));
        for (px, py) in [(1.0f64, 1.0f64), (0.4, -1.3), (-1.5, 0.3)] {
            let (t1, t2, _) = run_chip(px, py);
            let chip = build_fk_chip(t1, t2, constants).expect("fk chip builds");
            let mut sim = RtSimulation::new(&chip.model).expect("elaborates");
            let summary = sim.run_to_completion().expect("runs");
            let x = from_fx(summary.register(FK_X_REG).unwrap().num().unwrap());
            let y = from_fx(summary.register(FK_Y_REG).unwrap().num().unwrap());
            assert!(
                (x - px).abs() < 2e-2 && (y - py).abs() < 2e-2,
                "IK∘FK({px},{py}) = ({x},{y})"
            );
        }
    }

    #[test]
    fn fir_chip_computes_the_fixed_point_dot_product() {
        use crate::fixed::mul_fx;
        let samples = [to_fx(1.5), to_fx(-2.0), to_fx(0.25), to_fx(3.0)];
        let coeffs = [to_fx(0.5), to_fx(1.0), to_fx(-4.0), to_fx(0.125)];
        let model = build_fir_chip(samples, coeffs).expect("fir chip builds");
        let mut sim = RtSimulation::traced(&model).expect("elaborates");
        let summary = sim.run_to_completion().expect("runs");
        assert!(summary.conflicts.is_clean());
        let golden: i64 = samples
            .iter()
            .zip(&coeffs)
            .map(|(&x, &c)| mul_fx(x, c))
            .sum();
        assert_eq!(
            summary.register(crate::program::FIR_OUT_REG).unwrap().num(),
            Some(golden)
        );
        // ≈ 0.75 - 2.0 - 1.0 + 0.375
        assert!((from_fx(golden) - (-1.875)).abs() < 1e-3);
    }

    #[test]
    fn fir_chip_streams_the_pipelined_multiplier_every_cycle() {
        let model = build_fir_chip([to_fx(1.0); 4], [to_fx(1.0); 4]).unwrap();
        let mut mult_steps: Vec<u32> = model
            .tuples()
            .iter()
            .filter(|t| t.module == "MULT")
            .map(|t| t.read_step)
            .collect();
        mult_steps.sort();
        // Back-to-back initiations: the MACC multiplier is pipelined.
        assert_eq!(mult_steps, vec![1, 2, 3, 4]);
    }

    #[test]
    fn fir_chip_has_no_dataflow_lints() {
        // (Cross-crate lint coverage lives in the workspace tests; here
        // we at least pin conflict-freedom and the roundtrip.)
        let model = build_fir_chip([to_fx(2.0); 4], [to_fx(0.5); 4]).unwrap();
        for t in model.tuples() {
            model.validate_tuple(t).expect("valid");
        }
    }

    #[test]
    fn cordic_initiations_respect_the_core_latency() {
        let program = ik_microprogram();
        let maps = ik_opcode_maps();
        let model = chip_model(IK_STEPS, &[]);
        let tuples = translate(&program, &maps, &model).unwrap();
        let mut cordic_steps: Vec<u32> = tuples
            .iter()
            .filter(|t| t.module == "CORDIC")
            .map(|t| t.read_step)
            .collect();
        cordic_steps.sort();
        for w in cordic_steps.windows(2) {
            assert!(
                w[1] - w[0] >= crate::resources::CORDIC_LATENCY,
                "CORDIC re-initiated too early: {w:?}"
            );
        }
    }
}
