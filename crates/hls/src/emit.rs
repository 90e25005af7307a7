//! Emission: from a scheduled, allocated dataflow graph to a clock-free
//! RT model.
//!
//! This is the paper's §4 flow made executable: "High level synthesis
//! results are translated into our subset and can then be simulated at a
//! high level before the next synthesis steps translate to a more
//! concrete implementation." Each node becomes one transfer tuple; the
//! register/bus/module names come from the allocation and binding.

use std::collections::HashMap;
use std::fmt;

use clockless_core::{ModelError, ModuleDecl, RtModel, TransferTuple, Value};

use crate::alloc::{allocate, Allocation, ValueId};
use crate::dfg::{Dfg, DfgError, NodeId, Operand};
use crate::schedule::{list_schedule, ResourceSet, Schedule, ScheduleError};

/// A synthesized design: the emitted model plus the maps needed to
/// interpret it.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// The clock-free RT model.
    pub model: RtModel,
    /// Output name → register name holding the result after the run.
    pub output_registers: HashMap<String, String>,
    /// The schedule the model implements.
    pub schedule: Schedule,
    /// The allocation the model implements.
    pub allocation: Allocation,
}

/// Errors from the synthesis flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SynthesisError {
    /// Scheduling failed.
    Schedule(ScheduleError),
    /// The emitted model was rejected by validation — indicates an
    /// internal inconsistency between scheduler, allocator and emitter.
    Emit(ModelError),
    /// An input value was missing at emission time (registers are
    /// preloaded with concrete inputs).
    MissingInput(String),
    /// The graph was invalid.
    Dfg(DfgError),
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            SynthesisError::Emit(e) => write!(f, "emission produced invalid model: {e}"),
            SynthesisError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
            SynthesisError::Dfg(e) => write!(f, "invalid dataflow graph: {e}"),
        }
    }
}

impl std::error::Error for SynthesisError {}

impl From<ScheduleError> for SynthesisError {
    fn from(e: ScheduleError) -> Self {
        SynthesisError::Schedule(e)
    }
}
impl From<ModelError> for SynthesisError {
    fn from(e: ModelError) -> Self {
        SynthesisError::Emit(e)
    }
}
impl From<DfgError> for SynthesisError {
    fn from(e: DfgError) -> Self {
        SynthesisError::Dfg(e)
    }
}

/// Emits the RT model for a scheduled and allocated graph, preloading
/// input registers with the concrete `inputs`.
///
/// # Errors
///
/// [`SynthesisError::MissingInput`] if an input value is absent, or
/// [`SynthesisError::Emit`] if the emitted tuples fail model validation
/// (which would indicate a scheduler/allocator bug).
pub fn emit(
    dfg: &Dfg,
    schedule: &Schedule,
    allocation: &Allocation,
    resources: &ResourceSet,
    inputs: &HashMap<&str, i64>,
) -> Result<Synthesized, SynthesisError> {
    let mut model = RtModel::new(dfg.name(), schedule.length);

    // Registers, preloaded where they first host an input or constant.
    let mut init_of: Vec<Value> = vec![Value::Disc; allocation.register_count];
    for (v, &r) in &allocation.register_of {
        match v {
            ValueId::Input(name) => {
                let val = inputs
                    .get(name.as_str())
                    .copied()
                    .ok_or_else(|| SynthesisError::MissingInput(name.clone()))?;
                init_of[r] = Value::Num(val);
            }
            ValueId::Const(c) => init_of[r] = Value::Num(*c),
            ValueId::Node(_) => {}
        }
    }
    for (r, init) in init_of.iter().enumerate() {
        model.add_register_init(reg_name(r), *init)?;
    }

    // Buses.
    for b in 0..allocation.bus_count {
        model.add_bus(bus_name(b))?;
    }

    // Module instances actually used by the binding.
    let mut instantiated: Vec<(usize, usize)> = Vec::new();
    for idx in 0..dfg.len() {
        let (class, inst) = schedule.binding[idx];
        if !instantiated.contains(&(class, inst)) {
            instantiated.push((class, inst));
            let c = &resources.classes()[class];
            model.add_module(ModuleDecl {
                name: instance_name(resources, class, inst),
                ops: c.ops.clone(),
                timing: c.timing,
            })?;
        }
    }

    // One transfer per node.
    let reg_of_operand = |o: &Operand| -> String {
        let v = match o {
            Operand::Node(n) => ValueId::Node(*n),
            Operand::Input(n) => ValueId::Input(n.clone()),
            Operand::Const(c) => ValueId::Const(*c),
        };
        reg_name(allocation.register(&v))
    };
    for idx in 0..dfg.len() {
        let id = NodeId(idx as u32);
        let node = &dfg.nodes()[idx];
        let (class, inst) = schedule.binding[idx];
        let cdecl = &resources.classes()[class];
        let mut tuple = TransferTuple::new(
            schedule.read_step[idx],
            instance_name(resources, class, inst),
        );
        let (bus_a, bus_b) = allocation.operand_bus[idx];
        tuple = tuple.src_a(reg_of_operand(&node.a), bus_name(bus_a));
        if let Some(b) = &node.b {
            tuple = tuple.src_b(reg_of_operand(b), bus_name(bus_b));
        }
        if cdecl.ops.len() > 1 {
            tuple = tuple.op(node.op);
        }
        let dst = reg_name(allocation.register(&ValueId::Node(id)));
        tuple = tuple.write(
            schedule.commit_step(id),
            bus_name(allocation.result_bus[idx]),
            dst,
        );
        model.add_transfer(tuple)?;
    }

    let output_registers = dfg
        .outputs()
        .iter()
        .map(|(name, n)| {
            (
                name.clone(),
                reg_name(allocation.register(&ValueId::Node(*n))),
            )
        })
        .collect();

    Ok(Synthesized {
        model,
        output_registers,
        schedule: schedule.clone(),
        allocation: allocation.clone(),
    })
}

/// The full flow: list scheduling, allocation, emission.
///
/// # Errors
///
/// Propagates scheduling, allocation and emission errors.
///
/// # Examples
///
/// ```
/// use clockless_hls::prelude::*;
/// use clockless_core::prelude::*;
///
/// let mut g = Dfg::new("demo");
/// let s = g.node(Op::Add, "a", "b")?;
/// let m = g.node(Op::Mul, s, 3)?;
/// g.output("out", m)?;
///
/// let resources = ResourceSet::unconstrained(&g);
/// let inputs = [("a", 4), ("b", 6)].into_iter().collect();
/// let syn = synthesize(&g, &resources, &inputs)?;
///
/// let mut sim = RtSimulation::new(&syn.model)?;
/// let summary = sim.run_to_completion()?;
/// let out_reg = &syn.output_registers["out"];
/// assert_eq!(summary.register(out_reg), Some(Value::Num(30)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(
    dfg: &Dfg,
    resources: &ResourceSet,
    inputs: &HashMap<&str, i64>,
) -> Result<Synthesized, SynthesisError> {
    let schedule = list_schedule(dfg, resources)?;
    let allocation = allocate(dfg, &schedule);
    emit(dfg, &schedule, &allocation, resources, inputs)
}

fn reg_name(idx: usize) -> String {
    format!("r{idx}")
}

fn bus_name(idx: usize) -> String {
    format!("bus{idx}")
}

fn instance_name(resources: &ResourceSet, class: usize, inst: usize) -> String {
    format!("{}{}", resources.classes()[class].name, inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ResourceClass;
    use clockless_core::{ModuleTiming, Op, RtSimulation};

    fn diamond() -> Dfg {
        let mut g = Dfg::new("diamond");
        let s = g.node(Op::Add, "a", "b").unwrap();
        let d = g.node(Op::Sub, "c", "d").unwrap();
        let m = g.node(Op::Mul, s, d).unwrap();
        g.output("out", m).unwrap();
        g
    }

    fn check_against_reference(g: &Dfg, resources: &ResourceSet, inputs: &[(&str, i64)]) {
        let map: HashMap<&str, i64> = inputs.iter().copied().collect();
        let syn = synthesize(g, resources, &map).expect("synthesis succeeds");
        let mut sim = RtSimulation::traced(&syn.model).expect("elaborates");
        let summary = sim.run_to_completion().expect("runs");
        assert!(
            summary.conflicts.is_clean(),
            "emitted model must be conflict-free: {}",
            summary.conflicts
        );
        let reference = g.evaluate(&map).expect("reference evaluation");
        for (name, reg) in &syn.output_registers {
            assert_eq!(
                summary.register(reg),
                Some(clockless_core::Value::Num(reference[name])),
                "output `{name}` in register `{reg}`"
            );
        }
    }

    #[test]
    fn diamond_constrained_matches_reference() {
        let g = diamond();
        let r = ResourceSet::new([
            ResourceClass::new(
                "ALU",
                [Op::Add, Op::Sub],
                ModuleTiming::Pipelined { latency: 1 },
                1,
            ),
            ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Pipelined { latency: 2 }, 1),
        ]);
        check_against_reference(&g, &r, &[("a", 5), ("b", 3), ("c", 10), ("d", 4)]);
    }

    #[test]
    fn diamond_unconstrained_matches_reference() {
        let g = diamond();
        let r = ResourceSet::unconstrained(&g);
        check_against_reference(&g, &r, &[("a", -2), ("b", 9), ("c", 0), ("d", 1)]);
    }

    #[test]
    fn multi_op_alu_gets_op_selectors() {
        let g = diamond();
        let r = ResourceSet::new([
            ResourceClass::new(
                "ALU",
                [Op::Add, Op::Sub],
                ModuleTiming::Pipelined { latency: 1 },
                1,
            ),
            ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Pipelined { latency: 2 }, 1),
        ]);
        let map = [("a", 1), ("b", 2), ("c", 3), ("d", 4)]
            .into_iter()
            .collect();
        let syn = synthesize(&g, &r, &map).unwrap();
        // The ALU tuples carry explicit ops; the MUL tuple does not.
        let add_tuple = &syn.model.tuples()[0];
        assert!(add_tuple.op.is_some());
        let mul_tuple = syn
            .model
            .tuples()
            .iter()
            .find(|t| t.module.starts_with("MUL"))
            .unwrap();
        assert!(mul_tuple.op.is_none());
    }

    #[test]
    fn missing_input_reported() {
        let g = diamond();
        let r = ResourceSet::unconstrained(&g);
        let map = [("a", 1)].into_iter().collect();
        assert!(matches!(
            synthesize(&g, &r, &map),
            Err(SynthesisError::MissingInput(_))
        ));
    }

    #[test]
    fn unary_and_shift_nodes_emit() {
        let mut g = Dfg::new("u");
        let n = g.unary(Op::Neg, "x").unwrap();
        let s = g.node(Op::Shr, "x", 2).unwrap();
        let o = g.node(Op::Add, n, s).unwrap();
        g.output("y", o).unwrap();
        let r = ResourceSet::unconstrained(&g);
        check_against_reference(&g, &r, &[("x", 40)]);
        // -40 + 10 = -30
        let map = [("x", 40)].into_iter().collect();
        let syn = synthesize(&g, &r, &map).unwrap();
        let mut sim = RtSimulation::new(&syn.model).unwrap();
        let summary = sim.run_to_completion().unwrap();
        assert_eq!(
            summary.register(&syn.output_registers["y"]),
            Some(clockless_core::Value::Num(-30))
        );
    }

    #[test]
    fn sequential_multiplier_flow() {
        let mut g = Dfg::new("seqmul");
        let m1 = g.node(Op::Mul, "a", "b").unwrap();
        let m2 = g.node(Op::Mul, "c", "d").unwrap();
        let s = g.node(Op::Add, m1, m2).unwrap();
        g.output("out", s).unwrap();
        let r = ResourceSet::new([
            ResourceClass::new("MUL", [Op::Mul], ModuleTiming::Sequential { latency: 2 }, 1),
            ResourceClass::new("ADD", [Op::Add], ModuleTiming::Pipelined { latency: 1 }, 1),
        ]);
        check_against_reference(&g, &r, &[("a", 3), ("b", 4), ("c", 5), ("d", 6)]);
    }
}
