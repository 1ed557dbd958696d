//! # grip-machine — heterogeneous machine descriptions
//!
//! The resource model GRiP schedules against. The paper assumes `fus`
//! interchangeable single-cycle functional units; this crate generalizes
//! that to a *machine description*:
//!
//! * [`FuClass`] — the functional-unit classes (ALU, FPU, MEM, BRANCH)
//!   and the [`OpKind`](grip_ir::OpKind) → class mapping;
//! * [`LatencyTable`] — per-class issue-to-result latencies, with
//!   long-latency divides split out;
//! * [`MachineDesc`] — an issue template (total width + per-class slot
//!   caps + jump budget) plus latencies, with ready-made presets:
//!   [`uniform(n)`](MachineDesc::uniform) (the paper's machine,
//!   bit-for-bit), [`scalar`](MachineDesc::scalar),
//!   [`clustered`](MachineDesc::clustered),
//!   [`mem_bound`](MachineDesc::mem_bound), and
//!   [`epic8`](MachineDesc::epic8). Schedulers ask it directly whether an
//!   instruction has room (`has_room` / `ops_full` / `exhausted`).
//!
//! Every cap uses [`UNCAPPED`] (`usize::MAX`) as an "unlimited" sentinel,
//! and all occupancy checks compare counts against the cap — never
//! arithmetic *on* the cap — so the sentinel cannot overflow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod class;
mod desc;

pub use class::{FuClass, LatencyTable};
pub use desc::{MachineDesc, MachineError, UNCAPPED};

#[cfg(test)]
mod tests {
    use super::*;
    use grip_ir::{Graph, OpKind, Operand, Operation, Tree, Value};

    /// A node holding the given op kinds (ordinary ops only).
    fn node_with(g: &mut Graph, kinds: &[OpKind]) -> grip_ir::NodeId {
        let mut ops = Vec::new();
        for &k in kinds {
            let dest = if k.has_dest() { Some(g.fresh_reg()) } else { None };
            let src = (0..k.arity()).map(|_| Operand::Imm(Value::F(1.0))).collect();
            ops.push(g.add_op(Operation::new(k, dest, src)));
        }
        g.add_node(Tree::Leaf { ops, succ: None })
    }

    #[test]
    fn uniform_reproduces_flat_counting() {
        let mut g = Graph::new();
        let n = node_with(&mut g, &[OpKind::IAdd, OpKind::Mul, OpKind::IAdd]);
        let spare_dest = g.fresh_reg();
        let spare = g.add_op(Operation::new(
            OpKind::IAdd,
            Some(spare_dest),
            vec![Operand::Imm(Value::I(1)), Operand::Imm(Value::I(1))],
        ));
        for width in [1usize, 2, 3, 4, UNCAPPED] {
            let m = MachineDesc::uniform(width);
            assert_eq!(m.has_room(&g, n, spare), 3 < width, "width {width}");
            assert_eq!(m.ops_full(&g, n), 3 >= width, "width {width}");
            // cjs are uncapped: never exhausted even when ops are full.
            assert!(!m.exhausted(&g, n), "width {width}");
            assert_eq!(m.free_slots(&g, n), width.saturating_sub(3));
        }
        assert_eq!(MachineDesc::scalar().width, 1);
        assert!(MachineDesc::scalar().ops_full(&g, n));
    }

    #[test]
    fn room_accounting() {
        let mut g = Graph::new();
        let r = g.fresh_reg();
        let c = g.fresh_reg();
        let o1 = g.add_op(Operation::new(OpKind::Copy, Some(r), vec![Operand::Imm(Value::I(1))]));
        let n = g.add_node(Tree::Leaf { ops: vec![o1], succ: None });
        let d2 = g.fresh_reg();
        let o2 = g.add_op(Operation::new(
            OpKind::IAdd,
            Some(d2),
            vec![Operand::Reg(r), Operand::Imm(Value::I(1))],
        ));
        let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c)]));

        let two = MachineDesc::uniform(2);
        assert!(two.has_room(&g, n, o2));
        assert!(!MachineDesc::uniform(1).has_room(&g, n, o2));
        assert!(two.has_room(&g, n, cj), "jump budget independent of FU slots");
        assert!(!MachineDesc { cjs: 0, ..two }.has_room(&g, n, cj));
        assert!(MachineDesc::UNLIMITED.has_room(&g, n, o2));
        assert!(MachineDesc::uniform(1).ops_full(&g, n));
        assert!(!two.exhausted(&g, n));
    }

    #[test]
    fn unlimited_sentinels_are_overflow_free() {
        // A node with ops and cjs present; every check against the MAX
        // sentinel must neither overflow nor report saturation.
        let mut g = Graph::new();
        let c = g.fresh_reg();
        let r = g.fresh_reg();
        let op = g.add_op(Operation::new(OpKind::Copy, Some(r), vec![Operand::Imm(Value::I(1))]));
        let cj = g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(c)]));
        let n = g.add_node(Tree::Branch {
            ops: vec![op],
            cj,
            on_true: Box::new(Tree::leaf(None)),
            on_false: Box::new(Tree::leaf(None)),
        });
        let u = MachineDesc::UNLIMITED;
        assert!(!u.ops_full(&g, n));
        assert!(!u.exhausted(&g, n));
        assert_eq!(u.free_slots(&g, n), UNCAPPED - 1);
        // cjs == MAX with a populated tree: comparison, not subtraction.
        let v = MachineDesc::uniform(1);
        assert!(v.ops_full(&g, n), "width 1 is taken");
        assert!(!v.exhausted(&g, n), "cj budget MAX can never exhaust");
        assert!(v.has_room(&g, n, cj));
        // Bounded-cj machine saturates both sides.
        assert!(MachineDesc { cjs: 1, ..v }.exhausted(&g, n));
    }

    #[test]
    fn class_caps_overflow_independently_of_width() {
        let mut g = Graph::new();
        // Two loads fill mem_bound's single memory port long before its
        // eight total slots.
        let x = g.array("x", 8);
        let n = node_with(&mut g, &[OpKind::Load(x)]);
        let m = MachineDesc::mem_bound();
        let (r1, r2) = (g.fresh_reg(), g.fresh_reg());
        let another_load = g.add_op(Operation::new(
            OpKind::Load(grip_ir::ArrayId::new(0)),
            Some(r1),
            vec![Operand::Imm(Value::I(0))],
        ));
        let an_alu = g.add_op(Operation::new(
            OpKind::IAdd,
            Some(r2),
            vec![Operand::Imm(Value::I(1)), Operand::Imm(Value::I(1))],
        ));
        assert!(!m.has_room(&g, n, another_load), "single port is taken");
        assert!(m.has_room(&g, n, an_alu), "width 8 still open for ALU work");
        assert!(!m.ops_full(&g, n), "other classes still have slots");
        assert!(m.fits(&g, n), "one load fits the template");

        // Saturate the template: mem cap 1 makes a 2-load node ill-formed.
        let n2 = node_with(
            &mut g,
            &[OpKind::Load(grip_ir::ArrayId::new(0)), OpKind::Load(grip_ir::ArrayId::new(0))],
        );
        assert!(!m.fits(&g, n2));
        assert!(MachineDesc::uniform(8).fits(&g, n2), "flat model can't see the port");
    }

    #[test]
    fn clustered_splits_width_across_classes() {
        let mut g = Graph::new();
        let m = MachineDesc::clustered();
        let n = node_with(&mut g, &[OpKind::IAdd, OpKind::IAdd]);
        let (ra, rf) = (g.fresh_reg(), g.fresh_reg());
        let alu = g.add_op(Operation::new(
            OpKind::IAdd,
            Some(ra),
            vec![Operand::Imm(Value::I(1)), Operand::Imm(Value::I(1))],
        ));
        let fpu = g.add_op(Operation::new(
            OpKind::Add,
            Some(rf),
            vec![Operand::Imm(Value::F(1.0)), Operand::Imm(Value::F(1.0))],
        ));
        assert!(!m.has_room(&g, n, alu), "ALU cluster (2) is full");
        assert!(m.has_room(&g, n, fpu), "FPU cluster is open");
        // Filling both clusters saturates ordinary issue even though
        // width 4 > alu 2: ops_full consults every class.
        let full = node_with(&mut g, &[OpKind::IAdd, OpKind::IAdd, OpKind::Add, OpKind::Add]);
        assert!(m.ops_full(&g, full));
    }

    #[test]
    fn presets_are_valid_and_distinct() {
        for m in MachineDesc::presets() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
        MachineDesc::UNLIMITED.validate().unwrap();
        MachineDesc::scalar().validate().unwrap();
        assert!(MachineDesc::clustered().has_class_caps());
        assert!(MachineDesc::mem_bound().has_class_caps());
        assert!(MachineDesc::epic8().has_class_caps());
        assert!(!MachineDesc::uniform(4).has_class_caps());
        assert!(MachineDesc::UNLIMITED.is_unbounded());
        assert!(!MachineDesc::epic8().is_unbounded());
        assert_eq!(MachineDesc::epic8().max_latency(), 16);
    }

    #[test]
    fn invalid_descriptions_are_rejected() {
        let mut m = MachineDesc::uniform(0);
        assert_eq!(m.validate(), Err(MachineError::ZeroWidth));
        m = MachineDesc::uniform(4);
        m.class_slots[FuClass::Mem.index()] = 0;
        assert_eq!(m.validate(), Err(MachineError::ZeroClassSlots(FuClass::Mem)));
        m = MachineDesc::uniform(4);
        m.cjs = 0;
        assert_eq!(m.validate(), Err(MachineError::ZeroClassSlots(FuClass::Branch)));
        m = MachineDesc::uniform(4);
        m.latency.mem = 0;
        assert_eq!(m.validate(), Err(MachineError::ZeroLatency));
    }
}
