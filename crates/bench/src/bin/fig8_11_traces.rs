//! Regenerate **Figures 8 and 11**: scheduling the running example with
//! the Unifiable-ops technique vs GRiP, showing the candidate sets next to
//! each node and the successful moves in order.
//!
//! The paper's drawing shows the program graph after each successful move;
//! here we print the initial per-node sets (Unifiable-ops vs Moveable-ops
//! — the sets whose maintenance cost §3.1 compares), the move sequence,
//! and the final graphs.

#![forbid(unsafe_code)]

use grip_analysis::{Ddg, RankTable};
use grip_core::{schedule_region, GripConfig, TraceEvent};
use grip_ir::{Graph, NodeId, OpId, OpKind, Operand, ProgramBuilder, Value};
use grip_machine::MachineDesc;
use grip_percolate::Ctx;

/// The straight-line a..g example: chain a->b->c, d->e, f->g.
fn example() -> Graph {
    let mut b = ProgramBuilder::new();
    let start = b.named_reg("s0");
    b.const_f(start, 1.0);
    let a = b.binary("A", OpKind::Mul, Operand::Reg(start), Operand::Imm(Value::F(0.9)));
    let bb = b.binary("B", OpKind::Add, Operand::Reg(a), Operand::Imm(Value::F(1.0)));
    let c = b.binary("C", OpKind::Mul, Operand::Reg(bb), Operand::Imm(Value::F(2.0)));
    let d = b.binary("D", OpKind::Add, Operand::Reg(start), Operand::Imm(Value::F(3.0)));
    let e = b.binary("E", OpKind::Mul, Operand::Reg(d), Operand::Imm(Value::F(4.0)));
    let f_ = b.binary("F", OpKind::Add, Operand::Reg(start), Operand::Imm(Value::F(5.0)));
    let g_ = b.binary("G", OpKind::Mul, Operand::Reg(f_), Operand::Imm(Value::F(6.0)));
    for r in [c, e, g_] {
        b.live_out(r);
    }
    b.finish()
}

fn label(g: &Graph, op: OpId) -> String {
    g.op(op).label().to_string()
}

/// Ops placed strictly below `n` in the chain: the (initial) Moveable set.
fn moveable(g: &Graph, order: &[NodeId], n: NodeId) -> Vec<OpId> {
    let pos = order.iter().position(|&m| m == n).unwrap();
    order[pos + 1..]
        .iter()
        .filter(|&&m| g.node_exists(m))
        .flat_map(|&m| g.node_ops(m).iter().map(|&(_, o)| o))
        .collect()
}

/// Straight-line Unifiable oracle: an op can reach `n` iff no node between
/// holds a (non-copy) writer of one of its operands.
fn unifiable(g: &Graph, order: &[NodeId], n: NodeId) -> Vec<OpId> {
    let pos = order.iter().position(|&m| m == n).unwrap();
    let mut out = Vec::new();
    for (i, &m) in order.iter().enumerate().skip(pos + 1) {
        for &(_, op) in g.node_ops(m) {
            let blocked = order[pos + 1..i].iter().any(|&between| {
                g.node_ops(between).iter().any(|&(_, w)| {
                    g.op(w).dest.is_some_and(|d| g.op(op).reads_reg(d))
                        && g.op(w).kind != OpKind::Copy
                })
            }) || order[pos..=pos].iter().any(|&t| {
                g.node_ops(t).iter().any(|&(_, w)| {
                    g.op(w).dest.is_some_and(|d| g.op(op).reads_reg(d))
                        && g.op(w).kind != OpKind::Copy
                })
            });
            if !blocked {
                out.push(op);
            }
        }
    }
    out
}

fn set_to_string(g: &Graph, ops: &[OpId]) -> String {
    let mut labels: Vec<String> = ops.iter().map(|&o| label(g, o)).collect();
    labels.sort();
    format!("({})", labels.join(","))
}

fn main() {
    let g = example();
    let order: Vec<NodeId> = g.reachable();

    println!("Figure 8 vs Figure 11: candidate sets per node (initial state)\n");
    println!("{:<8} {:<22} {:<22}", "node", "Unifiable-ops", "Moveable-ops");
    for &n in &order {
        let ops: Vec<String> = g.node_ops(n).iter().map(|&(_, o)| label(&g, o)).collect();
        println!(
            "{:<8} {:<22} {:<22}   holds [{}]",
            n.to_string(),
            set_to_string(&g, &unifiable(&g, &order, n)),
            set_to_string(&g, &moveable(&g, &order, n)),
            ops.join(",")
        );
    }
    println!("\nNote: Moveable-ops(n) is simply 'everything below n' — trivially");
    println!("maintained; Unifiable-ops(n) re-examines the path for every member.");

    // GRiP run with trace (Figure 11's move sequence).
    let mut g2 = example();
    let ddg = Ddg::build(&g2, g2.entry);
    let mut ctx = Ctx::new(&g2, &ddg);
    let ranks = RankTable::new(&ddg, false);
    let region = g2.reachable();
    let out = schedule_region(
        &mut g2,
        &mut ctx,
        &ranks,
        GripConfig {
            machine: MachineDesc::uniform(3),
            gap_prevention: false,
            dce: false,
            speculation: Default::default(),
            trace: true,
        },
        region,
    );
    println!("\nGRiP move sequence (3 FUs, scheduling priority = §3.4 ranks):");
    for ev in &out.trace {
        match ev {
            TraceEvent::Node(n) => println!("  schedule({n})"),
            TraceEvent::Hop { op, from, to, arrived } => println!(
                "    move {} : {from} -> {to}{}",
                label(&g2, *op),
                if *arrived { "  (arrived)" } else { "" }
            ),
            _ => {}
        }
    }
    println!("\nFinal GRiP schedule:\n{}", grip_ir::print::dump(&g2));
}
