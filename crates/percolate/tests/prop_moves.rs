//! Property tests: arbitrary sequences of legal percolation moves on
//! randomly generated programs never change observable behaviour.
//!
//! Cases are generated by a deterministic splitmix PRNG (the container is
//! offline, so `proptest` is unavailable); every failure reports its case
//! seed, which reproduces the exact program and move sequence.

use grip_analysis::Ddg;
use grip_ir::{Graph, NodeId, OpId, OpKind, Operand, ProgramBuilder, Value};
use grip_percolate::{move_op, try_delete_empty, Ctx};
use grip_vm::{EquivReport, Machine};

/// Deterministic splitmix64 generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A recipe for one random straight-line op.
#[derive(Clone, Debug)]
enum OpRecipe {
    /// `fresh = iadd prev_reg, imm`
    AddI(u8, i64),
    /// `fresh = mul prev_freg, imm`
    MulF(u8, i64),
    /// `fresh = load x[prev_reg mod idx]`
    Load(u8),
    /// `x[imm] = prev_freg`
    Store(u8, u8),
    /// `fresh = copy prev_reg`
    Copy(u8),
}

fn random_recipe(rng: &mut Rng) -> OpRecipe {
    match rng.below(5) {
        0 => OpRecipe::AddI(rng.below(256) as u8, rng.below(9) as i64 - 4),
        1 => OpRecipe::MulF(rng.below(256) as u8, 1 + rng.below(3) as i64),
        2 => OpRecipe::Load(rng.below(256) as u8),
        3 => OpRecipe::Store(rng.below(256) as u8, rng.below(256) as u8),
        _ => OpRecipe::Copy(rng.below(256) as u8),
    }
}

fn random_recipes(rng: &mut Rng, max_len: u64) -> Vec<OpRecipe> {
    let len = 1 + rng.below(max_len - 1);
    (0..len).map(|_| random_recipe(rng)).collect()
}

/// Materialize a sequential program from recipes. Keeps separate i64 and
/// f64 register pools so programs are type-correct by construction.
fn build_program(recipes: &[OpRecipe]) -> Graph {
    let mut b = ProgramBuilder::new();
    let x = b.array("x", 16);
    let i0 = b.named_reg("i0");
    b.const_i(i0, 3);
    let f0 = b.named_reg("f0");
    b.const_f(f0, 1.5);
    let mut iregs = vec![i0];
    let mut fregs = vec![f0];
    for (n, r) in recipes.iter().enumerate() {
        match *r {
            OpRecipe::AddI(src, c) => {
                let s = iregs[src as usize % iregs.len()];
                let d = b.binary(
                    &format!("i{n}"),
                    OpKind::IAdd,
                    Operand::Reg(s),
                    Operand::Imm(Value::I(c)),
                );
                iregs.push(d);
            }
            OpRecipe::MulF(src, c) => {
                let s = fregs[src as usize % fregs.len()];
                let d = b.binary(
                    &format!("f{n}"),
                    OpKind::Mul,
                    Operand::Reg(s),
                    Operand::Imm(Value::F(c as f64)),
                );
                fregs.push(d);
            }
            OpRecipe::Load(idx) => {
                let d = b.load(&format!("l{n}"), x, Operand::Imm(Value::I((idx % 16) as i64)), 0);
                fregs.push(d);
            }
            OpRecipe::Store(idx, src) => {
                let v = fregs[src as usize % fregs.len()];
                b.store(x, Operand::Imm(Value::I((idx % 16) as i64)), 0, Operand::Reg(v));
            }
            OpRecipe::Copy(src) => {
                let s = iregs[src as usize % iregs.len()];
                let d = b.named_reg(&format!("c{n}"));
                b.copy(d, Operand::Reg(s));
                iregs.push(d);
            }
        }
    }
    for r in iregs.into_iter().chain(fregs) {
        b.live_out(r);
    }
    b.finish()
}

fn final_state(g: &Graph) -> Machine {
    let mut m = Machine::for_graph(g);
    m.run(g).expect("program must execute");
    m
}

/// Attempt `budget` pseudo-random adjacent upward moves; each one either
/// fails legality (fine) or must preserve semantics.
fn churn(g: &mut Graph, seed: u64, budget: usize) {
    let ddg = Ddg::build(g, g.entry);
    let mut ctx = Ctx::new(g, &ddg);
    let mut rng = seed;
    for _ in 0..budget {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let nodes: Vec<NodeId> =
            g.reachable().into_iter().filter(|&n| n != g.entry && g.node_op_count(n) > 0).collect();
        if nodes.is_empty() {
            break;
        }
        let n = nodes[(rng >> 33) as usize % nodes.len()];
        let ops: Vec<OpId> = g.node_ops(n).iter().map(|&(_, o)| o).collect();
        let op = ops[(rng >> 17) as usize % ops.len()];
        if g.op(op).kind.is_cj() {
            continue;
        }
        let ps = g.preds(n);
        if ps.len() != 1 || ps[0] == g.entry {
            continue;
        }
        let to = ps[0];
        let paths = g.node(to).tree.leaf_paths_to(n);
        let _ = move_op(g, &mut ctx, n, to, op, paths[0]);
        if g.node_exists(n) && g.node(n).tree.is_empty() {
            try_delete_empty(g, n);
        }
    }
}

const CASES: u64 = 64;

#[test]
fn random_moves_preserve_semantics() {
    for case in 0..CASES {
        let mut rng = Rng(0x5EED ^ (case << 24));
        let recipes = random_recipes(&mut rng, 24);
        let seed = rng.next();
        let g0 = build_program(&recipes);
        g0.validate().unwrap();
        let mut g = g0.clone();
        churn(&mut g, seed, 40);
        g.validate().unwrap();
        let m0 = final_state(&g0);
        let m1 = final_state(&g);
        let report = EquivReport::compare(&g0, &m0, &m1);
        assert!(report.is_equal(), "case {case} ({recipes:?}) diverged: {report:?}");
    }
}

#[test]
fn churn_never_grows_program_order() {
    for case in 0..CASES {
        let mut rng = Rng(0xF00D ^ (case << 24));
        let recipes = random_recipes(&mut rng, 16);
        let seed = rng.next();
        // Straight-line programs have unique predecessors; no splits can
        // occur, so the op population must stay constant under churn.
        let g0 = build_program(&recipes);
        let count_ops =
            |g: &Graph| -> usize { g.reachable().iter().map(|&n| g.node_ops(n).len()).sum() };
        let before = count_ops(&g0);
        let mut g = g0.clone();
        churn(&mut g, seed, 40);
        // Renaming adds compensation copies; they are the only growth.
        let after = count_ops(&g);
        assert!(after >= before, "case {case}");
        // And the graph still validates.
        g.validate().unwrap();
    }
}
