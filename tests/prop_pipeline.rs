//! Property tests over the full pipeline: randomly generated loops are
//! pipelined and must stay observationally identical to their sequential
//! originals, across widths and trip counts.
//!
//! Cases are generated by a deterministic splitmix PRNG (the container is
//! offline, so `proptest` is unavailable); every failure reports its case
//! seed, which reproduces the exact program.

use grip::prelude::*;

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

/// A random loop-body recipe: a mix of loads, stores, arithmetic, and an
/// optional register-carried recurrence.
#[derive(Clone, Debug)]
struct LoopRecipe {
    ops: Vec<BodyOp>,
    recurrence: bool,
    trip: i64,
    fus: usize,
}

#[derive(Clone, Debug)]
enum BodyOp {
    /// load from x at k+disp, result feeds the pool
    Load(i8),
    /// fresh = pool[a] ⊕ pool[b]
    Arith(u8, u8, u8),
    /// store pool[a] to y[k]
    Store(u8),
}

fn recipe(rng: &mut Rng) -> LoopRecipe {
    let len = 2 + rng.below(8) as usize;
    let ops = (0..len)
        .map(|_| match rng.below(3) {
            0 => BodyOp::Load(rng.below(4) as i8),
            1 => BodyOp::Arith(rng.below(256) as u8, rng.below(256) as u8, rng.below(4) as u8),
            _ => BodyOp::Store(rng.below(256) as u8),
        })
        .collect();
    LoopRecipe {
        ops,
        recurrence: rng.below(2) == 1,
        trip: 1 + rng.below(39) as i64,
        fus: [2usize, 3, 4, 8][rng.below(4) as usize],
    }
}

fn build(r: &LoopRecipe) -> Graph {
    let len = (r.trip + 64) as usize;
    let mut b = ProgramBuilder::new();
    let x = b.array("x", len);
    let y = b.array("y", len);
    let acc = b.named_reg("acc");
    b.const_f(acc, 1.0);
    let k = b.named_reg("k");
    b.const_i(k, 0);
    b.begin_loop();
    let mut pool: Vec<RegId> = vec![acc];
    if r.recurrence {
        // acc = acc * 0.875 (self-LCD)
        b.emit(Operation::new(
            OpKind::Mul,
            Some(acc),
            vec![Operand::Reg(acc), Operand::Imm(Value::F(0.875))],
        ));
    }
    for (i, op) in r.ops.iter().enumerate() {
        match *op {
            BodyOp::Load(d) => {
                let t = b.load(&format!("l{i}"), x, Operand::Reg(k), d.unsigned_abs() as i64);
                pool.push(t);
            }
            BodyOp::Arith(a, bb, kind) => {
                let ra = pool[a as usize % pool.len()];
                let rb = pool[bb as usize % pool.len()];
                let kinds = [OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Min];
                let t = b.binary(
                    &format!("a{i}"),
                    kinds[kind as usize % kinds.len()],
                    Operand::Reg(ra),
                    Operand::Reg(rb),
                );
                pool.push(t);
            }
            BodyOp::Store(a) => {
                let ra = pool[a as usize % pool.len()];
                b.store(y, Operand::Reg(k), 0, Operand::Reg(ra));
            }
        }
    }
    b.iadd_imm(k, k, 1);
    let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(r.trip)));
    b.end_loop(c);
    let mut g = b.finish();
    g.live_out = vec![acc, k];
    g
}

fn run(g: &Graph, len: usize) -> Machine {
    let mut m = Machine::for_graph(g);
    let xs: Vec<f64> = (0..len).map(|i| 0.25 + (i % 17) as f64 * 0.0625).collect();
    m.set_array_f(ArrayId::new(0), &xs);
    m.run(g).expect("program runs");
    m
}

fn cases() -> u64 {
    if cfg!(debug_assertions) {
        16
    } else {
        48
    }
}

#[test]
fn pipelined_random_loops_are_exact() {
    for case in 0..cases() {
        let mut rng = Rng(0xA11CE ^ (case << 32));
        let r = recipe(&mut rng);
        let g0 = build(&r);
        g0.validate().unwrap();
        let mut g = g0.clone();
        let rep = perfect_pipeline(
            &mut g,
            PipelineOptions {
                unwind: 8,
                machine: MachineDesc::uniform(r.fus),
                fold_inductions: true,
                gap_prevention: true,
                dce: true,
                try_roll: false,
                audit: false,
            },
        );
        g.validate().unwrap();
        let len = (r.trip + 64) as usize;
        let m0 = run(&g0, len);
        let m1 = run(&g, len);
        let repc = EquivReport::compare(&g0, &m0, &m1);
        assert!(repc.is_equal(), "case {case} ({r:?}) diverged: {repc:?}");
        // A measured CPI exists for reasonable loops.
        assert!(rep.seq_cpi() >= 3.0, "case {case}");
    }
}

#[test]
fn pipelined_random_loops_respect_width() {
    for case in 0..cases() {
        let mut rng = Rng(0xB0B ^ (case << 32));
        let r = recipe(&mut rng);
        let mut g = build(&r);
        let rep = perfect_pipeline(
            &mut g,
            PipelineOptions {
                unwind: 8,
                machine: MachineDesc::uniform(r.fus),
                fold_inductions: true,
                gap_prevention: true,
                dce: true,
                try_roll: false,
                audit: false,
            },
        );
        for &row in &rep.steady {
            if g.node_exists(row) {
                assert!(g.node_op_count(row) <= r.fus, "case {case} ({r:?})");
            }
        }
    }
}
