//! Property test: the graph's predecessor lists stay equal to a rebuild
//! from the successor caches under random edge edits, self-loops
//! included. `Graph::validate` performs the comparison after every edit.

use grip_ir::{Graph, NodeId, OpId, OpKind, Operand, Operation, RegId, Tree, TreePath};

/// Seeded 64-bit LCG (no external crates).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// A fresh, unplaced conditional jump on `r`.
fn cj(g: &mut Graph, r: RegId) -> OpId {
    g.add_op(Operation::new(OpKind::CondJump, None, vec![Operand::Reg(r)]))
}

/// A random successor: an existing node (possibly `n` itself) or the exit.
fn target(rng: &mut Rng, g: &Graph, n: NodeId) -> Option<NodeId> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    match rng.below(6) {
        0 => None,
        1 => Some(n),
        _ => Some(rng.pick(&nodes)),
    }
}

fn paths_where(g: &Graph, n: NodeId, branch: bool) -> Vec<TreePath> {
    let mut out = Vec::new();
    g.node(n).tree.walk(&mut |p, t| {
        if matches!(t, Tree::Branch { .. }) == branch {
            out.push(p);
        }
    });
    out
}

/// Apply one random edit; returns its name for the failure message.
fn edit(rng: &mut Rng, g: &mut Graph, r: RegId) -> &'static str {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let n = rng.pick(&nodes);
    match rng.below(7) {
        0 => {
            let t = target(rng, g, n);
            let tree = if rng.below(3) == 0 {
                let f = target(rng, g, n);
                let c = cj(g, r);
                Tree::Branch {
                    ops: vec![],
                    cj: c,
                    on_true: Box::new(Tree::leaf(t)),
                    on_false: Box::new(Tree::leaf(f)),
                }
            } else {
                Tree::leaf(t)
            };
            g.add_node(tree);
            "add_node"
        }
        1 => {
            g.clone_node(n);
            "clone_node"
        }
        2 => {
            let path = rng.pick(&paths_where(g, n, false));
            let s = target(rng, g, n);
            g.set_succ(n, path, s);
            "set_succ"
        }
        3 => {
            // Keep trees shallow: a path holds at most 64 decisions.
            let shallow: Vec<TreePath> =
                paths_where(g, n, false).into_iter().filter(|p| p.len() < 8).collect();
            if shallow.is_empty() {
                return "split_leaf (none)";
            }
            let path = rng.pick(&shallow);
            let (t, f) = (target(rng, g, n), target(rng, g, n));
            let c = cj(g, r);
            g.split_leaf(n, path, c, t, f);
            "split_leaf"
        }
        4 => {
            let branches = paths_where(g, n, true);
            if branches.is_empty() {
                return "remove_branch (none)";
            }
            let path = rng.pick(&branches);
            g.remove_branch(n, path, rng.below(2) == 0);
            "remove_branch"
        }
        5 => {
            let to = target(rng, g, n);
            g.redirect_all(n, to);
            "redirect_all"
        }
        _ => {
            let deletable = |m: NodeId| {
                m != g.entry
                    && g.node(m).tree.is_empty()
                    && g.node(m).tree.successors().first() != Some(&m)
            };
            let empties: Vec<NodeId> = nodes.into_iter().filter(|&m| deletable(m)).collect();
            if empties.is_empty() {
                return "delete_empty_node (none)";
            }
            let m = rng.pick(&empties);
            g.delete_empty_node(m);
            "delete_empty_node"
        }
    }
}

#[test]
fn predecessor_lists_match_a_rebuild_after_every_edit() {
    for seed in 0..48u64 {
        let mut rng = Rng(0x9E37_79B9 ^ (seed << 20));
        let mut g = Graph::new();
        let r = g.fresh_reg();
        for step in 0..160 {
            let what = edit(&mut rng, &mut g, r);
            if let Err(e) = g.validate() {
                panic!("seed {seed}, step {step}: {what} left {e}");
            }
        }
        // Every listed predecessor exists and really has an edge here.
        for n in g.node_ids() {
            for &p in g.preds(n) {
                assert!(g.node_exists(p), "seed {seed}: deleted {p} listed before {n}");
                assert!(g.unique_successors(p).contains(&n), "seed {seed}: {p} -/-> {n}");
            }
        }
    }
}

#[test]
fn self_loops_list_themselves_and_clones_join_the_list() {
    let mut g = Graph::new();
    let r = g.fresh_reg();
    let n = g.add_node(Tree::leaf(None));
    g.set_succ(g.entry, TreePath::ROOT, Some(n));
    g.set_succ(n, TreePath::ROOT, Some(n));
    assert_eq!(g.preds(n), [g.entry, n]);
    // The clone keeps the edge back to `n`, so it joins `n`'s list.
    let c = g.clone_node(n);
    assert_eq!(g.preds(n), [g.entry, n, c]);
    assert_eq!(g.preds(c), []);
    let j = cj(&mut g, r);
    g.split_leaf(n, TreePath::ROOT, j, Some(c), None);
    assert_eq!(g.preds(n), [g.entry, c]);
    assert_eq!(g.preds(c), [n]);
    g.validate().unwrap();
}
