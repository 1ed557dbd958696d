//! # grip-percolate — Percolation Scheduling core transformations
//!
//! The semantics-preserving program transformations of §2 (Figures 2–4):
//!
//! * [`move_op`] — move an ordinary operation one instruction up, with
//!   forward substitution through copies, write-live / move-past-read
//!   renaming (fresh register + compensation copy), speculative motion for
//!   renameable ops, and node splitting for sources with more than one
//!   entry edge ([`grip_ir::Graph::entry_edges`]);
//! * [`move_cj`] — move a root conditional jump up, splitting its
//!   instruction into true/false residues (and splitting its source by
//!   the same rule as `move_op`);
//! * [`plan_move_op`] / [`plan_move_cj`] — side-effect-free legality
//!   oracles (the Gapless-move test and the Unifiable-ops baseline both
//!   reason about hypothetical moves). [`plan_move_op_onto`] is the
//!   move-op rule itself, given the op's position and the target path's
//!   ops ([`ops_on_path`]) instead of reading them from the graph, so a
//!   caller can plan the hops of a climb before it makes the first one;
//!   [`MovePlan::is_plain`] tells a move that takes the op unchanged;
//! * dead-code removal and empty-node deletion ([`is_dead`],
//!   [`eliminate_dead_ops`], [`try_delete_empty`]) — the paper's
//!   incremental redundant-operation removal.
//!
//! Every transformation preserves observable behaviour; the test suites
//! check this by running the simulator before and after each edit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cleanup;
mod ctx;
mod movecj;
mod moveop;

pub use cleanup::{
    eliminate_dead_ops, is_dead, propagate_copies, remove_if_dead, try_delete_empty,
    try_delete_empty_if,
};
pub use ctx::Ctx;
pub use movecj::{apply_move_cj, move_cj, plan_move_cj, MoveCjOutcome};
pub use moveop::{
    apply_move_op, move_op, ops_on_path, plan_move_op, plan_move_op_onto, MoveFail, MoveOutcome,
    MovePlan,
};
