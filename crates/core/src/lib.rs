//! # grip-core — the GRiP scheduler
//!
//! The paper's contribution: **G**lobal **R**esource-constrained
//! **P**ercolation scheduling (§3.2–§3.4).
//!
//! GRiP fills each instruction, in a top-down traversal, with the best
//! operations from its *Moveable-ops* set — every operation below the node
//! that has not been frozen by a dependence on a frozen op. Unlike the
//! Unifiable-ops technique it approximates, operations that fail to reach
//! the node stay wherever they got to, compacting the subgraph below as a
//! side effect; full intermediate instructions form tolerated *resource
//! barriers*.
//!
//! For Perfect Pipelining, the §3.3 **gap prediction and prevention**
//! facility guards every single-instruction hop with the `Gapless-move`
//! test and the three suspension rules, guaranteeing (Theorems 1–2) that
//! only fillable, temporary gaps ever form — which is what makes the
//! pipelined pattern converge.
//!
//! On machines with multi-cycle latencies, every schedule leaving the
//! scheduler is additionally **stall-free**: the [`hazards`]
//! post-pass re-checks producer→consumer issue distances over the whole
//! reachable graph (loop back edges and exit paths included), backfills
//! ready work into the slack, and pads whatever is left with delay rows,
//! so the simulator's scoreboard (the VM's `run_model`)
//! charges zero interlock stalls.
//!
//! Entry point: [`schedule_region`] (or the [`Grip`] builder for tracing).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod grip;
pub mod hazards;

pub use grip::{
    schedule_region, Grip, GripConfig, PhaseTimes, ScheduleOutput, ScheduleStats, Speculation,
    TraceEvent,
};
pub use hazards::HazardStats;
