//! # grip — Global Resource-constrained Percolation scheduling
//!
//! A complete reproduction of Nicolau & Novack, *An Efficient Global
//! Resource Constrained Technique for Exploiting Instruction Level
//! Parallelism* (UC Irvine ICS TR 92-08, ICPP 1992), as a Rust library
//! stack:
//!
//! | crate | contents |
//! |---|---|
//! | [`ir`] | VLIW program-graph IR: instruction trees (IBM model), operations, the sequential-program builder |
//! | [`machine`] | heterogeneous machine descriptions: FU classes, per-class slots, latencies, issue templates, presets (`uniform`, `clustered`, `mem_bound`, `epic8`) |
//! | [`vm`] | the VLIW machine simulator (fetch-all / commit-on-selected-path), plus latency-aware model runs with interlock-stall accounting |
//! | [`analysis`] | liveness over instruction trees, affine address disambiguation, dependence graph, §3.4 ranks |
//! | [`percolate`] | Percolation Scheduling core: `move-op`, `move-cj`, renaming, copy bypass, redundancy removal |
//! | [`core`] | **the paper's contribution**: the GRiP scheduler with Moveable-ops, resource barriers, and §3.3 gap prevention — class- and latency-aware via [`machine`] |
//! | [`pipeline`] | Perfect Pipelining: unwinding, pattern detection, loop re-rolling with register rotation |
//! | [`baselines`] | Unifiable-ops scheduling (§3.1) and POST (§4) |
//! | [`kernels`] | the Livermore Loops LL1–LL14 with native references |
//! | [`json`] | dependency-free JSON writer + parser (the wire format) |
//! | [`service`] | the sharded scheduling service: content-addressed schedule/DDG caches, `Service::submit`, JSON-lines protocol (`grip-serve`/`grip-client`) |
//!
//! ## Quickstart
//!
//! ```
//! use grip::prelude::*;
//!
//! // saxpy-like loop: y[k] += 2.5 * x[k]
//! let mut b = ProgramBuilder::new();
//! let x = b.array("x", 80);
//! let y = b.array("y", 80);
//! let k = b.named_reg("k");
//! b.const_i(k, 0);
//! b.begin_loop();
//! let t = b.load("t", x, Operand::Reg(k), 0);
//! let u = b.binary("u", OpKind::Mul, Operand::Reg(t), Operand::Imm(Value::F(2.5)));
//! let w = b.load("w", y, Operand::Reg(k), 0);
//! let v = b.binary("v", OpKind::Add, Operand::Reg(u), Operand::Reg(w));
//! b.store(y, Operand::Reg(k), 0, Operand::Reg(v));
//! b.iadd_imm(k, k, 1);
//! let c = b.binary("c", OpKind::CmpLt, Operand::Reg(k), Operand::Imm(Value::I(64)));
//! b.end_loop(c);
//! let mut g = b.finish();
//! g.live_out = vec![k];
//!
//! // Pipeline for a 4-wide VLIW.
//! let report = perfect_pipeline(&mut g, PipelineOptions {
//!     machine: MachineDesc::uniform(4),
//!     ..Default::default()
//! });
//! let speedup = report.speedup().expect("loop pipelines");
//! assert!(speedup > 3.0, "got {speedup}");
//! ```
//!
//! ## Scheduling for a heterogeneous machine
//!
//! The same pipeline runs against any [`machine::MachineDesc`] — e.g. a
//! wide machine with a single memory port and multi-cycle latencies —
//! and the simulator validates the schedule under the *same* model
//! ([`vm::Machine::run_model`]): interlock stalls are charged, issue
//! templates are checked.
//!
//! ```
//! use grip::prelude::*;
//!
//! let k = grip::kernels::kernels().iter().find(|k| k.name == "LL3").unwrap();
//! let g0 = (k.build)(32);
//! let mut g = g0.clone();
//! let desc = MachineDesc::mem_bound();
//! perfect_pipeline(&mut g, PipelineOptions {
//!     machine: desc,
//!     unwind: 6,
//!     ..Default::default()
//! });
//! let mut m = Machine::for_graph(&g);
//! (k.init)(&g, &mut m, 32);
//! let stats = m.run_model(&g, &desc).expect("schedule runs");
//! assert_eq!(stats.template_violations, 0);
//! ```

#![forbid(unsafe_code)]

pub use grip_analysis as analysis;
pub use grip_audit as audit;
pub use grip_baselines as baselines;
pub use grip_bounds as bounds;
pub use grip_core as core;
pub use grip_ir as ir;
pub use grip_json as json;
pub use grip_kernels as kernels;
pub use grip_machine as machine;
pub use grip_obs as obs;
pub use grip_percolate as percolate;
pub use grip_pipeline as pipeline;
pub use grip_service as service;
pub use grip_vm as vm;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use grip_analysis::{Ddg, RankTable};
    pub use grip_audit::{audit_schedule, AuditCode, AuditReport, Diagnostic};
    pub use grip_baselines::{post_pipeline, schedule_unifiable, PostOptions};
    pub use grip_bounds::{BindingConstraint, BoundCertificate};
    pub use grip_core::{schedule_region, GripConfig};
    pub use grip_ir::{
        ArrayId, Graph, NodeId, OpId, OpKind, Operand, Operation, ProgramBuilder, RegId, Value,
    };
    pub use grip_machine::{FuClass, LatencyTable, MachineDesc};
    pub use grip_percolate::Ctx;
    pub use grip_pipeline::{perfect_pipeline, PipelineOptions, PipelineReport};
    pub use grip_service::{
        MachineSpec, ScheduleRequest, ScheduleResponse, Service, ServiceConfig,
    };
    pub use grip_vm::{EquivReport, Machine, ModelRunStats};
}
