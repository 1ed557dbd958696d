//! # grip-baselines — the techniques GRiP is measured against
//!
//! * [`schedule_unifiable`] — the Unifiable-ops scheduler of §3.1
//!   (Figure 7): per-node sets of operations that provably migrate all the
//!   way in, recomputed on every pick. Effective but expensive, and unable
//!   to prevent the gaps of Figure 9.
//! * [`post_pipeline`] — POST (§4, \[Po91\]): pipeline with infinite
//!   resources first, then break over-wide instructions and re-percolate.
//!   The Table 1 comparison partner.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod post;
mod unifiable;

pub use post::{break_rows, post_pipeline, PostOptions};
pub use unifiable::{schedule_unifiable, UnifiableSched, UnifiableStats};
