//! # se-aria — deterministic transactions for stateful dataflows
//!
//! StateFlow "achieves consistency by implementing an extension of Aria, a
//! deterministic transaction protocol" (§3; Lu et al., VLDB 2020). This
//! crate is that protocol, engine-agnostic:
//!
//! * [`types`] — transaction ids, buffered access sets, state overlays;
//! * [`reservation`] — per-key lowest-id reservations and the WAW/RAW/WAR
//!   commit rules, including Aria's deterministic-reordering optimization
//!   (the ablation knob of bench A1);
//! * [`batch`] — the reference single-node batch executor
//!   (execute-on-snapshot → reserve → decide → commit in id order, aborted
//!   transactions re-run at the head of the next batch);
//! * [`pipeline`] — committed-batch watermark bookkeeping for overlapping
//!   batches (Aria pipelines the execution of batch *i+1* with the commit
//!   round of batch *i*).
//!
//! `se-stateflow` distributes these phases across partitioned workers.

#![warn(missing_docs)]

pub mod batch;
pub mod pipeline;
pub mod reservation;
pub mod types;

pub use batch::{
    run_batch, run_to_completion, run_to_completion_with, BatchResult, FallbackPolicy,
    ScheduleStats, Store, TxnCtx,
};
pub use pipeline::CommitWatermark;
pub use reservation::{CommitRule, ConflictFlags, ReservationTable};
pub use types::{BatchId, Decision, TxnBuffer, TxnId};
