//! # se-rtbench — the real-time StateFlow benchmark
//!
//! Deploys StateFlow in the real-time regime on one pinned configuration
//! ([`config::pinned_config`]), drives a named YCSB workload from a single
//! driver thread ([`driver`]), checks every answer and the final state
//! ([`workload`]), and reports end-to-end metrics, or, in a traced run, the
//! per-layer metrics measured from outside the program ([`ledger`],
//! [`body`], [`trace`]). See `rtbench/README.md` for the workloads and what
//! each metric is expected to move.

#![warn(missing_docs)]

pub mod bench;
pub mod body;
pub mod config;
pub mod driver;
pub mod idle;
pub mod ledger;
pub mod trace;
pub mod workload;
