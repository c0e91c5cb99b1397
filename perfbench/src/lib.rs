//! Layer ledger: the end-to-end and per-layer wall-clock benchmark of the
//! HNS reproduction. See `README.md` in this directory for the workloads
//! and metrics.

pub mod host;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod zipf;
