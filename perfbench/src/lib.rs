//! # perfbench — the replicated store's end-to-end and per-layer benchmark
//!
//! Drives the public API of `dh_replica` (`put_over`, `get_over`,
//! `join_over`/`leave_over`, `pump_repair`, `flush_repair`,
//! `batch_over`) over a `dh_dht::DhNetwork` of 10,000 servers with
//! `m = 8` shares and `k = 4`, on four seeded workloads
//! ([`workload::workloads`]). An untraced run reports what a user of
//! the store sees ([`report::END_TO_END`]); a traced run replays the
//! same op stream with timing wrappers around the transport and the
//! shelves plus shadow calls of the erasure code and the synchronous
//! route, and reports each layer's share ([`report::PER_LAYER`]).
//! Every result is checked; see `perfbench/ledger.md` for the
//! workloads and which end-to-end metric each layer should move.

pub mod layers;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod workload;
