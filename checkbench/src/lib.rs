//! # checkbench
//!
//! The NICE checker's benchmark: four closed-loop workloads measured end
//! to end, and a separate traced run that splits their time over the
//! checker's layers. See `README.md` in this directory for the workloads,
//! the metrics and what the correctness oracle checks.

pub mod dist_replica;
pub mod jobs;
pub mod oracle;
pub mod replica;
pub mod report;
pub mod rng;
pub mod rss;
pub mod stats;
pub mod trace;
pub mod workloads;
