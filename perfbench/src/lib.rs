//! Benchmark for the dmpim reproduction.
//!
//! One process runs one workload on one thread, calling the workspace's
//! public functions in-process. Untraced runs give the end-to-end host
//! metrics; a traced run records the benchmark's own spans around each
//! layer call and gives the per-layer metrics. Every run checks its
//! outputs against the references under `reference/`. See `README.md`.

mod digest;
pub mod host;
mod inputs;
pub mod metrics;
pub mod reference;
pub mod spans;
pub mod workloads;
