//! # The perf ledger
//!
//! The repository's benchmark: four seeded workloads, eleven end-to-end
//! metrics (five the driver gates on every workload, six the ledger's
//! own `compare` gates), and a traced ladder of per-layer metrics — one
//! command (`perf/run.sh`), every number by name with its unit, outputs
//! checked. `README.md` is the dictionary; `BENCHMARK.json` at the
//! repository root declares the same names to the driver.
//!
//! Everything is measured from outside: spans wrap calls into the
//! layers' public functions, counters are read through public accessors
//! as deltas over the measured interval, and no file of the program
//! under test changes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod cli;
pub mod dict;
pub mod engine;
pub mod fanout;
pub mod json;
pub mod meter;
pub mod ops;
pub mod pass;
pub mod phase;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod sysinfo;
pub mod wire;
