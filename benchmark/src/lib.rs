//! The repo's benchmark, measured from outside the program: five named
//! workloads, three end-to-end metrics, and a per-layer budget. See
//! `README.md` in this directory for definitions and how to run it.

pub mod catalog;
pub mod json;
pub mod probes;
pub mod run;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod workloads;
