//! End-to-end and per-layer benchmark of the FreeSet/FreeV paper path.
//!
//! Three workloads exercise the program's public entry points in a closed
//! loop, one pass at a time on a single benchmark thread; the program's own
//! worker pools keep their defaults. See `README.md` beside this crate.

pub mod paper;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workload;
