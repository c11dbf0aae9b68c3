//! The pmt benchmark: end-to-end and per-layer numbers for the gated
//! workloads `explore-big`, `predict-cold` and `validate-grid`, and the
//! runnable but ungated daemon workload `serve-predict`. See `README.md`
//! in this directory for the workloads, every metric and the layer →
//! end-to-end map. The binary (`src/main.rs`) drives the workloads; this
//! library holds the parts that are tested on their own.

pub mod daemon;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod stats;
pub mod sys;
pub mod trace;
