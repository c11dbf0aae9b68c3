//! Structure-of-arrays prediction kernels.
//!
//! A design point's machine-dependent work is mostly curve queries
//! (critical reuse distance and miss ratio per cache level, per fitted
//! StatStack curve), the stride-MLP virtual-stream walk, CP(ROB) and the
//! branch penalty. This module lays that work out for speed, for single
//! points and batches alike:
//!
//! * `arena` *(internal)* — every fitted curve of a
//!   [`PreparedProfile`](crate::PreparedProfile), laid out as flat
//!   sorted SoA arrays (`floors`/`survival`/`stack`) when the profile is
//!   prepared. It is the only store of fitted curves: both
//!   [`IntervalModel::predict_summary`] and [`BatchPredictor`] query it
//!   in place;
//! * [`search`] — the branchless sorted-slice search those queries use,
//!   probe-for-probe identical to `std`'s binary search;
//! * [`lanes`] — chunked elementwise f64 arithmetic (`core::arch` SIMD
//!   behind a scalar-identical runtime-selected fallback;
//!   `PMT_FORCE_SCALAR=1` forces the fallback) for the outer
//!   per-point arrays (CPI, seconds);
//! * [`BatchPredictor`] — the batch entry point: one per (prepared
//!   profile, config), borrowing the arena and memoizing curve queries,
//!   stride walks, CP(ROB) and branch penalties across the points of a
//!   batch.
//!
//! Everything here is bit-identical to the scalar reference
//! (`crate::reference`: curves refitted and queried through
//! `CacheModel::from_fitted`) by construction (same arithmetic, same
//! probe sequences, per-lane correctly-rounded SIMD);
//! `crates/core/tests/batch_identity.rs` and `prepared_identity.rs` pin
//! it.
//!
//! [`IntervalModel::predict_summary`]: crate::IntervalModel::predict_summary

pub(crate) mod arena;
pub mod batch;
pub mod lanes;
pub mod search;

pub use batch::{BatchPredictor, MemoStats};
