//! Cycle-level out-of-order reference simulator (the Sniper substitute of
//! thesis §6.1).
//!
//! The analytical model must be validated against *something* that
//! resolves contention cycle by cycle. This crate provides a trace-driven
//! superscalar out-of-order core with the structures the interval model
//! abstracts:
//!
//! * a depth-`N` front-end with an I-cache path and a real branch
//!   predictor (mispredictions cost resolution + refill, §2.5.2),
//! * dispatch into a finite ROB / issue queue / LSQ,
//! * per-port issue with pipelined and non-pipelined functional units
//!   (Fig 3.5),
//! * a timed memory subsystem: three-level hierarchy, MSHRs, a queued
//!   memory bus and an optional stride prefetcher with real timeliness
//!   (§4.6–4.9),
//! * in-order commit.
//!
//! Besides cycles it produces CPI stacks (slot-based accounting), activity
//! factors for the power model, per-interval phase samples (Fig 4.9/6.14)
//! and the measured memory-level parallelism.
//!
//! # Skipping idle cycles
//!
//! Most simulated cycles do nothing: the core waits on a DRAM fill, a
//! divider or a front-end refill. The engine steps one cycle at a time
//! while anything moves. After a cycle in which nothing commits, issues,
//! dispatches or fetches, and the I-cache is not looked up, it jumps to
//! the next *event*, the earliest future cycle among:
//!
//! * the ROB head's done cycle;
//! * each issue-queue entry's `max(retry_at, operands ready)`;
//! * the free cycles of the non-pipelined functional units;
//! * the fetch-queue head's `ready_at`;
//! * `fetch_stall_until` and `branch_refill_until`;
//! * the two front-end blocker thresholds, `branch_refill_until +
//!   frontend_depth` and `icache_refill_until + frontend_depth`;
//! * the earliest outstanding DRAM completion.
//!
//! Until that cycle no stage can act, and every skipped cycle is charged
//! exactly what stepping would have charged: all dispatch slots wasted on
//! the same CPI-stack blocker, plus the same MLP sample. The invariant is
//! that a [`SimResult`] is **bit-identical** to a step-every-cycle run; a
//! step-every-cycle oracle in the unit tests and the whole-result golden
//! `tests/sim_golden.rs` hold it. It is not only a testing convenience:
//! [`SimCache`] keys cover the workload, machine and budget but not the
//! code version, so results persisted with `pmt validate --cache` or
//! `PMT_SIM_CACHE` stay valid only as long as results never drift.
//!
//! # Example
//!
//! ```
//! use pmt_sim::{OooSimulator, SimConfig};
//! use pmt_uarch::MachineConfig;
//! use pmt_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("hmmer").unwrap();
//! let result = OooSimulator::new(SimConfig::new(MachineConfig::nehalem()))
//!     .run(&mut spec.trace(20_000));
//! assert!(result.cpi() > 0.2 && result.cpi() < 5.0);
//! ```

mod cache;
mod config;
mod core;
mod memory;
mod result;

pub use cache::{CacheKey, CacheStats, SimCache};
pub use config::SimConfig;
pub use core::OooSimulator;
pub use result::{CpiComponent, CpiStack, IntervalSample, SimResult};
