//! The batched prediction path: one [`BatchPredictor`] per
//! (prepared profile, model config) evaluates a whole chunk of design
//! points, answering curve queries from the prepared profile's curve
//! arena and memoizing the expensive machine-dependent computations
//! across points. The arena is built once, in `PreparedProfile::new`;
//! a predictor only borrows it, so building one allocates nothing but
//! empty memo tables.
//!
//! # Why the results are bit-identical to the one-point path
//!
//! The predictor runs the *same* `Evaluator` arithmetic as
//! `IntervalModel::predict_summary` — only the `EvalHooks` differ, and
//! both hook implementations are deterministic functions of the same
//! inputs:
//!
//! * **Cache queries** are keyed by `(curve, per-level line counts)` —
//!   the complete input set of `CacheModel::from_fitted` — and answered
//!   by the same arena query the one-point path makes. A memo hit
//!   replays bytes that query produced earlier for identical inputs.
//! * **Stride walks** are keyed by every machine-dependent value
//!   `StrideMlpModel::evaluate_stream` reads for a fixed window: the
//!   window identity (fixing skeleton, static loads, stream length and
//!   cold counts), the L3 critical reuse distance of the window's load
//!   curve (the only field of `loads_model` the walk touches), ROB size,
//!   MSHR entries, and — only when the prefetcher is enabled, the only
//!   case that reads them — the prefetch-table size, DRAM page size,
//!   DRAM latency and the effective dispatch rate. `llc_store_misses`
//!   is a pure pass-through in the walk, so it stays out of the key and
//!   is overwritten with the current point's value after a hit. A miss
//!   computes through the very same `stride_stream_behavior` the default
//!   hooks call.
//! * **Critical paths and branch penalties** are keyed by their complete
//!   input sets — `(window, rob)` for CP(ROB), and the window plus every
//!   scalar the leaky-bucket walk (Alg 3.2) reads for the branch
//!   penalty. The walk steps until the ROB occupancy settles (or the
//!   misprediction interval is dispatched), interpolating the
//!   dependency curve whenever the rounded occupancy changes, which
//!   still makes it one of the most expensive machine-dependent
//!   computations in a sweep — and its inputs are untouched by
//!   frequency, MSHR and last-level-cache axes, so most points replay
//!   it from the memo.
//!
//! Memo hits are what make batching ≥3× faster on sweep-shaped spaces:
//! neighbouring design points share most axes, so most points reuse
//! earlier points' curve queries, stride walks and branch penalties
//! outright.

use crate::branch_penalty::{branch_penalty, BranchPenalty};
use crate::cache_model::CacheModel;
use crate::config::ModelConfig;
use crate::kernels::arena::CurveArena;
use crate::mlp::{MemoryBehavior, StrideScratch};
use crate::model::{
    stride_stream_behavior, CurveId, EvalHooks, Evaluator, PredictionSummary, WindowInputs,
};
use crate::prepared::PreparedProfile;
use pmt_uarch::MachineConfig;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Complete input set of a cache query: which curve, at which per-level
/// line counts.
type CacheKey = (u32, [u64; 3]);

/// Complete machine-dependent input set of one window's stride walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct StrideKey {
    window: u32,
    crit_l3: u64,
    rob: u32,
    mshr: u32,
    /// Present iff the prefetcher is enabled — the only case in which
    /// the walk reads any of these fields.
    prefetch: Option<PrefetchKey>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PrefetchKey {
    table_entries: u32,
    dram_page_bytes: u32,
    dram_latency: u32,
    deff_bits: u64,
}

/// Complete input set of one window's branch-penalty computation
/// (leaky-bucket Alg 3.2): the window fixes the dependency profile; the
/// scalars are everything else `branch_penalty` reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct BranchKey {
    window: u32,
    rob: u32,
    width: u32,
    frontend_depth: u32,
    interval_bits: u64,
    lat_bits: u64,
}

/// A snapshot of the predictor's memo tables: how many entries each
/// holds and how the lookups split into hits and misses. Every miss
/// inserts exactly one entry, so `*_entries == *_misses` always holds —
/// the snapshot reports both so the invariant is checkable from the
/// outside (the serve `/metrics` endpoint, as `pmt_api::MemoMetrics`,
/// and the `speedup` binary both surface these numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Cache-query memo (curve × per-level line counts) entries.
    pub cache_entries: u64,
    /// Cache-query lookups answered from the memo.
    pub cache_hits: u64,
    /// Cache-query lookups that computed (and inserted).
    pub cache_misses: u64,
    /// Stride-walk memo entries.
    pub stride_entries: u64,
    /// Stride walks replayed from the memo.
    pub stride_hits: u64,
    /// Stride walks computed.
    pub stride_misses: u64,
    /// CP(ROB) memo entries.
    pub cp_entries: u64,
    /// Critical-path lookups replayed from the memo.
    pub cp_hits: u64,
    /// Critical-path lookups computed.
    pub cp_misses: u64,
    /// Branch-penalty (leaky bucket) memo entries.
    pub branch_entries: u64,
    /// Branch penalties replayed from the memo.
    pub branch_hits: u64,
    /// Branch penalties computed.
    pub branch_misses: u64,
}

impl MemoStats {
    /// Total lookups answered from any memo.
    pub fn hits(&self) -> u64 {
        self.cache_hits + self.stride_hits + self.cp_hits + self.branch_hits
    }

    /// Total lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.cache_misses + self.stride_misses + self.cp_misses + self.branch_misses
    }

    /// Add `other`'s counts to these, field by field.
    pub fn add(&mut self, other: &MemoStats) {
        self.cache_entries += other.cache_entries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.stride_entries += other.stride_entries;
        self.stride_hits += other.stride_hits;
        self.stride_misses += other.stride_misses;
        self.cp_entries += other.cp_entries;
        self.cp_hits += other.cp_hits;
        self.cp_misses += other.cp_misses;
        self.branch_entries += other.branch_entries;
        self.branch_hits += other.branch_hits;
        self.branch_misses += other.branch_misses;
    }
}

/// Batched predictor for one prepared profile under one model
/// configuration: build once per chunk of design points, then call
/// [`predict_summary`](Self::predict_summary) per point (or
/// [`predict_batch_into`](Self::predict_batch_into) for a whole slice).
/// Later points reuse earlier points' memoized curve queries and stride
/// walks; results are bit-identical to
/// `IntervalModel::predict_summary`, in any evaluation order.
pub struct BatchPredictor<'p, 'a> {
    prepared: &'p PreparedProfile<'a>,
    config: ModelConfig,
    cache_memo: HashMap<CacheKey, CacheModel>,
    stride_memo: HashMap<StrideKey, MemoryBehavior>,
    /// CP(ROB) per `(window, rob)`.
    cp_memo: HashMap<(u32, u32), f64>,
    /// Branch penalties per complete leaky-bucket input set.
    branch_memo: HashMap<BranchKey, BranchPenalty>,
    /// Running hit/miss tallies, bumped inside the hooks; the entry
    /// counts are read off the memo tables at snapshot time.
    counters: MemoStats,
    /// Buffers every stride-walk memo miss reuses.
    scratch: StrideScratch,
}

impl<'p, 'a> BatchPredictor<'p, 'a> {
    /// Borrow the profile's curve arena and set up empty memo tables.
    /// One config clone total — per-point evaluation clones nothing.
    pub fn new(prepared: &'p PreparedProfile<'a>, config: &ModelConfig) -> BatchPredictor<'p, 'a> {
        BatchPredictor {
            prepared,
            config: config.clone(),
            cache_memo: HashMap::new(),
            stride_memo: HashMap::new(),
            cp_memo: HashMap::new(),
            branch_memo: HashMap::new(),
            counters: MemoStats::default(),
            scratch: StrideScratch::default(),
        }
    }

    /// Snapshot the memo tables: entry counts plus cumulative hit/miss
    /// tallies since construction.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            cache_entries: self.cache_memo.len() as u64,
            stride_entries: self.stride_memo.len() as u64,
            cp_entries: self.cp_memo.len() as u64,
            branch_entries: self.branch_memo.len() as u64,
            ..self.counters
        }
    }

    /// The prepared profile this predictor evaluates.
    pub fn prepared(&self) -> &'p PreparedProfile<'a> {
        self.prepared
    }

    /// Predict one design point, reusing everything memoized so far.
    /// Bit-identical to `IntervalModel::with_config(machine,
    /// config).predict_summary(prepared)`.
    pub fn predict_summary(&mut self, machine: &MachineConfig) -> PredictionSummary {
        let mut hooks = BatchHooks {
            arena: self.prepared.arena(),
            cache_memo: &mut self.cache_memo,
            stride_memo: &mut self.stride_memo,
            cp_memo: &mut self.cp_memo,
            branch_memo: &mut self.branch_memo,
            counters: &mut self.counters,
            scratch: &mut self.scratch,
        };
        Evaluator {
            machine,
            config: &self.config,
        }
        .run(self.prepared, false, &mut hooks)
        .0
    }

    /// Predict a whole chunk of design points in order, appending one
    /// summary per machine to `out` (cleared first).
    pub fn predict_batch_into<'m, I>(&mut self, machines: I, out: &mut Vec<PredictionSummary>)
    where
        I: IntoIterator<Item = &'m MachineConfig>,
    {
        out.clear();
        for machine in machines {
            out.push(self.predict_summary(machine));
        }
    }

    /// Predict a chunk of design points carrying opaque caller keys, in
    /// iteration order, returning `(key, summary)` pairs. This is what
    /// makes demultiplexing a multi-caller batch structural: each caller
    /// tags its point, and the tag rides back with the result — no
    /// positional bookkeeping at the call site. Results are bit-identical
    /// to calling [`predict_summary`](Self::predict_summary) per point
    /// (in any order: the memos are evaluation-order-independent).
    pub fn predict_tagged<K, I>(&mut self, points: I) -> Vec<(K, PredictionSummary)>
    where
        I: IntoIterator<Item = (K, MachineConfig)>,
    {
        points
            .into_iter()
            .map(|(key, machine)| {
                let summary = self.predict_summary(&machine);
                (key, summary)
            })
            .collect()
    }
}

/// The batched [`EvalHooks`]: arena-backed cache queries and memoized
/// stride walks. Borrows the predictor's parts separately so the
/// `Evaluator` can hold `&mut hooks` while the predictor's profile stays
/// borrowed.
struct BatchHooks<'s> {
    arena: &'s CurveArena,
    cache_memo: &'s mut HashMap<CacheKey, CacheModel>,
    stride_memo: &'s mut HashMap<StrideKey, MemoryBehavior>,
    cp_memo: &'s mut HashMap<(u32, u32), f64>,
    branch_memo: &'s mut HashMap<BranchKey, BranchPenalty>,
    counters: &'s mut MemoStats,
    scratch: &'s mut StrideScratch,
}

impl EvalHooks for BatchHooks<'_> {
    fn cache_model(&mut self, id: CurveId, lines: [u64; 3]) -> CacheModel {
        let curve = id.arena_index();
        match self.cache_memo.entry((curve, lines)) {
            Entry::Occupied(hit) => {
                self.counters.cache_hits += 1;
                *hit.get()
            }
            Entry::Vacant(slot) => {
                self.counters.cache_misses += 1;
                *slot.insert(self.arena.evaluate(curve, lines))
            }
        }
    }

    fn stride_scratch(&mut self) -> &mut StrideScratch {
        self.scratch
    }

    fn stride(
        &mut self,
        machine: &MachineConfig,
        deff: f64,
        inp: &WindowInputs<'_>,
        loads: f64,
        store_llc_misses: f64,
    ) -> MemoryBehavior {
        let key = StrideKey {
            window: inp.window,
            crit_l3: inp.loads_model.critical_rd[2],
            rob: machine.core.rob_size,
            mshr: machine.mem.mshr_entries,
            prefetch: machine.prefetcher.enabled.then(|| PrefetchKey {
                table_entries: machine.prefetcher.table_entries,
                dram_page_bytes: machine.mem.dram_page_bytes,
                dram_latency: machine.mem.dram_latency,
                deff_bits: deff.to_bits(),
            }),
        };
        let mut behavior = match self.stride_memo.entry(key) {
            Entry::Occupied(hit) => {
                self.counters.stride_hits += 1;
                *hit.get()
            }
            Entry::Vacant(slot) => {
                self.counters.stride_misses += 1;
                *slot.insert(stride_stream_behavior(
                    machine,
                    deff,
                    inp,
                    loads,
                    store_llc_misses,
                    self.scratch,
                ))
            }
        };
        // Pass-through field, not part of the walk: always the current
        // point's value.
        behavior.llc_store_misses = store_llc_misses;
        behavior
    }

    fn critical_path(&mut self, inp: &WindowInputs<'_>, rob: u32) -> f64 {
        match self.cp_memo.entry((inp.window, rob)) {
            Entry::Occupied(hit) => {
                self.counters.cp_hits += 1;
                *hit.get()
            }
            Entry::Vacant(slot) => {
                self.counters.cp_misses += 1;
                *slot.insert(inp.deps.cp(rob))
            }
        }
    }

    fn branch(
        &mut self,
        inp: &WindowInputs<'_>,
        rob: u32,
        width: u32,
        frontend_depth: u32,
        interval: f64,
        lat: f64,
    ) -> BranchPenalty {
        let key = BranchKey {
            window: inp.window,
            rob,
            width,
            frontend_depth,
            interval_bits: interval.to_bits(),
            lat_bits: lat.to_bits(),
        };
        match self.branch_memo.entry(key) {
            Entry::Occupied(hit) => {
                self.counters.branch_hits += 1;
                *hit.get()
            }
            Entry::Vacant(slot) => {
                self.counters.branch_misses += 1;
                *slot.insert(branch_penalty(
                    inp.deps,
                    rob,
                    width,
                    frontend_depth,
                    interval,
                    lat,
                ))
            }
        }
    }
}
