//! Memory-level parallelism models (thesis §4.3–4.6, §4.9).
//!
//! Two models estimate the average number of overlapping DRAM accesses:
//!
//! * [`cold_miss_mlp`] — Eqs 4.1–4.3: cold misses carry the burstiness,
//!   capacity/conflict misses spread uniformly,
//! * [`StrideMlpModel`] — §4.5: rebuild a *virtual instruction stream*
//!   from per-static-load spacing/stride/reuse distributions, mark misses,
//!   impose inter-load dependences, and step ROB-sized windows over it.
//!
//! Both respect the MSHR soft cap (Eq 4.4); the stride model additionally
//! estimates stride-prefetcher coverage and timeliness (Eq 4.13).

use crate::cache_model::CacheModel;
use pmt_profiler::{LoadDependenceDistribution, StaticLoadProfile, StrideCategory};
use pmt_uarch::MachineConfig;
use serde::{Deserialize, Serialize};

/// The memory behaviour of one evaluation window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MemoryBehavior {
    /// Average overlapping DRAM loads while at least one is outstanding
    /// (≥ 1), after the MSHR cap.
    pub mlp: f64,
    /// LLC load misses in the window.
    pub llc_load_misses: f64,
    /// LLC load misses that actually stall the core (after prefetch
    /// hiding); ≤ `llc_load_misses`.
    pub stalling_load_misses: f64,
    /// LLC store misses in the window (bandwidth + power only).
    pub llc_store_misses: f64,
    /// Fraction of load misses covered by the prefetcher (0 without one).
    pub prefetch_coverage: f64,
    /// Fraction of ROB windows containing at least one LLC miss. Sparse
    /// misses (low density) have part of their latency hidden by window
    /// refill, and see no bus queuing.
    pub miss_window_density: f64,
}

/// Deterministic unit-interval hash (keeps the model reproducible without
/// an RNG).
#[inline]
fn unit_hash(a: u64, b: u64) -> f64 {
    let mut x = a ^ b.rotate_left(31) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Sample a dependence depth ℓ from f(ℓ) with a deterministic draw.
fn sample_depth(f: &LoadDependenceDistribution, draw: f64) -> usize {
    let mut acc = 0.0;
    for (l, p) in f.iter() {
        acc += p;
        if draw < acc {
            return l;
        }
    }
    1
}

/// The MSHR soft cap of Eq 4.4: the first `mshr` concurrent misses run in
/// parallel; the rest overlap only partially, waiting on a freed entry for
/// half a DRAM access on average.
pub fn mshr_soft_cap(raw_parallel: f64, mshr_entries: u32) -> f64 {
    let cap = mshr_entries as f64;
    if raw_parallel <= cap {
        return raw_parallel;
    }
    let waiting = raw_parallel - cap;
    // T_MSHRfree ≈ T_DRAM/2 ⇒ each waiting access contributes
    // (T_DRAM − T_DRAM/2)/T_DRAM = 0.5 of an overlap.
    cap + waiting * 0.5
}

/// The cold-miss MLP model (Eqs 4.1–4.3).
///
/// * `f` — inter-load dependence distribution,
/// * `m_llc` — overall LLC load miss *ratio* (probability a load misses),
/// * `cold_fraction_of_misses` — cold share of LLC misses,
/// * `mean_cold_per_rob` — average cold misses per ROB window containing
///   at least one (the burstiness carrier),
/// * `loads_per_rob` — L̄(ROB),
/// * `mshr_entries` — for the soft cap.
pub fn cold_miss_mlp(
    f: &LoadDependenceDistribution,
    m_llc: f64,
    cold_fraction_of_misses: f64,
    mean_cold_per_rob: f64,
    loads_per_rob: f64,
    mshr_entries: u32,
) -> f64 {
    if m_llc <= 0.0 {
        return 1.0;
    }
    let survive = |l: usize| (1.0 - m_llc).powi(l as i32 - 1);
    // Eq 4.1: independent cold misses per ROB.
    let mlp_cold: f64 = f
        .iter()
        .map(|(l, p)| survive(l) * mean_cold_per_rob * p)
        .sum();
    // Eq 4.2: capacity/conflict misses, spread uniformly.
    let m_cf = m_llc * (1.0 - cold_fraction_of_misses);
    let mlp_cf: f64 = f
        .iter()
        .map(|(l, p)| survive(l) * m_cf * loads_per_rob * p)
        .sum();
    // Eq 4.3: blend by miss-type share.
    let blended = cold_fraction_of_misses * mlp_cold + (1.0 - cold_fraction_of_misses) * mlp_cf;
    mshr_soft_cap(blended, mshr_entries).max(1.0)
}

/// One occurrence in the virtual instruction stream.
#[derive(Clone, Copy, Debug)]
struct VirtualLoad {
    position: u64,
    /// Index of the owning static load.
    owner: u32,
    /// Misses the LLC.
    misses_llc: bool,
    /// The miss is a first-ever touch (cold). Cold misses happen once and
    /// must not be extrapolated with the window weight.
    cold: bool,
    /// Dependence depth ℓ.
    depth: u8,
    /// Prefetch latency-hiding factor φ ∈ [0, 1]: 0 = fully hidden.
    stall_factor: f64,
}

/// One occurrence in the machine-independent stream skeleton.
#[derive(Clone, Copy, Debug)]
struct SkeletonLoad {
    position: u64,
    /// Index of the owning static load.
    owner: u32,
    /// Deterministic unit draw deciding whether this occurrence misses.
    miss_draw: f64,
    /// Pre-sampled dependence depth ℓ.
    depth: u8,
}

/// The micro-architecture independent skeleton of a micro-trace's virtual
/// instruction stream (§4.5).
///
/// Occurrence positions, the deterministic hash draws and the sampled
/// dependence depths are fixed by the application profile alone, so
/// [`crate::PreparedProfile`] builds this once per micro-trace; every
/// design point then only re-classifies each occurrence as hit/miss/cold
/// against that machine's critical reuse distance
/// ([`StrideMlpModel::evaluate_stream`]). The skeleton also carries each
/// static load's reuse table — the suffix sums of its sampled reuse
/// counts in distance order — so that classification is one binary
/// search per load instead of two passes over its reuse list, with
/// bit-identical results.
#[derive(Clone, Debug, Default)]
pub struct VirtualStream {
    entries: Vec<SkeletonLoad>,
    /// Length of the `static_loads` slice this skeleton was built from;
    /// `entries[..].owner` index into exactly that slice.
    owners: usize,
    /// Per-static-load miss-probability tables, parallel to that slice.
    reuse: ReuseTables,
    /// Deepest sampled dependence depth ℓ in `entries` (0 when empty).
    max_depth: u8,
}

impl VirtualStream {
    /// Rebuild the stream skeleton from per-static-load profiles and the
    /// inter-load dependence distribution `f`, identical (ordering
    /// included) to the stream [`StrideMlpModel::evaluate`] builds inline.
    pub fn build(
        static_loads: &[StaticLoadProfile],
        f: &LoadDependenceDistribution,
        stream_uops: u64,
    ) -> VirtualStream {
        let mut entries: Vec<SkeletonLoad> = Vec::new();
        for (owner, load) in static_loads.iter().enumerate() {
            let spacing = load.mean_spacing.max(1.0);
            for k in 0..load.count {
                let position = load.first_pos as u64 + (k as f64 * spacing) as u64;
                if position >= stream_uops {
                    break;
                }
                let miss_draw = unit_hash(load.pc, k.wrapping_mul(2));
                let depth_draw = unit_hash(load.pc, k.wrapping_mul(2) + 1);
                entries.push(SkeletonLoad {
                    position,
                    owner: owner as u32,
                    miss_draw,
                    depth: sample_depth(f, depth_draw) as u8,
                });
            }
        }
        // Stable sort: occurrences at equal positions keep their
        // owner-major construction order, exactly like the inline build.
        entries.sort_by_key(|v| v.position);
        let max_depth = entries.iter().map(|v| v.depth).max().unwrap_or(0);
        VirtualStream {
            entries,
            owners: static_loads.len(),
            reuse: ReuseTables::build(static_loads),
            max_depth,
        }
    }

    /// Occurrences in the skeleton.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the skeleton is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The miss-probability table of static load `owner`.
    fn reuse_table(&self, owner: usize) -> ReuseTable<'_> {
        self.reuse.table(owner)
    }
}

/// The reuse tables of one static-load slice in compressed-row form,
/// in a single allocation: `data` is `starts` (`loads + 1` offsets),
/// then `suffix`, then `sorted` (or nothing). Load `i`'s run is
/// `starts[i]..starts[i + 1]` of `suffix` and `sorted`, one entry per
/// element of its `reuse` list.
///
/// * `suffix[starts[i] + k]` is the summed count of load `i`'s `k`-th
///   and later distances in distance order, so a run's first entry is
///   the load's sampled total.
/// * `sorted` holds every load's distances, sorted per load — built
///   only when some load's `reuse` list is not sorted by distance. The
///   profiler always sorts, so profiled streams search `reuse` in place
///   and add only their offsets and suffix sums.
///
/// One block per window rather than one per section: the tables live as
/// long as the prepared profile, and each extra long-lived small block
/// can pin freed heap memory around it (two blocks per window raised
/// `validate-grid`'s peak RSS by ~5 MB, one block by under 1 MB).
#[derive(Clone, Debug)]
struct ReuseTables {
    data: Vec<u64>,
    /// Static loads covered.
    loads: usize,
}

impl Default for ReuseTables {
    fn default() -> ReuseTables {
        ReuseTables::build(&[])
    }
}

impl ReuseTables {
    fn build(static_loads: &[StaticLoadProfile]) -> ReuseTables {
        let loads = static_loads.len();
        let total: usize = static_loads.iter().map(|l| l.reuse.len()).sum();
        let all_sorted = static_loads
            .iter()
            .all(|l| l.reuse.windows(2).all(|w| w[0].0 <= w[1].0));
        let sorted_len = if all_sorted { 0 } else { total };
        let mut data = vec![0u64; loads + 1 + total + sorted_len];
        let (starts, rest) = data.split_at_mut(loads + 1);
        let (suffix, sorted) = rest.split_at_mut(total);
        let mut by_distance: Vec<(u64, u32)> = Vec::new();
        let mut start = 0;
        for (i, load) in static_loads.iter().enumerate() {
            starts[i] = start as u64;
            let run = start..start + load.reuse.len();
            let reuse: &[(u64, u32)] = if all_sorted {
                &load.reuse
            } else {
                by_distance.clear();
                by_distance.extend_from_slice(&load.reuse);
                by_distance.sort_by_key(|&(d, _)| d);
                for (slot, &(d, _)) in sorted[run.clone()].iter_mut().zip(&by_distance) {
                    *slot = d;
                }
                &by_distance
            };
            // Integer sums: any order gives the same totals the linear
            // passes of `StaticLoadProfile::miss_probability` compute.
            let mut tail = 0u64;
            for (slot, &(_, c)) in suffix[run].iter_mut().zip(reuse).rev() {
                tail += c as u64;
                *slot = tail;
            }
            start += load.reuse.len();
        }
        starts[loads] = start as u64;
        ReuseTables { data, loads }
    }

    fn table(&self, owner: usize) -> ReuseTable<'_> {
        let (starts, rest) = self.data.split_at(self.loads + 1);
        let (suffix, sorted) = rest.split_at(starts[self.loads] as usize);
        let run = starts[owner] as usize..starts[owner + 1] as usize;
        ReuseTable {
            suffix: &suffix[run.clone()],
            sorted: (!sorted.is_empty()).then(|| &sorted[run]),
        }
    }
}

/// One static load's miss-probability table: the suffix sums of its
/// sampled reuse counts in distance order, plus its sorted distances
/// when its stream had an unsorted `reuse` list.
#[derive(Clone, Copy, Debug)]
struct ReuseTable<'a> {
    suffix: &'a [u64],
    sorted: Option<&'a [u64]>,
}

impl ReuseTable<'_> {
    /// Bit-identical to `load.miss_probability(critical_rd)` for the
    /// load this table was built from: the same `count == 0` and
    /// cold-only answers, and otherwise the same integer `missing` and
    /// `sampled` counts, found with one binary search for the first
    /// distance above `critical_rd` instead of two passes over
    /// `load.reuse`.
    fn miss_probability(&self, load: &StaticLoadProfile, critical_rd: u64) -> f64 {
        if load.count == 0 {
            return 0.0;
        }
        let sampled = self.suffix.first().copied().unwrap_or(0);
        if sampled == 0 {
            // Only cold information: cold accesses always miss.
            return load.cold_fraction;
        }
        let first_missing = match self.sorted {
            Some(distances) => distances.partition_point(|&d| d <= critical_rd),
            None => load.reuse.partition_point(|&(d, _)| d <= critical_rd),
        };
        let missing = self.suffix.get(first_missing).copied().unwrap_or(0);
        let reuse_miss = missing as f64 / sampled as f64;
        // Cold accesses miss unconditionally; reuses miss per StatStack.
        load.cold_fraction + (1.0 - load.cold_fraction) * reuse_miss
    }
}

/// Buffers the stride walk reuses across windows and design points, so
/// [`StrideMlpModel::evaluate_stream`] allocates only while they grow.
/// Holds no state between calls: every call overwrites what it reads.
#[derive(Clone, Debug, Default)]
pub struct StrideScratch {
    /// Per-static-load `(p_miss, p_cold)`.
    probs: Vec<(f64, f64)>,
    /// The classified stream.
    stream: Vec<VirtualLoad>,
    /// `survive(ℓ)` for every sampled depth ℓ of the window.
    survive: Vec<f64>,
    /// The prefetch table's LRU list: `(owner, recurrences tracked)`.
    lru: Vec<(u32, u32)>,
}

/// The stride-MLP model (thesis §4.5): per-micro-trace virtual instruction
/// stream analysis.
pub struct StrideMlpModel<'a> {
    machine: &'a MachineConfig,
    /// Effective dispatch rate of the window (for prefetch timeliness).
    pub deff: f64,
}

impl<'a> StrideMlpModel<'a> {
    /// Create the model.
    pub fn new(machine: &'a MachineConfig, deff: f64) -> StrideMlpModel<'a> {
        StrideMlpModel { machine, deff }
    }

    /// Evaluate a micro-trace.
    ///
    /// * `static_loads` — per-static-load profiles from the profiler,
    /// * `loads_model` — the window's fitted cache model (for critical
    ///   reuse distances),
    /// * `f` — inter-load dependence distribution,
    /// * `stream_uops` — length of the virtual stream (micro-trace μops),
    /// * `total_window_loads` — loads the full window stands for (used to
    ///   scale miss counts),
    /// * `store_llc_misses` — LLC store misses (bandwidth scaling).
    #[allow(clippy::too_many_arguments)] // mirrors the thesis' Eq 4.x parameter list
    pub fn evaluate(
        &self,
        static_loads: &[StaticLoadProfile],
        loads_model: &CacheModel,
        f: &LoadDependenceDistribution,
        stream_uops: u64,
        total_window_loads: f64,
        store_llc_misses: f64,
        window_cold_misses: f64,
    ) -> MemoryBehavior {
        self.evaluate_stream(
            &VirtualStream::build(static_loads, f, stream_uops),
            static_loads,
            loads_model,
            stream_uops,
            total_window_loads,
            store_llc_misses,
            window_cold_misses,
            &mut StrideScratch::default(),
        )
    }

    /// Evaluate a micro-trace whose stream skeleton was prebuilt
    /// ([`VirtualStream::build`]). This is the per-design-point fast path:
    /// the positions/draws/depths and the per-load reuse tables are
    /// reused, and only the machine-dependent classification (miss vs
    /// hit against this machine's critical reuse distance, prefetch
    /// timeliness, ROB-window stepping) is redone, in `scratch`'s
    /// buffers.
    #[allow(clippy::too_many_arguments)] // mirrors the thesis' Eq 4.x parameter list
    pub fn evaluate_stream(
        &self,
        skeleton: &VirtualStream,
        static_loads: &[StaticLoadProfile],
        loads_model: &CacheModel,
        stream_uops: u64,
        total_window_loads: f64,
        store_llc_misses: f64,
        window_cold_misses: f64,
        scratch: &mut StrideScratch,
    ) -> MemoryBehavior {
        assert_eq!(
            skeleton.owners,
            static_loads.len(),
            "virtual-stream skeleton was built from a different static-load set"
        );
        let rob = self.machine.core.rob_size as u64;
        let crit_l3 = loads_model.critical_rd[2];
        let use_prefetcher = self.machine.prefetcher.enabled;
        let StrideScratch {
            probs,
            stream,
            survive,
            lru,
        } = scratch;

        // --- Classify the prebuilt stream for this machine -----------------
        // Per-static-load miss probabilities, split into cold and reuse
        // parts (computed once per owner, as the inline build does).
        probs.clear();
        probs.extend(static_loads.iter().enumerate().map(|(owner, load)| {
            let p_miss = skeleton.reuse_table(owner).miss_probability(load, crit_l3);
            (p_miss, load.cold_fraction.min(p_miss))
        }));
        stream.clear();
        stream.extend(skeleton.entries.iter().map(|s| {
            let (p_miss, p_cold) = probs[s.owner as usize];
            let misses = s.miss_draw < p_miss;
            VirtualLoad {
                position: s.position,
                owner: s.owner,
                misses_llc: misses,
                cold: misses && s.miss_draw < p_cold,
                depth: s.depth,
                stall_factor: 1.0,
            }
        }));
        let stream = &mut stream[..];

        // --- Prefetcher coverage & timeliness (§4.9, Eq 4.13) --------------
        if use_prefetcher && !stream.is_empty() {
            self.apply_prefetcher(stream, static_loads, lru);
        }

        // --- Step ROB windows, count independent LLC misses ----------------
        // Windows begin at a (predicted) main-memory access and step (the
        // thesis' explicit choice over sliding, §4.5).
        let m_llc_ratio = if stream.is_empty() {
            0.0
        } else {
            stream.iter().filter(|v| v.misses_llc).count() as f64 / stream.len() as f64
        };
        // survive(ℓ) = (1 − m)^(ℓ−1), once per sampled depth.
        survive.clear();
        survive.extend((0..=skeleton.max_depth).map(|l| (1.0 - m_llc_ratio).powi(l as i32 - 1)));
        // Every window's MLP is ≥ 1, so a running sum from 0.0 adds the
        // same values in the same order as summing them afterwards.
        let mut mlp_sum = 0.0;
        let mut miss_windows = 0usize;
        let mut i = 0usize;
        while i < stream.len() {
            while i < stream.len() && !stream[i].misses_llc {
                i += 1;
            }
            if i >= stream.len() {
                break;
            }
            let window_start = stream[i].position;
            let window_end = window_start + rob;
            let mut independent = 0.0;
            let mut misses = 0u32;
            let mut j = i;
            while j < stream.len() && stream[j].position < window_end {
                if stream[j].misses_llc {
                    misses += 1;
                    independent += survive[stream[j].depth as usize];
                }
                j += 1;
            }
            if misses > 0 {
                mlp_sum += independent.max(1.0);
                miss_windows += 1;
            }
            i = j.max(i + 1);
        }

        let raw_mlp = if miss_windows == 0 {
            1.0
        } else {
            mlp_sum / miss_windows as f64
        };
        let mlp = mshr_soft_cap(raw_mlp, self.machine.mem.mshr_entries).max(1.0);
        let total_windows = (stream_uops / rob).max(1) as f64;
        let miss_window_density = (miss_windows as f64 / total_windows).min(1.0);

        // --- Scale the virtual stream's misses to the full window ----------
        // Reuse misses are a stationary *rate* and extrapolate with the
        // window weight; cold misses happen once, and the profiler counted
        // the window's exact total, so they are taken verbatim.
        let stream_loads = stream.len() as f64;
        let mut reuse_misses = 0.0;
        let mut reuse_stalled = 0.0;
        let mut cold_misses_stream = 0.0;
        let mut cold_stalled = 0.0;
        for v in stream.iter().filter(|v| v.misses_llc) {
            if v.cold {
                cold_misses_stream += 1.0;
                cold_stalled += v.stall_factor;
            } else {
                reuse_misses += 1.0;
                reuse_stalled += v.stall_factor;
            }
        }
        let (reuse_frac, reuse_stall_frac) = if stream_loads > 0.0 {
            (reuse_misses / stream_loads, reuse_stalled / stream_loads)
        } else {
            (0.0, 0.0)
        };
        let cold_stall_ratio = if cold_misses_stream > 0.0 {
            cold_stalled / cold_misses_stream
        } else {
            1.0
        };
        let llc_load_misses = reuse_frac * total_window_loads + window_cold_misses;
        let stalling =
            reuse_stall_frac * total_window_loads + cold_stall_ratio * window_cold_misses;

        MemoryBehavior {
            mlp,
            llc_load_misses,
            stalling_load_misses: stalling,
            llc_store_misses: store_llc_misses,
            prefetch_coverage: if llc_load_misses > 0.0 {
                1.0 - stalling / llc_load_misses
            } else {
                0.0
            },
            miss_window_density,
        }
    }

    /// Walk the virtual stream with a finite prefetch table (Fig 4.10) and
    /// apply the timeliness rule of Eq 4.13. `lru` is scratch space for
    /// the table's LRU list of `(owner, recurrences tracked)`.
    fn apply_prefetcher(
        &self,
        stream: &mut [VirtualLoad],
        static_loads: &[StaticLoadProfile],
        lru: &mut Vec<(u32, u32)>,
    ) {
        let table = self.machine.prefetcher.table_entries as usize;
        let page = self.machine.mem.dram_page_bytes as i64;
        let dram = self.machine.mem.dram_latency as f64;
        let rob = self.machine.core.rob_size as f64;
        lru.clear();
        for v in stream.iter_mut() {
            let owner = v.owner;
            let load = &static_loads[owner as usize];
            let trained = match lru.iter().position(|&(o, _)| o == owner) {
                Some(pos) => {
                    let (o, seen) = lru.remove(pos);
                    lru.insert(0, (o, seen + 1));
                    seen + 1 >= 2 // needs two tracked recurrences to train
                }
                None => {
                    lru.insert(0, (owner, 0));
                    lru.truncate(table.max(1));
                    false
                }
            };
            if !trained || !v.misses_llc {
                continue;
            }
            // Only strided loads with in-page strides are prefetchable.
            let prefetchable = load.category.is_strided()
                && load
                    .strides
                    .first()
                    .map(|&(s, _)| s != 0 && s.abs() < page)
                    .unwrap_or(false);
            if !prefetchable {
                continue;
            }
            // Timeliness (Eq 4.13): the prefetch fires one recurrence
            // ahead; spacing ≥ ROB hides everything, otherwise partially.
            let spacing = load.mean_spacing.max(1.0);
            if spacing >= rob {
                v.stall_factor = 0.0;
            } else {
                let hidden = spacing / self.deff.max(0.1);
                v.stall_factor = ((dram - hidden) / dram).clamp(0.0, 1.0);
            }
        }
    }
}

/// Classification helper: is this load "unique" in the Fig 4.7 sense?
pub fn is_unique(load: &StaticLoadProfile) -> bool {
    load.category == StrideCategory::Unique
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmt_profiler::LoadDependenceDistribution;
    use proptest::prelude::*;

    fn f_indep() -> LoadDependenceDistribution {
        LoadDependenceDistribution::from_fractions(vec![1.0], 8.0)
    }

    fn f_chained() -> LoadDependenceDistribution {
        // All loads at depth 4: heavily serialized.
        LoadDependenceDistribution::from_fractions(vec![0.0, 0.0, 0.0, 1.0], 8.0)
    }

    #[test]
    fn cold_mlp_grows_with_burstiness() {
        let quiet = cold_miss_mlp(&f_indep(), 0.1, 0.9, 1.0, 10.0, 32);
        let bursty = cold_miss_mlp(&f_indep(), 0.1, 0.9, 8.0, 10.0, 32);
        assert!(bursty > quiet, "{bursty} vs {quiet}");
    }

    #[test]
    fn cold_mlp_is_reduced_by_dependences() {
        let indep = cold_miss_mlp(&f_indep(), 0.5, 0.5, 6.0, 10.0, 32);
        let chained = cold_miss_mlp(&f_chained(), 0.5, 0.5, 6.0, 10.0, 32);
        assert!(chained < indep, "{chained} vs {indep}");
    }

    #[test]
    fn cold_mlp_floors_at_one() {
        assert_eq!(cold_miss_mlp(&f_indep(), 0.0, 0.0, 0.0, 0.0, 8), 1.0);
    }

    #[test]
    fn mshr_cap_is_soft() {
        assert_eq!(mshr_soft_cap(5.0, 10), 5.0);
        let capped = mshr_soft_cap(20.0, 10);
        assert!(capped > 10.0 && capped < 20.0, "{capped}");
        assert!((capped - 15.0).abs() < 1e-9);
    }

    #[test]
    fn unit_hash_is_deterministic_and_uniformish() {
        let a = unit_hash(42, 7);
        assert_eq!(a, unit_hash(42, 7));
        let mean: f64 = (0..1000).map(|i| unit_hash(99, i)).sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "{mean}");
    }

    /// A static load with the given reuse list, in the given order.
    fn load_with(reuse: Vec<(u64, u32)>, count: u64, cold_fraction: f64) -> StaticLoadProfile {
        StaticLoadProfile {
            pc: 0x400,
            count,
            first_pos: 0,
            mean_spacing: 4.0,
            strides: vec![(8, 1.0)],
            category: StrideCategory::SingleExact,
            reuse,
            cold_fraction,
        }
    }

    /// Distances drawn from a small palette, so lists repeat distances
    /// and hit both ends of the `u64` range.
    const DISTANCES: [u64; 8] = [0, 1, 2, 7, 300, 1 << 20, u64::MAX - 1, u64::MAX];

    fn assert_table_matches(loads: &[StaticLoadProfile], extra_rds: &[u64]) {
        let stream = VirtualStream::build(loads, &f_indep(), 0);
        for (owner, load) in loads.iter().enumerate() {
            let table = stream.reuse_table(owner);
            let rds = load
                .reuse
                .iter()
                .flat_map(|&(d, _)| [d, d.saturating_sub(1), d.saturating_add(1)])
                .chain([0, u64::MAX])
                .chain(extra_rds.iter().copied());
            for rd in rds {
                assert_eq!(
                    table.miss_probability(load, rd).to_bits(),
                    load.miss_probability(rd).to_bits(),
                    "reuse {:?} count {} cold {} rd {rd}",
                    load.reuse,
                    load.count,
                    load.cold_fraction
                );
            }
        }
    }

    #[test]
    fn reuse_table_covers_the_edge_cases() {
        let loads = vec![
            load_with(vec![], 10, 0.25),                      // empty list
            load_with(vec![(5, 0), (9, 0)], 10, 0.5),         // cold-only
            load_with(vec![(5, 3), (9, 1)], 0, 0.5),          // count == 0
            load_with(vec![(9, 1), (5, 3), (9, 2)], 10, 0.1), // unsorted, duplicate
            load_with(vec![(0, 1), (u64::MAX, 4)], 10, 0.0),  // both ends
            load_with(vec![(3, 2), (3, 2), (8, 1)], 10, 1.0), // sorted, duplicate
        ];
        // With the unsorted load aboard, every load is searched in the
        // sorted copy; without it, in place.
        assert_table_matches(&loads, &[4, 6]);
        let in_order: Vec<_> = loads
            .into_iter()
            .filter(|l| l.reuse.windows(2).all(|w| w[0].0 <= w[1].0))
            .collect();
        assert_eq!(in_order.len(), 5);
        assert_table_matches(&in_order, &[4, 6]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One search over the prepared suffix sums answers exactly what
        /// the two linear passes of `StaticLoadProfile::miss_probability`
        /// do: unsorted, duplicate and empty reuse lists, zero counts,
        /// cold-only loads, at critical distances 0, `u64::MAX`, every
        /// listed distance and its neighbours.
        #[test]
        fn reuse_table_matches_miss_probability(
            lists in prop::collection::vec(
                (
                    prop::collection::vec((0usize..8, 0u32..5), 0..10),
                    0u64..4,
                    0.0f64..1.0,
                    any::<bool>(),
                ),
                1..6,
            ),
            rd in any::<u64>(),
        ) {
            let loads: Vec<StaticLoadProfile> = lists
                .into_iter()
                .map(|(raw, count, cold, sort)| {
                    let mut reuse: Vec<(u64, u32)> =
                        raw.into_iter().map(|(d, c)| (DISTANCES[d], c)).collect();
                    if sort {
                        reuse.sort_unstable();
                    }
                    load_with(reuse, count, cold)
                })
                .collect();
            assert_table_matches(&loads, &[rd]);
        }
    }

    #[test]
    fn depth_sampling_respects_distribution() {
        let f = LoadDependenceDistribution::from_fractions(vec![0.5, 0.5], 4.0);
        let mut ones = 0;
        for i in 0..1000 {
            if sample_depth(&f, unit_hash(1, i)) == 1 {
                ones += 1;
            }
        }
        assert!(ones > 400 && ones < 600, "{ones}");
    }
}
