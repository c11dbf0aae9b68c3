//! The one-time, machine-independent compilation of an
//! [`ApplicationProfile`] — fit once, predict the whole design space.
//!
//! The paper's headline claim is that design-space exploration is fast
//! *because* profiling is micro-architecture independent: profile once,
//! predict many. [`PreparedProfile`] makes the "once" part explicit. It
//! fits every StatStack model the interval model will ever query (the
//! per-micro-trace load/store histograms, the global load/store
//! histograms for combined mode, and the instruction path) and lays each
//! fitted curve out in one flat structure-of-arrays curve arena — the
//! only copy of the fits; the fitted models themselves are dropped. It
//! also precomputes the per-window μop class counts, entropy fallbacks
//! and the stride-MLP virtual-stream skeletons — all of which depend
//! only on the profile. Each skeleton carries per-static-load reuse
//! tables: the suffix sums of the load's sampled reuse counts in
//! distance order (whose first entry is its sampled total), searched
//! against the load's own sorted `reuse` list, or against a sorted copy
//! of the window's distances when some list arrived unsorted (a
//! hand-written `--profile` or registered JSON profile; the profiler
//! always sorts). A design point's per-load miss probability is then
//! one binary search. Everything is read-only after construction, so
//! rayon workers and batch predictors evaluating different design points
//! share one preparation and never refit or copy a curve.
//!
//! Per design point, [`IntervalModel::predict_prepared`] then performs
//! only the machine-*dependent* work: searched miss-ratio /
//! critical-reuse-distance queries against the arena, searched
//! per-load miss probabilities against the reuse tables, plus the
//! Eq 3.1 arithmetic.
//!
//! ```
//! use pmt_core::{IntervalModel, PreparedProfile};
//! use pmt_profiler::{Profiler, ProfilerConfig};
//! use pmt_uarch::{DesignSpace, MachineConfig};
//! use pmt_workloads::WorkloadSpec;
//!
//! let spec = WorkloadSpec::by_name("astar").unwrap();
//! let profile = Profiler::new(ProfilerConfig::fast_test())
//!     .profile_named("astar", &mut spec.trace(20_000));
//! let prepared = PreparedProfile::new(&profile); // fit once...
//! for point in DesignSpace::small().enumerate() {
//!     // ...query many: bit-identical to `predict`, far cheaper.
//!     let summary = IntervalModel::new(&point.machine).predict_summary(&prepared);
//!     assert!(summary.cpi() > 0.0);
//! }
//! ```
//!
//! [`IntervalModel::predict_prepared`]: crate::IntervalModel::predict_prepared

use crate::kernels::arena::CurveArena;
use crate::mlp::VirtualStream;
use pmt_profiler::{ApplicationProfile, StaticLoadProfile};
use pmt_statstack::StackDistanceModel;
use pmt_trace::UopClass;

/// Machine-independent precomputation for one micro-trace window.
pub(crate) struct PreparedWindow {
    /// μop class counts scaled to the window weight.
    pub class_counts: [f64; UopClass::COUNT],
    /// Branch entropy with the too-few-branches fallback applied.
    pub entropy: f64,
    /// Prebuilt virtual-stream skeleton for the stride-MLP model.
    pub stream: VirtualStream,
}

/// A one-time, machine-independent compilation of an
/// [`ApplicationProfile`]: every StatStack curve prefitted into one
/// arena, every per-window scalar precomputed. Borrow it wherever the
/// profile lives; it is `Sync`, so one instance serves a whole
/// rayon-parallel sweep.
pub struct PreparedProfile<'a> {
    profile: &'a ApplicationProfile,
    /// Every fitted curve, in `CurveId` evaluation order: instruction,
    /// global loads, global stores, then each window's loads/stores pair.
    arena: CurveArena,
    /// Per-micro-trace precomputation, parallel to `profile.micro_traces`.
    windows: Vec<PreparedWindow>,
    /// Combined-mode μop class counts.
    combined_class_counts: [f64; UopClass::COUNT],
    /// Combined-mode stride sample (the first micro-trace's static loads)
    /// and its stream length — snapshotted here so the skeleton below and
    /// the slice its `owner` indices point into can never diverge.
    combined_static: &'a [StaticLoadProfile],
    combined_uops: u64,
    /// Combined-mode virtual-stream skeleton (`combined_static` with the
    /// *global* dependence distribution).
    combined_stream: VirtualStream,
}

impl<'a> PreparedProfile<'a> {
    /// Fit all machine-independent models of `profile` once.
    pub fn new(profile: &'a ApplicationProfile) -> PreparedProfile<'a> {
        // Every fit of a non-empty histogram has one knot per bin floor,
        // so the instruction curve sizes the whole arena.
        let inst = StackDistanceModel::from_reuse(&profile.memory.inst);
        let mut arena =
            CurveArena::with_capacity(3 + 2 * profile.micro_traces.len(), inst.curve().0.len());
        arena.push(&inst);
        arena.push(&StackDistanceModel::from_reuse(&profile.memory.loads));
        arena.push(&StackDistanceModel::from_reuse(&profile.memory.stores));
        let windows = profile
            .micro_traces
            .iter()
            .map(|t| {
                let upi = if t.mix.instructions() > 0 {
                    t.mix.uops_per_instruction()
                } else {
                    profile.uops_per_instruction().max(1.0)
                };
                let n_uops = t.weight_instructions as f64 * upi;
                let mut class_counts = [0.0; UopClass::COUNT];
                for c in UopClass::ALL {
                    class_counts[c.index()] = t.mix.fraction(c) * n_uops;
                }
                // Fall back to the global entropy when the micro-trace saw
                // too few branches to estimate its own.
                let entropy = if t.branches >= 64 {
                    t.branch_entropy
                } else {
                    profile.branch.entropy
                };
                arena.push(&StackDistanceModel::from_reuse(&t.loads));
                arena.push(&StackDistanceModel::from_reuse(&t.stores));
                PreparedWindow {
                    class_counts,
                    entropy,
                    stream: VirtualStream::build(&t.static_loads, &t.load_deps, t.uops),
                }
            })
            .collect();

        let n_uops = profile.total_uops.max(1.0);
        let mut combined_class_counts = [0.0; UopClass::COUNT];
        for c in UopClass::ALL {
            combined_class_counts[c.index()] = profile.mix.fraction(c) * n_uops;
        }
        // Combined mode samples strides from the first micro-trace but
        // draws dependence depths from the global distribution.
        let (combined_static, combined_uops) = profile
            .micro_traces
            .first()
            .map(|t| (t.static_loads.as_slice(), t.uops))
            .unwrap_or((&[], 0));
        PreparedProfile {
            arena,
            windows,
            combined_class_counts,
            combined_static,
            combined_uops,
            combined_stream: VirtualStream::build(
                combined_static,
                &profile.load_deps,
                combined_uops,
            ),
            profile,
        }
    }

    /// The profile this preparation was compiled from.
    pub fn profile(&self) -> &'a ApplicationProfile {
        self.profile
    }

    /// Every fitted curve, indexed by `CurveId::arena_index`.
    pub(crate) fn arena(&self) -> &CurveArena {
        &self.arena
    }

    /// Per-micro-trace precomputations, parallel to
    /// `profile().micro_traces`.
    pub(crate) fn windows(&self) -> &[PreparedWindow] {
        &self.windows
    }

    /// Combined-mode class counts.
    pub(crate) fn combined_class_counts(&self) -> &[f64; UopClass::COUNT] {
        &self.combined_class_counts
    }

    /// Combined-mode stride sample, stream length and skeleton, as one
    /// unit: `combined_stream`'s `owner` indices index into exactly this
    /// slice.
    pub(crate) fn combined_stride_inputs(&self) -> (&'a [StaticLoadProfile], u64, &VirtualStream) {
        (
            self.combined_static,
            self.combined_uops,
            &self.combined_stream,
        )
    }
}
