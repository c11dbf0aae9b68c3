//! The tentpole guarantee of the prepared-profile fast path: for every
//! machine configuration, `predict`, `predict_prepared`,
//! `predict_summary` and the batched [`BatchPredictor`] return exactly
//! the bytes of the scalar reference (`pmt_core::reference`: every curve
//! refitted from the raw profile, queried through
//! `CacheModel::from_fitted`, no memo) — the preparation (and the
//! batching) moves work, never arithmetic.

use pmt_core::{reference, BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_trace::SamplingConfig;
use pmt_uarch::{CacheConfig, DesignSpace, MachineConfig};
use pmt_workloads::WorkloadSpec;
use proptest::prelude::*;
use std::sync::OnceLock;

fn profile_of(name: &str, n: u64) -> ApplicationProfile {
    let spec = WorkloadSpec::by_name(name).expect("suite member");
    Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(n))
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// Assert every production path agrees byte for byte with the scalar
/// reference on one machine. `batch` may carry memos warmed by earlier
/// points.
fn assert_identical(
    model: &IntervalModel,
    prepared: &PreparedProfile<'_>,
    batch: &mut BatchPredictor<'_, '_>,
    ctx: &str,
) {
    let want = reference::predict(model, prepared);
    assert_eq!(
        json(&model.predict(prepared.profile())),
        json(&want),
        "predict drifted: {ctx}"
    );
    assert_eq!(
        json(&model.predict_prepared(prepared)),
        json(&want),
        "predict_prepared drifted: {ctx}"
    );
    let summary = json(&want.summary());
    assert_eq!(
        json(&model.predict_summary(prepared)),
        summary,
        "predict_summary drifted: {ctx}"
    );
    assert_eq!(
        json(&batch.predict_summary(model.machine())),
        summary,
        "batched drifted: {ctx}"
    );
}

/// Every point of `space` through every path, one shared predictor.
fn assert_space_identical(
    profile: &ApplicationProfile,
    config: &ModelConfig,
    space: &DesignSpace,
    ctx: &str,
) {
    let prepared = PreparedProfile::new(profile);
    let mut batch = BatchPredictor::new(&prepared, config);
    for point in space.enumerate() {
        let model = IntervalModel::with_config(&point.machine, config.clone());
        assert_identical(
            &model,
            &prepared,
            &mut batch,
            &format!("{ctx} @ {}", point.machine.name),
        );
    }
}

/// Three workloads × the 27-point validation subspace, bytes compared via
/// serde_json (shortest-round-trip floats: equal strings ⇔ equal bits).
#[test]
fn prepared_is_bit_identical_across_validation_subspace() {
    for name in ["astar", "mcf", "gcc"] {
        assert_space_identical(
            &profile_of(name, 30_000),
            &ModelConfig::default(),
            &DesignSpace::validation_subspace(),
            name,
        );
    }
}

/// The golden acceptance check: the full 243-point Table 6.3 space, one
/// preparation, every point bit-identical to the scalar reference — and
/// one shared [`BatchPredictor`] (memos warm across all 243 points)
/// matching it byte for byte.
#[test]
fn prepared_is_bit_identical_across_the_full_243_point_space() {
    let space = DesignSpace::thesis_table_6_3();
    assert_eq!(space.len(), 243);
    assert_space_identical(
        &profile_of("astar", 30_000),
        &ModelConfig::default(),
        &space,
        "astar",
    );
}

/// Combined (ISPASS'15) mode exercises the global-histogram fits and the
/// combined stream skeleton — a different prepared code path.
#[test]
fn prepared_is_bit_identical_in_combined_mode() {
    assert_space_identical(
        &profile_of("mcf", 30_000),
        &ModelConfig::ispass_2015(),
        &DesignSpace::small(),
        "combined",
    );
}

/// A profile with no micro-traces must fall back to combined mode
/// identically on every path.
#[test]
fn prepared_handles_empty_micro_traces() {
    let mut profile = profile_of("gcc", 20_000);
    profile.micro_traces.clear();
    let prepared = PreparedProfile::new(&profile);
    let config = ModelConfig::default();
    let mut batch = BatchPredictor::new(&prepared, &config);
    let model = IntervalModel::new(&MachineConfig::nehalem());
    assert_identical(&model, &prepared, &mut batch, "no micro-traces");
}

/// The shape every served and benchmarked profile has (`pmt profile`:
/// 300k instructions, 100 windows of 1k-instruction micro-traces) on
/// the four benchmark workloads, in per-window and combined modes.
#[test]
fn prepared_is_bit_identical_at_the_cli_profile_shape() {
    const INSTRUCTIONS: u64 = 300_000;
    const WINDOWS: u64 = 100;
    let mut cfg = ProfilerConfig::thesis_default();
    cfg.sampling = SamplingConfig {
        micro_trace_instructions: 1_000,
        window_instructions: INSTRUCTIONS / WINDOWS,
    };
    for name in ["astar", "gcc", "mcf", "lbm"] {
        let spec = WorkloadSpec::by_name(name).expect("suite member");
        let profile = Profiler::new(cfg.clone()).profile_named(name, &mut spec.trace(INSTRUCTIONS));
        assert_eq!(profile.micro_traces.len() as u64, WINDOWS, "{name} windows");
        for config in [ModelConfig::default(), ModelConfig::ispass_2015()] {
            assert_space_identical(
                &profile,
                &config,
                &DesignSpace::validation_subspace(),
                &format!("{name} {:?}", config.evaluation),
            );
        }
    }
}

fn shared_profile() -> &'static ApplicationProfile {
    static PROFILE: OnceLock<ApplicationProfile> = OnceLock::new();
    PROFILE.get_or_init(|| profile_of("milc", 30_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random machine configurations far outside the thesis grid: no
    /// path may depend on the machine resembling the design space.
    #[test]
    fn prepared_matches_legacy_on_random_machines(
        width in 1u32..=8,
        rob in 32u32..=512,
        l1_exp in 3u32..=7,   // 8–128 KB
        l2_exp in 7u32..=11,  // 128–2048 KB
        l3_exp in 11u32..=14, // 2–16 MB
        dram in 100u32..=400,
        mshr in 4u32..=64,
        prefetcher in any::<bool>(),
    ) {
        let base = MachineConfig::nehalem();
        let mut m = if prefetcher {
            MachineConfig::nehalem_with_prefetcher()
        } else {
            base.clone()
        };
        m.core = m.core.with_dispatch_width(width).with_rob(rob);
        m.caches.l1i = CacheConfig::new(1 << l1_exp, 4, 64, 1);
        m.caches.l1d = CacheConfig::new(1 << l1_exp, 8, 64, base.caches.l1d.latency);
        m.caches.l2 = CacheConfig::new(1 << l2_exp, 8, 64, base.caches.l2.latency);
        m.caches.l3 = CacheConfig::new(1 << l3_exp, 16, 64, 28);
        m.mem.dram_latency = dram;
        m.mem.mshr_entries = mshr;

        let model = IntervalModel::new(&m);
        let prepared = PreparedProfile::new(shared_profile());
        let mut batch = BatchPredictor::new(&prepared, model.config());
        assert_identical(&model, &prepared, &mut batch, &m.name);
    }
}
