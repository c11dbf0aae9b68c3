//! Cold-path golden: the serialized [`PredictionSummary`] of seeded
//! design points, pinned bit for bit.
//!
//! A cold point (one `IntervalModel::predict_summary` call, no memo) is
//! what `pmt predict`, a solo served predict and every memo miss of a
//! sweep compute. Its two most expensive stages, the stride-MLP walk
//! (`StrideMlpModel::evaluate_stream`) and the leaky bucket
//! (`branch_resolution_time`), are shared by every production path, so
//! the identity suites, which compare those paths with each other,
//! cannot see them drift. This snapshot can: 64 seeded points of the
//! 103,680-point `ProductSpace::frontier_demo()` on astar, gcc, mcf and
//! lbm, one point in three with the stride prefetcher switched on, over
//! profiles of 100 windows with 1k-instruction micro-traces.
//!
//! After an *intentional* model change, regenerate with
//!
//! ```console
//! $ PMT_UPDATE_GOLDEN=1 cargo test -p pmt-core --test cold_path_golden
//! ```
//!
//! and commit the new snapshot alongside the change that explains it.

use pmt_core::{IntervalModel, PredictionSummary, PreparedProfile};
use pmt_dse::{LazyDesignSpace, ProductSpace};
use pmt_profiler::{Profiler, ProfilerConfig};
use pmt_trace::SamplingConfig;
use pmt_uarch::MachineConfig;
use pmt_workloads::WorkloadSpec;

const WORKLOADS: [&str; 4] = ["astar", "gcc", "mcf", "lbm"];
const INSTRUCTIONS: u64 = 200_000;
const WINDOWS: u64 = 100;
const POINTS: usize = 64;
const SEED: u64 = 0x5EED_C01D;

fn golden_path() -> String {
    format!("{}/tests/golden/cold_path.json", env!("CARGO_MANIFEST_DIR"))
}

/// SplitMix64: a fixed, dependency-free point sampler.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The pinned machines: seeded demo-space indices, every third one with
/// the reference stride prefetcher.
fn machines() -> Vec<(usize, MachineConfig)> {
    let space = ProductSpace::frontier_demo();
    let prefetcher = MachineConfig::nehalem_with_prefetcher().prefetcher;
    let mut state = SEED;
    (0..POINTS)
        .map(|i| {
            let index = (splitmix(&mut state) % space.len() as u64) as usize;
            let mut machine = space.point_at(index).machine;
            if i % 3 == 0 {
                machine.prefetcher = prefetcher;
            }
            (index, machine)
        })
        .collect()
}

/// One JSON array, one case per line, so a drift diff names its case.
fn render() -> String {
    let mut cfg = ProfilerConfig::thesis_default();
    cfg.sampling = SamplingConfig {
        micro_trace_instructions: 1_000,
        window_instructions: INSTRUCTIONS / WINDOWS,
    };
    let machines = machines();
    let mut lines = Vec::new();
    for name in WORKLOADS {
        let spec = WorkloadSpec::by_name(name).expect("suite member");
        let profile = Profiler::new(cfg.clone()).profile_named(name, &mut spec.trace(INSTRUCTIONS));
        assert_eq!(profile.micro_traces.len() as u64, WINDOWS, "{name} windows");
        let prepared = PreparedProfile::new(&profile);
        for (index, machine) in &machines {
            let summary: PredictionSummary = IntervalModel::new(machine).predict_summary(&prepared);
            let case = format!(
                "{name}/{index}{}",
                if machine.prefetcher.enabled {
                    "/prefetch"
                } else {
                    ""
                }
            );
            lines.push(format!(
                "{{\"case\":{},\"summary\":{}}}",
                serde_json::to_string(&case).expect("name serializes"),
                serde_json::to_string(&summary).expect("summary serializes")
            ));
        }
    }
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn cold_points_match_the_golden_snapshot() {
    let rendered = render();
    let path = golden_path();
    if std::env::var("PMT_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(std::path::Path::new(&path).parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).expect("writing golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {path} ({e}); regenerate with \
             PMT_UPDATE_GOLDEN=1 cargo test -p pmt-core --test cold_path_golden"
        )
    });
    for (got, want) in rendered.lines().zip(expected.lines()) {
        assert_eq!(
            got, want,
            "a cold prediction drifted from its golden snapshot; if the model \
             change was intentional, regenerate with PMT_UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(
        rendered, expected,
        "golden snapshot has a different case list"
    );
}
