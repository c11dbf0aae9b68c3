//! Whole-`SimResult` golden: every field the simulator reports, pinned
//! bit for bit.
//!
//! The validation golden (`tests/golden/validation_report.json`) only
//! sees CPI and power. This snapshot also pins `cycles`, the slot-based
//! `cpi_stack`, the `activity` vector, `cache_stats`, `mlp` and the
//! per-interval phase samples, over five workloads on four machines plus
//! one perfect-mode and one interval-recording run. Any change to the
//! simulator that moves a single counter or float bit fails here.
//!
//! Persisted simulation caches (`pmt validate --cache`, `PMT_SIM_CACHE`)
//! are keyed by machine, workload and budget, not by code version, so a
//! result drift would silently mix old and new numbers in one report.
//! After an *intentional* simulator change, regenerate with
//!
//! ```console
//! $ PMT_UPDATE_GOLDEN=1 cargo test -p pmt-sim --test sim_golden
//! ```
//!
//! and commit the new snapshot alongside the change that explains it.

use pmt_sim::{OooSimulator, SimConfig};
use pmt_uarch::{DesignSpace, MachineConfig};
use pmt_workloads::WorkloadSpec;

const INSTRUCTIONS: u64 = 20_000;
const WORKLOADS: [&str; 5] = ["astar", "mcf", "gcc", "gobmk", "libquantum"];

fn golden_path() -> String {
    format!(
        "{}/tests/golden/sim_results.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The pinned machines: the reference core with and without its stride
/// prefetcher, and the narrowest and widest corners of the 27-point
/// validation subspace (w2-rob64 and w6-rob256).
fn machines() -> Vec<(String, MachineConfig)> {
    let space = DesignSpace::validation_subspace();
    let corners = [space.point_at(0), space.point_at(space.len() - 1)];
    let mut out = vec![
        ("nehalem".to_string(), MachineConfig::nehalem()),
        (
            "nehalem_with_prefetcher".to_string(),
            MachineConfig::nehalem_with_prefetcher(),
        ),
    ];
    out.extend(
        corners
            .into_iter()
            .map(|p| (p.machine.name.clone(), p.machine)),
    );
    out
}

fn cases() -> Vec<(String, SimConfig, &'static str)> {
    let mut out = Vec::new();
    for (name, machine) in machines() {
        for workload in WORKLOADS {
            out.push((
                format!("{workload}/{name}"),
                SimConfig::new(machine.clone()),
                workload,
            ));
        }
    }
    out.push((
        "astar/nehalem/perfect".to_string(),
        SimConfig::new(MachineConfig::nehalem()).perfect(),
        "astar",
    ));
    out.push((
        "gcc/nehalem/intervals_5000".to_string(),
        SimConfig::new(MachineConfig::nehalem()).with_intervals(5_000),
        "gcc",
    ));
    out
}

/// One JSON array, one case per line, so a drift diff names its case.
fn render() -> String {
    let lines: Vec<String> = cases()
        .into_iter()
        .map(|(name, config, workload)| {
            let spec = WorkloadSpec::by_name(workload).expect("known workload");
            let result = OooSimulator::new(config).run(&mut spec.trace(INSTRUCTIONS));
            format!(
                "{{\"case\":{},\"result\":{}}}",
                serde_json::to_string(&name).expect("name serializes"),
                serde_json::to_string(&result).expect("result serializes")
            )
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

#[test]
fn sim_results_match_the_golden_snapshot() {
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
             PMT_UPDATE_GOLDEN=1 cargo test -p pmt-sim --test sim_golden"
        )
    });
    for (got, want) in rendered.lines().zip(expected.lines()) {
        assert_eq!(
            got, want,
            "a SimResult drifted from its golden snapshot; if the simulator \
             change was intentional, regenerate with PMT_UPDATE_GOLDEN=1"
        );
    }
    assert_eq!(
        rendered, expected,
        "golden snapshot has a different case list"
    );
}
