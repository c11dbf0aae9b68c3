//! Output oracles. Each holds within one run and carries no state across
//! runs: a reference is either recomputed through a second path in this
//! process or taken from the run's own first output.
//!
//! A check returns one message per failed operation; an empty list means
//! every output was correct.

use pmt_api::{ExploreRequest, ExploreResponse, PredictRequest};
use pmt_core::{BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_dse::{Objective, StreamPoint};
use pmt_power::PowerModel;
use pmt_serve::engine;
use pmt_uarch::MachineConfig;
use pmt_validate::{CacheActivity, ValidationReport};

/// Byte equality, with both bodies' lengths and first difference on failure.
pub fn same_bytes(body: &str, expected: &str) -> Result<(), String> {
    if body == expected {
        return Ok(());
    }
    let at = body
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(body.len().min(expected.len()));
    Err(format!(
        "{} bytes != expected {} bytes, first difference at byte {at}",
        body.len(),
        expected.len()
    ))
}

/// One design point through the scalar model path: `predict_summary` on
/// one machine, then the power model.
pub fn scalar_point(
    prepared: &PreparedProfile<'_>,
    id: usize,
    machine: &MachineConfig,
) -> StreamPoint {
    let summary =
        IntervalModel::with_config(machine, ModelConfig::default()).predict_summary(prepared);
    StreamPoint {
        design_id: id,
        cpi: summary.cpi(),
        seconds: summary.seconds_at(machine.core.frequency_ghz),
        power: PowerModel::new(machine).power(&summary.activity).total(),
    }
}

fn same_point(a: &StreamPoint, b: &StreamPoint) -> bool {
    a.design_id == b.design_id
        && a.cpi.to_bits() == b.cpi.to_bits()
        && a.seconds.to_bits() == b.seconds.to_bits()
        && a.power.to_bits() == b.power.to_bits()
}

/// Recompute every frontier and top-K entry of an explore response with
/// the scalar path and require bit equality of the point, its Pareto
/// coordinates, its ranking key and its machine name.
pub fn check_explore_entries(
    prepared: &PreparedProfile<'_>,
    req: &ExploreRequest,
    resp: &ExploreResponse,
) -> Vec<String> {
    let space = match req.space.resolve() {
        Ok(space) => space,
        Err(e) => return vec![format!("space does not resolve: {}", e.body.message)],
    };
    let Some(objective) = Objective::from_name(&req.objective) else {
        return vec![format!("unknown objective {}", req.objective)];
    };
    let mut problems = Vec::new();
    if resp.summary.top.len() != req.top_k.min(space.len()) {
        problems.push(format!(
            "top-K holds {} entries, asked for {}",
            resp.summary.top.len(),
            req.top_k
        ));
    }
    if resp.summary.frontier.is_empty() {
        problems.push("empty frontier".to_string());
    }
    // Each entry with what its position must also agree on: a frontier
    // entry's Pareto coordinates, a top-K entry's ranking key.
    let frontier = resp.summary.frontier.iter().enumerate().map(|(i, e)| {
        let coords = e.coords;
        let agrees = move |p: &StreamPoint| {
            coords.0.to_bits() == p.seconds.to_bits() && coords.1.to_bits() == p.power.to_bits()
        };
        (
            "frontier",
            e.id,
            &e.item,
            resp.frontier_machines.get(i),
            Box::new(agrees) as Box<dyn Fn(&StreamPoint) -> bool>,
        )
    });
    let top = resp.summary.top.iter().enumerate().map(|(i, e)| {
        let key = e.key;
        let agrees = move |p: &StreamPoint| key.to_bits() == objective.key(p).to_bits();
        (
            "top",
            e.id,
            &e.item,
            resp.top_machines.get(i),
            Box::new(agrees) as Box<dyn Fn(&StreamPoint) -> bool>,
        )
    });
    for (what, id, item, name, agrees) in frontier.chain(top) {
        let point = space.point_at(id);
        let expected = scalar_point(prepared, id, &point.machine);
        if !same_point(item, &expected) || !agrees(&expected) {
            problems.push(format!(
                "{what} entry {id}: {item:?} != scalar {expected:?}"
            ));
        }
        if name != Some(&point.machine.name) {
            problems.push(format!("{what} entry {id}: machine name {name:?}"));
        }
    }
    problems
}

/// One served or computed predict body, kept for checking.
pub struct PredictOutput {
    /// Index into the run's prepared profiles.
    pub profile: usize,
    pub machine: MachineConfig,
    pub body: String,
}

/// Check predict bodies against the batched path: each profile's points
/// go through one [`BatchPredictor`] and `engine::summary_response`,
/// which the batched-prediction conformance suite keeps bit-identical to
/// the single-point path. Returns one message per wrong body.
pub fn check_predicts(prepared: &[PreparedProfile<'_>], outputs: &[PredictOutput]) -> Vec<String> {
    let config = ModelConfig::default();
    let mut problems = Vec::new();
    for (p, prep) in prepared.iter().enumerate() {
        let mut batch = BatchPredictor::new(prep, &config);
        for out in outputs.iter().filter(|o| o.profile == p) {
            let summary = batch.predict_summary(&out.machine);
            let response = engine::summary_response(&prep.profile().name, &out.machine, &summary);
            let expected = serde_json::to_string(&response).expect("responses serialize");
            if let Err(e) = same_bytes(&out.body, &expected) {
                problems.push(format!(
                    "{} on {}: {e}",
                    prep.profile().name,
                    out.machine.name
                ));
            }
        }
    }
    problems
}

/// The body the daemon must serve for `req`: the engine function it
/// calls, evaluated in this process.
pub fn engine_predict_body(
    prepared: &PreparedProfile<'_>,
    req: &PredictRequest,
) -> Result<String, String> {
    engine::predict_response(prepared, req)
        .map(|r| serde_json::to_string(&r).expect("responses serialize"))
        .map_err(|e| e.body.message)
}

/// A validation report's JSON with its `cache` section zeroed: the part
/// that must repeat exactly whether the simulations ran or were cached.
pub fn masked_report(report: &ValidationReport) -> String {
    let mut masked = report.clone();
    masked.cache = CacheActivity {
        hits: 0,
        misses: 0,
        entries: 0,
    };
    masked.to_json()
}

/// A cold-cache validation must simulate every (workload, point) pair
/// once, and match the run's first report outside the `cache` section.
pub fn check_validation(
    report: &ValidationReport,
    grid: u64,
    first_masked: &str,
) -> Result<(), String> {
    if report.cache.misses != grid || report.cache.hits != 0 {
        return Err(format!(
            "cold cache ran {} simulations with {} hits, expected {grid} and 0",
            report.cache.misses, report.cache.hits
        ));
    }
    same_bytes(&masked_report(report), first_masked)
}
