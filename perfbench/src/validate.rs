//! `validate-grid`: closed loop, one validation at a time.
//! `Validator::run` over the 27-point validation subspace × {astar, mcf}
//! with a fresh `SimCache` per operation and equal profile and simulation
//! budgets, then the report serialised — what `pmt validate --space
//! validation --workloads astar,mcf` computes at these budgets.
//!
//! Checks: every report must equal the run's first one with the `cache`
//! section masked, and each cold cache must report exactly one simulation
//! per (workload, point) pair.

use crate::{metric, setup::Setup, Ctx, Run};
use perfbench::oracle::{check_validation, masked_report};
use perfbench::trace::Tracer;
use pmt_sim::SimCache;
use pmt_uarch::DesignSpace;
use pmt_validate::{ValidationConfig, Validator};
use std::sync::Arc;
use std::time::Instant;

/// The validated workloads (also the workload's set-up profiles).
pub const PROFILES: [&str; 2] = ["astar", "mcf"];
/// Instructions profiled and simulated per (workload, point).
pub const INSTRUCTIONS: u64 = 50_000;

/// The grid size: points × workloads.
pub fn grid() -> u64 {
    (DesignSpace::validation_subspace().len() * PROFILES.len()) as u64
}

/// The validator of one operation, over `cache`.
pub fn validator(cache: Arc<SimCache>) -> Validator {
    let mut config = ValidationConfig::default_scale();
    config.profile_instructions = INSTRUCTIONS;
    config.sim_instructions = INSTRUCTIONS;
    let mut v = Validator::new(config)
        .space(&DesignSpace::validation_subspace())
        .cache(cache);
    for name in PROFILES {
        v = v.workload_named(name).expect("suite workloads exist");
    }
    v
}

pub fn run(_ctx: &Ctx, _setup: &Setup, tracer: &Tracer, seconds: f64) -> Result<Run, String> {
    let grid = grid();
    let mut run = Run::default();
    let mut first: Option<String> = None;
    let mut bytes = 0usize;
    let started = Instant::now();
    let mut op = 0u64;
    while op == 0 || started.elapsed().as_secs_f64() < seconds {
        run.attempted += 1;
        let (report, body) = run.meter.op(|| {
            tracer.span("op.validate", None, op, |root| {
                let report = tracer.span("validate.run", root, op, |_| {
                    validator(SimCache::shared()).run()
                });
                let body = tracer.span("api.serialize", root, op, |_| report.to_json());
                (report, body)
            })
        });
        op += 1;
        bytes += body.len();
        let verdict = match &first {
            None => {
                run.info.push(metric(
                    "cpi_error_pct",
                    "%",
                    100.0 * report.cpi.mean_abs,
                    grid as usize,
                    "pooled mean |CPI error| against the simulator",
                ));
                run.info.push(metric(
                    "power_error_pct",
                    "%",
                    100.0 * report.power.mean_abs,
                    grid as usize,
                    "pooled mean |power error| against the simulator",
                ));
                let masked = masked_report(&report);
                let verdict = check_validation(&report, grid, &masked);
                first = Some(masked);
                verdict
            }
            Some(first) => check_validation(&report, grid, first),
        };
        if let Err(e) = verdict {
            run.failed += 1;
            run.lines.push(format!("validate-grid op {op}: {e}"));
        }
    }
    run.response_bytes = bytes as f64 / run.attempted as f64;
    Ok(run)
}
