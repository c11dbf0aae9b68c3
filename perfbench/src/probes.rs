//! The layer probes every traced run ends with, identical on every
//! workload. Each calls one layer's public entry point directly on
//! seeded inputs, so every per-layer metric is measured on every
//! workload and a change to one layer shows in its own number. Model
//! probes use astar at 300k instructions and `ModelConfig::default()`.

use crate::{metric, setup, validate, Metric};
use perfbench::gen::PROBE_STREAM;
use perfbench::rng::{distinct_indices, Rng};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use pmt_core::{BatchPredictor, IntervalModel, ModelConfig, PreparedProfile};
use pmt_dse::{LazyDesignSpace, ProductSpace, StreamingSweep, DEFAULT_CHUNK};
use pmt_power::PowerModel;
use pmt_sim::{OooSimulator, SimCache, SimConfig};
use pmt_trace::TraceSource;
use pmt_uarch::DesignSpace;
use pmt_workloads::WorkloadSpec;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each arena build and cold point per window count.
const REPS: usize = 15;
/// Chunks of the `big` space in the `dse` probe.
const DSE_CHUNKS: usize = 10;
/// (workload, point) reference simulations in the `sim` probe.
const SIMS: usize = 4;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(tracer: &Tracer, seed: u64) -> Vec<Metric> {
    let mut rng = Rng::stream(seed, PROBE_STREAM);
    let mut out = Vec::new();
    tracer.span("probes", None, 0, |root| {
        model_probes(tracer, root, &mut rng, &mut out);
        sim_probes(tracer, root, &mut rng, &mut out);
    });
    out
}

/// `core`, `power` and `dse`: arena build and cold point at 1, 30 and
/// 100 windows; one memo-shared chunk; power per point; a streaming
/// sweep over a slice of `big`.
fn model_probes(tracer: &Tracer, root: Option<usize>, rng: &mut Rng, out: &mut Vec<Metric>) {
    let space = ProductSpace::frontier_demo();
    let config = ModelConfig::default();
    let machines: Vec<_> = distinct_indices(rng, REPS, space.len())
        .into_iter()
        .map(|i| space.point_at(i).machine)
        .collect();
    let chunks = space.len() / DEFAULT_CHUNK;
    let chunk_start = rng.below(chunks) * DEFAULT_CHUNK;
    let slice_start = rng.below(chunks - DSE_CHUNKS) * DEFAULT_CHUNK;
    for (windows, tag) in [(1u64, "w1"), (30, "w30"), (100, "w100")] {
        let shape = format!("astar {} instr, {windows} windows", setup::INSTRUCTIONS);
        let profile = setup::profile("astar", setup::INSTRUCTIONS, windows);
        let prepared = PreparedProfile::new(&profile);
        let arena: Vec<f64> = (0..REPS)
            .map(|_| {
                tracer.span("core.arena_build", root, windows, |_| {
                    let t = Instant::now();
                    black_box(BatchPredictor::new(&prepared, &config));
                    ms_since(t)
                })
            })
            .collect();
        let cold: Vec<f64> = machines
            .iter()
            .map(|m| {
                tracer.span("core.predict_summary", root, windows, |_| {
                    let t = Instant::now();
                    black_box(
                        IntervalModel::with_config(m, config.clone()).predict_summary(&prepared),
                    );
                    ms_since(t) * 1e3
                })
            })
            .collect();
        out.push(metric(
            format!("core.arena_build_ms.{tag}"),
            "ms",
            median(&arena),
            REPS,
            format!("BatchPredictor::new; {shape}"),
        ));
        out.push(metric(
            format!("core.cold_point_us.{tag}"),
            "us",
            median(&cold),
            REPS,
            format!("predict_summary on fresh big points; {shape}"),
        ));
        if windows != 100 {
            continue;
        }

        // One sweep chunk through one predictor: the memo-shared cost per
        // point that explore-big pays.
        let chunk: Vec<_> = (chunk_start..chunk_start + DEFAULT_CHUNK)
            .map(|i| space.point_at(i).machine)
            .collect();
        let (per_point_us, stats, summaries) =
            tracer.span("core.batch_chunk", root, windows, |_| {
                let t = Instant::now();
                let mut batch = BatchPredictor::new(&prepared, &config);
                let summaries: Vec<_> = chunk.iter().map(|m| batch.predict_summary(m)).collect();
                (
                    ms_since(t) * 1e3 / chunk.len() as f64,
                    batch.memo_stats(),
                    summaries,
                )
            });
        let lookups = stats.hits() + stats.misses();
        out.push(metric(
            "core.memo_point_us",
            "us",
            per_point_us,
            chunk.len(),
            format!("one {DEFAULT_CHUNK}-point big chunk from {chunk_start} through one BatchPredictor; {shape}"),
        ));
        out.push(metric(
            "core.memo_hit_ratio",
            "ratio",
            stats.hits() as f64 / lookups as f64,
            lookups as usize,
            format!(
                "{} memo hits of {lookups} lookups in that chunk",
                stats.hits()
            ),
        ));
        out.push(metric(
            "core.memo_lookups",
            "count",
            lookups as f64,
            1,
            "base of core.memo_hit_ratio",
        ));
        let power_us = tracer.span("power.power", root, windows, |_| {
            let t = Instant::now();
            for (m, s) in chunk.iter().zip(&summaries) {
                black_box(PowerModel::new(m).power(&s.activity));
            }
            ms_since(t) * 1e3 / chunk.len() as f64
        });
        out.push(metric(
            "power.point_us",
            "us",
            power_us,
            chunk.len(),
            "PowerModel::power per point of that chunk",
        ));

        let slice: Vec<_> = (slice_start..slice_start + DSE_CHUNKS * DEFAULT_CHUNK)
            .map(|i| space.point_at(i))
            .collect();
        let (summary, sweep_ms) = tracer.span("dse.run_prepared", root, windows, |_| {
            let t = Instant::now();
            let summary = StreamingSweep::new(&profile).run_prepared(&prepared, &slice);
            (summary, ms_since(t))
        });
        out.push(metric(
            "dse.sweep_ms",
            "ms",
            sweep_ms,
            1,
            format!(
                "StreamingSweep::run_prepared, {} big points from {slice_start}",
                slice.len()
            ),
        ));
        out.push(metric(
            "dse.frontier_points",
            "count",
            summary.frontier.len() as f64,
            1,
            "Pareto frontier of that sweep",
        ));
    }
}

/// `workloads`, `sim` and `validate`: trace generation, reference
/// simulations on the validation grid, and a validation run cold and warm.
fn sim_probes(tracer: &Tracer, root: Option<usize>, rng: &mut Rng, out: &mut Vec<Metric>) {
    let n = validate::INSTRUCTIONS;
    let mut drained = 0u64;
    let t = Instant::now();
    tracer.span("workloads.trace", root, 0, |_| {
        let mut buf = Vec::new();
        for name in validate::PROFILES {
            let mut trace = WorkloadSpec::by_name(name)
                .expect("suite workload")
                .trace(setup::INSTRUCTIONS);
            loop {
                buf.clear();
                let got = trace.fill(&mut buf, 4096);
                if got == 0 {
                    break;
                }
                drained += got as u64;
            }
        }
    });
    out.push(metric(
        "workloads.trace_minstr_per_s",
        "Minstr/s",
        drained as f64 / 1e3 / ms_since(t),
        validate::PROFILES.len(),
        format!(
            "draining WorkloadSpec::trace of {} at {} instr",
            validate::PROFILES.join(", "),
            setup::INSTRUCTIONS
        ),
    ));

    let grid = DesignSpace::validation_subspace();
    let sims: Vec<f64> = distinct_indices(rng, SIMS, grid.len() * validate::PROFILES.len())
        .into_iter()
        .map(|i| {
            let spec = WorkloadSpec::by_name(validate::PROFILES[i % validate::PROFILES.len()])
                .expect("suite workload");
            let machine = grid.point_at(i / validate::PROFILES.len()).machine;
            tracer.span("sim.run", root, i as u64, |_| {
                let t = Instant::now();
                black_box(OooSimulator::new(SimConfig::new(machine)).run(&mut spec.trace(n)));
                ms_since(t)
            })
        })
        .collect();
    let sim_ms = median(&sims);
    out.push(metric(
        "sim.point_ms",
        "ms",
        sim_ms,
        SIMS,
        format!("OooSimulator::run, {n} instr, trace generation included"),
    ));
    out.push(metric(
        "sim.minstr_per_s",
        "Minstr/s",
        n as f64 / 1e3 / sim_ms,
        SIMS,
        "simulated instructions per second of sim.point_ms",
    ));

    let cache = SimCache::shared();
    let validator = validate::validator(cache);
    let t = Instant::now();
    let cold = tracer.span("validate.cold", root, 0, |_| validator.run());
    let cold_ms = ms_since(t);
    let t = Instant::now();
    black_box(tracer.span("validate.warm", root, 0, |_| validator.run()));
    let warm_ms = ms_since(t);
    let grid_n = validate::grid() as usize;
    out.push(metric(
        "validate.warm_ms",
        "ms",
        warm_ms,
        1,
        format!("Validator::run on a warm cache; cold took {cold_ms:.1} ms"),
    ));
    out.push(metric(
        "validate.sim_share",
        "ratio",
        1.0 - warm_ms / cold_ms,
        1,
        "share of a cold validation that a warm cache saves",
    ));
    out.push(metric(
        "validate.sim_misses",
        "count",
        cold.cache.misses as f64,
        1,
        format!("simulations run by the cold validation of a {grid_n}-pair grid"),
    ));
    out.push(metric(
        "validate.cpi_error_pct",
        "%",
        100.0 * cold.cpi.mean_abs,
        grid_n,
        "pooled mean |CPI error| against the simulator",
    ));
    out.push(metric(
        "validate.power_error_pct",
        "%",
        100.0 * cold.power.mean_abs,
        grid_n,
        "pooled mean |power error| against the simulator",
    ));
}
