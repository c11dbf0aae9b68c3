//! `serve-predict` (runnable, not gated): a `pmt serve` daemon at its
//! default batching, with [`CALLERS`] closed-loop callers each sending
//! distinct `/v1/predict` requests for seeded points of the `big` space
//! (machines inline) against one mcf profile. The response cache never
//! hits, so every request is a cold point through the micro-batcher.
//!
//! Check: every served body must equal `engine::predict_response`
//! evaluated in this process on the same request, byte for byte. A wrong
//! body is a failed operation. The scheduler's batching race (see
//! `README.md`) shows up here as a body answered for another caller's
//! machine.

use crate::{metric, setup::Setup, Ctx, Metric, Run};
use perfbench::daemon::{exchange, Daemon};
use perfbench::gen::{predict_request, SERVE_STREAM};
use perfbench::oracle::{engine_predict_body, same_bytes};
use perfbench::rng::{distinct_indices, Rng};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use pmt_api::MetricsResponse;
use pmt_core::PreparedProfile;
use pmt_dse::{LazyDesignSpace, ProductSpace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The one registered profile.
pub const PROFILE: &str = "mcf";
/// Concurrent callers: at most two, and never more than the CPUs.
pub fn callers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2)
}

/// One exchange kept for the output check.
struct Sent {
    point: usize,
    latency_ms: f64,
    status: u16,
    body: String,
}

pub fn run(ctx: &Ctx, setup: &Setup, tracer: &Tracer, seconds: f64) -> Result<Run, String> {
    let profile = setup.profiles[0];
    let path = ctx.out.join(format!("{PROFILE}.profile.json"));
    let json = serde_json::to_string(profile).expect("profiles serialize");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let daemon = tracer
        .span("daemon.boot", None, 0, |_| {
            Daemon::boot(&ctx.pmt, &[&path], &[PROFILE])
        })
        .map_err(|e| format!("booting {}: {e}", ctx.pmt.display()))?;
    let space = ProductSpace::frontier_demo();
    let order = distinct_indices(
        &mut Rng::stream(ctx.seed, SERVE_STREAM),
        space.len(),
        space.len(),
    );

    let before = daemon.metrics().map_err(|e| format!("/metrics: {e}"))?;
    let cpu = daemon.cpu_s();
    let next = AtomicU64::new(0);
    let sent = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..callers() {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while started.elapsed().as_secs_f64() < seconds {
                    let op = next.fetch_add(1, Ordering::Relaxed);
                    let point = order[op as usize % order.len()];
                    let req = predict_request(PROFILE, &space, point);
                    let body = serde_json::to_string(&req).expect("requests serialize");
                    let t = Instant::now();
                    let reply = tracer.span("op.serve_predict", None, op, |root| {
                        tracer.span("http.exchange", root, op, |_| {
                            exchange(daemon.addr, "POST", "/v1/predict", &body)
                        })
                    });
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    let (status, body) = reply.map_or((0, String::new()), |r| (r.status, r.body));
                    mine.push(Sent {
                        point,
                        latency_ms,
                        status,
                        body,
                    });
                }
                sent.lock().expect("ledger poisoned").extend(mine);
            });
        }
    });
    let cpu_s = daemon.cpu_s() - cpu;
    let after = daemon.metrics().map_err(|e| format!("/metrics: {e}"))?;

    let prepared = PreparedProfile::new(profile);
    let sent = sent.into_inner().expect("ledger poisoned");
    let mut run = Run {
        server_rss_mb: Some(daemon.peak_rss_mb()),
        ..Run::default()
    };
    drop(daemon);
    run.meter.cpu_s = cpu_s;
    let mut bytes = 0usize;
    for s in &sent {
        run.attempted += 1;
        run.meter.op_ms.push(s.latency_ms);
        bytes += s.body.len();
        let req = predict_request(PROFILE, &space, s.point);
        let verdict = match (s.status, engine_predict_body(&prepared, &req)) {
            (200, Ok(expected)) => same_bytes(&s.body, &expected),
            (200, Err(e)) => Err(format!("in-process engine refused the request: {e}")),
            (0, _) => Err("transport error".to_string()),
            (status, _) => Err(format!("status {status}")),
        };
        if let Err(e) = verdict {
            run.failed += 1;
            let served = serde_json::from_str::<pmt_api::PredictResponse>(&s.body)
                .map_or_else(|_| "unparsable".to_string(), |r| r.machine);
            run.lines.push(format!(
                "serve-predict: point {} ({}): {e}; served machine {served}",
                s.point,
                space.point_at(s.point).machine.name
            ));
        }
    }
    run.response_bytes = bytes as f64 / sent.len().max(1) as f64;
    run.layers = serve_layers(&before, &after, &run.meter.op_ms);
    Ok(run)
}

/// `/metrics` deltas over the timed load.
fn serve_layers(
    before: &MetricsResponse,
    after: &MetricsResponse,
    client_ms: &[f64],
) -> Vec<Metric> {
    let d = |f: fn(&MetricsResponse) -> u64| f(after).saturating_sub(f(before));
    let hits = |m: &MetricsResponse| {
        m.memo.cache_hits + m.memo.stride_hits + m.memo.cp_hits + m.memo.branch_hits
    };
    let misses = |m: &MetricsResponse| {
        m.memo.cache_misses + m.memo.stride_misses + m.memo.cp_misses + m.memo.branch_misses
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let points = d(|m| m.points_predicted);
    let compute_ms = (after.predict_seconds - before.predict_seconds) * 1e3;
    let per_point = compute_ms / points.max(1) as f64;
    let flights = d(|m| m.batch_flights);
    let lookups = d(hits) + d(misses);
    let waits: Vec<f64> = client_ms.iter().map(|ms| ms - per_point).collect();
    vec![
        metric(
            "serve.compute_ms_per_point",
            "ms",
            per_point,
            points as usize,
            "/metrics predict_seconds over points_predicted",
        ),
        metric(
            "serve.batch_mean_size",
            "count",
            ratio(d(|m| m.batch_points), flights),
            flights as usize,
            "batch points per flight",
        ),
        metric(
            "serve.memo_hit_ratio",
            "ratio",
            ratio(d(hits), lookups),
            lookups as usize,
            format!("{} memo hits of {lookups} lookups", d(hits)),
        ),
        metric(
            "serve.wait_ms.p50",
            "ms",
            median(&waits),
            waits.len(),
            "client latency minus mean server compute per point",
        ),
    ]
}
