//! `predict-cold`: closed loop, one request at a time. Distinct seeded
//! points of the `big` space (machines inline), cycling astar, gcc, mcf
//! and lbm in equal shares, each answered by `engine::predict_response`
//! and serialised as `pmt predict --json` does.
//!
//! Check: every body must equal the same point evaluated through the
//! batched path (`BatchPredictor` + `engine::summary_response`). Bodies
//! are checked every [`CHECK_EVERY`] operations, outside the timed
//! operations, so memory stays flat however fast the program is.

use crate::{setup::Setup, Ctx, Run};
use perfbench::gen::{PredictStream, PREDICT_PROFILES};
use perfbench::oracle::{check_predicts, PredictOutput};
use perfbench::trace::Tracer;
use pmt_api::{MachineSpec, PredictRequest};
use pmt_core::PreparedProfile;
use pmt_dse::{LazyDesignSpace, ProductSpace};
use pmt_serve::engine;
use std::time::Instant;

/// Operations between output checks.
pub const CHECK_EVERY: usize = 256;

fn check(run: &mut Run, prepared: &[PreparedProfile<'_>], pending: &mut Vec<PredictOutput>) {
    for p in check_predicts(prepared, pending) {
        run.failed += 1;
        run.lines.push(format!("predict-cold: {p}"));
    }
    pending.clear();
}

pub fn run(ctx: &Ctx, setup: &Setup, tracer: &Tracer, seconds: f64) -> Result<Run, String> {
    let prepared = setup.prepared();
    let space = ProductSpace::frontier_demo();
    let mut stream = PredictStream::new(ctx.seed, space.len());
    let mut run = Run::default();
    let mut pending = Vec::with_capacity(CHECK_EVERY);
    let mut bytes = 0usize;
    let started = Instant::now();
    let mut op = 0u64;
    while op == 0 || started.elapsed().as_secs_f64() < seconds {
        let (profile, point) = stream.next_point();
        let machine = space.point_at(point).machine;
        let req = PredictRequest::new(
            PREDICT_PROFILES[profile],
            MachineSpec::inline(machine.clone()),
        );
        run.attempted += 1;
        let result = run.meter.op(|| {
            tracer.span("op.predict", None, op, |root| {
                let response = tracer.span("engine.predict_response", root, op, |_| {
                    engine::predict_response(&prepared[profile], &req)
                })?;
                Ok::<_, pmt_api::ApiError>(tracer.span("api.serialize", root, op, |_| {
                    serde_json::to_string(&response).expect("responses serialize")
                }))
            })
        });
        op += 1;
        match result {
            Ok(body) => {
                bytes += body.len();
                pending.push(PredictOutput {
                    profile,
                    machine,
                    body,
                });
            }
            Err(e) => {
                run.failed += 1;
                run.lines
                    .push(format!("predict-cold: {} {}", e.status, e.body.message));
            }
        }
        if pending.len() == CHECK_EVERY {
            check(&mut run, &prepared, &mut pending);
        }
    }
    check(&mut run, &prepared, &mut pending);
    run.response_bytes = bytes as f64 / run.attempted as f64;
    Ok(run)
}
