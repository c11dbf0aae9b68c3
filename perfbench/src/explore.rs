//! `explore-big`: closed loop, one request at a time. One seeded
//! `ExploreRequest` on the 103,680-point `big` space over astar, answered
//! by `engine::explore_response` and serialised as `pmt explore --out`
//! does.
//!
//! Checks: the first response's frontier and top-K entries are
//! recomputed with the scalar model path and must match bit for bit;
//! every later response must equal the first byte for byte.

use crate::{setup::Setup, Ctx, Run};
use perfbench::gen;
use perfbench::oracle::{check_explore_entries, same_bytes};
use perfbench::trace::Tracer;
use pmt_core::PreparedProfile;
use pmt_serve::engine;
use std::time::Instant;

pub fn run(ctx: &Ctx, setup: &Setup, tracer: &Tracer, seconds: f64) -> Result<Run, String> {
    let prepared = PreparedProfile::new(setup.profiles[0]);
    let req = gen::explore_request(ctx.seed, &prepared.profile().name);
    let mut run = Run::default();
    let mut first: Option<String> = None;
    let started = Instant::now();
    let mut op = 0u64;
    while op == 0 || started.elapsed().as_secs_f64() < seconds {
        run.attempted += 1;
        let result = run.meter.op(|| {
            tracer.span("op.explore", None, op, |root| {
                let response = tracer.span("engine.explore_response", root, op, |_| {
                    engine::explore_response(&prepared, &req)
                })?;
                let body = tracer.span("api.serialize", root, op, |_| {
                    serde_json::to_string(&response).expect("responses serialize")
                });
                Ok::<_, pmt_api::ApiError>((response, body))
            })
        });
        op += 1;
        let problems = match result {
            Err(e) => vec![format!("{} {}", e.status, e.body.message)],
            Ok((response, body)) => {
                run.response_bytes = body.len() as f64;
                match &first {
                    None => {
                        run.lines.push(format!(
                            "explore-big: objective {}, top {}, {} points, {} frontier points",
                            req.objective,
                            req.top_k,
                            response.summary.space_points,
                            response.summary.frontier.len()
                        ));
                        let problems = check_explore_entries(&prepared, &req, &response);
                        first = Some(body);
                        problems
                    }
                    Some(first) => same_bytes(&body, first).err().into_iter().collect(),
                }
            }
        };
        if !problems.is_empty() {
            run.failed += 1;
            for p in problems {
                run.lines.push(format!("explore-big op {op}: {p}"));
            }
        }
    }
    Ok(run)
}
