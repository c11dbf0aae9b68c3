//! The benchmark's own rules: the tail percentile, seeded request
//! generation, span self time, and oracles that count a tampered output
//! as a failure.

use perfbench::gen::{explore_request, predict_request, PredictStream, PREDICT_PROFILES};
use perfbench::oracle::{
    check_explore_entries, check_predicts, check_validation, masked_report, same_bytes,
    PredictOutput,
};
use perfbench::rng::{distinct_indices, Rng};
use perfbench::stats::{median, tail};
use perfbench::trace::{layer_times, self_time_ns, Span, Tracer};
use pmt_api::{ExploreRequest, SpaceSpec};
use pmt_core::PreparedProfile;
use pmt_dse::{LazyDesignSpace, ProductSpace};
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_serve::engine;
use pmt_sim::SimCache;
use pmt_uarch::DesignSpace;
use pmt_validate::{ValidationConfig, Validator};
use pmt_workloads::WorkloadSpec;
use std::collections::HashSet;

#[test]
fn tail_keeps_at_least_ten_samples_beyond_it() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = tail(&values, 99.0).unwrap();
    assert_eq!((t.value, t.percentile, t.samples), (90.0, 90.0, 100));
    assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);

    // With enough samples the cap binds: p99 of 2000 leaves 20 beyond.
    let values: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
    let t = tail(&values, 99.0).unwrap();
    assert_eq!((t.value, t.percentile, t.samples), (1980.0, 99.0, 2000));

    // Eleven samples: the smallest sample that has ten beyond it.
    let values: Vec<f64> = (0..11).map(f64::from).collect();
    assert_eq!(tail(&values, 99.0).unwrap().value, 0.0);

    // Ten or fewer samples have no such percentile.
    assert!(tail(&[3.0, 9.0, 1.0], 99.0).is_none());
    assert!(tail(&[1.0; 10], 99.0).is_none());
    assert_eq!(median(&[3.0, 9.0, 1.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn predict_stream(seed: u64, n: usize) -> Vec<(usize, usize)> {
    let mut stream = PredictStream::new(seed, 103_680);
    (0..n).map(|_| stream.next_point()).collect()
}

#[test]
fn the_same_seed_produces_the_same_requests() {
    assert_eq!(predict_stream(7, 4000), predict_stream(7, 4000));
    assert_ne!(predict_stream(7, 4000), predict_stream(8, 4000));
    assert_eq!(explore_request(5, "astar"), explore_request(5, "astar"));
    let explores: HashSet<String> = (0..50)
        .map(|s| serde_json::to_string(&explore_request(s, "astar")).unwrap())
        .collect();
    assert!(explores.len() > 1, "the seed moves the explore request");

    // The same seed gives the same request bytes, machine included.
    let space = ProductSpace::frontier_demo();
    let bytes = |seed| {
        let (profile, point) = PredictStream::new(seed, space.len()).next_point();
        let req = predict_request(PREDICT_PROFILES[profile], &space, point);
        serde_json::to_string(&req).unwrap()
    };
    assert_eq!(bytes(3), bytes(3));

    // Points are distinct, and every block of four covers each profile
    // once: the seed moves points and order, never the mix.
    let stream = predict_stream(11, 4000);
    let points: HashSet<usize> = stream.iter().map(|&(_, p)| p).collect();
    assert_eq!(points.len(), stream.len());
    for block in stream.chunks(4) {
        let mut profiles: Vec<usize> = block.iter().map(|&(p, _)| p).collect();
        profiles.sort_unstable();
        assert_eq!(profiles, (0..PREDICT_PROFILES.len()).collect::<Vec<_>>());
    }

    // A full seeded draw is a permutation of the whole space.
    let mut all = distinct_indices(&mut Rng::new(9), 1_000, 1_000);
    all.sort_unstable();
    assert_eq!(all, (0..1_000).collect::<Vec<_>>());

    let a = distinct_indices(&mut Rng::new(7), 100, 1_000);
    assert_eq!(a, distinct_indices(&mut Rng::new(7), 100, 1_000));
    assert_eq!(a.iter().collect::<HashSet<_>>().len(), 100);
}

fn span(id: usize, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        id,
        name: if parent.is_some() { "child" } else { "root" },
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let root = span(0, 0, 100, None);
    let kids = [
        span(1, 10, 30, Some(0)),
        span(2, 20, 50, Some(0)),
        span(3, 90, 120, Some(0)),
    ];
    let refs: Vec<&Span> = kids.iter().collect();
    // Children cover [10, 50) and [90, 100) of the root's interval.
    assert_eq!(self_time_ns(&root, &refs), 50);

    let mut all = vec![root];
    all.extend(kids);
    let times = layer_times(&all);
    assert_eq!(times["root"].count, 1);
    assert_eq!(times["root"].self_ns, 50);
    assert_eq!(times["child"].count, 3);
    assert_eq!(times["child"].total_ns, 20 + 30 + 30);
    assert_eq!(times["child"].self_ns, times["child"].total_ns);
}

#[test]
fn a_live_tracer_links_children_and_a_disabled_one_records_nothing() {
    let tracer = Tracer::new(true);
    tracer.span("outer", None, 1, |root| {
        tracer.span("inner", root, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
    });
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    let times = layer_times(&spans);
    assert!(times["inner"].total_ns >= 5_000_000);
    assert!(times["outer"].self_ns < times["outer"].total_ns);
    assert_eq!(
        times["outer"].self_ns + times["inner"].total_ns,
        times["outer"].total_ns
    );

    let off = Tracer::new(false);
    off.span("outer", None, 1, |root| assert!(root.is_none()));
    assert!(off.spans().is_empty());
}

fn small_profile(name: &str) -> ApplicationProfile {
    let spec = WorkloadSpec::by_name(name).unwrap();
    Profiler::new(ProfilerConfig::fast_test()).profile_named(name, &mut spec.trace(20_000))
}

/// Flip one digit of the first number after `field` in a JSON body.
fn tamper(body: &str, field: &str) -> String {
    let at = body.find(field).unwrap() + field.len();
    let digit = at + body[at..].find(|c: char| c.is_ascii_digit()).unwrap();
    let mut bytes = body.as_bytes().to_vec();
    bytes[digit] = if bytes[digit] == b'9' {
        b'8'
    } else {
        bytes[digit] + 1
    };
    String::from_utf8(bytes).unwrap()
}

#[test]
fn the_predict_oracle_counts_a_tampered_body_as_a_failure() {
    let profiles = [small_profile("astar"), small_profile("mcf")];
    let prepared: Vec<PreparedProfile<'_>> = profiles.iter().map(PreparedProfile::new).collect();
    let space = DesignSpace::small();
    let mut outputs: Vec<PredictOutput> = (0..8)
        .map(|i| {
            let profile = i % 2;
            let req = predict_request(&profiles[profile].name, &space, i);
            let body =
                serde_json::to_string(&engine::predict_response(&prepared[profile], &req).unwrap())
                    .unwrap();
            PredictOutput {
                profile,
                machine: space.point_at(i).machine,
                body,
            }
        })
        .collect();
    assert!(check_predicts(&prepared, &outputs).is_empty());

    outputs[3].body = tamper(&outputs[3].body, "\"cpi\":");
    let failures = check_predicts(&prepared, &outputs);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("mcf"));

    // A body answered for another caller's machine is also a failure.
    outputs[3].body = outputs[5].body.clone();
    assert_eq!(check_predicts(&prepared, &outputs).len(), 1);
}

#[test]
fn the_explore_oracle_catches_a_tampered_entry_and_a_changed_body() {
    let profile = small_profile("astar");
    let prepared = PreparedProfile::new(&profile);
    let mut req = ExploreRequest::new("astar", SpaceSpec::named("small"));
    req.objective = "edp".to_string();
    req.top_k = 5;
    let resp = engine::explore_response(&prepared, &req).unwrap();
    assert!(check_explore_entries(&prepared, &req, &resp).is_empty());

    let mut wrong = resp.clone();
    wrong.summary.top[2].item.power *= 1.0 + f64::EPSILON;
    assert_eq!(check_explore_entries(&prepared, &req, &wrong).len(), 1);
    let mut wrong = resp.clone();
    wrong.frontier_machines[0] = "nehalem".to_string();
    assert_eq!(check_explore_entries(&prepared, &req, &wrong).len(), 1);

    let body = serde_json::to_string(&resp).unwrap();
    assert!(same_bytes(&body, &body).is_ok());
    assert!(same_bytes(&tamper(&body, "\"seconds\":"), &body).is_err());
}

#[test]
fn the_validation_oracle_masks_only_the_cache_section() {
    let mut config = ValidationConfig::smoke();
    config.profile_instructions = 5_000;
    config.sim_instructions = 5_000;
    let points = DesignSpace::small().enumerate()[..2].to_vec();
    let cache = SimCache::shared();
    let validator = Validator::new(config)
        .points(points)
        .workload_named("astar")
        .unwrap()
        .cache(cache);
    let cold = validator.run();
    let warm = validator.run();
    let first = masked_report(&cold);
    assert!(check_validation(&cold, 2, &first).is_ok());
    // Cold and warm reports differ only in `cache`...
    assert_eq!(masked_report(&warm), first);
    // ...but a warm run is not a cold one.
    assert!(check_validation(&warm, 2, &first).is_err());

    let mut wrong = cold.clone();
    wrong.cpi.mean_abs *= 1.0 + f64::EPSILON;
    assert!(check_validation(&wrong, 2, &first).is_err());
}
