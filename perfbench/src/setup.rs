//! Workload set-up: for each of the workload's profiles, profile it,
//! round-trip it through JSON and prepare it. Set-up runs [`REPEATS`]
//! times per run; `setup_s` is the median.

use crate::{metric, Metric};
use perfbench::stats::median;
use perfbench::trace::Tracer;
use pmt_core::PreparedProfile;
use pmt_profiler::{ApplicationProfile, Profiler, ProfilerConfig};
use pmt_trace::SamplingConfig;
use pmt_workloads::WorkloadSpec;
use std::time::Instant;

/// Instructions per profile, on every workload (`pmt profile` shape).
pub const INSTRUCTIONS: u64 = 300_000;
/// Windows (micro-traces) per profile.
pub const WINDOWS: u64 = 100;
/// Set-ups per run.
pub const REPEATS: usize = 5;

/// Profile `name` at `instructions` with `windows` windows, configured as
/// `pmt profile` does: thesis profiler, 1k-instruction micro-traces.
pub fn profile(name: &str, instructions: u64, windows: u64) -> ApplicationProfile {
    let spec = WorkloadSpec::by_name(name).expect("benchmark workloads exist");
    let mut cfg = ProfilerConfig::thesis_default();
    cfg.sampling = SamplingConfig {
        micro_trace_instructions: 1_000,
        window_instructions: instructions / windows,
    };
    Profiler::new(cfg).profile_named(name, &mut spec.trace(instructions))
}

/// The profiles a workload runs against, and what setting them up cost.
pub struct Setup {
    /// The round-tripped profiles of the last set-up, in argument order.
    /// They live for the rest of the run, so prepared profiles can borrow
    /// them from anywhere.
    pub profiles: Vec<&'static ApplicationProfile>,
    /// Wall seconds of each whole set-up.
    pub seconds: Vec<f64>,
    // Per-set-up times of the first profile's layers, in milliseconds.
    profile_ms: Vec<f64>,
    json_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    profile_bytes: usize,
}

impl Setup {
    pub fn setup_s(&self) -> Metric {
        let names: Vec<&str> = self.profiles.iter().map(|p| p.name.as_str()).collect();
        metric(
            "setup_s",
            "s",
            median(&self.seconds),
            self.seconds.len(),
            format!(
                "median set-up: profile, JSON round trip and prepare of {}",
                names.join(", ")
            ),
        )
    }

    pub fn prepared(&self) -> Vec<PreparedProfile<'static>> {
        self.profiles
            .iter()
            .map(|p| PreparedProfile::new(p))
            .collect()
    }

    /// Per-layer set-up metrics of the first profile, medians over the
    /// set-ups.
    pub fn layers(&self) -> Vec<Metric> {
        let n = self.seconds.len();
        let profile_ms = median(&self.profile_ms);
        let shape = format!(
            "{} {INSTRUCTIONS} instr, {WINDOWS} windows",
            self.profiles[0].name
        );
        vec![
            metric("profiler.profile_ms", "ms", profile_ms, n, &shape),
            metric(
                "profiler.minstr_per_s",
                "Minstr/s",
                INSTRUCTIONS as f64 / 1e3 / profile_ms,
                n,
                &shape,
            ),
            metric(
                "api.profile_json_ms",
                "ms",
                median(&self.json_ms),
                n,
                format!("to_string + from_str; {shape}"),
            ),
            metric(
                "api.profile_bytes",
                "bytes",
                self.profile_bytes as f64,
                1,
                &shape,
            ),
            metric("core.prepare_ms", "ms", median(&self.prepare_ms), n, shape),
        ]
    }
}

/// Time `f` in milliseconds inside a span.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    tracer.span(name, parent, 0, |_| {
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e3)
    })
}

/// Set up `names` [`REPEATS`] times, keeping the last set-up.
pub fn run(tracer: &Tracer, names: &[&str]) -> Result<Setup, String> {
    let mut seconds = Vec::new();
    let (mut profile_ms, mut json_ms, mut prepare_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut profile_bytes = 0;
    let mut last = Vec::new();
    for round in 0..REPEATS {
        last.clear();
        let started = Instant::now();
        tracer.span("setup", None, round as u64, |root| {
            for (i, name) in names.iter().enumerate() {
                let (profile, profiled) = timed(tracer, "profiler.profile_named", root, || {
                    profile(name, INSTRUCTIONS, WINDOWS)
                });
                let ((json, back), json_in) = timed(tracer, "api.profile_json", root, || {
                    let json = serde_json::to_string(&profile).expect("profiles serialize");
                    let back = serde_json::from_str::<ApplicationProfile>(&json);
                    (json, back)
                });
                let back = back.map_err(|e| format!("profile round trip: {e}"))?;
                let ((), prepared_in) = timed(tracer, "core.prepare", root, || {
                    std::hint::black_box(PreparedProfile::new(&back));
                });
                if i == 0 {
                    profile_ms.push(profiled);
                    json_ms.push(json_in);
                    prepare_ms.push(prepared_in);
                    profile_bytes = json.len();
                }
                last.push(back);
            }
            Ok::<_, String>(())
        })?;
        seconds.push(started.elapsed().as_secs_f64());
    }
    let profiles = last.into_iter().map(|p| &*Box::leak(Box::new(p))).collect();
    Ok(Setup {
        profiles,
        seconds,
        profile_ms,
        json_ms,
        prepare_ms,
        profile_bytes,
    })
}
