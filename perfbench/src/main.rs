//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --pmt PATH`
//!
//! Runs one workload against the pmt crates (and, for `serve-predict`, a
//! `pmt serve` daemon), prints every metric by name with its unit and
//! sample count, checks every output, and ends with one JSON line:
//! `correct`, `attempted`, `failed`, `metrics`. `--trace 0` reports the
//! end-to-end metrics of an untraced run. `--trace 1` runs the workload
//! untraced and then traced for half the time each, runs the layer
//! probes, reports the per-layer metrics and the tracing overhead, and
//! writes every span to `.bench_out/`. See `README.md` for the metric
//! definitions.

mod explore;
mod predict;
mod probes;
mod serve;
mod setup;
mod validate;

use perfbench::stats::{median, tail};
use perfbench::sys;
use perfbench::trace::{self, Tracer};
use std::path::PathBuf;
use std::time::Instant;

/// One reported number.
#[derive(Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value was taken from.
    pub samples: usize,
    /// What the number was measured on.
    pub note: String,
}

pub fn metric(
    name: impl Into<String>,
    unit: &'static str,
    value: f64,
    samples: usize,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        samples,
        note: note.into(),
    }
}

/// Per-operation wall and CPU time of a closed loop.
#[derive(Default)]
pub struct Meter {
    pub op_ms: Vec<f64>,
    pub cpu_s: f64,
}

impl Meter {
    /// Time one operation.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = sys::process_cpu_s();
        let t = Instant::now();
        let out = f();
        self.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.cpu_s += sys::process_cpu_s() - cpu;
        out
    }
}

/// What one timed pass of a workload produced.
#[derive(Default)]
pub struct Run {
    pub meter: Meter,
    pub attempted: u64,
    pub failed: u64,
    /// Mean response size in bytes.
    pub response_bytes: f64,
    /// Peak memory of the process that served the operations, when that
    /// is not this one.
    pub server_rss_mb: Option<f64>,
    /// Numbers printed beside the end-to-end metrics but not gated.
    pub info: Vec<Metric>,
    /// Per-layer numbers only this workload can measure.
    pub layers: Vec<Metric>,
    /// Findings printed before the result line (failed checks first).
    pub lines: Vec<String>,
}

/// Shared run settings.
pub struct Ctx {
    pub seed: u64,
    pub pmt: PathBuf,
    pub out: PathBuf,
}

/// A workload: the profiles it sets up and its timed closed loop.
struct Workload {
    name: &'static str,
    profiles: &'static [&'static str],
    run: fn(&Ctx, &setup::Setup, &Tracer, f64) -> Result<Run, String>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "explore-big",
        profiles: &["astar"],
        run: explore::run,
    },
    Workload {
        name: "predict-cold",
        profiles: &perfbench::gen::PREDICT_PROFILES,
        run: predict::run,
    },
    Workload {
        name: "validate-grid",
        profiles: &validate::PROFILES,
        run: validate::run,
    },
    Workload {
        name: "serve-predict",
        profiles: &[serve::PROFILE],
        run: serve::run,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pmt: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
        pmt: PathBuf::from(value("--pmt")?),
    })
}

/// The end-to-end metrics of one pass, and the ungated numbers printed
/// beside them.
fn end_to_end(setup: &setup::Setup, run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let ops = &run.meter.op_ms;
    let n = ops.len();
    let (rss, rss_note) = match run.server_rss_mb {
        Some(mb) => (mb, "VmHWM of the daemon"),
        None => (
            sys::peak_rss_mb("/proc/self/status"),
            "VmHWM of this process (it models in-process)",
        ),
    };
    let e2e = vec![
        setup.setup_s(),
        metric(
            "op_p50_ms",
            "ms",
            median(ops),
            n,
            "median wall time per operation",
        ),
        metric(
            "cpu_ms_per_op",
            "ms",
            run.meter.cpu_s * 1e3 / n as f64,
            n,
            "user + system CPU time per operation, all threads",
        ),
        metric("peak_rss_mb", "MB", rss, 1, rss_note),
    ];
    let mut info = Vec::new();
    let lo = ops.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ops.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    info.push(metric(
        "op_range_pct",
        "%",
        100.0 * (hi - lo) / median(ops),
        n,
        format!("slowest {hi:.4} ms minus fastest {lo:.4} ms, over the median"),
    ));
    match tail(ops, 99.0) {
        Some(t) => info.push(metric(
            "op_tail_ms",
            "ms",
            t.value,
            t.samples,
            format!(
                "p{:.1}, the highest percentile with 10 samples beyond it",
                t.percentile
            ),
        )),
        None => info.push(metric(
            "op_tail_ms",
            "ms",
            f64::NAN,
            n,
            "none: fewer than 11 operations",
        )),
    }
    info.extend(run.info.iter().cloned());
    (e2e, info)
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        println!(
            "  {:<30} {:>14.4} {:<9} n={:<6} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; an unmeasurable value is 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

fn print_lines(run: &Run) {
    const SHOWN: usize = 10;
    for line in run.lines.iter().take(SHOWN) {
        println!("{line}");
    }
    if run.lines.len() > SHOWN {
        println!("... {} more", run.lines.len() - SHOWN);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        pmt: args.pmt.clone(),
        out,
    };
    let w = args.workload;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cpus)",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let host_before = sys::host_ticks();
    let tracer = Tracer::new(args.trace);
    let setup = setup::run(&tracer, w.profiles)?;

    if !args.trace {
        let pass = (w.run)(&ctx, &setup, &Tracer::new(false), args.seconds)?;
        print_lines(&pass);
        let (e2e, info) = end_to_end(&setup, &pass);
        print_metrics("end-to-end", &e2e);
        print_metrics("also measured (not gated)", &info);
        print_steal(host_before);
        println!("{}", result_line(pass.attempted, pass.failed, &e2e));
        return Ok(());
    }

    let half = args.seconds / 2.0;
    let plain = (w.run)(&ctx, &setup, &Tracer::new(false), half)?;
    let traced = (w.run)(&ctx, &setup, &tracer, half)?;
    let mut layers = setup.layers();
    layers.extend(probes::run(&tracer, args.seed));
    let spans = tracer.spans();
    let serialize_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "api.serialize")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    // A daemon serialises inside its own process, out of the spans' reach.
    if !serialize_us.is_empty() {
        layers.push(metric(
            "api.response_serialize_us",
            "us",
            median(&serialize_us),
            serialize_us.len(),
            format!("{} response to_string, traced half", w.name),
        ));
    }
    layers.push(metric(
        "api.response_bytes",
        "bytes",
        traced.response_bytes,
        traced.meter.op_ms.len(),
        format!("mean {} response size", w.name),
    ));
    layers.extend(traced.layers.iter().cloned());
    let (p, t) = (median(&plain.meter.op_ms), median(&traced.meter.op_ms));
    layers.push(metric(
        "trace.overhead_pct",
        "%",
        100.0 * (t - p) / p,
        plain.meter.op_ms.len() + traced.meter.op_ms.len(),
        format!("op_p50_ms traced {t:.4} vs untraced {p:.4}"),
    ));

    print_lines(&plain);
    print_lines(&traced);
    let (e2e, _) = end_to_end(&setup, &plain);
    print_metrics("end-to-end (untraced half)", &e2e);
    println!("layer self times (set-up, traced half and probes):");
    for (name, t) in trace::layer_times(&spans) {
        println!(
            "  {:<36} count {:>7}  total {:>11.3} ms  self {:>11.3} ms",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let path = ctx
        .out
        .join(format!("trace-{}-seed{}.json", w.name, args.seed));
    let header = [
        ("workload", format!("\"{}\"", w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", half.to_string()),
    ];
    std::fs::write(&path, trace::to_json(&spans, &header))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    print_metrics("per-layer", &layers);
    print_steal(host_before);
    println!(
        "{}",
        result_line(
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            &layers
        )
    );
    Ok(())
}

fn print_steal(before: Option<(u64, u64)>) {
    println!(
        "host steal: {:.2}% of all CPU time during the run (/proc/stat)",
        sys::steal_pct(before, sys::host_ticks())
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --pmt PATH"
            );
            std::process::exit(2);
        }
    };
    // A completed run exits 0 either way: failed output checks are
    // reported in the result line (`correct`, `failed`).
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
