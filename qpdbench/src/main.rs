//! The qpd benchmark: three workloads, end-to-end metrics from untraced
//! runs and per-layer metrics from traced runs.
//!
//! ```text
//! qpdbench --workload paper_sweep|explore_cold|serve_mix --seed N
//!          --seconds S --trace 0|1 --serve-bin PATH --out-dir DIR
//! ```
//!
//! Normally started through `qpdbench/run.py`, which builds this binary
//! and the `qpd_serve` daemon, pins the process to the host's cores and
//! sets `QPD_THREADS`. The last line of standard output is the result
//! object (`correct`, `attempted`, `failed`, `metrics`); earlier lines
//! carry one output digest per operation and the host/noise record.
//! See `qpdbench/README.md` for the metric definitions.

mod explore;
mod host;
mod report;
mod serve;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use qpd_circuit::Circuit;

use report::{median, Metrics, Outcome};
use trace::Tracer;

/// The twelve paper programs, built once per run.
pub type Circuits = Vec<(&'static str, Circuit)>;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

/// Times the batch workloads' setup repeats to report a median.
const SETUP_REPEATS: usize = 9;

/// Every per-layer metric a traced run prints (zero where the workload
/// does not reach the layer), with its unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.freq_alloc.self_ms", "ms"),
    ("core.freq_alloc.calls", "count"),
    ("mapping.route.self_ms", "ms"),
    ("mapping.route.calls", "count"),
    ("mapping.route.swaps", "count"),
    ("yield.estimate.self_ms", "ms"),
    ("yield.estimate.calls", "count"),
    ("core.place.self_ms", "ms"),
    ("core.bus.self_ms", "ms"),
    ("profile.of.self_ms", "ms"),
    ("benchmarks.build.self_ms", "ms"),
    ("eval.program.adr4_197.ms", "ms"),
    ("eval.program.rd84_142.ms", "ms"),
    ("eval.program.misex1_241.ms", "ms"),
    ("eval.program.square_root_7.ms", "ms"),
    ("eval.program.radd_250.ms", "ms"),
    ("eval.program.cm152a_212.ms", "ms"),
    ("eval.program.dc1_220.ms", "ms"),
    ("eval.program.z4_268.ms", "ms"),
    ("eval.program.sym6_145.ms", "ms"),
    ("eval.program.UCCSD_ansatz_8.ms", "ms"),
    ("eval.program.ising_model_16.ms", "ms"),
    ("eval.program.qft_16.ms", "ms"),
    ("explore.initial.self_ms", "ms"),
    ("explore.round.self_ms", "ms"),
    ("explore.round.calls", "count"),
    ("explore.evals", "count"),
    ("explore.archive_len", "count"),
    ("explore.front_len", "count"),
    ("stage.placement.hit_ratio", "ratio"),
    ("stage.placement.unique_misses", "count"),
    ("stage.bus.hit_ratio", "ratio"),
    ("stage.bus.unique_misses", "count"),
    ("stage.frequency.hit_ratio", "ratio"),
    ("stage.frequency.unique_misses", "count"),
    ("stage.routing.hit_ratio", "ratio"),
    ("stage.routing.unique_misses", "count"),
    ("stage.yield.hit_ratio", "ratio"),
    ("stage.yield.unique_misses", "count"),
    ("replay.core.freq_alloc.self_ms", "ms"),
    ("replay.mapping.route.self_ms", "ms"),
    ("replay.yield.estimate.self_ms", "ms"),
    ("par.cpu_util", "s/s"),
    ("serve.parse_request.named.self_us", "us"),
    ("serve.parse_request.qasm.self_us", "us"),
    ("circuit.qasm_parse.self_us", "us"),
    ("serve.benchmarks_build.self_us", "us"),
    ("explore.circuit_key.self_us", "us"),
    ("explore.evaluate_warm.self_us", "us"),
    ("serve.render.self_us", "us"),
    ("serve.roundtrip.named.p50_ms", "ms"),
    ("serve.roundtrip.qasm.p50_ms", "ms"),
    ("serve.transport_us", "us"),
    ("serve.stage_misses_after_warmup", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Spans whose summed self time is reported as `<name>.self_ms`, and
/// those whose call count is reported as `<name>.calls`.
const SELF_MS_SPANS: &[&str] = &[
    "core.freq_alloc",
    "mapping.route",
    "yield.estimate",
    "core.place",
    "core.bus",
    "profile.of",
    "benchmarks.build",
    "explore.initial",
    "explore.round",
    "replay.core.freq_alloc",
    "replay.mapping.route",
    "replay.yield.estimate",
];
const CALL_SPANS: &[&str] =
    &["core.freq_alloc", "mapping.route", "yield.estimate", "explore.round"];

fn usage() -> ! {
    eprintln!(
        "usage: qpdbench --workload paper_sweep|explore_cold|serve_mix --seed N --seconds S \
         --trace 0|1 [--serve-bin PATH] [--out-dir DIR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 20.0,
        trace: false,
        serve_bin: PathBuf::from("target/release/qpd_serve"),
        out_dir: PathBuf::from("qpdbench/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value == "1",
            "--serve-bin" => opts.serve_bin = PathBuf::from(value),
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    if !["paper_sweep", "explore_cold", "serve_mix"].contains(&opts.workload.as_str()) {
        usage()
    }
    opts
}

/// Builds the twelve programs and spins up the worker pool, `SETUP_REPEATS`
/// times; returns the circuits and the median setup time.
fn batch_setup() -> (Circuits, f64) {
    let mut times = Vec::new();
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        circuits = qpd_benchmarks::ALL
            .iter()
            .map(|s| (s.name, qpd_benchmarks::build(s.name).expect("paper program builds")))
            .collect();
        let warm: Vec<usize> = qpd_par::par_map(&[0usize; 64], |x| x + 1);
        std::hint::black_box(warm);
        times.push(t.elapsed().as_secs_f64());
    }
    (circuits, median(&times))
}

/// Turns the span aggregates into the per-layer metrics.
fn span_metrics(t: &Tracer, m: &mut Metrics) {
    let agg = t.aggregate();
    for name in SELF_MS_SPANS {
        if let Some(a) = agg.get(name) {
            m.set(format!("{name}.self_ms"), a.self_ns as f64 / 1e6, "ms");
        }
    }
    for name in CALL_SPANS {
        if let Some(a) = agg.get(name) {
            m.set(format!("{name}.calls"), a.calls as f64, "count");
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("qpdbench: cannot create {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let noise = host::NoiseStart::sample();
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let tracer = Tracer::new();
    let mut daemon = None;
    match opts.workload.as_str() {
        "serve_mix" => match serve::run(&opts, &mut out, &mut m, opts.trace.then_some(&tracer)) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                eprintln!("qpdbench: serve_mix: {e}");
                return ExitCode::FAILURE;
            }
        },
        workload => {
            let (circuits, setup_s) = batch_setup();
            m.set("setup_s", setup_s, "s");
            match (workload, opts.trace) {
                ("paper_sweep", false) => sweep::untraced(&opts, &circuits, &mut out, &mut m),
                ("paper_sweep", true) => sweep::traced(&opts, &circuits, &mut out, &mut m, &tracer),
                (_, false) => explore::untraced(&opts, &circuits, &mut out, &mut m),
                (_, true) => explore::traced(&opts, &circuits, &mut out, &mut m, &tracer),
            }
            m.set("peak_rss_mb", host::peak_rss_mb("self").unwrap_or(0.0), "MB");
        }
    }
    let host = host::record(&noise, daemon.as_ref());
    println!("host {host}");
    let tag = format!("{}-{}", opts.workload, if opts.trace { "traced" } else { "untraced" });
    let _ = std::fs::write(opts.out_dir.join(format!("host-{tag}.json")), &host);
    if opts.trace {
        span_metrics(&tracer, &mut m);
        if let Err(e) = tracer.write_jsonl(&opts.out_dir.join(format!("spans-{tag}.jsonl"))) {
            eprintln!("qpdbench: cannot write spans: {e}");
        }
        m = m.select(PER_LAYER);
    } else {
        m = m.select(&[
            ("throughput_per_s", "1/s"),
            ("latency_p50_ms", "ms"),
            ("latency_tail_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ]);
    }
    println!("{}", out.result_line(&m));
    ExitCode::SUCCESS
}
