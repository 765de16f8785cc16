//! `paper_sweep`: the reproduction user's job — `run_circuit` on all
//! twelve paper programs at paper settings, one program at a time.
//!
//! The traced run replays each program through the layer calls
//! (`CouplingProfile::of` → `DesignFlow::place`/`bus_order`/
//! `design_with_layout` → `SabreRouter::route` → `YieldSimulator::
//! estimate`) under spans, checks that the replay's points equal
//! `run_circuit`'s, verifies every routed circuit and every yield count.

use std::sync::Arc;
use std::time::Instant;

use qpd_circuit::Circuit;
use qpd_core::{BusStrategy, DesignFlow, FrequencyStrategy, StagePlan};
use qpd_eval::runner::{run_circuit, BenchmarkRun, DataPoint, EvalSettings};
use qpd_eval::ConfigKind;
use qpd_mapping::verify::verify_mapped;
use qpd_mapping::SabreRouter;
use qpd_profile::CouplingProfile;
use qpd_topology::{ibm, Architecture, BusMode};
use qpd_yield::YieldSimulator;

use crate::host::self_cpu_seconds;
use crate::report::{batch_latency, digest, per_program_medians, Golden, Metrics, Outcome};
use crate::trace::Tracer;
use crate::{Circuits, Opts};

const WORKLOAD: &str = "paper_sweep";

/// Nominal seconds of one 12-program pass on the reference host; the
/// run makes `round(seconds / PASS_S)` passes (at least one), so the
/// amount of work is a function of `--seconds` alone.
const PASS_S: f64 = 11.0;

fn settings(seed: u64) -> EvalSettings {
    EvalSettings { seed, ..EvalSettings::default() }
}

/// Checks that hold for any `run_circuit` output.
fn sanity(run: &BenchmarkRun) -> Option<String> {
    let b1 = run.ibm_baseline(1)?;
    if b1.normalized_perf != 1.0 {
        return Some(format!(
            "{}: baseline (1) normalizes to {}",
            run.benchmark, b1.normalized_perf
        ));
    }
    for kind in [ConfigKind::Ibm, ConfigKind::EffFull, ConfigKind::Eff5Freq] {
        if run.of_config(kind).is_empty() {
            return Some(format!("{}: no {kind} points", run.benchmark));
        }
    }
    run.points
        .iter()
        .find(|p| !(0.0..=1.0).contains(&p.yield_rate) || p.total_gates == 0)
        .map(|p| format!("{}: implausible point {p:?}", run.benchmark))
}

pub fn untraced(opts: &Opts, circuits: &Circuits, out: &mut Outcome, m: &mut Metrics) {
    let golden = Golden::load();
    let passes = ((opts.seconds / PASS_S).round() as usize).max(1);
    let settings = settings(opts.seed);
    let mut times = Vec::new();
    let mut results = Vec::new();
    for _ in 0..passes {
        for (name, circuit) in circuits {
            let t = Instant::now();
            let run = run_circuit(name, circuit, &settings);
            times.push(t.elapsed().as_secs_f64());
            results.push((*name, run));
        }
    }
    // Each program's median time over the passes; throughput is the
    // programs per second of a pass made of those medians.
    let n = circuits.len();
    let pass_s: f64 = per_program_medians(&times, n).iter().sum();
    let mut first: Vec<(&str, String)> = Vec::new();
    for (name, run) in results {
        let error = match run {
            Err(e) => Some(format!("{name}: {e}")),
            Ok(run) => sanity(&run).or_else(|| {
                let d = digest(qpd_eval::report::run_csv(&run).as_bytes());
                match first.iter().find(|(n, _)| *n == name) {
                    Some((_, seen)) if *seen != d => {
                        Some(format!("{name}: pass digests differ ({seen} vs {d})"))
                    }
                    Some(_) => None,
                    None => {
                        first.push((name, d.clone()));
                        golden.check(WORKLOAD, Some(opts.seed), name, &d)
                    }
                }
            }),
        };
        out.record(error);
    }
    let (p50_s, tail_s) = batch_latency(&times, n);
    eprintln!(
        "qpdbench: {WORKLOAD}: {} programs in {passes} pass(es), median pass {pass_s:.2} s",
        times.len()
    );
    m.set("throughput_per_s", n as f64 / pass_s, "1/s");
    m.set("latency_p50_ms", p50_s * 1e3, "ms");
    m.set("latency_tail_ms", tail_s * 1e3, "ms");
}

/// One pass: each program untraced (timed), then replayed under spans.
pub fn traced(opts: &Opts, circuits: &Circuits, out: &mut Outcome, m: &mut Metrics, t: &Tracer) {
    let settings = settings(opts.seed);
    let (mut untraced_s, mut traced_s, mut cpu_s) = (0.0, 0.0, 0.0);
    let mut swaps = 0usize;
    for (op, (name, circuit)) in circuits.iter().enumerate() {
        let (c0, t0) = (self_cpu_seconds(), Instant::now());
        let reference = run_circuit(name, circuit, &settings);
        let dt = t0.elapsed().as_secs_f64();
        cpu_s += self_cpu_seconds() - c0;
        untraced_s += dt;
        m.set(format!("eval.program.{name}.ms"), dt * 1e3, "ms");
        let t1 = Instant::now();
        let replay = t.op("eval.program", op as u64 + 1, || replay(t, name, &settings));
        traced_s += t1.elapsed().as_secs_f64();
        let error = match (reference, replay) {
            (Err(e), _) => Some(format!("{name}: {e}")),
            (_, Err(e)) => Some(format!("{name}: replay: {e}")),
            (Ok(run), Ok((points, s))) => {
                swaps += s;
                (run.points != points).then(|| format!("{name}: replay points differ"))
            }
        };
        out.record(error);
    }
    m.set("mapping.route.swaps", swaps as f64, "count");
    m.set("par.cpu_util", cpu_s / untraced_s, "s/s");
    m.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms");
    m.set("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "%");
}

/// `run_circuit` spelled out through the public layer calls, each under
/// a span. Returns the points and the total SWAPs inserted; routed
/// circuits and yield counts are verified on the way.
fn replay(
    t: &Tracer,
    name: &str,
    settings: &EvalSettings,
) -> Result<(Vec<DataPoint>, usize), String> {
    let circuit =
        t.span("benchmarks.build", || qpd_benchmarks::build(name)).map_err(|e| e.to_string())?;
    let profile = t.span("profile.of", || CouplingProfile::of(&circuit));
    let sim = YieldSimulator::new()
        .with_trials(settings.yield_trials)
        .with_sigma_ghz(settings.sigma_ghz)
        .with_seed(settings.seed)
        .with_hardware(settings.hardware);
    let baseline1 = ibm::ibm_16q_2x8(BusMode::TwoQubitOnly);
    let (baseline_gates, _) = route_checked(t, &circuit, &baseline1)?;

    let plan = Arc::new(StagePlan::new());
    let kinds = ConfigKind::all();
    let ctx = t.current();
    let generated = qpd_par::par_map(&kinds, |&kind| {
        t.span_in(ctx, "eval.config", || architectures(t, kind, &profile, settings, &plan))
    });
    let mut flat: Vec<(ConfigKind, Architecture)> = Vec::new();
    for (kind, archs) in kinds.iter().zip(generated) {
        flat.extend(archs?.into_iter().map(|a| (*kind, a)));
    }
    let evaluated = qpd_par::par_map(&flat, |(kind, arch)| {
        t.span_in(ctx, "eval.point", || -> Result<(DataPoint, usize), String> {
            let (total_gates, swaps) = route_checked(t, &circuit, arch)?;
            let estimate =
                t.span("yield.estimate", || sim.estimate(arch)).map_err(|e| e.to_string())?;
            if estimate.successes() > estimate.trials()
                || estimate.trials() != settings.yield_trials
            {
                return Err(format!("{}: yield {estimate:?}", arch.name()));
            }
            let point = DataPoint {
                config: *kind,
                arch: arch.name().to_string(),
                qubits: arch.num_qubits(),
                four_qubit_buses: arch.four_qubit_buses().len(),
                coupling_edges: arch.coupling_edges().len(),
                total_gates,
                swaps,
                yield_rate: estimate.rate(),
                normalized_perf: baseline_gates as f64 / total_gates as f64,
            };
            Ok((point, swaps))
        })
    });
    let mut points = Vec::with_capacity(evaluated.len());
    let mut swaps = 0;
    for e in evaluated {
        let (p, s) = e?;
        swaps += s;
        points.push(p);
    }
    Ok((points, swaps))
}

/// Routes under a span and verifies the mapped circuit against the
/// original; returns `(total_gates, swaps)`.
fn route_checked(
    t: &Tracer,
    circuit: &Circuit,
    arch: &Architecture,
) -> Result<(usize, usize), String> {
    let mapped = t
        .span("mapping.route", || SabreRouter::new(arch).route(circuit))
        .map_err(|e| e.to_string())?;
    verify_mapped(circuit, &mapped, arch).map_err(|e| format!("{}: {e}", arch.name()))?;
    let stats = mapped.stats();
    Ok((stats.total_gates, stats.swaps))
}

/// `qpd_eval::configs::architectures`, with the place, bus-order and
/// frequency-allocation calls under spans.
fn architectures(
    t: &Tracer,
    kind: ConfigKind,
    profile: &CouplingProfile,
    settings: &EvalSettings,
    plan: &Arc<StagePlan>,
) -> Result<Vec<Architecture>, String> {
    let base = || DesignFlow::new().with_plan(Arc::clone(plan)).with_hardware(settings.hardware);
    let allocating = |flow: DesignFlow| {
        flow.with_allocation_trials(settings.alloc_trials)
            .with_allocation_seed(settings.seed)
            .with_sigma_ghz(settings.sigma_ghz)
    };
    let series = |flow: DesignFlow| -> Result<Vec<Architecture>, String> {
        let coords = t.span("core.place", || flow.place(profile)).map_err(|e| e.to_string())?;
        let order = t.span("core.bus", || flow.bus_order(profile)).map_err(|e| e.to_string())?;
        (0..=order.len())
            .map(|k| {
                t.span("core.freq_alloc", || flow.design_with_layout(&coords, &order[..k]))
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    match kind {
        ConfigKind::Ibm => Ok(ibm::all_baselines().to_vec()),
        ConfigKind::EffFull => series(allocating(base())),
        ConfigKind::Eff5Freq => series(
            base()
                .with_frequency_strategy(FrequencyStrategy::FiveFrequency)
                .with_name_prefix("eff5"),
        ),
        ConfigKind::EffRdBus => {
            let coords =
                t.span("core.place", || base().place(profile)).map_err(|e| e.to_string())?;
            let max = qpd_core::select_buses_maximal(&coords).len();
            let mut archs = Vec::new();
            for s in 0..settings.rd_bus_samples {
                let budget =
                    if max == 0 { 0 } else { 1 + s * max / settings.rd_bus_samples.max(1) };
                if budget == 0 {
                    continue;
                }
                let flow = allocating(base())
                    .with_bus_strategy(BusStrategy::Random { seed: settings.seed + s as u64 })
                    .with_max_buses(Some(budget))
                    .with_name_prefix(format!("effrd{s}"));
                let order =
                    t.span("core.bus", || flow.bus_order(profile)).map_err(|e| e.to_string())?;
                let arch = t
                    .span("core.freq_alloc", || flow.design_with_layout(&coords, &order))
                    .map_err(|e| e.to_string())?;
                archs.push(arch);
            }
            Ok(archs)
        }
        // Pattern frequencies on two fixed layouts: no allocation layer.
        ConfigKind::EffLayoutOnly => {
            qpd_eval::configs::architectures(kind, profile, settings, plan)
                .map_err(|e| e.to_string())
        }
    }
}
