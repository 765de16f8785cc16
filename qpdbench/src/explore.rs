//! `explore_cold`: design-space search from empty caches — a fresh
//! `Explorer` with `ExploreConfig::default()` per program, run to
//! completion.
//!
//! The traced run times `initial_state` and each `advance_round` under
//! spans, then replays every archived candidate cold through the layer
//! calls (`ExploreSpace::resolve` → `DesignFlow::design_with_layout` →
//! `SabreRouter::route` → `YieldSimulator::estimate`) and checks the
//! result equals the archived `Objectives`.

use std::time::Instant;

use qpd_circuit::Circuit;
use qpd_core::{DesignFlow, StageKind};
use qpd_explore::{Evaluated, ExploreConfig, ExploreError, ExploreSpace, ExploreState, Explorer};
use qpd_mapping::SabreRouter;
use qpd_yield::YieldSimulator;

use crate::host::self_cpu_seconds;
use crate::report::{batch_latency, digest, median, Golden, Metrics, Outcome};
use crate::trace::Tracer;
use crate::{Circuits, Opts};

const WORKLOAD: &str = "explore_cold";

/// Nominal seconds of one 12-program pass on the reference host; the
/// run makes `round(seconds / PASS_S)` passes (at least one).
const PASS_S: f64 = 4.5;

/// The configuration of pass `pass` of a run with seed `seed`: every
/// pass explores under its own seed, so one run averages over several
/// search trajectories instead of repeating one.
fn config(seed: u64, pass: usize) -> ExploreConfig {
    ExploreConfig {
        seed: seed.wrapping_mul(100).wrapping_add(pass as u64),
        ..ExploreConfig::default()
    }
}

fn engine(circuit: &Circuit, config: ExploreConfig) -> Result<Explorer, ExploreError> {
    Explorer::new(ExploreSpace::new(circuit.clone(), config.max_aux), config)
}

/// Full-fidelity evaluations of a finished run: unique yield-stage
/// misses (screening is off in the default config).
fn evals(explorer: &Explorer) -> u64 {
    explorer
        .stage_stats()
        .iter()
        .find(|s| s.kind == StageKind::Yield)
        .map_or(0, |s| s.unique_misses)
}

fn archive_digest(state: &ExploreState) -> String {
    let text: Vec<String> = state.archive.iter().map(|e| e.to_json().render_compact()).collect();
    digest(text.join("\n").as_bytes())
}

pub fn untraced(opts: &Opts, circuits: &Circuits, out: &mut Outcome, m: &mut Metrics) {
    let golden = Golden::load();
    let passes = ((opts.seconds / PASS_S).round() as usize).max(1);
    let mut times = Vec::new();
    let mut results = Vec::new();
    let mut pass_rates = Vec::new();
    let mut total_evals = 0;
    for pass in 0..passes {
        let config = config(opts.seed, pass);
        let (t0, mut pass_evals) = (Instant::now(), 0);
        for (name, circuit) in circuits {
            let t = Instant::now();
            let run = engine(circuit, config).and_then(|e| Ok((e.run()?, evals(&e))));
            times.push(t.elapsed().as_secs_f64());
            if let Ok((_, n)) = &run {
                pass_evals += n;
            }
            results.push((config.seed, *name, run.map(|(state, _)| archive_digest(&state))));
        }
        pass_rates.push(pass_evals as f64 / t0.elapsed().as_secs_f64());
        total_evals += pass_evals;
    }
    for (seed, name, run) in results {
        let error = match run {
            Err(e) => Some(format!("{name}: {e}")),
            Ok(d) => golden.check(WORKLOAD, Some(seed), name, &d),
        };
        out.record(error);
    }
    let (p50_s, tail_s) = batch_latency(&times, circuits.len());
    eprintln!(
        "qpdbench: {WORKLOAD}: {} runs in {passes} pass(es), {total_evals} evaluations",
        times.len()
    );
    m.set("throughput_per_s", median(&pass_rates), "1/s");
    m.set("latency_p50_ms", p50_s * 1e3, "ms");
    m.set("latency_tail_ms", tail_s * 1e3, "ms");
}

/// One pass: each program run untraced (timed, stage counters), then
/// again with its rounds under spans, then every archived candidate
/// replayed cold through the layer calls.
pub fn traced(opts: &Opts, circuits: &Circuits, out: &mut Outcome, m: &mut Metrics, t: &Tracer) {
    let config = config(opts.seed, 0);
    let (mut untraced_s, mut traced_s, mut cpu_s) = (0.0, 0.0, 0.0);
    for (i, (name, circuit)) in circuits.iter().enumerate() {
        let (c0, t0) = (self_cpu_seconds(), Instant::now());
        let reference = engine(circuit, config).and_then(|e| {
            let state = e.run()?;
            Ok((e, state))
        });
        let dt = t0.elapsed().as_secs_f64();
        cpu_s += self_cpu_seconds() - c0;
        untraced_s += dt;
        let (explorer, state) = match reference {
            Ok(r) => r,
            Err(e) => {
                out.record(Some(format!("{name}: {e}")));
                continue;
            }
        };
        for s in explorer.stage_stats() {
            let stage = s.kind.name();
            m.add(&format!("stage.{stage}.hits"), s.hits as f64, "count");
            m.add(&format!("stage.{stage}.lookups"), (s.hits + s.misses) as f64, "count");
            m.add(&format!("stage.{stage}.unique_misses"), s.unique_misses as f64, "count");
        }
        m.add("explore.evals", evals(&explorer) as f64, "count");
        m.add("explore.archive_len", state.archive.len() as f64, "count");
        m.add("explore.front_len", state.front_indices().len() as f64, "count");

        let op = i as u64 + 1;
        let t1 = Instant::now();
        let rerun = t.op("explore.run", op, || -> Result<ExploreState, ExploreError> {
            let e = t.span("explore.new", || engine(circuit, config))?;
            let mut s = t.span("explore.initial", || e.initial_state())?;
            while s.rounds_done < config.rounds {
                t.span("explore.round", || e.advance_round(&mut s))?;
            }
            Ok(s)
        });
        traced_s += t1.elapsed().as_secs_f64();
        let mut error = match rerun {
            Err(e) => Some(format!("{name}: traced run: {e}")),
            Ok(s) => {
                (s.archive != state.archive).then(|| format!("{name}: traced archive differs"))
            }
        };
        if error.is_none() {
            error = replay(t, op, &explorer, &state.archive)
                .err()
                .map(|e| format!("{name}: replay: {e}"));
        }
        out.record(error);
    }
    for s in StageKind::ALL {
        let stage = s.name();
        let lookups = m.take(&format!("stage.{stage}.lookups"));
        let hits = m.take(&format!("stage.{stage}.hits"));
        m.set(format!("stage.{stage}.hit_ratio"), hit_ratio(hits, lookups), "ratio");
    }
    m.set("par.cpu_util", cpu_s / untraced_s, "s/s");
    m.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms");
    m.set("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s, "%");
}

/// Hits over lookups; 1.0 when there were no lookups (nothing missed).
pub fn hit_ratio(hits: f64, lookups: f64) -> f64 {
    if lookups == 0.0 {
        1.0
    } else {
        hits / lookups
    }
}

/// Re-evaluates every archived candidate from scratch (a fresh design
/// flow per candidate, no stage caches) and compares with the archive.
fn replay(t: &Tracer, op: u64, explorer: &Explorer, archive: &[Evaluated]) -> Result<(), String> {
    let config = explorer.config();
    let space = explorer.space();
    let outcomes = t.op("explore.replay", op, || {
        let ctx = t.current();
        qpd_par::par_map(archive, |e| {
            t.span_in(ctx, "replay.candidate", || -> Result<(), String> {
                let spec = &e.spec;
                let (coords, squares) = space.resolve(spec);
                let flow = DesignFlow::new()
                    .with_allocation_trials(config.alloc_trials)
                    .with_allocation_seed(config.seed)
                    .with_sigma_ghz(config.sigma_ghz)
                    .with_frequency_strategy(spec.frequency)
                    .with_hardware(spec.hardware);
                let arch = t
                    .span("replay.core.freq_alloc", || flow.design_with_layout(&coords, &squares))
                    .map_err(|e| e.to_string())?;
                let mapped = t
                    .span("replay.mapping.route", || SabreRouter::new(&arch).route(space.circuit()))
                    .map_err(|e| e.to_string())?;
                let sim = YieldSimulator::new()
                    .with_trials(config.yield_trials)
                    .with_seed(config.seed)
                    .with_sigma_ghz(config.sigma_ghz)
                    .with_hardware(spec.hardware);
                let estimate = t
                    .span("replay.yield.estimate", || sim.estimate(&arch))
                    .map_err(|e| e.to_string())?;
                let stats = mapped.stats();
                let o = &e.objectives;
                let cost = arch.four_qubit_buses().len() as u64
                    + spec.aux_qubits.min(space.max_aux()) as u64;
                let same = o.yield_successes == estimate.successes()
                    && o.yield_trials == estimate.trials()
                    && o.total_gates == stats.total_gates as u64
                    && o.routed_depth == stats.routed_depth as u64
                    && o.hardware_cost == cost
                    && e.arch_name == arch.name();
                if same {
                    Ok(())
                } else {
                    Err(format!("{} replays to a different point", e.arch_name))
                }
            })
        })
    });
    outcomes.into_iter().collect()
}
