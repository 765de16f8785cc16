//! `serve_mix`: the resident-service user. Boots the `qpd_serve` daemon
//! (`--workers 2`), warms it with every distinct request once, then two
//! closed-loop connections send a seeded sequence of `design` requests:
//! three quarters named benchmarks (eff-full and explicit `spec`
//! variants), one quarter inline QASM (`adr4_197`, `qft_16`,
//! `sym6_145`, emitted by `qasm::to_qasm`).
//!
//! Every response is compared byte for byte with the answer of an
//! in-process engine that never saw the daemon. The traced run also
//! replays each request through the service layers in-process
//! (`parse_request` → `benchmarks::build` / `qasm::parse` →
//! `circuit_key` → `Explorer::evaluate` → `ok_line`) under spans.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use qpd_core::{FrequencyStrategy, StageKind};
use qpd_explore::{
    circuit_key, BusSpec, CandidateSpec, ExploreSpace, Explorer, HardwareFamily, Json,
    PlacementVariant,
};
use qpd_serve::protocol::{self, Request, Source};
use qpd_serve::Client;

use crate::explore::hit_ratio;
use crate::host::{self, DaemonNoise};
use crate::report::{digest, median, tail, Golden, Metrics, Outcome};
use crate::trace::Tracer;
use crate::Opts;

const WORKLOAD: &str = "serve_mix";

/// Daemons booted and warmed per run; each serves `CHUNKS / DAEMONS`
/// chunks of the sequence. Setup time and peak RSS are medians over
/// them.
const DAEMONS: usize = 5;

/// Nominal requests per second on the reference host; a run sends
/// about `seconds * RATE` requests, as `CHUNKS` chunks of whole blocks.
const RATE: f64 = 350.0;

/// The measured sequence is cut into this many chunks; throughput,
/// median and tail latency are taken per chunk and reported as their
/// medians over the chunks, so a short host stall moves one chunk, not
/// the result.
const CHUNKS: usize = 10;

/// One block of the sequence: 15 named requests, 2 `adr4_197`, 2
/// `qft_16` and 1 `sym6_145` QASM request, shuffled. Named requests
/// are the fast class (75%), so the median falls well inside it; the
/// 52 KB `sym6_145` QASM is the slow class (top 5%), which holds the
/// tail percentile.
const BLOCK_NAMED: usize = 15;
const BLOCK_QASM: [(usize, usize); 3] = [(0, 2), (1, 2), (2, 1)];
const BLOCK: usize = 20;

/// Traced runs replay at most this many requests in-process.
const MAX_REPLAY: usize = 1000;

/// Programs sent inline as QASM, slowest last.
const QASM_PROGRAMS: [&str; 3] = ["adr4_197", "qft_16", "sym6_145"];

/// Programs that get explicit `spec` variants besides eff-full.
const SPEC_PROGRAMS: [&str; 6] =
    ["adr4_197", "rd84_142", "cm152a_212", "z4_268", "sym6_145", "ising_model_16"];

/// The fixed request menu: every distinct request line, with ids that
/// name the menu entry so repeats are byte-identical.
struct Menu {
    lines: Vec<String>,
    /// Indices of named-benchmark entries.
    named: Vec<usize>,
    /// Indices of the QASM entries, in `QASM_PROGRAMS` order.
    qasm: Vec<usize>,
}

fn spec_variants() -> [CandidateSpec; 2] {
    let default = HardwareFamily::FixedFrequencyTransmon;
    [
        CandidateSpec {
            bus: BusSpec::Weighted { count: 1 },
            frequency: FrequencyStrategy::FiveFrequency,
            aux_qubits: 0,
            placement: PlacementVariant::Identity,
            hardware: default,
        },
        CandidateSpec {
            bus: BusSpec::Weighted { count: 2 },
            frequency: FrequencyStrategy::Optimized,
            aux_qubits: 1,
            placement: PlacementVariant::Transposed,
            hardware: default,
        },
    ]
}

fn menu() -> Menu {
    let mut entries: Vec<(String, Json)> = Vec::new();
    for (i, spec) in qpd_benchmarks::ALL.iter().enumerate() {
        entries.push((format!("n{i}"), Json::obj([("benchmark", Json::str(spec.name))])));
    }
    for (i, name) in SPEC_PROGRAMS.iter().enumerate() {
        for (j, variant) in spec_variants().iter().enumerate() {
            entries.push((
                format!("s{i}v{j}"),
                Json::obj([("benchmark", Json::str(*name)), ("spec", variant.to_json())]),
            ));
        }
    }
    let named_len = entries.len();
    for (i, name) in QASM_PROGRAMS.iter().enumerate() {
        let circuit = qpd_benchmarks::build(name).expect("paper program builds");
        let text = qpd_circuit::qasm::to_qasm(&circuit).expect("paper program emits QASM");
        entries.push((format!("q{i}"), Json::obj([("qasm", Json::str(text))])));
    }
    let lines = entries
        .into_iter()
        .map(|(id, body)| {
            let mut pairs =
                vec![("id".to_string(), Json::str(id)), ("op".to_string(), Json::str("design"))];
            let Json::Obj(rest) = body else { unreachable!("menu bodies are objects") };
            pairs.extend(rest);
            Json::Obj(pairs).render_compact()
        })
        .collect();
    Menu { lines, named: (0..named_len).collect(), qasm: (named_len..named_len + 3).collect() }
}

/// The seeded request sequence of connection `conn`: `blocks` shuffled
/// blocks of fixed class counts, named entries cycling through a seeded
/// permutation. Each connection gets its own sequence with the same
/// class counts, so both carry the same amount of work.
fn sequence(menu: &Menu, seed: u64, conn: u64, blocks: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(2).wrapping_add(conn));
    let mut named = menu.named.clone();
    shuffle(&mut named, &mut rng);
    let mut next_named = 0;
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(BLOCK);
        for _ in 0..BLOCK_NAMED {
            block.push(named[next_named % named.len()]);
            next_named += 1;
        }
        for (q, count) in BLOCK_QASM {
            block.extend(std::iter::repeat_n(menu.qasm[q], count));
        }
        shuffle(&mut block, &mut rng);
        out.extend(block);
    }
    out
}

fn shuffle(v: &mut [usize], rng: &mut ChaCha8Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn boot(opts: &Opts) -> Result<Daemon, String> {
        let mut child = Command::new(&opts.serve_bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2", "--out-dir"])
            .arg(&opts.out_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", opts.serve_bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.wait();
                return Err("daemon exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or_default().to_string();
            }
        };
        // Keep draining the daemon's log so it never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while stderr.read_line(&mut sink).is_ok_and(|n| n > 0) {
                sink.clear();
            }
        });
        Ok(Daemon { child, addr, drain: Some(drain) })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stats(&self) -> Result<Json, String> {
        let ex = Client::connect(&self.addr)
            .and_then(|mut c| c.request_raw(r#"{"id":"stats","op":"stats"}"#))
            .map_err(|e| format!("stats: {e}"))?;
        Json::parse(&ex.response).map_err(|e| format!("stats response: {e}"))
    }

    /// Asks the daemon to stop and waits until it has exited.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr)
            .and_then(|mut c| c.request_raw(r#"{"id":"stop","op":"shutdown"}"#));
        if asked.is_err() {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends `orders[k]` (menu indices) over connection `k`, both closed
/// loop. Returns, per request in `orders[0]` then `orders[1]` order, its
/// send time (seconds since the start), round-trip time in seconds and
/// response line.
fn drive(
    addr: &str,
    menu: &Menu,
    orders: [&[usize]; 2],
    op_base: u64,
    tracer: Option<&Tracer>,
) -> Result<Vec<Exchanged>, String> {
    let barrier = std::sync::Barrier::new(2);
    let t0 = Instant::now();
    let halves: Vec<Result<Vec<Exchanged>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|k| {
                let barrier = &barrier;
                let order = orders[k];
                let t0 = &t0;
                s.spawn(move || -> Result<Vec<Exchanged>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    barrier.wait();
                    let mut got = Vec::with_capacity(order.len());
                    for (pos, &idx) in order.iter().enumerate() {
                        let line = &menu.lines[idx];
                        let span = if menu.qasm.contains(&idx) {
                            "serve.roundtrip.qasm"
                        } else {
                            "serve.roundtrip.named"
                        };
                        let op = op_base + (k * order.len() + pos) as u64 + 1;
                        let t = Instant::now();
                        let ex = match tracer {
                            Some(tr) => tr.op(span, op, || client.request_raw(line)),
                            None => client.request_raw(line),
                        }
                        .map_err(|e| format!("connection {k}, request {pos}: {e}"))?;
                        got.push(Exchanged {
                            sent: t.duration_since(*t0).as_secs_f64(),
                            rtt: t.elapsed().as_secs_f64(),
                            response: ex.response,
                        });
                    }
                    Ok(got)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Vec::new();
    for half in halves {
        out.extend(half?);
    }
    Ok(out)
}

/// One answered request.
struct Exchanged {
    sent: f64,
    rtt: f64,
    response: String,
}

/// Throughput, median and tail latency of one chunk: the same span of
/// `len` requests from each connection's sequence.
fn chunk_stats(conns: [&[Exchanged]; 2]) -> (f64, f64, f64) {
    let mut rate = 0.0;
    let mut ms = Vec::new();
    for reqs in conns {
        let (first, last) = (&reqs[0], &reqs[reqs.len() - 1]);
        rate += reqs.len() as f64 / (last.sent + last.rtt - first.sent);
        ms.extend(reqs.iter().map(|r| r.rtt * 1e3));
    }
    (rate, median(&ms), tail(&ms).0)
}

/// Boots a daemon and sends every distinct request once (the warm
/// pass); returns the daemon and the boot-to-warm time in seconds.
fn boot_and_warm(opts: &Opts, menu: &Menu) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::boot(opts)?;
    let all: Vec<usize> = (0..menu.lines.len()).collect();
    let (first, second) = all.split_at(all.len() / 2);
    drive(&daemon.addr, menu, [first, second], 0, None)?;
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// Per-stage `(hits, misses, unique_misses)` from a `stats` response.
fn stage_counters(stats: &Json) -> BTreeMap<String, [u64; 3]> {
    let mut out = BTreeMap::new();
    let stages = stats.get("result").and_then(|r| r.get("stages")).and_then(Json::as_arr);
    for s in stages.unwrap_or_default() {
        let n = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0);
        if let Some(name) = s.get("stage").and_then(Json::as_str) {
            out.insert(name.to_string(), [n("hits"), n("misses"), n("unique_misses")]);
        }
    }
    out
}

/// In-process engines, one per distinct circuit and settings, built
/// without the daemon; they give the expected bytes of every menu
/// entry and serve the traced replay warm.
struct Reference {
    engines: BTreeMap<u64, Arc<Explorer>>,
    expected: Vec<String>,
}

fn reference(menu: &Menu) -> Result<Reference, String> {
    let mut engines: BTreeMap<u64, Arc<Explorer>> = BTreeMap::new();
    let mut expected = Vec::new();
    for line in &menu.lines {
        let req = protocol::parse_request(line).map_err(|e| e.message)?;
        let Request::Design { source, spec, settings } = req.body else {
            return Err("menu holds only design requests".into());
        };
        let circuit = build(&source)?;
        let key = settings_key(circuit_key(&circuit), &settings);
        let engine = match engines.get(&key) {
            Some(e) => Arc::clone(e),
            None => {
                let config = settings.to_config();
                let e = Explorer::new(ExploreSpace::new(circuit, config.max_aux), config)
                    .map_err(|e| e.to_string())?;
                Arc::clone(engines.entry(key).or_insert(Arc::new(e)))
            }
        };
        let spec = resolve_spec(&engine, spec.as_ref())?;
        let evaluated = engine.evaluate(&spec).map_err(|e| e.to_string())?;
        expected.push(protocol::ok_line(&req.id, evaluated.to_json()).trim_end().to_string());
    }
    Ok(Reference { engines, expected })
}

fn build(source: &Source) -> Result<qpd_circuit::Circuit, String> {
    match source {
        Source::Benchmark(name) => qpd_benchmarks::build(name).map_err(|e| e.to_string()),
        Source::Qasm(text) => qpd_circuit::qasm::parse(text).map_err(|e| e.to_string()),
    }
}

/// The daemon's engine identity: circuit content key plus every engine
/// setting.
fn settings_key(circuit: u64, s: &protocol::EngineSettings) -> u64 {
    let mut h = qpd_explore::cache::Fnv64::new();
    h.push(circuit);
    h.push(s.alloc_trials as u64);
    h.push(s.yield_trials);
    h.push(s.sigma_ghz.to_bits());
    h.push(s.seed);
    h.push(s.max_aux as u64);
    h.finish()
}

fn resolve_spec(engine: &Explorer, spec: Option<&Json>) -> Result<CandidateSpec, String> {
    match spec {
        None => Ok(CandidateSpec::eff_full(engine.space().full_weighted_len())),
        Some(json) => CandidateSpec::from_json(json).ok_or_else(|| "malformed spec".to_string()),
    }
}

/// One request through the service layers, in-process, under spans;
/// returns the rendered response line.
fn replay_one(t: &Tracer, r: &Reference, line: &str, qasm: bool) -> Result<String, String> {
    let parse = if qasm { "serve.parse_request.qasm" } else { "serve.parse_request.named" };
    let req = t.span(parse, || protocol::parse_request(line)).map_err(|e| e.message)?;
    let Request::Design { source, spec, settings } = req.body else {
        return Err("menu holds only design requests".into());
    };
    let circuit = match &source {
        Source::Benchmark(name) => t
            .span("serve.benchmarks_build", || qpd_benchmarks::build(name))
            .map_err(|e| e.to_string())?,
        Source::Qasm(text) => t
            .span("circuit.qasm_parse", || qpd_circuit::qasm::parse(text))
            .map_err(|e| e.to_string())?,
    };
    let ckey = t.span("explore.circuit_key", || circuit_key(&circuit));
    let engine = r.engines.get(&settings_key(ckey, &settings)).ok_or("no reference engine")?;
    let spec = resolve_spec(engine, spec.as_ref())?;
    let evaluated =
        t.span("explore.evaluate_warm", || engine.evaluate(&spec)).map_err(|e| e.to_string())?;
    let rendered = t.span("serve.render", || protocol::ok_line(&req.id, evaluated.to_json()));
    Ok(rendered.trim_end().to_string())
}

pub fn run(
    opts: &Opts,
    out: &mut Outcome,
    m: &mut Metrics,
    tracer: Option<&Tracer>,
) -> Result<DaemonNoise, String> {
    let menu = menu();
    let chunk_blocks =
        ((opts.seconds * RATE / (2 * BLOCK * CHUNKS) as f64).round() as usize).max(1);
    let blocks = chunk_blocks * CHUNKS;
    let orders = [sequence(&menu, opts.seed, 0, blocks), sequence(&menu, opts.seed, 1, blocks)];
    let order: Vec<usize> = orders.concat();

    // Each daemon is booted and warmed (one setup sample), then serves
    // its share of the chunks; peak RSS is the median over daemons.
    let len = chunk_blocks * BLOCK;
    let share = CHUNKS / DAEMONS * len;
    let (mut setups, mut rss, mut conns) = (Vec::new(), Vec::new(), [Vec::new(), Vec::new()]);
    let mut record = DaemonNoise { daemons: DAEMONS, ..DaemonNoise::default() };
    let mut deltas: BTreeMap<String, [u64; 3]> = BTreeMap::new();
    for d in 0..DAEMONS {
        let (daemon, dt) = boot_and_warm(opts, &menu)?;
        setups.push(dt);
        let before = stage_counters(&daemon.stats()?);
        let part = d * share..(d + 1) * share;
        let base = (2 * d * share) as u64;
        let got =
            drive(&daemon.addr, &menu, [&orders[0][part.clone()], &orders[1][part]], base, tracer)?;
        for (stage, after) in stage_counters(&daemon.stats()?) {
            let b = before.get(&stage).copied().unwrap_or_default();
            let acc = deltas.entry(stage).or_default();
            for i in 0..3 {
                acc[i] += after[i] - b[i];
            }
        }
        let pid = daemon.pid();
        rss.push(host::peak_rss_mb(&pid).unwrap_or(0.0));
        record.cpu_s += host::cpu_seconds(&pid).unwrap_or(0.0);
        record.involuntary_switches += host::involuntary_switches(&pid).unwrap_or(0);
        daemon.shutdown()?;
        let mut got = got.into_iter();
        conns[0].extend(got.by_ref().take(share));
        conns[1].extend(got);
    }
    m.set("setup_s", median(&setups), "s");
    m.set("peak_rss_mb", median(&rss), "MB");
    let [conn0, conn1] = conns;
    let chunks: Vec<(f64, f64, f64)> = (0..CHUNKS)
        .map(|c| chunk_stats([&conn0[c * len..(c + 1) * len], &conn1[c * len..(c + 1) * len]]))
        .collect();
    let pick = |f: fn(&(f64, f64, f64)) -> f64| median(&chunks.iter().map(f).collect::<Vec<_>>());
    let (_, pct, n) = tail(&vec![0.0; 2 * len]);
    eprintln!(
        "qpdbench: {WORKLOAD}: {} requests in {CHUNKS} chunks of {n}; latency tail = p{pct:.2} \
         of each chunk's {n} samples (10 beyond), median over chunks",
        order.len()
    );
    m.set("throughput_per_s", pick(|c| c.0), "1/s");
    m.set("latency_p50_ms", pick(|c| c.1), "ms");
    m.set("latency_tail_ms", pick(|c| c.2), "ms");

    let responses: Vec<Exchanged> = conn0.into_iter().chain(conn1).collect();
    let reference = reference(&menu)?;
    let golden = Golden::load();
    // Per menu entry: how often it was sent and the first response.
    let mut seen: BTreeMap<usize, (usize, &str)> = BTreeMap::new();
    for (&idx, Exchanged { response, .. }) in order.iter().zip(&responses) {
        let error = (*response != reference.expected[idx])
            .then(|| format!("menu entry {idx} answered {response:.120}"));
        seen.entry(idx).or_insert((0, response)).0 += 1;
        out.record(error);
    }
    for (&idx, &(count, response)) in &seen {
        let id = menu.lines[idx].split('"').nth(3).unwrap_or("?");
        if let Some(e) = golden.check(WORKLOAD, None, id, &digest(response.as_bytes())) {
            out.problem(e);
        }
        println!("sent {WORKLOAD} {id} x{count}");
    }

    let misses: u64 = deltas.values().map(|v| v[1]).sum();
    if misses != 0 {
        out.problem(format!("{misses} stage misses after the warm pass"));
    }
    if let Some(t) = tracer {
        m.set("serve.stage_misses_after_warmup", misses as f64, "count");
        for kind in StageKind::ALL {
            let stage = kind.name();
            let d = |i: usize| deltas.get(stage).map_or(0, |v| v[i]) as f64;
            m.set(format!("stage.{stage}.hit_ratio"), hit_ratio(d(0), d(0) + d(1)), "ratio");
            m.set(format!("stage.{stage}.unique_misses"), d(2), "count");
        }
        traced_metrics(t, &menu, &order, &responses, &reference, out, m);
    }
    Ok(record)
}

/// Replays the first `MAX_REPLAY` requests in-process and derives the
/// per-layer serve metrics.
fn traced_metrics(
    t: &Tracer,
    menu: &Menu,
    order: &[usize],
    responses: &[Exchanged],
    reference: &Reference,
    out: &mut Outcome,
    m: &mut Metrics,
) {
    let mut transport = Vec::new();
    for (pos, (&idx, r)) in order.iter().zip(responses).take(MAX_REPLAY).enumerate() {
        let qasm = menu.qasm.contains(&idx);
        let t0 = Instant::now();
        let replayed = t.op("serve.replay", (order.len() + pos) as u64 + 1, || {
            replay_one(t, reference, &menu.lines[idx], qasm)
        });
        let service = t0.elapsed().as_secs_f64();
        transport.push((r.rtt - service) * 1e6);
        match replayed {
            Ok(line) if line == r.response => {}
            Ok(_) => out.problem(format!("replay of request {pos} is not byte-equal")),
            Err(e) => out.problem(format!("replay of request {pos}: {e}")),
        }
    }
    for (span, metric) in [
        ("serve.parse_request.named", "serve.parse_request.named.self_us"),
        ("serve.parse_request.qasm", "serve.parse_request.qasm.self_us"),
        ("circuit.qasm_parse", "circuit.qasm_parse.self_us"),
        ("serve.benchmarks_build", "serve.benchmarks_build.self_us"),
        ("explore.circuit_key", "explore.circuit_key.self_us"),
        ("explore.evaluate_warm", "explore.evaluate_warm.self_us"),
        ("serve.render", "serve.render.self_us"),
    ] {
        let us: Vec<f64> = t.self_times(span).iter().map(|&ns| ns as f64 / 1e3).collect();
        m.set(metric, median(&us), "us");
    }
    for (span, metric) in [
        ("serve.roundtrip.named", "serve.roundtrip.named.p50_ms"),
        ("serve.roundtrip.qasm", "serve.roundtrip.qasm.p50_ms"),
    ] {
        let ms: Vec<f64> = t.self_times(span).iter().map(|&ns| ns as f64 / 1e6).collect();
        m.set(metric, median(&ms), "ms");
    }
    m.set("serve.transport_us", median(&transport), "us");
    // Client-side tracing cost: round trips timed around the span minus
    // the spans' own durations.
    let agg = t.aggregate();
    let spanned: u64 = ["serve.roundtrip.named", "serve.roundtrip.qasm"]
        .iter()
        .filter_map(|n| agg.get(n).map(|a| a.total_ns))
        .sum();
    let rtt: f64 = responses.iter().map(|r| r.rtt).sum();
    let overhead_ms = rtt * 1e3 - spanned as f64 / 1e6;
    m.set("trace.overhead_ms", overhead_ms, "ms");
    m.set("trace.overhead_pct", 100.0 * overhead_ms / (rtt * 1e3), "%");
}
