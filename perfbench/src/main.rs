//! End-to-end and per-layer benchmark of the PRIME serving stack.
//!
//! One process self-hosts a loopback `prime_serve::Server` for one
//! workload, drives it through a light and a heavy open-loop phase and a
//! closed-loop phase, checks every served output bit for bit against an
//! identically deployed in-process `PrimeSystem`, and prints one JSON
//! result line. With `--trace 1` it also times the calls into each
//! crate's public functions and reports those per-layer numbers instead.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cnn1 --seed 1 --seconds 45 --trace 0
//! ```
//!
//! See `perfbench/BENCHMARK.md` for the workloads, metrics and how the
//! layers relate to the end-to-end numbers.

mod layers;
mod load;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

use load::{closed_loop, idle_round_trips, open_loop, Tally};
use trace::{median, percentile, Tracer};
use workloads::{Pool, SplitMix, Workload};

/// Untraced runs time extra registrations before every round (at least
/// `SETUP_MIN_REPS` per round, `SETUP_BUDGET_S` seconds in all), so
/// `setup_s`, their median, samples the whole run.
const SETUP_MIN_REPS: usize = 2;
const SETUP_BUDGET_S: f64 = 2.0;
/// Closed-loop client connections (the host has two cores).
const CLIENTS: usize = 2;
/// Closed-loop warm-up before the first measured phase.
const WARMUP_S: f64 = 0.5;
/// Rounds of (light, heavy, closed) phases a run is split into.
const ROUNDS: usize = 9;
/// Shares of each round given to the light, heavy and closed phases.
const LIGHT_SHARE: f64 = 0.4;
const HEAVY_SHARE: f64 = 0.35;
const CLOSED_SHARE: f64 = 0.25;
/// Idle-server round trips behind `serve.overhead_us`.
const IDLE_TRIPS: usize = 200;

/// End-to-end metrics: (name, unit), reported by untraced runs.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("light.p50_ms", "ms"),
    ("light.p95_ms", "ms"),
    ("heavy.p50_ms", "ms"),
    ("heavy.p95_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: (name, unit), reported by traced runs. A metric
/// whose layer does not exist in a workload (conv on an FC-only model)
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("device.tile_dot_ns", "ns"),
    ("device.tile_dot_noisy_ns", "ns"),
    ("device.ns_per_mac", "ns"),
    ("core.infer_us", "us"),
    ("core.batch8_us", "us"),
    ("core.noisy_us", "us"),
    ("core.layer0.fc_us", "us"),
    ("core.layer0.conv_us", "us"),
    ("core.layer1.fc_us", "us"),
    ("core.layer1.pool_us", "us"),
    ("core.layer2.fc_us", "us"),
    ("core.layer3.fc_us", "us"),
    ("core.conv.stage_us", "us"),
    ("core.conv.gather_us", "us"),
    ("core.conv.evaluate_us", "us"),
    ("core.conv.emit_us", "us"),
    ("core.cmds_per_inf", "count"),
    ("core.cmd_log_bytes_per_inf", "B"),
    ("core.deploy_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.candidates", "count"),
    ("core.pruned", "count"),
    ("core.resident_mb", "MB"),
    ("compiler.map_ms", "ms"),
    ("analyze.pass1_ms", "ms"),
    ("analyze.pass3_ms", "ms"),
    ("sim.image_ns", "ns"),
    ("sim.interval_ns", "ns"),
    ("sim.energy_pj", "pJ"),
    ("sim.host_us", "us"),
    ("serve.idle_rtt_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.request_bytes", "B"),
    ("serve.response_bytes", "B"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("bench.light.gen_lag_p95_ms", "ms"),
    ("bench.heavy.gen_lag_p95_ms", "ms"),
    ("bench.failed_share", "ratio"),
    ("bench.trace_overhead", "1/s"),
];

/// Named measurements of one run, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 45.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Everything the final JSON line reports.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(o) => {
            let mut metrics = String::new();
            for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    metrics,
                    "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                );
            }
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
                o.correct, o.attempted, o.failed
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::by_name(&args.workload).ok_or(format!(
        "unknown workload `{}` (mlp-m, cnn1, head-mix)",
        args.workload
    ))?;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "run: workload={} seed={} seconds={} trace={} host_cpu_cores={cores} commit={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    );
    let mut rng = SplitMix::new(args.seed);
    let mut tracer = Tracer::new(Instant::now(), args.trace);

    let start = Instant::now();
    let (server, first) = w.serve()?;
    tracer.record("serve.setup", start, Instant::now(), None, None);
    let mut setup = vec![first];
    let mut reference = w.reference_system()?;
    let pool = Pool::build(&w, &mut reference, &mut rng.fork(1))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let stop = server.shutdown_handle().map_err(|e| e.to_string())?;

    let mut m = Metrics::default();
    let mut problems = Vec::new();
    let (phases, stats) = std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        let phases = drive(
            args,
            &w,
            &pool,
            addr,
            &mut rng,
            &mut tracer,
            &mut m,
            &mut setup,
        );
        stop.shutdown();
        let stats = serving.join().expect("server thread panicked");
        (phases, stats)
    });
    let tally = phases?;
    let stats = stats.map_err(|e| e.to_string())?;
    let model = stats.models.first().ok_or("server reported no model")?;
    if model.served != tally.ok + tally.mismatched
        || model.shed != tally.shed
        || model.failed != tally.errors
    {
        problems.push(format!(
            "server counters {model:?} disagree with the clients' {tally:?}"
        ));
    }
    println!(
        "setup: {} registrations, p5 {:.6} p50 {:.6} p95 {:.6} s",
        setup.len(),
        percentile(&setup, 0.05),
        median(&setup),
        percentile(&setup, 0.95)
    );
    m.set("setup_s", median(&setup));
    m.set("ok_share", tally.ok as f64 / tally.sent.max(1) as f64);
    m.set(
        "bench.failed_share",
        tally.failed() as f64 / tally.sent.max(1) as f64,
    );
    m.set(
        "serve.batch_mean",
        model.served as f64 / model.batches.max(1) as f64,
    );
    m.set("serve.shed", model.shed as f64);
    m.set("serve.failed", model.failed as f64);

    if args.trace {
        problems.extend(layers::setup_layers(&w, &reference, &mut tracer, &mut m)?);
        problems.extend(layers::compute_layers(
            &w,
            &pool,
            &mut reference,
            &mut rng,
            &mut tracer,
            &mut m,
        )?);
        layers::wire_layer(&w, &pool, &mut tracer, &mut m)?;
        let overhead =
            m.get("serve.idle_rtt_us").unwrap_or(0.0) - m.get("core.infer_us").unwrap_or(0.0);
        m.set("serve.overhead_us", overhead);
        let path = trace_path(&w, args.seed);
        tracer
            .write_json(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "trace: {} spans written to {}",
            tracer.len(),
            path.display()
        );
    }
    m.set("peak_rss_mb", peak_rss_mb()?);
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match m.get(name) {
            Some(v) => v,
            // The workload has no such layer (conv phases of an FC model).
            None if args.trace
                && (name.starts_with("core.layer") || name.starts_with("core.conv.")) =>
            {
                0.0
            }
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("metric {name} = {value} {unit}");
        metrics.push((name, value, unit));
    }
    for (name, _) in &m.0 {
        if args.trace
            && !PER_LAYER.iter().any(|(n, _)| n == name)
            && !END_TO_END.iter().any(|(n, _)| n == name)
        {
            return Err(format!("measured {name} is not a declared metric"));
        }
    }
    Ok(Outcome {
        metrics,
        attempted: tally.sent,
        failed: tally.failed(),
        correct: tally.failed() == 0 && problems.is_empty(),
    })
}

/// Runs the warm-up and then `ROUNDS` rounds of the light, heavy and
/// closed phases (and, traced, the idle round trips) against the server.
/// Each phase metric is the median over rounds, so a disturbance that
/// hits one stretch of the run moves one round, not the metric.
#[allow(clippy::too_many_arguments)]
fn drive(
    args: &Args,
    w: &Workload,
    pool: &Pool,
    addr: SocketAddr,
    rng: &mut SplitMix,
    tracer: &mut Tracer,
    m: &mut Metrics,
    setup: &mut Vec<f64>,
) -> Result<Tally, String> {
    let per_round = args.seconds / ROUNDS as f64;
    let mut tally = Tally::default();
    let mut off = Tracer::new(tracer.epoch(), false);
    let warm = closed_loop(
        addr,
        w.model,
        pool,
        CLIENTS,
        WARMUP_S,
        &mut rng.fork(2),
        &mut off,
        None,
    )?;
    tally.add(&warm.tally);

    let mut open = [OpenRounds::default(), OpenRounds::default()];
    let (mut capacity, mut traced_capacity) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        if !args.trace {
            time_setups(w, SETUP_BUDGET_S / ROUNDS as f64, SETUP_MIN_REPS, setup)?;
        }
        for (rounds, (name, rate, share)) in open.iter_mut().zip([
            ("phase.light", w.light_rps, LIGHT_SHARE),
            ("phase.heavy", w.heavy_rps, HEAVY_SHARE),
        ]) {
            let span = tracer.open(name, None);
            let r = open_loop(
                addr,
                w.model,
                pool,
                rate,
                per_round * share,
                &mut rng.fork(4),
                tracer,
                span,
            )?;
            tracer.close(span);
            tally.add(&r.tally);
            rounds.p50.push(percentile(&r.latency_ms, 0.5));
            rounds.p95.push(percentile(&r.latency_ms, 0.95));
            println!(
                "round {round} {name}: {rate}/s, {} answered, p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
                r.latency_ms.len(),
                percentile(&r.latency_ms, 0.5),
                percentile(&r.latency_ms, 0.95),
                percentile(&r.latency_ms, 1.0)
            );
            rounds.samples += r.latency_ms.len();
            rounds.lag_ms.extend(r.lag_ms);
        }
        // Traced runs alternate untraced and traced closed phases; the
        // difference of their medians is the tracing overhead.
        let traced = args.trace && round % 2 == 1;
        let span = if traced {
            tracer.open("phase.closed", None)
        } else {
            None
        };
        let closed_tracer = if traced { &mut *tracer } else { &mut off };
        let closed = closed_loop(
            addr,
            w.model,
            pool,
            CLIENTS,
            per_round * CLOSED_SHARE,
            &mut rng.fork(5),
            closed_tracer,
            span,
        )?;
        tracer.close(span);
        tally.add(&closed.tally);
        if traced {
            &mut traced_capacity
        } else {
            &mut capacity
        }
        .push(closed.capacity_rps());
    }

    for (phase, rounds) in ["light", "heavy"].into_iter().zip(&open) {
        let (p50, p95, lag) = (
            median(&rounds.p50),
            median(&rounds.p95),
            percentile(&rounds.lag_ms, 0.95),
        );
        println!(
            "phase {phase}: {ROUNDS} rounds, {} answered, median p50 {p50:.3} ms, median p95 {p95:.3} ms, \
             gen lag p95 {lag:.3} ms",
            rounds.samples
        );
        m.set(&format!("{phase}.p50_ms"), p50);
        m.set(&format!("{phase}.p95_ms"), p95);
        m.set(&format!("bench.{phase}.gen_lag_p95_ms"), lag);
    }
    println!(
        "phase closed: {CLIENTS} connections, median {:.1} correct/s over {} rounds",
        median(&capacity),
        capacity.len()
    );
    m.set("capacity_rps", median(&capacity));
    if args.trace {
        m.set(
            "bench.trace_overhead",
            median(&traced_capacity) - median(&capacity),
        );
        let span = tracer.open("phase.idle", None);
        let (idle, t) = idle_round_trips(addr, w.model, pool, IDLE_TRIPS, tracer, span)?;
        tracer.close(span);
        tally.add(&t);
        m.set("serve.idle_rtt_us", median(&idle));
    }
    Ok(tally)
}

/// Times registrations of `w` (each dropped right away) for `budget`
/// seconds and at least `min` times, appending their set-up seconds.
fn time_setups(w: &Workload, budget: f64, min: usize, setup: &mut Vec<f64>) -> Result<(), String> {
    let begin = Instant::now();
    for rep in 0.. {
        if rep >= min && begin.elapsed().as_secs_f64() >= budget {
            break;
        }
        let (server, secs) = w.serve()?;
        drop(server);
        setup.push(secs);
    }
    Ok(())
}

/// Per-round results of one open-loop phase.
#[derive(Default)]
struct OpenRounds {
    p50: Vec<f64>,
    p95: Vec<f64>,
    lag_ms: Vec<f64>,
    samples: usize,
}

/// Where a traced run writes its spans: under the build directory, so
/// the output stays inside the checkout and out of version control.
fn trace_path(w: &Workload, seed: u64) -> PathBuf {
    let root =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    root.join("perfbench")
        .join(format!("spans-{}-{seed}.json", w.name))
}

/// The peak resident set of this process (`VmHWM`), in MB (10^6 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or(format!("unparsable {line}"))?;
    Ok(kb * 1024.0 / 1e6)
}

/// The commit being measured: read from `.git` when the benchmark runs
/// in a git checkout, `unknown` otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}
