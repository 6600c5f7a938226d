//! Per-layer measurements of the traced run: timed calls from the
//! benchmark into the public functions of each crate, on objects built
//! exactly as the served deployment builds them.

use std::time::{Duration, Instant};

use prime_analyze::{analyze, analyze_program, lower_program, Target};
use prime_compiler::{map_network, HwTarget, Objective};
use prime_core::{
    search_mapping, BankController, CandidateVerdict, CommandRunner, ConvPhases, FfMat,
    InferScratch, MappingCostModel, PrimeSystem,
};
use prime_device::{PairScratch, PairedCrossbar};
use prime_mem::Command;
use prime_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, frame, split_frame,
};
use prime_serve::{Request, Response, MAX_FRAME_BYTES};
use prime_sim::SimCostModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::{median, Tracer};
use crate::workloads::{
    bits, Pool, SplitMix, Workload, BUFFER_WORDS, FF_SUBARRAYS, MATS_PER_SUBARRAY, NOISE,
};
use crate::Metrics;

/// Wall-clock budget of one sampled measurement.
const BUDGET: Duration = Duration::from_millis(400);
/// Input bits a crossbar tile is driven with (PRIME's 3-bit drivers).
const INPUT_BITS: u8 = 3;

/// Calls `f` at least `min` times and until `BUDGET` is spent (at most
/// `max` times), recording one span per call; returns each call's
/// nanoseconds.
fn sample(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<usize>,
    min: usize,
    max: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let begin = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < min || (ns.len() < max && begin.elapsed() < BUDGET) {
        let (result, took) = tracer.time(name, parent, &mut f);
        result?;
        ns.push(took.as_nanos() as f64);
    }
    Ok(ns)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The analysis target `PrimeSystem` derives for this geometry.
fn analysis_target(banks: usize) -> Target {
    let mat = FfMat::new();
    let scheme = mat.scheme();
    Target {
        hw: HwTarget {
            mat_rows: mat.max_rows(),
            mat_cols: mat.max_cols(),
            mats_per_ff_subarray: MATS_PER_SUBARRAY,
            ff_subarrays_per_bank: FF_SUBARRAYS,
            banks,
        },
        scheme,
        buffer_words: BUFFER_WORDS,
        cell_bits: scheme.weight_half_bits(),
        input_signal_bits: scheme.input_half_bits(),
        phys_mat_cols: 2 * mat.max_cols(),
        tile_ref_bits: 16,
    }
}

/// Mapping-side layers: search (prime-core), mapping (prime-compiler),
/// Pass 1 and Pass 3 (prime-analyze), the simulated cost
/// (prime-sim), and the deploy the reference system already made.
pub fn setup_layers(
    w: &Workload,
    reference: &PrimeSystem,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let parent = tracer.open("layer.setup", None);
    let spec = w.net.to_spec(w.model).map_err(|e| e.to_string())?;
    let target = analysis_target(w.banks);

    let (search, took) = tracer.time("core.search_mapping", parent, || {
        search_mapping(&spec, &target, Objective::Latency, &SimCostModel)
    });
    m.set("core.search_ms", ms(took));
    m.set("core.candidates", search.candidates.len() as f64);
    let pruned = search
        .candidates
        .iter()
        .filter(|c| matches!(c.verdict, CandidateVerdict::Pruned { .. }));
    m.set("core.pruned", pruned.count() as f64);
    let chosen = search.chosen().ok_or("mapping search chose nothing")?;
    let deployed = reference
        .deploy_stats()
        .ok_or("reference system is not deployed")?;
    if deployed.search.as_ref() != Some(&search) {
        problems.push("benchmark-side mapping search differs from the deployed one".to_string());
    }
    m.set("core.deploy_ms", deployed.wall_ms);
    m.set("core.resident_mb", deployed.resident_bytes as f64 / 1e6);

    let (mapping, took) = tracer.time("compiler.map_network", parent, || {
        map_network(&spec, &target.hw, chosen.options)
    });
    let mapping = mapping.map_err(|e| e.to_string())?;
    m.set("compiler.map_ms", ms(took));
    let (diags, took) = tracer.time("analyze.analyze", parent, || {
        analyze(&spec, &target, &mapping)
    });
    m.set("analyze.pass1_ms", ms(took));
    let (pass3, took) = tracer.time("analyze.lower_and_analyze_program", parent, || {
        lower_program(&spec, &target, &mapping)
            .map(|plan| analyze_program(&spec, &target, &mapping, &plan))
    });
    m.set("analyze.pass3_ms", ms(took));
    let errors = diags
        .iter()
        .chain(pass3.as_deref().unwrap_or(&[]))
        .filter(|d| d.severity == prime_analyze::Severity::Error);
    if errors.count() > 0 || pass3.is_err() {
        problems.push("the deployed mapping fails static verification".to_string());
    }

    let (cost, took) = tracer.time("sim.score", parent, || {
        SimCostModel.score(&spec, &target.hw, &mapping)
    });
    let again = SimCostModel.score(&spec, &target.hw, &mapping);
    if cost != again {
        problems.push("simulated cost does not repeat".to_string());
    }
    m.set("sim.image_ns", cost.image_ns);
    m.set("sim.interval_ns", cost.interval_ns);
    m.set("sim.energy_pj", cost.energy_pj);
    m.set("sim.host_us", took.as_secs_f64() * 1e6);
    tracer.close(parent);
    Ok(problems)
}

/// Inference-side layers: whole inferences on the reference system
/// (prime-core), per-layer and conv-phase timings and command-log growth
/// on one compiled runner, and one crossbar tile (prime-device).
pub fn compute_layers(
    w: &Workload,
    pool: &Pool,
    reference: &mut PrimeSystem,
    rng: &mut SplitMix,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let parent = tracer.open("layer.compute", None);
    let inputs = &pool.inputs;

    let mut i = 0;
    let single = sample(tracer, "core.infer_batch", parent, 20, 2000, || {
        i += 1;
        let one = std::slice::from_ref(&inputs[i % inputs.len()]);
        reference
            .infer_batch(one)
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let infer_us = median(&single) / 1e3;
    m.set("core.infer_us", infer_us);
    let batch8 = sample(tracer, "core.infer_batch8", parent, 5, 500, || {
        i += 8;
        let at = i % (inputs.len() - 8);
        reference
            .infer_batch(&inputs[at..at + 8])
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    m.set("core.batch8_us", median(&batch8) / 8e3);
    let mut seeds = rng.fork(3);
    let noisy = sample(tracer, "core.infer_batch_noisy", parent, 3, 500, || {
        i += 1;
        let one = std::slice::from_ref(&inputs[i % inputs.len()]);
        reference
            .infer_batch_noisy(one, &NOISE, seeds.next_u64())
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    m.set("core.noisy_us", median(&noisy) / 1e3);
    let mac_ops = w.net.to_spec(w.model).map_err(|e| e.to_string())?.mac_ops();
    m.set("device.ns_per_mac", infer_us * 1e3 / mac_ops as f64);

    // One copy compiled onto a bank of the served geometry, driven
    // through the runner's per-layer stopwatch.
    let mut bank = BankController::new(FF_SUBARRAYS, MATS_PER_SUBARRAY, BUFFER_WORDS, 4096);
    let runner = CommandRunner::compile(&w.net, &mut bank, &w.calibration())
        .map_err(|e| format!("runner compile: {e}"))?;
    let labels = runner.layer_labels();
    let (mut scratch, mut out, mut layer_ns) = (InferScratch::new(), Vec::new(), Vec::new());
    let mut phases = ConvPhases::default();
    let mut per_layer: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    let mut per_phase: [Vec<f64>; 4] = Default::default();
    let reference_out = reference.infer_batch(inputs).map_err(|e| e.to_string())?;
    let log_before = bank.log().len();
    let mut runs = 0usize;
    sample(tracer, "core.infer_profiled_into", parent, 20, 2000, || {
        let k = runs % inputs.len();
        runner
            .infer_profiled_into(
                &mut bank,
                &inputs[k],
                &mut scratch,
                &mut out,
                &mut layer_ns,
                &mut phases,
            )
            .map_err(|e| e.to_string())?;
        if bits(&out) != bits(&reference_out[k]) {
            problems.push(format!(
                "runner output for input {k} differs from the reference"
            ));
        }
        for (acc, ns) in per_layer.iter_mut().zip(&layer_ns) {
            acc.push(*ns);
        }
        for (acc, ns) in per_phase.iter_mut().zip([
            phases.stage_ns,
            phases.gather_ns,
            phases.eval_ns,
            phases.emit_ns,
        ]) {
            acc.push(ns);
        }
        runs += 1;
        Ok(())
    })?;
    let cmds = (bank.log().len() - log_before) as f64 / runs as f64;
    m.set("core.cmds_per_inf", cmds);
    m.set(
        "core.cmd_log_bytes_per_inf",
        cmds * std::mem::size_of::<Command>() as f64,
    );
    for (index, (label, ns)) in labels.iter().zip(&per_layer).enumerate() {
        let kind = label
            .split(|c: char| !c.is_ascii_alphabetic())
            .next()
            .unwrap_or("");
        let kind = match kind {
            "maxpool" | "meanpool" => "pool",
            other => other,
        };
        m.set(&format!("core.layer{index}.{kind}_us"), median(ns) / 1e3);
    }
    for (name, ns) in ["stage_us", "gather_us", "evaluate_us", "emit_us"]
        .iter()
        .zip(&per_phase)
    {
        m.set(&format!("core.conv.{name}"), median(ns) / 1e3);
    }

    // One full 256-row tile with seeded weights and inputs.
    let mut tile = PairedCrossbar::mat();
    let max = i64::from(tile.positive().spec().max_level());
    let weights: Vec<i32> = (0..tile.rows() * tile.cols())
        .map(|_| (rng.below((2 * max + 1) as usize) as i64 - max) as i32)
        .collect();
    tile.program_signed_matrix(&weights)
        .map_err(|e| e.to_string())?;
    let codes: Vec<u16> = (0..tile.rows())
        .map(|_| rng.below(1 << INPUT_BITS) as u16)
        .collect();
    let (mut pair, mut dot) = (PairScratch::new(), Vec::new());
    const DOTS: usize = 16;
    let digital = sample(tracer, "device.dot_signed_into", parent, 20, 5000, || {
        for _ in 0..DOTS {
            tile.dot_signed_into(std::hint::black_box(&codes), &mut pair, &mut dot)
                .map_err(|e| e.to_string())?;
        }
        std::hint::black_box(&dot);
        Ok(())
    })?;
    m.set("device.tile_dot_ns", median(&digital) / DOTS as f64);
    let mut noise_rng = SmallRng::seed_from_u64(rng.next_u64());
    let analog = sample(
        tracer,
        "device.dot_signed_analog_into",
        parent,
        20,
        5000,
        || {
            tile.dot_signed_analog_into(
                &codes,
                INPUT_BITS,
                &NOISE,
                &mut noise_rng,
                &mut pair,
                &mut dot,
            )
            .map_err(|e| e.to_string())?;
            std::hint::black_box(&dot);
            Ok(())
        },
    )?;
    m.set("device.tile_dot_noisy_ns", median(&analog));
    tracer.close(parent);
    Ok(problems)
}

/// Wire-codec cost and frame sizes of one pool request and its response
/// (prime-serve).
pub fn wire_layer(
    w: &Workload,
    pool: &Pool,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let parent = tracer.open("layer.wire", None);
    let t = pool.digital()[0];
    let request = Request {
        id: 1,
        model: w.model.to_string(),
        mode: pool.templates[t].mode,
        input: pool.inputs[pool.templates[t].input].clone(),
    };
    let values: Vec<f32> = pool.expected[t]
        .iter()
        .map(|b| f32::from_bits(*b))
        .collect();
    let response = Response::Output { id: 1, values };
    let (mut request_bytes, mut response_bytes) = (0, 0);
    let roundtrip = sample(tracer, "serve.wire_roundtrip", parent, 50, 20000, || {
        let req = frame(&encode_request(&request).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let (payload, _) = split_frame(&req, MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())?
            .ok_or("short frame")?;
        std::hint::black_box(decode_request(payload).map_err(|e| e.to_string())?);
        let resp = frame(&encode_response(&response).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let (payload, _) = split_frame(&resp, MAX_FRAME_BYTES)
            .map_err(|e| e.to_string())?
            .ok_or("short frame")?;
        std::hint::black_box(decode_response(payload).map_err(|e| e.to_string())?);
        request_bytes = req.len();
        response_bytes = resp.len();
        Ok(())
    })?;
    m.set("serve.wire_us", median(&roundtrip) / 1e3);
    m.set("serve.request_bytes", request_bytes as f64);
    m.set("serve.response_bytes", response_bytes as f64);
    tracer.close(parent);
    Ok(())
}
