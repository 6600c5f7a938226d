//! Golden fixtures for the Pass-3 program abstract interpreter: each
//! deliberately corrupted plan must trip its pinned `P0xx` code, the
//! statically lowered plans of the paper's workloads must be clean, and
//! (by property) any deployment Pass 3 lets through must run inference —
//! plain and seeded-noise — without an internal runtime error, under
//! both mapping strategies. The plan the runner compiles is pinned equal
//! to the static lowering, and deploy failures are pinned to leave the
//! system either untouched (rejected before programming) or undeployed.

use proptest::prelude::*;

use prime::analyze::{
    analyze_program, check_stage_tiles, lower_program, Code, ProgramPlan, ProgramTile, Severity,
    Target,
};
use prime::compiler::{map_network, CompileOptions, MappingStrategy, NetworkMapping};
use prime::core::{BankController, CommandRunner, PrimeError, PrimeSystem};
use prime::device::NoiseModel;
use prime::nn::{
    Activation, Conv2d, FullyConnected, Layer, MlBench, Network, NetworkSpec, Pool2d,
    PoolKind,
};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `PrimeSystem::deploy` maps without replication.
fn options(strategy: MappingStrategy) -> CompileOptions {
    CompileOptions { replicate: false, ..CompileOptions::fixed(strategy) }
}

/// A workload, its mapping, and its legal statically lowered plan — the
/// base every corruption fixture starts from.
fn lowered(bench: MlBench) -> (NetworkSpec, Target, NetworkMapping, ProgramPlan) {
    let target = Target::prime_default();
    let spec = bench.spec();
    let mapping = map_network(&spec, &target.hw, options(MappingStrategy::ReplicateDense))
        .expect("workload maps");
    let plan = lower_program(&spec, &target, &mapping).expect("workload lowers");
    (spec, target, mapping, plan)
}

fn codes_of(diags: &[prime::analyze::Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn lowered_workload_plans_are_clean() {
    for strategy in [MappingStrategy::ReplicateDense, MappingStrategy::SharedKernel] {
        for bench in MlBench::ALL {
            let target = Target::prime_default();
            let spec = bench.spec();
            let mapping =
                map_network(&spec, &target.hw, options(strategy)).expect("workload maps");
            let plan = lower_program(&spec, &target, &mapping).expect("workload lowers");
            let diags = analyze_program(&spec, &target, &mapping, &plan);
            assert!(
                diags.iter().all(|d| d.severity < Severity::Warning),
                "{} [{}]: {}",
                bench.name(),
                strategy.name(),
                prime::analyze::render_human(&diags)
            );
        }
    }
}

#[test]
fn shrunken_staging_region_is_rejected_with_p024() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Declare one word less than the op stages: the last staged word is
    // read before any write defines it.
    plan.layers[0].out_addr -= 1;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P024), "expected P024, got {codes:?}");
}

#[test]
fn buffer_spill_is_rejected_with_p025() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Slide the first staging window to the very end of the buffer,
    // keeping its declared size intact so P024 stays silent.
    let words = plan.layers[0].out_addr - plan.layers[0].in_addr;
    plan.layers[0].in_addr = plan.buffer_words as u64 - 1;
    plan.layers[0].out_addr = plan.layers[0].in_addr + words;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P025), "expected P025, got {codes:?}");
}

#[test]
fn overlapping_live_regions_are_rejected_with_p025() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Move layer 1's staging window onto layer 0's still-live region,
    // preserving its declared size.
    let words = plan.layers[1].out_addr - plan.layers[1].in_addr;
    plan.layers[1].in_addr = plan.layers[0].in_addr;
    plan.layers[1].out_addr = plan.layers[1].in_addr + words;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P025), "expected P025, got {codes:?}");
}

#[test]
fn ring_schedule_deviation_is_rejected_with_p026() {
    // CNN-1's conv is resident on the default target; a plan claiming a
    // different chunking than the conv_staging contract would key a
    // still-live halo row into an occupied ring slot.
    let (spec, target, mapping, mut plan) = lowered(MlBench::Cnn1);
    let conv = plan
        .layers
        .iter()
        .position(|l| matches!(l.op, prime::analyze::ProgramOp::Conv { resident: true, .. }))
        .expect("CNN-1 has a resident conv");
    if let prime::analyze::ProgramOp::Conv { ref mut chunk_pixels, .. } =
        plan.layers[conv].op
    {
        *chunk_pixels += 1;
    }
    // Keep the declared window in step with the inflated op so the P024
    // size check stays silent and the schedule check speaks alone.
    let required = plan.layers[conv].op.staging_words(plan.layers[conv].inputs) as u64;
    plan.layers[conv].out_addr = plan.layers[conv].in_addr + required;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P026), "expected P026, got {codes:?}");
}

#[test]
fn unprovable_merge_register_is_rejected_with_p027() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // A bias at the register limit pushes the merged interval past i64.
    plan.layers[0].bias_peak = i64::MAX;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P027), "expected P027, got {codes:?}");
}

#[test]
fn vacuous_precision_budget_is_flagged_with_p028() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // A 63-bit shift on a non-final ReLU layer discards every bit the
    // layer computes: the output interval provably collapses to {0}.
    plan.layers[0].relu = true;
    plan.layers[0].requant_shift = 63;
    let diags = analyze_program(&spec, &target, &mapping, &plan);
    let p028: Vec<_> = diags.iter().filter(|d| d.code == Code::P028).collect();
    assert!(!p028.is_empty(), "expected P028, got {:?}", codes_of(&diags));
    assert!(
        p028.iter().all(|d| d.severity == Severity::Warning),
        "P028 must be a warning"
    );
}

#[test]
fn write_armed_shared_tile_is_rejected_with_p029() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    plan.layers[0].tiles[0] = ProgramTile { aliased: true, write_armed: true };
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P029), "expected P029, got {codes:?}");
    // Aliased but compute-mapped (copy-on-write armed) is the legal
    // shared-kernel steady state — not a finding.
    plan.layers[0].tiles[0] = ProgramTile { aliased: true, write_armed: false };
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(!codes.contains(&Code::P029), "aliased read-only tile misflagged");
}

#[test]
fn creditless_recycle_edge_is_rejected_with_p030() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    // Split the single stage into a two-stage chain, then strip the
    // recycle credits: stage 0 blocks on recv before the final stage can
    // ever feed the recycle channel.
    let n = plan.layers.len();
    plan.stages = vec![
        prime::analyze::ProgramStage { bank: 0, layers: (0, 1) },
        prime::analyze::ProgramStage { bank: 1, layers: (1, n) },
    ];
    plan.recycle_credits = 0;
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P030), "expected P030, got {codes:?}");
}

#[test]
fn broken_stage_chain_is_rejected_with_p030() {
    let (spec, target, mapping, mut plan) = lowered(MlBench::MlpS);
    let n = plan.layers.len();
    // A duplicate bank gets no thread of its own; its channel never
    // drains.
    plan.stages = vec![
        prime::analyze::ProgramStage { bank: 0, layers: (0, 1) },
        prime::analyze::ProgramStage { bank: 0, layers: (1, n) },
    ];
    let codes = codes_of(&analyze_program(&spec, &target, &mapping, &plan));
    assert!(codes.contains(&Code::P030), "expected P030, got {codes:?}");
}

/// A small conv/pool/fc network exercising both planned-op families.
fn cnn_net(seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new(vec![
        Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
        Layer::Pool(Pool2d::new(PoolKind::Mean, 3, 4, 4, 2)),
        Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
    ])
    .expect("shapes chain");
    net.init_random(&mut rng);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pass 3 accepted ⇒ the runner executes without an internal error,
    /// on both the plain and the seeded-noise path, under both mapping
    /// strategies. Deployment refusals must be typed static rejections.
    #[test]
    fn accepted_programs_run_without_internal_errors(
        seed in any::<u64>(),
        strategy_bit in any::<bool>(),
    ) {
        let strategy = if strategy_bit {
            MappingStrategy::SharedKernel
        } else {
            MappingStrategy::ReplicateDense
        };
        let net = cnn_net(seed);
        let mut system = PrimeSystem::new(4, 2, 4, 2048);
        let calibration = [0.5f32; 64];
        match system.deploy_with(&net, &calibration, strategy) {
            Ok(()) => {
                let inputs: Vec<Vec<f32>> = (0..3)
                    .map(|b| (0..64).map(|i| ((b + i) % 9) as f32 / 9.0).collect())
                    .collect();
                let out = system.infer_batch(&inputs);
                prop_assert!(
                    !matches!(out, Err(PrimeError::Internal { .. })),
                    "accepted program hit an internal error: {out:?}"
                );
                let noise = NoiseModel { program_sigma: 0.0, read_sigma: 0.05 };
                let noisy = system.infer_batch_noisy(&inputs, &noise, 0xDEED ^ seed);
                prop_assert!(
                    !matches!(noisy, Err(PrimeError::Internal { .. })),
                    "accepted program hit an internal error under noise: {noisy:?}"
                );
            }
            Err(PrimeError::Rejected { diagnostics }) => {
                prop_assert!(!diagnostics.is_empty(), "rejection carries no diagnostics");
            }
            Err(PrimeError::MappingMismatch { .. }) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!("non-static deploy error: {other}")));
            }
        }
    }
}

/// The plan fields one shape-only lowering produces: everything except
/// the calibrated shifts, activations, bias peaks and live tile states,
/// which are reset so two plans compare on shape alone.
fn shape_of(plan: &ProgramPlan) -> ProgramPlan {
    let mut plan = plan.clone();
    for layer in &mut plan.layers {
        layer.requant_shift = 0;
        layer.relu = false;
        layer.bias_peak = 0;
        layer.tiles.fill(ProgramTile::default());
    }
    plan
}

/// Compiles `net` onto `banks` banks of the given geometry along the
/// compiler's stage list and checks the compiled plan against the static
/// lowering: equal on every shape field when every stage fits its bank,
/// a typed pre-programming refusal otherwise. Returns the stage count.
fn pin_runner_to_static_lowering(
    net: &Network,
    (banks, ff_subarrays, mats, buffer_words): (usize, usize, usize, usize),
    strategy: MappingStrategy,
) -> usize {
    let mut group: Vec<BankController> = (0..banks)
        .map(|_| BankController::new(ff_subarrays, mats, buffer_words, 4096))
        .collect();
    let target = group[0].analysis_target(banks);
    let spec = net.to_spec("pinned").expect("valid network");
    let Ok(mapping) = map_network(&spec, &target.hw, options(strategy)) else {
        return 0; // Does not fit the memory at all: nothing to compile.
    };
    let lowered = lower_program(&spec, &target, &mapping).expect("fc/conv/pool lowers");
    let calibration = vec![0.5f32; net.inputs()];
    let compiled =
        CommandRunner::compile_pipeline(net, &mut group, &mapping.pipeline, &calibration);
    if !check_stage_tiles(&lowered, target.hw.mats_per_bank()).is_empty() {
        assert!(
            matches!(compiled, Err(PrimeError::MappingMismatch { .. })),
            "a stage overflowing its bank must be refused: {compiled:?}"
        );
        return lowered.stages.len();
    }
    let runner = compiled.expect("every stage fits its bank");
    assert_eq!(
        shape_of(&runner.program_plan(&group)),
        shape_of(&lowered),
        "compiled plan and static lowering disagree"
    );
    lowered.stages.len()
}

#[test]
fn runner_plan_matches_static_lowering_for_a_512_input_fc() {
    // The compiler's estimate reserves a bias row (6/4/2 tiles); the
    // runner adds bias in the merge adder (4/2/1). Both plans now come
    // from the one lowering, so the tile counts agree with the runner.
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(512, 256, Activation::Relu)),
        Layer::Fc(FullyConnected::new(256, 256, Activation::Relu)),
        Layer::Fc(FullyConnected::new(256, 10, Activation::Identity)),
    ])
    .expect("shapes chain");
    net.init_random(&mut SmallRng::seed_from_u64(512));
    for strategy in [MappingStrategy::ReplicateDense, MappingStrategy::SharedKernel] {
        let stages = pin_runner_to_static_lowering(&net, (4, 1, 4, 4096), strategy);
        assert_eq!(stages, 3, "one stage per layer on 4-mat banks");
    }
    let target = BankController::new(1, 4, 4096, 4096).analysis_target(4);
    let spec = net.to_spec("fc512").expect("valid network");
    let mapping =
        map_network(&spec, &target.hw, options(MappingStrategy::ReplicateDense)).expect("maps");
    let plan = lower_program(&spec, &target, &mapping).expect("lowers");
    let tiles: Vec<usize> = plan.layers.iter().map(|l| l.tiles.len()).collect();
    assert_eq!(tiles, vec![4, 2, 1]);
}

/// A random FC width: often a whole number of 256-row mats, where a
/// reserved bias row would add a row tile, otherwise anything up to a
/// couple of mats.
fn fc_width(rng: &mut SmallRng) -> usize {
    if rng.gen_bool(0.3) {
        256 * rng.gen_range(1..3)
    } else {
        rng.gen_range(16..400)
    }
}

/// A random FC/conv/pool stack: an optional conv (optionally pooled),
/// then one to three FC layers with widths that span several mats.
fn random_stack(rng: &mut SmallRng) -> Network {
    let mut layers = Vec::new();
    let mut width = fc_width(rng);
    if rng.gen_bool(0.5) {
        let (in_ch, out_ch) = (rng.gen_range(1..3), rng.gen_range(2..8));
        let kernel = if rng.gen_bool(0.5) { 3 } else { 5 };
        let padding = rng.gen_range(0..2);
        let out = 2 * rng.gen_range(3..6);
        let edge = out + kernel - 1 - 2 * padding;
        layers.push(Layer::Conv(Conv2d::new(
            in_ch,
            out_ch,
            kernel,
            edge,
            edge,
            padding,
            Activation::Relu,
        )));
        width = out_ch * out * out;
        if rng.gen_bool(0.5) {
            let kind = if rng.gen_bool(0.5) { PoolKind::Max } else { PoolKind::Mean };
            layers.push(Layer::Pool(Pool2d::new(kind, out_ch, out, out, 2)));
            width /= 4;
        }
    }
    let fcs = rng.gen_range(1..4);
    for i in 0..fcs {
        let last = i + 1 == fcs;
        let outputs = if last { rng.gen_range(2..11) } else { fc_width(rng) };
        let act = if last { Activation::Identity } else { Activation::Relu };
        layers.push(Layer::Fc(FullyConnected::new(width, outputs, act)));
        width = outputs;
    }
    let mut net = Network::new(layers).expect("shapes chain");
    net.init_random(rng);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The runner compiles from the one lowering: on random FC/conv/pool
    /// stacks, both mapping strategies, and small banks that force
    /// multi-stage pipelines, the plan `compile_pipeline` builds equals
    /// `lower_program` on stage spans, ops, buffer addresses, tile counts,
    /// buffer size and credits.
    #[test]
    fn runner_plan_matches_static_lowering(
        seed in any::<u64>(),
        strategy_bit in any::<bool>(),
        mats in 3usize..6,
        ff_subarrays in 1usize..3,
        buffer_exp in 10u32..14,
    ) {
        let strategy = if strategy_bit {
            MappingStrategy::SharedKernel
        } else {
            MappingStrategy::ReplicateDense
        };
        let net = random_stack(&mut SmallRng::seed_from_u64(seed));
        pin_runner_to_static_lowering(&net, (12, ff_subarrays, mats, 1 << buffer_exp), strategy);
    }
}

/// FC 1024-256-10: 10 compiler mats for layer 0 (bias row included, so
/// it spans two 6- or 8-mat banks), 8 runner tiles.
fn wide_fc_net() -> Network {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(1024, 256, Activation::Relu)),
        Layer::Fc(FullyConnected::new(256, 10, Activation::Identity)),
    ])
    .expect("shapes chain");
    net.init_random(&mut SmallRng::seed_from_u64(1024));
    net
}

#[test]
fn stage_larger_than_its_bank_is_rejected_with_p004() {
    let net = wide_fc_net();
    let mut system = PrimeSystem::new(4, 1, 6, 4096);
    match system.deploy(&net, &[0.5; 1024]) {
        Err(PrimeError::Rejected { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.code == Code::P004),
                "expected P004, got {:?}",
                codes_of(&diagnostics)
            );
        }
        other => panic!("expected a P004 rejection, got {other:?}"),
    }
    assert_eq!(system.copies(), 0, "nothing was deployed");
    // On 8-mat banks the runner's 8 tiles fit one bank even though the
    // compiler's estimate (10) spans two.
    let mut system = PrimeSystem::new(4, 1, 8, 4096);
    system.deploy(&net, &[0.5; 1024]).expect("8 runner tiles fit an 8-mat bank");
    let out = system.infer_batch(&[vec![0.3; 1024]]).expect("deployed model runs");
    assert_eq!(out[0].len(), 10);
}

/// FC 64-32-10 and a batch of inputs for it.
fn small_fc_net() -> (Network, Vec<Vec<f32>>) {
    let mut net = Network::new(vec![
        Layer::Fc(FullyConnected::new(64, 32, Activation::Relu)),
        Layer::Fc(FullyConnected::new(32, 10, Activation::Identity)),
    ])
    .expect("shapes chain");
    net.init_random(&mut SmallRng::seed_from_u64(64));
    let inputs = (0..4)
        .map(|b| (0..64).map(|i| ((b * 7 + i) % 11) as f32 / 11.0).collect())
        .collect();
    (net, inputs)
}

#[test]
fn rejected_redeploy_keeps_the_live_model_bit_identical() {
    let (net, inputs) = small_fc_net();
    let mut system = PrimeSystem::new(4, 1, 6, 4096);
    system.deploy(&net, &[0.5; 64]).expect("small model deploys");
    let before = system.infer_batch(&inputs).expect("live model runs");
    let refused = system.deploy(&wide_fc_net(), &[0.5; 1024]);
    assert!(matches!(refused, Err(PrimeError::Rejected { .. })), "{refused:?}");
    let after = system.infer_batch(&inputs).expect("live model still runs");
    let bits = |v: &[Vec<f32>]| -> Vec<Vec<u32>> {
        v.iter().map(|o| o.iter().map(|x| x.to_bits()).collect()).collect()
    };
    assert_eq!(bits(&after), bits(&before), "a refused deploy touched the live model");
}

#[test]
fn failed_deploy_after_programming_leaves_the_system_undeployed() {
    let (net, inputs) = small_fc_net();
    let mut system = PrimeSystem::new(4, 1, 6, 4096);
    system.deploy(&net, &[0.5; 64]).expect("small model deploys");
    // Same shapes, but layer 0 has zero weights and a bias so large that
    // its merged units saturate the 64-bit register: the plan lowers and
    // programs fine, and only Pass 3 on the calibrated plan rejects it
    // (P027) — after the banks were rewritten.
    let (mut bomb, _) = small_fc_net();
    if let Layer::Fc(fc) = &mut bomb.layers_mut()[0] {
        fc.weights_mut().data_mut().fill(0.0);
        fc.bias_mut().fill(1e9);
    }
    match system.deploy(&bomb, &[0.5; 64]) {
        Err(PrimeError::Rejected { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.code == Code::P027),
                "expected P027, got {:?}",
                codes_of(&diagnostics)
            );
        }
        other => panic!("expected a Pass-3 rejection, got {other:?}"),
    }
    assert_eq!(system.copies(), 0, "stale runners survived a failed deploy");
    assert!(system.deploy_stats().is_none());
    assert!(system.infer_batch(&inputs).is_err(), "an undeployed system must not infer");
    // The system deploys again cleanly afterwards.
    system.deploy(&net, &[0.5; 64]).expect("redeploy succeeds");
    assert_eq!(system.infer_batch(&inputs).expect("runs").len(), inputs.len());
}
