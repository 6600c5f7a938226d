//! The full PRIME system: every bank's controller behind one façade,
//! with the OS runtime (morph policy, page-miss tracking, reservations)
//! and reconfiguration wear leveling — the whole §III/§IV machinery in
//! one object.
//!
//! Deployment runs the network through the mapping compiler
//! ([`map_network`]) and treats the resulting [`Mapping`'s pipeline
//! stages](prime_compiler::NetworkMapping) as the single source of truth
//! for *where* layers run: small networks place one [`CommandRunner`]
//! copy per bank (bank-level parallelism, §IV-B2), while large-scale
//! networks split into inter-bank pipeline stages (§IV-B) whose
//! activations move between banks through the runner's stage transfer
//! protocol ([`CommandRunner::stage_transfer_out`] /
//! [`stage_transfer_in`](CommandRunner::stage_transfer_in)).
//! Batches round-robin over the copies; the parallel engine overlaps
//! pipeline stages across the batch (image *i+1* enters stage 0 while
//! image *i* runs in stage 1). The OS hooks decide at run time whether
//! FF capacity should be released back to memory under page-miss
//! pressure (§IV-C).

use std::collections::HashSet;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use prime_compiler::{map_network, CompileOptions, MappingStrategy, Objective};
use prime_device::NoiseModel;
use prime_mem::{FfReservationMap, MatAddr, MorphDecision, MorphPolicy, PageMissTracker, WearLeveler};
use prime_nn::Network;

use crate::controller::BankController;
use crate::error::PrimeError;
use crate::runner::{CommandRunner, InferScratch};
use crate::search::{search_mapping, MappingCostModel, MappingSearch};

/// Per-copy outcome of a batched run: the (input index, output) pairs the
/// copy completed, or the first (input index, error) it hit.
type CopyBatch = Result<Vec<(usize, Vec<f32>)>, (usize, PrimeError)>;

/// (input index, activation codes) forwarded between pipeline stages.
type StagePacket = (usize, Vec<i64>);

/// A stage thread's channel ends: receiver from the previous stage and
/// sender to the next (absent at the pipe's boundaries).
type StageLink = (Option<mpsc::Receiver<StagePacket>>, Option<mpsc::Sender<StagePacket>>);

/// Aggregate statistics of a PRIME system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemStats {
    /// NN deployments (reconfigurations) performed.
    pub reconfigurations: u64,
    /// Inferences served.
    pub inferences: u64,
    /// FF mats currently reserved for computation.
    pub reserved_mats: usize,
    /// Wear imbalance across the FF-mat pool (1.0 = even).
    pub wear_imbalance: f64,
}

/// Cost report of the most recent [`PrimeSystem::deploy_with`]: how long
/// programming took and how much crossbar state the deployment keeps
/// resident, with the shared-tile accounting that distinguishes the two
/// [`MappingStrategy`] layouts. Auto-selected deployments
/// ([`PrimeSystem::deploy_auto`]) additionally carry the full
/// [`MappingSearch`] report — the chosen candidate and every rejected
/// alternative.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployStats {
    /// Deploy wall-time (map + verify + program + calibrate + replicate),
    /// milliseconds.
    pub wall_ms: f64,
    /// NN copies placed across the memory.
    pub copies: usize,
    /// The strategy the deployment was compiled under (per-layer
    /// fallbacks may still pick replicate-dense; see `aliased_placements`).
    pub strategy: MappingStrategy,
    /// Distinct programmed crossbar pairs resident in the memory.
    pub unique_tiles: usize,
    /// Mat placements that alias a shared tile instead of owning bytes.
    pub aliased_placements: usize,
    /// Bank state resident after deployment, counting each shared tile
    /// once (bytes).
    pub resident_bytes: usize,
    /// What the same placements would hold if every one owned its bytes
    /// (the replicate-dense footprint of this deployment), for the
    /// dedup ratio `resident_bytes / dense_bytes`.
    pub dense_bytes: usize,
    /// The mapping-search report when the deployment auto-selected its
    /// mapping ([`PrimeSystem::deploy_auto`]): the chosen candidate and
    /// every rejected alternative with scores and pruning reasons.
    /// `None` for fixed-strategy deployments.
    pub search: Option<MappingSearch>,
}

/// A multi-bank PRIME system with its OS runtime.
///
/// # Examples
///
/// ```no_run
/// use prime_core::PrimeSystem;
/// use prime_nn::{Activation, FullyConnected, Layer, Network};
///
/// let net = Network::new(vec![
///     Layer::Fc(FullyConnected::new(16, 8, Activation::Relu)),
///     Layer::Fc(FullyConnected::new(8, 4, Activation::Identity)),
/// ])?;
/// let mut system = PrimeSystem::new(4, 2, 8, 4096);
/// system.deploy(&net, &[0.5; 16])?;
/// let outputs = system.infer_batch(&[vec![0.2; 16], vec![0.8; 16]])?;
/// assert_eq!(outputs.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct PrimeSystem {
    banks: Vec<BankController>,
    /// One compiled runner per deployed NN copy. A copy occupies the
    /// consecutive bank group `[c * banks_per_copy, (c+1) *
    /// banks_per_copy)`; within the group the runner's stage list says
    /// which bank hosts which layers.
    runners: Vec<CommandRunner>,
    /// Banks one copy spans (1 for small/medium-scale networks, the
    /// pipeline depth for large-scale ones).
    banks_per_copy: usize,
    /// One reusable inference scratch per bank (paired with its thread in
    /// parallel execution; buffers only grow, so steady-state batches
    /// allocate nothing inside the compute kernels).
    scratches: Vec<InferScratch>,
    /// Reusable traveling activation vector for the serial engine.
    carry: Vec<i64>,
    /// Drive the copies concurrently (one thread per stage bank).
    /// Bit-identical to serial execution; see
    /// [`set_parallel`](Self::set_parallel).
    parallel: bool,
    reservations: FfReservationMap,
    policy: MorphPolicy,
    tracker: PageMissTracker,
    wear: WearLeveler,
    mats_per_bank: usize,
    stats: SystemStats,
    /// Cost report of the most recent deployment (`None` before any).
    deploy_stats: Option<DeployStats>,
}

impl PrimeSystem {
    /// Creates a system of `banks` banks, each with `ff_subarrays` FF
    /// subarrays of `mats_per_subarray` mats and a `buffer_words` Buffer
    /// subarray.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        banks: usize,
        ff_subarrays: usize,
        mats_per_subarray: usize,
        buffer_words: usize,
    ) -> Self {
        assert!(banks > 0 && ff_subarrays > 0 && mats_per_subarray > 0);
        let mats_per_bank = ff_subarrays * mats_per_subarray;
        let total_mats = banks * mats_per_bank;
        PrimeSystem {
            banks: (0..banks)
                .map(|_| BankController::new(ff_subarrays, mats_per_subarray, buffer_words, 4096))
                .collect(),
            runners: Vec::new(),
            banks_per_copy: 1,
            scratches: (0..banks).map(|_| InferScratch::new()).collect(),
            carry: Vec::new(),
            parallel: true,
            reservations: FfReservationMap::new(total_mats),
            policy: MorphPolicy::prime_default(),
            tracker: PageMissTracker::new(256),
            wear: WearLeveler::for_logical_mats(total_mats),
            mats_per_bank,
            deploy_stats: None,
            stats: SystemStats {
                reconfigurations: 0,
                inferences: 0,
                reserved_mats: 0,
                wear_imbalance: 1.0,
            },
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Independent NN copies after deployment (0 before any deploy).
    pub fn copies(&self) -> usize {
        self.runners.len()
    }

    /// Banks one deployed copy spans: 1 for networks that fit a bank,
    /// the inter-bank pipeline depth for large-scale ones (`None` before
    /// any deploy).
    pub fn banks_per_copy(&self) -> Option<usize> {
        (!self.runners.is_empty()).then_some(self.banks_per_copy)
    }

    /// Pipeline stages the deployed plan executes per inference (`None`
    /// before any deploy). This is the stage count the analytical
    /// simulator's pipeline latency term must agree with.
    pub fn deployed_stages(&self) -> Option<usize> {
        self.runners.first().map(CommandRunner::stage_count)
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            reserved_mats: self.reservations.reserved_count(),
            wear_imbalance: self.wear.imbalance(),
            ..self.stats
        }
    }

    /// Deploys `net`: maps it with the compiler to decide stage
    /// placement, compiles and programs one [`CommandRunner`] copy per
    /// consecutive bank group, reserves the FF mats with the OS, and
    /// charges the wear leveler for the reconfiguration.
    ///
    /// Networks that fit one bank deploy one copy per bank (the §IV-B2
    /// bank-parallel case, `Mapping::pipeline` empty). Large-scale
    /// networks follow `Mapping::pipeline`: each copy spans
    /// `banks_per_copy` consecutive banks, one stage per bank (§IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::Rejected`] carrying the verifier diagnostics
    /// if the mapping breaks a deployment invariant (the network does not
    /// fit the memory's FF mats, a pipeline stage is illegal or does not
    /// fit its bank, the precision budgets overflow, ...), or another
    /// [`PrimeError`] for unsupported layers. A refusal before
    /// programming leaves the current deployment untouched; a failure
    /// after the first mat write leaves the system undeployed.
    pub fn deploy(&mut self, net: &Network, calibration: &[f32]) -> Result<(), PrimeError> {
        self.deploy_with(net, calibration, MappingStrategy::ReplicateDense)
    }

    /// [`deploy`](Self::deploy) with an explicit weight-layout
    /// [`MappingStrategy`]. Under [`MappingStrategy::SharedKernel`] each
    /// unique weight tile is programmed (and calibrated) once and every
    /// other placement aliases it, so deploy wall-time and resident bank
    /// state scale with unique weights instead of placements; layers the
    /// compiler scores as having no reuse fall back to replicate-dense
    /// per layer. Inference outputs are bit-identical under both
    /// strategies. The cost report lands in
    /// [`deploy_stats`](Self::deploy_stats).
    ///
    /// # Errors
    ///
    /// As [`deploy`](Self::deploy).
    pub fn deploy_with(
        &mut self,
        net: &Network,
        calibration: &[f32],
        strategy: MappingStrategy,
    ) -> Result<(), PrimeError> {
        let options = CompileOptions { replicate: false, ..CompileOptions::fixed(strategy) };
        self.deploy_compiled(net, calibration, options, None)
    }

    /// [`deploy`](Self::deploy) with cost-model-driven mapping search:
    /// enumerates (strategy × replication factor × pipeline split)
    /// candidates, keeps those the Pass 1–3 verifiers accept, scores
    /// each with `model`, and deploys the argmin under `objective`.
    /// Illegal candidates are pruned, not errors. The full search report
    /// — chosen candidate plus rejected alternatives — lands in
    /// [`DeployStats::search`].
    ///
    /// [`Objective::Fixed`] skips the search entirely and behaves
    /// exactly like [`deploy_with`](Self::deploy_with) — including
    /// leaving `DeployStats::search` empty — so the pre-search path
    /// stays bit-compatible.
    ///
    /// # Errors
    ///
    /// As [`deploy`](Self::deploy); additionally returns
    /// [`PrimeError::MappingMismatch`] when every candidate was pruned.
    pub fn deploy_auto(
        &mut self,
        net: &Network,
        calibration: &[f32],
        objective: Objective,
        model: &dyn MappingCostModel,
    ) -> Result<(), PrimeError> {
        if let Objective::Fixed(strategy) = objective {
            return self.deploy_with(net, calibration, strategy);
        }
        // Capability check first, as in the fixed path: a network the
        // runner cannot execute must fail identically under search.
        let diagnostics = CommandRunner::capability_diagnostics(net);
        if !diagnostics.is_empty() {
            return Err(PrimeError::Rejected { diagnostics });
        }
        let spec = net.to_spec("deployed").map_err(PrimeError::Nn)?;
        let target = self.analysis_target();
        let search = search_mapping(&spec, &target, objective, model);
        let Some(chosen) = search.chosen() else {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "mapping search (objective={}) pruned every candidate:\n{}",
                    objective.name(),
                    search.describe()
                ),
            });
        };
        let options = chosen.options;
        self.deploy_compiled(net, calibration, options, Some(search))
    }

    /// The `prime-analyze` target equivalent to this system: the
    /// compiler geometry plus the physical precision budgets the static
    /// verifiers check against.
    fn analysis_target(&self) -> prime_analyze::Target {
        self.banks[0].analysis_target(self.banks.len())
    }

    /// The shared deployment path: compile `net` under `options`, verify
    /// (Pass 1 and the lowered plan's stage fit before any bank state
    /// changes, Pass 3 after replication but before install), program,
    /// replicate, and account. A failure after the first mat write leaves
    /// the system undeployed.
    fn deploy_compiled(
        &mut self,
        net: &Network,
        calibration: &[f32],
        options: CompileOptions,
        search: Option<MappingSearch>,
    ) -> Result<(), PrimeError> {
        let started = Instant::now();
        // Runner capability check first (P017): a layer the command
        // runner cannot execute must reject deployment up front, never
        // silently deploy and fail at inference time.
        let diagnostics = CommandRunner::capability_diagnostics(net);
        if !diagnostics.is_empty() {
            return Err(PrimeError::Rejected { diagnostics });
        }
        let spec = net.to_spec("deployed").map_err(PrimeError::Nn)?;
        let target = self.analysis_target();
        let mapping = map_network(&spec, &target.hw, options)
            .map_err(|e| PrimeError::MappingMismatch { reason: e.to_string() })?;
        // Static verification (prime-analyze pass 1): refuse before any
        // bank state changes if the mapping breaks a deployment
        // invariant. This replaces the ad-hoc capacity/pipeline checks
        // that used to live here and in the runner.
        let diagnostics: Vec<_> = prime_analyze::analyze(&spec, &target, &mapping)
            .into_iter()
            .filter(|d| d.severity == prime_analyze::Severity::Error)
            .collect();
        if !diagnostics.is_empty() {
            return Err(PrimeError::Rejected { diagnostics });
        }
        // The bank group is sized by the stage list itself, not
        // `mapping.banks_per_copy`: greedy packing can fragment and span
        // more banks than the capacity bound. The verifier has already
        // bounded every stage span to the memory, so at least one copy
        // fits.
        let bpc = mapping.pipeline.last().map_or(1, |s| {
            s.bank + s.mats.div_ceil(self.mats_per_bank).max(1)
        });
        // Copy-capped candidates deliberately place fewer copies than
        // the memory could hold, leaving the other banks as plain
        // memory; uncapped mappings always allow at least banks/bpc.
        let copies = (self.banks.len() / bpc).min(mapping.copies_across_memory).max(1);
        // The one lowering (shapes, stage spans, buffer addresses, tile
        // counts), derived and checked before any mat is written, so a
        // rejection here leaves the live model untouched. The compiler's
        // estimate reserves a bias row and lets one oversized layer span
        // banks; the runner adds bias in the merge adder and places a
        // whole stage on one bank, so a stage whose tiles overflow that
        // bank is rejected with P004.
        let (lowered_target, program) =
            CommandRunner::lower(net, &self.banks[..bpc], &mapping.pipeline, calibration)?;
        let diagnostics = prime_analyze::check_stage_tiles(&program, self.mats_per_bank);
        if !diagnostics.is_empty() {
            return Err(PrimeError::Rejected { diagnostics });
        }
        // Compile (quantize + program + calibrate) copy 0 only, then
        // replicate the programmed plan onto every other bank group:
        // stage banks are group-relative and programming is
        // deterministic, so a replicated copy is byte-identical to a
        // recompiled one — at the cost of a mat clone per tile instead
        // of a full program/calibrate pass. Shared-kernel layers alias
        // copy 0's tiles outright, so their replicas add no bank state.
        let layer_strategies: Vec<MappingStrategy> =
            mapping.layers.iter().map(|l| l.strategy).collect();
        let (first_group, rest) = self.banks.split_at_mut(bpc);
        let programmed =
            CommandRunner::compile_lowered(net, first_group, &lowered_target, program, calibration)
                .and_then(|first| {
                    let mut runners = Vec::with_capacity(copies);
                    for c in 1..copies {
                        let group = &mut rest[(c - 1) * bpc..c * bpc];
                        runners.push(first.replicate_onto(first_group, group, &layer_strategies)?);
                    }
                    runners.insert(0, first);
                    Ok(runners)
                });
        // Static verification pass 3: abstractly interpret the lowered
        // command program of copy 0 — FF-buffer region dataflow, §III-D
        // interval precision, shared-tile aliasing, stage-graph deadlock
        // freedom. Runs after replication so the alias check sees the
        // real post-deploy tile sharing, but before the runners are
        // installed.
        let installed = programmed.and_then(|runners| {
            let plan = runners[0].program_plan(&self.banks[..bpc]);
            let diagnostics: Vec<_> =
                prime_analyze::analyze_program(&spec, &target, &mapping, &plan)
                    .into_iter()
                    .filter(|d| d.severity == prime_analyze::Severity::Error)
                    .collect();
            if !diagnostics.is_empty() {
                return Err(PrimeError::Rejected { diagnostics });
            }
            let total: usize = runners.iter().map(CommandRunner::mats_used).sum();
            let mut reservations =
                FfReservationMap::new(self.banks.len() * self.mats_per_bank);
            reservations.reserve(total).map_err(PrimeError::Mem)?;
            Ok((runners, reservations))
        });
        // Mats have been written from the first compile step on: after a
        // failure the banks hold a partial program, so the previous
        // runners go too and the system is left undeployed.
        let (runners, reservations) = match installed {
            Ok(installed) => installed,
            Err(e) => {
                self.runners.clear();
                self.reservations = FfReservationMap::new(self.banks.len() * self.mats_per_bank);
                self.deploy_stats = None;
                return Err(e);
            }
        };
        self.reservations = reservations;
        self.runners = runners;
        self.banks_per_copy = bpc;
        self.wear.on_reconfiguration();
        self.stats.reconfigurations += 1;
        let (unique_tiles, aliased_placements, resident_bytes, dense_bytes) =
            self.tile_accounting();
        self.deploy_stats = Some(DeployStats {
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            copies,
            strategy: options.strategy(),
            unique_tiles,
            aliased_placements,
            resident_bytes,
            dense_bytes,
            search,
        });
        Ok(())
    }

    /// Cost report of the most recent deployment (`None` before any).
    pub fn deploy_stats(&self) -> Option<&DeployStats> {
        self.deploy_stats.as_ref()
    }

    /// Crossbar weight state currently resident across every bank,
    /// counting each shared tile once (bytes). Vacant mats — never
    /// written since construction — cost nothing, so this scales with
    /// unique programmed weights, not with memory capacity or placement
    /// count.
    pub fn resident_state_bytes(&self) -> usize {
        self.tile_accounting().2
    }

    /// Walks every mat in every bank and returns `(unique_tiles,
    /// aliased_placements, resident_bytes, dense_bytes)`: distinct
    /// programmed pairs, placements aliasing a shared pair, bytes with
    /// shared pairs deduplicated (by tile identity), and bytes as if
    /// every placement owned its codes.
    fn tile_accounting(&self) -> (usize, usize, usize, usize) {
        let mut seen: HashSet<*const prime_device::PairedCrossbar> = HashSet::new();
        let (mut unique, mut aliased, mut resident, mut dense) = (0usize, 0usize, 0usize, 0usize);
        for bank in &self.banks {
            for subarray in 0..bank.ff_subarrays() {
                for mat in 0..bank.mats_per_subarray() {
                    let mat = bank.mat(MatAddr { subarray, mat });
                    let bytes = mat.tile_state_bytes();
                    dense += bytes;
                    if let Some(tile) = mat.shared_tile() {
                        aliased += 1;
                        if seen.insert(Arc::as_ptr(tile)) {
                            unique += 1;
                            resident += bytes;
                        }
                    } else if bytes > 0 {
                        unique += 1;
                        resident += bytes;
                    }
                }
            }
        }
        (unique, aliased, resident, dense)
    }

    /// Whether batches drive the copies concurrently (default: `true`).
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Selects the execution engine for [`infer_batch`](Self::infer_batch)
    /// and [`infer_batch_noisy`](Self::infer_batch_noisy): serial
    /// round-robin, or one thread per stage bank (paper §V bank-level
    /// parallelism, plus inter-bank stage overlap for pipelined plans).
    /// Input `i` runs on copy `i % copies`, and every pipeline stage uses
    /// its own bank's scratch and RNG stream in *both* modes, so outputs
    /// are bit-identical — the knob trades wall-clock time only.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Runs a batch of inferences, round-robin over the deployed copies —
    /// serially or with one thread per stage bank, per
    /// [`set_parallel`](Self::set_parallel). For pipelined plans the
    /// parallel engine overlaps stages across the batch: input *i+1*
    /// enters stage 0 while input *i* runs in stage 1. Outputs are
    /// returned in input order and are identical in both modes.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] before any deployment.
    pub fn infer_batch(&mut self, inputs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, PrimeError> {
        self.infer_batch_impl(inputs, None)
    }

    /// Noisy-hardware variant of [`infer_batch`](Self::infer_batch):
    /// every tile evaluates through the analog domain with read noise.
    /// Bank `b` draws from its own RNG stream seeded
    /// `seed.wrapping_add(b)`; since input `i` always runs on copy
    /// `i % copies` and each pipeline stage owns one bank, the serial and
    /// overlapped engines consume identical per-bank streams and stay
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] before any deployment.
    pub fn infer_batch_noisy(
        &mut self,
        inputs: &[Vec<f32>],
        noise: &NoiseModel,
        seed: u64,
    ) -> Result<Vec<Vec<f32>>, PrimeError> {
        self.infer_batch_impl(inputs, Some((noise, seed)))
    }

    fn infer_batch_impl(
        &mut self,
        inputs: &[Vec<f32>],
        analog: Option<(&NoiseModel, u64)>,
    ) -> Result<Vec<Vec<f32>>, PrimeError> {
        if self.runners.is_empty() {
            return Err(PrimeError::MappingMismatch {
                reason: "no network deployed".to_string(),
            });
        }
        let bpc = self.banks_per_copy;
        let copies = self.runners.len();
        let stages = self.runners[0].stage_count();
        // Per-bank RNG streams for the noisy path (None slots: digital).
        let mut rngs: Vec<Option<SmallRng>> = match analog {
            Some((_, seed)) => (0..self.banks.len())
                .map(|b| Some(SmallRng::seed_from_u64(seed.wrapping_add(b as u64))))
                .collect(),
            None => (0..self.banks.len()).map(|_| None).collect(),
        };
        let noise = analog.map(|(m, _)| m);
        if !self.parallel || inputs.len() <= 1 || (copies == 1 && stages == 1) {
            let mut outputs = Vec::with_capacity(inputs.len());
            for (i, input) in inputs.iter().enumerate() {
                let c = i % copies;
                let span = c * bpc..(c + 1) * bpc;
                let mut out = Vec::new();
                Self::infer_one_pipelined(
                    &self.runners[c],
                    &mut self.banks[span.clone()],
                    &mut self.scratches[span.clone()],
                    noise,
                    &mut rngs[span],
                    input,
                    &mut self.carry,
                    &mut out,
                )?;
                outputs.push(out);
                self.stats.inferences += 1;
            }
            return Ok(outputs);
        }
        // One thread per stage bank. Each copy owns a consecutive bank
        // group and processes exactly the inputs the serial round-robin
        // would hand it (i % copies == c), in order; within a copy the
        // stage threads form a pipe connected by channels, so input i+1
        // occupies stage 0 while input i runs in stage 1. Every bank's
        // controller, scratch, and RNG stream stay thread-private and see
        // the same per-bank work sequence as the serial engine, so
        // outputs and RNG draws match it bit for bit.
        let runners = &self.runners;
        let results: Vec<CopyBatch> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (c, ((banks, scratches), rngs)) in self
                .banks
                .chunks_mut(bpc)
                .zip(self.scratches.chunks_mut(bpc))
                .zip(rngs.chunks_mut(bpc))
                .take(copies)
                .enumerate()
            {
                let runner = &runners[c];
                let s_count = runner.stage_count();
                if s_count == 1 {
                    // Single-stage copy: one thread runs whole inferences,
                    // exactly the pre-pipeline bank-parallel engine.
                    let (bank, scratch, rng) =
                        (&mut banks[0], &mut scratches[0], &mut rngs[0]);
                    handles.push(scope.spawn(move || {
                        let mut done = Vec::new();
                        for (i, input) in inputs.iter().enumerate().skip(c).step_by(copies) {
                            let mut out = Vec::new();
                            match (noise, rng.as_mut()) {
                                (Some(noise), Some(rng)) => runner
                                    .infer_noisy_into(bank, input, noise, rng, scratch, &mut out),
                                _ => runner.infer_into(bank, input, scratch, &mut out),
                            }
                            .map_err(|e| (i, e))?;
                            done.push((i, out));
                        }
                        Ok(done)
                    }));
                    continue;
                }
                // Forward channels between consecutive stages carry
                // (input index, activation codes); a recycle channel
                // returns spent code vectors from the final stage to
                // stage 0 so the steady state allocates nothing.
                let mut links: Vec<StageLink> = Vec::with_capacity(s_count);
                let mut prev_rx = None;
                for _ in 1..s_count {
                    let (tx, rx) = mpsc::channel();
                    links.push((prev_rx.replace(rx), Some(tx)));
                }
                links.push((prev_rx.take(), None));
                let (recycle_tx, recycle_rx) = mpsc::channel::<Vec<i64>>();
                let mut recycle_tx = Some(recycle_tx);
                let mut recycle_rx = Some(recycle_rx);
                // Hand each stage its bank's controller, scratch, and RNG
                // stream. Stage banks are distinct and in range (verified
                // at deploy), so every resource reaches at most one stage.
                let mut stage_res: Vec<
                    Option<(&mut BankController, &mut InferScratch, &mut Option<SmallRng>)>,
                > = (0..s_count).map(|_| None).collect();
                for (b, ((bank, scratch), rng)) in banks
                    .iter_mut()
                    .zip(scratches.iter_mut())
                    .zip(rngs.iter_mut())
                    .enumerate()
                {
                    if let Some(s) = (0..s_count).find(|&s| runner.stage_bank(s) == b) {
                        stage_res[s] = Some((bank, scratch, rng));
                    }
                }
                for s in 0..s_count {
                    let Some((bank, scratch, rng)) = stage_res[s].take() else {
                        continue;
                    };
                    let (rx, tx) = std::mem::take(&mut links[s]);
                    if s == 0 {
                        // First stage: no predecessor, feeds a successor.
                        let (Some(tx), Some(recycle_rx)) = (tx, recycle_rx.take()) else {
                            continue;
                        };
                        handles.push(scope.spawn(move || {
                            // Bound the in-flight vectors: allocate a few,
                            // then block on recycling — the backpressure
                            // keeps steady-state allocation at zero. The
                            // credit count is the same constant the Pass-3
                            // stage-graph check certifies nonzero.
                            let mut credits = prime_compiler::pipeline_credits(s_count);
                            for (i, input) in inputs.iter().enumerate().skip(c).step_by(copies) {
                                let mut codes = match recycle_rx.try_recv() {
                                    Ok(v) => v,
                                    Err(_) if credits > 0 => {
                                        credits -= 1;
                                        Vec::new()
                                    }
                                    Err(_) => match recycle_rx.recv() {
                                        Ok(v) => v,
                                        // The pipe died downstream; the
                                        // failing stage reports the error.
                                        Err(_) => break,
                                    },
                                };
                                if let Err(e) = runner.quantize_input(input, &mut codes) {
                                    return Err((i, e));
                                }
                                let run = match (noise, rng.as_mut()) {
                                    (Some(noise), Some(rng)) => runner.run_stage_noisy(
                                        0, &mut *bank, noise, rng, &mut *scratch, &mut codes, None,
                                    ),
                                    _ => runner
                                        .run_stage(0, &mut *bank, &mut *scratch, &mut codes, None),
                                };
                                if let Err(e) = run {
                                    return Err((i, e));
                                }
                                if let Err(e) = runner.stage_transfer_out(0, bank, &mut codes) {
                                    return Err((i, e));
                                }
                                if tx.send((i, codes)).is_err() {
                                    break;
                                }
                            }
                            Ok(Vec::new())
                        }));
                    } else if s < s_count - 1 {
                        // Interior stage: a predecessor and a successor.
                        let (Some(rx), Some(tx)) = (rx, tx) else {
                            continue;
                        };
                        handles.push(scope.spawn(move || {
                            for (i, mut codes) in rx {
                                if let Err(e) = runner.stage_transfer_in(s, bank, &codes) {
                                    return Err((i, e));
                                }
                                let run = match (noise, rng.as_mut()) {
                                    (Some(noise), Some(rng)) => runner.run_stage_noisy(
                                        s, &mut *bank, noise, rng, &mut *scratch, &mut codes, None,
                                    ),
                                    _ => runner
                                        .run_stage(s, &mut *bank, &mut *scratch, &mut codes, None),
                                };
                                if let Err(e) = run {
                                    return Err((i, e));
                                }
                                if let Err(e) = runner.stage_transfer_out(s, bank, &mut codes) {
                                    return Err((i, e));
                                }
                                if tx.send((i, codes)).is_err() {
                                    break;
                                }
                            }
                            Ok(Vec::new())
                        }));
                    } else {
                        // Final stage: recycles spent vectors to stage 0.
                        let (Some(rx), Some(recycle_tx)) = (rx, recycle_tx.take()) else {
                            continue;
                        };
                        handles.push(scope.spawn(move || {
                            let mut done = Vec::new();
                            for (i, mut codes) in rx {
                                if let Err(e) = runner.stage_transfer_in(s, bank, &codes) {
                                    return Err((i, e));
                                }
                                let mut out = Vec::new();
                                let run = match (noise, rng.as_mut()) {
                                    (Some(noise), Some(rng)) => runner.run_stage_noisy(
                                        s,
                                        &mut *bank,
                                        noise,
                                        rng,
                                        &mut *scratch,
                                        &mut codes,
                                        Some(&mut out),
                                    ),
                                    _ => runner.run_stage(
                                        s,
                                        &mut *bank,
                                        &mut *scratch,
                                        &mut codes,
                                        Some(&mut out),
                                    ),
                                };
                                if let Err(e) = run {
                                    return Err((i, e));
                                }
                                done.push((i, out));
                                // Stage 0 may already have exited.
                                let _ = recycle_tx.send(codes);
                            }
                            Ok(done)
                        }));
                    }
                }
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err((
                            0,
                            PrimeError::Internal {
                                reason: "a pipeline stage thread panicked".to_string(),
                            },
                        ))
                    })
                })
                .collect()
        });
        let mut outputs: Vec<Option<Vec<f32>>> = (0..inputs.len()).map(|_| None).collect();
        let mut first_err: Option<(usize, PrimeError)> = None;
        for result in results {
            match result {
                Ok(done) => {
                    for (i, out) in done {
                        outputs[i] = Some(out);
                    }
                }
                Err((i, e)) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        if let Some((i, e)) = first_err {
            // Match the serial engine's accounting: every input before
            // the first failing index completed.
            self.stats.inferences += i as u64;
            return Err(e);
        }
        let outputs = outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.ok_or_else(|| PrimeError::Internal {
                    reason: format!("no pipeline stage produced an output for input {i}"),
                })
            })
            .collect::<Result<Vec<_>, PrimeError>>()?;
        self.stats.inferences += inputs.len() as u64;
        Ok(outputs)
    }

    /// One inference through one copy's bank group, stage by stage:
    /// quantize, run each stage on its bank, and move the activation
    /// codes between banks at every stage boundary
    /// ([`stage_transfer_out`](CommandRunner::stage_transfer_out) on the
    /// upstream bank, [`stage_transfer_in`](CommandRunner::stage_transfer_in)
    /// on the downstream one — the same buffer operations the overlapped
    /// engine performs, so both engines account identical traffic; FC
    /// boundaries move the full buffer-resident vector, conv/pool
    /// boundaries stream their Mem-resident feature maps in bursts).
    /// Digital or analog per `noise`/`rngs`.
    #[allow(clippy::too_many_arguments)]
    fn infer_one_pipelined(
        runner: &CommandRunner,
        banks: &mut [BankController],
        scratches: &mut [InferScratch],
        noise: Option<&NoiseModel>,
        rngs: &mut [Option<SmallRng>],
        input: &[f32],
        carry: &mut Vec<i64>,
        out: &mut Vec<f32>,
    ) -> Result<(), PrimeError> {
        runner.quantize_input(input, carry)?;
        let last = runner.stage_count() - 1;
        for s in 0..=last {
            let b = runner.stage_bank(s);
            if s > 0 {
                let prev = runner.stage_bank(s - 1);
                let (head, tail) = banks.split_at_mut(b);
                runner.stage_transfer_out(s - 1, &mut head[prev], carry)?;
                runner.stage_transfer_in(s, &mut tail[0], carry)?;
            }
            let out_opt = (s == last).then_some(&mut *out);
            match (noise, rngs[b].as_mut()) {
                (Some(noise), Some(rng)) => runner.run_stage_noisy(
                    s,
                    &mut banks[b],
                    noise,
                    rng,
                    &mut scratches[b],
                    carry,
                    out_opt,
                )?,
                _ => runner.run_stage(s, &mut banks[b], &mut scratches[b], carry, out_opt)?,
            }
        }
        Ok(())
    }

    /// OS hook: records one page access and applies the §IV-C policy —
    /// under page-miss pressure with idle FF capacity, reserved mats are
    /// released back to normal memory.
    pub fn record_page_access(&mut self, miss: bool) -> MorphDecision {
        self.tracker.record(miss);
        let decision = self
            .policy
            .decide(self.tracker.miss_rate(), self.reservations.utilization());
        if decision == MorphDecision::ReleaseToMemory {
            // Release anything idle; deployed-but-unused mats qualify.
            let releasable = self.reservations.reserved_count();
            self.reservations.release_idle(releasable);
        }
        decision
    }

    /// Fraction of the FF pool currently reserved for computation.
    pub fn ff_utilization(&self) -> f64 {
        self.reservations.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_nn::{Activation, FullyConnected, Layer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn relu_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(12, 8, Activation::Relu)),
            Layer::Fc(FullyConnected::new(8, 3, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    /// A net whose layers each fit one 2x4-mat bank but not together:
    /// the compiler must split it into a two-bank pipeline.
    fn pipelined_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(24, 16, Activation::Relu)),
            Layer::Fc(FullyConnected::new(16, 6, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    #[test]
    fn deploy_and_infer_across_banks() {
        let mut rng = SmallRng::seed_from_u64(99);
        let net = relu_net(&mut rng);
        let mut system = PrimeSystem::new(3, 2, 4, 2048);
        system.deploy(&net, &[0.5; 12]).unwrap();
        assert_eq!(system.copies(), 3);
        assert_eq!(system.banks_per_copy(), Some(1));
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..12).map(|j| ((i + j) % 7) as f32 / 7.0).collect())
            .collect();
        let outputs = system.infer_batch(&inputs).unwrap();
        assert_eq!(outputs.len(), 6);
        // All banks hold the same weights: identical inputs landing on
        // different banks produce identical outputs.
        let dup = system
            .infer_batch(&[
                inputs[0].clone(),
                inputs[0].clone(),
                inputs[0].clone(),
                inputs[0].clone(),
            ])
            .unwrap();
        assert_eq!(dup[0], dup[1]);
        assert_eq!(dup[0], dup[3]);
        let stats = system.stats();
        assert_eq!(stats.reconfigurations, 1);
        assert_eq!(stats.inferences, 10);
        assert!(stats.reserved_mats > 0);
    }

    #[test]
    fn oversized_network_deploys_as_interbank_pipeline() {
        let mut rng = SmallRng::seed_from_u64(7);
        let net = pipelined_net(&mut rng);
        // Tiny mats (via the default 256x128 geometry the controller
        // builds) still fit these layers; shrink the bank instead: 1
        // subarray of 1 mat per bank forces one layer per bank.
        let mut system = PrimeSystem::new(4, 1, 1, 2048);
        system.deploy(&net, &[0.4; 24]).unwrap();
        assert_eq!(system.banks_per_copy(), Some(2));
        assert_eq!(system.deployed_stages(), Some(2));
        assert_eq!(system.copies(), 2);
        let inputs: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..24).map(|j| ((i * 3 + j) % 11) as f32 / 11.0).collect())
            .collect();
        let piped = system.infer_batch(&inputs).unwrap();
        // Reference: the same network on one bank big enough to hold it.
        let mut single = PrimeSystem::new(1, 1, 2, 2048);
        single.deploy(&net, &[0.4; 24]).unwrap();
        assert_eq!(single.deployed_stages(), Some(1));
        let flat = single.infer_batch(&inputs).unwrap();
        assert_eq!(piped, flat, "pipelined placement changed the arithmetic");
    }

    #[test]
    fn infer_before_deploy_fails() {
        let mut system = PrimeSystem::new(2, 1, 2, 512);
        assert!(system.infer_batch(&[vec![0.0; 4]]).is_err());
    }

    #[test]
    fn os_pressure_releases_ff_capacity() {
        let mut rng = SmallRng::seed_from_u64(100);
        let net = relu_net(&mut rng);
        // A large pool keeps deployed utilization under the policy's
        // low-utilization threshold, the §IV-C release precondition.
        let mut system = PrimeSystem::new(2, 2, 16, 2048);
        system.deploy(&net, &[0.5; 12]).unwrap();
        let before = system.ff_utilization();
        assert!(before > 0.0 && before < 0.10, "utilization {before}");
        // Sustained page misses with low FF utilization trigger release.
        let mut released = false;
        for _ in 0..300 {
            if system.record_page_access(true) == MorphDecision::ReleaseToMemory {
                released = true;
            }
        }
        assert!(released, "policy never released under 100% miss rate");
        assert_eq!(system.ff_utilization(), 0.0);
    }

    #[test]
    fn redeployment_counts_reconfigurations_and_wear() {
        let mut rng = SmallRng::seed_from_u64(101);
        let mut system = PrimeSystem::new(2, 2, 4, 2048);
        for _ in 0..3 {
            let net = relu_net(&mut rng);
            system.deploy(&net, &[0.5; 12]).unwrap();
        }
        let stats = system.stats();
        assert_eq!(stats.reconfigurations, 3);
        assert!(stats.wear_imbalance >= 1.0);
    }

    #[test]
    fn shared_kernel_deploy_is_bit_identical_and_dedups_bank_state() {
        let mut rng = SmallRng::seed_from_u64(303);
        let net = relu_net(&mut rng);
        let inputs: Vec<Vec<f32>> = (0..6)
            .map(|i| (0..12).map(|j| ((i * 5 + j) % 9) as f32 / 9.0).collect())
            .collect();
        let mut dense = PrimeSystem::new(4, 2, 4, 2048);
        dense
            .deploy_with(&net, &[0.5; 12], MappingStrategy::ReplicateDense)
            .unwrap();
        let mut shared = PrimeSystem::new(4, 2, 4, 2048);
        shared
            .deploy_with(&net, &[0.5; 12], MappingStrategy::SharedKernel)
            .unwrap();
        assert_eq!(
            dense.infer_batch(&inputs).unwrap(),
            shared.infer_batch(&inputs).unwrap(),
            "weight layout changed the arithmetic"
        );
        let d = dense.deploy_stats().expect("stats after deploy").clone();
        let s = shared.deploy_stats().expect("stats after deploy").clone();
        assert_eq!(d.copies, 4);
        assert_eq!(s.copies, 4);
        // Dense: every placement owns its bytes; nothing is aliased.
        assert_eq!(d.aliased_placements, 0);
        assert_eq!(d.resident_bytes, d.dense_bytes);
        // Shared: the 3 replica copies alias copy 0's tiles, so resident
        // state is the unique-weight footprint — a quarter of dense.
        assert!(s.aliased_placements > 0);
        assert_eq!(s.dense_bytes, d.dense_bytes);
        assert_eq!(s.resident_bytes * s.copies, s.dense_bytes);
        assert!(s.unique_tiles < d.unique_tiles);
        assert_eq!(shared.resident_state_bytes(), s.resident_bytes);
    }

    #[test]
    fn replicated_copies_skip_reprogramming_but_stay_exact() {
        // The replicate-based deploy must hand out copies byte-identical
        // to compiling each group independently: the same input routed to
        // any copy produces the same output (round-robin places input i
        // on copy i % copies).
        let mut rng = SmallRng::seed_from_u64(304);
        let net = relu_net(&mut rng);
        let mut system = PrimeSystem::new(3, 2, 4, 2048);
        system
            .deploy_with(&net, &[0.5; 12], MappingStrategy::SharedKernel)
            .unwrap();
        assert_eq!(system.copies(), 3);
        let input: Vec<f32> = (0..12).map(|j| (j % 5) as f32 / 5.0).collect();
        let outputs = system
            .infer_batch(&[input.clone(), input.clone(), input])
            .unwrap();
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }
}
