//! Pass 3 — abstract interpretation of the lowered command program.
//!
//! Pass 1 ([`analyze`](crate::analyze)) verifies the *mapping*; nothing
//! there sees the program the runner actually executes — the op stream
//! with its row-ring staging, chunked window evaluation, shared-tile
//! aliasing, and stage-channel topology. There is one such program:
//! [`lower_shapes`] lowers the compiler's mapping into a [`ProgramPlan`]
//! (stage spans, ops, buffer addresses, tile counts), `CommandRunner`
//! compiles and executes that plan, and [`lower_program`] completes it
//! statically. [`analyze_program`] interprets the plan — exported from a
//! compiled `CommandRunner` at deploy, or from [`lower_program`] in CI —
//! over four abstract domains:
//!
//! * **FF-buffer region dataflow** — the buffer is a word-granular
//!   region lattice; every op's staged definitions must cover its uses
//!   ([`Code::P024`]), live regions must not overlap or spill past the
//!   buffer ([`Code::P025`]), and a resident conv's row ring must never
//!   clobber a halo row the current output row still reads
//!   ([`Code::P026`]).
//! * **Interval precision propagation** (module
//!   [`intervals`](crate::intervals)) — per-layer value intervals prove
//!   the merged sums fit the precision-control register before the
//!   §III-D clamp ([`Code::P027`]) and that the declared requantization
//!   budget is not vacuous ([`Code::P028`]).
//! * **Shared-tile aliasing** — no tile reachable through a shared
//!   `PairStore` alias may still be write-armed after deploy: a
//!   program/calibrate through the alias would mutate every placement
//!   unless copy-on-write triggered ([`Code::P029`]).
//! * **Stage-channel graph** — the thread-per-stage pipeline engine is
//!   a linear chain of forward channels closed by a credit-bearing
//!   recycle edge; the chain must be exactly linear and the credits
//!   nonzero for the engine to be deadlock-free at every batch size
//!   ([`Code::P030`]).
//!
//! `PrimeSystem::deploy` gates on this pass exactly like Pass 1, and
//! `analyze_workloads --program` runs it statically over every MlBench
//! workload under both mapping strategies.

use prime_circuits::mean_pool_weights;
use prime_compiler::{pipeline_credits, MappingStrategy, NetworkMapping, PipelineStage};
use prime_nn::{LayerSpec, NetworkSpec, PoolKind};

use crate::diag::{sort_diagnostics, Code, Diagnostic, Span};
use crate::intervals::{static_shift, Interval};
use crate::verify::{conv_staging, Target, WINDOW_IO_CHUNK_WORDS};

/// What one lowered layer computes per crossbar evaluation. Produced by
/// [`lower_shapes`]; the runner executes these ops directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramOp {
    /// Fully-connected: one evaluation over the whole input vector.
    Fc,
    /// Convolution over im2col windows.
    Conv {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel edge.
        kernel: usize,
        /// Zero padding on each side.
        padding: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Output height.
        out_h: usize,
        /// Output width.
        out_w: usize,
        /// Weight-stationary row-reuse schedule (ring + chunk resident).
        resident: bool,
        /// Output pixels evaluated per staged window chunk.
        chunk_pixels: usize,
    },
    /// Pooling on the column-mux hardware.
    Pool {
        /// Mean pooling instead of winner-code max.
        mean: bool,
        /// Channels.
        channels: usize,
        /// Input height.
        in_h: usize,
        /// Input width.
        in_w: usize,
        /// Window edge (stride = window).
        window: usize,
        /// Quantized 1/n reciprocal conductance level (mean only).
        level: i64,
    },
}

impl ProgramOp {
    /// Words of FF buffer the op's input staging region occupies: the
    /// full input vector for FC, the row ring plus window chunk for a
    /// resident conv, one im2col / pooling window otherwise (feature maps
    /// stay Mem-resident). [`lower_shapes`] lays regions out with it and
    /// the region check ([`Code::P024`]) proves them against it.
    pub fn staging_words(&self, inputs: usize) -> usize {
        match *self {
            ProgramOp::Fc => inputs,
            ProgramOp::Conv { in_ch, kernel, in_w, resident, chunk_pixels, .. } => {
                if resident {
                    kernel * in_ch * in_w + chunk_pixels * in_ch * kernel * kernel
                } else {
                    in_ch * kernel * kernel
                }
            }
            ProgramOp::Pool { window, .. } => window * window,
        }
    }

    /// The `(rows, cols)` crossbar weight matrix of a weight layer with
    /// `inputs`/`outputs` logical widths — one row per input (FC) or
    /// im2col tap (conv), one column per output (FC) or output map
    /// (conv), and no bias row — or `None` for pooling, which holds no
    /// weights.
    pub fn weight_shape(&self, inputs: usize, outputs: usize) -> Option<(usize, usize)> {
        match *self {
            ProgramOp::Fc => Some((inputs, outputs)),
            ProgramOp::Conv { in_ch, out_ch, kernel, .. } => Some((in_ch * kernel * kernel, out_ch)),
            ProgramOp::Pool { .. } => None,
        }
    }

    /// Short human-readable form for diagnostic spans.
    pub fn describe(&self) -> String {
        match *self {
            ProgramOp::Fc => "fc".to_string(),
            ProgramOp::Conv { in_ch, out_ch, kernel, .. } => {
                format!("conv{kernel}x{kernel} {in_ch}-{out_ch}ch")
            }
            ProgramOp::Pool { mean, window, .. } => {
                format!("{}pool{window}x{window}", if mean { "mean" } else { "max" })
            }
        }
    }
}

/// Post-deploy state of one placed tile, as far as the alias analysis
/// needs it. The default (private, compute-mapped) is what a lowering
/// without a bank records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramTile {
    /// The tile's crossbar pair is reachable through a shared
    /// `PairStore` alias (its `Arc` has more than one owner).
    pub aliased: bool,
    /// The tile's mat was left in `Program` function — the next
    /// program/calibrate command would write its cells.
    pub write_armed: bool,
}

/// One layer of the lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramLayer {
    /// The op the layer executes.
    pub op: ProgramOp,
    /// Logical input vector width.
    pub inputs: usize,
    /// Logical output vector width.
    pub outputs: usize,
    /// Buffer address of the layer's staging region.
    pub in_addr: u64,
    /// Buffer address where the layer's output codes are staged (the
    /// end of its staging region).
    pub out_addr: u64,
    /// Right shift taking merged sums to next-layer codes.
    pub requant_shift: u8,
    /// ReLU before requantization.
    pub relu: bool,
    /// Largest bias magnitude, in merged full-precision units.
    pub bias_peak: i64,
    /// Post-deploy state of the layer's placed tiles.
    pub tiles: Vec<ProgramTile>,
}

/// One pipeline stage of the plan: a contiguous layer span on one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramStage {
    /// Bank index within the plan's bank group.
    pub bank: usize,
    /// Layer span `[start, end)`.
    pub layers: (usize, usize),
}

/// The lowered command program, as the abstract interpreter sees it.
/// Its shape comes from [`lower_shapes`] either way; a compiled
/// `CommandRunner` exports it with calibrated shifts and live tile
/// states (deploy-time gating), and [`lower_program`] fills in static
/// worst-case shifts (workload auditing without touching a bank).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramPlan {
    /// Planned layers, in execution order across all stages.
    pub layers: Vec<ProgramLayer>,
    /// Stage placement.
    pub stages: Vec<ProgramStage>,
    /// Capacity of each bank's FF buffer subarray, in words.
    pub buffer_words: usize,
    /// Initial credits on the pipeline engine's recycle edge.
    pub recycle_credits: usize,
}

/// The mat-sized tiles of a `rows`x`cols` crossbar weight matrix on
/// `mat_rows`x`mat_cols` mats, row-tile-major: each item is the
/// `(row span, column span)` one mat holds. The single tiling rule of
/// the lowering: [`lower_shapes`] counts these tiles and
/// `CommandRunner` programs exactly these spans.
pub fn weight_tiles(
    (rows, cols): (usize, usize),
    (mat_rows, mat_cols): (usize, usize),
) -> impl Iterator<Item = ((usize, usize), (usize, usize))> {
    let span = |t: usize, edge: usize, total: usize| (t * edge, ((t + 1) * edge).min(total));
    (0..rows.div_ceil(mat_rows.max(1))).flat_map(move |r| {
        (0..cols.div_ceil(mat_cols.max(1)))
            .map(move |c| (span(r, mat_rows, rows), span(c, mat_cols, cols)))
    })
}

/// The shape-only lowering of `spec` along `pipeline` on `target` — the
/// one producer of everything about the program that depends only on
/// shapes:
///
/// * stage spans, from the compiler's stage list (an empty `pipeline`
///   is one stage holding every layer on bank 0);
/// * each layer's [`ProgramOp`], with a conv's `resident`/`chunk_pixels`
///   from [`conv_staging`] and a mean pool's quantized `1/n` level;
/// * FF-buffer addresses: per stage, staging regions are laid out back
///   to back from word 0 ([`ProgramOp::staging_words`] each);
/// * per-layer tile counts by [`weight_tiles`]. A weight layer's
///   crossbar matrix has one row per input and no bias row, because the
///   runner adds bias in the merge adder — so a layer can need fewer
///   tiles than the compiler's estimate, which reserves a bias row.
///
/// [`lower_program`] adds static requantization shifts on top;
/// `CommandRunner` compiles from this plan and adds only what needs a
/// bank (weights, SA/requant calibration, mat addresses, bias units).
/// The `requant_shift`, `relu` and `bias_peak` fields are left zero and
/// every tile state is the default.
///
/// Stage spans are taken as given: a malformed stage list lowers to a
/// malformed plan, which the stage-graph check ([`Code::P030`]) reports.
///
/// # Errors
///
/// Returns a human-readable reason for layers that have no in-memory
/// lowering: LRN (it falls back to the host — [`Code::P015`] territory,
/// not this pass's) and mean pools whose `1/n` level rounds to zero.
pub fn lower_shapes(
    spec: &NetworkSpec,
    target: &Target,
    pipeline: &[PipelineStage],
) -> Result<ProgramPlan, String> {
    let n_layers = spec.layers().len();
    let stages: Vec<ProgramStage> = if pipeline.is_empty() {
        vec![ProgramStage { bank: 0, layers: (0, n_layers) }]
    } else {
        let mut next = 0usize;
        pipeline
            .iter()
            .map(|ps| {
                let start = next;
                next += ps.layers.len();
                ProgramStage { bank: ps.bank, layers: (start, next) }
            })
            .collect()
    };
    let mat = (target.hw.mat_rows, target.hw.mat_cols);
    let mut layers = Vec::with_capacity(n_layers);
    for stage in &stages {
        let mut buf_cursor = 0u64;
        for index in stage.layers.0..stage.layers.1 {
            let Some(layer_spec) = spec.layers().get(index) else {
                break; // A malformed stage span; the stage-graph check reports it.
            };
            let op = match *layer_spec {
                LayerSpec::FullyConnected { .. } => ProgramOp::Fc,
                LayerSpec::Conv { in_ch, out_ch, kernel, in_h, in_w, padding } => {
                    let (out_h, out_w) = layer_spec.conv_out_dims().unwrap_or((1, 1));
                    let staging =
                        conv_staging(in_ch, kernel, in_w, out_w, target.buffer_words);
                    ProgramOp::Conv {
                        in_ch,
                        out_ch,
                        kernel,
                        padding,
                        in_h,
                        in_w,
                        out_h,
                        out_w,
                        resident: staging.resident,
                        chunk_pixels: staging.chunk_pixels,
                    }
                }
                LayerSpec::Pool { kind, channels, in_h, in_w, window } => {
                    let mean = kind == PoolKind::Mean;
                    // The quantized 1/n reciprocal the mux cells program
                    // (MLC budget); software rescaling divides it back out.
                    let level = if mean {
                        mean_pool_weights(window * window, target.scheme.weight_half_bits())
                            .map(|w| i64::from(w[0]))
                            .map_err(|e| format!("layer {index}: {e}"))?
                    } else {
                        0
                    };
                    ProgramOp::Pool { mean, channels, in_h, in_w, window, level }
                }
                LayerSpec::Lrn { .. } => {
                    return Err(format!(
                        "layer {index}: LRN has no in-memory lowering (host fallback)"
                    ));
                }
            };
            let (inputs, outputs) = (layer_spec.inputs(), layer_spec.outputs());
            let tiles = op.weight_shape(inputs, outputs).map_or(0, |w| weight_tiles(w, mat).count());
            let in_addr = buf_cursor;
            buf_cursor += op.staging_words(inputs) as u64;
            layers.push(ProgramLayer {
                op,
                inputs,
                outputs,
                in_addr,
                out_addr: buf_cursor,
                requant_shift: 0,
                relu: false,
                bias_peak: 0,
                tiles: vec![ProgramTile::default(); tiles],
            });
        }
    }
    let recycle_credits = pipeline_credits(stages.len());
    Ok(ProgramPlan { layers, stages, buffer_words: target.buffer_words, recycle_credits })
}

/// Statically lowers `(spec, mapping)` into the [`ProgramPlan`] the
/// runner compiles, without programming a single mat: the shape-only
/// [`lower_shapes`] along `mapping.pipeline`, plus requantization shifts
/// derived from the interval analysis's own worst-case bounds instead of
/// a calibration pass. Bias magnitudes are modeled at the dot-span bound
/// (§III-D assumes bias never dominates the dot product).
///
/// # Errors
///
/// As [`lower_shapes`].
pub fn lower_program(
    spec: &NetworkSpec,
    target: &Target,
    mapping: &NetworkMapping,
) -> Result<ProgramPlan, String> {
    let mut plan = lower_shapes(spec, target, &mapping.pipeline)?;
    let scheme = &target.scheme;
    let code_max = i128::from(scheme.input_code_max());
    let w_max = crate::intervals::weight_magnitude(target);
    let mut act = Interval { lo: 0, hi: code_max };
    for layer in &mut plan.layers {
        // Activations are unknown at spec level; no ReLU (the lowering's
        // default) is the sound over-approximation (wider interval).
        // Bias bound at the dot span, then the shift the runner's
        // `bits - Pin` calibration would pick for the worst case.
        let dot = crate::intervals::merged_interval(layer, act, w_max);
        layer.bias_peak = i64::try_from(dot.abs_max()).unwrap_or(i64::MAX);
        let merged = crate::intervals::merged_interval(layer, act, w_max);
        if !matches!(layer.op, ProgramOp::Pool { mean: false, .. }) {
            layer.requant_shift = static_shift(merged.abs_max(), scheme);
        }
        act = merged
            .shift_right(u32::from(layer.requant_shift).min(63))
            .clamp(-code_max, code_max);
    }
    Ok(plan)
}

/// Deploy-time bank-capacity check on a lowered plan: one
/// [`Code::P004`] per stage whose layers need more tiles than the
/// `mats_per_bank` FF mats of the one bank the runner places the stage
/// on. The compiler's estimate lets a single oversized layer span banks
/// (§IV-B); the runner does not, so deployment rejects such a stage
/// before any mat is written. Not part of [`analyze_program`]: static
/// audits of paper-scale targets keep the compiler's spanning layout.
pub fn check_stage_tiles(plan: &ProgramPlan, mats_per_bank: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (index, stage) in plan.stages.iter().enumerate() {
        let span_end = stage.layers.1.min(plan.layers.len());
        let tiles: usize = plan.layers[stage.layers.0.min(span_end)..span_end]
            .iter()
            .map(|l| l.tiles.len())
            .sum();
        if tiles > mats_per_bank {
            diags.push(Diagnostic::new(
                Code::P004,
                Span::Stage { index, bank: stage.bank },
                format!(
                    "stage {index} programs {tiles} tiles onto bank {} but a bank holds \
                     {mats_per_bank} FF mats; the runner places a whole stage on one bank",
                    stage.bank
                ),
            ));
        }
    }
    diags
}

/// Pass 3(a): word-granular FF-buffer region dataflow.
fn check_regions(plan: &ProgramPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let cap = plan.buffer_words as u64;
    for stage in &plan.stages {
        let span_end = stage.layers.1.min(plan.layers.len());
        let layers = &plan.layers[stage.layers.0.min(span_end)..span_end];
        // (start, end, layer index) of every staging window in the stage.
        let mut windows: Vec<(u64, u64, usize)> = Vec::with_capacity(layers.len());
        for (off, layer) in layers.iter().enumerate() {
            let index = stage.layers.0 + off;
            let span = Span::Layer { index, entity: layer.op.describe() };
            let required = layer.op.staging_words(layer.inputs) as u64;
            let declared = layer.out_addr.saturating_sub(layer.in_addr);
            if layer.out_addr < layer.in_addr || declared < required {
                diags.push(Diagnostic::new(
                    Code::P024,
                    span.clone(),
                    format!(
                        "op reads {required} staged words at {} but only {declared} \
                         are defined before use",
                        layer.in_addr
                    ),
                ));
            }
            if layer.in_addr + required > cap {
                diags.push(Diagnostic::new(
                    Code::P025,
                    span.clone(),
                    format!(
                        "staging region [{}, {}) spills past the {cap}-word FF buffer",
                        layer.in_addr,
                        layer.in_addr + required
                    ),
                ));
            }
            // Live output writes: FC stores its full output vector at
            // out_addr after every evaluation; conv/pool feature maps
            // stay Mem-resident and only the stage-boundary bursts
            // touch the buffer.
            let is_stage_last = off + 1 == layers.len();
            let out_words = match layer.op {
                ProgramOp::Fc => layer.outputs as u64,
                _ if is_stage_last => {
                    layer.outputs.clamp(1, WINDOW_IO_CHUNK_WORDS) as u64
                }
                _ => 0,
            };
            if out_words > 0 && layer.out_addr + out_words > cap {
                diags.push(Diagnostic::new(
                    Code::P025,
                    span.clone(),
                    format!(
                        "live output write [{}, {}) spills past the {cap}-word FF buffer",
                        layer.out_addr,
                        layer.out_addr + out_words
                    ),
                ));
            }
            // Overlap against every earlier staging window in the stage:
            // the cursor invariant makes them pairwise disjoint, so any
            // intersection means two live regions share words.
            let start = layer.in_addr;
            let end = layer.in_addr + required;
            for &(s0, e0, other) in &windows {
                if start < e0 && s0 < end {
                    diags.push(Diagnostic::new(
                        Code::P025,
                        span.clone(),
                        format!(
                            "staging region [{start}, {end}) overlaps layer {other}'s \
                             live region [{s0}, {e0})"
                        ),
                    ));
                }
            }
            windows.push((start, end, index));
            // Resident-conv ring schedule: must match the shared
            // `conv_staging` contract, or staging row `iy` into slot
            // `iy % kernel` clobbers a halo row the current output row
            // still gathers from.
            if let ProgramOp::Conv {
                in_ch,
                kernel,
                in_w,
                out_w,
                resident,
                chunk_pixels,
                ..
            } = layer.op
            {
                let cs = conv_staging(in_ch, kernel, in_w, out_w, plan.buffer_words);
                let contract_chunk = if cs.resident { cs.chunk_pixels } else { 1 };
                if resident != cs.resident || chunk_pixels != contract_chunk {
                    diags.push(Diagnostic::new(
                        Code::P026,
                        span.clone(),
                        format!(
                            "ring schedule (resident={resident}, chunk_pixels=\
                             {chunk_pixels}) deviates from the conv_staging contract \
                             (resident={}, chunk_pixels={contract_chunk}): a halo row \
                             still read by the current output row would be clobbered \
                             or the ring overruns its residency budget",
                            cs.resident
                        ),
                    ));
                }
                if resident {
                    let slot_w = (in_ch * in_w) as u64;
                    let chunk_words = (chunk_pixels * in_ch * kernel * kernel) as u64;
                    let ring_avail = declared.saturating_sub(chunk_words);
                    let slots = ring_avail.checked_div(slot_w).unwrap_or(0);
                    if chunk_pixels == 0 || slots < kernel as u64 {
                        diags.push(Diagnostic::new(
                            Code::P026,
                            span,
                            format!(
                                "declared staging window holds {slots} ring slot(s) \
                                 but the schedule keys rows by `iy % {kernel}`: a \
                                 still-live halo row shares a slot with a newer row"
                            ),
                        ));
                    }
                }
            }
        }
    }
    diags
}

/// Pass 3(c): shared-tile write-after-alias proof.
fn check_aliasing(plan: &ProgramPlan, mapping: &NetworkMapping) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (index, layer) in plan.layers.iter().enumerate() {
        let armed_aliased =
            layer.tiles.iter().filter(|t| t.aliased && t.write_armed).count();
        if armed_aliased > 0 {
            let refs = mapping.layers.get(index).map_or(1, |l| l.tile_refs.max(1));
            let strategy = mapping
                .layers
                .get(index)
                .map_or(MappingStrategy::ReplicateDense, |l| l.strategy);
            diags.push(Diagnostic::new(
                Code::P029,
                Span::Layer { index, entity: layer.op.describe() },
                format!(
                    "{armed_aliased} tile(s) left write-armed (Program function) while \
                     their pair is shared ({} layout, {refs} placement(s) per tile): a \
                     program/calibrate would write through the alias — copy-on-write \
                     has not triggered",
                    strategy.name()
                ),
            ));
        }
    }
    diags
}

/// Pass 3(d): stage-channel graph deadlock/stall check. The engine's
/// channel graph is a linear chain of forward edges (one per stage
/// boundary, unbounded) closed by a recycle edge carrying
/// `recycle_credits` initial tokens from the final stage back to stage
/// 0. That graph is deadlock-free for every batch size iff the chain is
/// exactly linear — contiguous layer spans on strictly increasing banks
/// (a duplicate bank leaves a stage with no thread, so its channel
/// never drains) — and at least one credit exists to admit the first
/// packet.
fn check_stage_graph(plan: &ProgramPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if plan.stages.is_empty() {
        diags.push(Diagnostic::new(
            Code::P030,
            Span::Network,
            "plan has no stages: the channel chain is empty and no packet can flow",
        ));
        return diags;
    }
    let mut expected = 0usize;
    let mut prev_bank: Option<usize> = None;
    for (index, stage) in plan.stages.iter().enumerate() {
        let span = Span::Stage { index, bank: stage.bank };
        if stage.layers.1 <= stage.layers.0 {
            diags.push(Diagnostic::new(
                Code::P030,
                span.clone(),
                format!(
                    "empty layer span [{}, {}): the stage thread would forward \
                     nothing and the chain stalls",
                    stage.layers.0, stage.layers.1
                ),
            ));
        }
        if stage.layers.0 != expected {
            diags.push(Diagnostic::new(
                Code::P030,
                span.clone(),
                format!(
                    "layer span starts at {} but the previous stage ended at \
                     {expected}: the forward channel chain is broken",
                    stage.layers.0
                ),
            ));
        }
        expected = stage.layers.1.max(expected);
        if let Some(prev) = prev_bank {
            if stage.bank <= prev {
                diags.push(Diagnostic::new(
                    Code::P030,
                    span,
                    format!(
                        "bank {} does not increase over the previous stage's bank \
                         {prev}: the duplicate stage gets no thread and its channel \
                         never drains",
                        stage.bank
                    ),
                ));
            }
        }
        prev_bank = Some(stage.bank);
    }
    if expected != plan.layers.len() {
        diags.push(Diagnostic::new(
            Code::P030,
            Span::Network,
            format!(
                "stages cover {expected} of {} layers: packets reaching the final \
                 stage would carry an unfinished activation",
                plan.layers.len()
            ),
        ));
    }
    if plan.stages.len() > 1 && plan.recycle_credits == 0 {
        diags.push(Diagnostic::new(
            Code::P030,
            Span::Network,
            "recycle edge carries zero credits: stage 0 blocks on recv before the \
             final stage can ever feed the recycle channel — deadlock on the first \
             packet",
        ));
    }
    diags
}

/// Pass 3 entry point: abstractly interprets the lowered command
/// program `plan` against the `spec`/`target`/`mapping` it was compiled
/// from, running the four sub-analyses (region dataflow, interval
/// precision, shared-tile aliasing, stage-graph deadlock freedom).
/// Diagnostics come back in the canonical deterministic order.
pub fn analyze_program(
    spec: &NetworkSpec,
    target: &Target,
    mapping: &NetworkMapping,
    plan: &ProgramPlan,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if plan.layers.len() != spec.layers().len() {
        diags.push(Diagnostic::new(
            Code::P001,
            Span::Network,
            format!(
                "plan has {} layers but the spec has {}",
                plan.layers.len(),
                spec.layers().len()
            ),
        ));
    }
    diags.extend(check_regions(plan));
    diags.extend(crate::intervals::check_intervals(target, plan));
    diags.extend(check_aliasing(plan, mapping));
    diags.extend(check_stage_graph(plan));
    sort_diagnostics(&mut diags);
    diags
}
