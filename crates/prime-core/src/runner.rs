//! Command-driven network execution through the bank controller.
//!
//! [`FfExecutor`](crate::FfExecutor) proves numerical fidelity; this
//! module proves *protocol* fidelity: a network is lowered into the
//! program plan the static verifier checks
//! ([`prime_analyze::lower_shapes`]: stage spans, ops, buffer
//! addresses, tile counts), compiled against it (per-layer quantized
//! weights, SA windows, requantization shifts), programmed into a
//! [`BankController`]'s mats, and then every inference is driven purely
//! by Table I commands — `load` staging inputs from the Buffer subarray
//! into mat latches, mat computation, `store` returning outputs — with
//! row-tile merging on the precision-control adder and integer
//! requantization between layers, exactly the dataflow of paper Fig. 5(a).
//!
//! Three layer kinds execute on the device:
//!
//! * **Fully-connected** — one crossbar evaluation per inference, the
//!   original FC datapath.
//! * **Convolution** — the kernel matrix (`in_ch * k * k` rows, one
//!   composed column pair per output map) is programmed once; each
//!   output pixel stages its im2col window through the FF buffer and
//!   runs one crossbar evaluation, zero padding entering as code 0 on
//!   the unsigned input drivers.
//! * **Pooling** — no mats: max pooling reduces the staged window with
//!   repeated 4:1 winner-code steps on the [`MaxPoolUnit`] (Fig. 4 C),
//!   and mean pooling is the 1/n-weight dot product of the column-mux
//!   units, `level * sum(codes)` with the quantized reciprocal level.
//!
//! The runner supports the activation functions PRIME's output units
//! implement exactly in the integer domain (ReLU and identity); sigmoid
//! networks are covered by the analog-calibrated
//! [`FfExecutor`](crate::FfExecutor) path.
//!
//! Large-scale networks (paper §IV-B) do not fit one bank: the compiler's
//! [`Mapping::pipeline`](prime_compiler::NetworkMapping) splits them into
//! stages, each assigned to a bank. [`CommandRunner::compile_pipeline`]
//! consumes that stage list as the single source of truth for *where*
//! layers run, placing each stage's tiles on its assigned bank, and the
//! stage-level execution API ([`run_stage`](CommandRunner::run_stage) and
//! friends) lets [`PrimeSystem`](crate::PrimeSystem) move activation
//! vectors between banks at stage boundaries and overlap stages across a
//! batch. FC stage boundaries are buffer-resident; conv/pool feature
//! maps stay Mem-resident and stream through the boundary staging
//! regions in bursts of at most
//! [`WINDOW_IO_CHUNK_WORDS`](prime_analyze::WINDOW_IO_CHUNK_WORDS)
//! words, so wide feature maps never require full-width buffer
//! residency.

use prime_analyze::{static_shift, ProgramLayer, ProgramOp, ProgramPlan, ProgramTile, Target};
use prime_circuits::{ComposingScheme, MaxPoolUnit, PrecisionController};
use prime_compiler::{MappingStrategy, PipelineStage};
use prime_device::NoiseModel;
use prime_mem::{BufAddr, Command, FfAddr, MatAddr, MatFunction};
use prime_nn::{Activation, Layer, Network};

use crate::controller::{BankController, BankScratch};
use crate::error::PrimeError;

/// The analog-evaluation knob threaded through the merge kernel: `None`
/// evaluates tiles digitally, `Some` routes every tile through the noisy
/// voltage/conductance domain with the given read-noise model and RNG.
type Analog<'a, R> = Option<(&'a NoiseModel, &'a mut R)>;

/// Concrete digital instantiation for call sites without an RNG.
type NoAnalog<'a> = Analog<'a, rand::rngs::SmallRng>;

/// Reusable buffers for [`CommandRunner::infer_into`].
///
/// Bundles everything one inference needs — staged layer codes, the
/// per-output precision-control registers of the tile merge, and the
/// bank-level compute scratch. Buffers only grow, so after the first
/// inference a reused scratch makes the whole forward pass perform zero
/// steady-state heap allocation. One scratch belongs with one bank
/// (thread-per-bank execution keeps them paired).
#[derive(Debug, Default, Clone)]
pub struct InferScratch {
    /// Current layer's input codes.
    codes: Vec<i64>,
    /// Next layer's codes (swapped with `codes` between layers).
    next_codes: Vec<i64>,
    /// Per-output precision-control registers of the merge adder.
    merge_acc: Vec<PrecisionController>,
    /// Full-precision merged sums of the current layer.
    merged: Vec<i64>,
    /// One tile's post-output-unit results.
    tile_out: Vec<i64>,
    /// One im2col / pooling window's staged codes.
    window: Vec<i64>,
    /// Mirror of a resident conv layer's buffer row ring (the gather
    /// logic's addressable copy of the staged input rows).
    ring: Vec<i64>,
    /// One staged input row slot read back from the buffer.
    row_slot: Vec<i64>,
    /// A chunk of gathered im2col windows, pixel-major.
    win_chunk: Vec<i64>,
    /// Per-pixel merge registers for a window chunk.
    chunk_acc: Vec<PrecisionController>,
    /// Controller-side compute buffers.
    bank: BankScratch,
}

impl InferScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        InferScratch::default()
    }
}

/// Wall-clock breakdown of one inference's conv layers, in nanoseconds,
/// accumulated over every conv layer executed. Filled by
/// [`CommandRunner::infer_profiled_into`]; the stopwatches sit outside
/// the datapath, so outputs stay bit-identical to the unprofiled paths.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ConvPhases {
    /// Staging input rows (resident) or windows (per-pixel fallback)
    /// into the FF buffer.
    pub stage_ns: f64,
    /// Gathering im2col windows from the staged rows / activation.
    pub gather_ns: f64,
    /// Mat evaluation: latch loads, crossbar passes, merge accumulate.
    pub eval_ns: f64,
    /// Requantize-and-emit of merged sums.
    pub emit_ns: f64,
}

impl ConvPhases {
    /// Total nanoseconds across the four phases.
    pub fn total_ns(&self) -> f64 {
        self.stage_ns + self.gather_ns + self.eval_ns + self.emit_ns
    }
}

/// Starts a phase stopwatch only when profiling is enabled.
#[inline]
fn phase_mark(enabled: bool) -> Option<std::time::Instant> {
    enabled.then(std::time::Instant::now)
}

/// Credits an elapsed phase stopwatch to one [`ConvPhases`] field.
#[inline]
fn phase_add(
    sink: &mut Option<&mut ConvPhases>,
    started: Option<std::time::Instant>,
    field: impl FnOnce(&mut ConvPhases) -> &mut f64,
) {
    if let (Some(t), Some(ph)) = (started, sink.as_deref_mut()) {
        *field(ph) += t.elapsed().as_secs_f64() * 1e9;
    }
}

/// One mat-sized tile of a placed layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlannedTile {
    mat: MatAddr,
    /// Row span [start, end) within the layer's input vector.
    rows: (usize, usize),
    /// Column span [start, end) within the layer's output vector.
    cols: (usize, usize),
    /// The tile's SA shift (read back after programming).
    shift: u8,
}

/// What compiling added to one lowered layer on its bank: the programmed
/// tiles and the bias.
#[derive(Debug, Clone, PartialEq)]
struct PlacedLayer {
    tiles: Vec<PlannedTile>,
    /// Bias in merged full-precision units.
    bias_units: Vec<i64>,
}

/// A compiled, programmed, command-driven network.
///
/// # Examples
///
/// ```no_run
/// use prime_core::{BankController, CommandRunner};
/// use prime_nn::{Activation, FullyConnected, Layer, Network};
///
/// let net = Network::new(vec![
///     Layer::Fc(FullyConnected::new(16, 8, Activation::Relu)),
///     Layer::Fc(FullyConnected::new(8, 4, Activation::Identity)),
/// ])?;
/// let mut controller = BankController::new(2, 64, 4096, 8192);
/// let mut runner = CommandRunner::compile(&net, &mut controller, &[0.5; 16])?;
/// let out = runner.infer(&mut controller, &[0.5; 16])?;
/// assert_eq!(out.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRunner {
    /// The lowered program ([`prime_analyze::lower_shapes`]: stage spans,
    /// ops, buffer addresses, tile counts) with the calibrated
    /// requantization shifts, activations and bias peaks filled in.
    program: ProgramPlan,
    /// Bank-side state per layer, index-aligned with `program.layers`.
    placed: Vec<PlacedLayer>,
    /// Scale of the network-input quantization (codes = value / scale).
    input_scale: f32,
    /// Combined output scale: real value = merged units * this.
    output_scale: f32,
    mats_used: usize,
    /// The composing scheme of the mats the plan was compiled for — the
    /// single source of truth for input/output code bounds.
    scheme: ComposingScheme,
}

impl CommandRunner {
    /// Compiles `net` (FC/conv/pool, ReLU/identity activations only)
    /// onto the controller's FF mats: quantizes weights, programs tiles,
    /// and calibrates every SA window and requantization shift with the
    /// representative `calibration_input`.
    ///
    /// The whole network is placed as one stage on this bank; use
    /// [`compile_pipeline`](Self::compile_pipeline) for networks that
    /// span banks.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for unsupported layers or
    /// if the controller has too few mats.
    pub fn compile(
        net: &Network,
        controller: &mut BankController,
        calibration_input: &[f32],
    ) -> Result<Self, PrimeError> {
        Self::compile_pipeline(net, std::slice::from_mut(controller), &[], calibration_input)
    }

    /// Deploy-side capability check: one [`Code::P017`] diagnostic per
    /// layer the command runner cannot execute on the device (currently
    /// sigmoid activations, whose output units are not integer-exact).
    /// [`PrimeSystem::deploy`](crate::PrimeSystem) refuses deployment on
    /// any finding, so no network silently deploys with layers the
    /// runner cannot run.
    ///
    /// [`Code::P017`]: prime_analyze::Code::P017
    pub fn capability_diagnostics(net: &Network) -> Vec<prime_analyze::Diagnostic> {
        let mut diags = Vec::new();
        for (index, layer) in net.layers().iter().enumerate() {
            let activation = match layer {
                Layer::Fc(fc) => fc.activation(),
                Layer::Conv(conv) => conv.activation(),
                Layer::Pool(_) => continue,
            };
            if matches!(activation, Activation::Sigmoid) {
                diags.push(prime_analyze::Diagnostic::new(
                    prime_analyze::Code::P017,
                    prime_analyze::Span::Layer { index, entity: layer.describe() },
                    "sigmoid is not integer-exact on the output units; the command \
                     runner executes ReLU/identity only (use FfExecutor)",
                ));
            }
        }
        diags
    }

    /// Compiles `net` across `banks` following the compiler's
    /// `Mapping::pipeline` stage list (paper §IV-B large-scale mapping):
    /// each stage's layers are tiled, programmed, and calibrated on the
    /// stage's assigned bank. The stage list is the single source of
    /// truth for *where* layers run; an empty `pipeline` places the whole
    /// network on `banks[0]` (the small/medium-scale case).
    ///
    /// Placement does not change arithmetic: a pipelined plan produces
    /// bit-identical outputs to the same network compiled onto one
    /// sufficiently large bank.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for unsupported layers, a
    /// malformed stage list, or a stage needing more FF mats than its
    /// bank provides — all before any mat is written.
    pub fn compile_pipeline(
        net: &Network,
        banks: &mut [BankController],
        pipeline: &[PipelineStage],
        calibration_input: &[f32],
    ) -> Result<Self, PrimeError> {
        let (target, program) = Self::lower(net, banks, pipeline, calibration_input)?;
        let mats_per_bank = target.hw.mats_per_bank();
        if let Some(diag) = prime_analyze::check_stage_tiles(&program, mats_per_bank).first() {
            return Err(PrimeError::MappingMismatch { reason: diag.to_string() });
        }
        Self::compile_lowered(net, banks, &target, program, calibration_input)
    }

    /// Everything compiling derives and checks before a mat is written:
    /// the calibration width, stage legality (the shared
    /// [`prime_analyze::check_pipeline`] rules the static verifier
    /// applies), the integer-exact activations, and the shape-only
    /// lowering [`prime_analyze::lower_shapes`] of `net` along `pipeline`
    /// on the geometry of `banks` (all banks are built alike). Returns
    /// that geometry's analysis target and the lowered plan, with each
    /// layer's `relu` set.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for any failed check.
    pub(crate) fn lower(
        net: &Network,
        banks: &[BankController],
        pipeline: &[PipelineStage],
        calibration_input: &[f32],
    ) -> Result<(Target, ProgramPlan), PrimeError> {
        let mismatch = |reason: String| PrimeError::MappingMismatch { reason };
        let Some(first_bank) = banks.first() else {
            return Err(mismatch("cannot compile onto zero banks".to_string()));
        };
        // The calibration vector stands in for a representative input:
        // SA and requant calibration index it as the first layer's
        // activation, so a wrong-sized one is a caller error.
        if calibration_input.len() != net.inputs() {
            return Err(mismatch(format!(
                "{} calibration values for a {}-input network",
                calibration_input.len(),
                net.inputs()
            )));
        }
        if !pipeline.is_empty() {
            let diags =
                prime_analyze::check_pipeline(pipeline, net.layers().len(), banks.len(), None);
            if let Some(err) = diags.iter().find(|d| d.severity == prime_analyze::Severity::Error)
            {
                return Err(mismatch(err.to_string()));
            }
        }
        let spec = net.to_spec("runner").map_err(PrimeError::Nn)?;
        let target = first_bank.analysis_target(banks.len());
        let mut program = prime_analyze::lower_shapes(&spec, &target, pipeline).map_err(mismatch)?;
        for (lowered, layer) in program.layers.iter_mut().zip(net.layers()) {
            lowered.relu = match layer {
                Layer::Fc(fc) => Self::integer_activation(fc.activation())?,
                Layer::Conv(conv) => Self::integer_activation(conv.activation())?,
                Layer::Pool(_) => false,
            };
        }
        Ok((target, program))
    }

    /// Programs and calibrates the lowered `program` (from
    /// [`lower`](Self::lower) on the same `banks`, whose stages were
    /// checked to fit their banks) onto `banks`: quantizes each weight
    /// layer, programs the tiles the lowering counted, calibrates every
    /// SA window and requantization shift with `calibration_input`, and
    /// derives the bias units. Shapes, stage spans and buffer addresses
    /// are taken from the plan as lowered.
    pub(crate) fn compile_lowered(
        net: &Network,
        banks: &mut [BankController],
        target: &Target,
        mut program: ProgramPlan,
        calibration_input: &[f32],
    ) -> Result<Self, PrimeError> {
        // Code bounds come from the mats' composing scheme (Pin/Po), not
        // hard-coded constants — the quantizer and every downstream clamp
        // share this single source of truth.
        let scheme = target.scheme;
        let mat_dims = (target.hw.mat_rows, target.hw.mat_cols);
        let in_code_max = f32::from(scheme.input_code_max());
        let code_max = i64::from(scheme.input_code_max());
        let mut placed = Vec::with_capacity(program.layers.len());
        let mut mats_used = 0usize;

        // Input quantization scale from the calibration vector.
        let in_max = calibration_input
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-6);
        let input_scale = in_max / in_code_max;
        let mut codes: Vec<i64> = calibration_input
            .iter()
            .map(|&v| ((v / input_scale).round().clamp(0.0, in_code_max)) as i64)
            .collect();
        let mut value_scale = input_scale; // real value of one input code unit

        for stage in &program.stages {
            let controller = &mut banks[stage.bank];
            // Mat allocation restarts per bank: each stage owns its
            // bank's FF mats (and, in the plan, its Buffer subarray).
            let mut next_mat = 0usize;
            for index in stage.layers.0..stage.layers.1 {
                let (Some(layer), Some(lowered)) =
                    (net.layers().get(index), program.layers.get_mut(index))
                else {
                    return Err(PrimeError::Internal {
                        reason: format!("stage span reaches past layer {index}"),
                    });
                };
                let relu = lowered.relu;
                // The crossbar matrix the lowering counted tiles for.
                let weight_dims =
                    lowered.op.weight_shape(lowered.inputs, lowered.outputs).unwrap_or_default();
                let (tiles, bias_units, requant_shift) = match (layer, lowered.op) {
                    (Layer::Fc(fc), ProgramOp::Fc) => {
                        let (inputs, outputs) = (lowered.inputs, lowered.outputs);
                        // Quantize weights to composed 8-bit codes.
                        let w = fc.weights().data();
                        let w_max = w.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
                        let w_scale = w_max / 255.0;
                        let weight_code = |r: usize, c: usize| {
                            // Weight matrix is [outputs, inputs]; the
                            // crossbar wants [inputs, outputs].
                            ((w[c * inputs + r] / w_scale).round().clamp(-255.0, 255.0)) as i32
                        };
                        let tiles = Self::program_tiles(
                            controller,
                            &mut next_mat,
                            weight_dims,
                            mat_dims,
                            &weight_code,
                            std::slice::from_ref(&codes),
                        )?;
                        // Bias in full-precision units:
                        // bias_real / (value_scale * w_scale).
                        let unit = value_scale * w_scale;
                        let bias_units: Vec<i64> = fc
                            .bias()
                            .iter()
                            .map(|&b| (b / unit).round() as i64)
                            .collect();
                        // Calibrate the requantization shift from the
                        // merged calibration activations.
                        let merged = Self::merge_reference(
                            &tiles,
                            controller,
                            &codes,
                            outputs,
                            &bias_units,
                        )?;
                        let out_max =
                            merged.iter().map(|&v| v.abs()).max().unwrap_or(1).max(1);
                        let requant_shift = static_shift(i128::from(out_max), &scheme);
                        // Advance the calibration activations.
                        codes = merged
                            .into_iter()
                            .map(|v| {
                                let v = if relu { v.max(0) } else { v };
                                (v >> requant_shift).clamp(-code_max, code_max)
                            })
                            .collect();
                        value_scale = unit * f32::from(requant_shift).exp2();
                        (tiles, bias_units, requant_shift)
                    }
                    (
                        Layer::Conv(conv),
                        op @ ProgramOp::Conv { in_ch, out_ch, kernel: k, out_h: oh, out_w: ow, .. },
                    ) => {
                        let rows = in_ch * k * k;
                        let w = conv.weights().data();
                        let w_max = w.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
                        let w_scale = w_max / 255.0;
                        let weight_code = |r: usize, c: usize| {
                            // Row r walks (ic, ky, kx); weights are
                            // [out_ch, in_ch, k, k] and the crossbar wants
                            // the kernel matrix [rows, out_ch].
                            let (ic, rem) = (r / (k * k), r % (k * k));
                            let value = w[((c * in_ch + ic) * k + rem / k) * k + rem % k];
                            ((value / w_scale).round().clamp(-255.0, 255.0)) as i32
                        };
                        // Every im2col window of the calibration
                        // activation: SA and requant calibration sweep the
                        // layer's real working set.
                        let mut windows: Vec<Vec<i64>> = Vec::with_capacity(oh * ow);
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let mut win = Vec::with_capacity(rows);
                                Self::gather_window(&op, &codes, oy, ox, &mut win);
                                windows.push(win);
                            }
                        }
                        let tiles = Self::program_tiles(
                            controller,
                            &mut next_mat,
                            weight_dims,
                            mat_dims,
                            &weight_code,
                            &windows,
                        )?;
                        let unit = value_scale * w_scale;
                        let bias_units: Vec<i64> = conv
                            .bias()
                            .iter()
                            .map(|&b| (b / unit).round() as i64)
                            .collect();
                        // Requant calibration over every output pixel.
                        let mut merged_all = Vec::with_capacity(windows.len());
                        let mut out_max = 1i64;
                        for win in &windows {
                            let m = Self::merge_reference(
                                &tiles, controller, win, out_ch, &bias_units,
                            )?;
                            out_max =
                                out_max.max(m.iter().map(|&v| v.abs()).max().unwrap_or(1));
                            merged_all.push(m);
                        }
                        let requant_shift = static_shift(i128::from(out_max), &scheme);
                        let mut next = vec![0i64; lowered.outputs];
                        for (p, m) in merged_all.iter().enumerate() {
                            let (oy, ox) = (p / ow, p % ow);
                            for (oc, &v) in m.iter().enumerate() {
                                let v = if relu { v.max(0) } else { v };
                                next[(oc * oh + oy) * ow + ox] =
                                    (v >> requant_shift).clamp(-code_max, code_max);
                            }
                        }
                        codes = next;
                        value_scale = unit * f32::from(requant_shift).exp2();
                        (tiles, bias_units, requant_shift)
                    }
                    (
                        Layer::Pool(_),
                        op @ ProgramOp::Pool { mean, channels, in_h, in_w, window, level },
                    ) => {
                        let n = window * window;
                        let (oh, ow) = (in_h / window, in_w / window);
                        // Digital preview of the pooled calibration
                        // activations, then the calibrated requant shift.
                        let mut next = vec![0i64; lowered.outputs];
                        let mut winbuf = Vec::with_capacity(n);
                        let mut out_max = 1i64;
                        for c in 0..channels {
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    Self::gather_pool_window(
                                        &op, &codes, c, oy, ox, &mut winbuf,
                                    );
                                    let m = Self::pool_reduce(&op, &mut winbuf)?;
                                    out_max = out_max.max(m.abs());
                                    next[(c * oh + oy) * ow + ox] = m;
                                }
                            }
                        }
                        // Winner-code max selects among existing codes, so
                        // only the mean's level-scaled sums need requant.
                        let requant_shift =
                            if mean { static_shift(i128::from(out_max), &scheme) } else { 0 };
                        for v in &mut next {
                            *v = (*v >> requant_shift).clamp(-code_max, code_max);
                        }
                        codes = next;
                        if mean {
                            // Software rescaling divides the 1/n level
                            // back out, so the mean stays exact.
                            value_scale = value_scale * f32::from(requant_shift).exp2()
                                / (level * n as i64) as f32;
                        }
                        (Vec::new(), Vec::new(), requant_shift)
                    }
                    _ => {
                        return Err(PrimeError::Internal {
                            reason: format!("lowered op of layer {index} does not match it"),
                        });
                    }
                };
                lowered.requant_shift = requant_shift;
                lowered.bias_peak =
                    bias_units.iter().map(|b| b.saturating_abs()).max().unwrap_or(0);
                placed.push(PlacedLayer { tiles, bias_units });
            }
            mats_used += next_mat;
        }
        Ok(CommandRunner {
            program,
            placed,
            input_scale,
            output_scale: value_scale,
            mats_used,
            scheme,
        })
    }

    /// Maps an activation onto the integer-exact output units.
    fn integer_activation(activation: Activation) -> Result<bool, PrimeError> {
        match activation {
            Activation::Relu => Ok(true),
            Activation::Identity => Ok(false),
            Activation::Sigmoid => Err(PrimeError::MappingMismatch {
                reason: "command runner covers the integer-exact output units \
                         (ReLU/identity); use FfExecutor for sigmoid networks"
                    .to_string(),
            }),
        }
    }

    /// Programs a `rows`x`cols` quantized weight matrix onto the bank's
    /// FF mats, one mat per [`prime_analyze::weight_tiles`] tile,
    /// allocated in order from `next_mat`: writes each tile's composed
    /// codes and calibrates its SA window against every calibration
    /// vector (the full input for FC, every im2col window for conv).
    fn program_tiles(
        controller: &mut BankController,
        next_mat: &mut usize,
        weight_dims: (usize, usize),
        mat_dims: (usize, usize),
        weight_code: &dyn Fn(usize, usize) -> i32,
        calib: &[Vec<i64>],
    ) -> Result<Vec<PlannedTile>, PrimeError> {
        let mats_per_subarray = controller.mats_per_subarray();
        let mut tiles = Vec::new();
        for ((r0, r1), (c0, c1)) in prime_analyze::weight_tiles(weight_dims, mat_dims) {
            let mat = MatAddr {
                subarray: *next_mat / mats_per_subarray,
                mat: *next_mat % mats_per_subarray,
            };
            *next_mat += 1;
            let (tr, tc) = (r1 - r0, c1 - c0);
            let mut tile_codes = Vec::with_capacity(tr * tc);
            for r in r0..r1 {
                for c in c0..c1 {
                    tile_codes.push(weight_code(r, c));
                }
            }
            controller.execute(Command::SetFunction {
                mat,
                function: MatFunction::Program,
            })?;
            controller
                .mat_mut(mat)
                .program_composed(&tile_codes, tr, tc)?;
            controller.execute(Command::SetFunction {
                mat,
                function: MatFunction::Compute,
            })?;
            // Calibrate the SA window on the calibration codes.
            let mut max_abs = 1i64;
            for v in calib {
                for c in 0..tc {
                    let mut acc = 0i64;
                    for (r, &x) in v[r0..r1].iter().enumerate() {
                        acc += x * i64::from(tile_codes[r * tc + c]);
                    }
                    max_abs = max_abs.max(acc.abs());
                }
            }
            controller.mat_mut(mat).calibrate_output_window(2 * max_abs);
            let shift = controller.mat(mat).output_shift();
            tiles.push(PlannedTile {
                mat,
                rows: (r0, r1),
                cols: (c0, c1),
                shift,
            });
        }
        Ok(tiles)
    }

    /// Number of pipeline stages the plan executes (1 for single-bank
    /// plans).
    pub fn stage_count(&self) -> usize {
        self.program.stages.len()
    }

    /// The bank (index into the compile-time bank slice) hosting `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_bank(&self, stage: usize) -> usize {
        self.program.stages[stage].bank
    }

    /// Banks the plan occupies (`last stage bank + 1`).
    pub fn banks_spanned(&self) -> usize {
        self.program.stages.last().map_or(1, |s| s.bank + 1)
    }

    /// Replicates this compiled plan onto `dst`, a geometry-identical
    /// bank group, without recompiling: quantization, SA windows, and
    /// requantization shifts are carried by the plan itself, so a replica
    /// only needs the programmed crossbar pairs. Each placed tile's mat
    /// is either deep-copied (replicate-dense: the replica owns its
    /// bytes) or adopted by reference (shared-kernel: the replica's mat
    /// aliases the source tile, adding zero bank state) according to the
    /// per-layer `layer_strategies` — the compiler's
    /// [`MappingStrategy`] selection, indexed by global layer; missing
    /// entries fall back to replicate-dense.
    ///
    /// Outputs are bit-identical to an independent compile onto `dst`:
    /// weight programming is deterministic, so a copied pair equals a
    /// reprogrammed one, and an aliased pair is read through exactly the
    /// codes every placement would have programmed.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if either group is
    /// narrower than the banks this plan spans.
    pub fn replicate_onto(
        &self,
        src: &[BankController],
        dst: &mut [BankController],
        layer_strategies: &[MappingStrategy],
    ) -> Result<Self, PrimeError> {
        let spanned = self.banks_spanned();
        if src.len() < spanned || dst.len() < spanned {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "plan spans {spanned} bank(s) but the replica groups hold {} -> {}",
                    src.len(),
                    dst.len()
                ),
            });
        }
        for stage in &self.program.stages {
            for (index, layer) in self
                .placed
                .iter()
                .enumerate()
                .take(stage.layers.1)
                .skip(stage.layers.0)
            {
                let strategy = layer_strategies
                    .get(index)
                    .copied()
                    .unwrap_or(MappingStrategy::ReplicateDense);
                for tile in &layer.tiles {
                    let source = src[stage.bank].mat(tile.mat);
                    *dst[stage.bank].mat_mut(tile.mat) = match strategy {
                        // `FfMat::clone` aliases the programmed pair
                        // behind a shared refcounted handle.
                        MappingStrategy::SharedKernel => source.clone(),
                        MappingStrategy::ReplicateDense => source.deep_clone(),
                    };
                }
            }
        }
        Ok(self.clone())
    }

    /// Buffer address of `stage`'s input staging region and the logical
    /// width of its input vector.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_input(&self, stage: usize) -> (BufAddr, usize) {
        let layer = &self.program.layers[self.program.stages[stage].layers.0];
        (BufAddr(layer.in_addr), layer.inputs)
    }

    /// Buffer address of `stage`'s output staging region and the logical
    /// width of its output vector (the source of the inter-bank transfer
    /// into the next stage).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_output(&self, stage: usize) -> (BufAddr, usize) {
        let layer = &self.program.layers[self.program.stages[stage].layers.1 - 1];
        (BufAddr(layer.out_addr), layer.outputs)
    }

    /// Burst width for streaming a conv/pool boundary activation through
    /// the buffer (shared with the verifier's P019 accounting).
    fn io_chunk(words: usize) -> usize {
        words.clamp(1, prime_analyze::WINDOW_IO_CHUNK_WORDS)
    }

    /// Moves `stage`'s boundary output out of its bank, leaving it in
    /// `codes`. An FC boundary is buffer-resident: the stored vector at
    /// the stage output address is loaded back in full. A conv/pool
    /// boundary's feature map stays Mem-resident — `codes` already holds
    /// it after [`run_stage`](Self::run_stage) — and the transfer streams
    /// through the boundary staging region in bursts.
    ///
    /// # Errors
    ///
    /// Returns buffer errors on an undersized buffer.
    pub fn stage_transfer_out(
        &self,
        stage: usize,
        bank: &mut BankController,
        codes: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        let layer = &self.program.layers[self.program.stages[stage].layers.1 - 1];
        let out_addr = BufAddr(layer.out_addr);
        match layer.op {
            ProgramOp::Fc => bank.transfer_out(out_addr, layer.outputs, codes),
            _ => {
                let chunk = Self::io_chunk(layer.outputs);
                for burst in codes.chunks(chunk) {
                    bank.buffer_mut().store(out_addr, burst)?;
                }
                Ok(())
            }
        }
    }

    /// Counterpart of [`stage_transfer_out`](Self::stage_transfer_out):
    /// lands `codes` in `stage`'s bank — the full vector at the stage
    /// input address for an FC boundary, bursts through the staging
    /// region for a conv/pool boundary.
    ///
    /// # Errors
    ///
    /// Returns buffer errors on an undersized buffer.
    pub fn stage_transfer_in(
        &self,
        stage: usize,
        bank: &mut BankController,
        codes: &[i64],
    ) -> Result<(), PrimeError> {
        let layer = &self.program.layers[self.program.stages[stage].layers.0];
        let in_addr = BufAddr(layer.in_addr);
        match layer.op {
            ProgramOp::Fc => bank.transfer_in(in_addr, codes),
            _ => {
                let chunk = Self::io_chunk(layer.inputs);
                for burst in codes.chunks(chunk) {
                    bank.buffer_mut().store(in_addr, burst)?;
                }
                Ok(())
            }
        }
    }

    /// FF mats the plan occupies.
    pub fn mats_used(&self) -> usize {
        self.mats_used
    }

    /// One short label per planned layer, in execution order across all
    /// stages — the row labels for per-layer timing breakdowns from
    /// [`infer_timed_into`](Self::infer_timed_into).
    pub fn layer_labels(&self) -> Vec<String> {
        self.program
            .layers
            .iter()
            .map(|layer| {
                let relu = if layer.relu { " relu" } else { "" };
                match layer.op {
                    ProgramOp::Fc => format!("fc {}-{}{relu}", layer.inputs, layer.outputs),
                    ProgramOp::Conv { in_ch, out_ch, kernel, out_h, out_w, .. } => {
                        format!("conv{kernel}x{kernel} {in_ch}-{out_ch}ch {out_h}x{out_w}{relu}")
                    }
                    ProgramOp::Pool { mean, channels, window, .. } => {
                        let kind = if mean { "meanpool" } else { "maxpool" };
                        format!("{kind}{window}x{window} {channels}ch")
                    }
                }
            })
            .collect()
    }

    /// The compiled program as the Pass-3 abstract interpreter sees it:
    /// the lowered plan the runner executes, with its calibrated shifts,
    /// plus the live post-deploy tile state (alias sharing and mat
    /// function) read from `banks` — the same bank slice the plan was
    /// compiled against, in stage order. Read-only: no command is issued
    /// and no mat state changes.
    pub fn program_plan(&self, banks: &[BankController]) -> ProgramPlan {
        let mut plan = self.program.clone();
        let ProgramPlan { layers, stages, .. } = &mut plan;
        for stage in stages.iter() {
            let bank = banks.get(stage.bank);
            for index in stage.layers.0..stage.layers.1 {
                let (Some(layer), Some(placed)) = (layers.get_mut(index), self.placed.get(index))
                else {
                    continue;
                };
                layer.tiles = placed
                    .tiles
                    .iter()
                    .map(|tile| {
                        bank.map_or_else(ProgramTile::default, |b| {
                            let mat = b.mat(tile.mat);
                            ProgramTile {
                                aliased: mat.shared_tile().is_some(),
                                write_armed: mat.function() == MatFunction::Program,
                            }
                        })
                    })
                    .collect();
            }
        }
        plan
    }

    /// Full-precision merged sums of one layer on given input codes,
    /// via actual mat computation (used for calibration and inference).
    fn merge_reference(
        tiles: &[PlannedTile],
        controller: &mut BankController,
        codes: &[i64],
        outputs: usize,
        bias_units: &[i64],
    ) -> Result<Vec<i64>, PrimeError> {
        let mut acc = Vec::new();
        let mut bank = BankScratch::new();
        let mut tile_out = Vec::new();
        let mut out = Vec::new();
        Self::merge_reference_into(
            tiles,
            controller,
            codes,
            outputs,
            bias_units,
            NoAnalog::None,
            &mut acc,
            &mut bank,
            &mut tile_out,
            &mut out,
        )?;
        Ok(out)
    }

    /// [`merge_reference`](Self::merge_reference) into caller-owned
    /// buffers: the merge adder's precision-control registers, the bank
    /// compute scratch, and the output all reuse their storage, so the
    /// merge kernel performs zero steady-state heap allocation.
    #[allow(clippy::too_many_arguments)]
    fn merge_reference_into<R: rand::Rng + ?Sized>(
        tiles: &[PlannedTile],
        controller: &mut BankController,
        codes: &[i64],
        outputs: usize,
        bias_units: &[i64],
        mut analog: Analog<'_, R>,
        acc: &mut Vec<PrecisionController>,
        bank: &mut BankScratch,
        tile_out: &mut Vec<i64>,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        acc.clear();
        acc.resize_with(outputs, PrecisionController::new);
        for (o, &b) in acc.iter_mut().zip(bias_units) {
            o.accumulate(b, 0);
        }
        for tile in tiles {
            let (r0, r1) = tile.rows;
            // Stage the tile's input slice through the buffer: the
            // `load` command moves it into the mat latch.
            let slice = &codes[r0..r1];
            controller.buffer_mut().store(BufAddr(0), slice)?;
            controller.execute(Command::Load {
                from: BufAddr(0),
                to: FfAddr {
                    mat: tile.mat,
                    offset: 0,
                },
                bytes: (slice.len() * 8) as u64,
            })?;
            match analog.as_mut() {
                None => controller.compute_mat_into(tile.mat, bank, tile_out)?,
                Some((noise, rng)) => controller
                    .compute_mat_analog_into(tile.mat, noise, &mut **rng, bank, tile_out)?,
            }
            let (c0, c1) = tile.cols;
            for (i, &v) in tile_out.iter().enumerate().take(c1 - c0) {
                // Expand the tile's truncated code back to full-precision
                // units before the merge add.
                acc[c0 + i].accumulate(v, tile.shift);
            }
        }
        out.clear();
        out.extend(acc.iter().map(|m| m.value()));
        Ok(())
    }

    /// Gathers the im2col window of conv output pixel `(oy, ox)` from a
    /// `[in_ch, in_h, in_w]` activation into `window`. Padded taps push
    /// code 0 — exactly the contribution of a grounded input line on the
    /// unsigned drivers.
    fn gather_window(
        op: &ProgramOp,
        codes: &[i64],
        oy: usize,
        ox: usize,
        window: &mut Vec<i64>,
    ) {
        window.clear();
        let ProgramOp::Conv { in_ch, kernel, padding, in_h, in_w, .. } = *op else {
            return;
        };
        for ic in 0..in_ch {
            for ky in 0..kernel {
                for kx in 0..kernel {
                    // Out-of-range taps wrap past in_h/in_w and read 0.
                    let iy = (oy + ky).wrapping_sub(padding);
                    let ix = (ox + kx).wrapping_sub(padding);
                    window.push(if iy < in_h && ix < in_w {
                        codes[(ic * in_h + iy) * in_w + ix]
                    } else {
                        0
                    });
                }
            }
        }
    }

    /// Appends the im2col window of conv output pixel `(oy, ox)` gathered
    /// from the resident row ring onto `out` (no clear — chunk gathers
    /// append pixel-major). The ring keys input rows by `iy % kernel`
    /// with `[slot][in_ch][in_w]` layout; for every row the ring holds,
    /// the result is element-identical to
    /// [`gather_window`](Self::gather_window) on the raw activation.
    fn gather_window_from_ring(
        op: &ProgramOp,
        ring: &[i64],
        oy: usize,
        ox: usize,
        out: &mut Vec<i64>,
    ) {
        let ProgramOp::Conv { in_ch, kernel, padding, in_h, in_w, .. } = *op else {
            return;
        };
        for ic in 0..in_ch {
            for ky in 0..kernel {
                // Out-of-range taps wrap past in_h/in_w and read 0.
                let iy = (oy + ky).wrapping_sub(padding);
                for kx in 0..kernel {
                    let ix = (ox + kx).wrapping_sub(padding);
                    out.push(if iy < in_h && ix < in_w {
                        ring[((iy % kernel) * in_ch + ic) * in_w + ix]
                    } else {
                        0
                    });
                }
            }
        }
    }

    /// Gathers the pooling window of output element `(c, oy, ox)` from a
    /// `[channels, in_h, in_w]` activation into `window`.
    fn gather_pool_window(
        op: &ProgramOp,
        codes: &[i64],
        c: usize,
        oy: usize,
        ox: usize,
        window: &mut Vec<i64>,
    ) {
        window.clear();
        let ProgramOp::Pool { in_h, in_w, window: win, .. } = *op else {
            return;
        };
        for wy in 0..win {
            for wx in 0..win {
                window.push(codes[(c * in_h + oy * win + wy) * in_w + ox * win + wx]);
            }
        }
    }

    /// Reduces one staged pooling window to its merged (pre-requant)
    /// value: the 1/n-weight dot product `level * sum(codes)` for mean
    /// pooling, or the winner-code maximum for max pooling. Mutates
    /// `window` in place (the max reduction reuses it as its register
    /// file), so the inference hot path allocates nothing.
    fn pool_reduce(op: &ProgramOp, window: &mut Vec<i64>) -> Result<i64, PrimeError> {
        let ProgramOp::Pool { mean, level, .. } = *op else {
            return Err(PrimeError::Internal {
                reason: "pool_reduce on a non-pool layer".to_string(),
            });
        };
        if window.is_empty() {
            return Err(PrimeError::Internal {
                reason: "empty pooling window".to_string(),
            });
        }
        if mean {
            return Ok(level * window.iter().sum::<i64>());
        }
        // Repeated 4:1 winner-code steps; short groups are padded with
        // their first element, exactly as MaxPoolUnit::pool does.
        let unit = MaxPoolUnit::new();
        while window.len() > 1 {
            let mut w = 0;
            for g in (0..window.len()).step_by(4) {
                let end = (g + 4).min(window.len());
                let mut group = [window[g]; 4];
                group[..end - g].copy_from_slice(&window[g..end]);
                window[w] = unit.pool4(group);
                w += 1;
            }
            window.truncate(w);
        }
        Ok(window[0])
    }

    /// Routes one merged value to its destination: requantized codes for
    /// an interior layer, real-valued output for the network's final
    /// layer.
    fn emit(
        layer: &ProgramLayer,
        final_unit: f32,
        fwd_code_max: i64,
        idx: usize,
        v: i64,
        next_codes: &mut [i64],
        final_out: &mut Option<&mut Vec<f32>>,
    ) {
        let v = if layer.relu { v.max(0) } else { v };
        match final_out {
            Some(out) => out[idx] = v as f32 * final_unit,
            None => {
                next_codes[idx] = (v >> layer.requant_shift).clamp(-fwd_code_max, fwd_code_max)
            }
        }
    }

    /// Runs one inference entirely through controller commands: the input
    /// is quantized, staged into the Buffer subarray, flowed through
    /// every planned layer, and the final merged values are rescaled to
    /// real outputs.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer(
        &mut self,
        controller: &mut BankController,
        input: &[f32],
    ) -> Result<Vec<f32>, PrimeError> {
        let mut scratch = InferScratch::new();
        let mut out = Vec::new();
        self.infer_into(controller, input, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`infer`](Self::infer) into caller-owned buffers.
    ///
    /// `out` is cleared and refilled with the real-valued outputs. With a
    /// reused `scratch`, every buffer the forward pass touches — layer
    /// codes, mat latches, driver passes, the merge adder's registers —
    /// reuses its storage, so steady-state inference performs zero heap
    /// allocation (the command log is the only growth). Bit-identical to
    /// [`infer`](Self::infer).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer_into(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), PrimeError> {
        self.infer_impl(controller, input, NoAnalog::None, scratch, out, None, None)
    }

    /// [`infer_into`](Self::infer_into) that additionally records the
    /// wall-clock nanoseconds each planned layer took, one entry per
    /// entry of [`layer_labels`](Self::layer_labels) (`layer_ns` is
    /// cleared first). The stopwatch sits outside the layer datapath, so
    /// outputs stay bit-identical to [`infer_into`](Self::infer_into).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer_timed_into(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
        layer_ns: &mut Vec<f64>,
    ) -> Result<(), PrimeError> {
        layer_ns.clear();
        self.infer_impl(controller, input, NoAnalog::None, scratch, out, Some(layer_ns), None)
    }

    /// [`infer_timed_into`](Self::infer_timed_into) that additionally
    /// accumulates the per-phase conv breakdown (stage / gather /
    /// evaluate / emit) into `conv_phases` (reset first). The phase
    /// stopwatches only run on conv layers and mark whole rows and
    /// chunks, so the per-layer totals stay representative.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_profiled_into(
        &self,
        controller: &mut BankController,
        input: &[f32],
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
        layer_ns: &mut Vec<f64>,
        conv_phases: &mut ConvPhases,
    ) -> Result<(), PrimeError> {
        layer_ns.clear();
        *conv_phases = ConvPhases::default();
        self.infer_impl(
            controller,
            input,
            NoAnalog::None,
            scratch,
            out,
            Some(layer_ns),
            Some(conv_phases),
        )
    }

    /// Noisy-hardware variant of [`infer_into`](Self::infer_into): every
    /// tile evaluates through the analog voltage/conductance domain with
    /// read noise drawn from `rng` (plus any programming noise already
    /// applied to the mats). Tiles draw from `rng` in plan order — for
    /// resident conv layers, window chunks outer, then tiles, then the
    /// chunk's pixels (per-pixel fallback layers keep pixels outer,
    /// tiles inner) — and only sensed bitlines draw noise, so a given
    /// RNG state makes the inference reproducible. The draw order was
    /// re-pinned by the weight-stationary conv schedule (DESIGN.md §11);
    /// all engines share this loop and stay mutually bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] or mat errors on a
    /// mis-sized input.
    pub fn infer_noisy_into<R: rand::Rng + ?Sized>(
        &self,
        controller: &mut BankController,
        input: &[f32],
        noise: &NoiseModel,
        rng: &mut R,
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
    ) -> Result<(), PrimeError> {
        self.infer_impl(controller, input, Some((noise, rng)), scratch, out, None, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn infer_impl<R: rand::Rng + ?Sized>(
        &self,
        controller: &mut BankController,
        input: &[f32],
        analog: Analog<'_, R>,
        scratch: &mut InferScratch,
        out: &mut Vec<f32>,
        layer_ns: Option<&mut Vec<f64>>,
        conv_phases: Option<&mut ConvPhases>,
    ) -> Result<(), PrimeError> {
        if self.banks_spanned() > 1 {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "plan spans {} banks; drive it stage by stage or via PrimeSystem",
                    self.banks_spanned()
                ),
            });
        }
        // Single-bank plans hold exactly one stage covering every layer;
        // the scratch's resident code vector is the traveling activation.
        let mut codes = std::mem::take(&mut scratch.codes);
        let result = self.quantize_input(input, &mut codes).and_then(|()| {
            self.run_stage_impl(
                0,
                controller,
                analog,
                scratch,
                &mut codes,
                Some(out),
                layer_ns,
                conv_phases,
            )
        });
        scratch.codes = codes;
        result
    }

    /// Quantizes a real-valued network input into stage-0 input codes
    /// using the plan's calibrated input scale. `codes` is cleared and
    /// refilled (no steady-state allocation when reused).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] on a mis-sized input or an
    /// empty plan.
    pub fn quantize_input(&self, input: &[f32], codes: &mut Vec<i64>) -> Result<(), PrimeError> {
        let first = self.program.layers.first().ok_or(PrimeError::MappingMismatch {
            reason: "empty plan".to_string(),
        })?;
        if input.len() != first.inputs {
            return Err(PrimeError::MappingMismatch {
                reason: format!("{} inputs for a {}-input plan", input.len(), first.inputs),
            });
        }
        let in_code_max = f32::from(self.scheme.input_code_max());
        codes.clear();
        codes.extend(
            input
                .iter()
                .map(|&v| ((v / self.input_scale).round().clamp(0.0, in_code_max)) as i64),
        );
        Ok(())
    }

    /// Runs one pipeline stage on its bank: `codes` enters holding the
    /// stage's input activation codes and leaves holding its output codes
    /// (non-final stages). The final stage instead fills `out` with the
    /// real-valued network outputs. Digital path.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for a missing `out` on the
    /// final stage, or buffer/mat errors.
    pub fn run_stage(
        &self,
        stage: usize,
        bank: &mut BankController,
        scratch: &mut InferScratch,
        codes: &mut Vec<i64>,
        out: Option<&mut Vec<f32>>,
    ) -> Result<(), PrimeError> {
        self.run_stage_impl(stage, bank, NoAnalog::None, scratch, codes, out, None, None)
    }

    /// Noisy-hardware variant of [`run_stage`](Self::run_stage): every
    /// tile of the stage evaluates through the analog domain drawing read
    /// noise from `rng`. Each stage's bank owns its own RNG stream, so
    /// overlapped (pipelined) and serial execution consume identical
    /// per-bank sequences.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] for a missing `out` on the
    /// final stage, or buffer/mat errors.
    #[allow(clippy::too_many_arguments)]
    pub fn run_stage_noisy<R: rand::Rng + ?Sized>(
        &self,
        stage: usize,
        bank: &mut BankController,
        noise: &NoiseModel,
        rng: &mut R,
        scratch: &mut InferScratch,
        codes: &mut Vec<i64>,
        out: Option<&mut Vec<f32>>,
    ) -> Result<(), PrimeError> {
        self.run_stage_impl(stage, bank, Some((noise, rng)), scratch, codes, out, None, None)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_stage_impl<R: rand::Rng + ?Sized>(
        &self,
        stage: usize,
        bank: &mut BankController,
        mut analog: Analog<'_, R>,
        scratch: &mut InferScratch,
        codes: &mut Vec<i64>,
        mut out: Option<&mut Vec<f32>>,
        mut layer_ns: Option<&mut Vec<f64>>,
        mut conv_phases: Option<&mut ConvPhases>,
    ) -> Result<(), PrimeError> {
        let (start, end) = self.program.stages[stage].layers;
        let last_global = self.program.layers.len() - 1;
        let fwd_code_max = i64::from(self.scheme.input_code_max());
        let InferScratch {
            next_codes,
            merge_acc,
            merged,
            tile_out,
            window,
            ring,
            row_slot,
            win_chunk,
            chunk_acc,
            bank: bank_scratch,
            ..
        } = scratch;
        let layers = self.program.layers[start..end].iter().zip(&self.placed[start..end]);
        for (i, (layer, placed)) in layers.enumerate() {
            let stopwatch = layer_ns.is_some().then(std::time::Instant::now);
            let is_final = start + i == last_global;
            let final_unit = self.output_scale / f32::from(layer.requant_shift).exp2();
            // Prepare the destination for indexed writes: the real-valued
            // network output for the final layer, requantized codes
            // otherwise.
            let mut final_out: Option<&mut Vec<f32>> = if is_final {
                let o = out.as_deref_mut().ok_or(PrimeError::MappingMismatch {
                    reason: "final stage requires an output buffer".to_string(),
                })?;
                o.clear();
                o.resize(layer.outputs, 0.0);
                Some(o)
            } else {
                next_codes.clear();
                next_codes.resize(layer.outputs, 0);
                None
            };
            match layer.op {
                ProgramOp::Fc => {
                    bank.buffer_mut().store(BufAddr(layer.in_addr), codes)?;
                    Self::merge_reference_into(
                        &placed.tiles,
                        bank,
                        codes,
                        layer.outputs,
                        &placed.bias_units,
                        analog.as_mut().map(|(noise, rng)| (*noise, &mut **rng)),
                        merge_acc,
                        bank_scratch,
                        tile_out,
                        merged,
                    )?;
                    for (o, &v) in merged.iter().enumerate() {
                        Self::emit(
                            layer, final_unit, fwd_code_max, o, v, next_codes, &mut final_out,
                        );
                    }
                }
                ProgramOp::Conv {
                    in_ch,
                    kernel,
                    padding,
                    in_h,
                    in_w,
                    out_h,
                    out_w,
                    resident,
                    chunk_pixels,
                    ..
                } => {
                    let out_ch = layer.outputs / (out_h * out_w);
                    if resident {
                        // Weight-stationary row-reuse schedule: the
                        // kernel input rows a row of output pixels reads
                        // stay resident in the FF buffer (halo rows
                        // reused across output rows), windows gather from
                        // the staged rows, and evaluation batches
                        // chunk_pixels output pixels so each tile's latch
                        // load amortizes over the whole chunk. The fixed
                        // chunk-then-tile-then-pixel order keeps per-bank
                        // RNG draws identical across the serial, batched,
                        // and pipelined engines.
                        let window_rows = in_ch * kernel * kernel;
                        let slot_w = in_ch * in_w;
                        let ring_base = layer.in_addr;
                        let chunk_addr = BufAddr(ring_base + (kernel * slot_w) as u64);
                        ring.clear();
                        ring.resize(kernel * slot_w, 0);
                        let mut staged_rows = 0usize;
                        for oy in 0..out_h {
                            // Stage the not-yet-resident input rows this
                            // output row reads; rows staged for earlier
                            // output rows are the reused halo.
                            let need = (oy + kernel).saturating_sub(padding).min(in_h);
                            let t = phase_mark(conv_phases.is_some());
                            while staged_rows < need {
                                let iy = staged_rows;
                                let slot = (iy % kernel) * slot_w;
                                for ic in 0..in_ch {
                                    let base = (ic * in_h + iy) * in_w;
                                    bank.buffer_mut().store(
                                        BufAddr(ring_base + (slot + ic * in_w) as u64),
                                        &codes[base..base + in_w],
                                    )?;
                                }
                                // Read the slot back: gathers consume the
                                // buffer-resident rows through the
                                // scratch mirror.
                                bank.buffer_mut().load_into(
                                    BufAddr(ring_base + slot as u64),
                                    slot_w,
                                    row_slot,
                                )?;
                                ring[slot..slot + slot_w].copy_from_slice(row_slot);
                                staged_rows += 1;
                            }
                            phase_add(&mut conv_phases, t, |ph| &mut ph.stage_ns);
                            let mut ox0 = 0usize;
                            while ox0 < out_w {
                                let cp = chunk_pixels.min(out_w - ox0);
                                let t = phase_mark(conv_phases.is_some());
                                win_chunk.clear();
                                for p in 0..cp {
                                    Self::gather_window_from_ring(
                                        &layer.op, ring, oy, ox0 + p, win_chunk,
                                    );
                                }
                                phase_add(&mut conv_phases, t, |ph| &mut ph.gather_ns);
                                let t = phase_mark(conv_phases.is_some());
                                bank.buffer_mut().store(chunk_addr, win_chunk)?;
                                phase_add(&mut conv_phases, t, |ph| &mut ph.stage_ns);
                                let t = phase_mark(conv_phases.is_some());
                                chunk_acc.clear();
                                chunk_acc.resize_with(cp * out_ch, PrecisionController::new);
                                for p in 0..cp {
                                    let regs = &mut chunk_acc[p * out_ch..(p + 1) * out_ch];
                                    for (o, &b) in regs.iter_mut().zip(&placed.bias_units) {
                                        o.accumulate(b, 0);
                                    }
                                }
                                for tile in &placed.tiles {
                                    let (r0, r1) = tile.rows;
                                    // One latch load serves every pixel
                                    // of the chunk for this tile.
                                    bank.execute(Command::Load {
                                        from: chunk_addr,
                                        to: FfAddr { mat: tile.mat, offset: 0 },
                                        bytes: (win_chunk.len() * 8) as u64,
                                    })?;
                                    let (c0, c1) = tile.cols;
                                    for p in 0..cp {
                                        let win = &win_chunk
                                            [p * window_rows + r0..p * window_rows + r1];
                                        match analog.as_mut() {
                                            None => bank.compute_mat_words_into(
                                                tile.mat,
                                                win,
                                                bank_scratch,
                                                tile_out,
                                            )?,
                                            Some((noise, rng)) => bank
                                                .compute_mat_words_analog_into(
                                                    tile.mat,
                                                    win,
                                                    noise,
                                                    &mut **rng,
                                                    bank_scratch,
                                                    tile_out,
                                                )?,
                                        }
                                        for (i, &v) in
                                            tile_out.iter().enumerate().take(c1 - c0)
                                        {
                                            chunk_acc[p * out_ch + c0 + i]
                                                .accumulate(v, tile.shift);
                                        }
                                    }
                                }
                                phase_add(&mut conv_phases, t, |ph| &mut ph.eval_ns);
                                let t = phase_mark(conv_phases.is_some());
                                for p in 0..cp {
                                    let ox = ox0 + p;
                                    for oc in 0..out_ch {
                                        Self::emit(
                                            layer,
                                            final_unit,
                                            fwd_code_max,
                                            (oc * out_h + oy) * out_w + ox,
                                            chunk_acc[p * out_ch + oc].value(),
                                            next_codes,
                                            &mut final_out,
                                        );
                                    }
                                }
                                phase_add(&mut conv_phases, t, |ph| &mut ph.emit_ns);
                                ox0 += cp;
                            }
                        }
                    } else {
                        // Per-pixel fallback (diagnostic P020): the row
                        // ring exceeds the residency budget, so every
                        // output pixel stages its full im2col window.
                        // Output pixels outer, tiles inner keeps per-bank
                        // RNG draws identical across engines.
                        for oy in 0..out_h {
                            for ox in 0..out_w {
                                let t = phase_mark(conv_phases.is_some());
                                Self::gather_window(&layer.op, codes, oy, ox, window);
                                phase_add(&mut conv_phases, t, |ph| &mut ph.gather_ns);
                                let t = phase_mark(conv_phases.is_some());
                                bank.buffer_mut().store(BufAddr(layer.in_addr), window)?;
                                phase_add(&mut conv_phases, t, |ph| &mut ph.stage_ns);
                                let t = phase_mark(conv_phases.is_some());
                                Self::merge_reference_into(
                                    &placed.tiles,
                                    bank,
                                    window,
                                    out_ch,
                                    &placed.bias_units,
                                    analog.as_mut().map(|(noise, rng)| (*noise, &mut **rng)),
                                    merge_acc,
                                    bank_scratch,
                                    tile_out,
                                    merged,
                                )?;
                                phase_add(&mut conv_phases, t, |ph| &mut ph.eval_ns);
                                let t = phase_mark(conv_phases.is_some());
                                for (oc, &v) in merged.iter().enumerate() {
                                    Self::emit(
                                        layer,
                                        final_unit,
                                        fwd_code_max,
                                        (oc * out_h + oy) * out_w + ox,
                                        v,
                                        next_codes,
                                        &mut final_out,
                                    );
                                }
                                phase_add(&mut conv_phases, t, |ph| &mut ph.emit_ns);
                            }
                        }
                    }
                }
                ProgramOp::Pool { channels, in_h, in_w, window: win, .. } => {
                    let (oh, ow) = (in_h / win, in_w / win);
                    for c in 0..channels {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                Self::gather_pool_window(&layer.op, codes, c, oy, ox, window);
                                // Stage the candidates for the pooling
                                // unit's registers.
                                bank.buffer_mut().store(BufAddr(layer.in_addr), window)?;
                                let m = Self::pool_reduce(&layer.op, window)?;
                                Self::emit(
                                    layer,
                                    final_unit,
                                    fwd_code_max,
                                    (c * oh + oy) * ow + ox,
                                    m,
                                    next_codes,
                                    &mut final_out,
                                );
                            }
                        }
                    }
                }
            }
            if let (Some(started), Some(sink)) = (stopwatch, layer_ns.as_deref_mut()) {
                sink.push(started.elapsed().as_secs_f64() * 1e9);
            }
            if is_final {
                return Ok(());
            }
            std::mem::swap(codes, next_codes);
            // FC activations are buffer-resident between layers; conv and
            // pool feature maps stay in the Mem subarrays (only windows
            // and boundary bursts touch the buffer).
            if matches!(layer.op, ProgramOp::Fc) {
                bank.buffer_mut().store(BufAddr(layer.out_addr), codes)?;
            }
        }
        Ok(())
    }

    /// Runs one inference through a multi-bank pipelined plan serially:
    /// stage by stage, moving the activation vector between banks with
    /// the stage transfer protocol at each boundary. Allocating
    /// convenience wrapper (the batched engines in
    /// [`PrimeSystem`](crate::PrimeSystem) reuse scratches instead).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if `banks` is shorter than
    /// the plan's span, or buffer/mat errors.
    pub fn infer_pipelined(
        &self,
        banks: &mut [BankController],
        input: &[f32],
    ) -> Result<Vec<f32>, PrimeError> {
        if banks.len() < self.banks_spanned() {
            return Err(PrimeError::MappingMismatch {
                reason: format!(
                    "plan spans {} banks but {} were provided",
                    self.banks_spanned(),
                    banks.len()
                ),
            });
        }
        let mut scratch = InferScratch::new();
        let mut codes = Vec::new();
        let mut out = Vec::new();
        self.quantize_input(input, &mut codes)?;
        let last = self.stage_count() - 1;
        for s in 0..=last {
            let bank_idx = self.stage_bank(s);
            if s > 0 {
                let prev = self.stage_bank(s - 1);
                let (head, tail) = banks.split_at_mut(bank_idx);
                self.stage_transfer_out(s - 1, &mut head[prev], &mut codes)?;
                self.stage_transfer_in(s, &mut tail[0], &codes)?;
            }
            let out_opt = if s == last { Some(&mut out) } else { None };
            self.run_stage_impl(
                s,
                &mut banks[bank_idx],
                NoAnalog::None,
                &mut scratch,
                &mut codes,
                out_opt,
                None,
                None,
            )?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_nn::{Conv2d, FullyConnected, Pool2d, PoolKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn relu_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Fc(FullyConnected::new(20, 12, Activation::Relu)),
            Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    /// A CNN-1-class stack: padded conv, winner-code max pooling,
    /// 1/n-weight mean pooling, and an FC head.
    fn conv_pool_net(rng: &mut SmallRng) -> Network {
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 3, 3, 8, 8, 1, Activation::Relu)),
            Layer::Pool(Pool2d::new(PoolKind::Max, 3, 8, 8, 2)),
            Layer::Pool(Pool2d::new(PoolKind::Mean, 3, 4, 4, 2)),
            Layer::Fc(FullyConnected::new(12, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(rng);
        net
    }

    fn image_input(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 7 + seed * 5) % 13) as f32) / 13.0)
            .collect()
    }

    #[test]
    fn command_runner_tracks_software_outputs() {
        let mut rng = SmallRng::seed_from_u64(21);
        let net = relu_net(&mut rng);
        let input: Vec<f32> = (0..20).map(|i| ((i * 7 % 13) as f32) / 13.0).collect();
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let mut runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.25, "hw {a} vs sw {b}");
        }
        assert!(runner.mats_used() >= 2);
    }

    #[test]
    fn conv_pool_runner_tracks_software_outputs() {
        let mut rng = SmallRng::seed_from_u64(31);
        let net = conv_pool_net(&mut rng);
        let input = image_input(64, 1);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let mut runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        // Conv needs one mat, the FC head another; pooling needs none.
        assert_eq!(runner.mats_used(), 2);
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        assert_eq!(hw.len(), sw.len());
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.3, "hw {a} vs sw {b}");
        }
    }

    #[test]
    fn conv_runner_agrees_on_argmax_across_inputs() {
        let mut rng = SmallRng::seed_from_u64(32);
        let net = conv_pool_net(&mut rng);
        let calib = image_input(64, 0);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let mut runner = CommandRunner::compile(&net, &mut controller, &calib).unwrap();
        let mut agree = 0;
        let trials = 10;
        for t in 0..trials {
            let input = image_input(64, t + 1);
            let hw = runner.infer(&mut controller, &input).unwrap();
            let sw = net.forward(&input).unwrap();
            if argmax(&hw) == argmax(&sw) {
                agree += 1;
            }
        }
        assert!(agree >= trials - 2, "only {agree}/{trials} argmax agreements");
    }

    #[test]
    fn large_mean_pool_windows_compile_after_rounding() {
        // A 4x4 mean-pool window (n = 16) used to collapse to a zero
        // conductance level under floor quantization; round-to-nearest
        // keeps it programmable.
        let mut rng = SmallRng::seed_from_u64(33);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 2, 3, 8, 8, 1, Activation::Relu)),
            Layer::Pool(Pool2d::new(PoolKind::Mean, 2, 8, 8, 4)),
            Layer::Fc(FullyConnected::new(8, 3, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let input = image_input(64, 2);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let mut runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let hw = runner.infer(&mut controller, &input).unwrap();
        let sw = net.forward(&input).unwrap();
        let max = sw.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(0.2);
        for (a, b) in hw.iter().zip(&sw) {
            assert!((a - b).abs() / max < 0.3, "hw {a} vs sw {b}");
        }
    }

    #[test]
    fn command_runner_agrees_on_argmax_across_inputs() {
        let mut rng = SmallRng::seed_from_u64(22);
        let net = relu_net(&mut rng);
        let calib: Vec<f32> = vec![0.5; 20];
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let mut runner = CommandRunner::compile(&net, &mut controller, &calib).unwrap();
        let mut agree = 0;
        let trials = 10;
        for t in 0..trials {
            let input: Vec<f32> = (0..20)
                .map(|i| (((i + t) * 11 % 17) as f32) / 17.0)
                .collect();
            let hw = runner.infer(&mut controller, &input).unwrap();
            let sw = net.forward(&input).unwrap();
            if argmax(&hw) == argmax(&sw) {
                agree += 1;
            }
        }
        assert!(
            agree >= trials - 2,
            "only {agree}/{trials} argmax agreements"
        );
    }

    #[test]
    fn command_runner_rejects_unsupported_layers() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut net = Network::new(vec![Layer::Fc(FullyConnected::new(
            8,
            4,
            Activation::Sigmoid,
        ))])
        .expect("widths match");
        net.init_random(&mut rng);
        let mut controller = BankController::new(1, 4, 1024, 1024);
        let err = CommandRunner::compile(&net, &mut controller, &[0.5; 8]);
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
    }

    #[test]
    fn timed_inference_matches_plain_and_labels_layers() {
        let mut rng = SmallRng::seed_from_u64(31);
        let net = conv_pool_net(&mut rng);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let runner =
            CommandRunner::compile(&net, &mut controller, &[0.5; 64]).expect("fits one bank");
        let input = image_input(64, 3);
        let mut scratch = InferScratch::new();
        let (mut timed, mut plain, mut ns) = (Vec::new(), Vec::new(), Vec::new());
        runner
            .infer_timed_into(&mut controller, &input, &mut scratch, &mut timed, &mut ns)
            .expect("runs");
        runner
            .infer_into(&mut controller, &input, &mut scratch, &mut plain)
            .expect("runs");
        assert_eq!(timed, plain, "the stopwatch must not perturb the datapath");
        let labels = runner.layer_labels();
        assert_eq!(ns.len(), labels.len(), "one timing entry per planned layer");
        assert_eq!(
            labels,
            vec![
                "conv3x3 1-3ch 8x8 relu",
                "maxpool2x2 3ch",
                "meanpool2x2 3ch",
                "fc 12-4",
            ]
        );
        assert!(ns.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn command_runner_rejects_wrong_sized_calibration() {
        let mut rng = SmallRng::seed_from_u64(29);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 2, 3, 6, 6, 1, Activation::Relu)),
            Layer::Fc(FullyConnected::new(72, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        // 3 calibration values for a 36-input network: a typed error,
        // not an out-of-bounds index in window gathering.
        let err = CommandRunner::compile(&net, &mut controller, &[0.5; 3]);
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
    }

    #[test]
    fn command_runner_rejects_sigmoid_conv() {
        let mut rng = SmallRng::seed_from_u64(26);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 2, 3, 6, 6, 1, Activation::Sigmoid)),
            Layer::Fc(FullyConnected::new(72, 4, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let err = CommandRunner::compile(&net, &mut controller, &[0.5; 36]);
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
    }

    #[test]
    fn capability_diagnostics_flag_sigmoid_layers() {
        let net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 2, 3, 6, 6, 1, Activation::Sigmoid)),
            Layer::Pool(Pool2d::new(PoolKind::Max, 2, 6, 6, 2)),
            Layer::Fc(FullyConnected::new(18, 4, Activation::Sigmoid)),
        ])
        .expect("widths match");
        let diags = CommandRunner::capability_diagnostics(&net);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == prime_analyze::Code::P017));
        let clean = conv_pool_net(&mut SmallRng::seed_from_u64(1));
        assert!(CommandRunner::capability_diagnostics(&clean).is_empty());
    }

    #[test]
    fn command_runner_respects_mat_budget() {
        let mut rng = SmallRng::seed_from_u64(24);
        // 600-input layer needs 3 row tiles; give the controller only 2 mats.
        let mut net = Network::new(vec![Layer::Fc(FullyConnected::new(
            600,
            4,
            Activation::Identity,
        ))])
        .expect("widths match");
        net.init_random(&mut rng);
        let mut controller = BankController::new(1, 2, 2048, 1024);
        let err = CommandRunner::compile(&net, &mut controller, &vec![0.5; 600]);
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
    }

    #[test]
    fn inference_is_driven_by_commands() {
        let mut rng = SmallRng::seed_from_u64(25);
        let net = relu_net(&mut rng);
        let input: Vec<f32> = vec![0.4; 20];
        let mut controller = BankController::new(2, 8, 4096, 8192);
        let mut runner = CommandRunner::compile(&net, &mut controller, &input).unwrap();
        let before = controller.log().len();
        runner.infer(&mut controller, &input).unwrap();
        let issued = controller.log().len() - before;
        // At least one load per tile per layer.
        assert!(
            issued >= runner.mats_used(),
            "only {issued} commands issued"
        );
    }

    fn argmax(v: &[f32]) -> usize {
        let mut best = 0;
        for (i, &x) in v.iter().enumerate() {
            if x > v[best] {
                best = i;
            }
        }
        best
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Row-ring gathering is element-identical to the naive im2col
        /// gather for every output pixel, across padded shapes. The test
        /// stages rows into the ring exactly as the resident executor
        /// does: slot `iy % kernel`, layout `[slot][in_ch][in_w]`,
        /// staging up to `need` rows before each output row.
        #[test]
        fn ring_gather_matches_naive_window(
            in_ch in 1usize..4,
            kernel in 1usize..5,
            pad in 0usize..3,
            in_h in 5usize..11,
            in_w in 5usize..11,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let padding = pad.min(kernel.saturating_sub(1));
            let out_h = in_h + 2 * padding - kernel + 1;
            let out_w = in_w + 2 * padding - kernel + 1;
            let op = ProgramOp::Conv {
                in_ch,
                out_ch: 1,
                kernel,
                padding,
                in_h,
                in_w,
                out_h,
                out_w,
                resident: true,
                chunk_pixels: 1,
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let codes: Vec<i64> =
                (0..in_ch * in_h * in_w).map(|_| rng.gen_range(0..64)).collect();
            let mut ring = vec![0i64; kernel * in_ch * in_w];
            let mut staged_rows = 0usize;
            let (mut from_ring, mut naive) = (Vec::new(), Vec::new());
            for oy in 0..out_h {
                let need = (oy + kernel).saturating_sub(padding).min(in_h);
                while staged_rows < need {
                    let iy = staged_rows;
                    let slot = iy % kernel;
                    for ic in 0..in_ch {
                        let src = (ic * in_h + iy) * in_w;
                        let dst = (slot * in_ch + ic) * in_w;
                        ring[dst..dst + in_w].copy_from_slice(&codes[src..src + in_w]);
                    }
                    staged_rows += 1;
                }
                for ox in 0..out_w {
                    from_ring.clear();
                    CommandRunner::gather_window_from_ring(&op, &ring, oy, ox, &mut from_ring);
                    CommandRunner::gather_window(&op, &codes, oy, ox, &mut naive);
                    proptest::prop_assert_eq!(
                        &from_ring, &naive,
                        "pixel ({}, {}) k{} p{} {}x{}", oy, ox, kernel, padding, in_h, in_w
                    );
                }
            }
        }
    }

    /// The chunked weight-stationary path (row ring resident) and the
    /// per-pixel fallback produce bit-identical quantized outputs on a
    /// CNN-1-shaped stack. The fallback is forced by a buffer too small
    /// for the residency budget, not by a code switch, so this also pins
    /// the `conv_staging` decision for both controller geometries.
    #[test]
    fn chunked_and_per_pixel_conv_paths_are_bit_identical() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut net = Network::new(vec![
            Layer::Conv(Conv2d::new(1, 5, 5, 28, 28, 0, Activation::Relu)),
            Layer::Pool(Pool2d::new(PoolKind::Max, 5, 24, 24, 2)),
            Layer::Fc(FullyConnected::new(720, 10, Activation::Identity)),
        ])
        .expect("widths match");
        net.init_random(&mut rng);
        let input = image_input(28 * 28, 5);

        // Ring 5*28 + chunk 10*25 = 390 words: inside 4096/4, outside 1024/4.
        let mut resident_ctl = BankController::new(2, 8, 4096, 8192);
        let resident_runner =
            CommandRunner::compile(&net, &mut resident_ctl, &input).expect("compiles");
        let mut fallback_ctl = BankController::new(2, 8, 1024, 8192);
        let fallback_runner =
            CommandRunner::compile(&net, &mut fallback_ctl, &input).expect("compiles");
        assert!(
            matches!(
                resident_runner.program.layers[0].op,
                ProgramOp::Conv { resident: true, chunk_pixels: 10, .. }
            ),
            "4096-word buffer must take the weight-stationary schedule"
        );
        assert!(
            matches!(
                fallback_runner.program.layers[0].op,
                ProgramOp::Conv { resident: false, chunk_pixels: 1, .. }
            ),
            "1024-word buffer must fall back to per-pixel staging"
        );

        let mut scratch = InferScratch::new();
        let (mut chunked, mut per_pixel) = (Vec::new(), Vec::new());
        resident_runner
            .infer_into(&mut resident_ctl, &input, &mut scratch, &mut chunked)
            .expect("runs");
        fallback_runner
            .infer_into(&mut fallback_ctl, &input, &mut scratch, &mut per_pixel)
            .expect("runs");
        assert_eq!(
            chunked, per_pixel,
            "chunked and per-pixel conv paths must be digitally bit-identical"
        );
    }
}
