//! The PRIME controller (paper §III-C, Fig. 4 E).
//!
//! Decodes Table I commands and drives the peripheral circuits of one
//! bank's FF subarrays: datapath configuration (function selection,
//! bypass switches, input-source selection) and data-flow control
//! (`fetch`/`commit` between Mem subarrays and the Buffer subarray,
//! `load`/`store` between the Buffer subarray and FF latches/registers).
//! It also sequences the morphing protocol of §III-A2: migrate data out,
//! program weights, reconfigure, compute, wrap up.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use prime_mem::{BufAddr, Command, InputSource, MatAddr, MatFunction};

use crate::buffer::BufferSubarray;
use crate::error::PrimeError;
use crate::ff_mat::{FfMat, MatScratch};

/// Words per memory row modelled by the controller's Mem-subarray space.
const MEM_ROW_WORDS: usize = 32;

/// A snapshot of one mat's memory-mode contents, taken while the mat
/// computes (the §III-A2 data migration).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct MigratedMat {
    rows: Vec<Vec<bool>>,
}

/// Reusable buffers for [`BankController::compute_mat_into`].
///
/// Holds the clamped input codes, the mat-level scratch, and the raw
/// composed outputs. Buffers only grow (the `prime-device` scratch-buffer
/// contract), so after the first compute at a given geometry repeated
/// calls perform zero heap allocation. One scratch serves every mat of a
/// bank.
#[derive(Debug, Default, Clone)]
pub struct BankScratch {
    codes: Vec<u16>,
    mat: MatScratch,
    raw: Vec<i64>,
}

impl BankScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        BankScratch::default()
    }
}

/// The per-bank PRIME controller with its FF subarrays, Buffer subarray,
/// and a modelled Mem-subarray word space.
///
/// # Examples
///
/// Driving the Table I command set end to end:
///
/// ```
/// use prime_core::BankController;
/// use prime_mem::{BufAddr, Command, MemAddr};
///
/// let mut ctrl = BankController::new(1, 2, 256, 1024);
/// ctrl.write_mem(MemAddr(0), &[5, 6, 7]);
/// ctrl.execute(Command::Fetch { from: MemAddr(0), to: BufAddr(0), bytes: 24 })?;
/// assert_eq!(ctrl.buffer_mut().load(BufAddr(0), 3)?, vec![5, 6, 7]);
/// # Ok::<(), prime_core::PrimeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankController {
    /// FF mats, indexed `[subarray][mat]`.
    ff: Vec<Vec<FfMat>>,
    buffer: BufferSubarray,
    /// Modelled Mem-subarray storage, word addressed.
    mem_space: Vec<i64>,
    /// Input latches staged by `load` commands.
    latches: HashMap<(usize, usize), Vec<i64>>,
    /// Output registers filled by mat computation, drained by `store`.
    outputs: HashMap<(usize, usize), Vec<i64>>,
    /// Per-mat input-source selection.
    input_sources: HashMap<(usize, usize), InputSource>,
    /// Data migrated out of FF subarrays during computation.
    migrated: HashMap<(usize, usize), MigratedMat>,
    /// Recycled latch storage: `load` reuses the vector the previous
    /// `compute_mat` consumed, so steady-state staging allocates nothing.
    spare_latch: Vec<i64>,
    /// Every command executed, in order (for inspection and tests).
    log: Vec<Command>,
}

impl BankController {
    /// Creates a controller for `ff_subarrays` FF subarrays of
    /// `mats_per_subarray` mats each, a `buffer_words` Buffer subarray,
    /// and `mem_words` of modelled Mem-subarray space.
    pub fn new(
        ff_subarrays: usize,
        mats_per_subarray: usize,
        buffer_words: usize,
        mem_words: usize,
    ) -> Self {
        let ff = (0..ff_subarrays)
            .map(|_| (0..mats_per_subarray).map(|_| FfMat::new()).collect())
            .collect();
        BankController {
            ff,
            buffer: BufferSubarray::new(buffer_words),
            mem_space: vec![0; mem_words],
            latches: HashMap::new(),
            outputs: HashMap::new(),
            input_sources: HashMap::new(),
            migrated: HashMap::new(),
            spare_latch: Vec::new(),
            log: Vec::new(),
        }
    }

    /// The command log, in execution order.
    pub fn log(&self) -> &[Command] {
        &self.log
    }

    /// The `prime-analyze` target of a memory of `banks` banks built like
    /// this one: its mat geometry and composing scheme, its buffer
    /// capacity, and the physical precision budgets (the mats program MLC
    /// cells and encode input signals exactly per the scheme, so the
    /// budgets equal its halves).
    pub fn analysis_target(&self, banks: usize) -> prime_analyze::Target {
        let probe;
        let mat = match self.ff.first().and_then(|s| s.first()) {
            Some(mat) => mat,
            None => {
                probe = FfMat::new();
                &probe
            }
        };
        let scheme = mat.scheme();
        prime_analyze::Target {
            hw: prime_compiler::HwTarget {
                mat_rows: mat.max_rows(),
                mat_cols: mat.max_cols(),
                mats_per_ff_subarray: self.mats_per_subarray(),
                ff_subarrays_per_bank: self.ff_subarrays(),
                banks,
            },
            scheme,
            buffer_words: self.buffer.capacity(),
            cell_bits: scheme.weight_half_bits(),
            input_signal_bits: scheme.input_half_bits(),
            phys_mat_cols: 2 * mat.max_cols(),
            tile_ref_bits: 16,
        }
    }

    /// Number of FF subarrays this controller manages.
    pub fn ff_subarrays(&self) -> usize {
        self.ff.len()
    }

    /// Mats per FF subarray.
    pub fn mats_per_subarray(&self) -> usize {
        self.ff.first().map_or(0, Vec::len)
    }

    /// The Buffer subarray.
    pub fn buffer(&self) -> &BufferSubarray {
        &self.buffer
    }

    /// Mutable access to the Buffer subarray.
    pub fn buffer_mut(&mut self) -> &mut BufferSubarray {
        &mut self.buffer
    }

    /// Immutable access to a mat.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn mat(&self, addr: MatAddr) -> &FfMat {
        &self.ff[addr.subarray][addr.mat]
    }

    /// Mutable access to a mat.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn mat_mut(&mut self, addr: MatAddr) -> &mut FfMat {
        &mut self.ff[addr.subarray][addr.mat]
    }

    /// Seeds the modelled Mem-subarray space (test/bench harness input).
    pub fn write_mem(&mut self, addr: prime_mem::MemAddr, words: &[i64]) {
        let start = addr.0 as usize / 8;
        self.mem_space[start..start + words.len()].copy_from_slice(words);
    }

    /// Reads back the modelled Mem-subarray space.
    pub fn read_mem(&self, addr: prime_mem::MemAddr, words: usize) -> Vec<i64> {
        let start = addr.0 as usize / 8;
        self.mem_space[start..start + words].to_vec()
    }

    /// Executes one Table I command.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError`] variants for invalid addresses, overflowing
    /// transfers, or wrong-mode operations.
    pub fn execute(&mut self, cmd: Command) -> Result<(), PrimeError> {
        self.log.push(cmd);
        match cmd {
            Command::SetFunction { mat, function } => {
                self.mat_mut(mat).set_function(function);
                Ok(())
            }
            Command::BypassSigmoid { mat, bypass } => {
                let mut dp = self.mat(mat).datapath();
                dp.bypass_sigmoid = bypass;
                self.mat_mut(mat).set_datapath(dp);
                Ok(())
            }
            Command::BypassSa { mat, bypass } => {
                let mut dp = self.mat(mat).datapath();
                dp.bypass_sa = bypass;
                self.mat_mut(mat).set_datapath(dp);
                Ok(())
            }
            Command::SetInputSource { mat, source } => {
                self.input_sources.insert((mat.subarray, mat.mat), source);
                Ok(())
            }
            Command::Fetch { from, to, bytes } => {
                let words = (bytes / 8) as usize;
                let start = from.0 as usize / 8;
                if start + words > self.mem_space.len() {
                    return Err(PrimeError::BufferOverflow {
                        requested: (start + words) as u64,
                        capacity: self.mem_space.len() as u64,
                    });
                }
                let data = self.mem_space[start..start + words].to_vec();
                self.buffer.store(to, &data)
            }
            Command::Commit { from, to, bytes } => {
                let words = (bytes / 8) as usize;
                let data = self.buffer.load(from, words)?;
                let start = to.0 as usize / 8;
                if start + words > self.mem_space.len() {
                    return Err(PrimeError::BufferOverflow {
                        requested: (start + words) as u64,
                        capacity: self.mem_space.len() as u64,
                    });
                }
                self.mem_space[start..start + words].copy_from_slice(&data);
                Ok(())
            }
            Command::Load { from, to, bytes } => {
                let words = (bytes / 8) as usize;
                let key = (to.mat.subarray, to.mat.mat);
                let source = self
                    .input_sources
                    .get(&key)
                    .copied()
                    .unwrap_or(InputSource::Buffer);
                let data = match source {
                    InputSource::Buffer => {
                        // Recycle the latch vector the last compute
                        // consumed: steady-state staging allocates nothing.
                        let mut data = std::mem::take(&mut self.spare_latch);
                        if let Err(e) = self.buffer.load_into(from, words, &mut data) {
                            self.spare_latch = data;
                            return Err(e);
                        }
                        data
                    }
                    InputSource::PreviousLayer => {
                        self.buffer
                            .bypass_take()
                            .ok_or(PrimeError::MappingMismatch {
                                reason:
                                    "input source is previous-layer but bypass register is empty"
                                        .to_string(),
                            })?
                    }
                };
                if let Some(old) = self.latches.insert(key, data) {
                    self.spare_latch = old;
                }
                Ok(())
            }
            Command::Store { from, to, bytes } => {
                let words = (bytes / 8) as usize;
                let data = self
                    .outputs
                    .remove(&(from.mat.subarray, from.mat.mat))
                    .ok_or(PrimeError::MappingMismatch {
                        reason: "store issued before the mat produced output".to_string(),
                    })?;
                if data.len() != words {
                    return Err(PrimeError::MappingMismatch {
                        reason: format!("store of {words} words but mat produced {}", data.len()),
                    });
                }
                self.buffer.store(to, &data)
            }
        }
    }

    /// Runs one mat's computation on its staged latch contents, placing
    /// the result in its output register (drained by `store`).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if no data was loaded, or
    /// mode errors from the mat.
    pub fn compute_mat(&mut self, addr: MatAddr) -> Result<Vec<i64>, PrimeError> {
        let mut scratch = BankScratch::new();
        let mut out = Vec::new();
        self.compute_mat_into(addr, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`compute_mat`](Self::compute_mat) into caller-owned buffers.
    ///
    /// `out` is cleared and refilled with the mat's post-output-unit
    /// results; the output register kept for `store` reuses its previous
    /// storage, and the consumed latch vector is recycled for the next
    /// `load` — with a reused `scratch`, the whole
    /// load→compute→merge path performs zero steady-state heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if no data was loaded, or
    /// mode errors from the mat.
    pub fn compute_mat_into(
        &mut self,
        addr: MatAddr,
        scratch: &mut BankScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.stage_latch_codes(addr, scratch)?;
        self.ff[addr.subarray][addr.mat].compute_into(
            &scratch.codes,
            &mut scratch.mat,
            &mut scratch.raw,
        )?;
        self.finish_compute(addr, scratch, out);
        Ok(())
    }

    /// Analog variant of [`compute_mat_into`](Self::compute_mat_into):
    /// the mat evaluates through the voltage/conductance domain with read
    /// noise from `noise`, drawing from `rng`. Same scratch contract.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::MappingMismatch`] if no data was loaded, or
    /// mode errors from the mat.
    pub fn compute_mat_analog_into<R: rand::Rng + ?Sized>(
        &mut self,
        addr: MatAddr,
        noise: &prime_device::NoiseModel,
        rng: &mut R,
        scratch: &mut BankScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.stage_latch_codes(addr, scratch)?;
        self.ff[addr.subarray][addr.mat].compute_analog_into(
            &scratch.codes,
            noise,
            rng,
            &mut scratch.mat,
            &mut scratch.raw,
        )?;
        self.finish_compute(addr, scratch, out);
        Ok(())
    }

    /// [`compute_mat_into`](Self::compute_mat_into) over caller-provided
    /// input words instead of a staged latch.
    ///
    /// The chunked conv schedule loads a whole tile×chunk block into the
    /// mat latch with one `Command::Load`, then drives the wordlines once
    /// per pixel from a slice of that block; this entry point models the
    /// per-pixel drive without round-tripping each slice through the
    /// `latches` map. The words are clamped to the scheme's input-code
    /// range exactly as a staged latch would be.
    ///
    /// # Errors
    ///
    /// Returns mode errors from the mat.
    pub fn compute_mat_words_into(
        &mut self,
        addr: MatAddr,
        words: &[i64],
        scratch: &mut BankScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.stage_word_codes(addr, words, scratch);
        self.ff[addr.subarray][addr.mat].compute_into(
            &scratch.codes,
            &mut scratch.mat,
            &mut scratch.raw,
        )?;
        self.finish_compute(addr, scratch, out);
        Ok(())
    }

    /// Analog variant of
    /// [`compute_mat_words_into`](Self::compute_mat_words_into). Same
    /// scratch contract; draws read noise from `rng`.
    ///
    /// # Errors
    ///
    /// Returns mode errors from the mat.
    pub fn compute_mat_words_analog_into<R: rand::Rng + ?Sized>(
        &mut self,
        addr: MatAddr,
        words: &[i64],
        noise: &prime_device::NoiseModel,
        rng: &mut R,
        scratch: &mut BankScratch,
        out: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.stage_word_codes(addr, words, scratch);
        self.ff[addr.subarray][addr.mat].compute_analog_into(
            &scratch.codes,
            noise,
            rng,
            &mut scratch.mat,
            &mut scratch.raw,
        )?;
        self.finish_compute(addr, scratch, out);
        Ok(())
    }

    /// Clamps caller-provided input words into `scratch.codes`, mirroring
    /// what [`stage_latch_codes`](Self::stage_latch_codes) does for a
    /// staged latch.
    fn stage_word_codes(&mut self, addr: MatAddr, words: &[i64], scratch: &mut BankScratch) {
        let max_code = i64::from(self.ff[addr.subarray][addr.mat].scheme().input_code_max());
        scratch.codes.clear();
        scratch
            .codes
            .extend(words.iter().map(|&v| v.clamp(0, max_code) as u16));
    }

    /// Consumes the mat's staged latch into `scratch.codes` (clamped to
    /// the scheme's input-code range), recycling the latch vector.
    fn stage_latch_codes(
        &mut self,
        addr: MatAddr,
        scratch: &mut BankScratch,
    ) -> Result<(), PrimeError> {
        let key = (addr.subarray, addr.mat);
        let staged = self
            .latches
            .remove(&key)
            .ok_or(PrimeError::MappingMismatch {
                reason: "compute issued before load".to_string(),
            })?;
        let max_code = i64::from(self.ff[addr.subarray][addr.mat].scheme().input_code_max());
        scratch.codes.clear();
        scratch
            .codes
            .extend(staged.iter().map(|&v| v.clamp(0, max_code) as u16));
        // Hand the consumed latch back to the pool for the next `load`.
        self.spare_latch = staged;
        Ok(())
    }

    /// Routes raw composed results through the output units into `out`
    /// and the mat's output register (for `store`), reusing storage.
    fn finish_compute(&mut self, addr: MatAddr, scratch: &BankScratch, out: &mut Vec<i64>) {
        let key = (addr.subarray, addr.mat);
        self.ff[addr.subarray][addr.mat].apply_output_units_into(&scratch.raw, out);
        let register = self.outputs.entry(key).or_default();
        register.clear();
        register.extend_from_slice(out);
    }

    /// Read half of an inter-bank transfer (paper §IV-B large-scale
    /// mapping): loads `words` data words of a stage's output vector from
    /// this bank's Buffer subarray into `via`, ready to travel over the
    /// memory-internal bus. `via` is cleared and refilled, so a reused
    /// vector incurs no steady-state allocation.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] when the range exceeds the
    /// buffer.
    pub fn transfer_out(
        &mut self,
        from: BufAddr,
        words: usize,
        via: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        self.buffer.load_into(from, words, via)
    }

    /// Write half of an inter-bank transfer: stores an arriving stage
    /// input vector into this bank's Buffer subarray at `to` (the next
    /// stage's input address).
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] when the range exceeds the
    /// buffer.
    pub fn transfer_in(&mut self, to: BufAddr, data: &[i64]) -> Result<(), PrimeError> {
        self.buffer.store(to, data)
    }

    /// Full inter-bank transfer: moves `words` data words from `src`'s
    /// Buffer subarray at `from` into `dst`'s Buffer subarray at `to`,
    /// staging them through `via` (the modelled memory-internal bus
    /// beat). Composes [`transfer_out`](Self::transfer_out) and
    /// [`transfer_in`](Self::transfer_in), so serial execution and the
    /// split halves used by the overlapped pipeline engine account buffer
    /// traffic identically.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::BufferOverflow`] when either range exceeds
    /// its buffer.
    pub fn transfer(
        src: &mut BankController,
        dst: &mut BankController,
        from: BufAddr,
        to: BufAddr,
        words: usize,
        via: &mut Vec<i64>,
    ) -> Result<(), PrimeError> {
        src.transfer_out(from, words, via)?;
        dst.transfer_in(to, via)
    }

    /// §III-A2 morphing, step 1: migrate the subarray's memory-mode data
    /// to Mem-subarray space (modelled as an internal backup) and switch
    /// every mat to weight-programming mode.
    ///
    /// # Errors
    ///
    /// Returns [`PrimeError::WrongMode`] if a mat's memory-mode data
    /// cannot be read back during migration.
    pub fn morph_to_compute(&mut self, subarray: usize) -> Result<(), PrimeError> {
        let mats = self.ff[subarray].len();
        for m in 0..mats {
            let mat = &self.ff[subarray][m];
            if mat.function() == MatFunction::Memory {
                let rows = (0..2 * prime_device::MAT_DIM)
                    .map(|r| mat.read_memory_row(r, prime_device::MAT_DIM))
                    .collect::<Result<Vec<_>, _>>()?;
                self.migrated.insert((subarray, m), MigratedMat { rows });
            }
            self.ff[subarray][m].set_function(MatFunction::Program);
        }
        Ok(())
    }

    /// §III-A2 morphing, step 2: after weights are programmed, switch the
    /// subarray to computation mode.
    pub fn start_compute(&mut self, subarray: usize) {
        for mat in &mut self.ff[subarray] {
            mat.set_function(MatFunction::Compute);
        }
    }

    /// §III-A2 wrap-up: reconfigure the subarray back to memory mode and
    /// restore the migrated data.
    ///
    /// # Errors
    ///
    /// Propagates mat write errors.
    pub fn morph_to_memory(&mut self, subarray: usize) -> Result<(), PrimeError> {
        let mats = self.ff[subarray].len();
        for m in 0..mats {
            self.ff[subarray][m].set_function(MatFunction::Memory);
            if let Some(saved) = self.migrated.remove(&(subarray, m)) {
                for (r, bits) in saved.rows.iter().enumerate() {
                    self.ff[subarray][m].write_memory_row(r, bits)?;
                }
            }
        }
        Ok(())
    }

    /// Number of modelled memory rows a mat migration covers.
    pub fn migration_rows() -> usize {
        2 * prime_device::MAT_DIM
    }

    /// Words per modelled memory row.
    pub fn mem_row_words() -> usize {
        MEM_ROW_WORDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prime_mem::{BufAddr, FfAddr, MemAddr};

    fn small_controller() -> BankController {
        BankController::new(1, 1, 2048, 4096)
    }

    #[test]
    fn fetch_commit_round_trip_through_buffer() {
        let mut ctrl = small_controller();
        ctrl.write_mem(MemAddr(64), &[9, 8, 7, 6]);
        ctrl.execute(Command::Fetch {
            from: MemAddr(64),
            to: BufAddr(10),
            bytes: 32,
        })
        .unwrap();
        ctrl.execute(Command::Commit {
            from: BufAddr(10),
            to: MemAddr(0),
            bytes: 32,
        })
        .unwrap();
        assert_eq!(ctrl.read_mem(MemAddr(0), 4), vec![9, 8, 7, 6]);
    }

    #[test]
    fn load_compute_store_pipeline() {
        let mut ctrl = small_controller();
        let addr = MatAddr {
            subarray: 0,
            mat: 0,
        };
        // Program a 4x2 weight matrix.
        ctrl.execute(Command::SetFunction {
            mat: addr,
            function: MatFunction::Program,
        })
        .unwrap();
        ctrl.mat_mut(addr)
            .program_composed(&[16, -16, 32, 0, 0, 32, -16, 16], 4, 2)
            .unwrap();
        ctrl.execute(Command::SetFunction {
            mat: addr,
            function: MatFunction::Compute,
        })
        .unwrap();
        // Stage inputs through the buffer and run.
        ctrl.buffer_mut()
            .store(BufAddr(0), &[8, 16, 24, 32])
            .unwrap();
        ctrl.execute(Command::Load {
            from: BufAddr(0),
            to: FfAddr {
                mat: addr,
                offset: 0,
            },
            bytes: 32,
        })
        .unwrap();
        let out = ctrl.compute_mat(addr).unwrap();
        assert_eq!(out.len(), 2);
        ctrl.execute(Command::Store {
            from: FfAddr {
                mat: addr,
                offset: 0,
            },
            to: BufAddr(100),
            bytes: 16,
        })
        .unwrap();
        assert_eq!(ctrl.buffer_mut().load(BufAddr(100), 2).unwrap(), out);
    }

    #[test]
    fn store_before_compute_fails() {
        let mut ctrl = small_controller();
        let addr = MatAddr {
            subarray: 0,
            mat: 0,
        };
        let err = ctrl.execute(Command::Store {
            from: FfAddr {
                mat: addr,
                offset: 0,
            },
            to: BufAddr(0),
            bytes: 8,
        });
        assert!(matches!(err, Err(PrimeError::MappingMismatch { .. })));
    }

    #[test]
    fn morphing_protocol_preserves_memory_data() {
        let mut ctrl = small_controller();
        let addr = MatAddr {
            subarray: 0,
            mat: 0,
        };
        let bits: Vec<bool> = (0..256).map(|i| i % 7 == 0).collect();
        ctrl.mat_mut(addr).write_memory_row(5, &bits).unwrap();
        ctrl.mat_mut(addr).write_memory_row(400, &bits).unwrap();
        // Morph to compute, run something, morph back.
        ctrl.morph_to_compute(0).unwrap();
        ctrl.mat_mut(addr)
            .program_composed(&[100, -100], 2, 1)
            .unwrap();
        ctrl.start_compute(0);
        assert_eq!(ctrl.mat(addr).function(), MatFunction::Compute);
        ctrl.morph_to_memory(0).unwrap();
        assert_eq!(ctrl.mat(addr).read_memory_row(5, 256).unwrap(), bits);
        assert_eq!(ctrl.mat(addr).read_memory_row(400, 256).unwrap(), bits);
    }

    #[test]
    fn input_source_previous_layer_uses_bypass_register() {
        let mut ctrl = small_controller();
        let addr = MatAddr {
            subarray: 0,
            mat: 0,
        };
        ctrl.execute(Command::SetInputSource {
            mat: addr,
            source: InputSource::PreviousLayer,
        })
        .unwrap();
        // Without the bypass register filled, load fails.
        let err = ctrl.execute(Command::Load {
            from: BufAddr(0),
            to: FfAddr {
                mat: addr,
                offset: 0,
            },
            bytes: 16,
        });
        assert!(err.is_err());
        ctrl.buffer_mut().bypass_store(vec![1, 2]);
        ctrl.execute(Command::Load {
            from: BufAddr(0),
            to: FfAddr {
                mat: addr,
                offset: 0,
            },
            bytes: 16,
        })
        .unwrap();
    }

    #[test]
    fn interbank_transfer_moves_buffer_contents() {
        let mut src = small_controller();
        let mut dst = small_controller();
        src.buffer_mut().store(BufAddr(5), &[3, 1, 4, 1, 5]).unwrap();
        let mut via = Vec::new();
        BankController::transfer(&mut src, &mut dst, BufAddr(5), BufAddr(9), 5, &mut via)
            .unwrap();
        assert_eq!(
            dst.buffer_mut().load(BufAddr(9), 5).unwrap(),
            vec![3, 1, 4, 1, 5]
        );
        // Out-of-range transfers fail on either half.
        assert!(src.transfer_out(BufAddr(2047), 5, &mut via).is_err());
        assert!(dst.transfer_in(BufAddr(2046), &[1, 2, 3]).is_err());
    }

    #[test]
    fn command_log_records_execution_order() {
        let mut ctrl = small_controller();
        let addr = MatAddr {
            subarray: 0,
            mat: 0,
        };
        ctrl.execute(Command::SetFunction {
            mat: addr,
            function: MatFunction::Program,
        })
        .unwrap();
        ctrl.execute(Command::BypassSigmoid {
            mat: addr,
            bypass: true,
        })
        .unwrap();
        assert_eq!(ctrl.log().len(), 2);
        assert!(ctrl.log()[0].is_datapath_configure());
    }
}
