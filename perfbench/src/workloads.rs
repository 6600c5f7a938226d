//! The three benchmark workloads, the seeded request pool each one
//! draws from, and the in-process reference every served output is
//! checked against.

use std::time::Instant;

use prime_compiler::Objective;
use prime_core::PrimeSystem;
use prime_device::NoiseModel;
use prime_nn::{Activation, Conv2d, FullyConnected, Layer, Network, Pool2d, PoolKind};
use prime_serve::workloads::{fc_net, WEIGHT_SEED};
use prime_serve::{BatchConfig, Mode, Registry, Server};
use prime_sim::SimCostModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FF subarrays per bank and mats per FF subarray: the standard serving
/// geometry.
pub const FF_SUBARRAYS: usize = 2;
pub const MATS_PER_SUBARRAY: usize = 32;
pub const BUFFER_WORDS: usize = 8192;

/// Read noise of seeded-noisy requests (the serving tests' model).
pub const NOISE: NoiseModel = NoiseModel {
    program_sigma: 0.0,
    read_sigma: 0.05,
};

/// Distinct inputs in a run's pool.
const POOL_INPUTS: usize = 64;
/// Distinct (input, seed) noisy requests in a run's pool.
const POOL_NOISY: usize = 64;

/// One benchmark workload: a model, how it is deployed, its traffic mix
/// and the open-loop rates of its light and heavy phases.
pub struct Workload {
    pub name: &'static str,
    /// Model name on the wire.
    pub model: &'static str,
    pub banks: usize,
    pub net: Network,
    /// Probability that a request is seeded-noisy.
    pub noisy_share: f64,
    /// Open-loop rates (requests per second), about 15% and 45% of the
    /// closed-loop capacity on a 2-core host.
    pub light_rps: f64,
    pub heavy_rps: f64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "mlp-m" => Workload {
                name: "mlp-m",
                model: "MLP-M-class",
                banks: 2,
                net: fc(&[784, 1000, 500, 250, 10]),
                noisy_share: 0.0,
                light_rps: 45.0,
                heavy_rps: 130.0,
            },
            "cnn1" => Workload {
                name: "cnn1",
                model: "CNN-1-conv",
                banks: 2,
                net: cnn1_net(),
                noisy_share: 0.0,
                light_rps: 110.0,
                heavy_rps: 330.0,
            },
            "head-mix" => Workload {
                name: "head-mix",
                model: "CNN-1-class",
                banks: 1,
                net: fc(&[720, 70, 10]),
                noisy_share: 0.25,
                light_rps: 110.0,
                heavy_rps: 320.0,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn width(&self) -> usize {
        self.net.inputs()
    }

    pub fn calibration(&self) -> Vec<f32> {
        vec![0.5; self.width()]
    }

    pub fn system(&self) -> PrimeSystem {
        PrimeSystem::new(self.banks, FF_SUBARRAYS, MATS_PER_SUBARRAY, BUFFER_WORDS)
    }

    /// Builds a registry holding this workload's model and binds a
    /// loopback server for it; returns the server and the seconds from
    /// the start of registration until `bind` returned.
    pub fn serve(&self) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let mut registry = Registry::new();
        registry
            .register(
                self.model,
                self.system(),
                &self.net,
                &self.calibration(),
                BatchConfig::default_online(),
                NOISE,
                Objective::Latency,
            )
            .map_err(|e| format!("register {}: {e}", self.model))?;
        let server = Server::bind("127.0.0.1:0", registry).map_err(|e| format!("bind: {e}"))?;
        Ok((server, start.elapsed().as_secs_f64()))
    }

    /// An in-process system deployed exactly as the served one.
    pub fn reference_system(&self) -> Result<PrimeSystem, String> {
        let mut system = self.system();
        system
            .deploy_auto(
                &self.net,
                &self.calibration(),
                Objective::Latency,
                &SimCostModel,
            )
            .map_err(|e| format!("reference deploy: {e}"))?;
        Ok(system)
    }
}

fn fc(widths: &[usize]) -> Network {
    fc_net(widths, WEIGHT_SEED).expect("benchmark widths chain")
}

/// The paper's CNN-1 (`conv5x5-pool-720-70-10`) in the form the device
/// runner executes: conv and hidden FC layers ReLU, final layer identity.
fn cnn1_net() -> Network {
    let layers = vec![
        Layer::Conv(Conv2d::new(1, 5, 5, 28, 28, 0, Activation::Relu)),
        Layer::Pool(Pool2d::new(PoolKind::Max, 5, 24, 24, 2)),
        Layer::Fc(FullyConnected::new(720, 70, Activation::Relu)),
        Layer::Fc(FullyConnected::new(70, 10, Activation::Identity)),
    ];
    let mut net = Network::new(layers).expect("CNN-1 shapes chain");
    net.init_random(&mut SmallRng::seed_from_u64(WEIGHT_SEED));
    net
}

/// SplitMix64: the benchmark's own seeded generator, so inputs and
/// schedules depend only on `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with mean `1 / rate`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// An independent stream for a named purpose.
    pub fn fork(&mut self, salt: u64) -> SplitMix {
        SplitMix(self.next_u64() ^ salt)
    }
}

/// One request shape a run can send: an input and how to evaluate it.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    pub input: usize,
    pub mode: Mode,
}

/// A run's seeded inputs, its request templates, and the reference
/// output of every template as raw `f32` bits.
pub struct Pool {
    pub inputs: Vec<Vec<f32>>,
    pub templates: Vec<Template>,
    pub expected: Vec<Vec<u32>>,
    /// Indices of the digital and noisy templates.
    digital: Vec<usize>,
    noisy: Vec<usize>,
    noisy_share: f64,
}

impl Pool {
    /// Draws the pool from `rng` and computes every reference output on
    /// `reference`: digital templates through one `infer_batch`, noisy
    /// ones one `infer_batch_noisy` call each with the request's seed.
    pub fn build(
        workload: &Workload,
        reference: &mut PrimeSystem,
        rng: &mut SplitMix,
    ) -> Result<Pool, String> {
        let width = workload.width();
        let inputs: Vec<Vec<f32>> = (0..POOL_INPUTS)
            .map(|_| (0..width).map(|_| rng.unit() as f32).collect())
            .collect();
        let mut templates: Vec<Template> = (0..POOL_INPUTS)
            .map(|input| Template {
                input,
                mode: Mode::Digital,
            })
            .collect();
        if workload.noisy_share > 0.0 {
            for _ in 0..POOL_NOISY {
                let input = rng.below(POOL_INPUTS);
                templates.push(Template {
                    input,
                    mode: Mode::Noisy {
                        seed: rng.next_u64(),
                    },
                });
            }
        }
        let digital_out = reference
            .infer_batch(&inputs)
            .map_err(|e| format!("reference: {e}"))?;
        let mut expected = Vec::with_capacity(templates.len());
        for t in &templates {
            let values = match t.mode {
                Mode::Digital => digital_out[t.input].clone(),
                Mode::Noisy { seed } => reference
                    .infer_batch_noisy(std::slice::from_ref(&inputs[t.input]), &NOISE, seed)
                    .map_err(|e| format!("noisy reference: {e}"))?
                    .pop()
                    .ok_or("noisy reference returned no output")?,
            };
            expected.push(bits(&values));
        }
        let (noisy, digital): (Vec<usize>, Vec<usize>) =
            (0..templates.len()).partition(|&i| matches!(templates[i].mode, Mode::Noisy { .. }));
        Ok(Pool {
            inputs,
            templates,
            expected,
            digital,
            noisy,
            noisy_share: workload.noisy_share,
        })
    }

    /// Draws the next request's template: noisy with the workload's
    /// probability, digital otherwise.
    pub fn pick(&self, rng: &mut SplitMix) -> usize {
        if !self.noisy.is_empty() && rng.unit() < self.noisy_share {
            self.noisy[rng.below(self.noisy.len())]
        } else {
            self.digital[rng.below(self.digital.len())]
        }
    }

    pub fn digital(&self) -> &[usize] {
        &self.digital
    }
}

pub fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}
