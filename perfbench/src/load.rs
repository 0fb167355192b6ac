//! The data and request streams the workloads use, made from the run seed
//! alone.
//!
//! All data comes from one fixed synthetic MNIST-like population. Its first
//! [`TRAIN`] samples are the training set of every run, so every run
//! serves (or fits) the same model; the run seed picks where in the rest of
//! the population the run's unseen samples start. Cold requests are unseen
//! samples. Hot requests draw from a pool with Zipf popularity;
//! a share of them are near-duplicates of a pool sample: the low mantissa
//! bits of one non-zero pixel are flipped, so the raw bits are new (a memo
//! miss) while the features move by ~1e-16, far inside one quantized
//! feature cell.

use crate::rng::{derive, SplitMix, Zipf};
use enq_data::{Dataset, DatasetKind, SampleChunk, SampleSource, SyntheticConfig, SyntheticSource};

/// Classes of every generated dataset (the paper's 5).
pub const CLASSES: usize = 5;

/// Training samples: the paper's 500 per class.
pub const TRAIN: usize = 500 * CLASSES;

/// Zipf exponent of pool popularity: the most popular sample is requested
/// ~20× as often as the least popular of 384. A steeper skew leaves so few
/// samples carrying the replies that `fidelity_mean` moves by ±3% with the
/// pool a seed draws.
const ZIPF_EXPONENT: f64 = 0.5;

/// Share of hot requests that are near-duplicates. Exact repeats (memo
/// hits, tens of µs over the wire) make up the rest, so the median sits
/// well inside the repeats and p99 well inside the near-duplicates.
pub const NEAR_DUP_SHARE: f64 = 0.3;

/// What one request carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// The `n`-th sample of the cold stream.
    Cold(usize),
    /// An exact repeat of pool sample `i`.
    Repeat(usize),
    /// Near-duplicate number `k` of pool sample `i`.
    NearDup(usize, u64),
}

/// Seed of the synthetic generator: one fixed population of samples.
const POPULATION_SEED: u64 = 7;

/// Unseen streams start at one of this many offsets past the training set,
/// `CLASSES` samples apart, picked by the run seed.
const OFFSETS: u64 = 4096;

/// The synthetic MNIST-like population, read in order from `skip`.
fn population(skip: usize) -> Result<Samples, String> {
    let config = SyntheticConfig {
        classes: CLASSES,
        samples_per_class: 1 << 20,
        seed: POPULATION_SEED,
    };
    let source = SyntheticSource::new(DatasetKind::MnistLike, &config)
        .map_err(|e| format!("sample generator: {e}"))?;
    let mut samples = Samples {
        source,
        chunk: SampleChunk::new(),
        next: 0,
    };
    for _ in 0..skip {
        samples.next_labeled()?;
    }
    Ok(samples)
}

/// The training set: the population's first [`TRAIN`] samples, the same
/// for every run.
pub fn training_set() -> Result<Dataset, String> {
    let mut samples = population(0)?;
    let (rows, labels) = (0..TRAIN)
        .map(|_| samples.next_labeled())
        .collect::<Result<(Vec<_>, Vec<_>), String>>()?;
    Dataset::new("mnist-like", rows, labels).map_err(|e| format!("training set: {e}"))
}

/// A stream of population samples, read in order.
pub struct Samples {
    source: SyntheticSource,
    chunk: SampleChunk,
    next: usize,
}

impl Samples {
    /// The run's unseen samples: the population from a seed-picked offset
    /// past the training set.
    pub fn unseen(seed: u64) -> Result<Samples, String> {
        let offset = CLASSES * (derive(seed, 1) % OFFSETS) as usize;
        population(TRAIN + offset)
    }

    fn next_labeled(&mut self) -> Result<(Vec<f64>, usize), String> {
        if self.next == self.chunk.len() {
            self.source
                .next_chunk(256, &mut self.chunk)
                .map_err(|e| format!("generating samples: {e}"))?;
            self.next = 0;
        }
        self.next += 1;
        let i = self.next - 1;
        Ok((self.chunk.samples()[i].clone(), self.chunk.labels()[i]))
    }

    pub fn next_sample(&mut self) -> Result<Vec<f64>, String> {
        Ok(self.next_labeled()?.0)
    }

    pub fn take(&mut self, n: usize) -> Result<Vec<Vec<f64>>, String> {
        (0..n).map(|_| self.next_sample()).collect()
    }
}

/// The hot pool: its samples and, for each, the pixels a near-duplicate
/// may jitter (non-zero ones, so a flip never makes a subnormal).
pub struct Pool {
    pub samples: Vec<Vec<f64>>,
    nonzero: Vec<Vec<usize>>,
}

impl Pool {
    pub fn new(samples: Vec<Vec<f64>>) -> Self {
        let nonzero = samples
            .iter()
            .map(|s| (0..s.len()).filter(|&p| s[p] != 0.0).collect())
            .collect();
        Self { samples, nonzero }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw sample a request carries (`Cold` requests are not pool
    /// requests and are refused).
    pub fn sample(&self, req: Req) -> Vec<f64> {
        match req {
            Req::Repeat(i) => self.samples[i].clone(),
            Req::NearDup(i, k) => {
                let pixels = &self.nonzero[i];
                let mut out = self.samples[i].clone();
                let p = pixels[(k % pixels.len() as u64) as usize];
                let flip = 1 + (k / pixels.len() as u64) % 4095;
                out[p] = f64::from_bits(out[p].to_bits() ^ flip);
                out
            }
            Req::Cold(_) => unreachable!("cold requests are not drawn from a pool"),
        }
    }
}

/// One caller's hot request sequence: Zipf-popular pool samples, a
/// [`NEAR_DUP_SHARE`] of them near-duplicates. Near-duplicate numbers are
/// unique across callers, so each one is a raw-bits pattern never sent
/// before.
pub struct HotSchedule {
    rng: SplitMix,
    zipf: Zipf,
    caller: u64,
    callers: u64,
    near_dups: u64,
}

impl HotSchedule {
    pub fn new(seed: u64, caller: usize, callers: usize, pool: usize) -> Self {
        Self {
            rng: SplitMix::new(derive(seed, 100 + caller as u64)),
            zipf: Zipf::new(pool, ZIPF_EXPONENT),
            caller: caller as u64,
            callers: callers as u64,
            near_dups: 0,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let i = self.zipf.sample(&mut self.rng);
        if self.rng.unit() < NEAR_DUP_SHARE {
            let k = self.near_dups * self.callers + self.caller;
            self.near_dups += 1;
            Req::NearDup(i, k)
        } else {
            Req::Repeat(i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_duplicates_are_distinct_and_within_a_few_ulps() {
        let pool = Pool::new(vec![vec![0.0, 0.25, 0.0, 0.75]]);
        let mut seen = std::collections::HashSet::new();
        for k in 0..64 {
            let s = pool.sample(Req::NearDup(0, k));
            assert_eq!((s[0], s[2]), (0.0, 0.0));
            assert!((s[1] - 0.25).abs() < 1e-12 && (s[3] - 0.75).abs() < 1e-12);
            assert!(seen.insert(s.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
        }
        assert!(!seen.contains(
            &pool.samples[0]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        ));
    }
}
