//! Output checks that do not trust the program: every served reply and
//! every trained cluster is compared with the benchmark's own recomputation
//! (see `sim.rs`) and with properties the method guarantees.

use crate::sim::{self, Amp};
use crate::wire::Reply;
use enqode::{AnsatzConfig, EnqodePipeline};
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest accepted gap between a fidelity the program reports and the
/// benchmark's statevector re-simulation of it. Both evaluate the same
/// overlap in double precision by different algorithms (Walsh-phase kernel
/// against gate-by-gate simulation of ~100 gates on 256 amplitudes), whose
/// rounding differs by about 1e-14; a wrong parameter, target or circuit
/// moves the fidelity by orders of magnitude more than 1e-9.
pub const FIDELITY_TOL: f64 = 1e-9;

/// Two squared centroid distances closer than this are a tie that rounding
/// may break either way, so the label check accepts either class.
pub const TIE_TOL: f64 = 1e-9;

struct Cluster {
    centroid: Vec<f64>,
    /// Re-simulated state of the cluster's stored parameters: the point the
    /// fine-tune starts from.
    start: Vec<Amp>,
}

/// The trained model as the checks see it: public PCA parts, centroids and
/// re-simulated cluster states.
pub struct Oracle {
    /// Largest gap seen between a reported fidelity and its re-simulation
    /// (as `f64` bits: non-negative floats order like their bits).
    max_gap: AtomicU64,
    mean: Vec<f64>,
    components: Vec<Vec<f64>>,
    dim: usize,
    ansatz: AnsatzConfig,
    classes: Vec<(usize, Vec<Cluster>)>,
}

impl Oracle {
    pub fn new(pipeline: &EnqodePipeline) -> Result<Self, String> {
        let pca = pipeline.features().pca();
        let ansatz = pipeline
            .class_models()
            .first()
            .ok_or("pipeline has no class models")?
            .model
            .config()
            .ansatz;
        let mut classes = Vec::new();
        for cm in pipeline.class_models() {
            let mut clusters = Vec::new();
            for cluster in cm.model.clusters() {
                clusters.push(Cluster {
                    centroid: cluster.centroid.clone(),
                    start: simulate_params(&ansatz, &cluster.parameters)?,
                });
            }
            classes.push((cm.label, clusters));
        }
        Ok(Self {
            max_gap: AtomicU64::new(0),
            mean: pca.mean().to_vec(),
            components: pca.components().to_vec(),
            dim: pipeline.feature_dimension(),
            ansatz,
            classes,
        })
    }

    /// The benchmark's own unit-norm features of a raw sample.
    pub fn features(&self, raw: &[f64]) -> Vec<f64> {
        sim::features(&self.mean, &self.components, self.dim, raw)
    }

    /// `(class index, cluster index, squared distance)` of the nearest
    /// centroid, optionally within one class only.
    fn nearest(&self, x: &[f64], only_class: Option<usize>) -> (usize, usize, f64) {
        let mut best = (0, 0, f64::INFINITY);
        for (ci, (label, clusters)) in self.classes.iter().enumerate() {
            if only_class.is_some_and(|l| l != *label) {
                continue;
            }
            for (k, c) in clusters.iter().enumerate() {
                let d: f64 = x
                    .iter()
                    .zip(&c.centroid)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                if d < best.2 {
                    best = (ci, k, d);
                }
            }
        }
        best
    }

    /// Checks one reply against the request's features `x`:
    /// the label is the nearest centroid's class, the reported fidelity is
    /// the re-simulated one, and fine-tuning did not end below the nearest
    /// cluster's stored parameters. `state` is the re-simulated state of the
    /// reply's parameters (callers cache it for repeated replies). Returns
    /// the re-simulated fidelity.
    pub fn check_reply(&self, x: &[f64], reply: &Reply, state: &[Amp]) -> Result<f64, String> {
        let (_, _, best) = self.nearest(x, None);
        let (ci, k, own) = self.nearest(x, Some(reply.label));
        if own.is_infinite() {
            return Err(format!(
                "reply label {} is not a trained class",
                reply.label
            ));
        }
        if own - best > TIE_TOL {
            return Err(format!(
                "label {} is not the nearest class (distance {own} vs {best})",
                reply.label
            ));
        }
        let fidelity = self.resimulated(state, x, reply.fidelity)?;
        let start = sim::overlap_fidelity(&self.classes[ci].1[k].start, x);
        if fidelity < start - FIDELITY_TOL {
            return Err(format!(
                "fine-tune ended at {fidelity}, below its start {start}"
            ));
        }
        Ok(fidelity)
    }

    /// `|⟨x|state⟩|²`, checked against the fidelity the program reported.
    pub fn resimulated(&self, state: &[Amp], x: &[f64], reported: f64) -> Result<f64, String> {
        let fidelity = sim::overlap_fidelity(state, x);
        let gap = (fidelity - reported).abs();
        self.max_gap.fetch_max(gap.to_bits(), Ordering::Relaxed);
        if gap > FIDELITY_TOL {
            return Err(format!(
                "reported fidelity {reported} but re-simulation gives {fidelity}"
            ));
        }
        Ok(fidelity)
    }

    /// Largest gap any check saw between a reported and a re-simulated
    /// fidelity.
    pub fn max_gap(&self) -> f64 {
        f64::from_bits(self.max_gap.load(Ordering::Relaxed))
    }

    pub fn simulate(&self, parameters: &[f64]) -> Result<Vec<Amp>, String> {
        simulate_params(&self.ansatz, parameters)
    }
}

fn simulate_params(ansatz: &AnsatzConfig, parameters: &[f64]) -> Result<Vec<Amp>, String> {
    let circuit = ansatz
        .build_bound(parameters)
        .map_err(|e| format!("binding parameters: {e}"))?;
    sim::simulate(&circuit)
}

/// Checks a served reply is bit-identical to the in-process pipeline's
/// embedding of `raw`.
pub fn same_as_pipeline(
    pipeline: &EnqodePipeline,
    raw: &[f64],
    reply: &Reply,
) -> Result<(), String> {
    let (label, embedding) = pipeline
        .embed(raw)
        .map_err(|e| format!("in-process embed: {e}"))?;
    let expected = Reply {
        label,
        fidelity: embedding.ideal_fidelity,
        parameters: embedding.parameters,
        source: reply.source,
    };
    if expected.same_bits(reply) {
        Ok(())
    } else {
        Err(format!(
            "served reply (label {}, fidelity {}) differs from in-process embed (label {}, fidelity {})",
            reply.label, reply.fidelity, expected.label, expected.fidelity
        ))
    }
}
