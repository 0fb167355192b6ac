//! End-to-end pipeline: raw dataset → PCA features → per-class EnQode models.
//!
//! The paper trains EnQode "per dataset and class": each class is clustered
//! and optimised independently (Sec. III-C), and new samples are embedded by
//! transfer learning from the nearest cluster of their class (or of any
//! class, for unlabelled inference data). Per-class training is independent,
//! so [`EnqodePipeline::build`] fits all class models in parallel.

use crate::driver::StreamDriver;
use crate::error::EnqodeError;
use crate::model::{Embedding, EnqodeConfig, EnqodeModel};
use crate::symbolic::SymbolicState;
use enq_data::{Dataset, FeaturePipeline, IngestMode, SampleSource};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shape of an out-of-core streaming fit ([`EnqodePipeline::build_streaming`]
/// / [`crate::StreamDriver`]).
///
/// The streaming build holds one chunk of raw samples plus `O(k × dim)`
/// model state resident, so memory is independent of the source length.
/// Setting [`StreamingFitConfig::fidelity_threshold`] recovers the paper's
/// adaptive cluster-count rule out-of-core: after clustering, an audit pass
/// measures each cluster's representative fidelity and offending clusters
/// are split until every cluster clears the threshold or
/// [`StreamingFitConfig::max_clusters_per_class`] is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingFitConfig {
    /// Samples held resident per chunk.
    pub chunk_size: usize,
    /// Clusters trained per class — the fixed count when
    /// `fidelity_threshold` is `None`, the starting count of the adaptive
    /// search otherwise.
    pub clusters_per_class: usize,
    /// Mini-batch SGD passes over the source.
    pub passes: usize,
    /// Maximum exact streaming-Lloyd refinement passes (early-stopped once
    /// centroids move less than the mini-batch tolerance).
    pub polish_passes: usize,
    /// How source passes are driven: synchronous chunk reads between compute
    /// steps, or double-buffered prefetch (bit-identical; the default
    /// overlaps ingestion with compute).
    pub ingest: IngestMode,
    /// When `true` (the default), the PCA-transformed feature stream is
    /// spilled once to an mmap-backed temp file after the feature stage, and
    /// every later clustering/audit pass reads the spilled features instead
    /// of re-reading (and re-projecting) the raw source. Disk usage is
    /// `O(N × features)`; resident memory stays `O(chunk)`. Bit-identical to
    /// re-streaming (features round-trip losslessly through the `ENQB`
    /// layout).
    pub spill_features: bool,
    /// Directory for the feature-spill temp file; `None` (the default) uses
    /// [`std::env::temp_dir`]. The directory must already exist — a missing
    /// one fails the feature stage with an I/O error. Unused when
    /// `spill_features` is off.
    pub spill_dir: Option<PathBuf>,
    /// Minimum per-cluster representative fidelity (the closed-form
    /// `⟨x̂, ĉ⟩²` amplitude-embedding fidelity between each member and its
    /// centroid, an upper bound on the post-ansatz fidelity). `Some(t)`
    /// enables the streaming fidelity-threshold `k` search; `None` keeps the
    /// fixed `clusters_per_class` behaviour.
    pub fidelity_threshold: Option<f64>,
    /// Upper bound on clusters per class for the adaptive search.
    pub max_clusters_per_class: usize,
}

impl Default for StreamingFitConfig {
    fn default() -> Self {
        Self {
            chunk_size: 256,
            clusters_per_class: 8,
            passes: 3,
            polish_passes: 2,
            ingest: IngestMode::default(),
            spill_features: true,
            spill_dir: None,
            fidelity_threshold: None,
            max_clusters_per_class: 64,
        }
    }
}

impl StreamingFitConfig {
    /// Validates the configuration, returning a descriptive
    /// [`EnqodeError::InvalidConfig`] instead of letting a degenerate value
    /// panic (zero chunk reads) or silently produce a broken fit (zero
    /// clusters, NaN thresholds) downstream.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::InvalidConfig`] for a zero `chunk_size`,
    /// `clusters_per_class`, or `passes`; a non-finite or out-of-range
    /// (`(0, 1]`) `fidelity_threshold`; or an adaptive cap below the
    /// starting cluster count.
    pub fn validate(&self) -> Result<(), EnqodeError> {
        if self.chunk_size == 0 {
            return Err(EnqodeError::InvalidConfig(
                "streaming fit: chunk_size must be positive".to_string(),
            ));
        }
        if self.clusters_per_class == 0 {
            return Err(EnqodeError::InvalidConfig(
                "streaming fit: clusters_per_class must be positive".to_string(),
            ));
        }
        if self.passes == 0 {
            return Err(EnqodeError::InvalidConfig(
                "streaming fit: at least one mini-batch pass is required".to_string(),
            ));
        }
        if let Some(threshold) = self.fidelity_threshold {
            if !threshold.is_finite() {
                return Err(EnqodeError::InvalidConfig(format!(
                    "streaming fit: fidelity_threshold must be finite, got {threshold}"
                )));
            }
            if !(0.0..=1.0).contains(&threshold) || threshold == 0.0 {
                return Err(EnqodeError::InvalidConfig(format!(
                    "streaming fit: fidelity_threshold {threshold} must be in (0, 1]"
                )));
            }
            if self.max_clusters_per_class < self.clusters_per_class {
                return Err(EnqodeError::InvalidConfig(format!(
                    "streaming fit: max_clusters_per_class ({}) is below the starting \
                     clusters_per_class ({})",
                    self.max_clusters_per_class, self.clusters_per_class
                )));
            }
        }
        Ok(())
    }
}

/// A trained per-class model.
#[derive(Debug, Clone)]
pub struct ClassModel {
    /// The class label this model was trained on.
    pub label: usize,
    /// The trained EnQode model for this class.
    pub model: EnqodeModel,
}

/// The full EnQode pipeline for one dataset: feature extraction plus one
/// trained model per class.
#[derive(Debug, Clone)]
pub struct EnqodePipeline {
    features: FeaturePipeline,
    class_models: Vec<ClassModel>,
}

impl EnqodePipeline {
    /// Builds the pipeline from a raw dataset: fits PCA to
    /// `2^num_qubits` features on the whole dataset, then trains one EnQode
    /// model per class, all classes in parallel.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and training errors.
    pub fn build(dataset: &Dataset, config: EnqodeConfig) -> Result<Self, EnqodeError> {
        let num_features = config.ansatz.dimension();
        let features = FeaturePipeline::fit(dataset, num_features)?;
        let transformed = features.apply_dataset(dataset)?;
        let labels = transformed.classes();
        let class_datasets: Result<Vec<_>, _> = labels
            .iter()
            .map(|&label| transformed.class_subset(label))
            .collect();
        let class_datasets = class_datasets?;
        // Split the thread budget between the class level and each fit's
        // (cluster, restart) level: enq_parallel has no shared pool, so an
        // undivided budget would spawn classes × threads CPU-bound workers.
        let budget = enq_parallel::default_threads();
        let per_class = NonZeroUsize::new(budget.get().div_ceil(class_datasets.len().max(1)))
            .unwrap_or(NonZeroUsize::MIN);
        // One symbolic phase table for the whole pipeline: the table depends
        // only on the ansatz shape, which all class models share, so every
        // class fit (and every embedding any of them ever serves) aliases the
        // same `Arc` instead of rebuilding an identical table per class.
        config.ansatz.validate()?;
        let symbolic = Arc::new(SymbolicState::from_ansatz(&config.ansatz)?);
        let class_models = enq_parallel::try_par_map(&class_datasets, |i, class_data| {
            let model = EnqodeModel::fit_with_shared_symbolic(
                class_data.samples(),
                config.clone(),
                per_class,
                Arc::clone(&symbolic),
            )?;
            Ok::<ClassModel, EnqodeError>(ClassModel {
                label: labels[i],
                model,
            })
        })?;
        Ok(Self {
            features,
            class_models,
        })
    }

    /// Builds the pipeline out-of-core from a [`SampleSource`], holding at
    /// most one chunk of raw samples resident. This is the one-call wrapper
    /// over the staged [`StreamDriver`]:
    ///
    /// 1. **Features** — one prefetched pass fits the PCA incrementally
    ///    ([`enq_data::IncrementalPca`]) and discovers the label set (plus
    ///    one spill pass when `stream.spill_features` is on),
    /// 2. **Clustering** — `passes` mini-batch k-means passes (plus up to
    ///    `polish_passes` exact streaming-Lloyd refinements) cluster each
    ///    class's feature vectors with `O(clusters × dim)` state,
    /// 3. **Fidelity audit** (only with
    ///    [`StreamingFitConfig::fidelity_threshold`]) — audit-and-split
    ///    rounds recover the paper's adaptive cluster-count rule,
    /// 4. **Training** — each class's centroids are trained into an
    ///    [`EnqodeModel`] via [`EnqodeModel::fit_from_centroids`]; ansatz
    ///    optimisation only ever touches centroids, never samples.
    ///
    /// The resulting pipeline serves every embed path exactly like one from
    /// [`EnqodePipeline::build`]; the fits differ only in how the PCA basis
    /// and centroids were estimated. The fit is deterministic for a fixed
    /// `(config.seed, chunk_size)` across thread counts **and across every
    /// `ingest`/`spill_features` combination**.
    ///
    /// # Errors
    ///
    /// Propagates source, feature-fit, clustering, and training errors; an
    /// empty source yields the underlying
    /// [`enq_data::DataError::EmptyDataset`]; invalid streaming parameters
    /// are rejected by [`StreamingFitConfig::validate`].
    pub fn build_streaming(
        source: &mut dyn SampleSource,
        config: EnqodeConfig,
        stream: &StreamingFitConfig,
    ) -> Result<Self, EnqodeError> {
        StreamDriver::new(source, config, stream.clone())?.run()
    }

    /// Assembles a pipeline from an already-fitted feature pipeline and
    /// trained class models (the [`StreamDriver`] training stage's exit
    /// point).
    pub(crate) fn from_parts(features: FeaturePipeline, class_models: Vec<ClassModel>) -> Self {
        Self {
            features,
            class_models,
        }
    }

    /// Assembles a pipeline from externally supplied **already-trained**
    /// parts — the decoding half of model persistence (`enq_store`), the
    /// public sibling of the stream driver's internal exit point.
    ///
    /// Class models are adopted verbatim (see
    /// [`EnqodeModel::from_trained_parts`]); only cross-part shapes are
    /// validated here.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::DimensionMismatch`] when a class model's
    /// ansatz dimension differs from the feature pipeline's output
    /// dimension, and [`EnqodeError::InvalidConfig`] for duplicate class
    /// labels.
    pub fn from_trained_parts(
        features: FeaturePipeline,
        class_models: Vec<ClassModel>,
    ) -> Result<Self, EnqodeError> {
        let mut seen = std::collections::BTreeSet::new();
        for cm in &class_models {
            let dim = cm.model.config().ansatz.dimension();
            if dim != features.output_dim() {
                return Err(EnqodeError::DimensionMismatch {
                    expected: features.output_dim(),
                    found: dim,
                });
            }
            if !seen.insert(cm.label) {
                return Err(EnqodeError::InvalidConfig(format!(
                    "duplicate class label {} in trained parts",
                    cm.label
                )));
            }
        }
        Ok(Self::from_parts(features, class_models))
    }

    /// Returns the fitted feature pipeline.
    pub fn features(&self) -> &FeaturePipeline {
        &self.features
    }

    /// Returns the feature dimension every embed path expects
    /// (`2^num_qubits`).
    pub fn feature_dimension(&self) -> usize {
        self.features.output_dim()
    }

    /// Returns the symbolic phase table shared by every class model of this
    /// pipeline (`None` for a pipeline with no trained classes). All class
    /// models alias one table, so handing this `Arc` around (or cloning the
    /// pipeline behind its own `Arc`) never copies symbolic state.
    pub fn shared_symbolic(&self) -> Option<Arc<SymbolicState>> {
        self.class_models.first().map(|cm| cm.model.symbolic_arc())
    }

    /// Returns the per-class models.
    pub fn class_models(&self) -> &[ClassModel] {
        &self.class_models
    }

    /// Returns the model trained for a specific class label.
    pub fn model_for_class(&self, label: usize) -> Option<&EnqodeModel> {
        self.class_models
            .iter()
            .find(|cm| cm.label == label)
            .map(|cm| &cm.model)
    }

    /// Returns the total number of trained clusters across all classes.
    pub fn total_clusters(&self) -> usize {
        self.class_models
            .iter()
            .map(|cm| cm.model.num_clusters())
            .sum()
    }

    /// Returns the total offline training time across all classes (the
    /// paper's "offline compilation time").
    pub fn offline_duration(&self) -> Duration {
        self.class_models
            .iter()
            .map(|cm| cm.model.offline_duration())
            .sum()
    }

    /// Maps a raw sample to its normalised feature vector.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction errors.
    pub fn extract_features(&self, raw_sample: &[f64]) -> Result<Vec<f64>, EnqodeError> {
        Ok(self.features.apply(raw_sample)?)
    }

    /// Embeds a raw sample whose class label is known (the training /
    /// supervised-inference path).
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::NotTrained`] if the class has no model.
    pub fn embed_with_class(
        &self,
        raw_sample: &[f64],
        label: usize,
    ) -> Result<Embedding, EnqodeError> {
        let model = self.model_for_class(label).ok_or(EnqodeError::NotTrained)?;
        let features = self.extract_features(raw_sample)?;
        model.embed(&features)
    }

    /// Embeds a raw sample with unknown label by searching the nearest
    /// cluster across every class model.
    ///
    /// Returns the class label used along with the embedding.
    ///
    /// The sample is normalised exactly once and the winning class's cluster
    /// index is reused for the fine-tuning initialisation, so the search does
    /// no redundant normalisation or nearest-cluster recomputation.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::NotTrained`] for an empty pipeline.
    pub fn embed(&self, raw_sample: &[f64]) -> Result<(usize, Embedding), EnqodeError> {
        let features = self.extract_features(raw_sample)?;
        self.embed_features(&features)
    }

    /// Embeds an already feature-extracted sample — the second half of
    /// [`EnqodePipeline::embed`] after [`EnqodePipeline::extract_features`].
    ///
    /// Serving layers that need the feature vector themselves (for cache
    /// keys or request dedup) call this so features are extracted exactly
    /// once per request; `embed_features(extract_features(x))` is
    /// bit-identical to `embed(x)` apart from wall-clock durations.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::NotTrained`] for an empty pipeline, dimension
    /// errors for bad feature lengths, and data errors for zero vectors.
    pub fn embed_features(&self, features: &[f64]) -> Result<(usize, Embedding), EnqodeError> {
        if self.class_models.is_empty() {
            return Err(EnqodeError::NotTrained);
        }
        // The online-compile clock starts after feature extraction, matching
        // what `EnqodeModel::embed` measures (normalise + cluster lookup +
        // fine-tune + bind), so durations are comparable across both paths.
        let start = Instant::now();
        // Pick the class whose nearest cluster centroid is closest.
        let normalized = self.class_models[0].model.normalize_checked(features)?;
        let mut best: Option<(usize, usize, f64)> = None; // (class idx, cluster idx, dist²)
        for (class_idx, cm) in self.class_models.iter().enumerate() {
            let (cluster_idx, dist) = cm.model.nearest_cluster_of_normalized(&normalized)?;
            if best.map(|(_, _, d)| dist < d).unwrap_or(true) {
                best = Some((class_idx, cluster_idx, dist));
            }
        }
        let (class_idx, cluster_idx, _) = best.expect("class_models is non-empty");
        let cm = &self.class_models[class_idx];
        let embedding = cm.model.embed_normalized(&normalized, cluster_idx, start)?;
        Ok((cm.label, embedding))
    }

    /// Closed-form upper bound on the fidelity this pipeline can reach for
    /// an already feature-extracted sample, **without running the
    /// optimiser**: the squared overlap `⟨x̂, ĉ⟩²` between the normalised
    /// feature vector and its nearest cluster centroid (centroids are
    /// L2-normalised at fit time, so the overlap falls out of the nearest
    /// distance: `⟨x̂, ĉ⟩ = 1 − d²/2`).
    ///
    /// The ansatz fine-tunes *towards the centroid*, so this is the ceiling
    /// on the post-ansatz fidelity — cheap enough (one nearest-cluster
    /// search, no kernel sweeps) to audit live traffic continuously. A
    /// falling audit value means traffic has drifted away from every fitted
    /// centroid and the model wants retraining.
    ///
    /// # Errors
    ///
    /// Returns [`EnqodeError::NotTrained`] for an empty pipeline, dimension
    /// errors for bad feature lengths, and data errors for zero vectors.
    pub fn closed_form_fidelity(&self, features: &[f64]) -> Result<f64, EnqodeError> {
        if self.class_models.is_empty() {
            return Err(EnqodeError::NotTrained);
        }
        let normalized = self.class_models[0].model.normalize_checked(features)?;
        let mut best: Option<f64> = None;
        for cm in &self.class_models {
            let (_, dist) = cm.model.nearest_cluster_of_normalized(&normalized)?;
            if best.map(|d| dist < d).unwrap_or(true) {
                best = Some(dist);
            }
        }
        let dist_sq = best.expect("class_models is non-empty");
        let overlap = 1.0 - dist_sq / 2.0;
        Ok((overlap * overlap).clamp(0.0, 1.0))
    }

    /// Embeds a batch of already feature-extracted samples with one fused
    /// kernel sweep per optimisation round — the batched counterpart of
    /// [`EnqodePipeline::embed_features`].
    ///
    /// Samples are grouped by their winning class model and each group is
    /// fine-tuned in lockstep through the batched Walsh kernels (see
    /// [`crate::SymbolicBatch`]). Every per-sample result — class label,
    /// parameters, fidelity, iteration count — is **bit-identical** to the
    /// per-request [`EnqodePipeline::embed_features`] call (apart from
    /// wall-clock durations), and errors stay per-sample: one bad feature
    /// vector does not fail its batchmates.
    /// Accepts anything that dereferences to a feature slice (`Vec<f64>`,
    /// `&[f64]`, …) so batching callers can pass borrowed views instead of
    /// deep-copying every sample into an owned vector first.
    pub fn embed_features_batch<S: AsRef<[f64]>>(
        &self,
        features: &[S],
    ) -> Vec<Result<(usize, Embedding), EnqodeError>> {
        let mut out: Vec<Option<Result<(usize, Embedding), EnqodeError>>> =
            (0..features.len()).map(|_| None).collect();
        // Per-sample prep, mirroring `embed_features` exactly: normalise
        // once, then cross-class nearest-cluster search with strict `<`.
        // Group entries: original index, normalised features, cluster index,
        // and the per-sample start instant.
        type PreparedGroup = Vec<(usize, Vec<f64>, usize, Instant)>;
        let mut groups: BTreeMap<usize, PreparedGroup> = BTreeMap::new();
        for (i, feature) in features.iter().enumerate() {
            let feature = feature.as_ref();
            let start = Instant::now();
            if self.class_models.is_empty() {
                out[i] = Some(Err(EnqodeError::NotTrained));
                continue;
            }
            let prep = (|| {
                let normalized = self.class_models[0].model.normalize_checked(feature)?;
                let mut best: Option<(usize, usize, f64)> = None;
                for (class_idx, cm) in self.class_models.iter().enumerate() {
                    let (cluster_idx, dist) =
                        cm.model.nearest_cluster_of_normalized(&normalized)?;
                    if best.map(|(_, _, d)| dist < d).unwrap_or(true) {
                        best = Some((class_idx, cluster_idx, dist));
                    }
                }
                let (class_idx, cluster_idx, _) = best.expect("class_models is non-empty");
                Ok((class_idx, cluster_idx, normalized))
            })();
            match prep {
                Ok((class_idx, cluster_idx, normalized)) => groups
                    .entry(class_idx)
                    .or_default()
                    .push((i, normalized, cluster_idx, start)),
                Err(e) => out[i] = Some(Err(e)),
            }
        }
        for (class_idx, group) in groups {
            let cm = &self.class_models[class_idx];
            // Move the normalised vectors into the job list instead of
            // cloning them — the group is not needed afterwards.
            let mut indices = Vec::with_capacity(group.len());
            let jobs: Vec<(Vec<f64>, usize, Instant)> = group
                .into_iter()
                .map(|(i, normalized, cluster_idx, start)| {
                    indices.push(i);
                    (normalized, cluster_idx, start)
                })
                .collect();
            let results = cm.model.embed_normalized_batch(&jobs);
            for (i, result) in indices.into_iter().zip(results) {
                out[i] = Some(result.map(|embedding| (cm.label, embedding)));
            }
        }
        out.into_iter()
            .map(|r| r.expect("every sample resolves exactly once"))
            .collect()
    }

    /// Embeds a batch of raw, unlabelled samples in parallel. Results are in
    /// input order and identical to calling [`EnqodePipeline::embed`] per
    /// sample (apart from wall-clock durations).
    ///
    /// # Errors
    ///
    /// Returns an error from a failing sample (remaining samples are
    /// cancelled once a failure is observed).
    pub fn embed_batch(
        &self,
        raw_samples: &[Vec<f64>],
    ) -> Result<Vec<(usize, Embedding)>, EnqodeError> {
        enq_parallel::try_par_map(raw_samples, |_, sample| self.embed(sample))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansatz::{AnsatzConfig, EntanglerKind};
    use enq_data::{generate_synthetic, DatasetKind, SyntheticConfig};

    fn tiny_pipeline() -> (EnqodePipeline, Dataset) {
        let dataset = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 8,
                seed: 21,
            },
        )
        .unwrap();
        let config = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 4,
                num_layers: 8,
                entangler: EntanglerKind::Cy,
            },
            fidelity_threshold: 0.9,
            max_clusters: 4,
            offline_max_iterations: 120,
            offline_restarts: 3,
            online_max_iterations: 40,
            offline_rescue: false,
            seed: 21,
        };
        (EnqodePipeline::build(&dataset, config).unwrap(), dataset)
    }

    #[test]
    fn builds_one_model_per_class() {
        let (pipeline, _) = tiny_pipeline();
        assert_eq!(pipeline.class_models().len(), 2);
        assert!(pipeline.model_for_class(0).is_some());
        assert!(pipeline.model_for_class(1).is_some());
        assert!(pipeline.model_for_class(9).is_none());
        assert!(pipeline.total_clusters() >= 2);
        assert!(pipeline.offline_duration() > Duration::ZERO);
    }

    #[test]
    fn embeds_training_samples_with_good_fidelity() {
        let (pipeline, dataset) = tiny_pipeline();
        let label = dataset.labels()[0];
        let embedding = pipeline.embed_with_class(dataset.sample(0), label).unwrap();
        assert!(
            embedding.ideal_fidelity > 0.8,
            "fidelity {}",
            embedding.ideal_fidelity
        );
    }

    #[test]
    fn label_free_embedding_chooses_a_class() {
        let (pipeline, dataset) = tiny_pipeline();
        let (label, embedding) = pipeline.embed(dataset.sample(0)).unwrap();
        assert!(label == 0 || label == 1);
        assert!(embedding.ideal_fidelity > 0.8);
    }

    #[test]
    fn batch_embedding_matches_per_sample_embedding() {
        let (pipeline, dataset) = tiny_pipeline();
        let raw: Vec<Vec<f64>> = (0..4).map(|i| dataset.sample(i).to_vec()).collect();
        let batch = pipeline.embed_batch(&raw).unwrap();
        assert_eq!(batch.len(), raw.len());
        for (sample, (label, embedding)) in raw.iter().zip(batch.iter()) {
            let (single_label, single) = pipeline.embed(sample).unwrap();
            assert_eq!(single_label, *label);
            assert_eq!(single.parameters, embedding.parameters);
            assert_eq!(single.cluster_index, embedding.cluster_index);
        }
    }

    #[test]
    fn class_models_share_one_symbolic_table() {
        let (pipeline, _) = tiny_pipeline();
        let shared = pipeline.shared_symbolic().expect("trained pipeline");
        for cm in pipeline.class_models() {
            assert!(
                Arc::ptr_eq(&shared, &cm.model.symbolic_arc()),
                "class {} rebuilt its own symbolic table",
                cm.label
            );
        }
        assert_eq!(pipeline.feature_dimension(), 16);
    }

    #[test]
    fn embed_features_matches_embed() {
        let (pipeline, dataset) = tiny_pipeline();
        let sample = dataset.sample(1);
        let features = pipeline.extract_features(sample).unwrap();
        let (label_a, a) = pipeline.embed(sample).unwrap();
        let (label_b, b) = pipeline.embed_features(&features).unwrap();
        assert_eq!(label_a, label_b);
        assert_eq!(a.parameters, b.parameters);
        assert_eq!(a.cluster_index, b.cluster_index);
        assert_eq!(a.ideal_fidelity, b.ideal_fidelity);
    }

    #[test]
    fn embed_features_batch_is_bit_identical_to_solo_calls() {
        let (pipeline, dataset) = tiny_pipeline();
        let features: Vec<Vec<f64>> = (0..6)
            .map(|i| pipeline.extract_features(dataset.sample(i)).unwrap())
            .collect();
        let batch = pipeline.embed_features_batch(&features);
        assert_eq!(batch.len(), features.len());
        for (feature, result) in features.iter().zip(batch.iter()) {
            let (label, embedding) = result.as_ref().unwrap();
            let (solo_label, solo) = pipeline.embed_features(feature).unwrap();
            assert_eq!(*label, solo_label);
            assert_eq!(embedding.cluster_index, solo.cluster_index);
            assert_eq!(embedding.iterations, solo.iterations);
            assert_eq!(embedding.parameters.len(), solo.parameters.len());
            for (a, b) in embedding.parameters.iter().zip(solo.parameters.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parameter drift in batch");
            }
            assert_eq!(
                embedding.ideal_fidelity.to_bits(),
                solo.ideal_fidelity.to_bits(),
                "fidelity drift in batch"
            );
        }
    }

    #[test]
    fn embed_features_batch_keeps_errors_per_sample() {
        let (pipeline, dataset) = tiny_pipeline();
        let good = pipeline.extract_features(dataset.sample(0)).unwrap();
        let batch = pipeline.embed_features_batch(&[
            good.clone(),
            vec![0.0; 3], // wrong dimension
            good.clone(),
        ]);
        assert!(batch[0].is_ok());
        assert!(batch[1].is_err());
        assert!(batch[2].is_ok());
        let (_, from_batch) = batch[0].as_ref().unwrap();
        let (_, solo) = pipeline.embed_features(&good).unwrap();
        assert_eq!(from_batch.parameters, solo.parameters);
    }

    #[test]
    fn feature_extraction_has_expected_dimension() {
        let (pipeline, dataset) = tiny_pipeline();
        let features = pipeline.extract_features(dataset.sample(3)).unwrap();
        assert_eq!(features.len(), 16);
        let norm: f64 = features.iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_build_serves_all_embed_paths() {
        let dataset = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 12,
                seed: 33,
            },
        )
        .unwrap();
        let config = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 3,
                num_layers: 6,
                entangler: EntanglerKind::Cy,
            },
            fidelity_threshold: 0.9,
            max_clusters: 4,
            offline_max_iterations: 100,
            offline_restarts: 2,
            online_max_iterations: 40,
            offline_rescue: false,
            seed: 33,
        };
        let stream = StreamingFitConfig {
            chunk_size: 6,
            clusters_per_class: 2,
            passes: 2,
            polish_passes: 2,
            ..Default::default()
        };
        let mut source = enq_data::InMemorySource::new(&dataset);
        let pipeline = EnqodePipeline::build_streaming(&mut source, config, &stream).unwrap();
        assert_eq!(pipeline.class_models().len(), 2);
        assert_eq!(pipeline.total_clusters(), 4);
        assert_eq!(pipeline.feature_dimension(), 8);
        // Streaming-trained models share one symbolic table like the
        // in-memory build.
        let shared = pipeline.shared_symbolic().expect("trained pipeline");
        for cm in pipeline.class_models() {
            assert!(Arc::ptr_eq(&shared, &cm.model.symbolic_arc()));
        }
        // All embed paths work and reach reasonable fidelity on training
        // data.
        let (label, embedding) = pipeline.embed(dataset.sample(0)).unwrap();
        assert!(label == 0 || label == 1);
        assert!(
            embedding.ideal_fidelity > 0.8,
            "fidelity {}",
            embedding.ideal_fidelity
        );
        let supervised = pipeline
            .embed_with_class(dataset.sample(1), dataset.labels()[1])
            .unwrap();
        assert!(supervised.ideal_fidelity > 0.8);
    }

    #[test]
    fn streaming_build_is_chunk_order_deterministic() {
        let dataset = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 2,
                samples_per_class: 8,
                seed: 5,
            },
        )
        .unwrap();
        let config = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 3,
                num_layers: 4,
                entangler: EntanglerKind::Cy,
            },
            fidelity_threshold: 0.9,
            max_clusters: 4,
            offline_max_iterations: 60,
            offline_restarts: 1,
            online_max_iterations: 20,
            offline_rescue: false,
            seed: 5,
        };
        let stream = StreamingFitConfig {
            chunk_size: 5,
            clusters_per_class: 2,
            passes: 2,
            polish_passes: 1,
            ..Default::default()
        };
        let build = || {
            let mut source = enq_data::InMemorySource::new(&dataset);
            EnqodePipeline::build_streaming(&mut source, config.clone(), &stream).unwrap()
        };
        let a = build();
        let b = build();
        for (ca, cb) in a.class_models().iter().zip(b.class_models()) {
            assert_eq!(ca.label, cb.label);
            for (ka, kb) in ca.model.clusters().iter().zip(cb.model.clusters()) {
                assert_eq!(ka.centroid, kb.centroid);
                assert_eq!(ka.parameters, kb.parameters);
            }
        }
    }

    #[test]
    fn streaming_build_rejects_empty_sources() {
        let config = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 3,
                num_layers: 4,
                entangler: EntanglerKind::Cy,
            },
            ..EnqodeConfig::default()
        };
        // A CSV source cannot even be constructed empty; use a dataset and
        // an exhausted cursor via a zero-sample synthetic config instead.
        assert!(enq_data::SyntheticSource::new(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 0,
                samples_per_class: 1,
                seed: 0,
            },
        )
        .is_err());
        // Dimension mismatch between the source and the ansatz surfaces as
        // an error, not junk features: 8-dim ansatz needs 2^3 features but
        // raw MNIST-like samples are 784-dim, so this must *succeed* via
        // PCA; an ansatz wider than the raw dimension must fail.
        let wide = EnqodeConfig {
            ansatz: AnsatzConfig {
                num_qubits: 12,
                num_layers: 2,
                entangler: EntanglerKind::Cy,
            },
            ..config
        };
        let dataset = generate_synthetic(
            DatasetKind::MnistLike,
            &SyntheticConfig {
                classes: 1,
                samples_per_class: 4,
                seed: 1,
            },
        )
        .unwrap();
        let mut source = enq_data::InMemorySource::new(&dataset);
        assert!(
            EnqodePipeline::build_streaming(&mut source, wide, &StreamingFitConfig::default())
                .is_err()
        );
    }

    #[test]
    fn unknown_class_errors() {
        let (pipeline, dataset) = tiny_pipeline();
        assert!(matches!(
            pipeline.embed_with_class(dataset.sample(0), 42),
            Err(EnqodeError::NotTrained)
        ));
    }
}
