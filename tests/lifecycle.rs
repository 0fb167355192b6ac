//! Online model lifecycle battery: multi-source equivalence, concurrency
//! under background rebuilds, cancellation/failure hygiene, and traffic-fed
//! refresh determinism.
//!
//! * `ChainedSource`/`ShardedSource` over K shards chunk **bit-identically**
//!   to one concatenated (resp. interleaved) in-memory source, across shard
//!   counts, chunk sizes, and shard-boundary-straddling chunks (proptest);
//! * hammering `EmbedService` from several threads while a background
//!   rebuild swaps the model never yields a torn response: every answer is
//!   exactly the old generation's solution or the new one's, and post-swap
//!   answers are exactly the new one's (old-generation cache entries are
//!   unreachable);
//! * cancelling a rebuild mid-stage, or injecting a failing source, leaves
//!   the registry serving the old generation, leaks no spill temp files, and
//!   a subsequent rebuild succeeds;
//! * a traffic-fed refresh replayed from the same accumulator shards
//!   reproduces bit-identical centroids and ansatz parameters across worker
//!   thread counts and ingest modes.

use enq_data::{
    generate_synthetic, ChainedSource, DataError, Dataset, DatasetKind, InMemorySource, IngestMode,
    SampleChunk, SampleSource, ShardedSource, SyntheticConfig, SyntheticSource,
};
use enq_serve::{EmbedService, RebuildSpec, RebuildStatus, ServeConfig, ServeError, TrafficConfig};
use enqode::{AnsatzConfig, EnqodeConfig, EnqodePipeline, EntanglerKind, StreamingFitConfig};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

fn tiny_config(seed: u64) -> EnqodeConfig {
    EnqodeConfig {
        ansatz: AnsatzConfig {
            num_qubits: 3,
            num_layers: 4,
            entangler: EntanglerKind::Cy,
        },
        fidelity_threshold: 0.8,
        max_clusters: 2,
        offline_max_iterations: 40,
        offline_restarts: 1,
        online_max_iterations: 15,
        offline_rescue: false,
        seed,
    }
}

fn tiny_stream() -> StreamingFitConfig {
    StreamingFitConfig {
        chunk_size: 5,
        clusters_per_class: 1,
        passes: 1,
        polish_passes: 1,
        ..Default::default()
    }
}

fn mnist_like(classes: usize, per_class: usize, seed: u64) -> Dataset {
    generate_synthetic(
        DatasetKind::MnistLike,
        &SyntheticConfig {
            classes,
            samples_per_class: per_class,
            seed,
        },
    )
    .unwrap()
}

fn built_pipeline(seed: u64) -> (Arc<EnqodePipeline>, Dataset) {
    let dataset = mnist_like(2, 6, seed);
    (
        Arc::new(EnqodePipeline::build(&dataset, tiny_config(seed)).unwrap()),
        dataset,
    )
}

/// A directory owned by one test: named for the process and the test, and
/// removed with its contents on drop, even when an assertion fails.
struct OwnedDir(PathBuf);

impl OwnedDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("enq_lifecycle_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir(&path).unwrap();
        Self(path)
    }
}

impl Drop for OwnedDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Files in `dir` matching the stream driver's feature-spill prefix for this
/// process.
fn spill_files(dir: &Path) -> Vec<PathBuf> {
    let prefix = format!("enq_stream_spill_{}_", std::process::id());
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .map(|e| e.path())
        .collect()
}

// ---------------------------------------------------------------------------
// Multi-source combinator equivalence (proptest)
// ---------------------------------------------------------------------------

/// Distinctly-valued shard datasets: shard `s`, sample `i` is unmistakable.
fn shard_datasets(sizes: &[usize]) -> Vec<Dataset> {
    sizes
        .iter()
        .enumerate()
        .map(|(s, &n)| {
            Dataset::new(
                format!("shard{s}"),
                (0..n)
                    .map(|i| vec![(s * 1000 + i) as f64, -(i as f64) * 0.5, s as f64])
                    .collect(),
                (0..n).map(|i| (s + i) % 3).collect(),
            )
            .unwrap()
        })
        .collect()
}

fn boxed_sources(datasets: &[Dataset]) -> Vec<Box<dyn SampleSource + '_>> {
    datasets
        .iter()
        .map(|d| Box::new(InMemorySource::new(d)) as Box<dyn SampleSource + '_>)
        .collect()
}

/// The chunk trace of one full pass: per-chunk lengths plus the flat
/// (bit-exact) sample and label sequences.
fn chunk_trace(
    source: &mut dyn SampleSource,
    chunk_size: usize,
) -> (Vec<usize>, Vec<Vec<u64>>, Vec<usize>) {
    source.reset().unwrap();
    let mut lens = Vec::new();
    let mut samples: Vec<Vec<u64>> = Vec::new();
    let mut labels = Vec::new();
    let mut chunk = SampleChunk::new();
    loop {
        let n = source.next_chunk(chunk_size, &mut chunk).unwrap();
        if n == 0 {
            break;
        }
        lens.push(n);
        for s in chunk.samples() {
            samples.push(s.iter().map(|v| v.to_bits()).collect());
        }
        labels.extend_from_slice(chunk.labels());
    }
    (lens, samples, labels)
}

/// Reference interleaving: `block`-sample runs round-robin, dry shards drop
/// out.
fn interleave_reference(datasets: &[Dataset], block: usize) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut cursors = vec![0usize; datasets.len()];
    let mut samples = Vec::new();
    let mut labels = Vec::new();
    let mut current = 0usize;
    loop {
        if cursors.iter().zip(datasets).all(|(&c, d)| c >= d.len()) {
            break;
        }
        let d = &datasets[current];
        let take = block.min(d.len().saturating_sub(cursors[current]));
        for i in cursors[current]..cursors[current] + take {
            samples.push(d.sample(i).to_vec());
            labels.push(d.labels()[i]);
        }
        cursors[current] += take;
        current = (current + 1) % datasets.len();
    }
    (samples, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chained_source_is_chunk_bit_identical_to_concatenation(
        sizes in proptest::collection::vec(1usize..9, 1..5),
        chunk_size in 1usize..12,
    ) {
        let datasets = shard_datasets(&sizes);
        // Reference: one in-memory source over the concatenated samples.
        let concat = Dataset::new(
            "concat",
            datasets.iter().flat_map(|d| d.samples().to_vec()).collect(),
            datasets.iter().flat_map(|d| d.labels().to_vec()).collect(),
        ).unwrap();
        let reference = chunk_trace(&mut InMemorySource::new(&concat), chunk_size);
        let mut chained = ChainedSource::new(boxed_sources(&datasets)).unwrap();
        let got = chunk_trace(&mut chained, chunk_size);
        prop_assert_eq!(&got.0, &reference.0);
        prop_assert_eq!(&got.1, &reference.1);
        prop_assert_eq!(&got.2, &reference.2);
        // A second pass after reset is identical (rewind contract).
        let again = chunk_trace(&mut chained, chunk_size);
        prop_assert_eq!(&again.1, &reference.1);
        prop_assert_eq!(chained.len_hint(), Some(concat.len()));
    }

    #[test]
    fn sharded_source_is_chunk_bit_identical_to_interleaved_concatenation(
        sizes in proptest::collection::vec(1usize..9, 1..5),
        chunk_size in 1usize..12,
        block in 1usize..4,
    ) {
        let datasets = shard_datasets(&sizes);
        let (samples, labels) = interleave_reference(&datasets, block);
        let interleaved = Dataset::new("interleaved", samples, labels).unwrap();
        let reference = chunk_trace(&mut InMemorySource::new(&interleaved), chunk_size);
        let mut sharded = ShardedSource::new(boxed_sources(&datasets), block).unwrap();
        let got = chunk_trace(&mut sharded, chunk_size);
        prop_assert_eq!(&got.0, &reference.0);
        prop_assert_eq!(&got.1, &reference.1);
        prop_assert_eq!(&got.2, &reference.2);
        let again = chunk_trace(&mut sharded, chunk_size);
        prop_assert_eq!(&again.1, &reference.1);
    }
}

// ---------------------------------------------------------------------------
// Concurrency: hammer the service while a background rebuild swaps the model
// ---------------------------------------------------------------------------

/// A synthetic source that sleeps per chunk so a rebuild stays in flight
/// long enough for the hammer threads to overlap it.
struct SlowSource {
    inner: SyntheticSource,
    delay: Duration,
}

impl SampleSource for SlowSource {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn reset(&mut self) -> Result<(), DataError> {
        self.inner.reset()
    }
    fn next_chunk(
        &mut self,
        max_samples: usize,
        chunk: &mut SampleChunk,
    ) -> Result<usize, DataError> {
        std::thread::sleep(self.delay);
        self.inner.next_chunk(max_samples, chunk)
    }
}

fn synthetic_source(seed: u64, per_class: usize) -> SyntheticSource {
    SyntheticSource::new(
        DatasetKind::MnistLike,
        &SyntheticConfig {
            classes: 2,
            samples_per_class: per_class,
            seed,
        },
    )
    .unwrap()
}

#[test]
fn concurrent_embeds_see_exactly_one_generation_per_response() {
    let (v1, dataset) = built_pipeline(1);
    let service = Arc::new(EmbedService::new(ServeConfig {
        flush_deadline: Duration::ZERO,
        ..Default::default()
    }));
    service.register_model("live", Arc::clone(&v1));
    let samples: Vec<Vec<f64>> = (0..6).map(|i| dataset.sample(i).to_vec()).collect();
    let v1_refs: Vec<(usize, Vec<f64>)> = samples
        .iter()
        .map(|s| {
            let (label, e) = v1.embed(s).unwrap();
            (label, e.parameters)
        })
        .collect();

    // Kick off the background rebuild (fresh fit from a slow raw source so
    // it stays in flight while the hammer runs).
    let ticket = service
        .rebuild_controller()
        .start(
            "live",
            SlowSource {
                inner: synthetic_source(2, 20),
                delay: Duration::from_millis(2),
            },
            RebuildSpec::new(tiny_config(2), tiny_stream()),
        )
        .unwrap();

    // Hammer from several threads until the swap lands, then one more round
    // so every thread provably embeds against the new generation too.
    let observations: Vec<(usize, usize, Vec<f64>)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..4 {
            let service = Arc::clone(&service);
            let samples = &samples;
            let ticket = ticket.clone();
            handles.push(scope.spawn(move || {
                let mut seen = Vec::new();
                let mut extra_rounds = 0;
                while extra_rounds < 2 {
                    if ticket.is_finished() {
                        extra_rounds += 1;
                    }
                    for (i, sample) in samples.iter().enumerate() {
                        // Alternate paths so both the batcher and the
                        // direct path run during the swap.
                        let response = if (t + i) % 2 == 0 {
                            service.embed("live", sample)
                        } else {
                            service.embed_direct("live", sample)
                        }
                        .expect("the service must stay available throughout");
                        seen.push((i, response.label(), response.embedding().parameters.clone()));
                    }
                }
                seen
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("hammer thread"))
            .collect()
    });

    assert_eq!(ticket.wait(), RebuildStatus::Succeeded);
    let v2 = service.registry().get("live").unwrap();
    assert!(!Arc::ptr_eq(&v1, &v2), "the rebuild swapped a new pipeline");
    let v2_refs: Vec<(usize, Vec<f64>)> = samples
        .iter()
        .map(|s| {
            let (label, e) = v2.embed(s).unwrap();
            (label, e.parameters)
        })
        .collect();

    // Every response matches exactly one generation, bit for bit — no torn
    // reads, no solution computed by one model and labelled by another.
    let mut from_v1 = 0usize;
    let mut from_v2 = 0usize;
    for (i, label, parameters) in &observations {
        let v1_match = v1_refs[*i] == (*label, parameters.clone());
        let v2_match = v2_refs[*i] == (*label, parameters.clone());
        assert!(
            v1_match ^ v2_match || (v1_match && v2_match),
            "sample {i}: response matches neither generation exactly"
        );
        if v1_match {
            from_v1 += 1;
        } else {
            from_v2 += 1;
        }
    }
    assert!(from_v1 > 0, "some responses predate the swap");
    assert!(from_v2 > 0, "some responses postdate the swap");

    // Post-swap, the old generation is unreachable: cached v1 solutions are
    // keyed under the old generation, so every fresh embed is exactly v2.
    for (i, sample) in samples.iter().enumerate() {
        let response = service.embed("live", sample).unwrap();
        assert_eq!(
            (response.label(), response.embedding().parameters.clone()),
            v2_refs[i],
            "post-swap responses must come from the new generation"
        );
    }
}

// ---------------------------------------------------------------------------
// Cancellation and failure hygiene
// ---------------------------------------------------------------------------

/// Calls a hook with the running chunk-read count before every read.
struct HookSource<F: FnMut(usize) -> Result<(), DataError> + Send> {
    inner: SyntheticSource,
    reads: usize,
    hook: F,
}

impl<F: FnMut(usize) -> Result<(), DataError> + Send> SampleSource for HookSource<F> {
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn reset(&mut self) -> Result<(), DataError> {
        self.inner.reset()
    }
    fn next_chunk(
        &mut self,
        max_samples: usize,
        chunk: &mut SampleChunk,
    ) -> Result<usize, DataError> {
        self.reads += 1;
        (self.hook)(self.reads)?;
        self.inner.next_chunk(max_samples, chunk)
    }
}

#[test]
fn cancel_and_failure_leave_the_registry_untouched_and_leak_nothing() {
    let (v1, _) = built_pipeline(3);
    let service = EmbedService::new(ServeConfig {
        flush_deadline: Duration::ZERO,
        ..Default::default()
    });
    service.register_model("live", Arc::clone(&v1));
    let (_, generation) = service.registry().get_with_generation("live").unwrap();
    // Other tests in this process spill into the shared temp dir while this
    // one runs; every rebuild here spills into a directory of its own, and
    // only that directory is counted.
    let dir = OwnedDir::new("cancel_failure");
    let stream = StreamingFitConfig {
        spill_dir: Some(dir.0.clone()),
        ..tiny_stream()
    };
    let spills_before = spill_files(&dir.0).len();
    let controller = service.rebuild_controller();

    // --- Cancellation mid-stage -------------------------------------------
    // The source cancels its own ticket at the 4th chunk read, so the
    // cancellation deterministically lands mid-features-pass.
    let ticket_cell: Arc<Mutex<Option<enq_serve::RebuildTicket>>> = Arc::new(Mutex::new(None));
    let cell = Arc::clone(&ticket_cell);
    let cancelling = HookSource {
        inner: synthetic_source(4, 20),
        reads: 0,
        hook: move |reads| {
            if reads == 4 {
                loop {
                    if let Some(ticket) = cell.lock().unwrap().as_ref() {
                        ticket.cancel();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(())
        },
    };
    let ticket = controller
        .start(
            "live",
            cancelling,
            RebuildSpec::new(tiny_config(4), stream.clone()),
        )
        .unwrap();
    *ticket_cell.lock().unwrap() = Some(ticket.clone());
    assert_eq!(ticket.wait(), RebuildStatus::Cancelled);
    let (after_cancel, generation_after_cancel) =
        service.registry().get_with_generation("live").unwrap();
    assert!(Arc::ptr_eq(&v1, &after_cancel), "registry untouched");
    assert_eq!(generation, generation_after_cancel);
    assert_eq!(
        spill_files(&dir.0).len(),
        spills_before,
        "no spill file leaked"
    );
    // The cancelled fit completed no stage.
    assert!(ticket.progress().is_empty());

    // --- Injected source failure ------------------------------------------
    // Pass 1 over 40 samples at chunk 5 is 9 reads (8 full + the empty
    // terminal read); failing at read 12 lands mid-spill-pass, after the
    // spill temp file was created — its cleanup is exactly what we pin. The
    // hook records the census at that read (asserted after `wait`: a panic
    // inside the source would never reach a terminal status).
    let spills_at_failure: Arc<Mutex<Option<usize>>> = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&spills_at_failure);
    let spill_dir = dir.0.clone();
    let failing = HookSource {
        inner: synthetic_source(4, 20),
        reads: 0,
        hook: move |reads| {
            if reads == 12 {
                *seen.lock().unwrap() = Some(spill_files(&spill_dir).len());
                Err(DataError::Io("injected shard failure".to_string()))
            } else {
                Ok(())
            }
        },
    };
    let ticket = controller
        .start(
            "live",
            failing,
            RebuildSpec::new(tiny_config(4), stream.clone()),
        )
        .unwrap();
    let status = ticket.wait();
    match &status {
        RebuildStatus::Failed(message) => {
            assert!(message.contains("injected shard failure"), "{message}")
        }
        other => panic!("expected a failure, got {other:?}"),
    }
    assert_eq!(
        *spills_at_failure.lock().unwrap(),
        Some(spills_before + 1),
        "the failure lands while the spill file exists"
    );
    let (after_failure, generation_after_failure) =
        service.registry().get_with_generation("live").unwrap();
    assert!(Arc::ptr_eq(&v1, &after_failure), "registry untouched");
    assert_eq!(generation, generation_after_failure);
    assert_eq!(
        spill_files(&dir.0).len(),
        spills_before,
        "no spill file leaked"
    );

    // --- And the id is not poisoned: a clean rebuild now succeeds ---------
    let ticket = controller
        .start(
            "live",
            synthetic_source(4, 8),
            RebuildSpec::new(tiny_config(4), stream),
        )
        .unwrap();
    assert_eq!(ticket.wait(), RebuildStatus::Succeeded);
    let (rebuilt, generation_after_success) =
        service.registry().get_with_generation("live").unwrap();
    assert!(!Arc::ptr_eq(&v1, &rebuilt));
    assert!(generation_after_success > generation);
    assert_eq!(
        spill_files(&dir.0).len(),
        spills_before,
        "spill removed on success"
    );
    let stages: Vec<&str> = ticket.progress().iter().map(|s| s.stage).collect();
    assert_eq!(stages, vec!["features", "clustering", "training"]);
}

// ---------------------------------------------------------------------------
// Traffic-fed refresh determinism
// ---------------------------------------------------------------------------

#[test]
fn traffic_replay_is_bit_identical_across_thread_counts_and_ingest_modes() {
    let (v1, dataset) = built_pipeline(9);
    let service = EmbedService::new(ServeConfig {
        flush_deadline: Duration::ZERO,
        traffic: TrafficConfig {
            enabled: true,
            buffer_samples: 8,
            ..Default::default()
        },
        ..Default::default()
    });
    service.register_model("live", Arc::clone(&v1));

    // A deterministic stream of 24 distinct samples: every request pays for
    // feature extraction and is recorded in arrival order.
    let mut served = 0u64;
    for round in 0..2 {
        for i in 0..dataset.len() {
            let mut sample = dataset.sample(i).to_vec();
            sample[0] += (round as f64 + 1.0) * 0.01 * (i as f64 + 1.0);
            service.embed("live", &sample).unwrap();
            served += 1;
        }
    }
    let stats = service.traffic().stats("live");
    assert_eq!(stats.recorded, served);
    let corpus = service.traffic().corpus("live").unwrap();
    assert_eq!(corpus.len(), served);
    assert!(
        corpus.num_shards() >= 2,
        "budget of 8 forces multiple shards"
    );
    assert_eq!(corpus.feature_dim(), 8);

    // Replay the same shards through the driver under different worker
    // thread counts and ingest modes; the refreshed models must agree bit
    // for bit (fixed-shard reductions + chunk-size-invariant sources).
    let refresh = |threads: usize, ingest: IngestMode, id: &str| -> Arc<EnqodePipeline> {
        let source = corpus.chronological_source().unwrap();
        let spec = RebuildSpec {
            config: tiny_config(77),
            stream: StreamingFitConfig {
                chunk_size: 6,
                clusters_per_class: 2,
                passes: 2,
                polish_passes: 2,
                ingest,
                spill_features: false,
                ..Default::default()
            },
            features: Some(v1.features().clone()),
            threads: Some(NonZeroUsize::new(threads).unwrap()),
        };
        let ticket = service
            .rebuild_controller()
            .start(id, source, spec)
            .unwrap();
        assert_eq!(ticket.wait(), RebuildStatus::Succeeded);
        service.registry().get(id).unwrap()
    };
    let reference = refresh(1, IngestMode::Synchronous, "refresh-a");
    for (threads, ingest, id) in [
        (3, IngestMode::Synchronous, "refresh-b"),
        (2, IngestMode::Prefetched, "refresh-c"),
    ] {
        let other = refresh(threads, ingest, id);
        assert_eq!(reference.class_models().len(), other.class_models().len());
        for (a, b) in reference.class_models().iter().zip(other.class_models()) {
            assert_eq!(a.label, b.label);
            for (ka, kb) in a.model.clusters().iter().zip(b.model.clusters()) {
                assert_eq!(
                    ka.centroid, kb.centroid,
                    "{id}: centroids drifted across thread counts"
                );
                assert_eq!(
                    ka.parameters, kb.parameters,
                    "{id}: ansatz parameters drifted across thread counts"
                );
            }
        }
        // The adopted PCA basis is byte-for-byte the serving model's.
        let probe = dataset.sample(0);
        assert_eq!(
            v1.extract_features(probe).unwrap(),
            other.extract_features(probe).unwrap()
        );
    }

    // Clearing the accumulator removes the shard files once the corpus (the
    // last reference) drops.
    let paths = corpus.shard_paths();
    assert!(paths.iter().all(|p| p.exists()));
    service.traffic().clear("live");
    drop(corpus);
    assert!(paths.iter().all(|p| !p.exists()), "shard files leaked");
}

// ---------------------------------------------------------------------------
// Guard-rail: refreshing without traffic is a clean error
// ---------------------------------------------------------------------------

#[test]
fn refresh_without_recorded_traffic_is_rejected() {
    let (v1, _) = built_pipeline(5);
    let service = EmbedService::new(ServeConfig::default()); // traffic disabled
    service.register_model("live", v1);
    assert!(matches!(
        service.refresh_from_traffic("live", tiny_config(5), tiny_stream()),
        Err(ServeError::NoTraffic(_))
    ));
}
