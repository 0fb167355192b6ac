//! The `fit-stream` workload: a paper-size dataset written once as an
//! `ENQB` file, streamed through the `StreamDriver` stages, written as an
//! `ENQM` artifact. Also the stage timing a rebuild of a served model gets
//! in the serving workloads' traced runs.

use crate::check::FIDELITY_TOL;
use crate::layers::{self, Probe};
use crate::load::{self, Samples};
use crate::serve::{self, Feed};
use crate::sim;
use crate::stats;
use crate::trace::Recorder;
use crate::wire::{self, Daemon, Reply};
use crate::{Ctx, Outcome};
use enq_data::{
    BinaryDatasetWriter, BinarySource, Dataset, InMemorySource, SampleChunk, SampleSource,
};
use enqode::{EnqodeConfig, EnqodePipeline, FidelityAudit, StreamDriver, StreamingFitConfig};
use std::path::Path;
use std::time::Instant;

/// Held-out samples the trained model embeds after the fit.
const HELD_OUT: usize = 1000;
/// The paper's fidelity threshold for the audit.
const THRESHOLD: f64 = 0.95;
/// Cap on clusters per class in the audit.
const MAX_CLUSTERS: usize = 64;

/// The stream configuration: the audit at the paper's threshold, the
/// feature spill inside the run directory, everything else at its default.
fn stream_config(spill_dir: &Path) -> StreamingFitConfig {
    StreamingFitConfig {
        fidelity_threshold: Some(THRESHOLD),
        max_clusters_per_class: MAX_CLUSTERS,
        spill_dir: Some(spill_dir.to_path_buf()),
        ..StreamingFitConfig::default()
    }
}

/// Stage timings of one streaming fit, taken around the `run_*` calls.
pub struct Stages {
    pub features_s: f64,
    pub clustering_s: f64,
    pub audit_s: f64,
    pub training_s: f64,
    pub passes: usize,
    pub audit: FidelityAudit,
}

impl Stages {
    pub fn total_s(&self) -> f64 {
        self.features_s + self.clustering_s + self.audit_s + self.training_s
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("driver.features_s", self.features_s, "s"),
            ("driver.clustering_s", self.clustering_s, "s"),
            ("driver.audit_s", self.audit_s, "s"),
            ("driver.training_s", self.training_s, "s"),
            ("driver.passes", self.passes as f64, "count"),
            ("driver.audit_rounds", self.audit.rounds as f64, "count"),
            (
                "driver.clusters",
                self.audit.total_clusters() as f64,
                "count",
            ),
        ]
    }
}

/// Runs the four stages in order, each as a span under one `fit` span.
fn run_stages(
    driver: &mut StreamDriver<'_>,
    spans: &mut Recorder,
) -> Result<(EnqodePipeline, Stages), String> {
    let root = spans.open("fit", 0, None);
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let t = Instant::now();
        spans.span(name, 0, Some(root), f)?;
        Ok::<f64, String>(t.elapsed().as_secs_f64())
    };
    let features_s = timed("driver.features", &mut || {
        driver
            .run_features()
            .map_err(|e| format!("feature stage: {e}"))
    })?;
    let clustering_s = timed("driver.clustering", &mut || {
        driver
            .run_clustering()
            .map_err(|e| format!("clustering stage: {e}"))
    })?;
    let audit_s = timed("driver.audit", &mut || {
        driver
            .run_fidelity_audit()
            .map_err(|e| format!("audit stage: {e}"))
    })?;
    let mut pipeline = None;
    let training_s = timed("driver.training", &mut || {
        pipeline = Some(
            driver
                .run_training()
                .map_err(|e| format!("training stage: {e}"))?,
        );
        Ok(())
    })?;
    spans.close(root);
    let stages = Stages {
        features_s,
        clustering_s,
        audit_s,
        training_s,
        passes: driver.reports().iter().map(|r| r.passes_over_source).sum(),
        audit: driver
            .audit()
            .ok_or("the audit stage left no audit")?
            .clone(),
    };
    Ok((pipeline.expect("training stage ran"), stages))
}

/// The stages of a rebuild of a served model from its training set's
/// features with its feature basis preset: the path a background rebuild
/// takes.
pub fn rebuild(
    pipeline: &EnqodePipeline,
    train: &Dataset,
    spill_dir: &Path,
) -> Result<Stages, String> {
    let features = pipeline
        .features()
        .apply_dataset(train)
        .map_err(|e| format!("training features: {e}"))?;
    let mut source = InMemorySource::new(&features);
    let config = pipeline.class_models()[0].model.config().clone();
    let mut driver = StreamDriver::new(&mut source, config, stream_config(spill_dir))
        .map_err(|e| format!("rebuild driver: {e}"))?;
    driver
        .preset_features(pipeline.features().clone())
        .map_err(|e| format!("presetting features: {e}"))?;
    let mut spans = Recorder::new(Instant::now());
    Ok(run_stages(&mut driver, &mut spans)?.1)
}

/// Writes the run's training set as an `ENQB` file.
fn write_dataset(path: &Path, train: &Dataset) -> Result<(), String> {
    let mut writer = BinaryDatasetWriter::create(path, train.feature_dim(), true)
        .map_err(|e| format!("creating {}: {e}", path.display()))?;
    for (sample, &label) in train.samples().iter().zip(train.labels()) {
        writer
            .append(sample, label)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    writer
        .finish()
        .map_err(|e| format!("finishing {}: {e}", path.display()))?;
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up: the dataset, written once.
    let train = load::training_set()?;
    let enqb = ctx.run_dir.join("train.enqb");
    write_dataset(&enqb, &train)?;
    let streamed = train.len();
    drop(train);
    let setup_s = ctx.start.elapsed().as_secs_f64();

    // The fit: ENQB source → stages → durable ENQM.
    let mut spans = Recorder::new(ctx.start);
    let t = Instant::now();
    let mut source = BinarySource::open(&enqb).map_err(|e| format!("opening the ENQB: {e}"))?;
    let mut driver = StreamDriver::new(
        &mut source,
        EnqodeConfig::with_qubits(8),
        stream_config(&ctx.run_dir),
    )
    .map_err(|e| format!("driver: {e}"))?;
    let (pipeline, stages) = run_stages(&mut driver, &mut spans)?;
    drop(driver);
    let model_dir = ctx.run_dir.join("models");
    let write = spans.open("store.write", 0, None);
    let artifact = serve::persist(&pipeline, &model_dir)?;
    spans.close(write);
    let fit_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = wire::vm_hwm_mib("self")?;

    // Checks, then the held-out embeds of the decoded artifact.
    let held_out = Samples::unseen(ctx.seed)?.take(HELD_OUT)?;
    let fidelities = check_fit(&pipeline, &stages.audit, &enqb, streamed)?;
    let path = model_dir.join(enq_store::artifact_file_name(wire::MODEL_ID));
    let decoded = enq_store::read_model_file(&path)
        .map_err(|e| format!("decoding the written artifact: {e}"))?
        .pipeline;
    // Whole passes over the held-out set until the run's seconds are used:
    // the first pass is checked against the returned pipeline, later ones
    // against the first.
    let t = Instant::now();
    let mut latencies = Vec::new();
    let mut first: Vec<Reply> = Vec::with_capacity(HELD_OUT);
    while latencies.is_empty() || t.elapsed().as_secs_f64() < ctx.seconds {
        for (i, raw) in held_out.iter().enumerate() {
            let t = Instant::now();
            let (label, embedding) = decoded
                .embed(raw)
                .map_err(|e| format!("embedding held-out sample {i}: {e}"))?;
            latencies.push(t.elapsed().as_secs_f64() * 1e6);
            let got = Reply {
                label,
                fidelity: embedding.ideal_fidelity,
                parameters: embedding.parameters,
                source: 0,
            };
            match first.get(i) {
                Some(earlier) if !earlier.same_bits(&got) => {
                    return Err(format!(
                        "held-out sample {i} embeds differently on a later pass"
                    ))
                }
                Some(_) => {}
                None => first.push(got),
            }
        }
    }
    let embed_s = t.elapsed().as_secs_f64();
    for (i, (raw, got)) in held_out.iter().zip(&first).enumerate() {
        crate::check::same_as_pipeline(&pipeline, raw, got)
            .map_err(|e| format!("decoded artifact, held-out sample {i}: {e}"))?;
    }

    let mut out = Outcome {
        attempted: 1 + latencies.len() as u64,
        failed: 0,
        ..Outcome::default()
    };
    if !ctx.trace {
        let (p, tail) = stats::tail(&latencies).expect("held-out set has a tail");
        println!(
            "fit: {} clusters in {} audit rounds; held-out tail is p{p}",
            stages.audit.total_clusters(),
            stages.audit.rounds
        );
        out.put("setup_s", setup_s, "s");
        out.put("embed_p50_us", stats::median(&latencies), "us");
        out.put("embed_p99_us", tail, "us");
        out.put("embed_rps", latencies.len() as f64 / embed_s, "req/s");
        out.put("fidelity_mean", serve::mean(&fidelities), "fidelity");
        out.put("fit_s", fit_s, "s");
        out.put("peak_rss_mb", peak_rss_mb, "MiB");
        return Ok(out);
    }

    // Traced: the serving layers on the trained model, over the wire and in
    // process, with the held-out set as the cold stream.
    let t = Instant::now();
    let daemon = Daemon::spawn(&ctx.enqd, &model_dir)?;
    let boot_s = t.elapsed().as_secs_f64();
    let mut next = 0;
    let feed: Feed = Box::new(|| {
        next += 1;
        Ok(held_out
            .get(next - 1)
            .map(|s| (load::Req::Cold(next - 1), s.clone())))
    });
    let window = serve::drive(
        &daemon.addr,
        vec![feed],
        None,
        &|_, _| false,
        ctx.start,
        true,
    )?;
    let replied = window.attempted() - window.failed();
    let served = daemon.drain()?;
    if served != replied || window.failed() > 0 {
        return Err(format!(
            "enqd served {served} of {} held-out requests",
            window.attempted()
        ));
    }
    let wire_p50 = stats::median(&window.latencies_us());
    spans.absorb(window.spans);
    let (pool, hits) = layers::repeats_of(&held_out, ctx.seed);
    let mut metrics = layers::probe(Probe {
        dir: &model_dir,
        lone: &held_out,
        pool: &pool,
        hits,
        main_is_hits: false,
        wire_p50_us: wire_p50,
        epoch: ctx.start,
        spans,
        trace_file: &ctx.trace_file(),
    })?;
    metrics.extend(stages.metrics());
    metrics.extend([
        ("setup.train_s", stages.total_s(), "s"),
        ("setup.boot_s", boot_s, "s"),
        ("store.write_s", artifact.write_s, "s"),
        ("store.artifact_bytes", artifact.bytes as f64, "bytes"),
    ]);
    out.metrics = metrics;
    Ok(out)
}

/// The fit's outputs against the benchmark's own computations. Returns the
/// re-simulated fidelity of every trained cluster against its centroid.
fn check_fit(
    pipeline: &EnqodePipeline,
    audit: &FidelityAudit,
    enqb: &Path,
    streamed: usize,
) -> Result<Vec<f64>, String> {
    // PCA components are orthonormal.
    let components = pipeline.features().pca().components();
    for (i, a) in components.iter().enumerate() {
        for (j, b) in components.iter().enumerate().skip(i) {
            let want = if i == j { 1.0 } else { 0.0 };
            let got = sim::dot(a, b);
            if (got - want).abs() > 1e-9 {
                return Err(format!("PCA components {i} and {j}: inner product {got}"));
            }
        }
    }
    // Audit members account for every streamed sample.
    let members: u64 = audit
        .classes
        .iter()
        .flat_map(|c| &c.clusters)
        .map(|c| c.members)
        .sum();
    if members != streamed as u64 {
        return Err(format!(
            "audit counts {members} members, {streamed} samples were streamed"
        ));
    }
    // Each trained cluster's reported fidelity is its re-simulation.
    let oracle = crate::check::Oracle::new(pipeline)?;
    let mut clusters = Vec::new();
    for cm in pipeline.class_models() {
        let audited = audit
            .classes
            .iter()
            .find(|c| c.label == cm.label)
            .ok_or_else(|| format!("class {} was not audited", cm.label))?;
        if audited.clusters.len() != cm.model.num_clusters() {
            return Err(format!(
                "class {}: {} audited clusters, {} trained",
                cm.label,
                audited.clusters.len(),
                cm.model.num_clusters()
            ));
        }
        for (k, cluster) in cm.model.clusters().iter().enumerate() {
            clusters.push((cm.label, k, cluster));
        }
    }
    let fidelities = serve::par_check(&clusters, |_, (label, k, cluster)| {
        let state = oracle.simulate(&cluster.parameters)?;
        oracle
            .resimulated(&state, &cluster.centroid, cluster.fidelity)
            .map_err(|e| format!("class {label} cluster {k}: {e}"))
    })?;
    check_audit_minima(&oracle, pipeline, audit, enqb)?;
    println!("checks: largest fidelity gap {:.1e}", oracle.max_gap());
    Ok(fidelities)
}

/// Recomputes ⟨x̂,ĉ⟩² of every streamed sample against every trained
/// centroid of its class, from the benchmark's own features. Each audited
/// cluster minimum must be the fidelity of one of the class's samples to
/// that centroid, and no class minimum may exceed the lowest best-centroid
/// fidelity of the class (a sample's assigned centroid is never better
/// than its best one).
fn check_audit_minima(
    oracle: &crate::check::Oracle,
    pipeline: &EnqodePipeline,
    audit: &FidelityAudit,
    enqb: &Path,
) -> Result<(), String> {
    let mut source = BinarySource::open(enqb).map_err(|e| format!("re-reading the ENQB: {e}"))?;
    let mut chunk = SampleChunk::new();
    // Per class: per centroid, the smallest gap between any sample's
    // fidelity and the audited minimum; and the lowest best fidelity.
    let mut gaps: Vec<Vec<f64>> = Vec::new();
    let mut lowest_best: Vec<f64> = Vec::new();
    let classes = pipeline.class_models();
    for cm in classes {
        gaps.push(vec![f64::INFINITY; cm.model.num_clusters()]);
        lowest_best.push(f64::INFINITY);
    }
    let minima: Vec<Vec<f64>> = classes
        .iter()
        .map(|cm| {
            let audited = audit
                .classes
                .iter()
                .find(|c| c.label == cm.label)
                .expect("checked");
            audited.clusters.iter().map(|c| c.min_fidelity).collect()
        })
        .collect();
    while source
        .next_chunk(256, &mut chunk)
        .map_err(|e| format!("re-reading the ENQB: {e}"))?
        > 0
    {
        let pairs: Vec<(&Vec<f64>, usize)> = chunk
            .samples()
            .iter()
            .zip(chunk.labels().iter().copied())
            .collect();
        let rows = serve::par_check(&pairs, |_, (raw, label)| {
            let ci = classes
                .iter()
                .position(|cm| cm.label == *label)
                .ok_or_else(|| format!("sample of untrained class {label}"))?;
            let x = oracle.features(raw);
            let fids: Vec<f64> = classes[ci]
                .model
                .clusters()
                .iter()
                .map(|c| {
                    let d = sim::dot(&x, &c.centroid);
                    d * d
                })
                .collect();
            Ok((ci, fids))
        })?;
        for (ci, fids) in rows {
            for (k, f) in fids.iter().enumerate() {
                gaps[ci][k] = gaps[ci][k].min((f - minima[ci][k]).abs());
            }
            lowest_best[ci] = lowest_best[ci].min(fids.iter().copied().fold(0.0, f64::max));
        }
    }
    for (ci, cm) in classes.iter().enumerate() {
        let audited = &audit
            .classes
            .iter()
            .find(|c| c.label == cm.label)
            .expect("checked")
            .clusters;
        for (k, c) in audited.iter().enumerate() {
            if c.members > 0 && gaps[ci][k] > FIDELITY_TOL {
                return Err(format!(
                    "class {} cluster {k}: audited minimum {} is no sample's fidelity (nearest off by {})",
                    cm.label, c.min_fidelity, gaps[ci][k]
                ));
            }
        }
        let class_min = minima[ci].iter().copied().fold(f64::INFINITY, f64::min);
        if class_min > lowest_best[ci] + FIDELITY_TOL {
            return Err(format!(
                "class {}: audited minimum {class_min} above the lowest best fidelity {}",
                cm.label, lowest_best[ci]
            ));
        }
    }
    Ok(())
}
