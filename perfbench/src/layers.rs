//! The traced run's per-layer figures: an in-process replay of a
//! workload's stream against the model `enqd` serves, with a span around
//! every call the benchmark makes into a layer's public functions.
//!
//! The replay has two phases. The lone phase sends cold samples one at a
//! time through the default-config service and then calls each compute
//! layer on the same sample; the hits phase replays exact repeats and
//! near-duplicates of a pool from the workload's callers.

use crate::load::{HotSchedule, Pool, Req};
use crate::stats;
use crate::trace::Recorder;
use crate::wire::{self, MODEL_ID};
use enq_net::protocol::encode_embed_reply_into;
use enq_net::{decode_frame, Frame};
use enq_optim::{Lbfgs, Objective, Optimizer};
use enq_serve::{
    restore_registry, EmbedService, ModelRegistry, ServeConfig, DEFAULT_REGISTRY_SHARDS,
};
use enqode::{EnqodePipeline, FidelityObjective};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pool size and request count of the hits phase for workloads whose own
/// stream has no repeats.
const REPEAT_POOL: usize = 256;
const REPEAT_REQUESTS: usize = 4096;

pub type Metric = (&'static str, f64, &'static str);

/// What the probe replays, and where.
pub struct Probe<'a> {
    /// The model directory `enqd` booted from.
    pub dir: &'a Path,
    /// Cold samples for the lone phase.
    pub lone: &'a [Vec<f64>],
    /// Pool of the hits phase, and each caller's requests over it.
    pub pool: &'a Pool,
    pub hits: Vec<Vec<Req>>,
    /// Whether the workload's own wire stream is the hits phase (else the
    /// lone phase).
    pub main_is_hits: bool,
    /// Median of the traced run's wire window.
    pub wire_p50_us: f64,
    pub epoch: Instant,
    /// Spans recorded so far in the run; the probe adds its own and writes
    /// them all to `trace_file`.
    pub spans: Recorder,
    pub trace_file: &'a Path,
}

/// A hits phase for a cold stream: the last [`REPEAT_POOL`] samples sent
/// (still cached), requested by one caller with the hot mix.
pub fn repeats_of(samples: &[Vec<f64>], seed: u64) -> (Pool, Vec<Vec<Req>>) {
    let pool = Pool::new(samples[samples.len().saturating_sub(REPEAT_POOL)..].to_vec());
    let mut schedule = HotSchedule::new(seed, 0, 1, pool.len());
    let reqs = (0..REPEAT_REQUESTS).map(|_| schedule.next_req()).collect();
    (pool, vec![reqs])
}

/// Restores the model directory into a fresh registry, as a warm boot does.
fn restore(dir: &Path) -> Result<(Arc<ModelRegistry>, f64), String> {
    let registry = Arc::new(ModelRegistry::with_shards(DEFAULT_REGISTRY_SHARDS));
    let t = Instant::now();
    restore_registry(&registry, dir).map_err(|e| format!("restoring {}: {e}", dir.display()))?;
    Ok((registry, t.elapsed().as_secs_f64()))
}

/// One request through the wire codec and the service, as `enqd` handles
/// it: decode the request frame, embed, encode the reply. Returns the
/// request and reply frame sizes.
fn request(
    rec: &mut Recorder,
    service: &EmbedService,
    id: u64,
    sample: &[f64],
    embed_span: &'static str,
    frame: &mut Vec<u8>,
    reply: &mut Vec<u8>,
) -> Result<(usize, usize), String> {
    frame.clear();
    wire::encode_request(frame, id, sample);
    let root = rec.open("request", id, None);
    let decoded = rec.span("net.decode", id, Some(root), || decode_frame(frame));
    let Ok(Some((Frame::EmbedRequest { sample, .. }, _))) = decoded else {
        return Err(format!("request {id} did not decode"));
    };
    let response = rec
        .span(embed_span, id, Some(root), || {
            service.embed(MODEL_ID, &sample)
        })
        .map_err(|e| format!("in-process embed of request {id}: {e}"))?;
    rec.span("net.encode", id, Some(root), || {
        reply.clear();
        let e = response.embedding();
        encode_embed_reply_into(
            reply,
            id,
            response.label() as u64,
            e.ideal_fidelity,
            &e.parameters,
            0,
        );
    });
    rec.close(root);
    Ok((frame.len(), reply.len()))
}

pub fn probe(p: Probe<'_>) -> Result<Vec<Metric>, String> {
    let (registry, restore_s) = restore(p.dir)?;
    let pipeline: Arc<EnqodePipeline> = registry
        .get(MODEL_ID)
        .ok_or("the artifact holds no default model")?;
    let service = EmbedService::with_registry(registry, ServeConfig::default());
    // `embed_direct` runs on a service of its own, so it meets each lone
    // sample cold as well.
    let direct = EmbedService::with_registry(restore(p.dir)?.0, ServeConfig::default());
    let (memo0, cache0, stats0) = (service.memo_stats(), service.cache_stats(), service.stats());
    let mut rec = Recorder::new(p.epoch);
    let (mut frame, mut reply) = (Vec::new(), Vec::new());
    let mut sizes = (0, 0);
    let (mut iterations, mut evaluations) = (0usize, 0usize);

    // Lone phase.
    let model = &pipeline.class_models()[0].model;
    let ansatz = model.config().ansatz;
    let lbfgs = Lbfgs::with_max_iterations(model.config().online_max_iterations);
    let symbolic = pipeline
        .shared_symbolic()
        .ok_or("model has no symbolic state")?;
    let mut gradient = vec![0.0; ansatz.num_parameters()];
    for (n, raw) in p.lone.iter().enumerate() {
        let id = n as u64 + 1;
        sizes = request(
            &mut rec,
            &service,
            id,
            raw,
            "serve.embed.cold",
            &mut frame,
            &mut reply,
        )?;
        rec.span("serve.embed_direct", id, None, || {
            direct.embed_direct(MODEL_ID, raw)
        })
        .map_err(|e| format!("embed_direct: {e}"))?;
        let features = rec
            .span("data.extract", id, None, || pipeline.extract_features(raw))
            .map_err(|e| format!("extract_features: {e}"))?;
        rec.span("core.nearest", id, None, || {
            for cm in pipeline.class_models() {
                black_box(cm.model.nearest_cluster(&features).expect("trained model"));
            }
        });
        let (label, embedding) = rec
            .span("core.embed_solo", id, None, || {
                pipeline.embed_features(&features)
            })
            .map_err(|e| format!("embed_features: {e}"))?;
        rec.span("core.embed_batch1", id, None, || {
            black_box(pipeline.embed_features_batch(&[&features]))
        });
        let start = &pipeline
            .model_for_class(label)
            .expect("label of a trained class")
            .clusters()[embedding.cluster_index]
            .parameters;
        let objective = FidelityObjective::with_symbolic(Arc::clone(&symbolic), &ansatz, &features)
            .map_err(|e| format!("objective: {e}"))?;
        let result = rec.span("optim.finetune", id, None, || {
            lbfgs.minimize(&objective, start)
        });
        iterations += result.iterations;
        evaluations += result.evaluations;
        rec.span("core.circuit", id, None, || {
            black_box(ansatz.build_bound(&result.x))
        })
        .map_err(|e| format!("build_bound: {e}"))?;
        rec.span("core.score", id, None, || {
            black_box(objective.fidelity(&result.x))
        });
        rec.span("core.kernel_eval", id, None, || {
            black_box(objective.value_and_gradient_into(start, &mut gradient))
        });
    }

    // Hits phase: the workload's callers, one thread each.
    let base = p.lone.len() as u64 + 1;
    let recorders = std::thread::scope(|scope| {
        let handles: Vec<_> = p
            .hits
            .iter()
            .enumerate()
            .map(|(caller, reqs)| {
                let (service, pipeline, pool) = (&service, &pipeline, p.pool);
                scope.spawn(move || -> Result<Recorder, String> {
                    let mut rec = Recorder::new(p.epoch);
                    let (mut frame, mut reply) = (Vec::new(), Vec::new());
                    for (n, &req) in reqs.iter().enumerate() {
                        let id = base + ((caller as u64) << 40) + n as u64;
                        let sample = pool.sample(req);
                        let span = match req {
                            Req::NearDup(..) => "serve.embed.near_dup",
                            _ => "serve.embed.repeat",
                        };
                        request(&mut rec, service, id, &sample, span, &mut frame, &mut reply)?;
                        rec.span("data.extract", id, None, || {
                            pipeline.extract_features(&sample)
                        })
                        .map_err(|e| format!("extract_features: {e}"))?;
                    }
                    Ok(rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay caller panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    for r in recorders {
        rec.absorb(r);
    }
    let (memo, cache, served) = (service.memo_stats(), service.cache_stats(), service.stats());

    let med = |name: &str| stats::median(&rec.durations_us(name));
    let lone_n = p.lone.len().max(1) as f64;
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let main_embed = if p.main_is_hits {
        let mut all = rec.durations_us("serve.embed.repeat");
        all.extend(rec.durations_us("serve.embed.near_dup"));
        stats::median(&all)
    } else {
        med("serve.embed.cold")
    };
    // The blocking path of the main phase's requests: a computed request
    // decodes, extracts, runs the solo embed and encodes; a hit decodes,
    // takes the service's hit path and encodes.
    let blocking = med("net.decode")
        + med("net.encode")
        + if p.main_is_hits {
            main_embed
        } else {
            med("data.extract") + med("core.embed_solo")
        };
    let metrics = vec![
        ("net.decode_us", med("net.decode"), "us"),
        ("net.encode_us", med("net.encode"), "us"),
        ("net.request_bytes", sizes.0 as f64, "bytes"),
        ("net.reply_bytes", sizes.1 as f64, "bytes"),
        ("net.wire_overhead_us", p.wire_p50_us - main_embed, "us"),
        ("net.residual_us", p.wire_p50_us - blocking, "us"),
        ("trace.wire_p50_us", p.wire_p50_us, "us"),
        (
            "trace.request_self_us",
            stats::median(&rec.self_times_us("request")),
            "us",
        ),
        ("serve.lone_queued_us", med("serve.embed.cold"), "us"),
        ("serve.lone_direct_us", med("serve.embed_direct"), "us"),
        ("serve.memo_hit_us", med("serve.embed.repeat"), "us"),
        ("serve.cell_hit_us", med("serve.embed.near_dup"), "us"),
        (
            "serve.memo_hit_ratio",
            ratio(memo.hits - memo0.hits, memo.misses - memo0.misses),
            "ratio",
        ),
        (
            "serve.cell_hit_ratio",
            ratio(cache.hits - cache0.hits, cache.misses - cache0.misses),
            "ratio",
        ),
        (
            "serve.batch_size_mean",
            (served.requests - stats0.requests) as f64
                / (served.batches - stats0.batches).max(1) as f64,
            "requests",
        ),
        ("data.extract_us", med("data.extract"), "us"),
        ("core.nearest_us", med("core.nearest"), "us"),
        ("core.embed_solo_us", med("core.embed_solo"), "us"),
        ("core.embed_batch1_us", med("core.embed_batch1"), "us"),
        ("core.circuit_us", med("core.circuit"), "us"),
        ("core.score_us", med("core.score"), "us"),
        ("core.kernel_eval_us", med("core.kernel_eval"), "us"),
        ("optim.finetune_us", med("optim.finetune"), "us"),
        ("optim.iterations", iterations as f64 / lone_n, "count"),
        ("optim.evaluations", evaluations as f64 / lone_n, "count"),
        ("store.restore_s", restore_s, "s"),
    ];
    let mut all = p.spans;
    all.absorb(rec);
    if let Some(dir) = p.trace_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    all.write_tsv(p.trace_file)
        .map_err(|e| format!("writing {}: {e}", p.trace_file.display()))?;
    println!(
        "trace: {} spans in {}",
        all.spans().len(),
        p.trace_file.display()
    );
    Ok(metrics)
}
