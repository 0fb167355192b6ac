//! The serving workloads: closed-loop callers against a live `enqd` at its
//! shipped defaults, warm-booted from an `ENQM` artifact of a model the
//! benchmark trains at the paper shape.

use crate::check::{self, Oracle};
use crate::fit;
use crate::layers::{self, Probe};
use crate::load::{self, HotSchedule, Pool, Req, Samples};
use crate::stats;
use crate::trace::Recorder;
use crate::wire::{self, Conn, Daemon, Reply};
use crate::{Ctx, Outcome};
use enq_data::Dataset;
use enqode::{EnqodeConfig, EnqodePipeline};
use std::path::Path;
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One caller; every request is a sample not sent before.
    Cold,
    /// Two callers over a warmed pool; exact repeats and near-duplicates.
    Hot,
}

/// Size of the hot pool.
const POOL: usize = 384;
/// Callers of `serve-hot` (the core count of the reference machine).
const HOT_CALLERS: usize = 2;
/// One cold reply in this many is compared bit for bit with the
/// in-process pipeline.
const BITWISE_EVERY: usize = 64;
/// Fits made after the window for `fit_s`, besides the set-up's.
const EXTRA_FITS: usize = 2;
/// Cold requests the traced in-process replay covers: each costs a few
/// ms there, since every layer is called on it one by one.
const REPLAY_COLD: usize = 1024;
/// Hot requests per caller the traced in-process replay covers.
const REPLAY_HOT: usize = 16_384;

/// The artifact a daemon boots from, with what writing it cost.
pub struct Artifact {
    pub write_s: f64,
    pub bytes: u64,
}

/// Writes `pipeline` into `dir` as the `ENQM` artifact `enqd` warm-boots
/// from (generation 1, `enqd`'s default model id).
pub fn persist(pipeline: &EnqodePipeline, dir: &Path) -> Result<Artifact, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(enq_store::artifact_file_name(wire::MODEL_ID));
    let t = Instant::now();
    enq_store::write_model_file(&path, wire::MODEL_ID, 1, pipeline)
        .map_err(|e| format!("writing the artifact: {e}"))?;
    let write_s = t.elapsed().as_secs_f64();
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?
        .len();
    Ok(Artifact { write_s, bytes })
}

/// One request of a measured window.
pub struct Sent {
    pub req: Req,
    pub latency_us: f64,
    /// The reply, when the caller keeps it (cold replies always; a hot
    /// reply only when it differs from the pool sample's first reply).
    pub reply: Option<Reply>,
    pub failed: bool,
}

/// A measured window of wire requests.
pub struct Window {
    pub sent: Vec<Vec<Sent>>,
    /// From the callers' common start to the last reply.
    pub elapsed_s: f64,
    pub spans: Recorder,
}

impl Window {
    pub fn latencies_us(&self) -> Vec<f64> {
        self.sent
            .iter()
            .flatten()
            .filter(|s| !s.failed)
            .map(|s| s.latency_us)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.sent.iter().map(|s| s.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.sent.iter().flatten().filter(|s| s.failed).count() as u64
    }
}

/// A caller's request source: the next request and its raw sample, or
/// `None` when it has run dry.
pub type Feed<'a> = Box<dyn FnMut() -> Result<Option<(Req, Vec<f64>)>, String> + Send + 'a>;

/// Runs one closed-loop caller per feed, each on its own connection, until
/// `seconds` have passed (or every feed has run dry). Each request is sent
/// once; a typed error reply counts as a failed operation. `keep` decides
/// which replies are stored for the checks.
pub fn drive(
    addr: &str,
    feeds: Vec<Feed<'_>>,
    seconds: Option<f64>,
    keep: &(dyn Fn(Req, &Reply) -> bool + Sync),
    epoch: Instant,
    trace: bool,
) -> Result<Window, String> {
    let barrier = Barrier::new(feeds.len());
    let t0: OnceLock<Instant> = OnceLock::new();
    let conns = (0..feeds.len())
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = feeds
            .into_iter()
            .zip(conns)
            .enumerate()
            .map(|(caller, (mut feed, mut conn))| {
                let (barrier, t0) = (&barrier, &t0);
                scope.spawn(move || -> Result<(Vec<Sent>, Instant, Recorder), String> {
                    let mut spans = Recorder::new(epoch);
                    let mut frame = Vec::new();
                    let mut sent = Vec::new();
                    barrier.wait();
                    let start = *t0.get_or_init(Instant::now);
                    let deadline = seconds.map(|s| start + std::time::Duration::from_secs_f64(s));
                    let mut last = start;
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let Some((req, sample)) = feed()? else { break };
                        let id = ((caller as u64) << 40) | (sent.len() as u64 + 1);
                        frame.clear();
                        wire::encode_request(&mut frame, id, &sample);
                        let span = trace.then(|| spans.open("wire.request", id, None));
                        let t = Instant::now();
                        conn.send(&frame)?;
                        let reply = wire::read_reply(&mut conn, id)?;
                        last = Instant::now();
                        if let Some(span) = span {
                            spans.close(span);
                        }
                        let latency_us = (last - t).as_secs_f64() * 1e6;
                        let failed = reply.is_none();
                        let reply = reply.filter(|r| keep(req, r));
                        sent.push(Sent {
                            req,
                            latency_us,
                            reply,
                            failed,
                        });
                    }
                    Ok((sent, last, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let start = *t0.get().expect("callers started");
    let mut spans = Recorder::new(epoch);
    let mut sent = Vec::new();
    let mut end = start;
    for (log, last, rec) in logs {
        sent.push(log);
        end = end.max(last);
        spans.absorb(rec);
    }
    Ok(Window {
        sent,
        elapsed_s: (end - start).as_secs_f64(),
        spans,
    })
}

pub fn run(ctx: &Ctx, mix: Mix) -> Result<Outcome, String> {
    // Set-up: generate the training set, train at the paper shape, persist,
    // boot `enqd` from the artifact.
    let train = load::training_set()?;
    let t = Instant::now();
    let pipeline = train_model(&train)?;
    let train_s = t.elapsed().as_secs_f64();
    let model_dir = ctx.run_dir.join("models");
    let artifact = persist(&pipeline, &model_dir)?;
    let t = Instant::now();
    let daemon = Daemon::spawn(&ctx.enqd, &model_dir)?;
    let boot_s = t.elapsed().as_secs_f64();
    let setup_s = ctx.start.elapsed().as_secs_f64();

    // Warm the hot pool: each sample once, by one caller. Its replies are the
    // reference every later repeat and near-duplicate must equal.
    let mut data = Samples::unseen(ctx.seed)?;
    let pool = Pool::new(match mix {
        Mix::Cold => Vec::new(),
        Mix::Hot => data.take(POOL)?,
    });
    let mut reference: Vec<Reply> = Vec::new();
    if mix == Mix::Hot {
        let mut conn = Conn::connect(&daemon.addr)?;
        let mut frame = Vec::new();
        for (i, sample) in pool.samples.iter().enumerate() {
            let id = (1 << 50) | i as u64;
            frame.clear();
            wire::encode_request(&mut frame, id, sample);
            conn.send(&frame)?;
            let reply = wire::read_reply(&mut conn, id)?
                .ok_or_else(|| format!("warming pool sample {i} failed"))?;
            reference.push(reply);
        }
    }

    let window = match mix {
        Mix::Cold => {
            let mut n = 0;
            let feed: Feed = Box::new(move || {
                n += 1;
                Ok(Some((Req::Cold(n - 1), data.next_sample()?)))
            });
            drive(
                &daemon.addr,
                vec![feed],
                Some(ctx.seconds),
                &|_, _| true,
                ctx.start,
                ctx.trace,
            )?
        }
        Mix::Hot => {
            let feeds = (0..HOT_CALLERS)
                .map(|c| {
                    let mut schedule = HotSchedule::new(ctx.seed, c, HOT_CALLERS, pool.len());
                    let pool = &pool;
                    Box::new(move || {
                        let req = schedule.next_req();
                        Ok(Some((req, pool.sample(req))))
                    }) as Feed
                })
                .collect();
            let reference = &reference;
            let keep = move |req: Req, reply: &Reply| match req {
                Req::Repeat(i) | Req::NearDup(i, _) => !reply.same_bits(&reference[i]),
                Req::Cold(_) => true,
            };
            drive(
                &daemon.addr,
                feeds,
                Some(ctx.seconds),
                &keep,
                ctx.start,
                ctx.trace,
            )?
        }
    };
    let peak_rss_mb = wire::vm_hwm_mib(&daemon.pid().to_string())?;
    let replied = reference.len() as u64 + window.attempted() - window.failed();
    let served = daemon.drain()?;
    if served != replied {
        return Err(format!(
            "enqd reports served={served}, the callers received {replied} replies"
        ));
    }

    let oracle = Oracle::new(&pipeline)?;
    let fidelities = match mix {
        Mix::Cold => check_cold(&oracle, &pipeline, ctx.seed, &window)?,
        Mix::Hot => check_hot(&oracle, &pipeline, &pool, &reference, &window)?,
    };
    println!("checks: largest fidelity gap {:.1e}", oracle.max_gap());

    let mut out = Outcome {
        attempted: window.attempted(),
        failed: window.failed(),
        ..Outcome::default()
    };
    let latencies = window.latencies_us();
    if latencies.len() < 2 * stats::TAIL_BEYOND {
        return Err(format!("only {} replies in the window", latencies.len()));
    }
    let wire_p50 = stats::median(&latencies);
    if !ctx.trace {
        let (p, tail) = stats::tail(&latencies).expect("checked above");
        println!(
            "window: {} replies over {:.3} s from {} caller(s); tail is p{p}",
            latencies.len(),
            window.elapsed_s,
            window.sent.len()
        );
        out.put("setup_s", setup_s, "s");
        out.put("embed_p50_us", wire_p50, "us");
        out.put("embed_p99_us", tail, "us");
        out.put(
            "embed_rps",
            latencies.len() as f64 / window.elapsed_s,
            "req/s",
        );
        out.put("fidelity_mean", mean(&fidelities), "fidelity");
        out.put(
            "fit_s",
            fit_median(train_s + artifact.write_s, &train, &ctx.run_dir)?,
            "s",
        );
        out.put("peak_rss_mb", peak_rss_mb, "MiB");
        return Ok(out);
    }

    // Traced: the serving layers on an in-process replay of the same stream,
    // and the stages of a rebuild of the served model.
    let (lone, hit_pool, hits) = match mix {
        Mix::Cold => {
            let n = window.attempted() as usize;
            let lone = Samples::unseen(ctx.seed)?.take(n.min(REPLAY_COLD))?;
            let (pool, hits) = layers::repeats_of(&lone, ctx.seed);
            (lone, pool, hits)
        }
        Mix::Hot => {
            let hits = window
                .sent
                .iter()
                .map(|caller| caller.iter().take(REPLAY_HOT).map(|s| s.req).collect())
                .collect();
            (pool.samples.clone(), pool, hits)
        }
    };
    let mut metrics = layers::probe(Probe {
        dir: &model_dir,
        lone: &lone,
        pool: &hit_pool,
        hits,
        main_is_hits: mix == Mix::Hot,
        wire_p50_us: wire_p50,
        epoch: ctx.start,
        spans: window.spans,
        trace_file: &ctx.trace_file(),
    })?;
    let rebuild = fit::rebuild(&pipeline, &train, &ctx.run_dir)?;
    metrics.extend(rebuild.metrics());
    metrics.extend([
        ("setup.train_s", train_s, "s"),
        ("setup.boot_s", boot_s, "s"),
        ("store.write_s", artifact.write_s, "s"),
        ("store.artifact_bytes", artifact.bytes as f64, "bytes"),
    ]);
    out.metrics = metrics;
    Ok(out)
}

/// Trains the served model at the paper shape.
fn train_model(train: &Dataset) -> Result<EnqodePipeline, String> {
    EnqodePipeline::build(train, EnqodeConfig::with_qubits(8)).map_err(|e| format!("training: {e}"))
}

/// Dataset → `ENQM` time of the served model: the median of the set-up's
/// fit and [`EXTRA_FITS`] more made after the window, since one fit of a
/// few seconds on two shared cores is too noisy to compare alone.
fn fit_median(setup_fit_s: f64, train: &Dataset, run_dir: &Path) -> Result<f64, String> {
    let mut fits = vec![setup_fit_s];
    for i in 0..EXTRA_FITS {
        let t = Instant::now();
        persist(&train_model(train)?, &run_dir.join(format!("refit{i}")))?;
        fits.push(t.elapsed().as_secs_f64());
    }
    Ok(stats::median(&fits))
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Splits `items` over two threads (the checks run after the window, so
/// they take both cores) and concatenates the results in order.
pub fn par_check<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(usize, &T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let half = items.len().div_ceil(2);
    let f = &f;
    std::thread::scope(|scope| {
        let parts: Vec<_> = items
            .chunks(half.max(1))
            .enumerate()
            .map(|(part, chunk)| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, item)| f(part * half + i, item))
                        .collect::<Result<Vec<R>, String>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for part in parts {
            out.extend(part.join().expect("check thread panicked")?);
        }
        Ok(out)
    })
}

/// Every cold reply against its request's features; one in
/// [`BITWISE_EVERY`] bit for bit against the in-process pipeline. Returns
/// the re-simulated fidelity of every reply.
fn check_cold(
    oracle: &Oracle,
    pipeline: &EnqodePipeline,
    seed: u64,
    window: &Window,
) -> Result<Vec<f64>, String> {
    let sent: Vec<&Sent> = window.sent.iter().flatten().collect();
    let mut samples = Samples::unseen(seed)?;
    let mut fidelities = Vec::with_capacity(sent.len());
    for batch in sent.chunks(512) {
        let raws = samples.take(batch.len())?;
        let base = fidelities.len();
        fidelities.extend(par_check(batch, |i, s| {
            let Req::Cold(n) = s.req else {
                return Err("a cold window sent a pool request".into());
            };
            if n != base + i {
                return Err(format!("cold request {n} sent out of order"));
            }
            let Some(reply) = &s.reply else {
                return Ok(None);
            };
            let raw = &raws[i];
            if n % BITWISE_EVERY == 0 {
                check::same_as_pipeline(pipeline, raw, reply)
                    .map_err(|e| format!("cold request {n}: {e}"))?;
            }
            let state = oracle.simulate(&reply.parameters)?;
            oracle
                .check_reply(&oracle.features(raw), reply, &state)
                .map(Some)
                .map_err(|e| format!("cold request {n}: {e}"))
        })?);
    }
    Ok(fidelities.into_iter().flatten().collect())
}

/// The pool's reference replies against their features and the in-process
/// pipeline; every repeat and near-duplicate reply equal to its pool
/// sample's reference, and every near-duplicate's reply checked against the
/// near-duplicate's own features. Returns the re-simulated fidelity of
/// every windowed reply.
fn check_hot(
    oracle: &Oracle,
    pipeline: &EnqodePipeline,
    pool: &Pool,
    reference: &[Reply],
    window: &Window,
) -> Result<Vec<f64>, String> {
    let states = reference
        .iter()
        .map(|r| oracle.simulate(&r.parameters))
        .collect::<Result<Vec<_>, _>>()?;
    let pool_fidelity = par_check(&pool.samples, |i, raw| {
        check::same_as_pipeline(pipeline, raw, &reference[i])
            .map_err(|e| format!("pool sample {i}: {e}"))?;
        oracle
            .check_reply(&oracle.features(raw), &reference[i], &states[i])
            .map_err(|e| format!("pool sample {i}: {e}"))
    })?;
    let sent: Vec<&Sent> = window.sent.iter().flatten().collect();
    let fidelities = par_check(&sent, |_, s| {
        if s.failed {
            return Ok(None);
        }
        match s.req {
            _ if s.reply.is_some() => Err(format!(
                "the reply to {:?} differs from its pool sample's first reply",
                s.req
            )),
            Req::Repeat(i) => Ok(Some(pool_fidelity[i])),
            Req::NearDup(i, _) => oracle
                .check_reply(
                    &oracle.features(&pool.sample(s.req)),
                    &reference[i],
                    &states[i],
                )
                .map(Some)
                .map_err(|e| format!("{:?}: {e}", s.req)),
            Req::Cold(_) => Err("a hot window sent a cold request".into()),
        }
    })?;
    Ok(fidelities.into_iter().flatten().collect())
}
