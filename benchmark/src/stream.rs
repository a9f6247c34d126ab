//! The stream+serve workload: a PubMed twin streamed in 512-document
//! batches through a 2-node × 2-GPU streaming session while one closed-loop
//! client queries the epoch-published snapshots.

use crate::report::{cpu_seconds, peak_rss_mb, Report};
use crate::stats::{median, percentile};
use crate::trace::{busy_s, Tracer};
use crate::workloads::{
    cluster_2x2, ll_per_token, mixture_ok, pubmed_profile, query_docs, theta_from_z, Stopwatch,
    QUERY_BATCH, QUERY_OPTIONS,
};
use culda_core::checkpoint::rotation;
use culda_core::{LdaConfig, ModelSnapshots, SessionBuilder, StreamingSession};
use culda_corpus::Document;
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

pub const NAME: &str = "pubmed_stream_serve_2x2";
const BATCH_DOCS: usize = 512;
/// Live window: the batch that falls out of the last 4 is retired.
const WINDOW_BATCHES: usize = 4;
const ITERATIONS_PER_BATCH: usize = 2;
const KEEP_CHECKPOINTS: usize = 2;
/// Extra timed set-ups before each pass (set-up is short, so its median
/// needs more samples than there are passes).
const EXTRA_SETUPS: usize = 4;
const TOPICS: usize = 128;
/// LL/token of the live window the stream must reach.  The window LL is
/// not monotone (it peaks when the window first fills, then drifts down as
/// new vocabulary arrives), so the target sits in the one wide gap every
/// seed tried shows: above batch 0's value (at most −8.75) and below batch
/// 1's (at least −8.66).
const LL_TARGET: f64 = -8.705;

fn config(seed: u64) -> LdaConfig {
    LdaConfig::with_topics(TOPICS).seed(seed)
}

struct Inputs {
    batches: Vec<Vec<Document>>,
    /// Pre-built 8-document requests the client cycles through.
    requests: Vec<Vec<Vec<u32>>>,
}

fn inputs(seed: u64) -> Inputs {
    let corpus = pubmed_profile().generate(seed);
    let docs: Vec<Document> = (0..corpus.num_docs())
        .map(|d| Document::from(corpus.doc(d)))
        .collect();
    let requests = query_docs(&pubmed_profile(), seed)
        .chunks(QUERY_BATCH)
        .map(<[_]>::to_vec)
        .collect();
    Inputs {
        batches: docs.chunks(BATCH_DOCS).map(<[_]>::to_vec).collect(),
        requests,
    }
}

/// What the client saw over one pass.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    failures: Vec<String>,
    epochs: BTreeSet<u64>,
}

/// Closed loop, zero think time: the next request goes out as soon as the
/// previous reply is back, until `stop` is raised.
fn client(
    snapshots: &ModelSnapshots,
    requests: &[Vec<Vec<u32>>],
    stop: &AtomicBool,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut last_epoch = 0;
    let mut r = 0;
    while !stop.load(Ordering::Acquire) {
        let batch = &requests[r % requests.len()];
        let send = || snapshots.infer_batch(batch, QUERY_OPTIONS);
        let t = Instant::now();
        let reply = match tracer {
            Some(tr) => tr.span("serve.request", None, None, |_| send()),
            None => send(),
        };
        log.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(reply) => {
                let well_formed = reply.results.len() == batch.len()
                    && reply.results.iter().all(|d| mixture_ok(&d.mixture, TOPICS));
                if !well_formed {
                    log.failures.push(format!("request {r}: malformed reply"));
                } else if reply.epoch < last_epoch {
                    log.failures.push(format!(
                        "request {r}: epoch went back from {last_epoch} to {}",
                        reply.epoch
                    ));
                }
                last_epoch = last_epoch.max(reply.epoch);
                log.epochs.insert(reply.epoch);
            }
            Err(e) => log.failures.push(format!("request {r}: {e}")),
        }
        r += 1;
    }
    log
}

/// What one batch of the stream measured.
struct Batch {
    /// Wall seconds of ingest → train → retire → rotate.
    loop_s: f64,
    /// Wall seconds inside `StreamingSession::train`.
    train_s: f64,
    sim_s: f64,
    tokens: u64,
    docs: usize,
    /// LL/token of the live window after the batch.
    ll: f64,
}

/// One pass over the whole stream with a fresh session.
struct Pass {
    setup_s: f64,
    batches: Vec<Batch>,
    client: ClientLog,
    /// Bytes of the last rotated set and of the set the resume read.
    rotate_bytes: u64,
    resume_bytes: u64,
    foldin_p50_ms: f64,
    foldin_p99_ms: f64,
    cpu_per_wall: f64,
    /// φ-sync shard count the auto-tuner settled on (read after the last
    /// training call; retiring documents drops the trainer).
    sync_shards: Option<usize>,
    session: StreamingSession,
}

impl Pass {
    /// Wall seconds inside `StreamingSession::train` over the pass.
    fn train_wall_s(&self) -> f64 {
        self.batches.iter().map(|b| b.train_s).sum()
    }

    /// Batches streamed when the window first reached the LL target.
    fn batches_to_target(&self) -> Option<usize> {
        self.batches
            .iter()
            .position(|b| b.ll >= LL_TARGET)
            .map(|i| i + 1)
    }

    fn final_ll(&self) -> f64 {
        self.batches.last().map_or(f64::NAN, |b| b.ll)
    }
}

fn window_ll(session: &StreamingSession) -> f64 {
    let theta = theta_from_z(&session.z_snapshot(), TOPICS);
    ll_per_token(
        &theta,
        session.global_phi(),
        session.global_nk(),
        session.config(),
    )
}

fn set_bytes(stem: &Path) -> u64 {
    [
        rotation::MODEL_EXT,
        rotation::CORPUS_EXT,
        rotation::META_EXT,
    ]
    .iter()
    .filter_map(|ext| std::fs::metadata(stem.with_extension(ext)).ok())
    .map(|m| m.len())
    .sum()
}

fn setup(seed: u64, first: &[Document]) -> Result<StreamingSession, String> {
    let mut session = SessionBuilder::new()
        .config(config(seed))
        .system(cluster_2x2(seed))
        .build_streaming()
        .map_err(|e| format!("build_streaming failed: {e}"))?;
    session
        .try_ingest(first)
        .map_err(|e| format!("first ingest failed: {e}"))?;
    session
        .publish_snapshot()
        .map_err(|e| format!("first publish failed: {e}"))?;
    Ok(session)
}

/// Run `f` inside a span when tracing.
fn traced<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, None, None, |_| f()),
        None => f(),
    }
}

fn pass(
    seed: u64,
    inputs: &Inputs,
    dir: &Path,
    ll_eval: &mut Stopwatch,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let mut session = traced(tracer, "session.setup", || setup(seed, &inputs.batches[0]))?;
    let setup_s = started.elapsed().as_secs_f64();

    let mut window: VecDeque<Vec<u64>> = VecDeque::new();
    window.push_back(session.live_uids());
    let mut batches = Vec::new();
    let mut train = Stopwatch::default();
    let mut last_stem = PathBuf::new();
    let mut sync_shards = None;
    let snapshots = session.snapshots();
    let stop = AtomicBool::new(false);
    let cpu0 = cpu_seconds();

    let (result, client_log) = std::thread::scope(|s| {
        let client = s.spawn(|| client(&snapshots, &inputs.requests, &stop, tracer));
        let result = (|| -> Result<(), String> {
            for (b, batch) in inputs.batches.iter().enumerate() {
                let t = Instant::now();
                if b > 0 {
                    let uids = traced(tracer, "session.ingest", || session.try_ingest(batch))
                        .map_err(|e| format!("ingest of batch {b} failed: {e}"))?;
                    window.push_back(uids);
                }
                let before = session.history().len();
                let train_before = train.total_s;
                train
                    .time(|| {
                        traced(tracer, "session.train", || {
                            session.train(ITERATIONS_PER_BATCH).map(|_| ())
                        })
                    })
                    .map_err(|e| format!("training on batch {b} failed: {e}"))?;
                let (mut sim_s, mut tokens) = (0.0, 0);
                for stats in &session.history()[before..] {
                    sim_s += stats.sim_time_s;
                    tokens += stats.tokens_processed;
                }
                let train_s = train.total_s - train_before;
                sync_shards = session.trainer().map(|t| t.hier_sync_plan().shards());
                if window.len() > WINDOW_BATCHES {
                    let old = window.pop_front().expect("window is non-empty");
                    traced(tracer, "session.retire", || session.retire(&old))
                        .map_err(|e| format!("retire after batch {b} failed: {e}"))?;
                }
                last_stem = traced(tracer, "checkpoint.rotate", || {
                    session.rotate_checkpoints(dir, KEEP_CHECKPOINTS)
                })
                .map_err(|e| format!("rotation after batch {b} failed: {e}"))?;
                let loop_s = t.elapsed().as_secs_f64();
                // LL/token of the live window after every batch (none before
                // batch 0 has trained: fresh ingests are not a model yet).
                batches.push(Batch {
                    loop_s,
                    train_s,
                    sim_s,
                    tokens,
                    docs: batch.len(),
                    ll: ll_eval.time(|| window_ll(&session)),
                });
            }
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let log = client.join().expect("the query client panicked");
        (result, log)
    });
    let loop_wall_s: f64 = batches.iter().map(|b| b.loop_s).sum();
    let cpu_per_wall = (cpu_seconds() - cpu0) / loop_wall_s.max(1e-9);
    result?;
    eprintln!(
        "  pass: setup {setup_s:.3}s, loop {loop_wall_s:.3}s, train {:.3}s, window LL/token {:?}",
        train.total_s,
        batches.iter().map(|b| b.ll).collect::<Vec<_>>()
    );
    let serve_stats = snapshots.stats();
    Ok(Pass {
        setup_s,
        batches,
        rotate_bytes: set_bytes(&last_stem),
        resume_bytes: 0,
        foldin_p50_ms: serve_stats.p50_ms,
        foldin_p99_ms: serve_stats.p99_ms,
        cpu_per_wall,
        sync_shards,
        client: client_log,
        session,
    })
}

/// Correctness checks after a pass: session invariants, LL target, the
/// client's replies, and a resume of the last rotated set.
fn check(seed: u64, p: &mut Pass, dir: &Path, report: &mut Report, tracer: Option<&Tracer>) {
    let valid = p.session.validate();
    report.op(valid.is_ok(), || format!("validate(): {valid:?}"));
    report.op(p.batches_to_target().is_some(), || {
        format!(
            "window LL/token target {LL_TARGET} not reached (final {})",
            p.final_ll()
        )
    });
    report.ops(p.client.latencies_ms.len(), &p.client.failures);
    let latest = rotation::latest(dir).ok().flatten();
    let resumed = traced(tracer, "checkpoint.resume", || {
        StreamingSession::resume(dir, cluster_2x2(seed))
    });
    if let Some(entry) = latest {
        p.resume_bytes = set_bytes(&dir.join(entry.stem));
    }
    let same = resumed.as_ref().is_ok_and(|r| {
        r.global_phi() == p.session.global_phi() && r.global_nk() == p.session.global_nk()
    });
    report.op(same, || match &resumed {
        Ok(_) => "resumed φ/n_k differ from the live session".into(),
        Err(e) => format!("resume failed: {e}"),
    });
    let _ = std::fs::remove_dir_all(dir);
}

fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("ckpt-{}", std::process::id()))
}

/// Untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let inputs = inputs(seed);
    report.threads(1, 1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim's pool build is infallible");
    pool.install(|| {
        let measure_start = Instant::now();
        let mut setups = Vec::new();
        let dir = work_dir();
        let mut ll_eval = Stopwatch::default();
        let mut passes: Vec<Pass> = Vec::new();
        while passes.is_empty() || measure_start.elapsed().as_secs_f64() < seconds {
            for _ in 0..EXTRA_SETUPS {
                let t = Instant::now();
                let built = setup(seed, &inputs.batches[0]);
                setups.push(t.elapsed().as_secs_f64());
                report.op(built.is_ok(), || "stream set-up failed".into());
            }
            match pass(seed, &inputs, &dir, &mut ll_eval, None) {
                Ok(mut p) => {
                    check(seed, &mut p, &dir, report, None);
                    if passes.is_empty() {
                        // One full pass is the workload's footprint; later
                        // ones only add allocator churn.
                        report.metric("peak_rss_mb", peak_rss_mb());
                    }
                    if let Some(first) = passes.first() {
                        report.op(first.final_ll().to_bits() == p.final_ll().to_bits(), || {
                            "passes diverged: streaming is not deterministic".into()
                        });
                    }
                    passes.push(p);
                }
                Err(e) => {
                    report.op(false, || e);
                    return;
                }
            }
        }
        setups.extend(passes.iter().map(|p| p.setup_s));
        let batches = || passes.iter().flat_map(|p| &p.batches);
        let latencies: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.client.latencies_ms.iter().copied())
            .collect();
        let batch_rates: Vec<f64> = batches().map(|b| b.tokens as f64 / b.train_s).collect();
        // Every pass is the same stream on the same model (same seed), so
        // the deterministic metrics come from the first pass, and the wall
        // time to the target sums, batch by batch, the median over passes
        // of that batch's loop wall time.
        let first = &passes[0];
        let crossing = first.batches_to_target().unwrap_or(first.batches.len());
        let time_to_ll_s: Option<f64> = (0..crossing)
            .map(|b| {
                median(
                    &passes
                        .iter()
                        .map(|p| p.batches[b].loop_s)
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        let sim_s = |n: usize| first.batches[..n].iter().map(|b| b.sim_s).sum::<f64>();
        let tokens: u64 = first.batches.iter().map(|b| b.tokens).sum();
        report.metric("setup_s", median(&setups));
        report.metric("train_tokens_per_s", median(&batch_rates));
        report.metric("time_to_ll_s", time_to_ll_s);
        report.metric(
            "sim_tokens_per_s",
            Some(tokens as f64 / sim_s(first.batches.len())),
        );
        report.metric("sim_time_to_ll_s", Some(sim_s(crossing)));
        report.metric("nll_per_token", Some(-first.final_ll()));
        report.metric(
            "stream_docs_per_s",
            median(
                &batches()
                    .map(|b| b.docs as f64 / b.loop_s)
                    .collect::<Vec<_>>(),
            ),
        );
        report.metric("query_p50_ms", percentile(&latencies, 50.0));
        report.metric("query_p90_ms", percentile(&latencies, 90.0));
        report.context("passes", passes.len().to_string());
        report.sample_context("batch_tok_per_s", &batch_rates);
        report.sample_context("setup_samples_s", &setups);
        report.sample_context("query_ms", &latencies);
        report.context("likelihood_eval_s", format!("{:.3}", ll_eval.total_s));
    });
}

/// Traced run: one untraced reference pass, then one pass with spans around
/// every session, checkpoint and serve call.
pub fn traced_run(seed: u64, report: &mut Report) {
    let inputs = inputs(seed);
    report.threads(1, 1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the rayon shim's pool build is infallible");
    pool.install(|| {
        let dir = work_dir();
        let mut ll_eval = Stopwatch::default();
        let reference = match pass(seed, &inputs, &dir, &mut ll_eval, None) {
            Ok(mut p) => {
                check(seed, &mut p, &dir, report, None);
                p
            }
            Err(e) => return report.op(false, || e),
        };
        let tracer = Tracer::new();
        let mut ll_eval = Stopwatch::default();
        let mut p = match pass(seed, &inputs, &dir, &mut ll_eval, Some(&tracer)) {
            Ok(p) => p,
            Err(e) => return report.op(false, || e),
        };
        check(seed, &mut p, &dir, report, Some(&tracer));

        let spans = tracer.spans();
        let history = p.session.history();
        let lat = &p.client.latencies_ms;
        report.metric("session.setup_s", Some(busy_s(&spans, "session.setup")));
        report.metric(
            "session.ingest.wall_s",
            Some(busy_s(&spans, "session.ingest")),
        );
        report.metric(
            "session.ingest.docs",
            Some(p.batches.iter().map(|b| b.docs as f64).sum()),
        );
        report.metric(
            "session.retire.wall_s",
            Some(busy_s(&spans, "session.retire")),
        );
        report.metric(
            "session.train.wall_s",
            Some(busy_s(&spans, "session.train")),
        );
        report.metric(
            "checkpoint.rotate.wall_s",
            Some(busy_s(&spans, "checkpoint.rotate")),
        );
        report.metric("checkpoint.rotate.bytes", Some(p.rotate_bytes as f64));
        report.metric(
            "checkpoint.resume.wall_s",
            Some(busy_s(&spans, "checkpoint.resume")),
        );
        report.metric("checkpoint.resume.bytes", Some(p.resume_bytes as f64));
        report.metric("serve.foldin_p50_ms", Some(p.foldin_p50_ms));
        report.metric("serve.foldin_p99_ms", Some(p.foldin_p99_ms));
        report.metric("serve.query_p99_ms", percentile(lat, 99.0));
        report.metric("serve.requests", Some(lat.len() as f64));
        report.metric("serve.failed", Some(p.client.failures.len() as f64));
        report.metric("serve.epochs_seen", Some(p.client.epochs.len() as f64));
        report.metric(
            "sync.phi.sim_s",
            Some(history.iter().map(|h| h.sync_time_s).sum()),
        );
        report.metric(
            "sync.phi.sim_exposed_s",
            Some(history.iter().map(|h| h.sync_exposed_time_s).sum()),
        );
        report.metric(
            "sync.intra_bytes",
            Some(history.iter().map(|h| h.intra_sync_bytes as f64).sum()),
        );
        report.metric(
            "sync.inter_bytes",
            Some(history.iter().map(|h| h.inter_sync_bytes as f64).sum()),
        );
        report.metric("sync.shards", p.sync_shards.map(|s| s as f64));
        report.metric("rayon.cpu_per_wall", Some(p.cpu_per_wall));
        report.metric(
            "likelihood.eval_s",
            Some(ll_eval.total_s / p.batches.len() as f64),
        );
        report.metric(
            "trace.overhead_frac",
            Some(p.train_wall_s() / reference.train_wall_s() - 1.0),
        );
        report.context(
            "reference_train_s",
            format!("{:.4}", reference.train_wall_s()),
        );
        report.context("traced_train_s", format!("{:.4}", p.train_wall_s()));
        report.tracer = Some(tracer);
    });
}
