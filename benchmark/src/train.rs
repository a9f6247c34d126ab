//! The two batch-training workloads: untraced end-to-end runs and the traced
//! per-layer replica of one training iteration.

use crate::report::{cpu_seconds, peak_rss_mb, Report};
use crate::stats::{median, percentile};
use crate::trace::{busy_s, count, self_s, Tracer};
use crate::workloads::{
    mixture_ok, query_docs, trainer_ll, Stopwatch, TrainSpec, LL_EVERY, QUERY_BATCH, QUERY_OPTIONS,
};
use culda_core::kernels::{names, UpdatePhiKernel, UpdateThetaKernel};
use culda_core::{
    build_work_items, sampler_for, synchronize_phi_hier_sharded, ChunkState, CuLdaTrainer,
    HierarchicalSyncPlan, SessionBuilder, TopicInferencer,
};
use culda_corpus::{Corpus, Partitioner};
use culda_gpusim::LaunchConfig;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Fewest training repetitions a run makes, whatever `--seconds` says.
const MIN_REPETITIONS: usize = 2;

/// Query requests sent to each repetition's trained model.  Spreading the
/// requests over the run (instead of one burst at the end) keeps a
/// momentary slowdown of the host from owning the latency percentiles.
const QUERIES_PER_REPETITION: usize = 80;

fn build(spec: &TrainSpec, corpus: &Corpus, seed: u64) -> Result<CuLdaTrainer, String> {
    SessionBuilder::new()
        .corpus(corpus)
        .config((spec.config)(seed))
        .system((spec.system)(seed))
        .build()
        .map_err(|e| format!("session build failed: {e}"))
}

/// Timed set-up: from the corpus in memory to a session ready to train.
fn timed_build(
    spec: &TrainSpec,
    corpus: &Corpus,
    seed: u64,
) -> (f64, Result<CuLdaTrainer, String>) {
    let started = Instant::now();
    let built = build(spec, corpus, seed);
    (started.elapsed().as_secs_f64(), built)
}

/// One repetition's samples: build, then train whole LL_EVERY-iteration
/// cycles until LL/token reaches the target (so `cycles` are exactly the
/// cycles it takes).
struct Repetition {
    /// `(wall_s, sim_s, tokens)` of every cycle.
    cycles: Vec<(f64, f64, u64)>,
    reached: bool,
    final_ll: f64,
}

fn repetition(
    spec: &TrainSpec,
    mut trainer: CuLdaTrainer,
    setup_s: f64,
    ll_eval: &mut Stopwatch,
) -> (Repetition, CuLdaTrainer) {
    let mut lls = vec![ll_eval.time(|| trainer_ll(&trainer))];
    let mut cycles = Vec::new();
    while cycles.len() * LL_EVERY < spec.max_iterations {
        let mut cycle = Stopwatch::default();
        let (mut sim_s, mut tokens) = (0.0, 0u64);
        for _ in 0..LL_EVERY {
            let stats = cycle.time(|| trainer.run_iteration());
            sim_s += stats.sim_time_s;
            tokens += stats.tokens_processed;
        }
        cycles.push((cycle.total_s, sim_s, tokens));
        lls.push(ll_eval.time(|| trainer_ll(&trainer)));
        if lls[lls.len() - 1] >= spec.ll_target {
            break;
        }
    }
    eprintln!(
        "  repetition: setup {setup_s:.3}s, cycles {:?}s, LL/token {lls:?}",
        cycles.iter().map(|c| c.0).collect::<Vec<_>>(),
    );
    let final_ll = lls[lls.len() - 1];
    let rep = Repetition {
        cycles,
        reached: final_ll >= spec.ll_target,
        final_ll,
    };
    (rep, trainer)
}

/// Closed-loop client (one thread, no think time) querying the trained
/// model with 8-document fold-in requests; appends per-request latencies.
fn serve_trained(
    trainer: &CuLdaTrainer,
    queries: &[Vec<u32>],
    latencies: &mut Vec<f64>,
    report: &mut Report,
) {
    let inferencer = TopicInferencer::from_trainer(trainer);
    let k = trainer.config().num_topics;
    for _ in 0..QUERIES_PER_REPETITION {
        let start = (latencies.len() * QUERY_BATCH) % queries.len();
        let batch: Vec<&[u32]> = (0..QUERY_BATCH)
            .map(|i| queries[(start + i) % queries.len()].as_slice())
            .collect();
        let t = Instant::now();
        let replies: Vec<_> = batch
            .iter()
            .map(|words| inferencer.try_infer_document(words, QUERY_OPTIONS))
            .collect();
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        let ok = replies
            .iter()
            .all(|r| r.as_ref().is_ok_and(|d| mixture_ok(&d.mixture, k)));
        report.op(ok, || "query: error or malformed mixture".into());
    }
}

/// Untraced run: every end-to-end metric.  Each repetition is one extra
/// timed set-up, one timed set-up plus training to the LL target, and a
/// burst of queries against the trained model; repetitions continue until
/// `seconds` have passed.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, report: &mut Report) {
    let corpus = (spec.profile)().generate(seed);
    let queries = query_docs(&(spec.profile)(), seed);
    report.threads(spec.threads, 1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(spec.threads)
        .build()
        .expect("the rayon shim's pool build is infallible");
    pool.install(|| {
        let measure_start = Instant::now();
        let mut setups = Vec::new();
        let mut latencies = Vec::new();
        let mut ll_eval = Stopwatch::default();
        let mut reps: Vec<Repetition> = Vec::new();
        while reps.len() < MIN_REPETITIONS || measure_start.elapsed().as_secs_f64() < seconds {
            let (extra_s, extra) = timed_build(spec, &corpus, seed);
            setups.push(extra_s);
            drop(extra);
            let (setup_s, built) = timed_build(spec, &corpus, seed);
            let trainer = match built {
                Ok(t) => t,
                Err(e) => return report.op(false, || e),
            };
            setups.push(setup_s);
            let (rep, trainer) = repetition(spec, trainer, setup_s, &mut ll_eval);
            let valid = trainer.validate();
            report.op(valid.is_ok(), || format!("validate(): {valid:?}"));
            report.op(rep.reached, || {
                format!("LL/token target {} not reached", spec.ll_target)
            });
            // Same seed, same inputs: every repetition must end on the very
            // same model.
            if let Some(first) = reps.first() {
                report.op(first.final_ll.to_bits() == rep.final_ll.to_bits(), || {
                    "repetitions diverged: training is not deterministic".into()
                });
            }
            serve_trained(&trainer, &queries, &mut latencies, report);
            if reps.is_empty() {
                // One full repetition is the workload's footprint; later
                // ones only add allocator churn that varies run to run.
                report.metric("peak_rss_mb", peak_rss_mb());
            }
            reps.push(rep);
        }

        let cycles: Vec<&(f64, f64, u64)> = reps.iter().flat_map(|r| &r.cycles).collect();
        let cycle_rates: Vec<f64> = cycles.iter().map(|c| c.2 as f64 / c.0).collect();
        let cycle_wall = median(&cycles.iter().map(|c| c.0).collect::<Vec<_>>());
        let setup_s = median(&setups);
        // Every repetition trains the same cycles (same seed, same model),
        // so the wall time to the target is the number of cycles it takes
        // times the median wall time of one cycle over the whole run.
        let first = &reps[0];
        let time_to_ll_s = cycle_wall.map(|w| w * first.cycles.len() as f64);
        let (sim_s, tokens) = first
            .cycles
            .iter()
            .fold((0.0, 0u64), |(s, t), c| (s + c.1, t + c.2));
        report.metric("setup_s", setup_s);
        report.metric("train_tokens_per_s", median(&cycle_rates));
        report.metric("time_to_ll_s", time_to_ll_s);
        report.metric("sim_tokens_per_s", Some(tokens as f64 / sim_s));
        report.metric("sim_time_to_ll_s", Some(sim_s));
        report.metric("nll_per_token", Some(-first.final_ll));
        report.metric(
            "stream_docs_per_s",
            setup_s
                .zip(time_to_ll_s)
                .map(|(s, t)| corpus.num_docs() as f64 / (s + t)),
        );
        report.metric("query_p50_ms", percentile(&latencies, 50.0));
        report.metric("query_p90_ms", percentile(&latencies, 90.0));
        report.context("repetitions", reps.len().to_string());
        report.sample_context("cycle_tok_per_s", &cycle_rates);
        report.sample_context("setup_samples_s", &setups);
        report.sample_context("query_ms", &latencies);
        report.context("likelihood_eval_s", format!("{:.3}", ll_eval.total_s));
    });
}

/// Iterations the traced replica runs: two whole proposal-rebuild cycles.
const TRACE_ITERATIONS: usize = 2 * LL_EVERY;

/// Untraced reference trainings the tracing overhead is measured against.
const TRACE_REFERENCES: usize = 3;

#[derive(Default, Clone, Copy)]
struct DeviceTotals {
    prepare_sim_s: f64,
    sample_sim_s: f64,
    sample_dram_bytes: u64,
    sample_rng_draws: u64,
    phi_sim_s: f64,
    phi_atomic_ops: u64,
    theta_sim_s: f64,
}

impl std::ops::AddAssign for DeviceTotals {
    fn add_assign(&mut self, o: Self) {
        self.prepare_sim_s += o.prepare_sim_s;
        self.sample_sim_s += o.sample_sim_s;
        self.sample_dram_bytes += o.sample_dram_bytes;
        self.sample_rng_draws += o.sample_rng_draws;
        self.phi_sim_s += o.phi_sim_s;
        self.phi_atomic_ops += o.phi_atomic_ops;
        self.theta_sim_s += o.theta_sim_s;
    }
}

/// Traced run: the real trainer runs untraced for reference (and to pick
/// the sync plan), then a replica assembled from the program's public
/// pieces repeats the same iterations with a span around every layer call.
/// The replica must end bit-identical to the real trainer.
pub fn traced(spec: &TrainSpec, seed: u64, report: &mut Report) {
    let corpus = (spec.profile)().generate(seed);
    report.threads(spec.threads, 0);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(spec.threads)
        .build()
        .expect("the rayon shim's pool build is infallible");
    pool.install(|| traced_inner(spec, &corpus, seed, report));
}

/// One untraced reference training of `TRACE_ITERATIONS` iterations:
/// the trained session, its wall seconds and process CPU seconds per wall
/// second.
fn reference(
    spec: &TrainSpec,
    corpus: &Corpus,
    seed: u64,
) -> Result<(CuLdaTrainer, f64, f64), String> {
    let mut trainer = build(spec, corpus, seed)?;
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    trainer.train(TRACE_ITERATIONS);
    let wall = started.elapsed().as_secs_f64();
    Ok((trainer, wall, (cpu_seconds() - cpu0) / wall))
}

fn traced_inner(spec: &TrainSpec, corpus: &Corpus, seed: u64, report: &mut Report) {
    // Untraced references: two before the replica and one after it, so
    // the reference brackets the traced run in time.
    let mut reference_walls = Vec::new();
    let mut cpu_per_wall = Vec::new();
    let mut trainer = None;
    for _ in 0..TRACE_REFERENCES - 1 {
        match reference(spec, corpus, seed) {
            Ok((t, wall, cpu)) => {
                reference_walls.push(wall);
                cpu_per_wall.push(cpu);
                trainer = Some(t);
            }
            Err(e) => return report.op(false, || e),
        }
    }
    let trainer = trainer.expect("at least one reference training");

    let ll_started = Instant::now();
    let reference_ll = trainer_ll(&trainer);
    let likelihood_eval_s = ll_started.elapsed().as_secs_f64();

    // The replica.
    let tracer = Tracer::new();
    let config = trainer.config().clone();
    let system = (spec.system)(seed);
    let g = system.num_gpus();
    let num_chunks = trainer.num_chunks();
    let initial_plan = HierarchicalSyncPlan::from_config(&config, corpus.vocab_size());
    let (states, work) = tracer.span("session.setup", None, None, |b| {
        let layouts = tracer.span("corpus.partition", Some(b), None, |_| {
            Partitioner::by_tokens(corpus, num_chunks).build_layouts(corpus)
        });
        let (states, work) = tracer.span("model.init", Some(b), None, |_| {
            let states: Vec<Arc<ChunkState>> = layouts
                .into_iter()
                .enumerate()
                .map(|(i, layout)| {
                    let state = ChunkState::new(i, layout, config.num_topics);
                    state.random_init_stable(&config, config.seed);
                    Arc::new(state)
                })
                .collect();
            let work: Vec<_> = states
                .iter()
                .map(|s| build_work_items(&s.layout, config.max_tokens_per_block))
                .collect();
            (states, work)
        });
        tracer.span("sync.initial", Some(b), None, |_| {
            synchronize_phi_hier_sharded(&states, &system, &initial_plan, config.compress_16bit)
        });
        (states, work)
    });
    let sampler = sampler_for(&config);
    let mut totals = DeviceTotals::default();
    let (mut sync_sim_s, mut intra_bytes, mut inter_bytes) = (0.0, 0u64, 0u64);
    let mut traced_train_s = 0.0;
    for it in 0..TRACE_ITERATIONS {
        // Iteration 0 runs under the configured plan; the trainer's
        // auto-tuner may swap it for the plan it reports afterwards.
        let plan = if it == 0 {
            initial_plan
        } else {
            trainer.hier_sync_plan()
        };
        let iteration = it as u64;
        let started = Instant::now();
        tracer.span("schedule.iteration", None, None, |parent| {
            let per_device: Vec<DeviceTotals> = (0..g)
                .into_par_iter()
                .map(|dev| {
                    let device = system.device(dev);
                    let mut t = DeviceTotals::default();
                    for (chunk, state) in states.iter().enumerate().filter(|(c, _)| c % g == dev) {
                        let items = &work[chunk];
                        let span = |name, f: &mut dyn FnMut()| {
                            tracer.span(name, Some(parent), Some(dev), |_| f())
                        };
                        span("kernels.prepare", &mut || {
                            t.prepare_sim_s +=
                                sampler.prepare_chunk(device, state, &config, iteration);
                        });
                        if !items.is_empty() {
                            span("kernels.sample", &mut || {
                                let kernel =
                                    sampler.sampling_kernel(state, items, &config, iteration);
                                let s = device.launch(
                                    sampler.name(),
                                    LaunchConfig::new(items.len()),
                                    &kernel,
                                );
                                t.sample_sim_s += s.time.total_s;
                                t.sample_dram_bytes += s.counters.dram_bytes();
                                t.sample_rng_draws += s.counters.rng_draws;
                            });
                            span("kernels.update_phi", &mut || {
                                let kernel = UpdatePhiKernel {
                                    state,
                                    items,
                                    compress_16bit: config.compress_16bit,
                                };
                                let s = device.launch(
                                    names::UPDATE_PHI,
                                    LaunchConfig::new(items.len()),
                                    &kernel,
                                );
                                t.phi_sim_s += s.time.total_s;
                                t.phi_atomic_ops += s.counters.atomic_ops;
                            });
                        }
                        if state.layout.num_docs() > 0 {
                            span("kernels.update_theta", &mut || {
                                // The scheduler's grid rule for small corpora.
                                let saturation = (device.spec.sm_count
                                    * device.spec.blocks_per_sm_saturation)
                                    as usize;
                                let docs_per_block =
                                    (state.layout.num_docs() / saturation.max(1)).clamp(1, 32);
                                let kernel = UpdateThetaKernel::new(
                                    state,
                                    docs_per_block,
                                    config.compress_16bit,
                                );
                                let s = device.launch(
                                    names::UPDATE_THETA,
                                    LaunchConfig::new(kernel.grid_blocks()),
                                    &kernel,
                                );
                                kernel.finish();
                                t.theta_sim_s += s.time.total_s;
                            });
                        }
                    }
                    t
                })
                .collect();
            for t in per_device {
                totals += t;
            }
            let sync = tracer.span("sync.phi", Some(parent), None, |_| {
                synchronize_phi_hier_sharded(&states, &system, &plan, config.compress_16bit)
            });
            sync_sim_s += sync.stats.time_s;
            intra_bytes += sync.intra_bytes;
            inter_bytes += sync.inter_bytes;
        });
        traced_train_s += started.elapsed().as_secs_f64();
    }

    // Bit-exact guard: the replica must be the program.
    let z: Vec<Vec<u16>> = states
        .iter()
        .flat_map(|s| {
            (0..s.layout.num_docs()).map(move |d| {
                s.layout
                    .doc_positions(d)
                    .iter()
                    .map(|&p| s.z[p as usize].load(std::sync::atomic::Ordering::Relaxed))
                    .collect()
            })
        })
        .collect();
    let same_phi = states[0].phi_global.to_dense() == trainer.global_phi();
    let same_nk = states[0].nk_global.to_vec() == trainer.global_nk();
    let same_z = z == trainer.z_snapshot();
    report.op(same_phi && same_nk && same_z, || {
        format!("replica diverged from the trainer: phi {same_phi}, nk {same_nk}, z {same_z}")
    });
    drop((states, work));
    match reference(spec, corpus, seed) {
        Ok((_, wall, cpu)) => {
            reference_walls.push(wall);
            cpu_per_wall.push(cpu);
        }
        Err(e) => report.op(false, || e),
    }
    let history = trainer.history();
    let trainer_sync_sim: f64 = history.iter().map(|h| h.sync_time_s).sum();
    report.op(trainer_sync_sim.to_bits() == sync_sim_s.to_bits(), || {
        format!("replica sync cost {sync_sim_s} != trainer's {trainer_sync_sim}")
    });

    let spans = tracer.spans();
    let reference = median(&reference_walls).expect("reference walls");
    report.metric("session.setup_s", Some(busy_s(&spans, "session.setup")));
    report.metric(
        "corpus.partition_s",
        Some(busy_s(&spans, "corpus.partition")),
    );
    report.metric("model.init_s", Some(busy_s(&spans, "model.init")));
    report.metric("sync.initial_s", Some(busy_s(&spans, "sync.initial")));
    report.metric(
        "kernels.prepare.wall_s",
        Some(busy_s(&spans, "kernels.prepare")),
    );
    report.metric("kernels.prepare.sim_s", Some(totals.prepare_sim_s));
    report.metric(
        "kernels.prepare.calls",
        Some(count(&spans, "kernels.prepare") as f64),
    );
    report.metric(
        "kernels.sample.wall_s",
        Some(busy_s(&spans, "kernels.sample")),
    );
    report.metric("kernels.sample.sim_s", Some(totals.sample_sim_s));
    report.metric(
        "kernels.sample.dram_bytes",
        Some(totals.sample_dram_bytes as f64),
    );
    report.metric(
        "kernels.sample.rng_draws",
        Some(totals.sample_rng_draws as f64),
    );
    report.metric(
        "kernels.update_phi.wall_s",
        Some(busy_s(&spans, "kernels.update_phi")),
    );
    report.metric("kernels.update_phi.sim_s", Some(totals.phi_sim_s));
    report.metric(
        "kernels.update_phi.atomic_ops",
        Some(totals.phi_atomic_ops as f64),
    );
    report.metric(
        "kernels.update_theta.wall_s",
        Some(busy_s(&spans, "kernels.update_theta")),
    );
    report.metric("kernels.update_theta.sim_s", Some(totals.theta_sim_s));
    report.metric("sync.phi.wall_s", Some(busy_s(&spans, "sync.phi")));
    report.metric("sync.phi.sim_s", Some(sync_sim_s));
    report.metric(
        "sync.phi.sim_exposed_s",
        Some(history.iter().map(|h| h.sync_exposed_time_s).sum()),
    );
    report.metric("sync.intra_bytes", Some(intra_bytes as f64));
    report.metric("sync.inter_bytes", Some(inter_bytes as f64));
    report.metric(
        "sync.shards",
        Some(trainer.hier_sync_plan().shards() as f64),
    );
    report.metric(
        "schedule.iteration.wall_s",
        Some(busy_s(&spans, "schedule.iteration")),
    );
    report.metric(
        "schedule.iteration.self_s",
        Some(self_s(&spans, "schedule.iteration")),
    );
    report.metric("rayon.cpu_per_wall", median(&cpu_per_wall));
    report.metric("likelihood.eval_s", Some(likelihood_eval_s));
    report.metric(
        "trace.overhead_frac",
        Some(traced_train_s / reference - 1.0),
    );
    report.context("trace_iterations", TRACE_ITERATIONS.to_string());
    report.context("reference_train_s", format!("{reference:.4}"));
    report.context("traced_train_s", format!("{traced_train_s:.4}"));
    report.context("reference_ll", format!("{reference_ll}"));
    report.context(
        "sync_share_of_train",
        format!("{:.3}", busy_s(&spans, "sync.phi") / traced_train_s),
    );
    report.tracer = Some(tracer);
}
