//! Workload definitions and the probes shared by every workload.
//!
//! The workload seed generates the corpus and the held-out queries and sets
//! `LdaConfig::seed` and the simulated system's seed; the program under test
//! receives only those generated inputs.

use culda_core::{CuLdaTrainer, InferenceOptions, LdaConfig, SamplerStrategy};
use culda_corpus::DatasetProfile;
use culda_gpusim::{ClusterSystem, DeviceSpec, Interconnect, MultiGpuSystem};
use culda_sparse::{CsrBuilder, DenseMatrix};
use std::time::Instant;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = [
    "tailheavy_light_k512",
    "nytimes_sparse_4gpu",
    "pubmed_stream_serve_2x2",
];

/// A batch-training workload (`SessionBuilder::build` + `run_iteration`).
pub struct TrainSpec {
    pub name: &'static str,
    /// Corpus profile of both the training corpus and the held-out queries.
    pub profile: fn() -> DatasetProfile,
    pub config: fn(u64) -> LdaConfig,
    pub system: fn(u64) -> MultiGpuSystem,
    /// Worker threads training runs on (never above the host's 2 vCPUs).
    pub threads: usize,
    /// LL/token the model must reach; checked every [`LL_EVERY`] iterations.
    /// It sits in a gap between two consecutive checks that every seed tried
    /// clears, so the crossing lands on the same check whatever the seed and
    /// `time_to_ll_s` measures speed, not luck.
    pub ll_target: f64,
    /// Give up (and count a failed operation) after this many iterations.
    pub max_iterations: usize,
}

/// LL/token is evaluated every this many iterations — one whole
/// proposal-rebuild cycle of `SamplerStrategy::light_lda()`, whose rebuild
/// iteration costs about 2.5× the others, so every timed span covers whole
/// cycles.
pub const LL_EVERY: usize = 8;

fn tail_heavy_profile() -> DatasetProfile {
    DatasetProfile {
        name: "tail-heavy".into(),
        num_docs: 6_000,
        vocab_size: 20_000,
        avg_doc_len: 20.0,
        zipf_exponent: 1.05,
        doc_len_sigma: 0.4,
    }
}

fn nytimes_profile() -> DatasetProfile {
    DatasetProfile::nytimes().scaled_to_tokens(600_000)
}

pub fn pubmed_profile() -> DatasetProfile {
    DatasetProfile::pubmed().scaled_to_tokens(600_000)
}

/// Large K, short documents, a wide Zipf tail: the regime the MH samplers
/// win, where host φ sync and the proposal rebuild dominate wall time.
pub const TAILHEAVY: TrainSpec = TrainSpec {
    name: "tailheavy_light_k512",
    profile: tail_heavy_profile,
    config: |seed| {
        LdaConfig::with_topics(512)
            .seed(seed)
            .sampler(SamplerStrategy::light_lda())
    },
    system: |seed| MultiGpuSystem::single(DeviceSpec::v100_volta(), seed),
    threads: 2,
    ll_target: -12.75,
    max_iterations: 64,
};

/// The paper's headline configuration: NYTimes on 4 GPUs, default config
/// (sparse CGS, auto-tuned sharded sync).
pub const NYTIMES: TrainSpec = TrainSpec {
    name: "nytimes_sparse_4gpu",
    profile: nytimes_profile,
    config: |seed| LdaConfig::with_topics(128).seed(seed),
    system: |seed| {
        MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 4, seed, Interconnect::Pcie3)
    },
    threads: 2,
    ll_target: -10.15,
    max_iterations: 64,
};

/// Seed offset of the held-out query documents (a different stream from the
/// training corpus).
pub const QUERY_SEED_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;

/// Documents per query request.
pub const QUERY_BATCH: usize = 8;

/// Held-out documents the query clients cycle through.
pub const QUERY_POOL: usize = 256;

/// Fold-in options of every query: 5 sweeps, the first one burn-in.
pub const QUERY_OPTIONS: InferenceOptions = InferenceOptions {
    sweeps: 5,
    burn_in: 1,
    seed: 7,
};

/// Held-out query documents: a corpus drawn from `profile` with a seed the
/// training corpus never uses, cut into documents of exactly the profile's
/// mean length.  Equal lengths make every request the same amount of work,
/// so query latency does not depend on which lengths a seed happened to
/// draw.
pub fn query_docs(profile: &DatasetProfile, seed: u64) -> Vec<Vec<u32>> {
    let len = profile.avg_doc_len.round() as usize;
    let mut p = profile.clone();
    p.num_docs = 2 * QUERY_POOL;
    let corpus = p.generate(seed ^ QUERY_SEED_OFFSET);
    let docs: Vec<Vec<u32>> = corpus
        .tokens()
        .chunks_exact(len)
        .take(QUERY_POOL)
        .map(<[_]>::to_vec)
        .collect();
    assert!(
        !docs.is_empty(),
        "the held-out corpus holds no full-length document"
    );
    docs
}

/// The 2-node × 2-GPU cluster of the stream+serve workload: PCIe3 inside a
/// node, 10 GbE between nodes.
pub fn cluster_2x2(seed: u64) -> MultiGpuSystem {
    ClusterSystem::homogeneous(
        DeviceSpec::titan_xp_pascal(),
        2,
        2,
        seed,
        Interconnect::Pcie3,
        Interconnect::Ethernet10G,
    )
    .into_system()
}

/// Joint log-likelihood per token (`culda_metrics::log_likelihood`).
pub fn ll_per_token(
    theta: &culda_sparse::CsrMatrix,
    phi: &DenseMatrix<u32>,
    nk: &[i64],
    config: &LdaConfig,
) -> f64 {
    culda_metrics::log_likelihood(theta, phi, nk, config.alpha, config.beta).per_token()
}

pub fn trainer_ll(trainer: &CuLdaTrainer) -> f64 {
    ll_per_token(
        &trainer.merged_theta(),
        &trainer.global_phi(),
        &trainer.global_nk(),
        trainer.config(),
    )
}

/// θ counts rebuilt from per-document assignments (`z[doc][token]`).
pub fn theta_from_z(z: &[Vec<u16>], num_topics: usize) -> culda_sparse::CsrMatrix {
    let mut builder = CsrBuilder::new(z.len(), num_topics);
    for row in z {
        builder.push_row(row.iter().map(|&t| (t, 1u32)));
    }
    builder.finish()
}

/// Checks one fold-in answer: `K` entries summing to 1 within 1e-9.
pub fn mixture_ok(mixture: &[f64], num_topics: usize) -> bool {
    mixture.len() == num_topics && (mixture.iter().sum::<f64>() - 1.0).abs() <= 1e-9
}

/// Wall-clock stopwatch that accumulates only the regions it times.
#[derive(Default)]
pub struct Stopwatch {
    pub total_s: f64,
}

impl Stopwatch {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.total_s += t.elapsed().as_secs_f64();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixtures_must_have_k_entries_summing_to_one() {
        assert!(mixture_ok(&[0.25; 4], 4));
        assert!(!mixture_ok(&[0.25; 4], 5));
        assert!(!mixture_ok(&[0.25, 0.25, 0.25, 0.2], 4));
    }
}
