//! Trainer configuration.

use serde::{Deserialize, Serialize};

/// Which sampler-kernel implementation a run uses (see
/// [`crate::kernels::SamplerKernel`] and `DESIGN.md` §10).
///
/// Every variant honours the same determinism contract — draws are
/// counter-based pure functions of token identity — so any strategy is
/// bit-exact across runs, GPU topologies and streaming ingestion batchings.
/// Different strategies are different (each internally deterministic)
/// trajectories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplerStrategy {
    /// The paper's §6.1 S/Q-split collapsed Gibbs kernel: exact sparse part
    /// over the document's `K_d` topics plus a dense part sampled from a
    /// per-word 32-way index tree rebuilt every iteration.  The default.
    #[default]
    SparseCgs,
    /// AliasLDA-style hybrid: the exact sparse part is kept, but the dense
    /// part is drawn in O(1) from a per-word *stale* alias table rebuilt
    /// every `rebuild_every` iterations, with the staleness corrected by
    /// `mh_steps` Metropolis–Hastings steps against the fresh φ.  Avoids the
    /// per-word per-iteration `O(K)` tree rebuild, which is what the sparse
    /// kernel pays even for single-token words — the win grows with `K`.
    AliasHybrid {
        /// Iteration cadence of the stale alias-table rebuild (≥ 1;
        /// `1` = rebuild every iteration, i.e. tables are never stale
        /// beyond the per-token self-exclusion).
        rebuild_every: usize,
        /// Metropolis–Hastings correction steps per token (≥ 1).
        mh_steps: usize,
    },
    /// LightLDA-style cycled Metropolis–Hastings kernel (Yuan et al.):
    /// per-token alternation of an O(1) *doc proposal* (draw another token of
    /// the same document, or a uniform topic from the smoothing mass) and a
    /// *word proposal* from a per-word stale alias table over `φ̂ + β`, each
    /// corrected by a Metropolis–Hastings acceptance test against the fresh
    /// counts.  No per-document sparse pass at all — per-token cost is
    /// O(`mh_steps`) regardless of `K` or `K_d`, which is where the win over
    /// both other kernels comes from at large `K`.
    LightLda {
        /// Iteration cadence of the stale word-proposal rebuild (≥ 1).
        rebuild_every: usize,
        /// Metropolis–Hastings steps per token (≥ 1).  Even steps are doc
        /// proposals, odd steps are word proposals, so `2` gives one full
        /// doc/word cycle.
        mh_steps: usize,
        /// Vocabulary-pruning threshold for the power-law tail: words whose
        /// *global* corpus-wide stale count `Σ_k φ̂(k, v)` is below this
        /// build their word proposal from the sparse non-zero topic list
        /// plus an explicit `K·β` smoothing bucket, instead of a dense
        /// `K`-ary alias table.  `0` disables pruning (all words dense).
        /// The threshold keys on a topology-independent global count, so
        /// pruned runs stay bit-exact across GPU counts and batchings.
        prune_below: usize,
    },
    /// Measured auto-selection: iteration 0 of the trainer (and the streaming
    /// session builder) measures chunk statistics — `K`, active vocabulary,
    /// mean document length, power-law tail mass — and resolves this to the
    /// portfolio member whose own [`crate::kernels::SamplerKernel::predict_steady_compute_s`]
    /// scores fastest on an analytic per-token cost model of those
    /// statistics.  The decision is made once, deterministically, from
    /// corpus-level quantities (never from wall-clock timings or topology),
    /// and the *resolved* concrete strategy is what a checkpoint persists,
    /// so resume never re-decides.
    Auto,
}

impl SamplerStrategy {
    /// The alias-hybrid strategy with its default knobs (rebuild every 8
    /// iterations, 2 MH steps per token).  Eight iterations of staleness is
    /// the amortization point where the rebuild traffic drops well below
    /// the per-word column read the sparse kernel pays *every* iteration,
    /// while the MH correction keeps the stationary distribution exact.
    pub fn alias_hybrid() -> Self {
        SamplerStrategy::AliasHybrid {
            rebuild_every: 8,
            mh_steps: 2,
        }
    }

    /// The LightLDA strategy with its default knobs (rebuild every 8
    /// iterations, 4 MH steps per token — two full doc/word cycles — no
    /// vocabulary pruning).  Four cheap O(1) proposals mix well enough to
    /// track the sparse kernel's trajectory while staying independent of
    /// `K_d`.
    pub fn light_lda() -> Self {
        SamplerStrategy::LightLda {
            rebuild_every: 8,
            mh_steps: 4,
            prune_below: 0,
        }
    }

    /// The vocabulary-pruned LightLDA variant for power-law tails: words
    /// with a global stale count below 16 tokens — the Zipf tail, which is
    /// most of the vocabulary — build sparse word proposals at `O(nnz)`
    /// instead of `O(K)` cost.
    pub fn light_lda_pruned() -> Self {
        SamplerStrategy::LightLda {
            rebuild_every: 8,
            mh_steps: 4,
            prune_below: 16,
        }
    }

    /// Validate the strategy's knobs.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SamplerStrategy::SparseCgs | SamplerStrategy::Auto => Ok(()),
            SamplerStrategy::AliasHybrid {
                rebuild_every,
                mh_steps,
            }
            | SamplerStrategy::LightLda {
                rebuild_every,
                mh_steps,
                ..
            } => {
                let name = match self {
                    SamplerStrategy::AliasHybrid { .. } => "alias",
                    _ => "light",
                };
                if rebuild_every == 0 {
                    return Err(format!("{name} rebuild_every must be at least 1"));
                }
                if mh_steps == 0 {
                    return Err(format!("{name} mh_steps must be at least 1"));
                }
                Ok(())
            }
        }
    }

    /// Whether this is the [`SamplerStrategy::Auto`] placeholder, which every
    /// construction path must resolve to a concrete portfolio member before
    /// a kernel is instantiated (checkpoints only ever persist resolved
    /// strategies).
    pub fn is_auto(&self) -> bool {
        matches!(self, SamplerStrategy::Auto)
    }
}

impl std::fmt::Display for SamplerStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SamplerStrategy::SparseCgs => write!(f, "sparse-cgs"),
            SamplerStrategy::AliasHybrid {
                rebuild_every,
                mh_steps,
            } => write!(
                f,
                "alias(rebuild_every={rebuild_every}, mh_steps={mh_steps})"
            ),
            SamplerStrategy::LightLda {
                rebuild_every,
                mh_steps,
                prune_below,
            } => write!(
                f,
                "light(rebuild_every={rebuild_every}, mh_steps={mh_steps}, prune_below={prune_below})"
            ),
            SamplerStrategy::Auto => write!(f, "auto"),
        }
    }
}

/// Hyper-parameters and execution options of a CuLDA_CGS training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdaConfig {
    /// Number of topics `K` (must fit the 16-bit compressed representation).
    pub num_topics: usize,
    /// Dirichlet prior on document–topic mixtures.  The paper uses
    /// `α = 50 / K` (§2.1).
    pub alpha: f64,
    /// Dirichlet prior on topic–word distributions.  The paper uses
    /// `β = 0.01` (§2.1).
    pub beta: f64,
    /// RNG seed of the whole run (initial assignment + all kernels).
    pub seed: u64,
    /// Chunks per GPU (`M` in Algorithm 1).  `None` lets the trainer pick the
    /// smallest `M` whose chunks fit in device memory, exactly as §5.1
    /// prescribes.
    pub chunks_per_gpu: Option<usize>,
    /// Maximum tokens one thread block samples before the word is split
    /// across additional blocks (load-balancing knob of §6.1.2).
    pub max_tokens_per_block: usize,
    /// Fan-out of the sampling index trees (32 = one warp inspects one node).
    pub tree_fanout: usize,
    /// Whether the 16-bit compression of §6.1.3 is applied to φ and to CSR
    /// column indices (disabled only by the ablation benchmarks).
    pub compress_16bit: bool,
    /// Whether samplers in a thread block share the p2 tree / p*(k) array in
    /// shared memory (disabled only by the ablation benchmarks).
    pub share_p2_tree: bool,
    /// Number of vocabulary shards `S` the φ synchronization is split into.
    /// `Some(1)` is the paper's dense §5.2 reduce of the full `K × V`
    /// replica behind one global barrier; `Some(S > 1)` partitions the
    /// vocabulary into `S` column ranges, each reduced + broadcast behind its
    /// own barrier, so shard `s`'s reduce can overlap the sampling of shard
    /// `s + 1`.  `None` (the default) **auto-tunes**: the trainer runs
    /// iteration 0 dense, measures the compute/sync ratio, and picks `S`
    /// from it (see `CuLdaTrainer::sync_plan`).  Sharding never changes the
    /// sampled assignments — integer column sums are the same however the
    /// columns are grouped — only where the barriers fall (see `DESIGN.md`
    /// §8), which is what makes a timing-driven auto-tune safe under the
    /// determinism contract.
    pub sync_shards: Option<usize>,
    /// How many shard reduces may be in flight while sampling continues
    /// (bounds the staging buffers a real implementation would dedicate to
    /// in-transit shards).  `0` disables the overlap: shards still reduce
    /// independently but only after all sampling finishes.  Ignored when
    /// `sync_shards == 1`.
    pub sync_overlap_depth: usize,
    /// Whether a multi-node cluster run synchronizes φ hierarchically:
    /// per-node tree reduce over the fast intra-node link, inter-node
    /// exchange of only the reduced shard over the fabric, intra-node
    /// broadcast back (`true`, the default) — versus the topology-oblivious
    /// flat reduce that pays the fabric on every tree round (`false`, the
    /// LDA*-style baseline the scaling figures compare against).  Ignored on
    /// single-node systems, where both schedules cost the same.  Like
    /// sharding, this is costing-only: the synchronized counts are integer
    /// sums, identical under any reduction grouping, so training stays
    /// bit-exact across any `(nodes × GPUs × threads)` combination.
    pub hierarchical_sync: bool,
    /// How many fabric messages one hierarchical synchronization batches its
    /// vocabulary shards into: shards are split into this many contiguous
    /// *inter-node groups*, each group crossing the fabric as a single
    /// leader exchange once its last shard has been locally reduced.  Fewer
    /// groups amortize the fabric latency over more bytes; more groups let
    /// the exchange pipeline with sampling.  `None` (the default)
    /// auto-tunes the group count together with the shard count from
    /// iteration 0's measured compute span.  Ignored unless the system is a
    /// multi-node cluster running hierarchical sync.
    pub sync_inter_groups: Option<usize>,
    /// Which sampler-kernel implementation the run uses (default:
    /// [`SamplerStrategy::SparseCgs`], the paper's §6.1 kernel).  See
    /// [`LdaConfig::sampler`].
    pub sampler: SamplerStrategy,
}

impl LdaConfig {
    /// The paper's default configuration for `K` topics
    /// (`α = 50/K`, `β = 0.01`).
    pub fn with_topics(num_topics: usize) -> Self {
        LdaConfig {
            num_topics,
            alpha: 50.0 / num_topics as f64,
            beta: 0.01,
            seed: 0xC0FFEE,
            chunks_per_gpu: None,
            max_tokens_per_block: 2048,
            tree_fanout: 32,
            compress_16bit: true,
            share_p2_tree: true,
            sync_shards: None,
            sync_overlap_depth: 2,
            hierarchical_sync: true,
            sync_inter_groups: None,
            sampler: SamplerStrategy::SparseCgs,
        }
    }

    /// Override the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override `M`, the chunks-per-GPU factor (builder style).
    pub fn chunks_per_gpu(mut self, m: usize) -> Self {
        self.chunks_per_gpu = Some(m);
        self
    }

    /// Shard the φ synchronization into `shards` vocabulary ranges (builder
    /// style).  Does not change the sampled topics, only the barrier
    /// structure of the simulated reduce; see [`crate::sync::SyncPlan`].
    /// Passing `None` restores the default: auto-tune the shard count from
    /// the measured compute/sync ratio of iteration 0.
    ///
    /// ```
    /// use culda_core::LdaConfig;
    ///
    /// let cfg = LdaConfig::with_topics(64).sync_shards(4).sync_overlap_depth(2);
    /// assert_eq!(cfg.sync_shards, Some(4));
    /// cfg.validate().unwrap();
    ///
    /// let auto = LdaConfig::with_topics(64).sync_shards(None);
    /// assert_eq!(auto.sync_shards, None);
    /// ```
    pub fn sync_shards(mut self, shards: impl Into<Option<usize>>) -> Self {
        self.sync_shards = shards.into();
        self
    }

    /// Override the shard-reduce overlap depth (builder style); `0` turns the
    /// sampling/reduce overlap off.
    pub fn sync_overlap_depth(mut self, depth: usize) -> Self {
        self.sync_overlap_depth = depth;
        self
    }

    /// Select hierarchical vs flat φ synchronization on a multi-node cluster
    /// (builder style); see [`LdaConfig::hierarchical_sync`].  `false`
    /// reproduces the topology-oblivious baseline.  Has no effect on
    /// single-node systems.
    pub fn hierarchical_sync(mut self, hierarchical: bool) -> Self {
        self.hierarchical_sync = hierarchical;
        self
    }

    /// Set how many fabric messages a hierarchical sync batches its shards
    /// into (builder style); `None` restores the default of auto-tuning the
    /// group count from iteration 0.  See [`LdaConfig::sync_inter_groups`].
    ///
    /// ```
    /// use culda_core::LdaConfig;
    ///
    /// let cfg = LdaConfig::with_topics(64).sync_inter_groups(2);
    /// assert_eq!(cfg.sync_inter_groups, Some(2));
    /// assert!(cfg.hierarchical_sync, "hierarchical is the cluster default");
    /// cfg.validate().unwrap();
    /// ```
    pub fn sync_inter_groups(mut self, groups: impl Into<Option<usize>>) -> Self {
        self.sync_inter_groups = groups.into();
        self
    }

    /// Select the sampler-kernel implementation (builder style).  Every
    /// strategy trains through the same [`crate::kernels::SamplerKernel`]
    /// trait — batch, streaming, checkpoint/resume and the CLI all honour
    /// the choice.
    ///
    /// ```
    /// use culda_core::{LdaConfig, SamplerStrategy};
    ///
    /// let cfg = LdaConfig::with_topics(256)
    ///     .sampler(SamplerStrategy::AliasHybrid { rebuild_every: 8, mh_steps: 2 });
    /// assert_eq!(cfg.sampler, SamplerStrategy::alias_hybrid());
    /// cfg.validate().unwrap();
    /// ```
    pub fn sampler(mut self, sampler: SamplerStrategy) -> Self {
        self.sampler = sampler;
        self
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_topics < 2 {
            return Err("num_topics must be at least 2".into());
        }
        if self.num_topics > u16::MAX as usize + 1 {
            return Err(format!(
                "num_topics = {} does not fit the 16-bit compressed topic index (§6.1.3)",
                self.num_topics
            ));
        }
        if !(self.alpha > 0.0) || !(self.beta > 0.0) {
            return Err("alpha and beta must be positive".into());
        }
        if self.max_tokens_per_block == 0 {
            return Err("max_tokens_per_block must be positive".into());
        }
        if self.tree_fanout < 2 {
            return Err("tree_fanout must be at least 2".into());
        }
        if let Some(m) = self.chunks_per_gpu {
            if m == 0 {
                return Err("chunks_per_gpu must be at least 1".into());
            }
        }
        if self.sync_shards == Some(0) {
            return Err("sync_shards must be at least 1".into());
        }
        if self.sync_inter_groups == Some(0) {
            return Err("sync_inter_groups must be at least 1".into());
        }
        self.sampler.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = LdaConfig::with_topics(1000);
        assert!((c.alpha - 0.05).abs() < 1e-12);
        assert_eq!(c.beta, 0.01);
        assert_eq!(c.tree_fanout, 32);
        assert!(c.compress_16bit);
        c.validate().unwrap();
    }

    #[test]
    fn builder_overrides() {
        let c = LdaConfig::with_topics(64).seed(7).chunks_per_gpu(2);
        assert_eq!(c.seed, 7);
        assert_eq!(c.chunks_per_gpu, Some(2));
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(LdaConfig::with_topics(1).validate().is_err());
        assert!(LdaConfig::with_topics(70_000).validate().is_err());
        let mut c = LdaConfig::with_topics(16);
        c.alpha = 0.0;
        assert!(c.validate().is_err());
        let mut c = LdaConfig::with_topics(16);
        c.beta = -1.0;
        assert!(c.validate().is_err());
        let mut c = LdaConfig::with_topics(16);
        c.max_tokens_per_block = 0;
        assert!(c.validate().is_err());
        let mut c = LdaConfig::with_topics(16);
        c.tree_fanout = 1;
        assert!(c.validate().is_err());
        let c = LdaConfig::with_topics(16).chunks_per_gpu(0);
        assert!(c.validate().is_err());
        let c = LdaConfig::with_topics(16).sync_shards(0);
        assert!(c.validate().is_err());
        let c = LdaConfig::with_topics(16).sync_inter_groups(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn cluster_sync_defaults_to_hierarchical_auto_grouping() {
        let c = LdaConfig::with_topics(64);
        assert!(c.hierarchical_sync);
        assert_eq!(c.sync_inter_groups, None, "None = auto-tune");
        let c = c.hierarchical_sync(false).sync_inter_groups(4);
        assert!(!c.hierarchical_sync);
        assert_eq!(c.sync_inter_groups, Some(4));
        c.validate().unwrap();
        let c = c.sync_inter_groups(None);
        assert_eq!(c.sync_inter_groups, None);
        c.validate().unwrap();
    }

    #[test]
    fn sampler_strategy_defaults_validates_and_displays() {
        let c = LdaConfig::with_topics(16);
        assert_eq!(c.sampler, SamplerStrategy::SparseCgs);
        assert_eq!(c.sampler, SamplerStrategy::default());
        assert_eq!(c.sampler.to_string(), "sparse-cgs");

        let c = c.sampler(SamplerStrategy::alias_hybrid());
        assert_eq!(
            c.sampler,
            SamplerStrategy::AliasHybrid {
                rebuild_every: 8,
                mh_steps: 2
            }
        );
        assert_eq!(c.sampler.to_string(), "alias(rebuild_every=8, mh_steps=2)");
        c.validate().unwrap();

        let bad = LdaConfig::with_topics(16).sampler(SamplerStrategy::AliasHybrid {
            rebuild_every: 0,
            mh_steps: 2,
        });
        assert!(bad.validate().is_err());
        let bad = LdaConfig::with_topics(16).sampler(SamplerStrategy::AliasHybrid {
            rebuild_every: 4,
            mh_steps: 0,
        });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn light_and_auto_strategies_validate_and_display() {
        let c = LdaConfig::with_topics(16).sampler(SamplerStrategy::light_lda());
        assert_eq!(
            c.sampler,
            SamplerStrategy::LightLda {
                rebuild_every: 8,
                mh_steps: 4,
                prune_below: 0
            }
        );
        assert_eq!(
            c.sampler.to_string(),
            "light(rebuild_every=8, mh_steps=4, prune_below=0)"
        );
        c.validate().unwrap();

        let pruned = SamplerStrategy::light_lda_pruned();
        let SamplerStrategy::LightLda { prune_below, .. } = pruned else {
            panic!("pruned ctor is the light variant");
        };
        assert!(prune_below > 0);
        pruned.validate().unwrap();

        let auto = LdaConfig::with_topics(16).sampler(SamplerStrategy::Auto);
        assert!(auto.sampler.is_auto());
        assert!(!SamplerStrategy::light_lda().is_auto());
        assert_eq!(auto.sampler.to_string(), "auto");
        auto.validate().unwrap();

        let bad = SamplerStrategy::LightLda {
            rebuild_every: 0,
            mh_steps: 4,
            prune_below: 0,
        };
        assert!(bad.validate().is_err());
        let bad = SamplerStrategy::LightLda {
            rebuild_every: 8,
            mh_steps: 0,
            prune_below: 0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn sync_sharding_defaults_to_auto_tune() {
        let c = LdaConfig::with_topics(64);
        assert_eq!(c.sync_shards, None, "None = auto-tune after iteration 0");
        assert!(c.sync_overlap_depth > 0);
        let c = c.sync_shards(8).sync_overlap_depth(0);
        assert_eq!(c.sync_shards, Some(8));
        assert_eq!(c.sync_overlap_depth, 0);
        c.validate().unwrap();
        let c = c.sync_shards(None);
        assert_eq!(c.sync_shards, None);
        c.validate().unwrap();
    }
}
