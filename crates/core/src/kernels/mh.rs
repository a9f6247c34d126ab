//! The stale-proposal Metropolis–Hastings sampling kernel behind the
//! `alias` and `light` presets: AliasLDA (Li et al., KDD'14) and LightLDA
//! (Yuan et al., WWW'15), references \[19\] and \[42\] of the paper.
//!
//! The paper's §6.1 kernel pays an `O(K)` cost *per word per iteration*: it
//! reads the full φ column, forms `p*(k)` and builds the dense p2 index tree
//! before sampling a single token — even for the Zipf tail of words with one
//! or two tokens.  [`MhSampler`] amortises that cost away:
//!
//! * every word with tokens in a chunk gets a *stale* proposal table, rebuilt
//!   only every `rebuild_every` iterations by a build kernel whose cost the
//!   scheduler charges and reports
//!   ([`crate::IterationStats::sampler_setup_time_s`]);
//! * every token runs `mh_steps` **Metropolis–Hastings** steps whose
//!   acceptance test uses the *fresh* counts, so the chain's stationary
//!   distribution is the exact collapsed conditional `p^{¬token}` whatever
//!   the staleness (a mixture or independence proposal only has to dominate
//!   the support).
//!
//! [`MhProposal`] picks what a token proposes from:
//!
//! * [`MhProposal::Mixture`] (the `alias` preset) mixes the exact, fresh
//!   **sparse part** `p1(k) = θ_{d,k} · p*(k)`, evaluated lazily at the
//!   document's `K_d ≪ K` topics, with a **dense part** drawn in O(1) from
//!   a stale alias table over `(φ̂ + β) / (n̂ + Vβ)` — the same Walker/Vose
//!   bundle ([`StaleAliasProposal`]) the AliasLDA CPU baseline builds.
//! * [`MhProposal::Cycle`] (the `light` presets) drops the sparse pass: its
//!   steps alternate a **doc proposal** `q_d(k) ∝ θ_{d,k} + α`, drawn in
//!   O(1) by picking the topic of another token of the same document (mass
//!   `L_d`) or a uniform topic (smoothing mass `Kα`) through the
//!   document–word map ([`culda_corpus::ChunkLayout::doc_positions`]), and a
//!   **word proposal** `q_w(k) ∝ φ̂_{k,v} + β` from the stale table.  Its
//!   per-token cost is O(`mh_steps` · log `K_d`), independent of `K`.
//!
//! Everything except the per-token chain is shared: one chunk-table cache,
//! one snapshot for checkpoint resume, one rebuild cadence, one build kernel
//! and one per-word proposal constructor, which the build kernel, the
//! resume reconstruction and the streaming burn-in all call.  The two chains
//! (`mixture_chain`, `cycle_chain`) are plain functions, picked once per
//! launch (as a const parameter of the block kernel, so the per-token loop
//! carries no proposal branch) and once per burn-in sweep; the device kernel
//! and the host burn-in run the same chain over different views of the
//! counts.
//!
//! ## Vocabulary pruning for power-law tails
//!
//! With `prune_below > 0`, cycle words whose corpus-wide stale count
//! `Σ_k φ̂(k, v)` is below the threshold — the Zipf tail, which is most of
//! the vocabulary — build their word proposal from the sparse list of
//! non-zero topics plus an explicit `K·β` smoothing bucket instead of a
//! dense `K`-ary alias table: `O(nnz)` construction and memory instead of
//! `O(K)`.  The column sum is the word's corpus-wide token count — a
//! quantity independent of iteration, topology and batching — so the
//! pruning decision (and therefore the draw path) is bit-stable everywhere
//! the determinism contract reaches.
//!
//! ## Determinism
//!
//! Every MH draw derives from the per-token sub-stream seed
//! `t = stable_u64(seed, iteration, (doc ≪ 32) | slot)` — a pure function of
//! token identity — with draw indices `(2·step, i)` for the proposal and
//! `(2·step + 1, 3)` for the acceptance test.  The doc proposal's token pick
//! reads the *iteration-start* `z` (the kernels are double-buffered into
//! `z_next`), and the stale tables are a pure function of the synchronized
//! `phi_global`, which is equal on every chunk replica at equal iteration
//! counts.  The kernel therefore inherits the full bit-exactness contract
//! (`DESIGN.md` §10 and §13).

use crate::config::LdaConfig;
use crate::kernels::sampler::{SamplerKernel, SamplerResumeState, BURN_STREAM_BASE};
use crate::model::ChunkState;
use crate::work::{chunk_words, WorkItem};
use culda_gpusim::rng::{stable_u64, BlockRng};
use culda_gpusim::{BlockCtx, BlockKernel, Device, LaunchConfig};
use culda_sparse::{AliasTable, DenseMatrix, StaleAliasProposal, TopicId};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// What an [`MhSampler`] proposes from (see the [module
/// docs](crate::kernels::mh)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MhProposal {
    /// Exact sparse bucket plus a stale dense word table over
    /// `(φ̂ + β) / (n̂ + Vβ)` ([`crate::SamplerStrategy::AliasHybrid`]).
    Mixture,
    /// Alternating doc proposals and stale word proposals over `φ̂ + β`
    /// ([`crate::SamplerStrategy::LightLda`]).
    Cycle {
        /// Words whose global stale count is below this build the sparse
        /// tail form of their word proposal (`0` disables pruning).
        prune_below: usize,
    },
}

impl MhProposal {
    /// The stale proposal of one word, from its stale φ̂ column `column` and
    /// the stale topic totals `nk` of a `vocab`-word model.  Only the
    /// mixture reads `nk` and `vocab`: the cycle's `n_k + Vβ` normaliser
    /// cancels from its acceptance ratio.  The build kernel, the resume
    /// reconstruction and the burn-in all build through here on the same
    /// integer inputs, so their tables are bit-identical.
    fn word_proposal(
        self,
        column: impl Iterator<Item = u32>,
        nk: &[i64],
        beta: f64,
        vocab: usize,
    ) -> WordProposal {
        let counts: Vec<u32> = column.collect();
        let k = counts.len();
        match self {
            MhProposal::Mixture => {
                let v_beta = beta * vocab as f64;
                WordProposal::Dense(StaleAliasProposal::from_weights(
                    (0..k)
                        .map(|kk| (counts[kk] as f64 + beta) / (nk[kk] as f64 + v_beta))
                        .collect(),
                ))
            }
            MhProposal::Cycle { prune_below } => {
                let total: u64 = counts.iter().map(|&c| c as u64).sum();
                if prune_below > 0 && (total as usize) < prune_below && total > 0 {
                    let topics: Vec<TopicId> = (0..k)
                        .filter(|&kk| counts[kk] > 0)
                        .map(|kk| kk as TopicId)
                        .collect();
                    let nz: Vec<u32> = topics.iter().map(|&kk| counts[kk as usize]).collect();
                    let weights: Vec<f32> = nz.iter().map(|&c| c as f32).collect();
                    WordProposal::Pruned {
                        table: AliasTable::new(&weights),
                        topics,
                        counts: nz,
                        sparse_mass: total as f64,
                        smooth_mass: beta * k as f64,
                        num_topics: k,
                    }
                } else {
                    WordProposal::Dense(StaleAliasProposal::from_weights(
                        counts.iter().map(|&c| c as f64 + beta).collect(),
                    ))
                }
            }
        }
    }
}

/// One word's stale proposal.
///
/// Both forms of a cycle word proposal draw the *same* distribution
/// `q_w(k) ∝ φ̂_{k,v} + β`; the pruned form just splits it into the sparse
/// count mass `Σ_k φ̂(k,v)` and the uniform smoothing mass `K·β`, which is
/// exact because β is a constant shared by every topic.
#[derive(Clone)]
enum WordProposal {
    /// Dense `K`-ary alias table over the stale weights (every mixture
    /// word, and every cycle word at or above the pruning threshold).
    Dense(StaleAliasProposal),
    /// Sparse tail form: an alias table over the non-zero stale counts plus
    /// an explicit uniform smoothing bucket.
    Pruned {
        /// Topics with `φ̂(k, v) > 0`, ascending.
        topics: Vec<TopicId>,
        /// The stale counts at `topics` (parallel array).
        counts: Vec<u32>,
        /// Alias table over `counts`.
        table: AliasTable,
        /// `Σ counts` — the word's corpus-wide token count.
        sparse_mass: f64,
        /// `K·β` — the uniform smoothing mass.
        smooth_mass: f64,
        /// Number of topics `K` (the smoothing bucket draws uniformly from
        /// all of them).
        num_topics: usize,
    },
}

impl WordProposal {
    /// Draw a topic from two uniforms in `[0, 1)` — a pure function of its
    /// inputs, like [`AliasTable::sample_with`].
    #[inline]
    fn draw(&self, u1: f32, u2: f32) -> usize {
        match self {
            WordProposal::Dense(p) => p.table().sample_with(u1, u2),
            WordProposal::Pruned {
                topics,
                table,
                sparse_mass,
                smooth_mass,
                num_topics,
                ..
            } => {
                let pick = u1 as f64 * (sparse_mass + smooth_mass);
                if pick < *sparse_mass && !topics.is_empty() {
                    // Rescale the residual into a conditional uniform so one
                    // draw serves both the branch test and the bucket pick.
                    let ub = (pick / sparse_mass) as f32;
                    topics[table.sample_with(ub, u2)] as usize
                } else {
                    let frac = ((pick - sparse_mass) / smooth_mass).clamp(0.0, 1.0);
                    ((frac * *num_topics as f64) as usize).min(num_topics - 1)
                }
            }
        }
    }

    /// The stale proposal weight of an arbitrary topic (the MH acceptance
    /// ratio evaluates it at the current and proposed topics).
    #[inline]
    fn weight(&self, kk: usize, beta: f64) -> f64 {
        match self {
            WordProposal::Dense(p) => p.weight(kk),
            WordProposal::Pruned { topics, counts, .. } => topics
                .binary_search(&(kk as TopicId))
                .map(|i| counts[i] as f64 + beta)
                .unwrap_or(beta),
        }
    }

    /// Buckets the build kernel constructs and writes.
    fn buckets(&self) -> usize {
        match self {
            WordProposal::Dense(p) => p.len(),
            WordProposal::Pruned { topics, .. } => topics.len(),
        }
    }
}

/// The stale per-word proposals of one chunk, tagged with the iteration they
/// were built at.
struct ChunkTables {
    /// Iteration whose synchronized φ the tables snapshot.
    built_at: u64,
    /// Proposal per word id (`None` for words without tokens in the chunk).
    proposals: Vec<Option<WordProposal>>,
}

/// The global snapshot the stale tables were last built from: φ̂, plus n̂
/// for the mixture.
struct TablesSnapshot {
    /// The snapshot as a checkpoint carries it.  Per-chunk proposals are a
    /// deterministic function of it, so a resumed sampler reconstructs them
    /// bit-exactly instead of rebuilding fresh tables from the *current* φ
    /// (which would diverge from the uninterrupted run until the next
    /// cadence rebuild).
    state: SamplerResumeState,
    /// True when the snapshot was restored from a checkpoint rather than
    /// captured from a live rebuild.  Only a restored snapshot may satisfy a
    /// chunk's missing tables without a device build (the uninterrupted run
    /// paid that build before the checkpoint, so the resumed run must not
    /// charge it again — nor rebuild from the wrong φ).
    restored: bool,
}

/// Stale-proposal Metropolis–Hastings sampler: the kernel behind
/// [`crate::SamplerStrategy::AliasHybrid`] and
/// [`crate::SamplerStrategy::LightLda`].  See the [module
/// docs](crate::kernels::mh) for the algorithm and determinism argument.
pub struct MhSampler {
    proposal: MhProposal,
    rebuild_every: u64,
    mh_steps: usize,
    /// Per-chunk stale tables, keyed by chunk id.  Rebuilt by
    /// [`SamplerKernel::prepare_chunk`] on the configured cadence.
    chunks: Mutex<BTreeMap<usize, Arc<ChunkTables>>>,
    /// The global snapshot behind the current tables: captured at every
    /// cadence rebuild (for [`SamplerKernel::resume_state`]) or installed by
    /// [`SamplerKernel::restore_resume_state`] on a checkpoint resume.
    snapshot: Mutex<Option<Arc<TablesSnapshot>>>,
}

impl MhSampler {
    /// A sampler drawing from `proposal`, rebuilding its stale tables every
    /// `rebuild_every` iterations and running `mh_steps` MH steps per token
    /// (both must be ≥ 1, as [`crate::SamplerStrategy::validate`] enforces).
    pub fn new(proposal: MhProposal, rebuild_every: usize, mh_steps: usize) -> Self {
        assert!(rebuild_every >= 1, "rebuild_every must be at least 1");
        assert!(mh_steps >= 1, "mh_steps must be at least 1");
        MhSampler {
            proposal,
            rebuild_every: rebuild_every as u64,
            mh_steps,
            chunks: Mutex::new(BTreeMap::new()),
            snapshot: Mutex::new(None),
        }
    }

    /// Whether `iteration` rebuilds the tables of a chunk last built at
    /// `built_at` (tables are always built when none exist yet — the first
    /// iteration after construction or a checkpoint resume).
    fn needs_rebuild(&self, built_at: Option<u64>, iteration: u64) -> bool {
        match built_at {
            None => true,
            Some(at) => iteration > at && iteration.is_multiple_of(self.rebuild_every),
        }
    }
}

impl SamplerKernel for MhSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    /// Rebuild the chunk's stale tables on the configured cadence by
    /// launching the build kernel on `device`; returns the simulated build
    /// span (0 on non-rebuild iterations).
    fn prepare_chunk(
        &self,
        device: &Device,
        state: &ChunkState,
        config: &LdaConfig,
        iteration: u64,
    ) -> f64 {
        let built_at = self.chunks.lock().get(&state.chunk_id).map(|t| t.built_at);
        if built_at.is_none() {
            // A chunk with no tables yet normally means a fresh sampler —
            // but after a checkpoint resume the restored snapshot stands in
            // for the tables the uninterrupted run would still be holding:
            // reconstruct them host-side through the build kernel's
            // constructor on the same `u32`/`i64` inputs (bit-identical) and
            // charge nothing, since the original build was paid before the
            // checkpoint.  If the resume lands on a rebuild iteration
            // anyway, fall through to the ordinary fresh build.
            let restored = self
                .snapshot
                .lock()
                .clone()
                .filter(|s| s.restored && s.state.phi_hat().cols() == state.layout.vocab_size);
            if let Some(snap) = restored {
                let (built_at, phi_hat) = (snap.state.built_at(), snap.state.phi_hat());
                if !self.needs_rebuild(Some(built_at), iteration) {
                    let vocab = state.layout.vocab_size;
                    let mut proposals = vec![None; vocab];
                    for w in chunk_words(&state.layout) {
                        let v = w as usize;
                        let column = (0..config.num_topics).map(|kk| phi_hat.get(kk, v));
                        proposals[v] = Some(self.proposal.word_proposal(
                            column,
                            snap.state.nk_hat(),
                            config.beta,
                            vocab,
                        ));
                    }
                    self.chunks.lock().insert(
                        state.chunk_id,
                        Arc::new(ChunkTables {
                            built_at,
                            proposals,
                        }),
                    );
                    return 0.0;
                }
            }
        }
        if !self.needs_rebuild(built_at, iteration) {
            return 0.0;
        }
        let words = chunk_words(&state.layout);
        let nk = state.nk_global.to_vec();
        let mut proposals = vec![None; state.layout.vocab_size];
        let span = if words.is_empty() {
            0.0
        } else {
            let slots: Vec<Mutex<Option<WordProposal>>> =
                (0..words.len()).map(|_| Mutex::new(None)).collect();
            let build = MhBuildBlock {
                proposal: self.proposal,
                state,
                config,
                nk: &nk,
                words: &words,
                slots: &slots,
            };
            let name = match self.proposal {
                MhProposal::Mixture => crate::kernels::names::ALIAS_BUILD,
                MhProposal::Cycle { .. } => crate::kernels::names::LIGHT_BUILD,
            };
            let stats = device.launch(name, LaunchConfig::new(words.len()), &build);
            for (&w, slot) in words.iter().zip(slots) {
                proposals[w as usize] = slot.into_inner();
            }
            stats.time.total_s
        };
        self.chunks.lock().insert(
            state.chunk_id,
            Arc::new(ChunkTables {
                built_at: iteration,
                proposals,
            }),
        );
        // Capture the global snapshot behind this rebuild once per rebuild
        // iteration (every chunk builds from the same synchronized φ, so the
        // first chunk's capture covers them all) — it is what a checkpoint
        // taken before the next rebuild needs for a bit-exact resume.
        {
            let mut snap = self.snapshot.lock();
            if snap
                .as_ref()
                .is_none_or(|s| s.restored || s.state.built_at() != iteration)
            {
                let (built_at, phi_hat) = (iteration, state.phi_global.to_dense());
                let tables = match self.proposal {
                    MhProposal::Mixture => SamplerResumeState::AliasTables {
                        built_at,
                        phi_hat,
                        nk_hat: nk,
                    },
                    MhProposal::Cycle { .. } => {
                        SamplerResumeState::LightWordTables { built_at, phi_hat }
                    }
                };
                *snap = Some(Arc::new(TablesSnapshot {
                    state: tables,
                    restored: false,
                }));
            }
        }
        span
    }

    /// The snapshot behind the current stale tables, so a checkpoint taken
    /// mid-cadence resumes with the *same* tables instead of fresh ones
    /// (`None` until the first rebuild ever runs).  The mixture's section
    /// carries `n̂`; the cycle's carries φ̂ alone.
    fn resume_state(&self) -> Option<SamplerResumeState> {
        self.snapshot.lock().as_ref().map(|s| s.state.clone())
    }

    /// Install a checkpointed snapshot; the next
    /// [`SamplerKernel::prepare_chunk`] of each chunk reconstructs its
    /// proposals from it instead of rebuilding from the current φ, keeping
    /// the resumed run bit-exact and on the original rebuild cadence.
    fn restore_resume_state(&self, state: &SamplerResumeState) {
        // States captured by the other proposal are ignored (checkpoint
        // validation rejects such mismatches before they get here anyway).
        if matches!(
            (self.proposal, state),
            (MhProposal::Mixture, SamplerResumeState::AliasTables { .. })
                | (
                    MhProposal::Cycle { .. },
                    SamplerResumeState::LightWordTables { .. }
                )
        ) {
            *self.snapshot.lock() = Some(Arc::new(TablesSnapshot {
                state: state.clone(),
                restored: true,
            }));
        }
    }

    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a> {
        let tables = self
            .chunks
            .lock()
            .get(&state.chunk_id)
            .cloned()
            .expect("prepare_chunk must run before sampling_kernel");
        let params = ChainParams::new(config, self.mh_steps, state.layout.vocab_size);
        match self.proposal {
            MhProposal::Mixture => Box::new(MhSampleBlock::<false> {
                state,
                items,
                config,
                iteration,
                params,
                tables,
            }),
            MhProposal::Cycle { .. } => Box::new(MhSampleBlock::<true> {
                state,
                items,
                config,
                iteration,
                params,
                tables,
            }),
        }
    }

    /// Iteration 0 always pays a full table build; steady state pays it only
    /// every `rebuild_every` iterations.
    fn predict_steady_compute_s(&self, measured_compute_s: f64, measured_setup_s: f64) -> f64 {
        (measured_compute_s - measured_setup_s).max(0.0)
            + measured_setup_s / self.rebuild_every as f64
    }

    /// Host-side burn-in with the same stale-proposal structure as the
    /// device kernel: stale tables are built once per (document, sweep) for
    /// the document's distinct words, then every token runs the same MH
    /// chain as the device kernel against the evolving live counts.
    fn burn_in_sweep(
        &self,
        config: &LdaConfig,
        uid: u64,
        sweep: usize,
        words: &[u32],
        z: &mut [u16],
        theta_d: &mut [u32],
        phi: &mut DenseMatrix<u32>,
        nk: &mut [i64],
    ) {
        let vocab = phi.cols();
        let params = ChainParams::new(config, self.mh_steps, vocab);
        let chain: LiveChain = match self.proposal {
            MhProposal::Mixture => |t, c, s, w, p, b, x| mixture_chain(t, c, s, w, p, b, x),
            MhProposal::Cycle { .. } => |t, c, s, w, p, b, x| cycle_chain(t, c, s, w, p, b, x),
        };
        let stream = BURN_STREAM_BASE - sweep as u64;

        // Stale snapshot at sweep start, for the document's distinct words.
        let mut stale: BTreeMap<u32, WordProposal> = BTreeMap::new();
        for &w in words {
            stale.entry(w).or_insert_with(|| {
                let column = (0..config.num_topics).map(|kk| phi.get(kk, w as usize));
                self.proposal.word_proposal(column, nk, config.beta, vocab)
            });
        }

        // Burn-in is host work, off the simulated clock: the chain's cost
        // counters land in a scratch context and are dropped.
        let mut ctx = BlockCtx::new(0, 0, BlockRng::new(0, 0, 0), 1);
        let mut scratch = SparseBucket::default();
        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            // Remove the token: the MH chain targets p^{¬token}.
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;

            // Per-token sub-stream: every MH draw is a pure function of
            // (seed, sweep stream, uid, slot, step, draw index).
            let tseed = stable_u64(config.seed, stream, (uid << 32) | slot as u64);
            let token = LiveToken {
                phi,
                nk,
                theta_d,
                z,
                w,
                p: &params,
            };
            let k_new = chain(
                &token,
                c,
                tseed,
                &stale[&(w as u32)],
                &params,
                &mut scratch,
                &mut ctx,
            );

            z[slot] = k_new as u16;
            theta_d[k_new] += 1;
            *phi.get_mut(k_new, w) += 1;
            nk[k_new] += 1;
        }
    }
}

/// The build kernel: one thread block scans one word's synchronized φ̂
/// column (read once per rebuild instead of once per iteration — the
/// amortisation the stale tables exist for) and builds its proposal.
struct MhBuildBlock<'a> {
    proposal: MhProposal,
    state: &'a ChunkState,
    config: &'a LdaConfig,
    /// The synchronized topic totals (read by the mixture only).
    nk: &'a [i64],
    /// Words with tokens in this chunk, one per block.
    words: &'a [u32],
    /// Output slot per block.
    slots: &'a [Mutex<Option<WordProposal>>],
}

impl BlockKernel for MhBuildBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let v = self.words[block_id] as usize;
        let k = self.config.num_topics as u64;
        let int_bytes: u64 = if self.config.compress_16bit { 2 } else { 4 };

        ctx.read_global(k * int_bytes); // φ̂[·, v]
        let header_bytes = match self.proposal {
            // n_k and the normalised weight (φ̂ + β) / (n̂ + Vβ) per topic.
            // The device keeps the stale φ̂ column next to the table; the
            // stale weight the MH ratio needs is reconstructed from φ̂ and
            // the per-chunk n̂_k snapshot (K × 8 bytes per rebuild, amortised
            // over every word) at two flops per evaluation.
            MhProposal::Mixture => {
                ctx.read_global(k * 4);
                ctx.flops(3 * k);
                0
            }
            // The column total.  The scan is unavoidable (the counts live
            // there); what the pruned form saves is the table construction
            // and its footprint.  Both masses are stored with the table.
            MhProposal::Cycle { .. } => {
                ctx.flops(k);
                16
            }
        };
        let column = self.state.phi_global.col(v).iter();
        let proposal = self.proposal.word_proposal(
            column.map(|phi| phi.load(Ordering::Relaxed)),
            self.nk,
            self.config.beta,
            self.state.layout.vocab_size,
        );
        let built = proposal.buckets() as u64;
        ctx.int_ops(built); // Vose small/large queue maintenance
        ctx.write_global(built * (8 + int_bytes) + header_bytes); // prob + alias + φ̂ snapshot
        *self.slots[block_id].lock() = Some(proposal);
    }
}

/// Per-launch (or per-sweep) constants of the MH chains.
struct ChainParams {
    alpha: f64,
    beta: f64,
    /// `V·β` over the model's vocabulary.
    v_beta: f64,
    num_topics: usize,
    mh_steps: usize,
    /// Bytes per compressed count / assignment (§6.1.3).
    int_bytes: u64,
}

impl ChainParams {
    fn new(config: &LdaConfig, mh_steps: usize, vocab: usize) -> Self {
        ChainParams {
            alpha: config.alpha,
            beta: config.beta,
            v_beta: config.beta * vocab as f64,
            num_topics: config.num_topics,
            mh_steps,
            int_bytes: if config.compress_16bit { 2 } else { 4 },
        }
    }
}

/// The mixture's exact sparse bucket: the document's topics and the running
/// prefix of `θ_{d,k} · p*(k)` over them.  Reused across a block's (or a
/// sweep's) tokens; the cycle never touches it, so it never allocates there.
#[derive(Default)]
struct SparseBucket {
    topics: Vec<usize>,
    prefix: Vec<f64>,
}

/// The counts one token's MH chain reads, with the token itself excluded.
trait TokenCounts {
    /// The fresh word term `p*(k) = (φ_{k,v} + β) / (n_k + Vβ)`.
    fn fresh(&self, kk: usize) -> f64;
    /// The document's topic count `θ_{d,k}`.
    fn theta(&self, kk: usize) -> f64;
    /// Visit the document's topics with their counts, ascending.
    fn for_each_topic(&self, f: impl FnMut(usize, f64));
    /// Entries of the θ row a probe searches (cost model only).
    fn row_len(&self) -> usize;
    /// Tokens in the document.
    fn doc_len(&self) -> usize;
    /// The topic of the document's `j`-th token, as the doc proposal reads
    /// it.
    fn doc_topic(&self, j: usize) -> usize;
}

/// A token as the device kernel sees it: the synchronized φ column and
/// `n_k`, the chunk's CSR θ row and the iteration-start `z`, all still
/// counting the token, which is excluded by its current topic `c`.
struct ChunkToken<'a> {
    state: &'a ChunkState,
    phi_col: &'a [AtomicU32],
    cols: &'a [TopicId],
    vals: &'a [u32],
    d: usize,
    c: usize,
    p: &'a ChainParams,
}

impl TokenCounts for ChunkToken<'_> {
    /// Evaluated lazily: the MH kernels never touch the full φ column, only
    /// the topics the sparse part and the MH steps actually visit
    /// (L1-served, like the sparse kernel's spilled lookups).
    #[inline]
    fn fresh(&self, kk: usize) -> f64 {
        let self_count = if kk == self.c { 1.0 } else { 0.0 };
        ((self.phi_col[kk].load(Ordering::Relaxed) as f64 - self_count).max(0.0) + self.p.beta)
            / ((self.state.nk_global.get(kk) as f64 - self_count).max(0.0) + self.p.v_beta)
    }

    /// CSR columns are sorted, so the probe is the binary search the cost
    /// model charges.
    #[inline]
    fn theta(&self, kk: usize) -> f64 {
        let raw = self
            .cols
            .binary_search(&(kk as TopicId))
            .map(|i| self.vals[i] as f64)
            .unwrap_or(0.0);
        if kk == self.c {
            (raw - 1.0).max(0.0)
        } else {
            raw
        }
    }

    #[inline]
    fn for_each_topic(&self, mut f: impl FnMut(usize, f64)) {
        for (&kk, &cnt) in self.cols.iter().zip(self.vals) {
            let kk = kk as usize;
            let cnt = if kk == self.c {
                (cnt as f64 - 1.0).max(0.0)
            } else {
                cnt as f64
            };
            f(kk, cnt);
        }
    }

    #[inline]
    fn row_len(&self) -> usize {
        self.cols.len()
    }

    #[inline]
    fn doc_len(&self) -> usize {
        self.state.layout.doc_len(self.d)
    }

    #[inline]
    fn doc_topic(&self, j: usize) -> usize {
        let pos = self.state.layout.doc_positions(self.d)[j] as usize;
        self.state.z[pos].load(Ordering::Relaxed) as usize
    }
}

/// A token as the host burn-in sees it: live global counts and a dense
/// document histogram the token was already removed from, and the
/// document's `z` as this sweep has updated it so far.
struct LiveToken<'a> {
    phi: &'a DenseMatrix<u32>,
    nk: &'a [i64],
    theta_d: &'a [u32],
    z: &'a [u16],
    w: usize,
    p: &'a ChainParams,
}

impl TokenCounts for LiveToken<'_> {
    #[inline]
    fn fresh(&self, kk: usize) -> f64 {
        (self.phi.get(kk, self.w) as f64 + self.p.beta) / (self.nk[kk] as f64 + self.p.v_beta)
    }

    #[inline]
    fn theta(&self, kk: usize) -> f64 {
        self.theta_d[kk] as f64
    }

    #[inline]
    fn for_each_topic(&self, mut f: impl FnMut(usize, f64)) {
        for (kk, &cnt) in self.theta_d.iter().enumerate() {
            if cnt != 0 {
                f(kk, cnt as f64);
            }
        }
    }

    #[inline]
    fn row_len(&self) -> usize {
        self.theta_d.len()
    }

    #[inline]
    fn doc_len(&self) -> usize {
        self.z.len()
    }

    #[inline]
    fn doc_topic(&self, j: usize) -> usize {
        self.z[j] as usize
    }
}

/// A chain over the burn-in's live counts (see `mixture_chain`).
type LiveChain = for<'t> fn(
    &LiveToken<'t>,
    usize,
    u64,
    &WordProposal,
    &ChainParams,
    &mut SparseBucket,
    &mut BlockCtx,
) -> usize;

/// The [`MhProposal::Mixture`] chain: exact sparse bucket vs stale dense
/// bucket, then O(1) within either.  Runs one token's chain from its
/// current topic `c`, every draw keyed by the per-token seed `tseed`, and
/// returns the new topic.
fn mixture_chain<T: TokenCounts>(
    t: &T,
    c: usize,
    tseed: u64,
    word: &WordProposal,
    p: &ChainParams,
    p1: &mut SparseBucket,
    ctx: &mut BlockCtx,
) -> usize {
    let WordProposal::Dense(stale) = word else {
        unreachable!("mixture word tables are dense")
    };
    // Exact sparse part over the document's θ row, token excluded.
    p1.topics.clear();
    p1.prefix.clear();
    let mut s = 0.0f64;
    t.for_each_topic(|kk, cnt| {
        s += cnt * t.fresh(kk);
        p1.topics.push(kk);
        p1.prefix.push(s);
    });
    let kd = p1.topics.len();
    ctx.read_global(kd as u64 * (p.int_bytes + 4) + 8); // CSR row
    ctx.read_l1(kd as u64 * (p.int_bytes + 8)); // φ[k,v] + n_k at doc topics
    ctx.flops(4 * kd as u64);
    // Stale dense mass Q̂ = α · Σ_k ŵ(k).
    let q_hat = p.alpha * stale.mass();
    let probe_cost = (kd.max(2) as u64).ilog2() as u64;

    let mut k_cur = c;
    for step in 0..p.mh_steps {
        let step = step as u64;
        let pick = ctx.stable_f32(tseed, 2 * step, 0) as f64 * (s + q_hat);
        ctx.flops(2);
        let k_prop = if pick < s && kd > 0 {
            let idx = p1.prefix.partition_point(|&cum| cum <= pick).min(kd - 1);
            ctx.int_ops(probe_cost + 1);
            p1.topics[idx]
        } else {
            let u1 = ctx.stable_f32(tseed, 2 * step, 1);
            let u2 = ctx.stable_f32(tseed, 2 * step, 2);
            ctx.read_l1(8); // prob + alias of one bucket
            stale.table().sample_with(u1, u2)
        };
        if k_prop == k_cur {
            continue;
        }
        // MH correction for the staleness of the dense part:
        // accept with p(k')q(k) / (p(k)q(k')), p fresh, q stale-mixed.
        let posterior = |kk: usize| (t.theta(kk) + p.alpha) * t.fresh(kk);
        let mixture = |kk: usize| t.theta(kk) * t.fresh(kk) + p.alpha * stale.weight(kk);
        let accept = posterior(k_prop) * mixture(k_cur) / (posterior(k_cur) * mixture(k_prop));
        // Fresh φ/n_k plus the stale φ̂ snapshot at the two topics (the
        // stale weight is reconstructed from φ̂ and the chunk's n̂_k
        // snapshot, two extra flops each).
        ctx.read_l1(2 * (p.int_bytes + 8 + p.int_bytes));
        ctx.flops(20);
        ctx.int_ops(2 * probe_cost); // θ row probes
        if (ctx.stable_f32(tseed, 2 * step + 1, 3) as f64) < accept {
            k_cur = k_prop;
        }
    }
    k_cur
}

/// The [`MhProposal::Cycle`] chain: even steps propose from the document,
/// odd steps from the stale word table (same contract as `mixture_chain`).
fn cycle_chain<T: TokenCounts>(
    t: &T,
    c: usize,
    tseed: u64,
    word: &WordProposal,
    p: &ChainParams,
    _p1: &mut SparseBucket,
    ctx: &mut BlockCtx,
) -> usize {
    let k = p.num_topics;
    let alpha_k = p.alpha * k as f64;
    let len = t.doc_len();
    ctx.read_global(8); // doc_ptr[d], doc_ptr[d+1]

    // The θ row is only ever probed (binary search, charged per probe):
    // light never walks the full row, which is its whole point.
    let probe_cost = (t.row_len().max(2) as u64).ilog2() as u64 + 1;
    let posterior = |kk: usize| (t.theta(kk) + p.alpha) * t.fresh(kk);

    let mut k_cur = c;
    for step in 0..p.mh_steps {
        let sstep = step as u64;
        let (k_prop, q_ratio) = if step % 2 == 0 {
            // Doc proposal q(k) ∝ θ_{d,k} + α: another token's topic
            // (mass L_d, the current token included, as the reference
            // implementation does) or a uniform topic (mass Kα).
            let pick = ctx.stable_f32(tseed, 2 * sstep, 0) as f64 * (len as f64 + alpha_k);
            let u1 = ctx.stable_f32(tseed, 2 * sstep, 1);
            ctx.flops(4);
            let kp = if pick < len as f64 {
                let j = ((u1 as f64 * len as f64) as usize).min(len - 1);
                ctx.read_global(4 + p.int_bytes); // doc map entry + that token's z
                t.doc_topic(j)
            } else {
                ((u1 as f64 * k as f64) as usize).min(k - 1)
            };
            // q(k)/q(k') with the fresh token-excluded θ (two probes).
            ctx.int_ops(2 * probe_cost);
            ctx.read_l1(2 * probe_cost * (p.int_bytes + 4));
            let q_new = t.theta(kp) + p.alpha;
            let q_old = t.theta(k_cur) + p.alpha;
            (kp, q_old / q_new)
        } else {
            // Word proposal q(k) ∝ φ̂_{k,v} + β from the stale table: O(1).
            let u1 = ctx.stable_f32(tseed, 2 * sstep, 1);
            let u2 = ctx.stable_f32(tseed, 2 * sstep, 2);
            ctx.read_l1(8); // prob + alias of one bucket
            let kp = word.draw(u1, u2);
            ctx.read_l1(8); // φ̂ snapshot at the two topics
            ctx.flops(4);
            let q_new = word.weight(kp, p.beta);
            let q_old = word.weight(k_cur, p.beta);
            (kp, q_old / q_new)
        };
        if k_prop == k_cur {
            continue;
        }
        // MH acceptance with the exact fresh posterior masses:
        // accept = p(k')q(k) / (p(k)q(k')).
        let accept = posterior(k_prop) / posterior(k_cur) * q_ratio;
        ctx.read_l1(2 * (p.int_bytes + 8)); // fresh φ/n_k at two topics
        ctx.int_ops(2 * probe_cost); // θ row probes
        ctx.flops(16);
        if (ctx.stable_f32(tseed, 2 * sstep + 1, 3) as f64) < accept {
            k_cur = k_prop;
        }
    }
    k_cur
}

/// The per-launch block kernel of [`MhSampler`]: one chunk's work items at
/// one iteration, running `cycle_chain` (`CYCLE`) or `mixture_chain` per
/// token against the chunk's stale tables.
struct MhSampleBlock<'a, const CYCLE: bool> {
    state: &'a ChunkState,
    items: &'a [WorkItem],
    config: &'a LdaConfig,
    iteration: u64,
    params: ChainParams,
    tables: Arc<ChunkTables>,
}

impl<const CYCLE: bool> BlockKernel for MhSampleBlock<'_, CYCLE> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        if item.is_empty() {
            return;
        }
        let state = self.state;
        let v = item.word as usize;
        let word = self.tables.proposals[v]
            .as_ref()
            .expect("stale tables cover every word with tokens in the chunk");
        // The table's masses live in device memory from the build, read once
        // per block: the stale dense mass Q̂ of the mixture, the sparse and
        // smoothing masses of the cycle.
        ctx.read_global(if CYCLE { 16 } else { 8 });

        let phi_col = state.phi_global.col(v);
        let theta = state.theta.read();
        let mut p1 = SparseBucket::default();
        for pos in item.start..item.end {
            let pos = pos as usize;
            let d = state.layout.token_doc[pos] as usize;
            ctx.read_global(4); // token → document index
            let c = state.z[pos].load(Ordering::Relaxed) as usize;
            ctx.read_global(self.params.int_bytes); // current topic assignment
            let (cols, vals) = theta.row(d);

            // Per-token MH chain, every draw keyed by token identity.
            let global_doc = (state.layout.range.start + d) as u64;
            let slot = state.token_slot[pos] as u64;
            let tseed = stable_u64(self.config.seed, self.iteration, (global_doc << 32) | slot);
            let token = ChunkToken {
                state,
                phi_col,
                cols,
                vals,
                d,
                c,
                p: &self.params,
            };
            // `CYCLE` is a constant of this instantiation: no runtime branch.
            let k_new = if CYCLE {
                cycle_chain(&token, c, tseed, word, &self.params, &mut p1, ctx)
            } else {
                mixture_chain(&token, c, tseed, word, &self.params, &mut p1, ctx)
            };

            state.z_next[pos].store(k_new as u16, Ordering::Relaxed);
            ctx.write_global(self.params.int_bytes); // compressed topic assignment
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::build_work_items;
    use culda_corpus::{partition::DocRange, ChunkLayout, DatasetProfile};
    use culda_gpusim::DeviceSpec;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn make_state(num_topics: usize, seed: u64) -> ChunkState {
        let corpus = DatasetProfile {
            name: "mh".into(),
            num_docs: 60,
            vocab_size: 120,
            avg_doc_len: 30.0,
            zipf_exponent: 1.05,
            doc_len_sigma: 0.4,
        }
        .generate(seed);
        let layout = ChunkLayout::build(
            &corpus,
            DocRange {
                start: 0,
                end: corpus.num_docs(),
            },
        );
        let state = ChunkState::new(0, layout, num_topics);
        let cfg = LdaConfig::with_topics(num_topics);
        state.random_init_stable(&cfg, cfg.seed);
        state.phi_global.copy_from(&state.phi_local);
        state.nk_global.store_all(&state.nk_local.to_vec());
        state
    }

    /// The three shipped presets (`alias`, `light`, `light` pruned at 16
    /// global tokens) with the rebuild cadence set to `rebuild_every`.
    fn presets(rebuild_every: usize) -> [(&'static str, MhSampler); 3] {
        [
            (
                "alias",
                MhSampler::new(MhProposal::Mixture, rebuild_every, 2),
            ),
            (
                "light",
                MhSampler::new(MhProposal::Cycle { prune_below: 0 }, rebuild_every, 4),
            ),
            (
                "light-pruned",
                MhSampler::new(MhProposal::Cycle { prune_below: 16 }, rebuild_every, 4),
            ),
        ]
    }

    #[test]
    fn prepare_builds_on_cadence_and_sampling_assigns_valid_topics() {
        for (name, sampler) in presets(3) {
            let state = make_state(16, 5);
            let cfg = LdaConfig::with_topics(16);
            let dev = Device::new(0, DeviceSpec::v100_volta(), 7);

            // Iteration 0 builds (no tables yet), 1 and 2 reuse, 3 rebuilds.
            assert!(sampler.prepare_chunk(&dev, &state, &cfg, 0) > 0.0, "{name}");
            assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 1), 0.0, "{name}");
            assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 2), 0.0, "{name}");
            assert!(sampler.prepare_chunk(&dev, &state, &cfg, 3) > 0.0, "{name}");

            let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
            let kernel = sampler.sampling_kernel(&state, &items, &cfg, 3);
            let stats = dev.launch(sampler.name(), LaunchConfig::new(items.len()), &kernel);
            for z in &state.z_next {
                assert!((z.load(Ordering::Relaxed) as usize) < 16, "{name}");
            }
            assert!(stats.counters.dram_read_bytes > 0, "{name}");
            assert!(stats.counters.rng_draws > 0, "{name}");
        }
    }

    #[test]
    fn resume_style_first_iteration_always_builds() {
        for (name, sampler) in presets(4) {
            let state = make_state(8, 9);
            let cfg = LdaConfig::with_topics(8);
            let dev = Device::new(0, DeviceSpec::v100_volta(), 1);
            // First iteration the sampler ever sees is 6 (mid-cadence, as
            // after a resume from a checkpoint with no persisted sampler
            // state, e.g. a pre-v4 file): with nothing to restore, tables
            // must still be built.
            assert!(sampler.prepare_chunk(&dev, &state, &cfg, 6) > 0.0, "{name}");
            // ...and the next rebuild falls back onto the cadence grid.
            assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 7), 0.0, "{name}");
            assert!(sampler.prepare_chunk(&dev, &state, &cfg, 8) > 0.0, "{name}");
        }
    }

    #[test]
    fn restored_snapshot_resumes_mid_cadence_without_a_rebuild() {
        for ((name, sampler), (_, restored)) in presets(4).into_iter().zip(presets(4)) {
            let cfg = LdaConfig::with_topics(8);
            let dev = Device::new(0, DeviceSpec::v100_volta(), 1);

            // No rebuild has happened yet, so there is nothing to persist.
            assert!(sampler.resume_state().is_none(), "{name}");

            let state = make_state(8, 9);
            assert!(sampler.prepare_chunk(&dev, &state, &cfg, 0) > 0.0, "{name}");
            let snapshot = sampler.resume_state().expect("snapshot after rebuild");

            // A fresh sampler with the snapshot restored skips the device
            // build at a mid-cadence iteration (the uninterrupted run
            // already paid for it before the checkpoint) ...
            restored.restore_resume_state(&snapshot);
            let state_b = make_state(8, 9);
            assert_eq!(
                restored.prepare_chunk(&dev, &state_b, &cfg, 2),
                0.0,
                "{name}"
            );

            // ... and produces bit-identical assignments from the stale
            // tables.
            let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
            assert_eq!(sampler.prepare_chunk(&dev, &state, &cfg, 2), 0.0, "{name}");
            dev.launch(
                sampler.name(),
                LaunchConfig::new(items.len()),
                &sampler.sampling_kernel(&state, &items, &cfg, 2),
            );
            dev.launch(
                restored.name(),
                LaunchConfig::new(items.len()),
                &restored.sampling_kernel(&state_b, &items, &cfg, 2),
            );
            for (a, b) in state.z_next.iter().zip(&state_b.z_next) {
                assert_eq!(
                    a.load(Ordering::Relaxed),
                    b.load(Ordering::Relaxed),
                    "{name}"
                );
            }

            // The restored sampler stays on the original cadence grid.
            assert_eq!(
                restored.prepare_chunk(&dev, &state_b, &cfg, 3),
                0.0,
                "{name}"
            );
            assert!(
                restored.prepare_chunk(&dev, &state_b, &cfg, 4) > 0.0,
                "{name}"
            );
        }
    }

    #[test]
    fn sampling_before_prepare_is_a_bug() {
        for (name, sampler) in presets(4) {
            let state = make_state(8, 1);
            let cfg = LdaConfig::with_topics(8);
            let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
            let panic = catch_unwind(AssertUnwindSafe(|| {
                let _ = sampler.sampling_kernel(&state, &items, &cfg, 0);
            }))
            .expect_err(name);
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains("prepare_chunk"), "{name}: {msg}");
        }
    }

    #[test]
    fn alias_sampling_avoids_the_per_word_dense_rebuild_traffic() {
        // On non-rebuild iterations the alias kernel must read far less
        // off-chip data than the sparse kernel, which pays K ints + K totals
        // per word: that per-word saving is the point of the hybrid.
        let k = 256;
        let state = make_state(k, 3);
        let cfg = LdaConfig::with_topics(k);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);

        let dev = Device::new(0, DeviceSpec::v100_volta(), 2);
        let sparse_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &crate::kernels::SparseCgsSampler.sampling_kernel(&state, &items, &cfg, 1),
        );

        let alias = MhSampler::new(MhProposal::Mixture, 8, 2);
        alias.prepare_chunk(&dev, &state, &cfg, 0);
        let alias_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &alias.sampling_kernel(&state, &items, &cfg, 1),
        );
        // The shared per-token θ-row traffic bounds the ratio on this small
        // corpus; the per-word saving still has to be clearly visible.
        assert!(
            (alias_stats.counters.dram_read_bytes as f64)
                < sparse_stats.counters.dram_read_bytes as f64 * 0.8,
            "alias {} vs sparse {}",
            alias_stats.counters.dram_read_bytes,
            sparse_stats.counters.dram_read_bytes
        );
    }

    #[test]
    fn light_sampling_avoids_the_per_token_theta_row_walk() {
        // At large K and long documents, the light kernel's per-token cost
        // is O(mh_steps · log K_d) instead of O(K_d): the off-chip traffic
        // must come in clearly under both the sparse kernel (which also pays
        // the per-word O(K) tree build) and the alias hybrid's sparse pass.
        let k = 256;
        let state = make_state(k, 3);
        let cfg = LdaConfig::with_topics(k);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);

        let dev = Device::new(0, DeviceSpec::v100_volta(), 2);
        let sparse_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &crate::kernels::SparseCgsSampler.sampling_kernel(&state, &items, &cfg, 1),
        );

        let light = MhSampler::new(MhProposal::Cycle { prune_below: 0 }, 8, 4);
        light.prepare_chunk(&dev, &state, &cfg, 0);
        let light_stats = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &light.sampling_kernel(&state, &items, &cfg, 1),
        );
        assert!(
            (light_stats.counters.dram_read_bytes as f64)
                < sparse_stats.counters.dram_read_bytes as f64 * 0.5,
            "light {} vs sparse {}",
            light_stats.counters.dram_read_bytes,
            sparse_stats.counters.dram_read_bytes
        );
    }

    #[test]
    fn pruned_variant_samples_the_same_distribution_family() {
        // A pruned word proposal draws from exactly q(k) ∝ φ̂(k,v) + β: sweep
        // a grid of uniforms and compare the empirical law against the dense
        // representation built from the same counts.
        let counts = [0u32, 3, 0, 1, 0, 0, 0, 0];
        let beta = 0.25;
        let build = |prune_below| {
            MhProposal::Cycle { prune_below }.word_proposal(counts.iter().copied(), &[], beta, 0)
        };
        let dense = build(0);
        let pruned = build(100);
        assert!(matches!(dense, WordProposal::Dense(_)));
        assert!(matches!(pruned, WordProposal::Pruned { .. }));
        let k = counts.len();
        let total: f64 = counts.iter().map(|&c| c as f64 + beta).sum();
        let n = 600;
        let mut freq = vec![0usize; k];
        for a in 0..n {
            for b in 0..n {
                let u1 = (a as f32 + 0.5) / n as f32;
                let u2 = (b as f32 + 0.5) / n as f32;
                freq[pruned.draw(u1, u2)] += 1;
            }
        }
        for kk in 0..k {
            let expect = (counts[kk] as f64 + beta) / total;
            let got = freq[kk] as f64 / (n * n) as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "topic {kk}: got {got}, expected {expect}"
            );
            // The acceptance-ratio weights agree exactly between the forms.
            assert_eq!(pruned.weight(kk, beta), dense.weight(kk, beta));
        }
    }

    #[test]
    fn pruning_keys_on_the_global_count_threshold() {
        let state = make_state(16, 5);
        let cfg = LdaConfig::with_topics(16);
        // A huge threshold prunes every word; zero prunes none.
        let pruned = MhSampler::new(
            MhProposal::Cycle {
                prune_below: usize::MAX,
            },
            4,
            4,
        );
        let dense = MhSampler::new(MhProposal::Cycle { prune_below: 0 }, 4, 4);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 7);
        let span_pruned = pruned.prepare_chunk(&dev, &state, &cfg, 0);
        let span_dense = dense.prepare_chunk(&dev, &state, &cfg, 0);
        assert!(span_pruned > 0.0 && span_dense > 0.0);
        // The pruned build writes O(nnz) per word instead of O(K): cheaper.
        assert!(
            span_pruned < span_dense,
            "pruned {span_pruned} vs dense {span_dense}"
        );
        let is_pruned = |p: &WordProposal| matches!(p, WordProposal::Pruned { .. });
        let chunks = pruned.chunks.lock();
        let tables = chunks.get(&0).unwrap();
        assert!(tables.proposals.iter().flatten().any(is_pruned));
        let chunks = dense.chunks.lock();
        let tables = chunks.get(&0).unwrap();
        assert!(!tables.proposals.iter().flatten().any(is_pruned));
    }
}
