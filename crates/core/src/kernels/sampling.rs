//! The default sparse-CGS sampling kernel (§6.1, Algorithm 2).
//!
//! [`SparseCgsSampler`] is the default [`SamplerKernel`] implementation: the
//! paper's exact S/Q-split collapsed Gibbs kernel.  One thread block samples
//! the tokens of one word (or a slice of a heavy word's tokens).  The block
//! first computes the shared quantities that depend only on the word:
//!
//! * the reused sub-expression `p*(k) = (φ[k,v] + β) / (n_k + βV)` (§6.1.3),
//!   stored in shared memory;
//! * the dense part `p2(k) = α · p*(k)`, its sum `Q`, and its 32-way index
//!   tree (§6.1.1), also in shared memory.
//!
//! Each sampler (warp) then processes its tokens: it reads the document's
//! sparse θ row, forms the sparse part `p1(k) = θ_{d,k} · p*(k)` and its sum
//! `S`, draws `u ~ U(0, S + Q)` and samples from `p1` (tree over the `K_d`
//! non-zeros) when `u < S`, from the shared `p2` tree otherwise.  The new
//! topic is written to `z_next`; counts are folded in by the update kernels.
//!
//! On the host (DESIGN §10, "Host-side evaluation of the sparse part"), the
//! n_k row is read once per launch by [`SparseCgsBlock::new`], each block
//! makes one scratch allocation for the φ column, p* and the p1 prefix, and
//! the p1 prefix is split at the token's topic: θ columns are sorted, so one
//! `partition_point` replaces a per-non-zero topic test.  The f32 operations
//! and their order, and every cost-model charge, are those of the paper's
//! kernel, so draws and simulated time are unchanged.

use crate::config::LdaConfig;
use crate::kernels::sampler::{SamplerKernel, BURN_STREAM_BASE};
use crate::model::ChunkState;
use crate::work::WorkItem;
use culda_gpusim::rng::stable_f32;
use culda_gpusim::{BlockCtx, BlockKernel};
use culda_sparse::prefix::search_prefix;
use culda_sparse::{DenseMatrix, IndexTree, TopicId};
use std::sync::atomic::Ordering;

/// The paper's exact S/Q-split collapsed Gibbs sampler — the default
/// [`SamplerKernel`] implementation ([`crate::SamplerStrategy::SparseCgs`]).
///
/// Stateless: the per-word shared structures (p*(k), the p2 index tree) are
/// rebuilt inside every block, every iteration, exactly as §6.1 describes —
/// which is precisely the `O(K)` per-word cost the alias-hybrid strategy
/// amortises away.
pub struct SparseCgsSampler;

impl SamplerKernel for SparseCgsSampler {
    fn name(&self) -> &'static str {
        crate::kernels::names::SAMPLING
    }

    fn sampling_kernel<'a>(
        &'a self,
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Box<dyn BlockKernel + 'a> {
        Box::new(SparseCgsBlock::new(state, items, config, iteration))
    }

    /// Exact document-major collapsed Gibbs: the full conditional
    /// `(θ_{d,k} + α)(φ_{k,w} + β)/(n_k + βV)` is evaluated fresh for every
    /// token and sampled by inverse CDF from one counter-based draw keyed by
    /// `(uid, slot)`.
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
        let k = config.num_topics;
        let alpha = config.alpha;
        let beta = config.beta;
        let stream = BURN_STREAM_BASE - sweep as u64;
        let v_beta = beta * phi.cols() as f64;
        let mut weights = vec![0.0f64; k];
        for (slot, &w) in words.iter().enumerate() {
            let w = w as usize;
            let c = z[slot] as usize;
            theta_d[c] -= 1;
            *phi.get_mut(c, w) -= 1;
            nk[c] -= 1;
            let mut total = 0.0f64;
            for (topic, weight) in weights.iter_mut().enumerate() {
                total += (theta_d[topic] as f64 + alpha) * (phi.get(topic, w) as f64 + beta)
                    / (nk[topic] as f64 + v_beta);
                *weight = total;
            }
            let u = stable_f32(config.seed, stream, (uid << 32) | slot as u64) as f64 * total;
            let new_topic = weights.partition_point(|&cum| cum <= u).min(k - 1);
            z[slot] = new_topic as u16;
            theta_d[new_topic] += 1;
            *phi.get_mut(new_topic, w) += 1;
            nk[new_topic] += 1;
        }
    }
}

/// The per-launch block kernel of [`SparseCgsSampler`]: one chunk's work
/// items at one iteration.  Built with [`SparseCgsBlock::new`], which reads
/// the launch-invariant topic totals once.
pub struct SparseCgsBlock<'a> {
    /// Chunk being sampled.
    pub state: &'a ChunkState,
    /// Per-block work assignment (see [`crate::work::build_work_items`]).
    pub items: &'a [WorkItem],
    /// Run configuration.
    pub config: &'a LdaConfig,
    /// Training iteration number; tags each token's counter-based RNG stream
    /// so draws are bit-identical across runs and GPU topologies.
    pub iteration: u64,
    /// `n_k` as f32, read from `nk_global` when the launch is built.
    nk: Vec<f32>,
    /// The p* denominator `n_k + βV` as f32, per topic.
    nk_denom: Vec<f32>,
}

impl<'a> SparseCgsBlock<'a> {
    /// The block kernel for one launch over `items` of `state`.
    ///
    /// `nk_global` is read here, once per launch, instead of once per block:
    /// nothing writes it while a sampling launch runs (only the φ
    /// synchronization in [`crate::sync`] does, between launches), so every
    /// block sees exactly the values it would have read itself.
    pub fn new(
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    ) -> Self {
        let beta_v = (config.beta * state.layout.vocab_size as f64) as f32;
        let nk: Vec<f32> = (0..config.num_topics)
            .map(|kk| state.nk_global.get(kk) as f32)
            .collect();
        let nk_denom = nk.iter().map(|&n| n + beta_v).collect();
        SparseCgsBlock {
            state,
            items,
            config,
            iteration,
            nk,
            nk_denom,
        }
    }

    /// Bytes of a compressed (or not) integer model element.
    #[inline]
    fn model_int_bytes(&self) -> u64 {
        if self.config.compress_16bit {
            2
        } else {
            4
        }
    }
}

/// Accumulate `θ_{d,k} · p*(k)` over a run of a θ row whose topics all differ
/// from the token's own, writing the running sum `s` into `prefix`.
#[inline]
fn accumulate_p1(cols: &[TopicId], vals: &[u32], p_star: &[f32], prefix: &mut [f32], s: &mut f32) {
    for ((&t, &n), out) in cols.iter().zip(vals).zip(prefix) {
        *s += n as f32 * p_star[usize::from(t)];
        *out = *s;
    }
}

impl BlockKernel for SparseCgsBlock<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        if item.is_empty() {
            return;
        }
        let state = self.state;
        let cfg = self.config;
        let k = cfg.num_topics;
        let v = item.word as usize;
        let vocab = state.layout.vocab_size;
        let alpha = cfg.alpha as f32;
        let beta = cfg.beta as f32;
        let beta_v = (cfg.beta * vocab as f64) as f32;
        let int_bytes = self.model_int_bytes();

        // One scratch allocation per block: the word's φ column, p*(k), and
        // the per-token p1 prefix (which first holds p2 while the tree is
        // built).
        let mut scratch = vec![0.0f32; 3 * k];
        let (phi_col, rest) = scratch.split_at_mut(k);
        let (p_star, prefix) = rest.split_at_mut(k);

        // ---- Per-word shared state: p*(k), Q, and the p2 index tree. ----
        // Reading the φ column and n_k for the word: K compressed ints + K
        // 32-bit totals from global memory; 2 flops per topic to form p*.
        // The raw φ[·,v] values (and the launch's n_k row) are kept so each
        // token can remove its own contribution (the n^{¬dv} correction of
        // collapsed Gibbs).
        for (((phi_f, ps), phi), &denom) in phi_col
            .iter_mut()
            .zip(p_star.iter_mut())
            .zip(state.phi_global.col(v))
            .zip(&self.nk_denom)
        {
            *phi_f = phi.load(Ordering::Relaxed) as f32;
            *ps = (*phi_f + beta) / denom;
        }
        ctx.read_global(k as u64 * int_bytes); // φ[·, v]
        ctx.read_global(k as u64 * 4); // n_k
        ctx.flops(2 * k as u64);

        // p2(k) = α · p*(k); the tree over p2 is shared by every sampler in
        // the block (§6.1.2).  If shared memory cannot hold p* and the tree,
        // the structures spill and their traffic is charged to L1 instead.
        for (p2, &ps) in prefix.iter_mut().zip(p_star.iter()) {
            *p2 = alpha * ps;
        }
        ctx.flops(k as u64);
        let p2_tree = IndexTree::with_fanout(cfg.tree_fanout, prefix);
        let q = p2_tree.total();

        let p_star_bytes = 4 * k as u64;
        let tree_bytes = p2_tree.shared_bytes() + p2_tree.leaf_bytes();
        // `in_shared`: the block-shared placement of §6.1.2.  When sharing is
        // disabled (the SaberLDA-style configuration and the ablation), the
        // per-token lookups fall back to off-chip memory; when sharing is
        // enabled but the structures exceed the block's shared budget, they
        // spill to the L1-cached path instead.
        let fits = ctx.shared_alloc(p_star_bytes) && ctx.shared_alloc(tree_bytes);
        let in_shared = cfg.share_p2_tree && fits;
        if in_shared {
            ctx.shared_traffic(p_star_bytes + tree_bytes); // construction writes
        } else if cfg.share_p2_tree {
            // Capacity spill: rebuilt per sampler through L1.
            ctx.read_l1(p_star_bytes + tree_bytes);
        } else {
            ctx.write_global(p_star_bytes + tree_bytes);
        }

        // ---- Per-token sampling. ----
        let theta = state.theta.read();
        for pos in item.start..item.end {
            let pos = pos as usize;
            let d = state.layout.token_doc[pos] as usize;
            ctx.read_global(4); // token → document index

            // The token's current assignment, so its own count can be
            // excluded from every distribution it is resampled from
            // (collapsed Gibbs samples from n^{¬dv}, Algorithm 2 line 4).
            let c_id = state.z[pos].load(Ordering::Relaxed);
            let c = usize::from(c_id);
            ctx.read_global(int_bytes); // current topic assignment
            let p_star_c =
                ((phi_col[c] - 1.0).max(0.0) + beta) / ((self.nk[c] - 1.0).max(0.0) + beta_v);
            ctx.flops(2);

            let (cols, vals) = theta.row(d);
            let kd = cols.len();
            // Reading the CSR row: K_d (compressed column index + 32-bit
            // count) pairs plus the two row-pointer entries.
            ctx.read_global(kd as u64 * (int_bytes + 4) + 8);

            // p1(k) = θ_{d,k} · p*(k): one multiply and one add per non-zero,
            // with the p* lookups served from shared memory.  The current
            // topic's own count is excluded.  The row's columns are sorted,
            // so it splits at the token's topic into two runs that need no
            // per-entry test, around the one self-excluded entry (absent
            // when the row does not hold topic `c`).
            let j = cols.partition_point(|&t| usize::from(t) < c);
            let mut s = 0.0f32;
            accumulate_p1(&cols[..j], &vals[..j], p_star, prefix, &mut s);
            let mut tail = j;
            if cols.get(j) == Some(&c_id) {
                s += (vals[j] as f32 - 1.0).max(0.0) * p_star_c;
                prefix[j] = s;
                tail = j + 1;
            }
            accumulate_p1(
                &cols[tail..],
                &vals[tail..],
                p_star,
                &mut prefix[tail..],
                &mut s,
            );
            ctx.flops(2 * kd as u64);
            if in_shared {
                ctx.shared_traffic(4 * kd as u64);
            } else if cfg.share_p2_tree {
                ctx.read_l1(4 * kd as u64);
            } else {
                ctx.read_global(4 * kd as u64);
            }

            // The dense part's mass with the current topic's self-count
            // removed: only the p2 leaf for topic `c` changes, so the shared
            // tree is reused and the draw is remapped around the removed
            // mass instead of rebuilding the tree per token.
            // `alpha * p_star[c]` is the p2(c) leaf the tree was built from.
            let p2_c_adj = alpha * p_star_c;
            let delta = alpha * p_star[c] - p2_c_adj;
            let q_adj = (q - delta).max(0.0);
            let leaf_before_c = if c == 0 {
                0.0
            } else {
                p2_tree.leaf_prefix()[c - 1]
            };
            ctx.flops(3);

            // Draw u ~ U(0, S + Q) and pick the branch (Algorithm 2, line 6).
            // The draw is a pure function of (seed, iteration, token
            // identity): the same token gets the same randomness no matter
            // which block, device or topology samples it.
            let global_doc = (state.layout.range.start + d) as u64;
            let slot = state.token_slot[pos] as u64;
            let u =
                ctx.stable_f32(cfg.seed, self.iteration, (global_doc << 32) | slot) * (s + q_adj);
            ctx.flops(2);
            let new_topic = if u < s && kd > 0 {
                // Sparse branch: search the K_d-entry prefix sum (the warp
                // holds it in registers; a binary search costs ~log2(K_d)).
                let idx = search_prefix(&prefix[..kd], u);
                ctx.int_ops((kd.max(2) as u64).ilog2() as u64 + 1);
                cols[idx] as usize
            } else {
                // Dense branch: descend the shared 32-way p2 tree, remapping
                // the draw across topic `c`'s reduced leaf.
                let u2 = (u - s).clamp(0.0, q_adj);
                let u2_orig = if u2 < leaf_before_c {
                    Some(u2)
                } else if u2 < leaf_before_c + p2_c_adj {
                    None // lands inside topic c's adjusted leaf
                } else {
                    Some((u2 + delta).clamp(0.0, q))
                };
                match u2_orig {
                    Some(u2) => {
                        let (idx, stats) = p2_tree.sample_with_stats(u2);
                        if in_shared {
                            ctx.shared_traffic(stats.nodes_visited as u64 * 4);
                        } else if cfg.share_p2_tree {
                            ctx.read_l1(stats.nodes_visited as u64 * 4);
                        } else {
                            ctx.read_global(stats.nodes_visited as u64 * 4);
                        }
                        ctx.int_ops(stats.levels as u64);
                        idx
                    }
                    None => {
                        // The warp still descends the tree to reach the leaf.
                        let depth = p2_tree.depth() as u64;
                        if in_shared {
                            ctx.shared_traffic(depth * 4);
                        } else if cfg.share_p2_tree {
                            ctx.read_l1(depth * 4);
                        } else {
                            ctx.read_global(depth * 4);
                        }
                        ctx.int_ops(depth);
                        c
                    }
                }
            };

            state.z_next[pos].store(new_topic as u16, Ordering::Relaxed);
            ctx.write_global(int_bytes); // compressed topic assignment
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{UpdatePhiKernel, UpdateThetaKernel};
    use crate::model::ChunkState;
    use crate::work::build_work_items;
    use culda_corpus::{partition::DocRange, ChunkLayout, CorpusBuilder, DatasetProfile};
    use culda_gpusim::{Device, DeviceSpec, LaunchConfig};

    fn make_state(num_topics: usize, seed: u64) -> ChunkState {
        let corpus = DatasetProfile {
            name: "t".into(),
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
        let mut x = seed as u32 | 1;
        state.random_init(&cfg, move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 16) as u16
        });
        // Make phi_global/nk_global consistent (single chunk: global = local).
        state.phi_global.copy_from(&state.phi_local);
        state.nk_global.store_all(&state.nk_local.to_vec());
        state
    }

    /// The kernel as it was before the per-launch n_k row and the split
    /// prefix loop: per-block n_k reads and a topic test on every non-zero.
    /// Kept verbatim as the oracle for [`SparseCgsBlock`].
    struct ReferenceSparseCgsBlock<'a> {
        state: &'a ChunkState,
        items: &'a [WorkItem],
        config: &'a LdaConfig,
        iteration: u64,
    }

    impl ReferenceSparseCgsBlock<'_> {
        fn model_int_bytes(&self) -> u64 {
            if self.config.compress_16bit {
                2
            } else {
                4
            }
        }
    }

    impl BlockKernel for ReferenceSparseCgsBlock<'_> {
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
            let item = &self.items[block_id];
            if item.is_empty() {
                return;
            }
            let state = self.state;
            let cfg = self.config;
            let k = cfg.num_topics;
            let v = item.word as usize;
            let vocab = state.layout.vocab_size;
            let alpha = cfg.alpha as f32;
            let beta = cfg.beta as f32;
            let beta_v = (cfg.beta * vocab as f64) as f32;
            let int_bytes = self.model_int_bytes();

            // ---- Per-word shared state: p*(k), Q, and the p2 index tree. ----
            // Reading the φ column and n_k for the word: K compressed ints + K
            // 32-bit totals from global memory; 2 flops per topic to form p*.
            // The raw φ[·,v] and n_k values are kept so each token can remove its
            // own contribution (the n^{¬dv} correction of collapsed Gibbs).
            let mut phi_col = vec![0.0f32; k];
            let mut nk_vals = vec![0.0f32; k];
            let mut p_star = vec![0.0f32; k];
            for (kk, phi) in state.phi_global.col(v).iter().enumerate() {
                phi_col[kk] = phi.load(Ordering::Relaxed) as f32;
                nk_vals[kk] = state.nk_global.get(kk) as f32;
                p_star[kk] = (phi_col[kk] + beta) / (nk_vals[kk] + beta_v);
            }
            ctx.read_global(k as u64 * int_bytes); // φ[·, v]
            ctx.read_global(k as u64 * 4); // n_k
            ctx.flops(2 * k as u64);

            // p2(k) = α · p*(k); the tree over p2 is shared by every sampler in
            // the block (§6.1.2).  If shared memory cannot hold p* and the tree,
            // the structures spill and their traffic is charged to L1 instead.
            let p2: Vec<f32> = p_star.iter().map(|&x| alpha * x).collect();
            ctx.flops(k as u64);
            let p2_tree = IndexTree::with_fanout(cfg.tree_fanout, &p2);
            let q = p2_tree.total();

            let p_star_bytes = 4 * k as u64;
            let tree_bytes = p2_tree.shared_bytes() + p2_tree.leaf_bytes();
            // `in_shared`: the block-shared placement of §6.1.2.  When sharing is
            // disabled (the SaberLDA-style configuration and the ablation), the
            // per-token lookups fall back to off-chip memory; when sharing is
            // enabled but the structures exceed the block's shared budget, they
            // spill to the L1-cached path instead.
            let fits = ctx.shared_alloc(p_star_bytes) && ctx.shared_alloc(tree_bytes);
            let in_shared = cfg.share_p2_tree && fits;
            if in_shared {
                ctx.shared_traffic(p_star_bytes + tree_bytes); // construction writes
            } else if cfg.share_p2_tree {
                // Capacity spill: rebuilt per sampler through L1.
                ctx.read_l1(p_star_bytes + tree_bytes);
            } else {
                ctx.write_global(p_star_bytes + tree_bytes);
            }

            // ---- Per-token sampling. ----
            let theta = state.theta.read();
            let mut p1_prefix: Vec<f32> = Vec::with_capacity(64);
            for pos in item.start..item.end {
                let pos = pos as usize;
                let d = state.layout.token_doc[pos] as usize;
                ctx.read_global(4); // token → document index

                // The token's current assignment, so its own count can be
                // excluded from every distribution it is resampled from
                // (collapsed Gibbs samples from n^{¬dv}, Algorithm 2 line 4).
                let c = state.z[pos].load(Ordering::Relaxed) as usize;
                ctx.read_global(int_bytes); // current topic assignment
                let p_star_c =
                    ((phi_col[c] - 1.0).max(0.0) + beta) / ((nk_vals[c] - 1.0).max(0.0) + beta_v);
                ctx.flops(2);

                let (cols, vals) = theta.row(d);
                let kd = cols.len();
                // Reading the CSR row: K_d (compressed column index + 32-bit
                // count) pairs plus the two row-pointer entries.
                ctx.read_global(kd as u64 * (int_bytes + 4) + 8);

                // p1(k) = θ_{d,k} · p*(k): one multiply and one add per non-zero,
                // with the p* lookups served from shared memory.  The current
                // topic's own count is excluded.
                p1_prefix.clear();
                let mut s = 0.0f32;
                for i in 0..kd {
                    let kk = cols[i] as usize;
                    let w = if kk == c {
                        (vals[i] as f32 - 1.0).max(0.0) * p_star_c
                    } else {
                        vals[i] as f32 * p_star[kk]
                    };
                    s += w;
                    p1_prefix.push(s);
                }
                ctx.flops(2 * kd as u64);
                if in_shared {
                    ctx.shared_traffic(4 * kd as u64);
                } else if cfg.share_p2_tree {
                    ctx.read_l1(4 * kd as u64);
                } else {
                    ctx.read_global(4 * kd as u64);
                }

                // The dense part's mass with the current topic's self-count
                // removed: only the p2 leaf for topic `c` changes, so the shared
                // tree is reused and the draw is remapped around the removed
                // mass instead of rebuilding the tree per token.
                let p2_c_adj = alpha * p_star_c;
                let delta = p2[c] - p2_c_adj;
                let q_adj = (q - delta).max(0.0);
                let leaf_before_c = if c == 0 {
                    0.0
                } else {
                    p2_tree.leaf_prefix()[c - 1]
                };
                ctx.flops(3);

                // Draw u ~ U(0, S + Q) and pick the branch (Algorithm 2, line 6).
                // The draw is a pure function of (seed, iteration, token
                // identity): the same token gets the same randomness no matter
                // which block, device or topology samples it.
                let global_doc = (state.layout.range.start + d) as u64;
                let slot = state.token_slot[pos] as u64;
                let u = ctx.stable_f32(cfg.seed, self.iteration, (global_doc << 32) | slot)
                    * (s + q_adj);
                ctx.flops(2);
                let new_topic = if u < s && kd > 0 {
                    // Sparse branch: search the K_d-entry prefix sum (the warp
                    // holds it in registers; a binary search costs ~log2(K_d)).
                    let idx = search_prefix(&p1_prefix, u);
                    ctx.int_ops((kd.max(2) as u64).ilog2() as u64 + 1);
                    cols[idx] as usize
                } else {
                    // Dense branch: descend the shared 32-way p2 tree, remapping
                    // the draw across topic `c`'s reduced leaf.
                    let u2 = (u - s).clamp(0.0, q_adj);
                    let u2_orig = if u2 < leaf_before_c {
                        Some(u2)
                    } else if u2 < leaf_before_c + p2_c_adj {
                        None // lands inside topic c's adjusted leaf
                    } else {
                        Some((u2 + delta).clamp(0.0, q))
                    };
                    match u2_orig {
                        Some(u2) => {
                            let (idx, stats) = p2_tree.sample_with_stats(u2);
                            if in_shared {
                                ctx.shared_traffic(stats.nodes_visited as u64 * 4);
                            } else if cfg.share_p2_tree {
                                ctx.read_l1(stats.nodes_visited as u64 * 4);
                            } else {
                                ctx.read_global(stats.nodes_visited as u64 * 4);
                            }
                            ctx.int_ops(stats.levels as u64);
                            idx
                        }
                        None => {
                            // The warp still descends the tree to reach the leaf.
                            let depth = p2_tree.depth() as u64;
                            if in_shared {
                                ctx.shared_traffic(depth * 4);
                            } else if cfg.share_p2_tree {
                                ctx.read_l1(depth * 4);
                            } else {
                                ctx.read_global(depth * 4);
                            }
                            ctx.int_ops(depth);
                            c
                        }
                    }
                };

                state.z_next[pos].store(new_topic as u16, Ordering::Relaxed);
                ctx.write_global(int_bytes); // compressed topic assignment
            }
        }
    }

    fn z_next_snapshot(state: &ChunkState) -> Vec<u16> {
        state
            .z_next
            .iter()
            .map(|z| z.load(Ordering::Relaxed))
            .collect()
    }

    /// Launch the reference and the production kernel on the same state and
    /// require the same `z_next` and the same cost counters.
    fn launch_against_reference(
        dev: &Device,
        state: &ChunkState,
        items: &[WorkItem],
        cfg: &LdaConfig,
        iteration: u64,
    ) -> culda_gpusim::KernelStats {
        let launch = LaunchConfig::new(items.len());
        let reference = ReferenceSparseCgsBlock {
            state,
            items,
            config: cfg,
            iteration,
        };
        let want_stats = dev.launch("Sampling", launch, &reference);
        let want_z = z_next_snapshot(state);
        let got_stats = dev.launch(
            "Sampling",
            launch,
            &SparseCgsBlock::new(state, items, cfg, iteration),
        );
        let ctx = format!(
            "K={} share={} compress={} iteration={iteration}",
            cfg.num_topics, cfg.share_p2_tree, cfg.compress_16bit
        );
        assert_eq!(z_next_snapshot(state), want_z, "{ctx}");
        assert_eq!(got_stats.counters, want_stats.counters, "{ctx}");
        got_stats
    }

    #[test]
    fn kernel_matches_reference_bit_for_bit() {
        let spec = DeviceSpec::titan_x_maxwell();
        for k in [8usize, 64, 8192] {
            // At K = 8192, p* and the p2 tree exceed the 48 KiB block budget.
            let tree = IndexTree::with_fanout(32, &vec![1.0; k]);
            let mut ctx = BlockCtx::new(
                0,
                spec.shared_mem_per_block,
                culda_gpusim::BlockRng::new(0, 0, 0),
                spec.warp_size,
            );
            let fits = ctx.shared_alloc(4 * k as u64)
                && ctx.shared_alloc(tree.shared_bytes() + tree.leaf_bytes());
            assert_eq!(fits, k < 8192, "K={k}");

            for share in [true, false] {
                for compress in [true, false] {
                    let state = make_state(k, 17 + k as u64);
                    let mut cfg = LdaConfig::with_topics(k);
                    cfg.share_p2_tree = share;
                    cfg.compress_16bit = compress;
                    let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
                    let dev = Device::new(0, spec.clone(), 3);
                    for iteration in 0..3 {
                        let stats = launch_against_reference(&dev, &state, &items, &cfg, iteration);
                        if share {
                            assert_eq!(stats.counters.shared_bytes == 0, !fits, "K={k}");
                        }
                        // Fold the draws in and resynchronize, so the next
                        // launch reads a changed φ and n_k row.
                        dev.launch(
                            crate::kernels::names::UPDATE_PHI,
                            LaunchConfig::new(items.len()),
                            &UpdatePhiKernel {
                                state: &state,
                                items: &items,
                                compress_16bit: compress,
                            },
                        );
                        let theta = UpdateThetaKernel::new(&state, 8, compress);
                        dev.launch(
                            crate::kernels::names::UPDATE_THETA,
                            LaunchConfig::new(theta.grid_blocks()),
                            &theta,
                        );
                        theta.finish();
                        state.phi_global.copy_from(&state.phi_local);
                        state.nk_global.store_all(&state.nk_local.to_vec());
                    }

                    // Move tokens to topics their θ row does not hold, without
                    // rebuilding θ, so the self-excluded entry is absent.
                    let mut absent = 0;
                    {
                        let theta = state.theta.read();
                        for pos in (0..state.num_tokens()).step_by(5) {
                            let (cols, _) = theta.row(state.layout.token_doc[pos] as usize);
                            if let Some(t) = (0..k).find(|&t| !cols.contains(&(t as TopicId))) {
                                state.z[pos].store(t as u16, Ordering::Relaxed);
                                absent += 1;
                            }
                        }
                    }
                    assert!(absent > 0, "K={k}: no token moved off its θ row");
                    launch_against_reference(&dev, &state, &items, &cfg, 3);
                }
            }
        }
    }

    #[test]
    fn sampling_assigns_valid_topics_to_every_token() {
        let state = make_state(8, 3);
        let cfg = LdaConfig::with_topics(8);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let kernel = SparseCgsBlock::new(&state, &items, &cfg, 0);
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 11);
        let stats = dev.launch("Sampling", LaunchConfig::new(items.len()), &kernel);
        for z in &state.z_next {
            assert!((z.load(Ordering::Relaxed) as usize) < 8);
        }
        // Every token wrote one compressed assignment.
        assert_eq!(
            stats.counters.dram_write_bytes,
            state.num_tokens() as u64 * 2
        );
        assert!(stats.counters.dram_read_bytes > 0);
        assert!(stats.time.total_s > 0.0);
    }

    #[test]
    fn sampling_is_memory_bound_as_in_table_1() {
        let state = make_state(32, 5);
        let cfg = LdaConfig::with_topics(32);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        let kernel = SparseCgsBlock::new(&state, &items, &cfg, 0);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 1);
        let stats = dev.launch("Sampling", LaunchConfig::new(items.len()), &kernel);
        let intensity = stats.counters.flops_per_byte();
        // The paper's characterisation: well under 1 flop per byte.
        assert!(intensity < 1.0, "intensity {intensity}");
        assert!(intensity > 0.01);
        assert_eq!(stats.time.bound_by(), culda_gpusim::cost::Bound::Memory);
    }

    #[test]
    fn sampling_moves_assignments_towards_cooccurring_words() {
        // Build a corpus with two disjoint word groups; after several Gibbs
        // sweeps documents should concentrate on few topics (θ rows sparser
        // than uniform random assignment).
        let mut b = CorpusBuilder::new(20);
        for d in 0..40 {
            let base = if d % 2 == 0 { 0u32 } else { 10u32 };
            let doc: Vec<u32> = (0..30).map(|t| base + (t % 10) as u32).collect();
            b.push_doc(&doc);
        }
        let corpus = b.build();
        let layout = ChunkLayout::build(&corpus, DocRange { start: 0, end: 40 });
        let state = ChunkState::new(0, layout, 4);
        let cfg = LdaConfig::with_topics(4);
        let mut x = 9u32;
        state.random_init(&cfg, move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 16) as u16
        });
        state.phi_global.copy_from(&state.phi_local);
        state.nk_global.store_all(&state.nk_local.to_vec());

        let initial_nnz = state.theta.read().nnz();
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 77);
        let items = build_work_items(&state.layout, cfg.max_tokens_per_block);
        for _ in 0..15 {
            let kernel = SparseCgsBlock::new(&state, &items, &cfg, 0);
            dev.launch("Sampling", LaunchConfig::new(items.len()), &kernel);
            // Promote z_next → z and rebuild counts (what the update kernels do).
            for (z, zn) in state.z.iter().zip(&state.z_next) {
                z.store(zn.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            state.rebuild_phi_local();
            state.rebuild_theta();
            state.phi_global.copy_from(&state.phi_local);
            state.nk_global.store_all(&state.nk_local.to_vec());
        }
        let final_nnz = state.theta.read().nnz();
        assert!(
            final_nnz < initial_nnz,
            "θ should sparsify: {initial_nnz} → {final_nnz}"
        );
        state.validate_counts().unwrap();
    }

    #[test]
    fn shared_tree_reuse_reduces_offchip_traffic() {
        let state = make_state(64, 13);
        let mut shared_cfg = LdaConfig::with_topics(64);
        shared_cfg.share_p2_tree = true;
        let mut unshared_cfg = shared_cfg.clone();
        unshared_cfg.share_p2_tree = false;

        let items = build_work_items(&state.layout, shared_cfg.max_tokens_per_block);
        let dev = Device::new(0, DeviceSpec::titan_x_maxwell(), 5);
        let with = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &SparseCgsBlock::new(&state, &items, &shared_cfg, 0),
        );
        let without = dev.launch(
            "Sampling",
            LaunchConfig::new(items.len()),
            &SparseCgsBlock::new(&state, &items, &unshared_cfg, 0),
        );
        // Without sharing, the p*/tree traffic lands in off-chip memory
        // instead of shared memory: shared traffic must be higher with the
        // optimisation and DRAM traffic higher without it.
        assert!(with.counters.shared_bytes > without.counters.shared_bytes);
        assert!(without.counters.dram_read_bytes > with.counters.dram_read_bytes);
    }
}
