//! φ model synchronization (§5.2, Figure 4), dense or vocabulary-sharded.
//!
//! After every iteration the per-chunk φ contributions must be combined into
//! the global matrix every sampler reads:
//!
//! ```text
//! φ = φ0 + φ1 + … + φC−1,      n_k = Σ_c n_k[c]
//! ```
//!
//! The paper performs the combination on the GPUs as a `⌈log2 G⌉`-round tree
//! **reduce** followed by a tree **broadcast** of the full `K × V` replica
//! behind one global barrier.  This module additionally implements the
//! range-sharded variant the §5.2 schedule permits: the vocabulary is
//! partitioned into `S` contiguous column ranges ([`SyncPlan`]), each range
//! runs its own tree reduce + broadcast, and the only barrier is per shard —
//! which is what lets the scheduler overlap shard `s`'s reduce with the
//! sampling of shard `s + 1` (see [`crate::schedule`] and `DESIGN.md` §8).
//!
//! Every synchronization has two halves that never influence each other:
//!
//! * **Cost model.**  The simulated time is that of the per-shard tree
//!   schedules over the system's interconnect, always charged for the full
//!   replica (every column of every shard, plus `n_k`), which is what the
//!   paper's GPUs move and what determines multi-GPU scalability (Figure 9).
//! * **Host-side combination.**  The simulator computes the sums
//!   functionally, and only where they can have changed.  φ replicas are
//!   word-major, and each chunk flags the words its `phi_local` changed since
//!   the last sync ([`ChunkState::dirty_words`]).  One pass, parallel over
//!   the union of dirty words, writes `Σ_c phi_local[c].col(v)` into every
//!   chunk's `phi_global.col(v)` in place and clears the flags.  A clean
//!   column already holds its sum, so the result is bit-identical to
//!   recombining all `V` columns; and since integer column sums do not
//!   depend on how columns are grouped, sharding cannot change it either.
//!
//! The combination runs on real OS threads, which is safe precisely because
//! everything summed here is an integer count: addition commutes, so no
//! thread interleaving can change a column sum.  Floating-point reduces
//! must not be added to this path without routing them through the shim's
//! fixed partial-sum tree, where the tree shape — not thread arrival order —
//! defines the result.

use crate::config::LdaConfig;
use crate::model::ChunkState;
use culda_gpusim::MultiGpuSystem;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Words per claim of the host-side combination pass (64 K-runs, 128 KB of
/// φ per chunk at K = 512): enough to amortise the per-claim accumulator.
const WORDS_PER_CLAIM: usize = 64;

/// How one φ synchronization is laid out: how many vocabulary shards, and how
/// many of their reduces may overlap sampling.
///
/// ```
/// use culda_core::sync::SyncPlan;
///
/// // 10 columns over 4 shards: the remainder goes to the leading shards.
/// let plan = SyncPlan::new(4, 2);
/// let ranges = plan.shard_ranges(10);
/// assert_eq!(ranges.len(), 4);
/// assert_eq!(ranges[0], 0..3);
/// assert_eq!(ranges[3], 8..10);
/// assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncPlan {
    shards: usize,
    overlap_depth: usize,
}

impl SyncPlan {
    /// The paper's dense schedule: one shard, one global barrier.
    pub const fn dense() -> Self {
        SyncPlan {
            shards: 1,
            overlap_depth: 0,
        }
    }

    /// A plan with `shards` vocabulary ranges and up to `overlap_depth`
    /// reduces in flight during sampling (`0` = no overlap).
    pub fn new(shards: usize, overlap_depth: usize) -> Self {
        assert!(shards >= 1, "a plan needs at least one shard");
        SyncPlan {
            shards,
            overlap_depth,
        }
    }

    /// Derive the plan from a run configuration, clamping the shard count to
    /// the vocabulary size (a shard must own at least one column).  An
    /// auto-tuned configuration (`sync_shards == None`) starts dense — the
    /// trainer measures iteration 0 under this plan and swaps in the tuned
    /// shard count afterwards (see `CuLdaTrainer::run_iteration`).
    pub fn from_config(config: &LdaConfig, vocab_size: usize) -> Self {
        SyncPlan {
            shards: config.sync_shards.unwrap_or(1).clamp(1, vocab_size.max(1)),
            overlap_depth: config.sync_overlap_depth,
        }
    }

    /// Number of vocabulary shards `S`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Maximum shard reduces in flight while sampling continues.
    pub fn overlap_depth(&self) -> usize {
        self.overlap_depth
    }

    /// True for the paper's single-shard schedule.
    pub fn is_dense(&self) -> bool {
        self.shards == 1
    }

    /// Whether the schedule actually overlaps reduces with sampling (needs
    /// more than one shard and a non-zero depth).
    pub fn overlaps(&self) -> bool {
        self.shards > 1 && self.overlap_depth > 0
    }

    /// The contiguous column ranges of the shards over a `vocab_size`-wide
    /// matrix, split evenly by *column count*.  The remainder columns go to
    /// the leading shards.  A plan with more shards than columns produces
    /// one range per column (never an empty shard), matching the clamp in
    /// [`SyncPlan::from_config`].
    pub fn shard_ranges(&self, vocab_size: usize) -> Vec<Range<usize>> {
        let shards = self.shards.min(vocab_size.max(1));
        let base = vocab_size / shards;
        let rem = vocab_size % shards;
        let mut start = 0usize;
        (0..shards)
            .map(|s| {
                let width = base + usize::from(s < rem);
                let range = start..start + width;
                start += width;
                range
            })
            .collect()
    }

    /// Contiguous shard ranges balanced by *token count* instead of column
    /// count: the boundary after shard `s` is placed where the cumulative
    /// token mass crosses `(s + 1) / S` of the corpus, while every shard
    /// keeps at least one column.  This is the partition-by-token idea of §4
    /// applied to the vocabulary axis: the sampling kernel is word-major, so
    /// equal-token shards finish sampling at evenly spaced times, which is
    /// what gives the per-shard reduces compute to hide behind.  With a
    /// frequency-skewed *and frequency-sorted* vocabulary, equal-column
    /// shards would put nearly all sampling work in the first shard and
    /// leave the later reduces fully exposed.
    pub fn token_balanced_ranges(&self, word_tokens: &[u64]) -> Vec<Range<usize>> {
        let v = word_tokens.len();
        let total: u64 = word_tokens.iter().sum();
        if self.shards == 1 || total == 0 {
            return self.shard_ranges(v);
        }
        let shards = self.shards.min(v);
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        let mut cum = 0u64;
        for s in 0..shards {
            let remaining = shards - s;
            let end = if remaining == 1 {
                v
            } else {
                let target = total * (s as u64 + 1) / shards as u64;
                let mut e = start;
                // Leave at least one column for each remaining shard.
                while e < v - (remaining - 1) && (e == start || cum + word_tokens[e] <= target) {
                    cum += word_tokens[e];
                    e += 1;
                }
                e
            };
            ranges.push(start..end);
            start = end;
        }
        ranges
    }
}

/// A [`SyncPlan`] layered with the cluster-aware hierarchy decisions: whether
/// the sync runs the two-tier schedule (per-node tree reduce → inter-node
/// leader exchange → per-node broadcast) and how many contiguous *inter-node
/// groups* the vocabulary shards are batched into for the fabric exchange.
///
/// Grouping amortizes the fabric's round latencies: with `S` shards and `G`
/// groups, the slow inter-node fabric sees `G` exchanges of `S / G` shards'
/// worth of reduced columns each, instead of `S` small ones — at the price of
/// coarser overlap (a group's exchange cannot start before its last shard's
/// local reduce).  On a single-node system every plan degenerates to the flat
/// [`SyncPlan`] schedule and the hierarchy fields are ignored.
///
/// ```
/// use culda_core::sync::{HierarchicalSyncPlan, SyncPlan};
///
/// let plan = HierarchicalSyncPlan::new(SyncPlan::new(8, 2), true, 2);
/// assert_eq!(plan.shards(), 8);
/// assert_eq!(plan.inter_groups(), 2);
/// assert!(plan.hierarchical());
/// // The flat LDA*-style baseline keeps the same shard layout but sends
/// // every tree round over the fabric.
/// let flat = HierarchicalSyncPlan::flat(SyncPlan::new(8, 2));
/// assert!(!flat.hierarchical());
/// assert_eq!(flat.base(), plan.base());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchicalSyncPlan {
    base: SyncPlan,
    hierarchical: bool,
    inter_groups: usize,
}

impl HierarchicalSyncPlan {
    /// The paper's dense schedule with the hierarchical path enabled (a
    /// no-op off-cluster): one shard, one barrier, one fabric group.
    pub const fn dense() -> Self {
        HierarchicalSyncPlan {
            base: SyncPlan::dense(),
            hierarchical: true,
            inter_groups: 1,
        }
    }

    /// A plan over `base` with the hierarchical schedule switched
    /// `hierarchical` and the shards batched into `inter_groups` fabric
    /// exchanges (clamped to the shard count at use).
    pub fn new(base: SyncPlan, hierarchical: bool, inter_groups: usize) -> Self {
        assert!(inter_groups >= 1, "a plan needs at least one fabric group");
        HierarchicalSyncPlan {
            base,
            hierarchical,
            inter_groups,
        }
    }

    /// The topology-oblivious baseline over `base`: every tree round crosses
    /// whatever interconnect is slowest (what LDA* does over Ethernet).
    pub const fn flat(base: SyncPlan) -> Self {
        HierarchicalSyncPlan {
            base,
            hierarchical: false,
            inter_groups: 1,
        }
    }

    /// Derive the plan from a run configuration.  An auto-tuned group count
    /// (`sync_inter_groups == None`) starts at one group; the trainer swaps
    /// in the tuned `(shards, groups)` pair after measuring iteration 0.
    pub fn from_config(config: &LdaConfig, vocab_size: usize) -> Self {
        let base = SyncPlan::from_config(config, vocab_size);
        HierarchicalSyncPlan {
            base,
            hierarchical: config.hierarchical_sync,
            inter_groups: config
                .sync_inter_groups
                .unwrap_or(1)
                .clamp(1, base.shards()),
        }
    }

    /// The underlying shard/overlap layout.
    pub fn base(&self) -> SyncPlan {
        self.base
    }

    /// Whether the two-tier schedule is enabled (only observable on a
    /// multi-node system).
    pub fn hierarchical(&self) -> bool {
        self.hierarchical
    }

    /// Number of contiguous inter-node fabric exchanges the shards are
    /// batched into.
    pub fn inter_groups(&self) -> usize {
        self.inter_groups
    }

    /// Number of vocabulary shards `S` (of the base plan).
    pub fn shards(&self) -> usize {
        self.base.shards()
    }

    /// Maximum shard reduces in flight while sampling continues.
    pub fn overlap_depth(&self) -> usize {
        self.base.overlap_depth()
    }

    /// True for the single-shard schedule.
    pub fn is_dense(&self) -> bool {
        self.base.is_dense()
    }

    /// Whether the schedule overlaps reduces with sampling.
    pub fn overlaps(&self) -> bool {
        self.base.overlaps()
    }
}

impl From<SyncPlan> for HierarchicalSyncPlan {
    fn from(base: SyncPlan) -> Self {
        HierarchicalSyncPlan {
            base,
            hierarchical: true,
            inter_groups: 1,
        }
    }
}

/// Global per-word token counts across all chunks (`Σ_c` of every chunk's
/// word-major histogram) — the weights [`SyncPlan::token_balanced_ranges`]
/// cuts the vocabulary with.  Independent of how the corpus is chunked.
pub fn global_word_tokens(states: &[Arc<ChunkState>]) -> Vec<u64> {
    let v = states[0].layout.vocab_size;
    let mut counts = vec![0u64; v];
    for st in states {
        for (w, c) in counts.iter_mut().enumerate() {
            *c += st.layout.word_token_count(w) as u64;
        }
    }
    counts
}

/// Outcome of one φ synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncStats {
    /// Simulated time of the reduce + broadcast, summed over all shards (the
    /// interconnect work; the *exposed* time after overlap is decided by the
    /// scheduler, see `IterationStats::sync_exposed_time_s`).
    pub time_s: f64,
    /// Bytes of one φ replica (what the tree steps move in aggregate).
    pub replica_bytes: u64,
    /// Number of devices participating.
    pub num_devices: usize,
}

/// Outcome of one sharded φ synchronization: the aggregate [`SyncStats`] plus
/// the per-shard simulated times the scheduler overlaps with sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedSyncStats {
    /// Aggregate statistics (`time_s` is the sum over shards).
    pub stats: SyncStats,
    /// Simulated time of each shard's tree reduce + broadcast, in shard
    /// order.  `n_k` rides with the last shard.
    pub per_shard_time_s: Vec<f64>,
    /// The token-balanced column ranges the sync actually used (see
    /// [`SyncPlan::token_balanced_ranges`]); the scheduler aligns its
    /// per-shard compute slices with these.
    pub shard_ranges: Vec<Range<usize>>,
    /// Bytes the tree steps moved over intra-node links (all the traffic on
    /// a single-node system).
    pub intra_bytes: u64,
    /// Bytes the tree steps moved over the inter-node fabric (0 on a
    /// single-node system).
    pub inter_bytes: u64,
}

/// Cost the per-shard tree schedules of one sync under `plan`, given each
/// shard's replica bytes (`n_k` already folded into the last shard).
///
/// Returns the per-shard simulated times — with each fabric group's
/// inter-node exchange folded into the time of the group's *last* shard,
/// which is when the exchange can start — plus the per-tier byte totals.
/// Shared by the synchronization itself and the trainer's auto-tuner, so the
/// tuner predicts with exactly the cost model the scheduler will charge.
pub(crate) fn hier_shard_times(
    system: &MultiGpuSystem,
    shard_bytes: &[u64],
    plan: &HierarchicalSyncPlan,
) -> (Vec<f64>, u64, u64) {
    let mut intra = 0u64;
    let mut inter = 0u64;
    if !(plan.hierarchical() && system.num_nodes() > 1) {
        let times = shard_bytes
            .iter()
            .map(|&b| {
                let (i, x) = system.phi_sync_tier_bytes(b, false);
                intra += i;
                inter += x;
                system.phi_sync_time_s(b)
            })
            .collect();
        return (times, intra, inter);
    }
    let shards = shard_bytes.len();
    let groups = plan.inter_groups().clamp(1, shards);
    let mut times: Vec<f64> = shard_bytes
        .iter()
        .map(|&b| {
            intra += system.phi_sync_tier_bytes(b, true).0;
            system.phi_hier_local_time_s(b)
        })
        .collect();
    // Batch the shards into `groups` contiguous fabric exchanges, remainder
    // to the leading groups (the same split rule as SyncPlan::shard_ranges).
    let base = shards / groups;
    let rem = shards % groups;
    let mut start = 0usize;
    for g in 0..groups {
        let width = base + usize::from(g < rem);
        let group_bytes: u64 = shard_bytes[start..start + width].iter().sum();
        times[start + width - 1] += system.phi_inter_exchange_time_s(group_bytes);
        inter += system.phi_sync_tier_bytes(group_bytes, true).1;
        start += width;
    }
    (times, intra, inter)
}

/// Combine every chunk's `phi_local` / `nk_local` into each chunk's
/// `phi_global` / `nk_global` and return the per-shard simulated costs of
/// the tree schedules under `plan`.
///
/// [`HierarchicalSyncPlan::dense`] is the paper's single-barrier schedule of
/// §5.2.  A sharded plan costs one tree reduce + broadcast per vocabulary
/// shard over token-balanced column ranges; on a multi-node system with the
/// hierarchy enabled, each shard is costed as its per-node tree reduce +
/// broadcast and every fabric group's reduced columns cross the inter-node
/// fabric once, folded into the group's last shard.  The functional result
/// is bit-identical for every plan: each global cell is an integer sum of
/// the chunk contributions, and grouping the columns into shards does not
/// change any of the sums.  Only the costed barrier structure differs.
///
/// `compress_16bit` selects the per-element transfer size (§6.1.3 halves the
/// synchronization volume as well as the kernel traffic).
pub fn synchronize_phi_hier_sharded(
    states: &[Arc<ChunkState>],
    system: &MultiGpuSystem,
    plan: &HierarchicalSyncPlan,
    compress_16bit: bool,
) -> ShardedSyncStats {
    assert!(!states.is_empty());
    let v = states[0].phi_local.cols();
    let base = plan.base();
    let ranges = if base.is_dense() {
        base.shard_ranges(v)
    } else {
        base.token_balanced_ranges(&global_word_tokens(states))
    };
    synchronize_phi_hier_over_ranges(states, system, ranges, compress_16bit, plan)
}

/// The host-side combination: for every word in the union of the chunks'
/// [`ChunkState::dirty_words`], write `Σ_c phi_local[c].col(v)` into every
/// chunk's `phi_global.col(v)` and clear the word's flags.  One pass,
/// parallel over words; replicas are written in place.
fn combine_dirty_words(states: &[Arc<ChunkState>]) {
    let k = states[0].num_topics();
    let dirty: Vec<usize> = (0..states[0].phi_local.cols())
        .filter(|&w| {
            states
                .iter()
                .any(|st| st.dirty_words[w].load(Ordering::Relaxed))
        })
        .collect();
    dirty.par_chunks(WORDS_PER_CLAIM).for_each(|words| {
        let mut acc = vec![0u32; k];
        for &w in words {
            acc.fill(0);
            for st in states {
                for (a, x) in acc.iter_mut().zip(st.phi_local.col(w)) {
                    *a += x.load(Ordering::Relaxed);
                }
            }
            for st in states {
                for (dst, &a) in st.phi_global.col(w).iter().zip(&acc) {
                    dst.store(a, Ordering::Relaxed);
                }
                st.dirty_words[w].store(false, Ordering::Relaxed);
            }
        }
    });
}

/// The workhorse behind [`synchronize_phi_hier_sharded`]: combine every
/// chunk's φ and `n_k` into every replica, and cost an explicit, already-resolved set
/// of contiguous column ranges (which must cover `0..V` in order) under
/// `plan`.  Exposed so the scheduler can resolve the ranges once per
/// iteration and reuse them for its compute-overlap weights.  The ranges
/// shape the simulated cost only; the host-side combination is the same
/// dirty-word pass for every plan (see the module docs).
pub fn synchronize_phi_hier_over_ranges(
    states: &[Arc<ChunkState>],
    system: &MultiGpuSystem,
    ranges: Vec<Range<usize>>,
    compress_16bit: bool,
    plan: &HierarchicalSyncPlan,
) -> ShardedSyncStats {
    assert!(!states.is_empty());
    let k = states[0].num_topics();
    let v = states[0].phi_local.cols();

    // --- Functional part: recombine the words some chunk changed. ---
    combine_dirty_words(states);

    // n_k is K-sized (tiny next to φ); it rides with the last shard.
    let mut nk = vec![0i64; k];
    for st in states {
        for (acc, val) in nk.iter_mut().zip(st.nk_local.to_vec()) {
            *acc += val;
        }
    }
    states.par_iter().for_each(|st| {
        st.nk_global.store_all(&nk);
    });

    // --- Cost model: one tree schedule per shard, grouped fabric hops. ---
    let elem_bytes: u64 = if compress_16bit { 2 } else { 4 };
    let nk_bytes = (k as u64) * 8;
    let shard_bytes: Vec<u64> = ranges
        .iter()
        .enumerate()
        .map(|(s, range)| {
            let mut bytes = (k as u64) * (range.len() as u64) * elem_bytes;
            if s == ranges.len() - 1 {
                bytes += nk_bytes;
            }
            bytes
        })
        .collect();
    let (per_shard_time_s, intra_bytes, inter_bytes) = hier_shard_times(system, &shard_bytes, plan);
    let replica_bytes = (k as u64) * (v as u64) * elem_bytes + nk_bytes;
    ShardedSyncStats {
        stats: SyncStats {
            time_s: per_shard_time_s.iter().sum(),
            replica_bytes,
            num_devices: system.num_gpus(),
        },
        per_shard_time_s,
        shard_ranges: ranges,
        intra_bytes,
        inter_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LdaConfig;
    use crate::kernels::UpdatePhiKernel;
    use crate::work::build_work_items;
    use culda_corpus::{Corpus, DatasetProfile, Partitioner};
    use culda_gpusim::{Device, DeviceSpec, Interconnect, LaunchConfig};
    use culda_sparse::DenseMatrix;

    const DENSE: HierarchicalSyncPlan = HierarchicalSyncPlan::dense();

    fn make_states(corpus: &Corpus, chunks: usize, k: usize) -> Vec<Arc<ChunkState>> {
        let partitioner = Partitioner::by_tokens(corpus, chunks);
        let cfg = LdaConfig::with_topics(k);
        partitioner
            .build_layouts(corpus)
            .into_iter()
            .enumerate()
            .map(|(i, layout)| {
                let st = ChunkState::new(i, layout, k);
                let mut x = (i as u32 + 1).wrapping_mul(2654435761);
                st.random_init(&cfg, move || {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 16) as u16
                });
                Arc::new(st)
            })
            .collect()
    }

    fn corpus() -> Corpus {
        DatasetProfile {
            name: "sync".into(),
            num_docs: 80,
            vocab_size: 60,
            avg_doc_len: 15.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(5)
    }

    #[test]
    fn global_phi_is_the_sum_of_all_chunk_contributions() {
        let corpus = corpus();
        let states = make_states(&corpus, 3, 6);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 3, 1, Interconnect::Pcie3);
        let stats = synchronize_phi_hier_sharded(&states, &system, &DENSE, true).stats;
        assert!(stats.time_s > 0.0);
        assert_eq!(stats.num_devices, 3);

        // Every chunk sees the same global matrix, and it sums to the corpus
        // token count.
        let total: u64 = states[0].phi_global.to_dense().total();
        assert_eq!(total, corpus.num_tokens() as u64);
        for st in &states[1..] {
            assert_eq!(st.phi_global.to_dense(), states[0].phi_global.to_dense());
            assert_eq!(st.nk_global.to_vec(), states[0].nk_global.to_vec());
        }
        // n_k equals the φ row sums.
        let phi = states[0].phi_global.to_dense();
        for (kk, &nk) in states[0].nk_global.to_vec().iter().enumerate() {
            let row_sum: u64 = phi.row(kk).iter().map(|&x| x as u64).sum();
            assert_eq!(nk as u64, row_sum);
        }
    }

    #[test]
    fn single_device_sync_costs_nothing_but_still_combines() {
        let corpus = corpus();
        let states = make_states(&corpus, 1, 4);
        let system = MultiGpuSystem::single(DeviceSpec::v100_volta(), 3);
        let stats = synchronize_phi_hier_sharded(&states, &system, &DENSE, true).stats;
        assert_eq!(stats.time_s, 0.0);
        assert_eq!(
            states[0].phi_global.to_dense().total(),
            corpus.num_tokens() as u64
        );
    }

    #[test]
    fn compression_halves_the_synchronized_volume() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 4);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 2, 1, Interconnect::Pcie3);
        let a = synchronize_phi_hier_sharded(&states, &system, &DENSE, true).stats;
        let b = synchronize_phi_hier_sharded(&states, &system, &DENSE, false).stats;
        assert!(b.replica_bytes > a.replica_bytes);
        assert!(b.time_s > a.time_s);
    }

    #[test]
    fn sharded_sync_produces_the_identical_global_state() {
        let corpus = corpus();
        let dense_states = make_states(&corpus, 3, 6);
        let sharded_states = make_states(&corpus, 3, 6);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 3, 1, Interconnect::Pcie3);
        synchronize_phi_hier_sharded(&dense_states, &system, &DENSE, true);
        // V = 60 is not divisible by 7: the remainder shards must still
        // cover every column exactly once.
        let plan = SyncPlan::new(7, 2);
        let stats = synchronize_phi_hier_sharded(
            &sharded_states,
            &system,
            &HierarchicalSyncPlan::flat(plan),
            true,
        );
        assert_eq!(stats.per_shard_time_s.len(), 7);
        for (d, s) in dense_states.iter().zip(&sharded_states) {
            assert_eq!(d.phi_global.to_dense(), s.phi_global.to_dense());
            assert_eq!(d.nk_global.to_vec(), s.nk_global.to_vec());
        }
    }

    #[test]
    fn one_shard_plan_degenerates_to_the_dense_cost() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 4);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 2, 1, Interconnect::Pcie3);
        let dense = synchronize_phi_hier_sharded(&states, &system, &DENSE, true).stats;
        let sharded = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::flat(SyncPlan::new(1, 4)),
            true,
        );
        assert_eq!(sharded.per_shard_time_s.len(), 1);
        assert_eq!(sharded.stats, dense);
    }

    #[test]
    fn sharded_cost_exceeds_dense_only_by_per_shard_latency() {
        let corpus = corpus();
        let states = make_states(&corpus, 4, 8);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 4, 1, Interconnect::Pcie3);
        let dense = synchronize_phi_hier_sharded(&states, &system, &DENSE, true).stats;
        let sharded = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::flat(SyncPlan::new(4, 2)),
            true,
        );
        assert_eq!(sharded.stats.replica_bytes, dense.replica_bytes);
        assert!(sharded.stats.time_s >= dense.time_s);
        // The tiny test replica is latency-bound, so the worst case is one
        // full set of round latencies per shard — S× the dense time, never
        // more (the bandwidth term is identical in aggregate).
        assert!(sharded.stats.time_s <= dense.time_s * 4.0 + 1e-12);
    }

    #[test]
    fn token_balanced_ranges_cover_the_vocabulary_and_follow_the_mass() {
        let plan = SyncPlan::new(4, 2);
        // Uniform counts degenerate to the even column split.
        let uniform = vec![5u64; 16];
        assert_eq!(plan.token_balanced_ranges(&uniform), plan.shard_ranges(16));
        // Skewed counts pull the boundaries toward the head.
        let mut skewed = vec![1u64; 16];
        skewed[0] = 100;
        skewed[1] = 50;
        let ranges = plan.token_balanced_ranges(&skewed);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..1, "the head word owns a shard of its own");
        // Contiguous cover of every column, in order.
        let mut expect_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expect_start);
            assert!(!r.is_empty());
            expect_start = r.end;
        }
        assert_eq!(expect_start, 16);
        // All-zero counts fall back to the column split rather than panic.
        assert_eq!(
            plan.token_balanced_ranges(&[0u64; 16]),
            plan.shard_ranges(16)
        );
    }

    #[test]
    fn hierarchical_sync_on_a_cluster_is_cheaper_and_bit_identical() {
        let corpus = corpus();
        let flat_states = make_states(&corpus, 4, 6);
        let hier_states = make_states(&corpus, 4, 6);
        let system = MultiGpuSystem::clustered(
            DeviceSpec::titan_xp_pascal(),
            culda_gpusim::ClusterTopology::new(2, 2, Interconnect::Ethernet10G),
            7,
            Interconnect::Pcie3,
        );
        let base = SyncPlan::new(3, 1);
        let flat = synchronize_phi_hier_sharded(
            &flat_states,
            &system,
            &HierarchicalSyncPlan::flat(base),
            true,
        );
        let hier = synchronize_phi_hier_sharded(
            &hier_states,
            &system,
            &HierarchicalSyncPlan::new(base, true, 1),
            true,
        );
        // Same sums either way; only the costed schedule differs.
        for (f, h) in flat_states.iter().zip(&hier_states) {
            assert_eq!(f.phi_global.to_dense(), h.phi_global.to_dense());
            assert_eq!(f.nk_global.to_vec(), h.nk_global.to_vec());
        }
        assert!(hier.stats.time_s < flat.stats.time_s);
        // Flat sends everything over the fabric; hierarchical moves most of
        // the volume onto the intra-node links.
        assert_eq!(flat.intra_bytes, 0);
        assert!(flat.inter_bytes > 0);
        assert!(hier.intra_bytes > 0);
        assert!(hier.inter_bytes < flat.inter_bytes);
        // With N = 2 nodes the fabric carries exactly one replica's worth
        // of reduced columns: 2 · (N − 1) · bytes = 2 × the shard bytes.
        let replica = hier.stats.replica_bytes;
        assert_eq!(hier.inter_bytes, 2 * replica);
        assert_eq!(flat.inter_bytes, 2 * (4 - 1) * replica);
    }

    #[test]
    fn grouping_fabric_exchanges_amortizes_the_round_latencies() {
        let corpus = corpus();
        let states = make_states(&corpus, 4, 6);
        let system = MultiGpuSystem::clustered(
            DeviceSpec::titan_xp_pascal(),
            culda_gpusim::ClusterTopology::new(2, 2, Interconnect::Ethernet10G),
            7,
            Interconnect::Pcie3,
        );
        let base = SyncPlan::new(6, 2);
        let fine = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::new(base, true, 6),
            true,
        );
        let coarse = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::new(base, true, 1),
            true,
        );
        // Identical volume on each tier, fewer fabric latencies when
        // batched.
        assert_eq!(fine.intra_bytes, coarse.intra_bytes);
        assert_eq!(fine.inter_bytes, coarse.inter_bytes);
        assert!(coarse.stats.time_s < fine.stats.time_s);
        // One group folds its single exchange into the last shard; six
        // groups pay one exchange per shard.
        let last = coarse.per_shard_time_s.len() - 1;
        assert!(coarse.per_shard_time_s[last] > fine.per_shard_time_s[0]);
    }

    #[test]
    fn single_node_systems_ignore_the_hierarchy_flag() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 4);
        let system =
            MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), 2, 1, Interconnect::Pcie3);
        let plan = SyncPlan::new(3, 1);
        let hier = synchronize_phi_hier_sharded(
            &states,
            &system,
            &HierarchicalSyncPlan::new(plan, true, 2),
            true,
        );
        let flat =
            synchronize_phi_hier_sharded(&states, &system, &HierarchicalSyncPlan::flat(plan), true);
        assert_eq!(hier.stats, flat.stats);
        assert_eq!(hier.per_shard_time_s, flat.per_shard_time_s);
        // All traffic is intra-node.
        assert!(hier.intra_bytes > 0);
        assert_eq!(hier.inter_bytes, 0);
        assert_eq!(hier.intra_bytes, flat.intra_bytes);
    }

    /// Σ_c of every chunk's `phi_local` / `nk_local`, over all K × V cells.
    fn dense_sum(states: &[Arc<ChunkState>]) -> (DenseMatrix<u32>, Vec<i64>) {
        let mut phi = states[0].phi_local.to_dense();
        let mut nk = states[0].nk_local.to_vec();
        for st in &states[1..] {
            for (a, b) in phi
                .as_mut_slice()
                .iter_mut()
                .zip(st.phi_local.to_dense().as_slice())
            {
                *a += b;
            }
            for (a, b) in nk.iter_mut().zip(st.nk_local.to_vec()) {
                *a += b;
            }
        }
        (phi, nk)
    }

    fn assert_synced(states: &[Arc<ChunkState>]) {
        let (phi, nk) = dense_sum(states);
        for st in states {
            assert_eq!(st.phi_global.to_dense(), phi);
            assert_eq!(st.nk_global.to_vec(), nk);
        }
    }

    fn dirty_count(st: &ChunkState) -> usize {
        st.dirty_words
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    fn pcie(gpus: usize) -> MultiGpuSystem {
        MultiGpuSystem::homogeneous(DeviceSpec::titan_xp_pascal(), gpus, 1, Interconnect::Pcie3)
    }

    /// Launch the update-φ kernel on every chunk (folding `z → z_next`).
    fn update_phi(states: &[Arc<ChunkState>]) {
        let dev = Device::new(0, DeviceSpec::titan_xp_pascal(), 4);
        for st in states {
            let items = build_work_items(&st.layout, 64);
            let kernel = UpdatePhiKernel {
                state: st,
                items: &items,
                compress_16bit: true,
            };
            dev.launch("Update phi", LaunchConfig::new(items.len()), &kernel);
        }
    }

    #[test]
    fn a_sync_after_no_moves_changes_nothing_and_leaves_no_dirty_word() {
        let corpus = corpus();
        let states = make_states(&corpus, 3, 6);
        let system = pcie(3);
        assert!(states
            .iter()
            .all(|st| dirty_count(st) == corpus.vocab_size()));
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        assert_synced(&states);
        assert!(states.iter().all(|st| dirty_count(st) == 0));
        let before: Vec<_> = states.iter().map(|st| st.phi_global.to_dense()).collect();

        // z_next == z after initialisation: the kernel moves no token.
        update_phi(&states);
        assert!(states.iter().all(|st| dirty_count(st) == 0));
        let again = synchronize_phi_hier_sharded(&states, &system, &DENSE, true).stats;
        for (st, b) in states.iter().zip(&before) {
            assert_eq!(&st.phi_global.to_dense(), b);
        }
        assert_synced(&states);
        assert!(states.iter().all(|st| dirty_count(st) == 0));
        // The simulated cost still charges the full replica.
        assert_eq!(
            again,
            synchronize_phi_hier_sharded(&make_states(&corpus, 3, 6), &system, &DENSE, true).stats
        );
    }

    #[test]
    fn update_phi_marks_exactly_the_words_it_moved() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 6);
        let system = pcie(2);
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        // Move every token of word 0 in chunk 1 to another topic.
        let st = &states[1];
        let (start, end) = st.layout.word_token_range(0);
        assert!(end > start, "word 0 is the most frequent word");
        for pos in start..end {
            let z = st.z[pos].load(Ordering::Relaxed);
            st.z_next[pos].store((z + 1) % 6, Ordering::Relaxed);
        }
        update_phi(&states);
        assert_eq!(dirty_count(&states[0]), 0);
        assert_eq!(dirty_count(st), 1);
        assert!(st.dirty_words[0].load(Ordering::Relaxed));
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        assert_synced(&states);
        assert!(states.iter().all(|st| dirty_count(st) == 0));
    }

    #[test]
    fn rebuild_phi_local_forces_a_full_resync() {
        let corpus = corpus();
        let states = make_states(&corpus, 3, 6);
        let system = pcie(3);
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        // Reassign chunk 2's tokens behind the update kernel's back, then
        // recount: the recount alone must flag every word.
        let st = &states[2];
        for z in &st.z {
            z.store((z.load(Ordering::Relaxed) + 2) % 6, Ordering::Relaxed);
        }
        st.rebuild_phi_local();
        assert_eq!(dirty_count(st), corpus.vocab_size());
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        assert_synced(&states);
        assert!(states.iter().all(|st| dirty_count(st) == 0));
    }

    #[test]
    fn init_from_assignments_forces_a_full_resync() {
        let corpus = corpus();
        let states = make_states(&corpus, 2, 6);
        let system = pcie(2);
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        // Every token of chunk 0 on topic 5.
        let z: Vec<Vec<u16>> = (0..corpus.num_docs())
            .map(|d| vec![5u16; corpus.doc(d).len()])
            .collect();
        states[0].init_from_assignments(&z);
        assert_eq!(dirty_count(&states[0]), corpus.vocab_size());
        assert_eq!(dirty_count(&states[1]), 0);
        synchronize_phi_hier_sharded(&states, &system, &DENSE, true);
        assert_synced(&states);
        assert_eq!(states[0].nk_local.get(5), states[0].num_tokens() as i64);
    }

    #[test]
    fn plan_clamps_shards_to_the_vocabulary() {
        let cfg = LdaConfig::with_topics(8).sync_shards(100);
        let plan = SyncPlan::from_config(&cfg, 6);
        assert_eq!(plan.shards(), 6);
        assert!(plan.shard_ranges(6).iter().all(|r| r.len() == 1));
        // A raw plan (no from_config clamp) never yields empty shards either:
        // both range constructions cap at one column per shard.
        let wild = SyncPlan::new(8, 2);
        assert_eq!(wild.shard_ranges(3).len(), 3);
        assert_eq!(wild.token_balanced_ranges(&[5, 5, 5]).len(), 3);
        let dense = SyncPlan::from_config(&LdaConfig::with_topics(8), 6);
        assert!(dense.is_dense());
        assert!(!dense.overlaps());
        assert!(SyncPlan::new(4, 2).overlaps());
        assert!(!SyncPlan::new(4, 0).overlaps());
    }
}
