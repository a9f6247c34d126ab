//! The update-φ kernel (§6.2).
//!
//! φ is dense, so the update is a stream of atomic adds.  Because the chunk
//! is sorted in word-major order, consecutive tokens touch the same φ column,
//! giving the atomics the locality the paper relies on ("atomic functions
//! that have good data locality shows good performance").
//!
//! The kernel folds the `z → z_next` differences of this iteration into the
//! chunk's `phi_local` replica and topic totals, then promotes `z_next` to be
//! the current assignment.  φ is updated *before* θ so the φ synchronization
//! can start as early as possible and overlap with the θ update (§6.2).
//!
//! A block that moves at least one token marks its word in the chunk's
//! `dirty_words`, which is how the φ synchronization knows which columns it
//! must recombine (see [`crate::sync`]).

use crate::model::ChunkState;
use crate::work::WorkItem;
use culda_gpusim::{BlockCtx, BlockKernel};
use std::sync::atomic::Ordering;

/// The φ-update kernel for one chunk.
pub struct UpdatePhiKernel<'a> {
    /// Chunk whose counts are being updated.
    pub state: &'a ChunkState,
    /// The same word-major work items the sampling kernel used.
    pub items: &'a [WorkItem],
    /// Whether φ entries are stored 16-bit compressed (§6.1.3).
    pub compress_16bit: bool,
}

impl BlockKernel for UpdatePhiKernel<'_> {
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx) {
        let item = &self.items[block_id];
        let state = self.state;
        let v = item.word as usize;
        let int_bytes: u64 = if self.compress_16bit { 2 } else { 4 };

        let mut moved = false;
        for pos in item.start..item.end {
            let pos = pos as usize;
            let old = state.z[pos].load(Ordering::Relaxed);
            let new = state.z_next[pos].load(Ordering::Relaxed);
            // Reading both assignments (old and proposed).
            ctx.read_global(2 * int_bytes);
            if old != new {
                state.phi_local.fetch_sub(old as usize, v, 1);
                state.phi_local.fetch_add(new as usize, v, 1);
                state.nk_local.add(old as usize, -1);
                state.nk_local.add(new as usize, 1);
                // Two φ atomics + two n_k atomics.
                ctx.atomics(4);
                moved = true;
            }
            // Promote the proposal to the current assignment.
            state.z[pos].store(new, Ordering::Relaxed);
            ctx.write_global(int_bytes);
        }
        if moved {
            state.dirty_words[v].store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LdaConfig;
    use crate::model::ChunkState;
    use crate::work::build_work_items;
    use culda_corpus::{partition::DocRange, ChunkLayout, DatasetProfile};
    use culda_gpusim::{Device, DeviceSpec, LaunchConfig};

    fn init_state(k: usize) -> ChunkState {
        let corpus = DatasetProfile {
            name: "t".into(),
            num_docs: 40,
            vocab_size: 80,
            avg_doc_len: 25.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(21);
        let layout = ChunkLayout::build(
            &corpus,
            DocRange {
                start: 0,
                end: corpus.num_docs(),
            },
        );
        let state = ChunkState::new(0, layout, k);
        let cfg = LdaConfig::with_topics(k);
        let mut x = 3u32;
        state.random_init(&cfg, move || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 16) as u16
        });
        state
    }

    #[test]
    fn delta_update_matches_full_rebuild() {
        let state = init_state(6);
        // Propose new assignments: rotate every token's topic by one.
        for (pos, zn) in state.z_next.iter().enumerate() {
            let old = state.z[pos].load(Ordering::Relaxed);
            zn.store((old + 1) % 6, Ordering::Relaxed);
        }
        let items = build_work_items(&state.layout, 2048);
        let dev = Device::new(0, DeviceSpec::titan_xp_pascal(), 4);
        let kernel = UpdatePhiKernel {
            state: &state,
            items: &items,
            compress_16bit: true,
        };
        dev.launch("Update phi", LaunchConfig::new(items.len()), &kernel);

        // The delta-updated phi_local must equal a from-scratch recount.
        let incremental = state.phi_local.to_dense();
        let nk_incremental = state.nk_local.to_vec();
        state.rebuild_phi_local();
        assert_eq!(incremental, state.phi_local.to_dense());
        assert_eq!(nk_incremental, state.nk_local.to_vec());
        // And z must now hold the promoted assignments.
        for (z, zn) in state.z.iter().zip(&state.z_next) {
            assert_eq!(z.load(Ordering::Relaxed), zn.load(Ordering::Relaxed));
        }
    }

    #[test]
    fn unchanged_assignments_cost_no_atomics() {
        let state = init_state(4);
        // z_next equals z after random_init.
        let items = build_work_items(&state.layout, 2048);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 4);
        let kernel = UpdatePhiKernel {
            state: &state,
            items: &items,
            compress_16bit: true,
        };
        let stats = dev.launch("Update phi", LaunchConfig::new(items.len()), &kernel);
        assert_eq!(stats.counters.atomic_ops, 0);
        assert!(stats.counters.dram_read_bytes > 0);
        state.validate_counts().unwrap();
    }

    #[test]
    fn compression_halves_assignment_traffic() {
        let state = init_state(4);
        let items = build_work_items(&state.layout, 2048);
        let dev = Device::new(0, DeviceSpec::v100_volta(), 4);
        let small = dev
            .launch(
                "Update phi",
                LaunchConfig::new(items.len()),
                &UpdatePhiKernel {
                    state: &state,
                    items: &items,
                    compress_16bit: true,
                },
            )
            .counters;
        let big = dev
            .launch(
                "Update phi",
                LaunchConfig::new(items.len()),
                &UpdatePhiKernel {
                    state: &state,
                    items: &items,
                    compress_16bit: false,
                },
            )
            .counters;
        assert_eq!(small.dram_read_bytes * 2, big.dram_read_bytes);
        assert_eq!(small.dram_write_bytes * 2, big.dram_write_bytes);
    }
}
