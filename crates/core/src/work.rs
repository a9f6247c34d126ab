//! Thread-block work assignment for the sampling kernel (§6.1.2, Figure 6).
//!
//! Tokens are grouped by word so that all samplers (warps) of a thread block
//! share the same word's p2 index tree and p*(k) array in shared memory.
//! Words with many tokens are split across several blocks to avoid load
//! imbalance, and those split blocks are placed at the *lowest* block IDs so
//! the hardware scheduler issues them first and no long-tail block finishes
//! last.

use culda_corpus::ChunkLayout;
use serde::{Deserialize, Serialize};

/// The token range of one word assigned to one thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// The word whose tokens this block samples.
    pub word: u32,
    /// First word-major token position (inclusive).
    pub start: u32,
    /// Last word-major token position (exclusive).
    pub end: u32,
}

impl WorkItem {
    /// Number of tokens in the item.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// True when the item covers no tokens.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Build the per-block work list for a chunk.
///
/// Every word present in the chunk contributes `ceil(tokens / max_per_block)`
/// items.  Items are ordered by descending token count of their word, so
/// multi-block (heavy) words occupy the lowest block IDs (§6.1.2).
pub fn build_work_items(layout: &ChunkLayout, max_per_block: usize) -> Vec<WorkItem> {
    assert!(max_per_block > 0);
    let mut items = Vec::new();
    for v in 0..layout.vocab_size {
        let (start, end) = layout.word_token_range(v);
        if start == end {
            continue;
        }
        let mut lo = start;
        while lo < end {
            let hi = (lo + max_per_block).min(end);
            items.push(WorkItem {
                word: v as u32,
                start: lo as u32,
                end: hi as u32,
            });
            lo = hi;
        }
    }
    // Heavy words first (stable by word id for determinism).
    items.sort_by(|a, b| {
        let wa = layout.word_token_count(a.word as usize);
        let wb = layout.word_token_count(b.word as usize);
        wb.cmp(&wa)
            .then(a.word.cmp(&b.word))
            .then(a.start.cmp(&b.start))
    });
    items
}

/// The words with at least one token in a chunk, ascending by word id — the
/// grid of any per-word auxiliary kernel (e.g. the proposal-build kernel of
/// [`crate::kernels::MhSampler`], one block per word).
pub fn chunk_words(layout: &ChunkLayout) -> Vec<u32> {
    (0..layout.vocab_size)
        .filter(|&v| {
            let (start, end) = layout.word_token_range(v);
            start < end
        })
        .map(|v| v as u32)
        .collect()
}

/// Summary statistics of a work list (used by scheduling diagnostics and the
/// load-balance ablation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkStats {
    /// Number of thread blocks.
    pub num_blocks: usize,
    /// Total tokens covered.
    pub total_tokens: usize,
    /// Largest block (tokens).
    pub max_block_tokens: usize,
    /// Mean tokens per block.
    pub mean_block_tokens: f64,
}

/// Compute summary statistics of a work list.
pub fn work_stats(items: &[WorkItem]) -> WorkStats {
    let total: usize = items.iter().map(WorkItem::len).sum();
    let max = items.iter().map(WorkItem::len).max().unwrap_or(0);
    WorkStats {
        num_blocks: items.len(),
        total_tokens: total,
        max_block_tokens: max,
        mean_block_tokens: if items.is_empty() {
            0.0
        } else {
            total as f64 / items.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::{partition::DocRange, CorpusBuilder, DatasetProfile};

    fn layout_with_heavy_word() -> ChunkLayout {
        let mut b = CorpusBuilder::new(4);
        // word 0 appears 10 times, word 1 twice, word 3 once.
        b.push_doc(&[0, 0, 0, 0, 1, 3]);
        b.push_doc(&[0, 0, 0, 0, 0, 0, 1]);
        let corpus = b.build();
        ChunkLayout::build(&corpus, DocRange { start: 0, end: 2 })
    }

    #[test]
    fn every_token_is_covered_exactly_once() {
        let layout = layout_with_heavy_word();
        let items = build_work_items(&layout, 4);
        let mut covered = vec![false; layout.num_tokens()];
        for it in &items {
            for pos in it.start..it.end {
                assert!(!covered[pos as usize], "position {pos} covered twice");
                covered[pos as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn heavy_words_are_split_and_scheduled_first() {
        let layout = layout_with_heavy_word();
        let items = build_work_items(&layout, 4);
        // Word 0 has 10 tokens → 3 blocks with max 4 tokens each; they must be
        // the first items.
        assert_eq!(items[0].word, 0);
        assert_eq!(items[1].word, 0);
        assert_eq!(items[2].word, 0);
        assert!(items[0].len() <= 4 && !items[0].is_empty());
        let word0_blocks = items.iter().filter(|i| i.word == 0).count();
        assert_eq!(word0_blocks, 3);
        // The single-token word comes last or near-last.
        assert!(items.last().unwrap().len() <= items.first().unwrap().len());
    }

    #[test]
    fn blocks_respect_max_tokens() {
        let corpus = DatasetProfile::nytimes().scaled(0.0005).generate(3);
        let layout = ChunkLayout::build(
            &corpus,
            DocRange {
                start: 0,
                end: corpus.num_docs(),
            },
        );
        for &cap in &[64usize, 512, 4096] {
            let items = build_work_items(&layout, cap);
            assert!(items.iter().all(|i| i.len() <= cap && !i.is_empty()));
            let stats = work_stats(&items);
            assert_eq!(stats.total_tokens, layout.num_tokens());
            assert_eq!(
                stats.max_block_tokens,
                items.iter().map(WorkItem::len).max().unwrap()
            );
        }
    }

    #[test]
    fn chunk_words_lists_exactly_the_words_with_tokens() {
        let layout = layout_with_heavy_word();
        assert_eq!(chunk_words(&layout), vec![0, 1, 3]);
    }

    #[test]
    fn empty_layout_produces_no_items() {
        let mut b = CorpusBuilder::new(4);
        b.push_doc(&[0]);
        let corpus = b.build();
        let layout = ChunkLayout::build(&corpus, DocRange { start: 0, end: 0 });
        let items = build_work_items(&layout, 128);
        assert!(items.is_empty());
        let stats = work_stats(&items);
        assert_eq!(stats.num_blocks, 0);
        assert_eq!(stats.mean_block_tokens, 0.0);
    }
}
