//! An AliasLDA-style Metropolis–Hastings sampler (Li, Ahmed, Ravi, Smola,
//! KDD'14 — reference \[19\] of the paper, "Reducing the sampling complexity of
//! topic models").
//!
//! AliasLDA splits the collapsed conditional exactly as CuLDA_CGS does
//! (Eq. 6 of the paper):
//!
//! * a **sparse document term** `p_d(k) ∝ θ_{d,k} · (φ_{k,v} + β)/(n_k + Vβ)`
//!   whose support is the `K_d ≪ K` topics present in the document — this is
//!   evaluated *exactly* and fresh for every token;
//! * a **dense word term** `p_w(k) ∝ α · (φ_{k,v} + β)/(n_k + Vβ)` which is
//!   drawn in O(1) from a per-word **stale alias table** rebuilt once per
//!   iteration, with the staleness corrected by a Metropolis–Hastings
//!   acceptance step against the exact conditional.
//!
//! The difference from [`crate::lightlda::LightLda`] is the proposal: LightLDA
//! cycles between a doc proposal and a word proposal, whereas AliasLDA uses a
//! single *mixture* proposal (exact sparse part + stale dense part) per MH
//! step, which is the historical ancestor of the paper's own S/Q split.
//!
//! Like the other CPU baselines, the sampler runs functionally on the host
//! and its simulated time is charged to a CPU roofline spec at cache-line
//! granularity.

use crate::solver::LdaSolver;
use culda_corpus::Corpus;
use culda_gpusim::cost::{kernel_time, CostCounters};
use culda_gpusim::DeviceSpec;
use culda_metrics::special::ln_gamma;
use culda_sparse::StaleAliasProposal;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Bytes charged per random access to a large model structure.
const CACHE_LINE: u64 = 64;

/// An AliasLDA-style sparse + stale-alias Metropolis–Hastings sampler.
pub struct AliasLda {
    num_topics: usize,
    alpha: f64,
    beta: f64,
    mh_steps: usize,
    docs: Vec<Vec<u32>>,
    z: Vec<Vec<u16>>,
    doc_topic: Vec<Vec<u32>>,
    topic_word: Vec<Vec<u32>>,
    topic_total: Vec<u64>,
    vocab_size: usize,
    num_tokens: u64,
    elapsed_s: f64,
    rng: ChaCha8Rng,
    spec: DeviceSpec,
    label: String,
}

impl AliasLda {
    /// Initialise with random assignments, timed against `spec`.
    pub fn new(
        corpus: &Corpus,
        num_topics: usize,
        alpha: f64,
        beta: f64,
        mh_steps: usize,
        seed: u64,
        spec: DeviceSpec,
    ) -> Self {
        assert!(mh_steps >= 1, "at least one MH step per token is required");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let vocab_size = corpus.vocab_size();
        let mut docs = Vec::with_capacity(corpus.num_docs());
        let mut z = Vec::with_capacity(corpus.num_docs());
        let mut doc_topic = vec![vec![0u32; num_topics]; corpus.num_docs()];
        let mut topic_word = vec![vec![0u32; vocab_size]; num_topics];
        let mut topic_total = vec![0u64; num_topics];
        for d in 0..corpus.num_docs() {
            let words: Vec<u32> = corpus.doc(d).to_vec();
            let mut zd = Vec::with_capacity(words.len());
            for &w in &words {
                let k = rng.gen_range(0..num_topics);
                zd.push(k as u16);
                doc_topic[d][k] += 1;
                topic_word[k][w as usize] += 1;
                topic_total[k] += 1;
            }
            docs.push(words);
            z.push(zd);
        }
        let label = format!("AliasLDA ({})", spec.name);
        AliasLda {
            num_topics,
            alpha,
            beta,
            mh_steps,
            docs,
            z,
            doc_topic,
            topic_word,
            topic_total,
            vocab_size,
            num_tokens: corpus.num_tokens() as u64,
            elapsed_s: 0.0,
            rng,
            spec,
            label,
        }
    }

    /// The paper's priors (`α = 50/K`, `β = 0.01`), two MH steps per token,
    /// timed on the Volta platform's Xeon.
    pub fn with_paper_priors(corpus: &Corpus, num_topics: usize, seed: u64) -> Self {
        Self::new(
            corpus,
            num_topics,
            50.0 / num_topics as f64,
            0.01,
            2,
            seed,
            DeviceSpec::xeon_e5_2690v4(),
        )
    }

    /// φ as dense per-topic word counts.
    pub fn topic_word(&self) -> &[Vec<u32>] {
        &self.topic_word
    }

    /// Consistency check (tests).
    pub fn validate(&self) -> Result<(), String> {
        let total: u64 = self.topic_total.iter().sum();
        if total != self.num_tokens {
            return Err(format!("n_k sums to {total}, expected {}", self.num_tokens));
        }
        let theta: u64 = self
            .doc_topic
            .iter()
            .flat_map(|r| r.iter().map(|&c| c as u64))
            .sum();
        if theta != self.num_tokens {
            return Err(format!("θ sums to {theta}, expected {}", self.num_tokens));
        }
        for (k, row) in self.topic_word.iter().enumerate() {
            let s: u64 = row.iter().map(|&c| c as u64).sum();
            if s != self.topic_total[k] {
                return Err(format!(
                    "φ row {k} sums to {s}, n_k is {}",
                    self.topic_total[k]
                ));
            }
        }
        Ok(())
    }

    /// The exact (unnormalised) collapsed conditional of topic `k` for word
    /// `w` in document `d` with the current token removed.
    #[inline]
    fn posterior_mass(&self, d: usize, w: usize, k: usize) -> f64 {
        let v_beta = self.beta * self.vocab_size as f64;
        (self.doc_topic[d][k] as f64 + self.alpha) * (self.topic_word[k][w] as f64 + self.beta)
            / (self.topic_total[k] as f64 + v_beta)
    }

    /// The fresh per-topic weight of the dense/word part of the proposal
    /// (without the `α` factor); the stale counterpart lives in
    /// [`StaleWordProposal::weights`].
    #[inline]
    fn word_weight(&self, w: usize, k: usize) -> f64 {
        let v_beta = self.beta * self.vocab_size as f64;
        (self.topic_word[k][w] as f64 + self.beta) / (self.topic_total[k] as f64 + v_beta)
    }

    /// Stale per-word alias tables over `(φ_{k,v} + β)/(n_k + Vβ)`, rebuilt
    /// once per iteration exactly as the original system amortises them.
    /// Construction is the shared [`StaleAliasProposal`] of `culda-sparse`,
    /// the same bundle the `MhSampler` kernel's alias preset builds on the
    /// GPU.
    fn build_word_proposals(&self) -> Vec<StaleAliasProposal> {
        let v_beta = self.beta * self.vocab_size as f64;
        (0..self.vocab_size)
            .map(|w| {
                let weights: Vec<f64> = (0..self.num_topics)
                    .map(|k| {
                        (self.topic_word[k][w] as f64 + self.beta)
                            / (self.topic_total[k] as f64 + v_beta)
                    })
                    .collect();
                StaleAliasProposal::from_weights(weights)
            })
            .collect()
    }

    /// The unnormalised proposal density `q(k)` of the mixture proposal for a
    /// token of word `w` in document `d`: the exact sparse doc part plus the
    /// `α`-weighted stale word part.
    #[inline]
    fn proposal_mass(&self, d: usize, w: usize, k: usize, stale: &StaleAliasProposal) -> f64 {
        self.doc_topic[d][k] as f64 * self.word_weight(w, k) + self.alpha * stale.weight(k)
    }
}

impl LdaSolver for AliasLda {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn run_iteration(&mut self) -> f64 {
        let mut counters = CostCounters::zero();

        // Stale alias tables: one build per word per iteration, as in the
        // original AliasLDA amortisation argument.
        let proposals = self.build_word_proposals();
        counters.dram_read_bytes += (self.num_topics * self.vocab_size) as u64 * 4;
        counters.dram_write_bytes += (self.num_topics * self.vocab_size) as u64 * 12;
        counters.flops += (self.num_topics * self.vocab_size) as u64 * 3;

        // Scratch reused across documents: distinct topics of the current
        // document and their sparse-bucket cumulative weights.
        let mut doc_topics: Vec<u16> = Vec::new();
        let mut doc_cumulative: Vec<f64> = Vec::new();

        for d in 0..self.docs.len() {
            let len = self.docs[d].len();
            if len == 0 {
                continue;
            }
            for t in 0..len {
                let w = self.docs[d][t] as usize;
                let mut k = self.z[d][t] as usize;
                let stale = &proposals[w];

                // Remove the token so all masses use the collapsed "−di"
                // statistics; it is re-inserted under the final topic.
                self.doc_topic[d][k] -= 1;
                self.topic_word[k][w] -= 1;
                self.topic_total[k] -= 1;
                counters.dram_write_bytes += 12;

                // Exact sparse doc bucket: support is the topics with a
                // non-zero θ_{d,·} entry, found by scanning the document's
                // assignments (K_d ≤ L_d distinct topics).
                doc_topics.clear();
                doc_cumulative.clear();
                let mut sparse_mass = 0.0f64;
                for &zt in &self.z[d] {
                    let kt = zt as usize;
                    if kt == k && self.doc_topic[d][kt] == 0 {
                        continue; // the removed token's topic may have emptied
                    }
                    if doc_topics.contains(&zt) {
                        continue;
                    }
                    doc_topics.push(zt);
                    sparse_mass += self.doc_topic[d][kt] as f64 * self.word_weight(w, kt);
                    doc_cumulative.push(sparse_mass);
                }
                counters.dram_read_bytes += doc_topics.len() as u64 * CACHE_LINE / 4;
                counters.flops += doc_topics.len() as u64 * 4;

                let dense_mass = self.alpha * stale.mass();
                let total_mass = sparse_mass + dense_mass;

                for _ in 0..self.mh_steps {
                    // Draw from the mixture proposal.
                    let pick: f64 = self.rng.gen::<f64>() * total_mass;
                    counters.rng_draws += 1;
                    let k_prop = if pick < sparse_mass && !doc_topics.is_empty() {
                        // Exact sparse part: inverse-CDF over the cumulative
                        // weights of the document's topics.
                        let idx = doc_cumulative
                            .partition_point(|&c| c < pick)
                            .min(doc_topics.len() - 1);
                        doc_topics[idx] as usize
                    } else {
                        // Stale dense part: O(1) alias draw.
                        stale.table().sample(&mut self.rng)
                    };
                    counters.dram_read_bytes += CACHE_LINE;
                    counters.rng_draws += 1;

                    if k_prop == k {
                        continue;
                    }

                    // Metropolis–Hastings correction for the staleness of the
                    // alias part: accept with p(k')q(k) / (p(k)q(k')).
                    let accept = self.posterior_mass(d, w, k_prop)
                        * self.proposal_mass(d, w, k, stale)
                        / (self.posterior_mass(d, w, k) * self.proposal_mass(d, w, k_prop, stale));
                    counters.dram_read_bytes += 2 * CACHE_LINE;
                    counters.flops += 16;
                    counters.rng_draws += 1;
                    if self.rng.gen::<f64>() < accept {
                        k = k_prop;
                        counters.atomic_ops += 2;
                    }
                }

                // Re-insert the token under its (possibly new) topic.
                self.doc_topic[d][k] += 1;
                self.topic_word[k][w] += 1;
                self.topic_total[k] += 1;
                self.z[d][t] = k as u16;
                counters.dram_write_bytes += 14;
            }
        }

        let time = kernel_time(&self.spec, &counters, 100_000).total_s;
        self.elapsed_s += time;
        time
    }

    fn num_tokens(&self) -> u64 {
        self.num_tokens
    }

    fn loglik_per_token(&self) -> f64 {
        if self.num_tokens == 0 {
            return 0.0;
        }
        let k = self.num_topics as f64;
        let v = self.vocab_size as f64;
        let mut ll = 0.0;
        for row in &self.doc_topic {
            let len: u64 = row.iter().map(|&c| c as u64).sum();
            if len == 0 {
                continue;
            }
            ll += ln_gamma(k * self.alpha) - k * ln_gamma(self.alpha);
            for &c in row {
                ll += ln_gamma(c as f64 + self.alpha);
            }
            ll -= ln_gamma(len as f64 + k * self.alpha);
        }
        for (kk, row) in self.topic_word.iter().enumerate() {
            ll += ln_gamma(v * self.beta) - v * ln_gamma(self.beta);
            for &c in row {
                ll += ln_gamma(c as f64 + self.beta);
            }
            ll -= ln_gamma(self.topic_total[kk] as f64 + v * self.beta);
        }
        ll / self.num_tokens as f64
    }

    fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }
}

impl crate::solver::SolverState for AliasLda {
    fn doc_topic_counts(&self) -> Vec<Vec<u32>> {
        self.doc_topic.clone()
    }

    fn topic_word_counts(&self) -> Vec<Vec<u32>> {
        self.topic_word.clone()
    }

    fn topic_totals_vec(&self) -> Vec<u64> {
        self.topic_total.clone()
    }

    fn z_assignments(&self) -> Vec<Vec<u16>> {
        self.z.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culda_corpus::DatasetProfile;

    fn corpus() -> Corpus {
        DatasetProfile {
            name: "alias".into(),
            num_docs: 100,
            vocab_size: 80,
            avg_doc_len: 18.0,
            zipf_exponent: 1.0,
            doc_len_sigma: 0.4,
        }
        .generate(23)
    }

    #[test]
    fn counts_remain_consistent_across_iterations() {
        let corpus = corpus();
        let mut a = AliasLda::with_paper_priors(&corpus, 8, 4);
        a.validate().unwrap();
        for _ in 0..4 {
            a.run_iteration();
            a.validate().unwrap();
        }
    }

    #[test]
    fn likelihood_improves_and_time_accumulates() {
        let corpus = corpus();
        let mut a = AliasLda::with_paper_priors(&corpus, 16, 5);
        let before = a.loglik_per_token();
        let mut total = 0.0;
        for _ in 0..12 {
            total += a.run_iteration();
        }
        let after = a.loglik_per_token();
        assert!(after > before, "{before} → {after}");
        assert!((a.elapsed_s() - total).abs() < 1e-12);
        assert!(total > 0.0);
    }

    #[test]
    fn proposal_mass_matches_posterior_when_fresh() {
        // Immediately after building the stale tables (before any topic
        // changes), q(k) = θ_{d,k}·w(k) + α·w(k) equals the exact conditional
        // up to the shared normaliser, so the acceptance ratio is exactly 1.
        let corpus = corpus();
        let a = AliasLda::with_paper_priors(&corpus, 8, 6);
        let proposals = a.build_word_proposals();
        let d = 0;
        let w = a.docs[d][0] as usize;
        for k in 0..8 {
            let q = a.proposal_mass(d, w, k, &proposals[w]);
            let p = a.posterior_mass(d, w, k);
            assert!((q - p).abs() < 1e-12 * p.max(1.0), "topic {k}: {q} vs {p}");
        }
    }

    #[test]
    fn more_mh_steps_cost_more_simulated_time() {
        let corpus = corpus();
        let mut fast = AliasLda::new(
            &corpus,
            8,
            50.0 / 8.0,
            0.01,
            1,
            9,
            DeviceSpec::xeon_e5_2690v4(),
        );
        let mut slow = AliasLda::new(
            &corpus,
            8,
            50.0 / 8.0,
            0.01,
            4,
            9,
            DeviceSpec::xeon_e5_2690v4(),
        );
        let t_fast = fast.run_iteration();
        let t_slow = slow.run_iteration();
        assert!(t_slow > t_fast, "{t_slow} vs {t_fast}");
    }

    #[test]
    fn empty_documents_are_handled() {
        let mut b = culda_corpus::CorpusBuilder::new(5);
        b.push_doc(&[]);
        b.push_doc(&[0, 1, 2]);
        let corpus = b.build();
        let mut a = AliasLda::with_paper_priors(&corpus, 4, 1);
        a.run_iteration();
        a.validate().unwrap();
    }

    #[test]
    fn single_topic_degenerates_gracefully() {
        let corpus = corpus();
        let mut a = AliasLda::with_paper_priors(&corpus, 1, 2);
        a.run_iteration();
        a.validate().unwrap();
        // With K = 1 every token must stay in topic 0.
        assert!(a.z.iter().flatten().all(|&z| z == 0));
    }

    #[test]
    #[should_panic(expected = "at least one MH step")]
    fn zero_mh_steps_is_rejected() {
        let corpus = corpus();
        let _ = AliasLda::new(&corpus, 8, 0.1, 0.01, 0, 1, DeviceSpec::xeon_e5_2690v4());
    }
}
