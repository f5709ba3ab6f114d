//! Backoff n-gram statistics and the base [`NgramModel`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::model::{Distribution, LanguageModel, TrainConfig};
use crate::tokenizer::{HdlTokenizer, TokenId};

/// Probability floor for events no backoff level has observed.
///
/// One constant shared by every scoring path — [`NgramCounts::score`]
/// bottoms out at this value and [`NgramModel::log_prob`] clamps to it
/// before taking the log, so an unseen token contributes exactly
/// `UNSEEN_SCORE_FLOOR.ln()` nats wherever it is scored. (The two paths
/// used to clamp at different floors, 1e-9 vs 1e-10, which made perplexity
/// and per-token scores disagree on unseen events.)
pub const UNSEEN_SCORE_FLOOR: f64 = 1e-9;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends an FNV-1a fingerprint by one token's little-endian bytes, so a
/// window's fingerprint can be grown one token to the right at a time.
fn extend_fingerprint(mut hash: u64, token: TokenId) -> u64 {
    for byte in token.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a fingerprint of a context window.
fn context_fingerprint(context: &[TokenId]) -> u64 {
    context
        .iter()
        .fold(FNV_OFFSET, |hash, &token| extend_fingerprint(hash, token))
}

/// Table hasher for fingerprint keys: a folded 64×64→128-bit multiply.
///
/// The keys are already FNV-1a fingerprints, but their low bits — the ones
/// the table indexes by — are weak, so the key is not used as its own hash.
/// Folding the high half of the product onto the low half spreads every key
/// bit over the whole hash at the cost of one multiply, and unlike the
/// default SipHash it is deterministic across runs.
#[derive(Debug, Clone, Copy, Default)]
struct FoldHasher(u64);

impl FoldHasher {
    const MULTIPLIER: u64 = 0x2d35_8dcc_aa6c_78a5;
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One context length's table: context fingerprint → counts.
type FingerprintTable = HashMap<u64, ContextEntry, BuildHasherDefault<FoldHasher>>;

/// Counts for one observed context.
///
/// Continuations are kept sorted by token, the smallest inline in `first`
/// and the rest in `rest`. A context seen with a single continuation
/// therefore allocates nothing, and equal counts have one representation
/// whatever order they were observed in.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ContextEntry {
    total: u64,
    first: (TokenId, u64),
    rest: Vec<(TokenId, u64)>,
}

impl ContextEntry {
    fn new(token: TokenId, count: u64) -> Self {
        Self {
            total: count,
            first: (token, count),
            rest: Vec::new(),
        }
    }

    /// Adds `count` observations of `token`.
    fn add(&mut self, token: TokenId, count: u64) {
        self.total += count;
        if token == self.first.0 {
            self.first.1 += count;
        } else if token < self.first.0 {
            let displaced = std::mem::replace(&mut self.first, (token, count));
            self.rest.insert(0, displaced);
        } else {
            match self.rest.binary_search_by_key(&token, |&(t, _)| t) {
                Ok(i) => self.rest[i].1 += count,
                Err(i) => self.rest.insert(i, (token, count)),
            }
        }
    }

    /// How often `token` followed this context.
    fn count(&self, token: TokenId) -> Option<u64> {
        if token == self.first.0 {
            return Some(self.first.1);
        }
        self.rest
            .binary_search_by_key(&token, |&(t, _)| t)
            .ok()
            .map(|i| self.rest[i].1)
    }

    /// Every `(token, count)` continuation, in token order.
    fn continuations(&self) -> impl Iterator<Item = (TokenId, u64)> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// Adds `entry`'s counts to those of the context `fingerprint`.
fn absorb(table: &mut FingerprintTable, fingerprint: u64, entry: ContextEntry) {
    match table.entry(fingerprint) {
        Entry::Occupied(slot) => {
            let counts = slot.into_mut();
            for (token, count) in entry.continuations() {
                counts.add(token, count);
            }
        }
        Entry::Vacant(slot) => {
            slot.insert(entry);
        }
    }
}

/// n-gram count tables for context lengths `0..order`.
///
/// Prediction uses *stupid backoff*: the longest context with observations
/// supplies the distribution; shorter contexts are consulted (with a fixed
/// discount) only when longer ones are silent. This is the behaviour that
/// makes duplicated training spans get reproduced verbatim — the property the
/// copyright benchmark measures.
///
/// # Layout
///
/// There is one flat hash table per context length. It maps the context's
/// 64-bit FNV-1a fingerprint to that context's total and its continuations.
/// Storing fingerprints rather than token sequences keeps the high-order
/// tables compact; those orders give the model its long-range coherence, and
/// fingerprint collisions are negligible at the corpus sizes involved.
///
/// - The tables hash keys with a deterministic folded multiply, not SipHash.
/// - A context's continuations are sorted by token. The smallest is stored
///   inline, so single-continuation contexts own no heap allocation.
/// - [`NgramCounts::observe_sequence`] visits each start position once. It
///   grows one running fingerprint to the right, so a token costs O(order)
///   hash steps rather than O(order²).
/// - [`NgramCounts::merge`] folds the smaller table of each context length
///   into the larger one, so merging into empty tables is a move.
///
/// Equal counts have one representation, so tables built from the same
/// documents in any order or sharding compare equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NgramCounts {
    order: usize,
    tables: Vec<FingerprintTable>,
    backoff: f64,
    trained_tokens: u64,
}

impl NgramCounts {
    /// Creates empty count tables of the given order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is zero.
    pub fn new(order: usize) -> Self {
        assert!(order > 0, "n-gram order must be positive");
        Self {
            order,
            tables: vec![FingerprintTable::default(); order],
            backoff: 0.4,
            trained_tokens: 0,
        }
    }

    /// The n-gram order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total number of training tokens observed.
    pub fn trained_tokens(&self) -> u64 {
        self.trained_tokens
    }

    /// Number of distinct contexts stored across all orders.
    pub fn context_count(&self) -> usize {
        self.tables.iter().map(HashMap::len).sum()
    }

    /// Accumulates counts from one token sequence.
    ///
    /// Every window `ids[pos - ctx_len..pos]` with `ctx_len < order` counts
    /// one `ids[pos]`. Windows are visited by start position: the one
    /// starting at `start` with length `ctx_len` is the previous window
    /// extended by one token, so its fingerprint costs one hash step.
    pub fn observe_sequence(&mut self, ids: &[TokenId]) {
        self.trained_tokens += ids.len() as u64;
        for start in 0..ids.len() {
            let mut fingerprint = FNV_OFFSET;
            for (table, &token) in self.tables.iter_mut().zip(&ids[start..]) {
                absorb(table, fingerprint, ContextEntry::new(token, 1));
                fingerprint = extend_fingerprint(fingerprint, token);
            }
        }
    }

    /// Merges another set of count tables into this one — the reduce step of
    /// shard-and-merge training ([`crate::parallel`]).
    ///
    /// Counts are summed per context fingerprint and continuation token, so
    /// folding per-shard counts in any grouping yields tables equal to the
    /// serial fold over the concatenated shards. Each context length's
    /// smaller table is folded into the larger, so merging into (or from)
    /// empty tables moves them without touching an entry.
    ///
    /// # Panics
    ///
    /// Panics if the two tables have different n-gram orders.
    pub fn merge(&mut self, other: NgramCounts) {
        assert_eq!(
            self.order, other.order,
            "cannot merge n-gram counts of different orders"
        );
        self.trained_tokens += other.trained_tokens;
        for (table, mut incoming) in self.tables.iter_mut().zip(other.tables) {
            if table.len() < incoming.len() {
                std::mem::swap(table, &mut incoming);
            }
            for (fingerprint, entry) in incoming {
                absorb(table, fingerprint, entry);
            }
        }
    }

    /// Predictive distribution for `context` from the longest matching
    /// context, backing off to shorter ones when nothing was observed.
    pub fn distribution(&self, context: &[TokenId]) -> Distribution {
        let max_ctx = self.order - 1;
        for ctx_len in (0..=max_ctx.min(context.len())).rev() {
            let key = context_fingerprint(&context[context.len() - ctx_len..]);
            if let Some(entry) = self.tables[ctx_len].get(&key) {
                let weights = entry
                    .continuations()
                    .map(|(t, c)| (t, c as f64))
                    .collect::<Vec<_>>();
                return Distribution::from_weights(weights);
            }
        }
        Distribution::default()
    }

    /// Stupid-backoff score of `token` following `context` (a probability-like
    /// quantity in `(0, 1]`, not normalised across backoff levels).
    pub fn score(&self, context: &[TokenId], token: TokenId) -> f64 {
        let max_ctx = self.order - 1;
        let mut discount = 1.0;
        for ctx_len in (0..=max_ctx.min(context.len())).rev() {
            let key = context_fingerprint(&context[context.len() - ctx_len..]);
            if let Some(entry) = self.tables[ctx_len].get(&key) {
                if let Some(count) = entry.count(token) {
                    return discount * (count as f64) / (entry.total as f64);
                }
            }
            discount *= self.backoff;
        }
        UNSEEN_SCORE_FLOOR
    }
}

/// A base n-gram language model: a tokenizer plus count tables.
///
/// # Example
///
/// ```
/// use hwlm::{LanguageModel, NgramModel, SamplerConfig, TrainConfig};
/// use rand::SeedableRng;
///
/// let corpus = vec!["module t(input a, output y); assign y = a; endmodule".to_string()];
/// let model = NgramModel::train(&corpus, &TrainConfig::default());
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let out = model.generate_text("module t(input a, output y);", 24, &SamplerConfig::greedy(), &mut rng);
/// assert!(out.contains("endmodule"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NgramModel {
    name: String,
    tokenizer: HdlTokenizer,
    counts: NgramCounts,
}

impl NgramModel {
    /// Trains a model on a corpus of documents.
    pub fn train<S: AsRef<str>>(corpus: &[S], config: &TrainConfig) -> Self {
        Self::train_named("ngram-base", corpus, config)
    }

    /// Trains a model with an explicit report name.
    pub fn train_named<S: AsRef<str>>(
        name: impl Into<String>,
        corpus: &[S],
        config: &TrainConfig,
    ) -> Self {
        let tokenizer = HdlTokenizer::fit(corpus, config.min_token_count);
        let mut counts = NgramCounts::new(config.order);
        for doc in corpus {
            let mut ids = tokenizer.encode_document(doc.as_ref());
            ids.truncate(config.max_seq_len.max(2));
            counts.observe_sequence(&ids);
        }
        Self {
            name: name.into(),
            tokenizer,
            counts,
        }
    }

    /// Builds a model from pre-existing parts (used by the adapter machinery).
    pub fn from_parts(
        name: impl Into<String>,
        tokenizer: HdlTokenizer,
        counts: NgramCounts,
    ) -> Self {
        Self {
            name: name.into(),
            tokenizer,
            counts,
        }
    }

    /// The underlying count tables.
    pub fn counts(&self) -> &NgramCounts {
        &self.counts
    }
}

impl LanguageModel for NgramModel {
    fn tokenizer(&self) -> &HdlTokenizer {
        &self.tokenizer
    }

    fn distribution(&self, context: &[TokenId]) -> Distribution {
        self.counts.distribution(context)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn log_prob(&self, context: &[TokenId], token: TokenId) -> f64 {
        self.counts
            .score(context, token)
            .max(UNSEEN_SCORE_FLOOR)
            .ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::SamplerConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn corpus() -> Vec<String> {
        vec![
            "module and2(input a, input b, output y);\nassign y = a & b;\nendmodule".to_string(),
            "module or2(input a, input b, output y);\nassign y = a | b;\nendmodule".to_string(),
            "module xor2(input a, input b, output y);\nassign y = a ^ b;\nendmodule".to_string(),
        ]
    }

    #[test]
    fn counts_accumulate_and_report_sizes() {
        let mut counts = NgramCounts::new(3);
        counts.observe_sequence(&[1, 2, 3, 4]);
        assert_eq!(counts.order(), 3);
        assert_eq!(counts.trained_tokens(), 4);
        assert!(counts.context_count() > 4);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_is_rejected() {
        let _ = NgramCounts::new(0);
    }

    #[test]
    fn merging_shard_counts_equals_the_serial_fold() {
        let sequences: Vec<Vec<TokenId>> = vec![
            vec![1, 2, 3, 4],
            vec![2, 3, 4, 5, 6],
            vec![1, 2, 3],
            vec![9, 9, 9, 1],
        ];
        let mut serial = NgramCounts::new(3);
        for seq in &sequences {
            serial.observe_sequence(seq);
        }
        // Two uneven shards, merged in shard order.
        let mut merged = NgramCounts::new(3);
        for shard in [&sequences[..1], &sequences[1..]] {
            let mut counts = NgramCounts::new(3);
            for seq in shard {
                counts.observe_sequence(seq);
            }
            merged.merge(counts);
        }
        assert_eq!(merged, serial);
    }

    #[test]
    fn merging_into_empty_counts_is_identity() {
        let mut trained = NgramCounts::new(2);
        // The context [7] is seen with 8 before the smaller 3.
        trained.observe_sequence(&[7, 8, 9, 7, 3, 7, 8]);
        let mut empty = NgramCounts::new(2);
        empty.merge(trained.clone());
        assert_eq!(empty, trained);
        trained.merge(NgramCounts::new(2));
        assert_eq!(empty, trained);
    }

    #[test]
    #[should_panic(expected = "different orders")]
    fn merging_mismatched_orders_panics() {
        let mut counts = NgramCounts::new(3);
        counts.merge(NgramCounts::new(2));
    }

    #[test]
    fn longest_context_dominates_prediction() {
        let mut counts = NgramCounts::new(3);
        // After [5, 6] the next token is always 7; after just [6] it is
        // usually 8.
        counts.observe_sequence(&[5, 6, 7]);
        counts.observe_sequence(&[9, 6, 8]);
        counts.observe_sequence(&[10, 6, 8]);
        let with_long_context = counts.distribution(&[5, 6]);
        assert_eq!(with_long_context.argmax(), Some(7));
        let with_short_context = counts.distribution(&[6]);
        assert_eq!(with_short_context.argmax(), Some(8));
    }

    #[test]
    fn unseen_context_backs_off_to_unigram() {
        let mut counts = NgramCounts::new(3);
        counts.observe_sequence(&[1, 2, 3]);
        let d = counts.distribution(&[42, 43]);
        assert!(!d.is_empty(), "unigram backoff should still offer tokens");
    }

    #[test]
    fn score_prefers_observed_continuations() {
        let mut counts = NgramCounts::new(3);
        counts.observe_sequence(&[1, 2, 3, 1, 2, 3]);
        assert!(counts.score(&[1, 2], 3) > counts.score(&[1, 2], 9));
        assert!(counts.score(&[1, 2], 3) > 0.9);
    }

    #[test]
    fn model_memorises_training_text_greedily() {
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let out = model.generate_text(
            "module and2(input a, input b, output y);",
            40,
            &SamplerConfig::greedy(),
            &mut rng,
        );
        assert!(out.contains("assign y = a & b"), "got: {out}");
        assert!(out.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn generation_stops_at_endmodule() {
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = model.generate_text(
            "module or2(input a, input b, output y);",
            200,
            &SamplerConfig::with_temperature(0.2),
            &mut rng,
        );
        assert_eq!(out.matches("endmodule").count(), 1);
    }

    #[test]
    fn model_name_and_counts_are_accessible() {
        let model = NgramModel::train_named("freev-test", &corpus(), &TrainConfig::default());
        assert_eq!(LanguageModel::name(&model), "freev-test");
        assert!(model.counts().trained_tokens() > 0);
    }

    #[test]
    fn log_prob_is_higher_for_training_continuations() {
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let ids = model.tokenizer().encode("assign y = a & b ;");
        let context = &ids[..3];
        let seen = ids[3];
        let unseen = model.tokenizer().vocab().id("xor2");
        assert!(model.log_prob(context, seen) > model.log_prob(context, unseen));
    }

    #[test]
    fn unseen_tokens_score_consistently_between_score_and_log_prob() {
        // Regression: `NgramCounts::score` used to floor at 1e-9 while
        // `NgramModel::log_prob` clamped at 1e-10, so the two paths
        // disagreed about how improbable an unseen token is.
        let model = NgramModel::train(&corpus(), &TrainConfig::default());
        let ids = model.tokenizer().encode("assign y = a & b ;");
        let context = &ids[..3];
        // A token id far outside anything the vocabulary assigned.
        let unseen: TokenId = 1_000_003;
        let score = model.counts().score(context, unseen);
        assert_eq!(score, UNSEEN_SCORE_FLOOR);
        assert_eq!(model.log_prob(context, unseen), score.ln());
        assert_eq!(model.log_prob(context, unseen), UNSEEN_SCORE_FLOOR.ln());
        // Seen continuations are unaffected by the floor.
        let seen = ids[3];
        assert!(model.log_prob(context, seen) > UNSEEN_SCORE_FLOOR.ln());
        assert!(
            (model.log_prob(context, seen) - model.counts().score(context, seen).ln()).abs()
                < 1e-12
        );
    }

    #[test]
    fn max_seq_len_truncates_training_documents() {
        let long_doc = vec!["a b c d e f g h i j k l m n o p".to_string()];
        let full = NgramModel::train(
            &long_doc,
            &TrainConfig {
                max_seq_len: 2048,
                ..Default::default()
            },
        );
        let truncated = NgramModel::train(
            &long_doc,
            &TrainConfig {
                max_seq_len: 4,
                ..Default::default()
            },
        );
        assert!(truncated.counts().trained_tokens() < full.counts().trained_tokens());
    }
}
