//! [`NgramCounts`] against a naive oracle, and its canonical form.
//!
//! The oracle is the plain fold: it fingerprints every `(pos, ctx_len)`
//! window on its own and counts continuations in nested maps. The tables
//! under test grow one fingerprint per start position and keep
//! continuations in a compact sorted form. The two must agree on every
//! context count, token count, score and distribution.

use std::collections::{BTreeMap, HashMap};

use hwlm::{Distribution, NgramCounts, TokenId, UNSEEN_SCORE_FLOOR};
use proptest::prelude::*;

/// The tables' stupid-backoff discount per skipped context length.
const BACKOFF: f64 = 0.4;

/// A token no test sequence contains.
const UNSEEN: TokenId = 0xDEAD_BEEF;

/// FNV-1a over the tokens' little-endian bytes: the tables' context key.
fn fingerprint(window: &[TokenId]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for token in window {
        for byte in token.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[derive(Default)]
struct Context {
    total: u64,
    next: BTreeMap<TokenId, u64>,
}

/// Reference count tables: one map per context length, every window
/// fingerprinted on its own.
struct Oracle {
    order: usize,
    tables: Vec<HashMap<u64, Context>>,
    trained_tokens: u64,
}

impl Oracle {
    fn new(order: usize) -> Self {
        Self {
            order,
            tables: (0..order).map(|_| HashMap::new()).collect(),
            trained_tokens: 0,
        }
    }

    fn observe(&mut self, ids: &[TokenId]) {
        for (pos, &token) in ids.iter().enumerate() {
            self.trained_tokens += 1;
            for ctx_len in 0..self.order.min(pos + 1) {
                let key = fingerprint(&ids[pos - ctx_len..pos]);
                let context = self.tables[ctx_len].entry(key).or_default();
                context.total += 1;
                *context.next.entry(token).or_insert(0) += 1;
            }
        }
    }

    fn context_count(&self) -> usize {
        self.tables.iter().map(HashMap::len).sum()
    }

    /// Observed contexts that are suffixes of `context`, longest first.
    fn suffixes<'a>(&'a self, context: &'a [TokenId]) -> impl Iterator<Item = Option<&'a Context>> {
        (0..self.order.min(context.len() + 1))
            .rev()
            .map(move |ctx_len| {
                self.tables[ctx_len].get(&fingerprint(&context[context.len() - ctx_len..]))
            })
    }

    fn distribution(&self, context: &[TokenId]) -> Distribution {
        self.suffixes(context)
            .flatten()
            .next()
            .map(|c| {
                Distribution::from_weights(c.next.iter().map(|(&t, &n)| (t, n as f64)).collect())
            })
            .unwrap_or_default()
    }

    fn score(&self, context: &[TokenId], token: TokenId) -> f64 {
        let mut discount = 1.0;
        for found in self.suffixes(context) {
            if let Some(c) = found {
                if let Some(&n) = c.next.get(&token) {
                    return discount * (n as f64) / (c.total as f64);
                }
            }
            discount *= BACKOFF;
        }
        UNSEEN_SCORE_FLOOR
    }
}

/// Spreads a small alphabet over all four bytes of a token id, so every
/// byte of the fingerprint input varies.
fn token(symbol: u32) -> TokenId {
    symbol.wrapping_mul(0x9E37_79B9)
}

/// Folds `sequences` into tables and into the oracle, then compares them at
/// every window of every sequence — including windows longer than the
/// order — for every token of the alphabet plus an unseen one.
fn check_against_oracle(order: usize, sequences: &[Vec<TokenId>]) {
    let mut counts = NgramCounts::new(order);
    let mut oracle = Oracle::new(order);
    for seq in sequences {
        counts.observe_sequence(seq);
        oracle.observe(seq);
    }
    assert_eq!(
        counts.trained_tokens(),
        oracle.trained_tokens,
        "order {order}"
    );
    assert_eq!(
        counts.context_count(),
        oracle.context_count(),
        "order {order}"
    );
    let mut candidates: Vec<TokenId> = sequences.iter().flatten().copied().collect();
    candidates.sort_unstable();
    candidates.dedup();
    candidates.push(UNSEEN);
    for seq in sequences {
        for pos in 0..=seq.len() {
            for ctx_len in 0..=pos.min(order + 1) {
                let context = &seq[pos - ctx_len..pos];
                assert_eq!(
                    counts.distribution(context),
                    oracle.distribution(context),
                    "order {order}, context {context:?}"
                );
                for &t in &candidates {
                    // Bit-for-bit: both sides compute the same expression.
                    assert_eq!(
                        counts.score(context, t).to_bits(),
                        oracle.score(context, t).to_bits(),
                        "order {order}, context {context:?}, token {t}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_order_matches_the_oracle_on_empty_and_short_sequences() {
    let repetitive: Vec<TokenId> = [3, 1, 4, 1, 5, 1, 4, 1, 3, 1, 4, 2, 0, 1, 4, 1, 5]
        .into_iter()
        .cycle()
        .take(60)
        .map(token)
        .collect();
    for order in 1..=24 {
        check_against_oracle(order, &[]);
        check_against_oracle(order, &[Vec::new()]);
        let shorter: Vec<TokenId> = (0..order as u32 - 1).map(|s| token(s % 3)).collect();
        check_against_oracle(order, &[shorter.clone(), Vec::new(), vec![token(7)]]);
        check_against_oracle(
            order,
            &[repetitive.clone(), shorter, repetitive[5..9].to_vec()],
        );
    }
}

#[test]
fn document_order_does_not_change_the_tables() {
    // The context [5] is first followed by 9, then by smaller tokens, and
    // [9] by 5 before 2.
    let mut docs: Vec<Vec<TokenId>> = vec![
        vec![5, 9, 5, 2, 5, 7, 9, 2],
        vec![9, 5, 5, 1, 3, 5, 0],
        vec![1, 2, 3, 1, 2, 4, 1, 2, 3],
        Vec::new(),
    ];
    let fold = |docs: &[Vec<TokenId>]| {
        let mut counts = NgramCounts::new(4);
        for doc in docs {
            counts.observe_sequence(doc);
        }
        counts
    };
    let forward = fold(&docs);
    for rotation in 1..docs.len() {
        let mut rotated = docs.clone();
        rotated.rotate_left(rotation);
        let other = fold(&rotated);
        assert_eq!(other, forward, "rotation {rotation}");
        assert_eq!(other.clone(), forward.clone(), "rotation {rotation}");
    }
    docs.reverse();
    assert_eq!(fold(&docs), forward);
    assert_eq!(fold(&docs).clone(), forward);
    // The same documents split across shards, merged either way round.
    let (left, right) = docs.split_at(2);
    let (mut a, mut b) = (fold(left), fold(right));
    a.merge(fold(right));
    b.merge(fold(left));
    assert_eq!(a, forward);
    assert_eq!(b, forward);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random documents over a small alphabet, so contexts repeat and carry
    /// several continuations in every first-seen order.
    #[test]
    fn tables_match_the_naive_oracle(
        order in 1usize..=24,
        docs in proptest::collection::vec(proptest::collection::vec(0u32..5, 0..40), 0..5),
    ) {
        let docs: Vec<Vec<TokenId>> = docs
            .into_iter()
            .map(|doc| doc.into_iter().map(token).collect())
            .collect();
        check_against_oracle(order, &docs);
    }

    /// Any grouping and order of the same documents yields equal tables.
    #[test]
    fn reordered_and_regrouped_documents_give_equal_tables(
        order in 1usize..8,
        docs in proptest::collection::vec(proptest::collection::vec(0u32..4, 0..30), 1..8),
        split in 0usize..8,
    ) {
        let mut serial = NgramCounts::new(order);
        for doc in &docs {
            serial.observe_sequence(doc);
        }
        let split = split.min(docs.len());
        let mut tail_first = NgramCounts::new(order);
        for doc in docs[split..].iter().rev() {
            tail_first.observe_sequence(doc);
        }
        let mut head = NgramCounts::new(order);
        for doc in &docs[..split] {
            head.observe_sequence(doc);
        }
        tail_first.merge(head);
        prop_assert_eq!(&tail_first, &serial);
        prop_assert_eq!(&tail_first.clone(), &serial);
    }
}
