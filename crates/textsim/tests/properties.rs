//! Property-based tests over the similarity primitives.

use proptest::prelude::*;
use textsim::{
    char_shingles, cosine_similarity, jaccard_similarity, jaccard_similarity_sorted, CodeTokenizer,
    LshParams, MinHasher, ShardedLshIndex, TermVector, Tokenizer,
};

fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just("module".to_string()),
            Just("endmodule".to_string()),
            Just("assign".to_string()),
            Just("wire".to_string()),
            Just("reg".to_string()),
            Just("input".to_string()),
            Just("output".to_string()),
            Just("clk".to_string()),
            Just("rst".to_string()),
            "[a-z]{1,6}",
            "[0-9]{1,3}",
            Just(";".to_string()),
            Just("=".to_string()),
            Just("+".to_string()),
        ],
        0..60,
    )
    .prop_map(|tokens| tokens.join(" "))
}

proptest! {
    #[test]
    fn cosine_is_bounded_and_symmetric(a in text_strategy(), b in text_strategy()) {
        let tok = CodeTokenizer::default();
        let ab = cosine_similarity(&tok, &a, &b);
        let ba = cosine_similarity(&tok, &b, &a);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn cosine_self_similarity_is_one_for_nonempty(a in text_strategy()) {
        let tok = CodeTokenizer::default();
        prop_assume!(!tok.tokenize(&a).is_empty());
        let s = cosine_similarity(&tok, &a, &a);
        prop_assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn jaccard_is_bounded_and_symmetric(a in text_strategy(), b in text_strategy()) {
        let sa = char_shingles(&a, 4);
        let sb = char_shingles(&b, 4);
        let ab = jaccard_similarity(&sa, &sb);
        let ba = jaccard_similarity(&sb, &sa);
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn jaccard_sorted_matches_set_version(
        a in proptest::collection::btree_set(any::<u64>(), 0..50),
        b in proptest::collection::btree_set(any::<u64>(), 0..50),
    ) {
        let sa: textsim::ShingleSet = a.iter().copied().collect();
        let sb: textsim::ShingleSet = b.iter().copied().collect();
        let av: Vec<u64> = a.into_iter().collect();
        let bv: Vec<u64> = b.into_iter().collect();
        let set = jaccard_similarity(&sa, &sb);
        let sorted = jaccard_similarity_sorted(&av, &bv);
        prop_assert!((set - sorted).abs() < 1e-12);
    }

    #[test]
    fn minhash_estimate_is_bounded(a in text_strategy(), b in text_strategy()) {
        let hasher = MinHasher::new(64, 17);
        let sa = hasher.signature(&char_shingles(&a, 4));
        let sb = hasher.signature(&char_shingles(&b, 4));
        let est = sa.estimate_jaccard(&sb);
        prop_assert!((0.0..=1.0).contains(&est));
    }

    #[test]
    fn minhash_estimate_tracks_exact_jaccard_loosely(a in text_strategy(), b in text_strategy()) {
        let hasher = MinHasher::new(256, 29);
        let sha = char_shingles(&a, 4);
        let shb = char_shingles(&b, 4);
        let exact = jaccard_similarity(&sha, &shb);
        let est = hasher.signature(&sha).estimate_jaccard(&hasher.signature(&shb));
        // 256 permutations: standard error <= 1/sqrt(256) ~ 0.0625; allow 5 sigma.
        prop_assert!((exact - est).abs() < 0.32, "exact {} vs estimate {}", exact, est);
    }

    #[test]
    fn lsh_always_retrieves_exact_duplicates(a in text_strategy()) {
        prop_assume!(!a.trim().is_empty());
        let hasher = MinHasher::new(128, 31);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::new(params);
        let sig = hasher.signature(&char_shingles(&a, 4));
        index.insert(42, &sig);
        prop_assert!(index.candidates(&sig).contains(&42));
    }

    #[test]
    fn term_vector_norm_is_nonnegative_and_dot_bounded(a in text_strategy(), b in text_strategy()) {
        let tok = CodeTokenizer::default();
        let va = TermVector::from_text(&tok, &a);
        let vb = TermVector::from_text(&tok, &b);
        prop_assert!(va.norm() >= 0.0);
        // Cauchy-Schwarz
        prop_assert!(va.dot(&vb) <= va.norm() * vb.norm() + 1e-9);
    }
}
