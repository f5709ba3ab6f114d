//! The LSH index behind near-duplicate removal, sharded for bounded memory.
//!
//! A [`ShardedLshIndex`] files each document id under one bucket key per band
//! of its MinHash signature and routes every `(band, bucket key)` pair to one
//! of `n` shards by the key's value. A bucket lives in exactly one shard, so
//! no cross-shard reconciliation is ever needed and the candidate set of a
//! query does not depend on the shard count. Shards are the unit a
//! bounded-memory engine accounts, spills to disk and reloads independently.
//!
//! # Band-at-a-time access
//!
//! [`ShardedLshIndex::band_slot`] hashes one band of a signature and names
//! the shard holding its bucket. A caller computes a document's slots once,
//! then queries with [`ShardedLshIndex::collect_band`] and inserts with
//! [`ShardedLshIndex::insert_band`] from the same slots, making each slot's
//! shard resident just before touching it. [`ShardedLshIndex::candidates`]
//! and [`ShardedLshIndex::insert`] are the all-bands conveniences over the
//! same primitives.
//!
//! # Spill mechanics
//!
//! Each shard can be detached into a deterministic byte serialization
//! ([`ShardedLshIndex::evict_shard`]) and re-attached later
//! ([`ShardedLshIndex::restore_shard`]); a non-resident shard occupies no
//! memory beyond its `Option` slot. The index itself enforces no residency
//! policy — that belongs to the engine driving it (see
//! `curation::StreamingDeduplicator`). Because every access goes through one
//! band's shard, at most one shard needs to be loaded at a time, and a
//! resident-shard budget of 1 already gives the output of an unbounded one.

use std::collections::HashMap;

use crate::lsh::LshParams;
use crate::minhash::Signature;

/// One shard's bucket map: inserted ids keyed by `(band, band key)`.
type ShardBuckets = HashMap<(u32, u64), Vec<u64>>;

/// Default shard count: enough shards that per-shard residency is a useful
/// accounting unit at realistic corpus sizes, few enough that empty-shard
/// overhead stays negligible for small inputs.
pub const DEFAULT_LSH_SHARDS: usize = 16;

/// Reusable buffer for candidate retrieval.
///
/// A query collects, sorts and de-duplicates the ids colliding with a
/// signature. The de-duplication hot loop issues one query per file, so it
/// keeps one `CandidateScratch` alive: [`Self::begin`] a query, call
/// [`ShardedLshIndex::collect_band`] once per band, then [`Self::finish`].
/// The buffer is cleared, never freed, between queries.
#[derive(Debug, Clone, Default)]
pub struct CandidateScratch {
    out: Vec<u64>,
}

impl CandidateScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidates produced by the most recent finished query, ascending
    /// and unique.
    pub fn candidates(&self) -> &[u64] {
        &self.out
    }

    /// Resets the buffer for a new query.
    pub fn begin(&mut self) {
        self.out.clear();
    }

    /// Sorts and de-duplicates the collected ids, ending a query started with
    /// [`Self::begin`].
    pub fn finish(&mut self) {
        self.out.sort_unstable();
        self.out.dedup();
    }
}

/// One band of one signature, hashed: the band, its bucket key and the shard
/// holding that bucket. Made by [`ShardedLshIndex::band_slot`] and taken by
/// [`ShardedLshIndex::collect_band`] and [`ShardedLshIndex::insert_band`], so
/// a document's bands are hashed once for both its query and its insert. A
/// slot is only meaningful to an index with the same banding and shard count
/// as the one that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandSlot {
    band: u32,
    key: u64,
    shard: usize,
}

impl BandSlot {
    /// The shard holding this band's bucket — the one a band-at-a-time
    /// caller must make resident before touching the slot.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// Hash key of one band of a signature: FNV-1a over the band's values,
/// salted by the band number.
fn band_key(signature: &Signature, band: usize, rows: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET ^ (band as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let start = band * rows;
    for value in &signature.values()[start..start + rows] {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

/// An LSH index whose buckets are partitioned across shards by band hash,
/// so memory can be tracked and spilled per shard.
///
/// # Example
///
/// ```
/// use textsim::{char_shingles, LshParams, MinHasher, ShardedLshIndex};
///
/// let hasher = MinHasher::new(128, 7);
/// let params = LshParams::for_threshold(128, 0.85);
/// let mut index = ShardedLshIndex::new(params);
///
/// let a = hasher.signature(&char_shingles("module m(input a); assign y = a; endmodule", 5));
/// index.insert(1, &a);
/// let dup = hasher.signature(&char_shingles("module m(input a); assign y = a; endmodule", 5));
/// assert!(index.candidates(&dup).contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedLshIndex {
    params: LshParams,
    /// One bucket map per shard, keyed by `(band, band key)`. `None` marks a
    /// shard that has been evicted ([`Self::evict_shard`]) and whose bytes
    /// the caller is holding (typically on disk).
    shards: Vec<Option<ShardBuckets>>,
    /// Occupied-bucket count per shard, maintained across evictions so the
    /// residency profile stays reportable while a shard is cold.
    bucket_counts: Vec<usize>,
    len: usize,
}

/// Appends one little-endian `u64` to a byte stream — the framing primitive
/// the shard serializer is built on, public so spill engines embedding
/// shard streams in their own files use the same framing.
pub fn write_u64_le(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Reads one little-endian `u64` at `*offset`, advancing it — the inverse
/// of [`write_u64_le`].
///
/// # Panics
///
/// Panics if fewer than 8 bytes remain.
pub fn read_u64_le(bytes: &[u8], offset: &mut usize) -> u64 {
    let end = *offset + 8;
    let value = u64::from_le_bytes(
        bytes[*offset..end]
            .try_into()
            .expect("shard byte stream truncated"),
    );
    *offset = end;
    value
}

impl ShardedLshIndex {
    /// Creates an empty index with [`DEFAULT_LSH_SHARDS`] shards.
    pub fn new(params: LshParams) -> Self {
        Self::with_shards(params, DEFAULT_LSH_SHARDS)
    }

    /// Creates an empty index with an explicit shard count.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0`.
    pub fn with_shards(params: LshParams, shard_count: usize) -> Self {
        assert!(shard_count > 0, "shard count must be positive");
        Self {
            params,
            shards: vec![Some(HashMap::new()); shard_count],
            bucket_counts: vec![0; shard_count],
            len: 0,
        }
    }

    /// The banding parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// Number of shards the bucket space is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of inserted documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no documents have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of occupied buckets in each shard — the residency profile a
    /// bounded-memory engine accounts against. Maintained across evictions:
    /// a spilled shard still reports the bucket count it will have once
    /// restored.
    pub fn shard_bucket_counts(&self) -> Vec<usize> {
        self.bucket_counts.clone()
    }

    /// Whether `shard` currently holds its bucket map in memory.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_is_resident(&self, shard: usize) -> bool {
        self.shards[shard].is_some()
    }

    /// Number of shards currently resident in memory.
    pub fn resident_shard_count(&self) -> usize {
        self.shards.iter().filter(|s| s.is_some()).count()
    }

    /// Deterministic shard routing: Fibonacci-hash the (already salted) band
    /// key so consecutive keys spread evenly whatever the shard count.
    fn shard_of(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (mixed % self.shards.len() as u64) as usize
    }

    fn resident(&self, shard: usize) -> &ShardBuckets {
        self.shards[shard]
            .as_ref()
            .unwrap_or_else(|| panic!("shard {shard} is spilled; restore it before accessing"))
    }

    /// Hashes one band of `signature` into the slot its bucket lives in —
    /// compute it once per document and band, then pass it to
    /// [`Self::collect_band`] and [`Self::insert_band`].
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or
    /// `band` is out of range.
    pub fn band_slot(&self, signature: &Signature, band: usize) -> BandSlot {
        let required = self.params.required_signature_len();
        assert!(
            signature.len() >= required,
            "signature has {} positions but the index requires at least {required}",
            signature.len()
        );
        assert!(
            band < self.params.bands,
            "band {band} out of range for {} bands",
            self.params.bands
        );
        let key = band_key(signature, band, self.params.rows_per_band);
        BandSlot {
            band: band as u32,
            key,
            shard: self.shard_of(key),
        }
    }

    /// Serializes `shard`'s bucket map into a deterministic byte stream
    /// (entries ascending by `(band, key)`) and drops it from memory. The
    /// caller owns the bytes — typically writing them to disk — and brings
    /// the shard back with [`Self::restore_shard`].
    ///
    /// # Panics
    ///
    /// Panics if the shard is already spilled or out of range.
    pub fn evict_shard(&mut self, shard: usize) -> Vec<u8> {
        let map = self.shards[shard]
            .take()
            .unwrap_or_else(|| panic!("shard {shard} is already spilled"));
        let mut entries: Vec<((u32, u64), Vec<u64>)> = map.into_iter().collect();
        entries.sort_unstable_by_key(|&(key, _)| key);
        let mut out = Vec::new();
        write_u64_le(&mut out, entries.len() as u64);
        for ((band, key), ids) in &entries {
            write_u64_le(&mut out, u64::from(*band));
            write_u64_le(&mut out, *key);
            write_u64_le(&mut out, ids.len() as u64);
            for id in ids {
                write_u64_le(&mut out, *id);
            }
        }
        out
    }

    /// Re-attaches a shard from bytes produced by [`Self::evict_shard`].
    /// Restoring then querying is byte-identical to never having evicted:
    /// bucket contents, id order within each bucket, and therefore candidate
    /// sets are all preserved.
    ///
    /// # Panics
    ///
    /// Panics if the shard is still resident, out of range, or the bytes are
    /// malformed.
    pub fn restore_shard(&mut self, shard: usize, bytes: &[u8]) {
        assert!(
            self.shards[shard].is_none(),
            "shard {shard} is already resident"
        );
        let mut offset = 0usize;
        let entry_count = read_u64_le(bytes, &mut offset) as usize;
        let mut map = HashMap::with_capacity(entry_count);
        for _ in 0..entry_count {
            let band = read_u64_le(bytes, &mut offset) as u32;
            let key = read_u64_le(bytes, &mut offset);
            let id_count = read_u64_le(bytes, &mut offset) as usize;
            let mut ids = Vec::with_capacity(id_count);
            for _ in 0..id_count {
                ids.push(read_u64_le(bytes, &mut offset));
            }
            map.insert((band, key), ids);
        }
        assert_eq!(offset, bytes.len(), "trailing bytes after shard stream");
        assert_eq!(
            map.len(),
            self.bucket_counts[shard],
            "restored shard {shard} bucket count diverged from the accounting"
        );
        self.shards[shard] = Some(map);
    }

    /// Inserts a document id with its signature.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or a
    /// touched shard is spilled.
    pub fn insert(&mut self, id: u64, signature: &Signature) {
        for band in 0..self.params.bands {
            self.insert_band(id, self.band_slot(signature, band));
        }
        self.commit_insert();
    }

    /// Inserts `id` into the bucket of one band only. After inserting into
    /// *every* band, call [`Self::commit_insert`] to count the document;
    /// [`Self::insert`] is exactly that loop.
    ///
    /// # Panics
    ///
    /// Panics if the slot's shard is spilled.
    pub fn insert_band(&mut self, id: u64, slot: BandSlot) {
        let bucket = self.shards[slot.shard]
            .as_mut()
            .unwrap_or_else(|| {
                panic!(
                    "shard {} is spilled; restore it before accessing",
                    slot.shard
                )
            })
            .entry((slot.band, slot.key))
            .or_default();
        let new_bucket = bucket.is_empty();
        bucket.push(id);
        if new_bucket {
            self.bucket_counts[slot.shard] += 1;
        }
    }

    /// Counts one document as inserted, after its id has been pushed into
    /// every band with [`Self::insert_band`].
    pub fn commit_insert(&mut self) {
        self.len += 1;
    }

    /// Returns the ids of all documents sharing at least one band with
    /// `signature`, ascending and unique.
    ///
    /// # Panics
    ///
    /// Panics if the signature is shorter than `bands * rows_per_band` or a
    /// touched shard is spilled.
    pub fn candidates(&self, signature: &Signature) -> Vec<u64> {
        let mut scratch = CandidateScratch::new();
        for band in 0..self.params.bands {
            self.collect_band(self.band_slot(signature, band), &mut scratch);
        }
        scratch.finish();
        scratch.out
    }

    /// Appends the colliding ids of one band into `scratch` (no clear, no
    /// sort). Bracket a full query with [`CandidateScratch::begin`] and
    /// [`CandidateScratch::finish`] around one call per band; the result
    /// equals [`Self::candidates`].
    ///
    /// # Panics
    ///
    /// Panics if the slot's shard is spilled.
    pub fn collect_band(&self, slot: BandSlot, scratch: &mut CandidateScratch) {
        if let Some(ids) = self.resident(slot.shard).get(&(slot.band, slot.key)) {
            scratch.out.extend_from_slice(ids);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use crate::shingle::{char_shingles, ShingleSet};

    fn sig(hasher: &MinHasher, text: &str) -> Signature {
        hasher.signature(&char_shingles(text, 5))
    }

    fn corpus() -> Vec<String> {
        (0..40)
            .map(|i| {
                if i % 4 == 0 {
                    "module dup(input a, output y); assign y = a; endmodule".to_string()
                } else {
                    format!("module m{i}(input a{i}, output y{i}); assign y{i} = a{i} ^ {i}'d1; endmodule")
                }
            })
            .collect()
    }

    /// The bands in which two signatures have equal rows — the brute-force
    /// reference for bucket collisions. It compares raw signature values,
    /// not bucket keys, so it shares no hashing or routing with the index.
    fn shared_bands(params: LshParams, a: &Signature, b: &Signature) -> Vec<usize> {
        let rows = params.rows_per_band;
        (0..params.bands)
            .filter(|band| {
                let range = band * rows..(band + 1) * rows;
                a.values()[range.clone()] == b.values()[range]
            })
            .collect()
    }

    #[test]
    fn candidates_match_a_brute_force_band_oracle_for_any_shard_count() {
        let hasher = MinHasher::new(128, 77);
        let params = LshParams::for_threshold(128, 0.85);
        // Variants of two 200-element sets, each replacing a scattered 0-12 %
        // of the elements, plus two exact repeats: pairs share anything from
        // no band to all.
        let mut sets: Vec<ShingleSet> = (0..50u64)
            .map(|i| {
                let base = (i / 25) * 1000;
                let replaced = |x: u64| (x * 31 + i * 17) % 97 < i % 13;
                (base..base + 200)
                    .map(|x| if replaced(x) { x + 10_000 * (i + 1) } else { x })
                    .collect()
            })
            .collect();
        sets.extend([sets[3].clone(), sets[30].clone()]);
        let signatures: Vec<Signature> = sets.iter().map(|s| hasher.signature(s)).collect();
        // Every band must be the only shared band of some pair, so a query
        // that skipped or misrouted any one band would be caught.
        let mut lone_bands = vec![false; params.bands];
        for (i, a) in signatures.iter().enumerate() {
            for b in &signatures[..i] {
                if let [band] = shared_bands(params, a, b)[..] {
                    lone_bands[band] = true;
                }
            }
        }
        assert!(
            lone_bands.iter().all(|&b| b),
            "lone-band collisions: {lone_bands:?}"
        );
        for shard_count in [1, 2, 7, 16, 64] {
            let mut index = ShardedLshIndex::with_shards(params, shard_count);
            for (i, signature) in signatures.iter().enumerate() {
                index.insert(i as u64, signature);
            }
            assert_eq!(index.len(), signatures.len());
            assert_eq!(index.shard_count(), shard_count);
            for query in &signatures {
                let expected: Vec<u64> = (0..signatures.len() as u64)
                    .filter(|&id| !shared_bands(params, &signatures[id as usize], query).is_empty())
                    .collect();
                assert_eq!(
                    index.candidates(query),
                    expected,
                    "candidate set diverged from the oracle at {shard_count} shards"
                );
            }
        }
    }

    #[test]
    fn dissimilar_documents_are_usually_not_candidates() {
        let hasher = MinHasher::new(128, 22);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::new(params);
        index.insert(
            1,
            &sig(
                &hasher,
                "module alu(input [3:0] a, b, output [3:0] y); assign y = a + b; endmodule",
            ),
        );
        let unrelated = sig(
            &hasher,
            "this text is entirely unrelated prose about gardens, rainfall and mountain trails",
        );
        assert!(index.candidates(&unrelated).is_empty());
    }

    #[test]
    fn buckets_spread_across_shards() {
        let hasher = MinHasher::new(128, 5);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::with_shards(params, 8);
        for (i, t) in corpus().iter().enumerate() {
            index.insert(i as u64, &sig(&hasher, t));
        }
        let counts = index.shard_bucket_counts();
        assert_eq!(counts.len(), 8);
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        assert!(occupied > 1, "all buckets landed in one shard: {counts:?}");
        assert!(counts.iter().sum::<usize>() > 0, "no buckets recorded");
    }

    #[test]
    fn evict_restore_roundtrip_preserves_candidates_and_accounting() {
        let hasher = MinHasher::new(128, 13);
        let params = LshParams::for_threshold(128, 0.85);
        let texts = corpus();
        let mut reference = ShardedLshIndex::with_shards(params, 8);
        let mut index = ShardedLshIndex::with_shards(params, 8);
        for (i, t) in texts.iter().enumerate() {
            reference.insert(i as u64, &sig(&hasher, t));
            index.insert(i as u64, &sig(&hasher, t));
        }
        let counts_before = index.shard_bucket_counts();
        // Evict every shard, hold the bytes, restore in a scrambled order.
        let bytes: Vec<Vec<u8>> = (0..8).map(|s| index.evict_shard(s)).collect();
        assert_eq!(index.resident_shard_count(), 0);
        assert!(!index.shard_is_resident(3));
        // Accounting survives eviction.
        assert_eq!(index.shard_bucket_counts(), counts_before);
        for s in [5, 0, 7, 2, 1, 6, 4, 3] {
            index.restore_shard(s, &bytes[s]);
        }
        assert_eq!(index.resident_shard_count(), 8);
        assert_eq!(index.shard_bucket_counts(), counts_before);
        for t in &texts {
            let signature = sig(&hasher, t);
            assert_eq!(
                index.candidates(&signature),
                reference.candidates(&signature),
                "candidates diverged after an evict/restore roundtrip"
            );
        }
    }

    #[test]
    #[should_panic(expected = "is spilled")]
    fn querying_a_spilled_shard_panics() {
        let hasher = MinHasher::new(128, 9);
        let params = LshParams::for_threshold(128, 0.85);
        let mut index = ShardedLshIndex::with_shards(params, 1);
        let s = sig(&hasher, "module m(input a); assign y = a; endmodule");
        index.insert(0, &s);
        let _ = index.evict_shard(0);
        let _ = index.candidates(&s);
    }

    #[test]
    #[should_panic(expected = "already spilled")]
    fn double_eviction_panics() {
        let params = LshParams::new(8, 16);
        let mut index = ShardedLshIndex::with_shards(params, 2);
        let _ = index.evict_shard(1);
        let _ = index.evict_shard(1);
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let params = LshParams::new(8, 16);
        let _ = ShardedLshIndex::with_shards(params, 0);
    }

    #[test]
    #[should_panic(expected = "signature has")]
    fn short_signature_rejected() {
        let params = LshParams::new(16, 8);
        let mut index = ShardedLshIndex::new(params);
        let hasher = MinHasher::new(32, 1);
        index.insert(1, &sig(&hasher, "module m; endmodule"));
    }
}
