//! Deterministic, dependency-free hashing for chain linking.
//!
//! The modelled blockchains link blocks with a 256-bit digest. Cryptographic
//! strength is irrelevant to the performance study (the paper never attacks
//! its own chains), but determinism and collision resistance across realistic
//! input volumes matter for correctness tests. We therefore implement a
//! 256-bit digest built from four independently-keyed FNV-1a-style 64-bit
//! lanes with avalanche finalization (the SplitMix64 finalizer). This is a
//! non-cryptographic hash and is documented as such.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;

/// A 256-bit digest used to link blocks and fingerprint transactions.
///
/// # Example
///
/// ```
/// use coconut_types::{chain_hash, Hash256};
///
/// let parent = Hash256::GENESIS;
/// let h1 = chain_hash(&parent, b"block body");
/// let h2 = chain_hash(&parent, b"block body");
/// assert_eq!(h1, h2, "hashing is deterministic");
/// assert_ne!(h1, Hash256::GENESIS);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash256(pub [u64; 4]);

impl Hash256 {
    /// The all-zero digest used as the genesis parent.
    pub const GENESIS: Hash256 = Hash256([0; 4]);

    /// The first 64 bits of the digest, handy as a short fingerprint.
    pub const fn prefix64(self) -> u64 {
        self.0[0]
    }
}

impl Default for Hash256 {
    fn default() -> Self {
        Hash256::GENESIS
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::LowerHex for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// SplitMix64 finalizer: a fast full-avalanche bit mixer.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A streaming 64-bit non-cryptographic hasher (keyed FNV-1a with a
/// SplitMix64 finalizer).
///
/// # Example
///
/// ```
/// use coconut_types::Hasher64;
///
/// let mut h = Hasher64::with_key(7);
/// h.write(b"hello");
/// h.write_u64(42);
/// let digest = h.finish();
/// assert_ne!(digest, 0);
/// ```
#[derive(Debug, Clone)]
pub struct Hasher64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Hasher64 {
    /// Creates an unkeyed hasher.
    pub fn new() -> Self {
        Hasher64 { state: FNV_OFFSET }
    }

    /// Creates a hasher whose output stream is independent per `key`.
    pub fn with_key(key: u64) -> Self {
        Hasher64 {
            state: FNV_OFFSET ^ mix64(key),
        }
    }

    /// Feeds raw bytes into the hash state.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a little-endian `u64` into the hash state.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Finalizes and returns the 64-bit digest. The hasher may keep being
    /// fed afterwards; `finish` does not consume state.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64::new()
    }
}

/// A [`std::hash::Hasher`] for in-memory maps keyed by integers: each word
/// is folded into the state through the SplitMix64 finalizer. Unlike std's
/// `RandomState` it is unseeded and far cheaper than SipHash on small
/// integer keys; it is not meant to resist adversarial keys.
///
/// # Example
///
/// ```
/// use coconut_types::hash::MixMap;
///
/// let mut rounds: MixMap<u64, u32> = MixMap::default();
/// *rounds.entry(7).or_insert(0) += 1;
/// assert_eq!(rounds[&7], 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MixHasher(u64);

impl std::hash::Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(self.0 ^ v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] of [`MixHasher`].
pub type MixState = BuildHasherDefault<MixHasher>;

/// A `HashMap` hashed with [`MixHasher`].
pub type MixMap<K, V> = HashMap<K, V, MixState>;

/// A `HashSet` hashed with [`MixHasher`].
pub type MixSet<T> = HashSet<T, MixState>;

/// Computes the digest of a block body chained onto its parent digest.
///
/// Four independently keyed 64-bit lanes give a 256-bit result; each lane
/// absorbs the parent digest and the body bytes.
///
/// # Example
///
/// ```
/// use coconut_types::{chain_hash, Hash256};
///
/// let a = chain_hash(&Hash256::GENESIS, b"a");
/// let b = chain_hash(&a, b"b");
/// assert_ne!(a, b);
/// // Chaining is order-sensitive:
/// let b_first = chain_hash(&Hash256::GENESIS, b"b");
/// assert_ne!(chain_hash(&b_first, b"a"), b);
/// ```
pub fn chain_hash(parent: &Hash256, body: &[u8]) -> Hash256 {
    let mut h = ChainHasher::new(parent);
    h.write(body);
    h.finish()
}

/// The four lanes of [`chain_hash`] stepped together over one byte stream:
/// lane `i` is a [`Hasher64`] keyed `i + 1`, so a body fed in pieces
/// hashes as if it were one slice.
#[derive(Debug, Clone)]
pub(crate) struct ChainHasher {
    lanes: [u64; 4],
}

impl ChainHasher {
    /// Starts a digest chained onto `parent`.
    pub(crate) fn new(parent: &Hash256) -> Self {
        let mut h = ChainHasher {
            lanes: std::array::from_fn(|lane| FNV_OFFSET ^ mix64(lane as u64 + 1)),
        };
        for p in parent.0 {
            h.write_u64(p);
        }
        h
    }

    /// Feeds raw bytes into every lane.
    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            for lane in &mut self.lanes {
                *lane = (*lane ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// Feeds a little-endian `u64` into every lane.
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The 256-bit digest.
    pub(crate) fn finish(&self) -> Hash256 {
        Hash256(self.lanes.map(mix64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let h1 = chain_hash(&Hash256::GENESIS, b"payload");
        let h2 = chain_hash(&Hash256::GENESIS, b"payload");
        assert_eq!(h1, h2);
    }

    #[test]
    fn sensitive_to_body_and_parent() {
        let a = chain_hash(&Hash256::GENESIS, b"a");
        let b = chain_hash(&Hash256::GENESIS, b"b");
        assert_ne!(a, b);
        assert_ne!(chain_hash(&a, b"x"), chain_hash(&b, b"x"));
    }

    /// The lanes stepped together equal four separately keyed
    /// [`Hasher64`]s, however the body is split.
    #[test]
    fn chain_hasher_matches_four_keyed_lanes() {
        let mut rng = crate::SimRng::seed_from_u64(3);
        for case in 0..50u64 {
            let parent = Hash256(std::array::from_fn(|_| rng.next_u64()));
            let body: Vec<u8> = (0..case * 7).map(|_| rng.next_u64() as u8).collect();
            let want = Hash256(std::array::from_fn(|lane| {
                let mut h = Hasher64::with_key(lane as u64 + 1);
                for p in parent.0 {
                    h.write_u64(p);
                }
                h.write(&body);
                h.finish()
            }));
            assert_eq!(chain_hash(&parent, &body), want, "case {case}");
            let mut split = ChainHasher::new(&parent);
            let (a, b) = body.split_at(body.len() / 3);
            split.write(a);
            split.write(b);
            assert_eq!(split.finish(), want, "case {case} split");
        }
    }

    #[test]
    fn no_collisions_over_many_inputs() {
        let mut seen = HashSet::new();
        let mut parent = Hash256::GENESIS;
        for i in 0..10_000u64 {
            parent = chain_hash(&parent, &i.to_le_bytes());
            assert!(seen.insert(parent), "collision at {i}");
        }
    }

    #[test]
    fn hasher64_keyed_streams_differ() {
        let mut a = Hasher64::with_key(1);
        let mut b = Hasher64::with_key(2);
        a.write(b"same");
        b.write(b"same");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hasher64_incremental_equals_one_shot() {
        let mut a = Hasher64::new();
        a.write(b"hello ").write(b"world");
        let mut b = Hasher64::new();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn mix_hasher_spreads_keys_and_is_unseeded() {
        use std::hash::{BuildHasher, Hasher};
        let hash = |v: &(u64, u64)| MixState::default().hash_one(v);
        assert_eq!(hash(&(1, 2)), hash(&(1, 2)), "no per-process seed");
        assert_ne!(hash(&(1, 2)), hash(&(2, 1)), "word order matters");
        let tops: HashSet<u64> = (0..1_000u64).map(|r| hash(&(0, r)) >> 57).collect();
        assert_eq!(tops.len(), 128, "sequential keys reach every top-7-bit tag");
        let mut bytes = MixHasher::default();
        bytes.write(&7u64.to_le_bytes());
        let mut word = MixHasher::default();
        word.write_u64(7);
        assert_eq!(bytes.finish(), word.finish());
    }

    #[test]
    fn display_is_64_hex_chars() {
        let h = chain_hash(&Hash256::GENESIS, b"x");
        let s = h.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{h:x}"), s);
    }

    #[test]
    fn genesis_is_default_and_zero() {
        assert_eq!(Hash256::default(), Hash256::GENESIS);
        assert_eq!(Hash256::GENESIS.prefix64(), 0);
    }
}
