//! Deterministic seed derivation.
//!
//! Every COCONUT experiment is driven by a single `u64` seed. Components
//! (network links, clients, consensus timers, anomaly models) each need an
//! *independent* random stream so that adding randomness to one component
//! does not perturb another. [`SeedDeriver`] derives labelled sub-seeds by
//! hashing `(root_seed, label, index)`; the same inputs always give the same
//! stream.

use crate::hash::Hasher64;
use crate::rng::SimRng;

/// Derives independent, reproducible RNG seeds from a root seed.
///
/// # Example
///
/// ```
/// use coconut_types::SeedDeriver;
///
/// let d = SeedDeriver::new(42);
/// let mut net_rng = d.rng("network", 0);
/// let mut client_rng = d.rng("client", 0);
/// // Streams with different labels are independent but reproducible:
/// let a: u64 = net_rng.next_u64();
/// let b: u64 = SeedDeriver::new(42).rng("network", 0).next_u64();
/// assert_eq!(a, b);
/// let c: u64 = client_rng.next_u64();
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedDeriver {
    root: u64,
}

impl SeedDeriver {
    /// Creates a deriver for the given experiment root seed.
    pub const fn new(root: u64) -> Self {
        SeedDeriver { root }
    }

    /// The root seed this deriver was built from.
    pub const fn root(&self) -> u64 {
        self.root
    }

    /// Derives the sub-seed for `(label, index)`.
    pub fn seed(&self, label: &str, index: u64) -> u64 {
        self.stream(label).seed(index)
    }

    /// The sub-seeds of one `label`, with the label hashed once: a caller
    /// that draws many indices under one label feeds only the index.
    /// `stream(label).seed(i)` equals `seed(label, i)`.
    pub fn stream(&self, label: &str) -> SeedStream {
        let mut h = Hasher64::with_key(self.root);
        h.write(label.as_bytes());
        SeedStream(h)
    }

    /// Builds a seeded [`SimRng`] for `(label, index)`.
    pub fn rng(&self, label: &str, index: u64) -> SimRng {
        SimRng::seed_from_u64(self.seed(label, index))
    }

    /// Derives a sub-seed from a *sequence* of string parts — the
    /// content-addressed form used to key an experiment cell by what it
    /// measures (system, benchmark, setup, rate, …) rather than by its
    /// position in an enumeration. Each part is length-prefixed so that
    /// `["ab", "c"]` and `["a", "bc"]` hash differently.
    pub fn seed_parts(&self, parts: &[&str]) -> u64 {
        let mut h = Hasher64::with_key(self.root);
        for p in parts {
            h.write_u64(p.len() as u64).write(p.as_bytes());
        }
        h.finish()
    }

    /// A deriver for repetition `rep` of the same experiment: the paper
    /// repeats every benchmark and averages; repetitions must differ but be
    /// reproducible.
    pub fn for_repetition(&self, rep: u32) -> SeedDeriver {
        SeedDeriver::new(self.seed("repetition", rep as u64))
    }
}

/// The sub-seeds of one label under one root ([`SeedDeriver::stream`]).
#[derive(Debug, Clone)]
pub struct SeedStream(Hasher64);

impl SeedStream {
    /// The sub-seed for `index`: [`SeedDeriver::seed`]`(label, index)`.
    pub fn seed(&self, index: u64) -> u64 {
        self.0.clone().write_u64(index).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_inputs_same_seed() {
        let d = SeedDeriver::new(7);
        assert_eq!(d.seed("x", 1), d.seed("x", 1));
        assert_eq!(d.root(), 7);
    }

    #[test]
    fn labels_and_indices_separate_streams() {
        let d = SeedDeriver::new(7);
        assert_ne!(d.seed("x", 1), d.seed("x", 2));
        assert_ne!(d.seed("x", 1), d.seed("y", 1));
    }

    #[test]
    fn different_roots_different_streams() {
        assert_ne!(
            SeedDeriver::new(1).seed("x", 0),
            SeedDeriver::new(2).seed("x", 0)
        );
    }

    #[test]
    fn repetitions_differ_and_reproduce() {
        let d = SeedDeriver::new(99);
        let r0 = d.for_repetition(0);
        let r1 = d.for_repetition(1);
        assert_ne!(r0.seed("client", 0), r1.seed("client", 0));
        assert_eq!(r0.seed("client", 0), d.for_repetition(0).seed("client", 0));
    }

    #[test]
    fn seed_parts_is_content_addressed() {
        let d = SeedDeriver::new(7);
        assert_eq!(d.seed_parts(&["a", "b"]), d.seed_parts(&["a", "b"]));
        assert_ne!(d.seed_parts(&["a", "b"]), d.seed_parts(&["b", "a"]));
        // Length prefixes keep part boundaries from aliasing.
        assert_ne!(d.seed_parts(&["ab", "c"]), d.seed_parts(&["a", "bc"]));
        assert_ne!(
            SeedDeriver::new(8).seed_parts(&["a"]),
            SeedDeriver::new(7).seed_parts(&["a"])
        );
    }

    #[test]
    fn streams_hash_the_label_once_to_the_same_seeds() {
        for root in [0, 7, u64::MAX] {
            let d = SeedDeriver::new(root);
            for label in ["", "hot", "rank", "sb-op", "a label longer than one word"] {
                let stream = d.stream(label);
                for i in [0, 1, 2, 1 << 40, u64::MAX] {
                    assert_eq!(stream.seed(i), d.seed(label, i), "{root} {label:?} {i}");
                }
            }
        }
    }

    #[test]
    fn rng_streams_reproduce() {
        let draw = || {
            let mut r = SeedDeriver::new(5).rng("net", 3);
            (0..8).map(|_| r.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(), draw());
    }
}
