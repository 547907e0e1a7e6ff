//! A fast, deterministic hasher for simulation-internal maps.
//!
//! The std `HashMap` default (SipHash) is keyed and DoS-resistant, which the
//! simulator does not need: every map here is keyed by addresses the
//! simulation itself generates. The hot path pays for a page-stats chunk
//! lookup on every access and a walk-cache probe on every TLB miss, so those
//! maps use this multiply-xor hasher (FxHash-style) instead.
//!
//! Determinism note: swapping the hasher changes only bucket order. Every
//! consumer either probes by key or sorts before exposing contents, so
//! simulation results are unaffected.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher over the written words (FxHash-style).
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

/// The odd multiplier FxHash uses for 64-bit words (derived from the golden
/// ratio, like splitmix64's increment).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the high half down: a single multiply leaves the low bits of
        // an aligned key's hash constant (a 4 KiB-aligned key hashes to
        // `(k * SEED) << 12`), and hashbrown picks buckets from the LOW
        // bits — without this fold every page-base key lands in 1/4096th
        // of the table and chains pathologically.
        self.0 ^ (self.0 >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `HashMap` with the fast deterministic hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4096, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 4096)), Some(&i));
        }
    }

    #[test]
    fn hashes_differ_on_nearby_keys() {
        use std::hash::BuildHasher;
        let b: BuildHasherDefault<FastHasher> = BuildHasherDefault::default();
        let h1 = b.hash_one(0x1000u64);
        let h2 = b.hash_one(0x2000u64);
        assert_ne!(h1, h2);
    }

    #[test]
    fn byte_writes_match_padded_words() {
        // Sanity: the generic `write` path is self-consistent for partial
        // words (it zero-pads the tail).
        let mut a = FastHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FastHasher::default();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(a.finish(), b.finish());
    }
}
