//! Hash functions used by the flow tables and by the HALO hash unit.
//!
//! The accelerator's hash unit (Fig. 6) is built from multiply, shift,
//! and XOR stages; we use the same primitive mix so the software and
//! hardware paths compute identical values.

use crate::key::FlowKey;

/// A 64-bit key hash parameterized by a seed (distinct seeds give the
/// two independent cuckoo hash functions).
#[inline]
#[must_use]
pub fn hash_key(key: &FlowKey, seed: u64) -> u64 {
    let mut h = seed ^ 0x51_7C_C1_B7_27_22_0A_95;
    for chunk in key.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        let v = u64::from_le_bytes(buf);
        // MUL / XOR / shift stages, mirroring the hash-unit datapath.
        h ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(27).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 29;
    }
    h ^= key.len() as u64;
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

/// Seeds for the primary and alternative cuckoo hash functions.
pub const SEED_PRIMARY: u64 = 0x5EED_0001;
/// Seed of the secondary (alternative-bucket) hash function.
pub const SEED_SECONDARY: u64 = 0x5EED_0002;

/// The 16-bit signature stored in a bucket entry (derived from the
/// primary hash, as in DPDK `rte_hash`). Never zero: zero marks an empty
/// entry slot.
#[must_use]
pub fn signature(primary_hash: u64) -> u16 {
    let s = (primary_hash >> 48) as u16;
    if s == 0 {
        1
    } else {
        s
    }
}

/// Bucket index pair for a key under cuckoo hashing with `buckets`
/// buckets (power of two).
#[must_use]
pub fn bucket_pair(key: &FlowKey, buckets: u64) -> (u64, u64) {
    pair_from_primary(hash_key(key, SEED_PRIMARY), key, buckets)
}

/// [`bucket_pair`] plus the key's [`signature`], hashing the key with
/// [`SEED_PRIMARY`] once for both.
#[must_use]
pub(crate) fn bucket_pair_and_signature(key: &FlowKey, buckets: u64) -> (u64, u64, u16) {
    let h1 = hash_key(key, SEED_PRIMARY);
    let (b1, b2) = pair_from_primary(h1, key, buckets);
    (b1, b2, signature(h1))
}

/// The bucket pair given the key's primary hash `h1`.
fn pair_from_primary(h1: u64, key: &FlowKey, buckets: u64) -> (u64, u64) {
    debug_assert!(buckets.is_power_of_two());
    let b1 = h1 & (buckets - 1);
    // DPDK derives the alternative index from the signature; we use an
    // independent hash for better spread, same contract: alt(alt(x)) == x
    // is not required, only that both indexes are recoverable from the key.
    let h2 = hash_key(key, SEED_SECONDARY);
    let mut b2 = h2 & (buckets - 1);
    if b2 == b1 {
        b2 = (b1 + 1) & (buckets - 1);
    }
    (b1, b2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let k = FlowKey::synthetic(42, 13);
        assert_eq!(hash_key(&k, 1), hash_key(&k, 1));
        assert_ne!(hash_key(&k, 1), hash_key(&k, 2));
    }

    #[test]
    fn distinct_keys_rarely_collide() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        for id in 0..50_000u64 {
            set.insert(hash_key(&FlowKey::synthetic(id, 13), SEED_PRIMARY));
        }
        assert!(set.len() > 49_990, "too many 64-bit collisions");
    }

    #[test]
    fn signature_never_zero() {
        for h in [0u64, 1, u64::MAX, 0x0000_FFFF_FFFF_FFFF] {
            assert_ne!(signature(h), 0);
        }
    }

    #[test]
    fn bucket_pair_distinct_and_bounded() {
        for id in 0..10_000u64 {
            let k = FlowKey::synthetic(id, 13);
            let (b1, b2) = bucket_pair(&k, 1024);
            assert!(b1 < 1024 && b2 < 1024);
            assert_ne!(b1, b2);
        }
    }

    #[test]
    fn buckets_spread_uniformly() {
        let n = 64u64;
        let mut counts = vec![0u32; n as usize];
        for id in 0..64_000u64 {
            let (b1, _) = bucket_pair(&FlowKey::synthetic(id, 13), n);
            counts[b1 as usize] += 1;
        }
        for &c in &counts {
            assert!((600..1500).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn pair_and_signature_match_separate_hashes() {
        for id in 0..1_000u64 {
            let k = FlowKey::synthetic(id, 13);
            let (b1, b2) = bucket_pair(&k, 256);
            let sig = signature(hash_key(&k, SEED_PRIMARY));
            assert_eq!(bucket_pair_and_signature(&k, 256), (b1, b2, sig));
        }
    }

    #[test]
    fn key_length_affects_hash() {
        let a = FlowKey::from_bytes(&[1, 2, 3, 0]);
        let b = FlowKey::from_bytes(&[1, 2, 3]);
        assert_ne!(hash_key(&a, SEED_PRIMARY), hash_key(&b, SEED_PRIMARY));
    }
}
