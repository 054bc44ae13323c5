//! Flow keys: the byte strings looked up in flow tables.
//!
//! The paper sweeps packet-header keys from 4 to 64 bytes (§3.4), with
//! the common case being the 5-tuple of an IPv4 packet (13 bytes).

use std::fmt;

/// Maximum supported key length in bytes.
pub const MAX_KEY_LEN: usize = 64;

/// A fixed-capacity flow key (packet-header bytes).
///
/// # Examples
///
/// ```
/// use halo_tables::FlowKey;
///
/// let k = FlowKey::from_bytes(&[1, 2, 3, 4]);
/// assert_eq!(k.len(), 4);
/// assert_eq!(k.as_bytes(), &[1, 2, 3, 4]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    bytes: [u8; MAX_KEY_LEN],
    len: u8,
}

impl FlowKey {
    /// Builds a key from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > MAX_KEY_LEN` or `bytes` is empty.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(!bytes.is_empty(), "empty flow key");
        assert!(bytes.len() <= MAX_KEY_LEN, "flow key too long");
        let mut k = FlowKey {
            bytes: [0; MAX_KEY_LEN],
            len: bytes.len() as u8,
        };
        k.bytes[..bytes.len()].copy_from_slice(bytes);
        k
    }

    /// Builds a `len`-byte key whose content encodes `id` (useful for
    /// synthetic workloads: distinct ids give distinct keys).
    ///
    /// # Panics
    ///
    /// Panics if `len` is 0 or greater than [`MAX_KEY_LEN`].
    #[must_use]
    pub fn synthetic(id: u64, len: usize) -> Self {
        assert!(len > 0 && len <= MAX_KEY_LEN);
        let mut bytes = [0u8; MAX_KEY_LEN];
        // Spread the id across the key with distinct per-chunk mixing so
        // short keys still differ.
        let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id;
        for chunk in bytes[..len].chunks_mut(8) {
            let src = x.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&src[..n]);
            x = x.rotate_left(23).wrapping_add(id | 1);
        }
        // Guarantee injectivity for ids < 2^32 even for 4-byte keys by
        // storing the low id bits verbatim.
        let direct = (id as u32).to_le_bytes();
        let n = len.min(4);
        bytes[..n].copy_from_slice(&direct[..n]);
        FlowKey {
            bytes,
            len: len as u8,
        }
    }

    /// A 13-byte IPv4 5-tuple key.
    #[must_use]
    pub fn five_tuple(src: u32, dst: u32, sport: u16, dport: u16, proto: u8) -> Self {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&src.to_be_bytes());
        b[4..8].copy_from_slice(&dst.to_be_bytes());
        b[8..10].copy_from_slice(&sport.to_be_bytes());
        b[10..12].copy_from_slice(&dport.to_be_bytes());
        b[12] = proto;
        FlowKey::from_bytes(&b)
    }

    /// Key length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false: keys are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The key bytes.
    #[inline]
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// A key of the same bytes masked by `mask` (bitwise AND, as used by
    /// wildcard tuple matching). `mask` must be at least as long as the
    /// key; extra mask bytes are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is shorter than the key.
    #[inline]
    #[must_use]
    pub fn masked(&self, mask: &[u8]) -> FlowKey {
        assert!(mask.len() >= self.len(), "mask shorter than key");
        let mut out = *self;
        for (b, m) in out.bytes[..self.len as usize].iter_mut().zip(mask) {
            *b &= m;
        }
        out
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowKey(")?;
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_roundtrip() {
        let k = FlowKey::from_bytes(&[9, 8, 7]);
        assert_eq!(k.as_bytes(), &[9, 8, 7]);
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
    }

    #[test]
    fn synthetic_keys_distinct() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u64 {
            assert!(seen.insert(FlowKey::synthetic(id, 13)), "dup at {id}");
        }
    }

    #[test]
    fn synthetic_short_keys_distinct() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..10_000u64 {
            assert!(seen.insert(FlowKey::synthetic(id, 4)), "dup at {id}");
        }
    }

    #[test]
    fn five_tuple_layout() {
        let k = FlowKey::five_tuple(0x0a000001, 0x0a000002, 80, 443, 6);
        assert_eq!(k.len(), 13);
        assert_eq!(&k.as_bytes()[0..4], &[0x0a, 0, 0, 1]);
        assert_eq!(k.as_bytes()[12], 6);
    }

    #[test]
    fn masked_zeroes_wildcarded_bytes() {
        let k = FlowKey::from_bytes(&[0xff, 0xff, 0xff, 0xff]);
        let m = k.masked(&[0xff, 0x00, 0xf0, 0xff]);
        assert_eq!(m.as_bytes(), &[0xff, 0x00, 0xf0, 0xff]);
    }

    #[test]
    fn debug_is_hex() {
        let k = FlowKey::from_bytes(&[0xab, 0x01]);
        assert_eq!(format!("{k:?}"), "FlowKey(ab01)");
    }

    #[test]
    #[should_panic(expected = "flow key too long")]
    fn oversized_key_panics() {
        let _ = FlowKey::from_bytes(&[0u8; 65]);
    }
}
