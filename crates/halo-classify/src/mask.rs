//! Wildcard masks over miniflow keys.
//!
//! A MegaFlow tuple groups rules that share a wildcarding pattern; the
//! pattern is a byte-wise AND mask applied to the miniflow before the
//! exact-match lookup into that tuple's hash table.

use crate::packet::MINIFLOW_LEN;
use halo_tables::FlowKey;
use std::fmt;

/// A byte-granular wildcard mask over the [`MINIFLOW_LEN`]-byte key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WildcardMask {
    bytes: [u8; MINIFLOW_LEN],
}

impl WildcardMask {
    /// A mask matching every bit (exact match).
    #[must_use]
    pub fn exact() -> Self {
        WildcardMask {
            bytes: [0xFF; MINIFLOW_LEN],
        }
    }

    /// A mask from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not [`MINIFLOW_LEN`] long.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), MINIFLOW_LEN, "mask length");
        let mut m = [0u8; MINIFLOW_LEN];
        m.copy_from_slice(bytes);
        WildcardMask { bytes: m }
    }

    /// Builder: wildcard the source IP's low `n` bytes (keep a prefix).
    #[must_use]
    pub fn src_prefix(mut self, keep_bytes: usize) -> Self {
        for i in keep_bytes.min(4)..4 {
            self.bytes[i] = 0;
        }
        self
    }

    /// Builder: wildcard the destination IP's low bytes.
    #[must_use]
    pub fn dst_prefix(mut self, keep_bytes: usize) -> Self {
        for i in (4 + keep_bytes.min(4))..8 {
            self.bytes[i] = 0;
        }
        self
    }

    /// Builder: wildcard the source port.
    #[must_use]
    pub fn any_src_port(mut self) -> Self {
        self.bytes[8] = 0;
        self.bytes[9] = 0;
        self
    }

    /// Builder: wildcard the destination port.
    #[must_use]
    pub fn any_dst_port(mut self) -> Self {
        self.bytes[10] = 0;
        self.bytes[11] = 0;
        self
    }

    /// Builder: wildcard the protocol byte.
    #[must_use]
    pub fn any_proto(mut self) -> Self {
        self.bytes[12] = 0;
        self
    }

    /// Builder: wildcard the ingress port.
    #[must_use]
    pub fn any_in_port(mut self) -> Self {
        self.bytes[13] = 0;
        self
    }

    /// The raw mask bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Applies the mask to a miniflow key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is shorter than the mask.
    #[inline]
    #[must_use]
    pub fn apply(&self, key: &FlowKey) -> FlowKey {
        key.masked(&self.bytes)
    }

    /// Number of fully wildcarded bytes (a coarse specificity measure:
    /// more wildcarded bytes = less specific).
    #[must_use]
    pub fn wildcarded_bytes(&self) -> usize {
        self.bytes.iter().filter(|&&b| b == 0).count()
    }
}

impl Default for WildcardMask {
    fn default() -> Self {
        WildcardMask::exact()
    }
}

impl fmt::Display for WildcardMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bytes {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// A library of distinct wildcard patterns, used to generate the 5–20
/// tuple configurations of §5.2 / Fig. 11. Pattern `i` differs from all
/// others, so each induces its own MegaFlow tuple.
#[must_use]
pub fn distinct_masks(n: usize) -> Vec<WildcardMask> {
    let generators: Vec<fn() -> WildcardMask> = vec![
        WildcardMask::exact,
        || WildcardMask::exact().any_src_port(),
        || WildcardMask::exact().any_dst_port(),
        || WildcardMask::exact().any_src_port().any_dst_port(),
        || WildcardMask::exact().src_prefix(3),
        || WildcardMask::exact().dst_prefix(3),
        || WildcardMask::exact().src_prefix(2),
        || WildcardMask::exact().dst_prefix(2),
        || WildcardMask::exact().src_prefix(3).any_src_port(),
        || WildcardMask::exact().dst_prefix(3).any_dst_port(),
        || WildcardMask::exact().src_prefix(2).any_proto(),
        || WildcardMask::exact().dst_prefix(2).any_proto(),
        || WildcardMask::exact().src_prefix(1),
        || WildcardMask::exact().dst_prefix(1),
        || WildcardMask::exact().src_prefix(1).any_src_port(),
        || WildcardMask::exact().dst_prefix(1).any_dst_port(),
        || WildcardMask::exact().any_in_port(),
        || WildcardMask::exact().any_in_port().any_src_port(),
        || WildcardMask::exact().any_in_port().any_dst_port(),
        || WildcardMask::exact().any_in_port().any_proto(),
        || WildcardMask::exact().src_prefix(2).dst_prefix(2),
        || WildcardMask::exact().src_prefix(3).dst_prefix(3),
        || WildcardMask::exact().src_prefix(2).any_src_port(),
        || WildcardMask::exact().dst_prefix(2).any_dst_port(),
    ];
    assert!(n <= generators.len(), "at most {} masks", generators.len());
    generators[..n].iter().map(|g| g()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketHeader;

    #[test]
    fn exact_mask_is_identity() {
        let k = PacketHeader::synthetic(1).miniflow();
        assert_eq!(WildcardMask::exact().apply(&k), k);
        assert_eq!(WildcardMask::exact().wildcarded_bytes(), 0);
    }

    #[test]
    fn port_wildcard_merges_flows() {
        let mask = WildcardMask::exact().any_src_port();
        let mut a = PacketHeader::synthetic(1);
        let mut b = a;
        a.src_port = 1000;
        b.src_port = 2000;
        assert_ne!(a.miniflow(), b.miniflow());
        assert_eq!(mask.apply(&a.miniflow()), mask.apply(&b.miniflow()));
    }

    #[test]
    fn prefix_wildcard_keeps_prefix() {
        let mask = WildcardMask::exact().src_prefix(2);
        let h = PacketHeader {
            src_ip: 0x0A0B_0C0D,
            ..PacketHeader::synthetic(0)
        };
        let masked = mask.apply(&h.miniflow());
        assert_eq!(&masked.as_bytes()[0..4], &[0x0A, 0x0B, 0, 0]);
    }

    #[test]
    fn distinct_masks_are_distinct() {
        use std::collections::HashSet;
        for n in [5usize, 10, 15, 20, 24] {
            let masks = distinct_masks(n);
            let set: HashSet<_> = masks.iter().cloned().collect();
            assert_eq!(set.len(), n, "duplicates among {n} masks");
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_masks_panics() {
        let _ = distinct_masks(100);
    }

    #[test]
    fn display_is_hex() {
        let s = WildcardMask::exact().to_string();
        assert_eq!(s.len(), MINIFLOW_LEN * 2);
        assert!(s.starts_with("ff"));
    }
}
