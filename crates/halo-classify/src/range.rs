//! Range rules: per-field interval matching over the miniflow.
//!
//! Tuple space search expresses wildcarding as a bitmask per tuple,
//! which handles prefixes but not arbitrary intervals — a firewall rule
//! like `dst_port in 1024..=2047` has no single `(value, mask)` form.
//! [`RangeRule`] represents a rule as one inclusive interval per
//! miniflow field. Two consumers exist:
//!
//! * [`RangeRule::tss_expansion`] decomposes each interval into maximal
//!   aligned prefixes and cross-products them, giving the classic
//!   TSS-compatible (but potentially explosive) encoding.
//! * The RVH backend ([`crate::RvhTable`]) stores the rule whole and
//!   range-checks candidates after a hash-vector probe.
//!
//! Every [`WildcardMask`]-style prefix rule converts losslessly via
//! [`RangeRule::from_masked_key`], so the range form is a strict
//! superset of what the tuple space can express.

use crate::mask::WildcardMask;
use crate::packet::MINIFLOW_LEN;
use halo_tables::FlowKey;

/// Number of matchable miniflow fields.
pub const NUM_FIELDS: usize = 7;

/// One miniflow field: a named byte span interpreted big-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Stable field name (figure rows, shrunk-trace dumps).
    pub name: &'static str,
    /// Byte offset within the miniflow.
    pub offset: usize,
    /// Width in bytes (1..=4).
    pub width: usize,
}

/// The miniflow field layout (must mirror `PacketHeader::miniflow`).
pub const FIELDS: [FieldSpec; NUM_FIELDS] = [
    FieldSpec {
        name: "src_ip",
        offset: 0,
        width: 4,
    },
    FieldSpec {
        name: "dst_ip",
        offset: 4,
        width: 4,
    },
    FieldSpec {
        name: "src_port",
        offset: 8,
        width: 2,
    },
    FieldSpec {
        name: "dst_port",
        offset: 10,
        width: 2,
    },
    FieldSpec {
        name: "proto",
        offset: 12,
        width: 1,
    },
    FieldSpec {
        name: "in_port",
        offset: 13,
        width: 1,
    },
    FieldSpec {
        name: "vlan",
        offset: 14,
        width: 2,
    },
];

impl FieldSpec {
    /// Largest representable value for this field.
    #[must_use]
    pub fn max_value(&self) -> u64 {
        if self.width >= 8 {
            u64::MAX
        } else {
            (1u64 << (self.width * 8)) - 1
        }
    }

    /// Reads this field from a miniflow key (big-endian).
    ///
    /// # Panics
    ///
    /// Panics if `key` is shorter than the miniflow layout.
    #[must_use]
    pub fn extract(&self, key: &FlowKey) -> u64 {
        let bytes = key.as_bytes();
        assert!(bytes.len() >= self.offset + self.width, "key too short");
        bytes[self.offset..self.offset + self.width]
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
    }

    /// Writes `value` into this field of a miniflow byte buffer
    /// (big-endian; high bytes beyond the field width are dropped).
    pub fn write(&self, bytes: &mut [u8; MINIFLOW_LEN], value: u64) {
        for i in 0..self.width {
            let shift = 8 * (self.width - 1 - i);
            bytes[self.offset + i] = ((value >> shift) & 0xFF) as u8;
        }
    }
}

/// An inclusive interval `[lo, hi]` over one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldRange {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl FieldRange {
    /// A range matching exactly one value.
    #[must_use]
    pub fn exact(v: u64) -> Self {
        FieldRange { lo: v, hi: v }
    }

    /// An inclusive interval.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn span(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "inverted range {lo}..={hi}");
        FieldRange { lo, hi }
    }

    /// The full domain of field `field` (wildcard).
    #[must_use]
    pub fn any(field: usize) -> Self {
        FieldRange {
            lo: 0,
            hi: FIELDS[field].max_value(),
        }
    }

    /// Whether `v` lies inside the interval.
    #[must_use]
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the interval pins a single value.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Whether the interval spans field `field`'s whole domain.
    #[must_use]
    pub fn is_any(&self, field: usize) -> bool {
        self.lo == 0 && self.hi == FIELDS[field].max_value()
    }
}

/// A classification rule: one inclusive interval per miniflow field,
/// plus the priority/action pair the table layers already encode.
///
/// Two rules with identical `ranges` describe the *same* match
/// condition; inserting the second replaces the first (mirroring masked
/// key collision in the tuple space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeRule {
    /// Per-field intervals, indexed like [`FIELDS`].
    pub ranges: [FieldRange; NUM_FIELDS],
    /// Match priority (higher wins).
    pub priority: u16,
    /// Action value (must fit in 48 bits for table encoding).
    pub action: u64,
}

impl RangeRule {
    /// An exact-match rule pinning every field to `key`'s values.
    ///
    /// # Panics
    ///
    /// Panics if `key` is shorter than the miniflow layout.
    #[must_use]
    pub fn exact_flow(key: &FlowKey, priority: u16, action: u64) -> Self {
        let mut ranges = [FieldRange::exact(0); NUM_FIELDS];
        for (i, f) in FIELDS.iter().enumerate() {
            ranges[i] = FieldRange::exact(f.extract(key));
        }
        RangeRule {
            ranges,
            priority,
            action,
        }
    }

    /// Whether the rule matches `key` (every field inside its range).
    #[must_use]
    pub fn matches(&self, key: &FlowKey) -> bool {
        FIELDS
            .iter()
            .zip(&self.ranges)
            .all(|(f, r)| r.contains(f.extract(key)))
    }

    /// A miniflow key inside the rule's region (each field at its lower
    /// bound) — useful for generating guaranteed-hit traffic.
    #[must_use]
    pub fn point_key(&self) -> FlowKey {
        let mut bytes = [0u8; MINIFLOW_LEN];
        for (f, r) in FIELDS.iter().zip(&self.ranges) {
            f.write(&mut bytes, r.lo);
        }
        FlowKey::from_bytes(&bytes)
    }

    /// Converts a `(mask, key)` tuple-space rule into range form.
    ///
    /// Returns `None` when the mask is not a per-field prefix (i.e. it
    /// clears bits that are not a contiguous low-order run of some
    /// field) — such masks have no interval equivalent. Every mask
    /// `distinct_masks` generates converts.
    #[must_use]
    pub fn from_masked_key(
        mask: &WildcardMask,
        key: &FlowKey,
        priority: u16,
        action: u64,
    ) -> Option<Self> {
        let mbytes = mask.as_bytes();
        let mut ranges = [FieldRange::exact(0); NUM_FIELDS];
        for (i, f) in FIELDS.iter().enumerate() {
            let max = f.max_value();
            let mval = mbytes[f.offset..f.offset + f.width]
                .iter()
                .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
            let inv = !mval & max;
            // Prefix masks have all their cleared bits low-order:
            // inv + 1 must be a power of two.
            if inv & (inv + 1) != 0 {
                return None;
            }
            let lo = f.extract(key) & mval;
            ranges[i] = FieldRange { lo, hi: lo | inv };
        }
        Some(RangeRule {
            ranges,
            priority,
            action,
        })
    }

    /// Decomposes the rule into TSS-compatible prefix rules: the
    /// cross-product of each field's maximal aligned-prefix cover.
    /// A `w`-bit interval needs at most `2w - 2` prefixes, so the
    /// product can explode — exactly the TSS weakness range-vector
    /// hashing avoids.
    #[must_use]
    pub fn tss_expansion(&self) -> Vec<PrefixRule> {
        // Per-field prefix lists.
        let per_field: Vec<Vec<(u64, u64)>> = FIELDS
            .iter()
            .zip(&self.ranges)
            .map(|(f, r)| prefix_decompose(r.lo, r.hi, f.width * 8))
            .collect();
        let mut out = Vec::new();
        let mut idx = [0usize; NUM_FIELDS];
        loop {
            let mut mask_bytes = [0u8; 16];
            let mut key_bytes = [0u8; MINIFLOW_LEN];
            for (i, f) in FIELDS.iter().enumerate() {
                let (value, fmask) = per_field[i][idx[i]];
                for b in 0..f.width {
                    let shift = 8 * (f.width - 1 - b);
                    mask_bytes[f.offset + b] = ((fmask >> shift) & 0xFF) as u8;
                }
                f.write(&mut key_bytes, value);
            }
            out.push(PrefixRule {
                mask: WildcardMask::from_bytes(&mask_bytes),
                key: FlowKey::from_bytes(&key_bytes),
            });
            // Odometer increment over the per-field lists.
            let mut carry = true;
            for i in (0..NUM_FIELDS).rev() {
                if !carry {
                    break;
                }
                idx[i] += 1;
                if idx[i] < per_field[i].len() {
                    carry = false;
                } else {
                    idx[i] = 0;
                }
            }
            if carry {
                return out;
            }
        }
    }
}

/// One element of a rule's TSS expansion: a `(mask, key)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixRule {
    /// The tuple mask.
    pub mask: WildcardMask,
    /// The masked key to install.
    pub key: FlowKey,
}

/// Greedy maximal-aligned-prefix cover of `[lo, hi]` over a
/// `width_bits`-bit domain: each element is a `(value, mask)` pair
/// where `mask` has its cleared bits low-order.
///
/// # Panics
///
/// Panics if the bounds exceed the field domain or are inverted.
#[must_use]
pub fn prefix_decompose(lo: u64, hi: u64, width_bits: usize) -> Vec<(u64, u64)> {
    let domain_max = if width_bits >= 64 {
        u64::MAX
    } else {
        (1u64 << width_bits) - 1
    };
    assert!(lo <= hi && hi <= domain_max, "bad range {lo}..={hi}");
    let mut out = Vec::new();
    let mut cur = lo;
    loop {
        // Largest power-of-two block starting at `cur`, aligned to its
        // own size, that stays within `hi`.
        let mut size = 1u64;
        while let Some(next) = size.checked_mul(2) {
            if cur & (next - 1) != 0 || next - 1 > hi - cur {
                break;
            }
            size = next;
        }
        let mask = domain_max & !(size - 1);
        out.push((cur, mask));
        if cur + (size - 1) == hi {
            return out;
        }
        cur += size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::distinct_masks;
    use crate::packet::PacketHeader;

    #[test]
    fn field_layout_matches_miniflow() {
        let pkt = PacketHeader::synthetic(123_456);
        let key = pkt.miniflow();
        assert_eq!(FIELDS[0].extract(&key), u64::from(pkt.src_ip));
        assert_eq!(FIELDS[1].extract(&key), u64::from(pkt.dst_ip));
        assert_eq!(FIELDS[2].extract(&key), u64::from(pkt.src_port));
        assert_eq!(FIELDS[3].extract(&key), u64::from(pkt.dst_port));
        assert_eq!(FIELDS[4].extract(&key), u64::from(pkt.proto));
        assert_eq!(FIELDS[5].extract(&key), u64::from(pkt.in_port));
        assert_eq!(FIELDS[6].extract(&key), u64::from(pkt.vlan));
    }

    #[test]
    fn write_round_trips_extract() {
        let mut bytes = [0u8; MINIFLOW_LEN];
        for (i, f) in FIELDS.iter().enumerate() {
            f.write(&mut bytes, (i as u64 + 1) * 3);
        }
        let key = FlowKey::from_bytes(&bytes);
        for (i, f) in FIELDS.iter().enumerate() {
            assert_eq!(f.extract(&key), (i as u64 + 1) * 3, "{}", f.name);
        }
    }

    #[test]
    fn prefix_decompose_covers_exactly() {
        for &(lo, hi, bits) in &[
            (0u64, 0u64, 16usize),
            (0, 65_535, 16),
            (1_024, 2_047, 16),
            (1_000, 1_999, 16),
            (3, 3, 8),
            (1, 254, 8),
            (7, 8, 4),
        ] {
            let parts = prefix_decompose(lo, hi, bits);
            let max_parts = 2 * bits - 2;
            assert!(
                parts.len() <= max_parts.max(1),
                "{lo}..={hi}: {} parts > 2w-2",
                parts.len()
            );
            // Exhaustively confirm cover and disjointness.
            for v in lo.saturating_sub(1)..=(hi + 1).min((1 << bits) - 1) {
                let n = parts.iter().filter(|(val, mask)| v & mask == *val).count();
                let expect = usize::from(v >= lo && v <= hi);
                assert_eq!(n, expect, "{lo}..={hi} at {v}");
            }
        }
    }

    #[test]
    fn aligned_power_of_two_is_one_prefix() {
        assert_eq!(prefix_decompose(1_024, 2_047, 16).len(), 1);
        assert_eq!(prefix_decompose(0, 65_535, 16).len(), 1);
    }

    #[test]
    fn every_distinct_mask_converts_to_ranges() {
        let pkt = PacketHeader::synthetic(42);
        let key = pkt.miniflow();
        for mask in distinct_masks(24) {
            let rule = RangeRule::from_masked_key(&mask, &key, 1, 2)
                .unwrap_or_else(|| panic!("mask {mask:?} should convert"));
            assert!(rule.matches(&key), "rule must match its source key");
            // The rule matches exactly the keys the mask maps to the
            // same masked key.
            let other = PacketHeader::synthetic(43).miniflow();
            assert_eq!(
                rule.matches(&other),
                mask.apply(&other) == mask.apply(&key),
                "mask {mask:?}"
            );
        }
    }

    #[test]
    fn non_prefix_mask_is_rejected() {
        let mut bytes = [0xFFu8; 16];
        bytes[8] = 0b1010_1010; // non-contiguous clear bits in src_port
        let mask = WildcardMask::from_bytes(&bytes);
        let key = PacketHeader::synthetic(1).miniflow();
        assert!(RangeRule::from_masked_key(&mask, &key, 0, 0).is_none());
    }

    #[test]
    fn tss_expansion_matches_rule_semantics() {
        let mut rule = RangeRule::exact_flow(&PacketHeader::synthetic(5).miniflow(), 3, 9);
        rule.ranges[3] = FieldRange::span(1_000, 1_999); // dst_port
        rule.ranges[4] = FieldRange::any(4); // proto
        let expansion = rule.tss_expansion();
        assert!(expansion.len() > 1, "range must need several prefixes");
        // Sample points inside and outside the region.
        for dport in [999u64, 1_000, 1_500, 1_999, 2_000] {
            let mut arr = [0u8; MINIFLOW_LEN];
            arr.copy_from_slice(rule.point_key().as_bytes());
            FIELDS[3].write(&mut arr, dport);
            let key = FlowKey::from_bytes(&arr);
            let direct = rule.matches(&key);
            let via_prefixes = expansion
                .iter()
                .filter(|p| key.masked(p.mask.as_bytes()) == p.key)
                .count();
            assert_eq!(via_prefixes, usize::from(direct), "dport {dport}");
        }
    }

    #[test]
    fn point_key_lands_inside() {
        let mut rule = RangeRule::exact_flow(&PacketHeader::synthetic(8).miniflow(), 1, 1);
        rule.ranges[2] = FieldRange::span(5_000, 6_000);
        assert!(rule.matches(&rule.point_key()));
    }
}
