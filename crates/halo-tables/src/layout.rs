//! On-"chip" memory layout of a flow hash table (DPDK `rte_hash` style).
//!
//! ```text
//! metadata line (64 B)    bucket array                 key-value array
//! +------------------+    +--------------------+      +----------------+
//! | buckets, keylen, |    | bucket 0   (64 B)  |      | slot 0         |
//! | bucket_base,     |    |  8 x sig (u16)     |      |  key bytes     |
//! | kv_base, ...     |    |  8 x kv index (u32)|      |  value (u64)   |
//! +------------------+    | bucket 1 ...       |      | slot 1 ...     |
//! ```
//!
//! Each bucket occupies exactly one cache line (§2.2 of the paper); the
//! signature is a 16-bit hash digest and the index points into the
//! key-value array, which stores the full key and the attached value.

use crate::key::{FlowKey, MAX_KEY_LEN};
use halo_mem::{Addr, SimMemory, CACHE_LINE};

/// Entries per bucket (8-way set-associative buckets, the DPDK default
/// the paper evaluates).
pub const ENTRIES_PER_BUCKET: usize = 8;

/// Byte offset of the kv-index array inside a bucket line.
const BUCKET_IDX_OFF: u64 = 16;

/// Table metadata as stored in (and read back from) the metadata line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableMeta {
    /// Number of buckets (power of two).
    pub buckets: u64,
    /// Key length in bytes.
    pub key_len: u32,
    /// Size of one key-value slot in bytes (64 or 128).
    pub kv_slot: u32,
    /// Base address of the bucket array.
    pub bucket_base: Addr,
    /// Base address of the key-value array.
    pub kv_base: Addr,
}

impl TableMeta {
    /// Serializes into the metadata line at `addr`.
    pub fn store(&self, mem: &mut SimMemory, addr: Addr) {
        mem.write_u64(addr, self.buckets);
        mem.write_u32(addr + 8, self.key_len);
        mem.write_u32(addr + 12, self.kv_slot);
        mem.write_u64(addr + 16, self.bucket_base.0);
        mem.write_u64(addr + 24, self.kv_base.0);
    }

    /// Deserializes from the metadata line at `addr`.
    #[must_use]
    pub fn load(mem: &SimMemory, addr: Addr) -> TableMeta {
        TableMeta {
            buckets: mem.read_u64(addr),
            key_len: mem.read_u32(addr + 8),
            kv_slot: mem.read_u32(addr + 12),
            bucket_base: Addr(mem.read_u64(addr + 16)),
            kv_base: Addr(mem.read_u64(addr + 24)),
        }
    }

    /// Key-value slot size for a given key length.
    #[must_use]
    pub fn kv_slot_for(key_len: usize) -> u32 {
        if key_len <= 48 {
            64
        } else {
            128
        }
    }

    /// Address of bucket `b`.
    #[must_use]
    pub fn bucket_addr(&self, b: u64) -> Addr {
        debug_assert!(b < self.buckets);
        self.bucket_base + b * CACHE_LINE
    }

    /// Address of key-value slot `idx`.
    #[must_use]
    pub fn kv_addr(&self, idx: u32) -> Addr {
        self.kv_base + u64::from(idx) * u64::from(self.kv_slot)
    }

    /// Addresses of one bucket entry's signature and kv-index fields.
    #[must_use]
    pub fn entry_addrs(&self, b: u64, e: usize) -> (Addr, Addr) {
        let base = self.bucket_addr(b);
        (
            base + (e as u64) * 2,
            base + BUCKET_IDX_OFF + (e as u64) * 4,
        )
    }

    /// Reads bucket entry `e` of bucket `b`: `(signature, kv index)`.
    /// A zero signature means the entry is empty.
    #[must_use]
    pub fn read_entry(&self, mem: &SimMemory, b: u64, e: usize) -> (u16, u32) {
        let (sa, ia) = self.entry_addrs(b, e);
        (mem.read_u16(sa), mem.read_u32(ia))
    }

    /// Reads all of bucket `b` with one line-sized read: the eight
    /// signatures and the eight kv indices, in entry order. Entry `e` of
    /// the result equals [`read_entry`](Self::read_entry)`(mem, b, e)`.
    #[must_use]
    pub fn read_bucket(
        &self,
        mem: &SimMemory,
        b: u64,
    ) -> ([u16; ENTRIES_PER_BUCKET], [u32; ENTRIES_PER_BUCKET]) {
        let mut line = [0u8; CACHE_LINE as usize];
        mem.read_bytes(self.bucket_addr(b), &mut line);
        let sigs = std::array::from_fn(|e| u16::from_le_bytes([line[2 * e], line[2 * e + 1]]));
        let idxs = std::array::from_fn(|e| {
            let i = BUCKET_IDX_OFF as usize + 4 * e;
            u32::from_le_bytes([line[i], line[i + 1], line[i + 2], line[i + 3]])
        });
        (sigs, idxs)
    }

    /// Writes bucket entry `e` of bucket `b`.
    pub fn write_entry(&self, mem: &mut SimMemory, b: u64, e: usize, sig: u16, idx: u32) {
        let (sa, ia) = self.entry_addrs(b, e);
        mem.write_u16(sa, sig);
        mem.write_u32(ia, idx);
    }

    /// Clears bucket entry `e` of bucket `b`.
    pub fn clear_entry(&self, mem: &mut SimMemory, b: u64, e: usize) {
        self.write_entry(mem, b, e, 0, 0);
    }

    /// Writes key-value slot `idx`.
    pub fn write_kv(&self, mem: &mut SimMemory, idx: u32, key: &FlowKey, value: u64) {
        let a = self.kv_addr(idx);
        mem.write_bytes(a, key.as_bytes());
        mem.write_u64(a + (u64::from(self.kv_slot) - 16), value);
        mem.write_u8(a + (u64::from(self.kv_slot) - 8), 1); // occupied
    }

    /// Reads the key stored in slot `idx`.
    #[must_use]
    pub fn read_kv_key(&self, mem: &SimMemory, idx: u32) -> FlowKey {
        let key_len = self.key_len as usize;
        let mut buf = [0u8; MAX_KEY_LEN];
        mem.read_bytes(self.kv_addr(idx), &mut buf[..key_len]);
        FlowKey::from_bytes(&buf[..key_len])
    }

    /// Reads the value stored in slot `idx`.
    #[must_use]
    pub fn read_kv_value(&self, mem: &SimMemory, idx: u32) -> u64 {
        mem.read_u64(self.kv_addr(idx) + (u64::from(self.kv_slot) - 16))
    }

    /// Updates just the value of slot `idx`.
    pub fn write_kv_value(&self, mem: &mut SimMemory, idx: u32, value: u64) {
        mem.write_u64(self.kv_addr(idx) + (u64::from(self.kv_slot) - 16), value);
    }

    /// Clears slot `idx`'s occupied flag.
    pub fn clear_kv(&self, mem: &mut SimMemory, idx: u32) {
        mem.write_u8(self.kv_addr(idx) + (u64::from(self.kv_slot) - 8), 0);
    }

    /// Total bytes occupied by the table (metadata + buckets + kv array).
    #[must_use]
    pub fn footprint(&self) -> u64 {
        CACHE_LINE
            + self.buckets * CACHE_LINE
            + self.buckets * ENTRIES_PER_BUCKET as u64 * u64::from(self.kv_slot)
    }
}

/// Bucket count (a power of two) that holds `flows` entries at
/// `occupancy` (e.g. 0.9): the one sizing rule of every cuckoo-family
/// table, so ablations compare equal-capacity tables.
///
/// # Panics
///
/// Panics if `occupancy` is not in `(0, 1]`.
#[must_use]
pub fn buckets_for(flows: usize, occupancy: f64) -> u64 {
    assert!(occupancy > 0.0 && occupancy <= 1.0);
    let slots_needed = (flows as f64 / occupancy).ceil() as u64;
    (slots_needed / ENTRIES_PER_BUCKET as u64)
        .max(1)
        .next_power_of_two()
}

/// Allocates a table layout in `mem` and returns its metadata (already
/// stored at `meta_addr`).
///
/// # Panics
///
/// Panics if `buckets` is not a power of two or `key_len` exceeds
/// [`MAX_KEY_LEN`].
pub fn allocate_table(mem: &mut SimMemory, buckets: u64, key_len: usize) -> (Addr, TableMeta) {
    assert!(buckets.is_power_of_two(), "bucket count must be 2^n");
    assert!(key_len <= MAX_KEY_LEN);
    let meta_addr = mem.alloc_lines(CACHE_LINE);
    let bucket_base = mem.alloc_lines(buckets * CACHE_LINE);
    let kv_slot = TableMeta::kv_slot_for(key_len);
    let slots = buckets * ENTRIES_PER_BUCKET as u64;
    let kv_base = mem.alloc_lines(slots * u64::from(kv_slot));
    let meta = TableMeta {
        buckets,
        key_len: key_len as u32,
        kv_slot,
        bucket_base,
        kv_base,
    };
    meta.store(mem, meta_addr);
    (meta_addr, meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let mut mem = SimMemory::new();
        let (addr, meta) = allocate_table(&mut mem, 64, 13);
        let back = TableMeta::load(&mem, addr);
        assert_eq!(meta, back);
    }

    #[test]
    fn bucket_is_one_line() {
        let mut mem = SimMemory::new();
        let (_, meta) = allocate_table(&mut mem, 8, 13);
        let a = meta.bucket_addr(0);
        let b = meta.bucket_addr(1);
        assert_eq!(b.0 - a.0, CACHE_LINE);
        assert_eq!(a.line_offset(), 0);
    }

    #[test]
    fn entry_roundtrip() {
        let mut mem = SimMemory::new();
        let (_, meta) = allocate_table(&mut mem, 8, 13);
        meta.write_entry(&mut mem, 3, 5, 0xBEEF, 42);
        assert_eq!(meta.read_entry(&mem, 3, 5), (0xBEEF, 42));
        meta.clear_entry(&mut mem, 3, 5);
        assert_eq!(meta.read_entry(&mem, 3, 5), (0, 0));
    }

    #[test]
    fn entries_do_not_overlap() {
        let mut mem = SimMemory::new();
        let (_, meta) = allocate_table(&mut mem, 8, 13);
        for e in 0..ENTRIES_PER_BUCKET {
            meta.write_entry(&mut mem, 0, e, 100 + e as u16, 200 + e as u32);
        }
        for e in 0..ENTRIES_PER_BUCKET {
            assert_eq!(
                meta.read_entry(&mem, 0, e),
                (100 + e as u16, 200 + e as u32)
            );
        }
    }

    #[test]
    fn kv_roundtrip_short_key() {
        let mut mem = SimMemory::new();
        let (_, meta) = allocate_table(&mut mem, 8, 13);
        let k = FlowKey::synthetic(7, 13);
        meta.write_kv(&mut mem, 9, &k, 0xDEAD);
        assert_eq!(meta.read_kv_key(&mem, 9), k);
        assert_eq!(meta.read_kv_value(&mem, 9), 0xDEAD);
    }

    #[test]
    fn kv_roundtrip_long_key_uses_two_lines() {
        let mut mem = SimMemory::new();
        let (_, meta) = allocate_table(&mut mem, 8, 64);
        assert_eq!(meta.kv_slot, 128);
        let k = FlowKey::synthetic(1234, 64);
        meta.write_kv(&mut mem, 3, &k, 55);
        assert_eq!(meta.read_kv_key(&mem, 3), k);
        assert_eq!(meta.read_kv_value(&mem, 3), 55);
    }

    #[test]
    fn footprint_accounts_all_arrays() {
        let mut mem = SimMemory::new();
        let (_, meta) = allocate_table(&mut mem, 1024, 13);
        // 64 + 1024*64 + 8192*64
        assert_eq!(meta.footprint(), 64 + 65536 + 524_288);
    }
}
