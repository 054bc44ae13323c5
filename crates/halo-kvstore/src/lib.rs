//! # halo-kvstore
//!
//! A MemC3-style in-memory key-value store over the HALO-accelerated
//! cuckoo index — the paper's §4.8 application beyond virtual switches:
//! "MemC3 applied exactly the same cuckoo hash table described in this
//! paper to memcached to achieve higher throughput. We believe HALO can
//! be easily integrated into the aforementioned applications."
//!
//! The store keeps a cuckoo *index* from 16-byte key digests to value
//! handles, and a log-structured *value heap* holding
//! `(key, value)` records in simulated memory. `GET` is one index
//! lookup (software or `LOOKUP_B`) plus the record read on the core;
//! `SET` appends a record and updates the index.
//!
//! # Examples
//!
//! ```
//! use halo_kvstore::KvStore;
//! use halo_mem::{MachineConfig, MemorySystem};
//!
//! let mut sys = MemorySystem::new(MachineConfig::small());
//! let mut kv = KvStore::new(&mut sys, 1024);
//! kv.set(&mut sys, b"user:42", b"alice").unwrap();
//! assert_eq!(kv.get(&mut sys, b"user:42"), Some(b"alice".to_vec()));
//! assert_eq!(kv.get(&mut sys, b"user:43"), None);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use halo_accel::HaloEngine;
use halo_cpu::Program;
use halo_datapath::{LookupBackend, LookupExecutor};
use halo_mem::{Addr, CoreId, MemorySystem, SimMemory, CACHE_LINE};
use halo_sim::Cycle;
use halo_tables::{hash_key, CuckooTable, FlowKey, TableFullError};
use std::fmt;

/// Width of the index key: a 16-byte digest of the full key.
const DIGEST_LEN: usize = 16;

/// Maximum key length accepted by the store.
pub const MAX_KEY: usize = 250; // memcached's limit

/// Maximum value length accepted by the store.
pub const MAX_VALUE: usize = 64 * 1024;

/// Errors returned by store mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// The cuckoo index found no room for the new key.
    IndexFull,
    /// Key or value exceeds the supported size.
    TooLarge,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::IndexFull => write!(f, "key-value index full"),
            KvError::TooLarge => write!(f, "key or value too large"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<TableFullError> for KvError {
    fn from(_: TableFullError) -> Self {
        KvError::IndexFull
    }
}

/// Timing report of a batch of timed operations.
#[derive(Debug, Clone, Copy)]
pub struct KvReport {
    /// Operations performed.
    pub ops: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Average cycles per operation.
    pub cycles_per_op: f64,
}

/// The key-value store.
#[derive(Debug)]
pub struct KvStore {
    index: CuckooTable,
    items: usize,
}

fn digest(key: &[u8]) -> FlowKey {
    let mut probe = [0u8; DIGEST_LEN];
    let head: &[u8] = if key.is_empty() {
        &[0]
    } else {
        &key[..key.len().min(64)]
    };
    let k = FlowKey::from_bytes(head);
    // Two independent 64-bit hashes make a 128-bit digest; for keys
    // longer than 64 bytes, fold the tail in.
    let mut h1 = hash_key(&k, 0xD1CE_5EED);
    let mut h2 = hash_key(&k, 0x0B5E_55ED);
    for chunk in key[key.len().min(64)..].chunks(8) {
        let mut b = [0u8; 8];
        b[..chunk.len()].copy_from_slice(chunk);
        let v = u64::from_le_bytes(b);
        h1 = h1.rotate_left(31) ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h2 = h2.rotate_left(17) ^ v.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    }
    probe[..8].copy_from_slice(&h1.to_le_bytes());
    probe[8..].copy_from_slice(&h2.to_le_bytes());
    FlowKey::from_bytes(&probe)
}

/// Value-heap record layout: `key_len u16 | val_len u32 | key | value`.
fn record_size(key: &[u8], value: &[u8]) -> u64 {
    (6 + key.len() + value.len()) as u64
}

fn write_record(mem: &mut SimMemory, key: &[u8], value: &[u8]) -> Addr {
    let a = mem.alloc(record_size(key, value), 8);
    mem.write_u16(a, key.len() as u16);
    mem.write_u32(a + 2, value.len() as u32);
    mem.write_bytes(a + 6, key);
    mem.write_bytes(a + 6 + key.len() as u64, value);
    a
}

fn read_record(mem: &mut SimMemory, a: Addr) -> (Vec<u8>, Vec<u8>) {
    let klen = mem.read_u16(a) as usize;
    let vlen = mem.read_u32(a + 2) as usize;
    let mut key = vec![0u8; klen];
    mem.read_bytes(a + 6, &mut key);
    let mut val = vec![0u8; vlen];
    mem.read_bytes(a + 6 + klen as u64, &mut val);
    (key, val)
}

impl KvStore {
    /// Creates a store sized for about `capacity` items.
    pub fn new(sys: &mut MemorySystem, capacity: usize) -> Self {
        let index = CuckooTable::with_capacity_for(sys.data_mut(), capacity, 0.85, DIGEST_LEN);
        KvStore { index, items: 0 }
    }

    /// Number of stored items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// The underlying cuckoo index (e.g. for warming its lines).
    #[must_use]
    pub fn index(&self) -> &CuckooTable {
        &self.index
    }

    /// Stores `key -> value` (overwriting any previous value).
    ///
    /// # Errors
    ///
    /// [`KvError::TooLarge`] for oversized inputs, [`KvError::IndexFull`]
    /// when the cuckoo index has no room.
    pub fn set(&mut self, sys: &mut MemorySystem, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        if key.is_empty() || key.len() > MAX_KEY || value.len() > MAX_VALUE {
            return Err(KvError::TooLarge);
        }
        let d = digest(key);
        let existed = self.index.lookup(sys.data_mut(), &d).is_some();
        // Log-structured heap: always append a fresh record (stale
        // records are garbage, reclaimed by compaction in a real store).
        let rec = write_record(sys.data_mut(), key, value);
        self.index.insert(sys.data_mut(), &d, rec.0)?;
        if !existed {
            self.items += 1;
        }
        Ok(())
    }

    /// Fetches `key`'s value (functional).
    #[must_use]
    pub fn get(&self, sys: &mut MemorySystem, key: &[u8]) -> Option<Vec<u8>> {
        let d = digest(key);
        let handle = self.index.lookup(sys.data_mut(), &d)?;
        let (k, v) = read_record(sys.data_mut(), Addr(handle));
        // Digest collision guard: verify the full key.
        (k == key).then_some(v)
    }

    /// Deletes `key`; returns whether it existed.
    pub fn delete(&mut self, sys: &mut MemorySystem, key: &[u8]) -> bool {
        let d = digest(key);
        if self.index.remove(sys.data_mut(), &d).is_some() {
            self.items -= 1;
            true
        } else {
            false
        }
    }

    /// Pre-loads the index and warms nothing else (records stream).
    pub fn warm_index(&self, sys: &mut MemorySystem) {
        for a in self.index.all_lines().collect::<Vec<_>>() {
            sys.warm_llc(a);
        }
    }

    /// Builds the core-side program that reads a value record of
    /// `value_len` bytes at `rec` (dependent line loads).
    fn record_read_program(rec: Addr, key_len: usize, value_len: usize) -> Program {
        let mut p = Program::new();
        let lines = (6 + key_len + value_len).div_ceil(CACHE_LINE as usize);
        let mut dep = None;
        for i in 0..lines {
            let id = p.load(rec + (i as u64) * CACHE_LINE, dep.as_slice());
            if i == 0 {
                dep = Some(id); // header load gates the rest
            }
        }
        // memcpy-ish per-line work + key verification.
        p.compute_run(1, lines * 4 + 8);
        p
    }

    /// Timed GET with a software index lookup on `exec`'s core. Returns
    /// the value and the completion cycle.
    pub fn get_timed_sw(
        &self,
        sys: &mut MemorySystem,
        exec: &mut LookupExecutor,
        key: &[u8],
        at: Cycle,
    ) -> (Option<Vec<u8>>, Cycle) {
        let d = digest(key);
        let tr = self.index.lookup_traced(sys.data_mut(), &d, true);
        let mut t = exec.run_sw(sys, &tr, None, at);
        let value = match tr.result {
            Some(handle) => {
                let (k, v) = read_record(sys.data_mut(), Addr(handle));
                let read = Self::record_read_program(Addr(handle), k.len(), v.len());
                t = exec.run(&read, sys, t).finish;
                (k == key).then_some(v)
            }
            None => None,
        };
        (value, t)
    }

    /// Timed GET with a HALO `LOOKUP_B` index lookup; the value record is
    /// still read by the core through the returned handle.
    pub fn get_timed_halo(
        &self,
        sys: &mut MemorySystem,
        engine: &mut HaloEngine,
        exec: &mut LookupExecutor,
        key: &[u8],
        at: Cycle,
    ) -> (Option<Vec<u8>>, Cycle) {
        let d = digest(key);
        let (handle, mut t) = engine.lookup_b(sys, exec.core_id(), &self.index, &d, None, at);
        let value = match handle {
            Some(handle) => {
                let (k, v) = read_record(sys.data_mut(), Addr(handle));
                let read = Self::record_read_program(Addr(handle), k.len(), v.len());
                t = exec.run(&read, sys, t).finish;
                (k == key).then_some(v)
            }
            None => None,
        };
        (value, t)
    }

    /// Runs `n` timed GETs over keys produced by `keygen`, returning the
    /// report. `engine` selects the HALO path; `None` is software.
    pub fn bench_gets<F: FnMut(u64) -> Vec<u8>>(
        &self,
        sys: &mut MemorySystem,
        mut engine: Option<&mut HaloEngine>,
        core_id: CoreId,
        mut keygen: F,
        n: u64,
    ) -> KvReport {
        let mut exec = LookupExecutor::new(sys, core_id, LookupBackend::Software);
        exec.warm_scratch(sys);
        let mut t = Cycle(0);
        let start = t;
        for i in 0..n {
            let key = keygen(i);
            let (v, done) = match engine.as_deref_mut() {
                Some(e) => self.get_timed_halo(sys, e, &mut exec, &key, t),
                None => self.get_timed_sw(sys, &mut exec, &key, t),
            };
            debug_assert!(v.is_some(), "bench keys must exist");
            t = done;
        }
        let cycles = (t - start).0;
        KvReport {
            ops: n,
            cycles,
            cycles_per_op: cycles as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_accel::AcceleratorConfig;
    use halo_mem::MachineConfig;

    fn setup() -> (MemorySystem, KvStore) {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let kv = KvStore::new(&mut sys, 4096);
        (sys, kv)
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let (mut sys, mut kv) = setup();
        kv.set(&mut sys, b"alpha", b"1").unwrap();
        kv.set(&mut sys, b"beta", b"two").unwrap();
        assert_eq!(kv.get(&mut sys, b"alpha"), Some(b"1".to_vec()));
        assert_eq!(kv.get(&mut sys, b"beta"), Some(b"two".to_vec()));
        assert_eq!(kv.len(), 2);
        assert!(kv.delete(&mut sys, b"alpha"));
        assert!(!kv.delete(&mut sys, b"alpha"));
        assert_eq!(kv.get(&mut sys, b"alpha"), None);
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn overwrite_updates_value() {
        let (mut sys, mut kv) = setup();
        kv.set(&mut sys, b"k", b"old").unwrap();
        kv.set(&mut sys, b"k", b"new-and-longer").unwrap();
        assert_eq!(kv.get(&mut sys, b"k"), Some(b"new-and-longer".to_vec()));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn large_values_span_lines() {
        let (mut sys, mut kv) = setup();
        let big = vec![0xAB; 4096];
        kv.set(&mut sys, b"big", &big).unwrap();
        assert_eq!(kv.get(&mut sys, b"big"), Some(big));
    }

    #[test]
    fn long_keys_supported() {
        let (mut sys, mut kv) = setup();
        let key = vec![7u8; 200];
        kv.set(&mut sys, &key, b"deep").unwrap();
        assert_eq!(kv.get(&mut sys, &key), Some(b"deep".to_vec()));
        // Similar but different long key misses.
        let mut other = key.clone();
        other[199] = 8;
        assert_eq!(kv.get(&mut sys, &other), None);
    }

    #[test]
    fn size_limits_enforced() {
        let (mut sys, mut kv) = setup();
        assert_eq!(
            kv.set(&mut sys, &vec![0u8; MAX_KEY + 1], b"v"),
            Err(KvError::TooLarge)
        );
        assert_eq!(
            kv.set(&mut sys, b"k", &vec![0u8; MAX_VALUE + 1]),
            Err(KvError::TooLarge)
        );
        assert_eq!(kv.set(&mut sys, b"", b"v"), Err(KvError::TooLarge));
    }

    #[test]
    fn halo_gets_match_software_and_are_faster() {
        let mut sys = MemorySystem::new(MachineConfig::default());
        let mut kv = KvStore::new(&mut sys, 20_000);
        for i in 0..10_000u64 {
            kv.set(
                &mut sys,
                format!("key-{i}").as_bytes(),
                format!("value-{i}").as_bytes(),
            )
            .unwrap();
        }
        kv.warm_index(&mut sys);
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let sw = kv.bench_gets(
            &mut sys,
            None,
            CoreId(0),
            |i| format!("key-{}", i % 10_000).into_bytes(),
            100,
        );
        let hw = kv.bench_gets(
            &mut sys,
            Some(&mut engine),
            CoreId(1),
            |i| format!("key-{}", i % 10_000).into_bytes(),
            100,
        );
        assert!(
            hw.cycles_per_op < sw.cycles_per_op,
            "halo {} must beat software {}",
            hw.cycles_per_op,
            sw.cycles_per_op
        );
    }

    #[test]
    fn functional_get_consistency_with_timed_paths() {
        let mut sys = MemorySystem::new(MachineConfig::small());
        let mut kv = KvStore::new(&mut sys, 512);
        for i in 0..200u64 {
            kv.set(&mut sys, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let mut engine = HaloEngine::new(&sys, AcceleratorConfig::default());
        let mut exec = LookupExecutor::new(&mut sys, CoreId(0), LookupBackend::Software);
        for i in (0..200u64).step_by(17) {
            let key = format!("k{i}");
            let expect = kv.get(&mut sys, key.as_bytes());
            let (sw, _) = kv.get_timed_sw(&mut sys, &mut exec, key.as_bytes(), Cycle(0));
            let (hw, _) =
                kv.get_timed_halo(&mut sys, &mut engine, &mut exec, key.as_bytes(), Cycle(0));
            assert_eq!(sw, expect);
            assert_eq!(hw, expect);
        }
    }
}
