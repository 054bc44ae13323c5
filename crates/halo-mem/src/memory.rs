//! Simulated physical memory: a sparse, paged byte store plus a bump
//! allocator.
//!
//! All simulated data structures (hash tables, key-value arrays, packet
//! buffers) live in a [`SimMemory`] so that the cache model can observe
//! the *real* addresses the algorithms touch.
//!
//! Pages are found through a directory indexed by page number (a `Vec`
//! of optional page pointers), not a hash map: every table probe in the
//! simulator reads simulated memory, and a bounds-checked index is far
//! cheaper than hashing the page number. The bump allocator hands out
//! dense addresses from one line up, so the directory stays as long as
//! the highest page ever written (a few thousand slots of 8 bytes for
//! the largest workloads). Reads past its end, or of slots never
//! written, return zeros without growing it (DESIGN.md §9 item 7).

use crate::addr::{Addr, CACHE_LINE};
use halo_sim::hint;

const PAGE_SHIFT: u64 = 16; // 64 KiB pages
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// One materialized page. A fixed-size array keeps the directory slot a
/// thin pointer (8 bytes, with `None` as null).
type Page = Box<[u8; PAGE_SIZE as usize]>;

/// Sparse simulated physical memory with a bump allocator.
///
/// Pages are materialized on first write and zero-filled, so multi-GiB
/// table layouts cost only what they actually touch.
///
/// # Examples
///
/// ```
/// use halo_mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// let a = mem.alloc(16, 8);
/// mem.write_u64(a, 0xdead_beef);
/// assert_eq!(mem.read_u64(a), 0xdead_beef);
/// ```
#[derive(Debug, Default)]
pub struct SimMemory {
    /// Page directory indexed by page number; `None` = never written.
    pages: Vec<Option<Page>>,
    /// Number of `Some` slots in `pages`.
    resident: usize,
    /// Next free byte for the bump allocator. Starts at one line so that
    /// address 0 stays a null sentinel.
    brk: u64,
}

impl SimMemory {
    /// Creates an empty memory.
    #[must_use]
    pub fn new() -> Self {
        SimMemory {
            pages: Vec::new(),
            resident: 0,
            brk: CACHE_LINE,
        }
    }

    /// Allocates `size` bytes aligned to `align` (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, size: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        self.brk = base + size.max(1);
        Addr(base)
    }

    /// Allocates `size` bytes aligned to a cache line.
    pub fn alloc_lines(&mut self, size: u64) -> Addr {
        self.alloc(size, CACHE_LINE)
    }

    /// Total bytes handed out by the allocator.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.brk
    }

    /// Number of pages actually materialized.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// The page containing `addr`, materialized (zero-filled) if absent.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let idx = usize::try_from(addr >> PAGE_SHIFT).expect("page number exceeds usize");
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        let slot = &mut self.pages[idx];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| {
            // Zeroed heap allocation, never a stack temporary.
            vec![0u8; PAGE_SIZE as usize]
                .into_boxed_slice()
                .try_into()
                .expect("page buffer has PAGE_SIZE bytes")
        })
    }

    /// The page containing `addr`, if it was ever written.
    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let idx = usize::try_from(addr >> PAGE_SHIFT).ok()?;
        self.pages.get(idx)?.as_deref()
    }

    /// Hints the host bytes of the simulated line holding `addr` into
    /// the host's caches, ahead of a read. Pages never written (and
    /// addresses past the directory) have no host bytes, so they are
    /// skipped. Changes nothing a read could observe.
    #[inline]
    pub fn prefetch(&self, addr: Addr) {
        let line = addr.0 & !(CACHE_LINE - 1);
        if let Some(page) = self.page(line) {
            // Pages are not line-aligned on the host, so one simulated
            // line may straddle two host lines: hint both ends.
            let off = (line % PAGE_SIZE) as usize;
            hint::prefetch(&page[off]);
            hint::prefetch(&page[off + CACHE_LINE as usize - 1]);
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// Pages never written read as zeros without being materialized, so
    /// read-only probes (and concurrent epoch-window readers) leave the
    /// page directory untouched.
    #[inline]
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < buf.len() {
            let in_page = (PAGE_SIZE - (pos % PAGE_SIZE)) as usize;
            let n = in_page.min(buf.len() - done);
            let off = (pos % PAGE_SIZE) as usize;
            match self.page(pos) {
                Some(page) => buf[done..done + n].copy_from_slice(&page[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            pos += n as u64;
            done += n;
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, data: &[u8]) {
        let mut pos = addr.0;
        let mut done = 0usize;
        while done < data.len() {
            let in_page = (PAGE_SIZE - (pos % PAGE_SIZE)) as usize;
            let n = in_page.min(data.len() - done);
            let off = (pos % PAGE_SIZE) as usize;
            let page = self.page_mut(pos);
            page[off..off + n].copy_from_slice(&data[done..done + n]);
            pos += n as u64;
            done += n;
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, v: u32) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: Addr) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(addr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, v: u16) {
        self.write_bytes(addr, &v.to_le_bytes());
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let mut b = [0u8; 1];
        self.read_bytes(addr, &mut b);
        b[0]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: Addr, v: u8) {
        self.write_bytes(addr, &[v]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(3, 1);
        let b = mem.alloc(8, 64);
        assert_eq!(b.0 % 64, 0);
        assert!(b.0 >= a.0 + 3);
    }

    #[test]
    fn alloc_never_returns_null() {
        let mut mem = SimMemory::new();
        assert!(!mem.alloc(1, 1).is_null());
    }

    #[test]
    fn scalar_roundtrips() {
        let mut mem = SimMemory::new();
        let a = mem.alloc(32, 8);
        mem.write_u64(a, u64::MAX - 5);
        mem.write_u32(a + 8, 77);
        mem.write_u16(a + 12, 999);
        mem.write_u8(a + 14, 42);
        assert_eq!(mem.read_u64(a), u64::MAX - 5);
        assert_eq!(mem.read_u32(a + 8), 77);
        assert_eq!(mem.read_u16(a + 12), 999);
        assert_eq!(mem.read_u8(a + 14), 42);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = SimMemory::new();
        let near_boundary = Addr(PAGE_SIZE - 3);
        let data = [1u8, 2, 3, 4, 5, 6];
        mem.write_bytes(near_boundary, &data);
        let mut back = [0u8; 6];
        mem.read_bytes(near_boundary, &mut back);
        assert_eq!(back, data);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn untouched_memory_is_zero() {
        let mem = SimMemory::new();
        assert_eq!(mem.read_u64(Addr(123_456)), 0);
        // Reads must not materialize pages.
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn sparse_allocation_is_cheap() {
        let mut mem = SimMemory::new();
        // "Allocate" a gigabyte; touch only a few bytes.
        let a = mem.alloc(1 << 30, 64);
        mem.write_u8(a, 1);
        assert!(mem.resident_pages() <= 2);
        assert!(mem.allocated() > 1 << 30);
    }

    #[test]
    fn prefetch_reads_and_materializes_nothing() {
        let mut mem = SimMemory::new();
        let a = mem.alloc_lines(256);
        mem.write_u64(a, 9);
        // A resident line, a line near a page end, a page never written,
        // and an address far past the page directory.
        for probe in [
            a,
            a + 200,
            Addr(PAGE_SIZE - 1),
            Addr(40 * PAGE_SIZE),
            Addr(u64::MAX - 7),
        ] {
            mem.prefetch(probe);
        }
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_u64(a), 9);
        assert_eq!(mem.read_u64(Addr(40 * PAGE_SIZE)), 0);
    }
}
