//! Host-cache hints.
//!
//! The simulator's largest structures (simulated memory pages, the LLC
//! tag and metadata arrays) are far larger than the host's own caches,
//! so walking them pays host cache misses. Where the next few accesses
//! are known ahead of time (the probes of a tuple-space search), a
//! caller can hint them early so their misses overlap.
//!
//! A hint changes no simulated state: it reads nothing, writes nothing
//! and returns nothing, so every simulated number is the same with or
//! without it (DESIGN.md §9 item 10).

/// Asks the host CPU to start loading the cache line holding `value`
/// into its caches. A no-op on targets without a prefetch instruction.
#[inline(always)]
#[allow(unsafe_code)]
pub fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = std::ptr::from_ref(value).cast::<i8>();
        // SAFETY: a prefetch is only a hint. It never faults, even on an
        // invalid address, and it neither reads nor writes memory that
        // the program can observe. The pointer also comes from a live
        // reference, and SSE is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_leaves_the_value_alone() {
        let v = vec![7u64; 64];
        for x in &v {
            prefetch(x);
        }
        prefetch(&v);
        assert!(v.iter().all(|&x| x == 7));
    }
}
