//! Breadth-first cuckoo displacement-path search for
//! [`CuckooTable`](crate::CuckooTable) inserts.
//!
//! The search itself only reads bucket entries and resident keys; the
//! bookkeeping applied while *shifting* residents along the found path
//! (a Cuckoo++ table also maintains its presence filters) stays in the
//! table.

use crate::hash::bucket_pair;
use crate::layout::{TableMeta, ENTRIES_PER_BUCKET};
use halo_mem::SimMemory;
use std::collections::VecDeque;

/// BFS over bucket entries: find a chain `(b1,e1) <- ... <- (bk,ek)`
/// where the last entry's resident can move to a bucket with a free
/// slot. Returns the chain (first element is the slot that will be
/// freed for the new key, last element is the currently-free entry),
/// or `None` once more than `limit` nodes have been explored.
pub(crate) fn find_displacement_path(
    meta: &TableMeta,
    mem: &mut SimMemory,
    start: u64,
    limit: usize,
) -> Option<Vec<(u64, usize)>> {
    #[derive(Clone, Copy)]
    struct Node {
        bucket: u64,
        entry: usize,
        parent: i32,
    }
    let mut nodes: Vec<Node> = Vec::with_capacity(256);
    let mut queue: VecDeque<i32> = VecDeque::new();
    for e in 0..ENTRIES_PER_BUCKET {
        nodes.push(Node {
            bucket: start,
            entry: e,
            parent: -1,
        });
        queue.push_back(nodes.len() as i32 - 1);
    }
    while let Some(ni) = queue.pop_front() {
        if nodes.len() > limit {
            return None;
        }
        let node = nodes[ni as usize];
        let (_, idx) = meta.read_entry(mem, node.bucket, node.entry);
        let resident = meta.read_kv_key(mem, idx);
        let (r1, r2) = bucket_pair(&resident, meta.buckets);
        let alt = if r1 == node.bucket { r2 } else { r1 };
        // Does the alternative bucket have a free entry?
        for e in 0..ENTRIES_PER_BUCKET {
            let (s, _) = meta.read_entry(mem, alt, e);
            if s == 0 {
                // Reconstruct path: from this node back to the root.
                let mut path = vec![(alt, e)];
                let mut cur = ni;
                while cur >= 0 {
                    let n = nodes[cur as usize];
                    path.push((n.bucket, n.entry));
                    cur = n.parent;
                }
                path.reverse(); // root .. alt-free-slot
                return Some(path);
            }
        }
        // Enqueue the alternative bucket's entries.
        for e in 0..ENTRIES_PER_BUCKET {
            nodes.push(Node {
                bucket: alt,
                entry: e,
                parent: ni,
            });
            queue.push_back(nodes.len() as i32 - 1);
        }
    }
    None
}
