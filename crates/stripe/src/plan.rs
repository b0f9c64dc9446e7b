//! The shared chunk claim queue.
//!
//! The socket-backed striped client (`ir-relay`) partitions the
//! remainder with `ir_core::partition` and shares a [`ChunkQueue`]
//! between per-path worker threads, each claiming the next chunk with
//! one atomic increment.

use ir_core::ChunkRange;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A lock-free multi-claimer chunk queue: each worker thread claims the
/// next unclaimed chunk with one `fetch_add`, so every chunk is claimed
/// exactly once no matter how claims interleave (model-checked under
/// loom in `tests/permutation.rs`).
#[derive(Debug)]
pub struct ChunkQueue {
    chunks: Vec<ChunkRange>,
    next: AtomicUsize,
}

impl ChunkQueue {
    /// A queue over a fixed chunk list.
    pub fn new(chunks: Vec<ChunkRange>) -> ChunkQueue {
        ChunkQueue {
            chunks,
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next unclaimed chunk, or `None` once all are taken.
    pub fn claim(&self) -> Option<ChunkRange> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.chunks.get(i).copied()
    }

    /// Total chunks (claimed or not).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the queue was built over no chunks at all.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_core::partition;

    #[test]
    fn queue_claims_each_chunk_once_in_order() {
        let q = ChunkQueue::new(partition(0, 100, 4));
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        let ids: Vec<u32> = std::iter::from_fn(|| q.claim().map(|c| c.id)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(q.claim().is_none(), "exhausted queue stays exhausted");
    }
}
