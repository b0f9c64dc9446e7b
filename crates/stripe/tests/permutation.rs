#![cfg(loom)]
//! Loom model test for the shared chunk claim queue.
//!
//! The socket-backed striped client (`ir-relay`) shares one
//! [`ChunkQueue`] between per-path worker threads; each worker loops
//! `claim()` until the queue runs dry. Under the loom shim every
//! thread completion order is explored: in all of them, every chunk
//! must be claimed exactly once and no worker may observe a chunk
//! twice — the invariant the byte-identical reassembly rests on.

use ir_core::partition;
use ir_stripe::ChunkQueue;
use loom::sync::{Arc, Mutex};

#[test]
fn every_chunk_claimed_exactly_once_under_all_orders() {
    loom::model(|| {
        let queue = Arc::new(ChunkQueue::new(partition(131_072, 1_965_056, 5)));
        let claimed = Arc::new(Mutex::new(Vec::new()));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let claimed = Arc::clone(&claimed);
                loom::thread::spawn(move || {
                    let mut mine = 0usize;
                    while let Some(chunk) = queue.claim() {
                        claimed.lock().unwrap().push(chunk.id);
                        mine += 1;
                    }
                    mine
                })
            })
            .collect();
        let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 5, "five chunks, five claims");
        let mut ids = claimed.lock().unwrap().clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4], "each chunk claimed exactly once");
    });
}
