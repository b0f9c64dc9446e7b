//! Chunk partitioning for the striped remainder.
//!
//! [`partition`] splits the remainder range into near-equal chunks,
//! the queue the striped scheduler (`remainder`) hands to its paths —
//! over the simulator and over real sockets alike.

/// One contiguous byte range of the transfer, identified by its
/// position in the original partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// Index in the original partition (stable across rebalancing — a
    /// reassigned remainder keeps its chunk id).
    pub id: u32,
    /// Absolute offset of the first byte.
    pub offset: u64,
    /// Length in bytes (> 0 for every chunk `partition` emits).
    pub len: u64,
}

impl ChunkRange {
    /// One past the last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Splits `[start, start + total)` into at most `chunks` contiguous,
/// disjoint, non-empty ranges covering it exactly. Fewer chunks come
/// back when `total < chunks` (every chunk carries at least one byte);
/// `total == 0` yields no chunks. Earlier chunks absorb the remainder,
/// so sizes differ by at most one byte.
pub fn partition(start: u64, total: u64, chunks: u32) -> Vec<ChunkRange> {
    let n = u64::from(chunks.max(1)).min(total);
    let mut out = Vec::with_capacity(n as usize);
    let base = total.checked_div(n).unwrap_or(0);
    let extra = total.checked_rem(n).unwrap_or(0);
    let mut offset = start;
    for id in 0..n {
        let len = base + u64::from(id < extra);
        out.push(ChunkRange {
            id: id as u32,
            offset,
            len,
        });
        offset += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_range_exactly() {
        for (start, total, chunks) in [
            (0, 100, 4),
            (131072, 1_997_152, 8),
            (5, 7, 3),
            (0, 1, 9),
            (9, 10, 1),
        ] {
            let parts = partition(start, total, chunks);
            assert!(!parts.is_empty());
            assert!(parts.len() as u64 <= u64::from(chunks).min(total));
            assert_eq!(parts[0].offset, start);
            assert_eq!(parts.last().unwrap().end(), start + total);
            for w in parts.windows(2) {
                assert_eq!(w[0].end(), w[1].offset, "gap or overlap");
            }
            assert_eq!(parts.iter().map(|c| c.len).sum::<u64>(), total);
            // Near-equal: sizes differ by at most one byte.
            let min = parts.iter().map(|c| c.len).min().unwrap();
            let max = parts.iter().map(|c| c.len).max().unwrap();
            assert!(max - min <= 1, "{min}..{max}");
            // Ids are the partition order.
            for (i, c) in parts.iter().enumerate() {
                assert_eq!(c.id, i as u32);
                assert!(c.len > 0);
            }
        }
    }

    #[test]
    fn partition_degenerates_gracefully() {
        assert!(partition(10, 0, 4).is_empty());
        // More chunks than bytes: one single-byte chunk per byte.
        assert_eq!(partition(0, 3, 100).len(), 3);
        // chunks == 0 is treated as 1 (the mode validator rejects it
        // upstream; the planner still never divides by zero).
        assert_eq!(partition(0, 50, 0).len(), 1);
    }
}
