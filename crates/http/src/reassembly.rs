//! Chunk reassembly for striped range downloads.
//!
//! A striped download (`ir-relay`'s socket engine under the core
//! striped scheduler) fetches disjoint byte ranges of one resource
//! concurrently over several paths; responses land in arbitrary order.
//! [`Reassembly`] collects them into the final body, tracking coverage
//! so a transfer is `complete` exactly when every byte of `[0, total)`
//! arrived once.
//!
//! Overlapping inserts are rejected rather than reconciled: the chunk
//! scheduler owns the partition and an overlap means it double-fetched
//! (or a server answered the wrong `Content-Range`) — silently keeping
//! either copy would hide the bug the differential tests exist to
//! catch. Zero-length inserts are accepted as no-ops (a rebalanced
//! chunk whose remainder shrank to nothing reassembles trivially).

use std::fmt;

/// Why an insert was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassemblyError {
    /// The segment ends past the declared total length.
    OutOfBounds {
        /// First byte offset of the rejected segment.
        offset: u64,
        /// Rejected segment length.
        len: u64,
        /// Declared resource size.
        total: u64,
    },
    /// The segment intersects bytes that already arrived.
    Overlap {
        /// First byte offset of the rejected segment.
        offset: u64,
        /// Rejected segment length.
        len: u64,
    },
}

impl fmt::Display for ReassemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReassemblyError::OutOfBounds { offset, len, total } => write!(
                f,
                "segment [{offset}, {}) exceeds total {total}",
                offset + len
            ),
            ReassemblyError::Overlap { offset, len } => write!(
                f,
                "segment [{offset}, {}) overlaps received bytes",
                offset + len
            ),
        }
    }
}

impl std::error::Error for ReassemblyError {}

/// An out-of-order range reassembly buffer for a resource of known
/// size.
#[derive(Debug, Clone)]
pub struct Reassembly {
    buf: Vec<u8>,
    /// Received segments as half-open `(start, end)` intervals, kept
    /// sorted, disjoint, and coalesced (adjacent segments merge).
    segments: Vec<(u64, u64)>,
    received: u64,
}

impl Reassembly {
    /// An empty buffer for a resource of `total` bytes.
    #[expect(
        clippy::expect_used,
        reason = "`total` is the caller's configured size, never a peer's claim; a size past the address space could not be buffered anyway"
    )]
    pub fn new(total: u64) -> Reassembly {
        Reassembly {
            buf: vec![0; usize::try_from(total).expect("resource exceeds address space")],
            segments: Vec::new(),
            received: 0,
        }
    }

    /// Declared resource size in bytes.
    pub fn total(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Bytes received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// True once every byte of `[0, total)` has arrived.
    pub fn complete(&self) -> bool {
        self.received == self.total()
    }

    /// The uncovered intervals, sorted, as half-open `(start, end)`
    /// pairs — what a repair pass would still need to fetch.
    pub fn missing(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = 0;
        for &(s, e) in &self.segments {
            if cursor < s {
                out.push((cursor, s));
            }
            cursor = e;
        }
        if cursor < self.total() {
            out.push((cursor, self.total()));
        }
        out
    }

    /// Inserts the bytes of one range response starting at `offset`.
    /// Empty segments are accepted without effect; out-of-bounds and
    /// overlapping segments are rejected and change nothing.
    pub fn insert(&mut self, offset: u64, data: &[u8]) -> Result<(), ReassemblyError> {
        let len = data.len() as u64;
        if len == 0 {
            return Ok(());
        }
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= self.total())
            .ok_or(ReassemblyError::OutOfBounds {
                offset,
                len,
                total: self.total(),
            })?;
        // `idx` is where (offset, end) would sit; overlap can only be
        // with the segment before or after that slot.
        let idx = self.segments.partition_point(|&(s, _)| s < offset);
        if idx > 0 && self.segments[idx - 1].1 > offset {
            return Err(ReassemblyError::Overlap { offset, len });
        }
        if idx < self.segments.len() && self.segments[idx].0 < end {
            return Err(ReassemblyError::Overlap { offset, len });
        }
        self.buf[offset as usize..end as usize].copy_from_slice(data);
        self.received += len;
        // Coalesce with adjacent neighbours to keep the list short.
        let merge_prev = idx > 0 && self.segments[idx - 1].1 == offset;
        let merge_next = idx < self.segments.len() && self.segments[idx].0 == end;
        match (merge_prev, merge_next) {
            (true, true) => {
                self.segments[idx - 1].1 = self.segments[idx].1;
                self.segments.remove(idx);
            }
            (true, false) => self.segments[idx - 1].1 = end,
            (false, true) => self.segments[idx].0 = offset,
            (false, false) => self.segments.insert(idx, (offset, end)),
        }
        Ok(())
    }

    /// The reassembled body, or `None` while bytes are missing.
    pub fn into_body(self) -> Option<Vec<u8>> {
        self.complete().then_some(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn body(n: u64) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn in_order_adjacent_chunks_reassemble() {
        let b = body(100);
        let mut r = Reassembly::new(100);
        r.insert(0, &b[..40]).unwrap();
        assert!(!r.complete());
        assert_eq!(r.missing(), vec![(40, 100)]);
        r.insert(40, &b[40..]).unwrap();
        assert!(r.complete());
        assert_eq!(r.into_body().unwrap(), b);
    }

    #[test]
    fn out_of_order_chunks_reassemble() {
        let b = body(90);
        let mut r = Reassembly::new(90);
        r.insert(60, &b[60..]).unwrap();
        r.insert(0, &b[..30]).unwrap();
        assert_eq!(r.missing(), vec![(30, 60)]);
        r.insert(30, &b[30..60]).unwrap();
        assert_eq!(r.into_body().unwrap(), b);
    }

    #[test]
    fn zero_length_insert_is_a_noop_anywhere() {
        let b = body(10);
        let mut r = Reassembly::new(10);
        r.insert(0, &[]).unwrap();
        r.insert(5, &[]).unwrap();
        r.insert(10, &[]).unwrap(); // even at the end boundary
        assert_eq!(r.received(), 0);
        assert_eq!(r.missing(), vec![(0, 10)]);
        r.insert(0, &b).unwrap();
        assert!(r.complete());
    }

    #[test]
    fn zero_total_resource_is_born_complete() {
        let r = Reassembly::new(0);
        assert!(r.complete());
        assert!(r.missing().is_empty());
        assert_eq!(r.into_body().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overlap_is_rejected_and_changes_nothing() {
        let b = body(50);
        let mut r = Reassembly::new(50);
        r.insert(10, &b[10..30]).unwrap();
        // Left overlap, right overlap, containment, exact duplicate.
        for (off, seg) in [(5, &b[5..15]), (25, &b[25..35]), (12, &b[12..18])] {
            assert_eq!(
                r.insert(off, seg),
                Err(ReassemblyError::Overlap {
                    offset: off,
                    len: seg.len() as u64
                })
            );
        }
        assert!(r.insert(10, &b[10..30]).is_err());
        assert_eq!(r.received(), 20);
        assert_eq!(r.missing(), vec![(0, 10), (30, 50)]);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut r = Reassembly::new(20);
        assert!(matches!(
            r.insert(15, &[0; 10]),
            Err(ReassemblyError::OutOfBounds { .. })
        ));
        assert!(matches!(
            r.insert(u64::MAX, &[0; 2]),
            Err(ReassemblyError::OutOfBounds { .. })
        ));
        assert_eq!(r.received(), 0);
    }

    /// Fuzz-style sweep: random partitions of random bodies, inserted
    /// in a random order, must reassemble byte-identically — the
    /// invariant the striper's correctness rests on.
    #[test]
    fn seeded_random_partitions_reassemble_byte_identically() {
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(0xC40C + seed);
            let total = rng.gen_range(1u64..5000);
            let b = body(total);
            // Random partition: sorted unique cut points.
            let cuts = rng.gen_range(0usize..20);
            let mut points: Vec<u64> = (0..cuts).map(|_| rng.gen_range(0..=total)).collect();
            points.push(0);
            points.push(total);
            points.sort_unstable();
            points.dedup();
            let mut chunks: Vec<(u64, u64)> = points.windows(2).map(|w| (w[0], w[1])).collect();
            // Shuffle the insertion order (Fisher–Yates).
            for i in (1..chunks.len()).rev() {
                let j = rng.gen_range(0..=i);
                chunks.swap(i, j);
            }
            let mut r = Reassembly::new(total);
            for &(s, e) in &chunks {
                r.insert(s, &b[s as usize..e as usize])
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            }
            assert!(r.complete(), "seed {seed}: {:?}", r.missing());
            assert_eq!(r.into_body().unwrap(), b, "seed {seed} body mismatch");
        }
    }
}
