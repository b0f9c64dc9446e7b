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
//!
//! A reader that owns a range no one else is fetching can skip the
//! copy: it reads into [`Reassembly::vacant_mut`]'s window of the final
//! buffer and [`Reassembly::commit`]s what it read. `insert` is that
//! same write-then-commit, so there is one bookkeeping path.

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

    /// Where `[offset, offset + len)` would sit among the received
    /// segments, and its end; an error if it ends past the total or
    /// intersects a received byte. An empty range overlaps nothing.
    fn place(&self, offset: u64, len: u64) -> Result<(usize, u64), ReassemblyError> {
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
        let overlaps = len > 0
            && ((idx > 0 && self.segments[idx - 1].1 > offset)
                || (idx < self.segments.len() && self.segments[idx].0 < end));
        if overlaps {
            return Err(ReassemblyError::Overlap { offset, len });
        }
        Ok((idx, end))
    }

    /// The final buffer's window `[offset, offset + len)`, for a reader
    /// to fill in place before it [`commit`](Self::commit)s; `None` if
    /// the range is out of bounds or any byte of it already arrived.
    /// Writing the window changes nothing the reassembly reports.
    pub fn vacant_mut(&mut self, offset: u64, len: u64) -> Option<&mut [u8]> {
        let (_, end) = self.place(offset, len).ok()?;
        Some(&mut self.buf[offset as usize..end as usize])
    }

    /// Marks `[offset, offset + len)` received: its bytes are whatever
    /// the window holds. Empty ranges are accepted without effect;
    /// out-of-bounds and overlapping ranges are rejected and change
    /// nothing.
    pub fn commit(&mut self, offset: u64, len: u64) -> Result<(), ReassemblyError> {
        if len == 0 {
            return Ok(());
        }
        let (idx, end) = self.place(offset, len)?;
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

    /// Inserts the bytes of one range response starting at `offset`:
    /// copies them into the vacant window, then commits it. Empty
    /// segments are accepted without effect; out-of-bounds and
    /// overlapping segments are rejected and change nothing.
    pub fn insert(&mut self, offset: u64, data: &[u8]) -> Result<(), ReassemblyError> {
        let len = data.len() as u64;
        if let Some(window) = self.vacant_mut(offset, len) {
            window.copy_from_slice(data);
        }
        self.commit(offset, len)
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
    /// invariant the striper's correctness rests on. Every partition is
    /// also landed in place (`vacant_mut`, write, `commit`) and must
    /// leave the same bits, segments and count; after each chunk a
    /// random probe range, checked against a per-byte oracle, gets the
    /// same verdict from `insert` and `commit`, and a window only when
    /// none of it arrived.
    #[test]
    fn seeded_random_partitions_reassemble_byte_identically() {
        // Under Miri's interpreter a few seeds already cover every rule.
        let seeds = if cfg!(miri) { 4 } else { 50 };
        for seed in 0..seeds {
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
            let mut in_place = Reassembly::new(total);
            let mut arrived = vec![false; total as usize];
            for &(s, e) in &chunks {
                let data = &b[s as usize..e as usize];
                r.insert(s, data)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                let window = in_place
                    .vacant_mut(s, e - s)
                    .expect("a chunk's range is vacant");
                window.copy_from_slice(data);
                in_place.commit(s, e - s).unwrap();
                arrived[s as usize..e as usize].fill(true);
                assert_eq!(r.buf, in_place.buf, "seed {seed}");
                assert_eq!(r.segments, in_place.segments, "seed {seed}");
                assert_eq!(r.received, in_place.received, "seed {seed}");

                let offset = rng.gen_range(0..=total + 8);
                let len = [0, 1, rng.gen_range(1..=total)][rng.gen_range(0..3)];
                let end = offset + len;
                let expected = if end > total {
                    Err(ReassemblyError::OutOfBounds { offset, len, total })
                } else if arrived[offset as usize..end as usize].contains(&true) {
                    Err(ReassemblyError::Overlap { offset, len })
                } else {
                    Ok(())
                };
                let expected = if len == 0 { Ok(()) } else { expected };
                let vacant =
                    end <= total && !arrived[offset as usize..end as usize].contains(&true);
                assert_eq!(
                    in_place.vacant_mut(offset, len).is_some(),
                    vacant,
                    "seed {seed}"
                );
                let (mut inserted, mut committed) = (r.clone(), in_place.clone());
                let junk = vec![0xEE; len as usize];
                assert_eq!(inserted.insert(offset, &junk), expected, "seed {seed}");
                assert_eq!(committed.commit(offset, len), expected, "seed {seed}");
                assert_eq!(inserted.segments, committed.segments, "seed {seed}");
                assert_eq!(inserted.received, committed.received, "seed {seed}");
                if expected.is_err() {
                    assert_eq!(inserted.buf, r.buf, "seed {seed}: a rejected insert wrote");
                    assert_eq!(committed.segments, r.segments, "seed {seed}");
                }
            }
            assert!(r.complete(), "seed {seed}: {:?}", r.missing());
            assert!(in_place.complete(), "seed {seed}");
            assert_eq!(
                in_place.into_body().unwrap(),
                b,
                "seed {seed} in-place body mismatch"
            );
            assert_eq!(r.into_body().unwrap(), b, "seed {seed} body mismatch");
        }
    }

    #[test]
    fn a_partly_received_range_has_no_window() {
        let mut r = Reassembly::new(100);
        r.insert(40, &body(60)[40..50]).unwrap();
        for (offset, len) in [(30, 11), (49, 1), (40, 10), (45, 2), (0, 100), (35, 30)] {
            assert!(r.vacant_mut(offset, len).is_none(), "[{offset}, +{len})");
        }
        for (offset, len) in [(0, 40), (50, 50), (30, 10), (100, 0), (45, 0)] {
            assert_eq!(
                r.vacant_mut(offset, len).map(|w| w.len()),
                Some(len as usize)
            );
        }
        assert!(r.vacant_mut(95, 6).is_none(), "out of bounds");
        assert!(r.vacant_mut(u64::MAX, 2).is_none(), "overflowing");
    }

    /// Writing a window commits nothing: the bytes count only once
    /// `commit` says so, and an uncommitted write is overwritten by the
    /// next insert of that range.
    #[test]
    fn a_window_counts_only_once_committed() {
        let b = body(20);
        let mut r = Reassembly::new(20);
        r.vacant_mut(0, 20).unwrap().fill(0xEE);
        assert_eq!((r.received(), r.missing()), (0, vec![(0, 20)]));
        r.vacant_mut(5, 5).unwrap().copy_from_slice(&b[5..10]);
        r.commit(5, 5).unwrap();
        assert_eq!(r.missing(), vec![(0, 5), (10, 20)]);
        r.insert(0, &b[..5]).unwrap();
        r.insert(10, &b[10..]).unwrap();
        assert_eq!(r.into_body().unwrap(), b);
    }
}
