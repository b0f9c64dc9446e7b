//! Rate-shaped stream wrapper.
//!
//! Pacing happens on the **write** side: the sender of the bulk data
//! (origin or relay) pushes bytes through a [`TokenBucket`], emulating
//! the bottleneck on that leg of the path.

use crate::shaper::TokenBucket;
use std::io::{Read, Write};

/// Chunk size shared by every splice loop in the crate (the shaped
/// writer and the reactor's pooled buffers): big enough to amortize
/// syscalls, small enough that rate changes take effect quickly.
pub const SPLICE_CHUNK: usize = 16 * 1024;

/// A stream whose writes are paced by a token bucket. Reads pass
/// through untouched.
pub struct ThrottledStream<S> {
    inner: S,
    bucket: TokenBucket,
}

impl<S> ThrottledStream<S> {
    /// Wraps `inner`, pacing writes with `bucket`.
    pub fn new(inner: S, bucket: TokenBucket) -> Self {
        ThrottledStream { inner, bucket }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped stream (e.g. to set timeouts).
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for ThrottledStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for ThrottledStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            let want = buf.len().min(SPLICE_CHUNK);
            let granted = self.bucket.take(want);
            if granted > 0 {
                return self.inner.write(&buf[..granted]);
            }
            std::thread::sleep(self.bucket.eta(want));
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn writes_are_paced_to_rate() {
        // 100 KB at 400 KB/s ≈ 250 ms (minus the free burst).
        let sink = Vec::new();
        let mut s = ThrottledStream::new(sink, TokenBucket::at_rate(400_000.0));
        let payload = vec![7u8; 100_000];
        let t0 = Instant::now();
        s.write_all(&payload).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        // burst = 20 KB free; remaining 80 KB at 400 KB/s = 200 ms.
        assert!(dt > 0.12, "finished too fast: {dt}s");
        assert!(dt < 0.6, "finished too slow: {dt}s");
        assert_eq!(s.get_ref().len(), 100_000);
    }

    #[test]
    fn reads_pass_through() {
        let data = b"hello".to_vec();
        let mut s = ThrottledStream::new(std::io::Cursor::new(data), TokenBucket::at_rate(1.0));
        let mut out = String::new();
        let t0 = Instant::now();
        s.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello");
        assert!(t0.elapsed().as_secs_f64() < 0.1, "reads must not be shaped");
    }

    #[test]
    fn content_preserved_exactly() {
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let mut s = ThrottledStream::new(Vec::new(), TokenBucket::at_rate(1_000_000.0));
        s.write_all(&payload).unwrap();
        assert_eq!(s.into_inner(), payload);
    }

    #[test]
    fn empty_write_is_ok() {
        let mut s = ThrottledStream::new(Vec::new(), TokenBucket::at_rate(10.0));
        assert_eq!(s.write(&[]).unwrap(), 0);
    }
}
