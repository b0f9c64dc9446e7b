//! Little-endian byte codec for cached payloads.
//!
//! The build environment has no serialisation crate (no format
//! crate), so cached study outputs use a hand-rolled frame: fixed-width
//! little-endian integers, `to_bits` floats, and length-prefixed
//! strings/sequences. Decoding is total — every read returns `Option`
//! and a malformed frame yields `None`, which the scheduler treats the
//! same as a corrupt cache entry (recompute, then overwrite).
//!
//! [`Codec`] ties the two directions of a type's frame together; the
//! primitives and containers are implemented here, records get theirs
//! from [`declare!`](macro@crate::declare), so an encoder and a decoder
//! cannot disagree on a field.

use std::collections::BTreeMap;

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its bit pattern (NaN payloads round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based decoder over an encoded frame.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders check this to
    /// reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a bool; bytes other than 0/1 are malformed.
    pub fn get_bool(&mut self) -> Option<bool> {
        match self.get_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Option<String> {
        let len = self.get_u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Option<Vec<u8>> {
        let len = self.get_u64()? as usize;
        self.take(len).map(|b| b.to_vec())
    }

    /// Reads a sequence length, bounding it by the bytes actually left
    /// so a corrupted length cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Option<usize> {
        let len = self.get_u64()? as usize;
        // Every element costs at least one byte in any of our frames.
        if len > self.remaining() {
            return None;
        }
        Some(len)
    }
}

/// A type with a total byte frame: [`put`](Codec::put) appends it,
/// [`get`](Codec::get) reads it back or reports a malformed frame.
pub trait Codec: Sized {
    /// Appends `self`'s frame to `w`.
    fn put(&self, w: &mut ByteWriter);
    /// Reads one frame; `None` on truncated or out-of-range bytes.
    fn get(r: &mut ByteReader<'_>) -> Option<Self>;
}

/// `value`'s frame as a cache payload.
pub fn encode<T: Codec>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.put(&mut w);
    w.into_bytes()
}

/// Decodes a whole payload; `None` on any malformation, trailing bytes
/// included.
pub fn decode<T: Codec>(bytes: &[u8]) -> Option<T> {
    let mut r = ByteReader::new(bytes);
    let value = T::get(&mut r)?;
    r.is_exhausted().then_some(value)
}

// The non-generic impls are `#[inline]`: every caller is in another
// crate, and without it a record's frame is one call per field (−9 % on
// both directions of a quick measurement study's 1.1 MB).
macro_rules! impl_codec_primitive {
    ($($t:ty => $put:ident / $get:ident),*) => {$(
        impl Codec for $t {
            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$get()
            }
        }
    )*};
}

impl_codec_primitive!(
    u8 => put_u8 / get_u8,
    u32 => put_u32 / get_u32,
    u64 => put_u64 / get_u64,
    f64 => put_f64 / get_f64,
    bool => put_bool / get_bool
);

/// Framed as a `u64`, like [`StableHash`](crate::StableHash) hashes it,
/// so a payload means the same on every platform.
impl Codec for usize {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64(*self as u64);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        usize::try_from(r.get_u64()?).ok()
    }
}

impl Codec for String {
    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        r.get_str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = r.get_len()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

/// Length, then `(key, value)` frames in key order.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64(self.len() as u64);
        for (key, value) in self {
            key.put(w);
            value.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        let n = r.get_len()?;
        (0..n).map(|_| Some((K::get(r)?, V::get(r)?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("schnell über ∞");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(u64::MAX - 1));
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_bool(), Some(true));
        assert_eq!(r.get_str().as_deref(), Some("schnell über ∞"));
        assert_eq!(r.get_bytes(), Some(vec![1, 2, 3]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn short_reads_fail_cleanly() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.get_u64(), None);
        // Failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u8(), Some(1));
    }

    #[test]
    fn bogus_lengths_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len(), None);

        let mut w = ByteWriter::new();
        w.put_u64(100); // string claims 100 bytes, has 0
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_str(), None);
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(ByteReader::new(&[2]).get_bool(), None);
    }
}
