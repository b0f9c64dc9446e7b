//! [`declare!`](macro@crate::declare): one field list per cached type.
//!
//! The sweep cache is correct only while two things hold for every
//! type it touches: the [`StableHash`](crate::StableHash) fingerprint
//! covers **every** field (or a stale entry is served for a
//! configuration that never ran), and the [`Codec`](crate::Codec)
//! encoder and decoder walk the **same** fields in the same order (or
//! bytes on disk are misread). `declare!` takes the field list once and
//! expands it into an exhaustive destructure for hashing and encoding
//! and a struct literal for decoding, so a field added to the type but
//! not to the list is a compile error (the pattern no longer covers the
//! type: "pattern requires `..`"; the literal misses a field: `E0063`),
//! and there is no second list to fall out of step.
//!
//! ```
//! use ir_artifact::{codec, declare, fingerprint_of};
//!
//! #[derive(Debug, PartialEq)]
//! pub struct Geometry { pub racks: u32, pub rate: f64 }
//! // Hashed as (u64, f64) — the width an older hand-written impl used —
//! // framed as (u32, f64).
//! declare! { StableHash + Codec for struct Geometry { racks as u64, rate } }
//!
//! pub enum Shape { Flat, Fan { geometry: Geometry } }
//! declare! { StableHash for enum Shape { Flat = 0, Fan { geometry } = 1 } }
//!
//! let g = Geometry { racks: 8, rate: 1.5 };
//! assert_eq!(fingerprint_of(&g), fingerprint_of(&(8u64, 1.5f64)));
//! assert_eq!(codec::decode::<Geometry>(&codec::encode(&g)), Some(g));
//! ```
//!
//! # Adding a cached type
//!
//! 1. Next to the type, declare its fields once, in the order they are
//!    to be hashed / framed: `declare! { StableHash for struct T { a, b }
//!    }` for a fingerprint input, `Codec for` for a study output,
//!    `StableHash + Codec for` for a config a result embeds. Tuple
//!    structs are `struct T(x)`; enum variants carry their pinned tag
//!    byte, `enum E { A = 0, B(x) = 1, C { p, q } = 2 }` — never reuse a
//!    retired tag. A leading string literal (`StableHash for "my-config"
//!    struct T { .. }`) is hashed first, to keep same-shaped configs
//!    apart.
//! 2. A new or reordered field moves the fingerprint and the frame:
//!    bump the consuming study's entry in `ir_experiments::sweep::SALTS`
//!    (or `CODEC_VERSION` when a shared record changed) so entries
//!    already on disk are retired instead of misread.
//! 3. A study output reaches the cache through
//!    [`StudySpec::typed`](crate::StudySpec::typed), which takes its
//!    encoder and decoder from the `Codec` impl.
//! 4. A new study is an inputs type — everything its body reads,
//!    declared `StableHash for` — and a plain `fn(&Inputs, telemetry) ->
//!    Output` body, handed to `ir_experiments::sweep`'s `study` helper.
//!    Its key is `fingerprint_of` the inputs value; write no hasher block
//!    (`tests/lint_fences.rs` rejects a `StableHasher::new()` outside
//!    this crate's `hash.rs` and `declare.rs`).
//!
//! A type whose encoding is *not* its field list (a canonical subset, a
//! derived view) writes `impl StableHash` by hand and is listed, with
//! the reason, in `HAND_WRITTEN` in the workspace's `tests/lint_fences.rs`.

/// Expands one field / variant list into `StableHash` and/or `Codec`
/// impls; see the [module docs](mod@crate::declare) for the grammar.
///
/// The `Codec` methods are `#[inline]`: records nest across crates
/// (`NodeId` in `ir-simnet`, `TransferRecord` in `ir-core`, the study
/// outputs in `ir-experiments`), and a non-generic method is otherwise
/// an opaque call per field.
#[macro_export]
macro_rules! declare {
    (StableHash + Codec for $($decl:tt)+) => {
        $crate::declare!(@hash $($decl)+);
        $crate::declare!(@codec $($decl)+);
    };
    (StableHash for $($decl:tt)+) => {
        $crate::declare!(@hash $($decl)+);
    };
    (Codec for $($decl:tt)+) => {
        $crate::declare!(@codec $($decl)+);
    };

    (@hash $($domain:literal)? struct $name:ident { $($f:ident $(as $wide:ty)?),+ $(,)? }) => {
        impl $crate::StableHash for $name {
            fn stable_hash(&self, h: &mut $crate::StableHasher) {
                let $name { $($f),+ } = self;
                $($crate::StableHash::stable_hash($domain, h);)?
                $($crate::declare!(@hash_field h $f $(as $wide)?);)+
            }
        }
    };
    (@hash struct $name:ident ( $($f:ident),+ )) => {
        impl $crate::StableHash for $name {
            fn stable_hash(&self, h: &mut $crate::StableHasher) {
                let $name($($f),+) = self;
                $($crate::StableHash::stable_hash($f, h);)+
            }
        }
    };
    (@hash enum $name:ident {
        $($variant:ident $(($($t:ident),+))? $({ $($n:ident),+ })? = $tag:literal),+ $(,)?
    }) => {
        impl $crate::StableHash for $name {
            fn stable_hash(&self, h: &mut $crate::StableHasher) {
                match self {
                    $($name::$variant $(($($t),+))? $({ $($n),+ })? => {
                        h.write_tag($tag);
                        $($($crate::StableHash::stable_hash($t, h);)+)?
                        $($($crate::StableHash::stable_hash($n, h);)+)?
                    })+
                }
            }
        }
    };
    (@hash_field $h:ident $f:ident) => {
        $crate::StableHash::stable_hash($f, $h)
    };
    (@hash_field $h:ident $f:ident as $wide:ty) => {
        $crate::StableHash::stable_hash(&(*$f as $wide), $h)
    };

    (@codec struct $name:ident { $($f:ident $(as $wide:ty)?),+ $(,)? }) => {
        impl $crate::Codec for $name {
            #[inline]
            fn put(&self, w: &mut $crate::ByteWriter) {
                let $name { $($f),+ } = self;
                $($crate::Codec::put($f, w);)+
            }
            #[inline]
            fn get(r: &mut $crate::ByteReader<'_>) -> Option<Self> {
                Some($name { $($f: $crate::Codec::get(r)?),+ })
            }
        }
    };
    (@codec struct $name:ident ( $($f:ident),+ )) => {
        impl $crate::Codec for $name {
            #[inline]
            fn put(&self, w: &mut $crate::ByteWriter) {
                let $name($($f),+) = self;
                $($crate::Codec::put($f, w);)+
            }
            #[inline]
            fn get(r: &mut $crate::ByteReader<'_>) -> Option<Self> {
                Some($name($($crate::declare!(@get r $f)),+))
            }
        }
    };
    (@codec enum $name:ident {
        $($variant:ident $(($($t:ident),+))? $({ $($n:ident),+ })? = $tag:literal),+ $(,)?
    }) => {
        impl $crate::Codec for $name {
            #[inline]
            fn put(&self, w: &mut $crate::ByteWriter) {
                match self {
                    $($name::$variant $(($($t),+))? $({ $($n),+ })? => {
                        w.put_u8($tag);
                        $($($crate::Codec::put($t, w);)+)?
                        $($($crate::Codec::put($n, w);)+)?
                    })+
                }
            }
            #[inline]
            fn get(r: &mut $crate::ByteReader<'_>) -> Option<Self> {
                Some(match r.get_u8()? {
                    $($tag => $name::$variant
                        $(($($crate::declare!(@get r $t)),+))?
                        $({ $($n: $crate::Codec::get(r)?),+ })?,)+
                    _ => return None,
                })
            }
        }
    };
    // One positional field's decode; the name only drives the repetition.
    (@get $r:ident $f:ident) => {
        $crate::Codec::get($r)?
    };
}

#[cfg(test)]
mod tests {
    use crate::codec::{decode, encode};
    use crate::{fingerprint_of, StableHash, StableHasher};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Id(u32);
    declare! { StableHash + Codec for struct Id(id) }

    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        name: String,
        cells: BTreeMap<u32, f64>,
    }
    declare! { Codec for struct Row { name, cells } }

    #[derive(Debug, Clone, PartialEq)]
    struct Geometry {
        racks: u32,
        owner: Id,
        rate: f64,
    }
    declare! { StableHash + Codec for struct Geometry { racks as u64, owner, rate } }

    #[derive(Debug, Clone, PartialEq)]
    struct Tagged {
        k: usize,
    }
    declare! { StableHash for "tagged-config" struct Tagged { k } }

    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Idle,
        Down(Id),
        Brownout { link: Id, factor: f64 },
    }
    declare! {
        StableHash + Codec for enum Event { Idle = 0, Down(id) = 1, Brownout { link, factor } = 2 }
    }

    #[test]
    fn generated_hash_is_the_field_sequence() {
        let g = Geometry {
            racks: 8,
            owner: Id(3),
            rate: 1.5,
        };
        // `racks` hashes at the declared width, `owner` through its own
        // declaration, nothing frames the struct itself.
        assert_eq!(fingerprint_of(&g), fingerprint_of(&(8u64, 3u32, 1.5f64)));
        assert_eq!(
            fingerprint_of(&Tagged { k: 4 }),
            fingerprint_of(&("tagged-config", 4u64))
        );
        let tagged = |tag: u8, rest: &dyn Fn(&mut StableHasher)| {
            let mut h = StableHasher::new();
            h.write_tag(tag);
            rest(&mut h);
            h.finish()
        };
        assert_eq!(fingerprint_of(&Event::Idle), tagged(0, &|_| {}));
        assert_eq!(
            fingerprint_of(&Event::Down(Id(7))),
            tagged(1, &|h| 7u32.stable_hash(h))
        );
        assert_eq!(
            fingerprint_of(&Event::Brownout {
                link: Id(7),
                factor: 0.25
            }),
            tagged(2, &|h| (7u32, 0.25f64).stable_hash(h))
        );
    }

    #[test]
    fn generated_codec_frames_native_widths_and_round_trips() {
        let g = Geometry {
            racks: 8,
            owner: Id(3),
            rate: -0.0,
        };
        let bytes = encode(&g);
        // The hash widening does not reach the frame: u32 + u32 + f64.
        assert_eq!(bytes.len(), 4 + 4 + 8);
        assert_eq!(decode::<Geometry>(&bytes), Some(g));
        for e in [
            Event::Idle,
            Event::Down(Id(7)),
            Event::Brownout {
                link: Id(7),
                factor: 0.25,
            },
        ] {
            assert_eq!(decode::<Event>(&encode(&e)), Some(e));
        }
        // A tag no variant declares is malformed, not a panic.
        assert_eq!(decode::<Event>(&[3]), None);
    }

    /// The totality every cached record inherits: any strict prefix and
    /// any trailing byte of a nested frame decodes to `None`.
    #[test]
    fn truncated_or_padded_frames_never_decode() {
        let rows = vec![
            Row {
                name: "Duke".into(),
                cells: [(1, 0.5), (9, f64::NAN)].into_iter().collect(),
            },
            Row {
                name: String::new(),
                cells: BTreeMap::new(),
            },
        ];
        let bytes = encode(&rows);
        let back = decode::<Vec<Row>>(&bytes).expect("round trip");
        assert_eq!(encode(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(decode::<Vec<Row>>(&bytes[..cut]).is_none(), "prefix {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode::<Vec<Row>>(&padded).is_none());
    }
}
