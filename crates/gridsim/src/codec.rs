//! A compact positional binary codec for stable storage.
//!
//! The simulated "disk" ([`crate::store::StableStore`]) holds byte strings,
//! so crash-recovery genuinely round-trips component state through a
//! serialized form rather than cheating with in-memory clones. The format is
//! positional (not self-describing), which is fine because readers always
//! know the schema:
//!
//! - `u16`, `u32`, `u64`, `char`, every sequence, string and map length, and
//!   the enum variant index that [`codec!`](crate::codec!) writes are
//!   shortest-form LEB128 varints: seven bits a byte, low bits first, the
//!   high bit set while more bytes follow, so a value under 128 is one byte
//!   and `u64::MAX` is ten;
//! - `i16`, `i32` and `i64` are zigzag-mapped (0, -1, 1, -2, … → 0, 1, 2,
//!   3, …) and then written as varints, so small negatives stay short;
//! - `u8`, `i8` and `bool` are one byte, `f64` is eight little-endian
//!   bytes, and `Option` is a one-byte tag (0 or 1) before its value;
//! - struct fields and tuple elements sit back to back.
//!
//! Decoding refuses, with a [`CodecError`], a varint with a redundant
//! trailing zero byte, one longer than ten bytes or past `u64::MAX`, and a
//! value out of range for the type it is read as.
//!
//! A type is stored by implementing [`Encode`] and [`Decode`]; records do
//! it with [`codec!`](crate::codec!), which lists a struct's fields in their
//! on-disk order or an enum's variants with their on-disk index.

use std::collections::BTreeMap;
use std::fmt;

/// Errors produced by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A value with a stored form. Encoding cannot fail.
pub trait Encode {
    /// Append this value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can be read back from its stored form.
pub trait Decode: Sized {
    /// Read one value from `r`, or refuse the input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Encode `value` into a fresh buffer.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Append the encoding of `value` to `out` — the bytes [`to_bytes`] returns,
/// written into a buffer the caller owns (and can reuse, so a steady stream
/// of encodes stops growing a fresh `Vec` each time).
pub fn encode_into<T: Encode + ?Sized>(out: &mut Vec<u8>, value: &T) {
    value.encode(out)
}

/// Decode a `T` from bytes produced by [`to_bytes`]; the whole input must
/// be that one value.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader {
        input: bytes,
        pos: 0,
    };
    let value = T::decode(&mut r)?;
    if r.pos != bytes.len() {
        return Err(CodecError(format!(
            "{} trailing bytes after value",
            bytes.len() - r.pos
        )));
    }
    Ok(value)
}

/// A cursor over untrusted input: every read is checked against what is
/// left, so a decode answers `Ok` or `Err` and never panics.
pub struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        // `n` may be any u64 read from hostile input: compare against what
        // is left, never add to `pos`.
        if n > self.input.len() - self.pos {
            return Err(CodecError(format!(
                "unexpected end of input (want {n} at {})",
                self.pos
            )));
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take(N) returns N bytes"))
    }

    /// A claimed element count, cut down to what the input could still
    /// hold, so a decode that preallocates from it never reserves more than
    /// the input's own size for a count the input made up.
    fn bounded(&self, count: usize) -> usize {
        count.min(self.input.len() - self.pos)
    }

    fn take_len(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        usize::try_from(n).map_err(|_| CodecError("length overflow".into()))
    }

    /// One shortest-form varint.
    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut value = 0;
        for i in 0..MAX_VARINT {
            let byte = self.take(1)?[0];
            if i == MAX_VARINT - 1 && byte > 1 {
                // Bits 63 and up: past u64::MAX, or an eleventh byte.
                return Err(CodecError(format!(
                    "varint overflows u64 at {}",
                    self.pos - 1
                )));
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(CodecError(format!("overlong varint at {}", self.pos - 1)));
                }
                return Ok(value);
            }
        }
        unreachable!("the last byte either ends the varint or is refused")
    }
}

/// The most bytes a `u64` takes as a varint.
const MAX_VARINT: usize = 10;

/// `v` as a shortest-form varint: the first `len` of the returned bytes.
pub(crate) fn varint(mut v: u64) -> ([u8; MAX_VARINT], usize) {
    let mut bytes = [0; MAX_VARINT];
    let mut len = 0;
    while v >= 0x80 {
        bytes[len] = v as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    bytes[len] = v as u8;
    (bytes, len + 1)
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    let (bytes, len) = varint(v);
    out.extend_from_slice(&bytes[..len]);
}

/// The varint at the head of `bytes` and how many bytes it takes.
pub(crate) fn leading_varint(bytes: &[u8]) -> Result<(u64, usize), CodecError> {
    let mut r = Reader {
        input: bytes,
        pos: 0,
    };
    let v = r.varint()?;
    Ok((v, r.pos))
}

/// Written as they are in memory, little-endian.
macro_rules! fixed {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

fixed!(u8, i8, f64);

/// Varints; a stored value too wide for the type is refused.
macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, u64::from(*self));
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let v = r.varint()?;
                <$t>::try_from(v).map_err(|_| {
                    CodecError(format!("{v} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

unsigned!(u16, u32, u64);

/// Zigzag-mapped varints, so a value near zero of either sign is short.
macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                let v = i64::from(*self);
                put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let z = r.varint()?;
                let v = (z >> 1) as i64 ^ -((z & 1) as i64);
                <$t>::try_from(v).map_err(|_| {
                    CodecError(format!("{v} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}

signed!(i16, i32, i64);

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError(format!("invalid bool byte {b}"))),
        }
    }
}

impl Encode for char {
    fn encode(&self, out: &mut Vec<u8>) {
        u32::from(*self).encode(out)
    }
}

impl Decode for char {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u32::decode(r)?;
        char::from_u32(v).ok_or_else(|| CodecError(format!("invalid char {v}")))
    }
}

impl Encode for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
}

impl Decode for () {
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out)
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.take_len()?;
        let s = std::str::from_utf8(r.take(n)?).map_err(|e| CodecError(e.to_string()))?;
        Ok(s.to_owned())
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out)
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.take_len()?;
        let mut v = Vec::with_capacity(r.bounded(n).min(4096));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            b => Err(CodecError(format!("invalid option tag {b}"))),
        }
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.take_len()?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::decode(r)?;
            map.insert(k, V::decode(r)?);
        }
        Ok(map)
    }
}

/// Tuples: their elements back to back, no framing.
macro_rules! tuples {
    () => {};
    ($head:ident $($tail:ident)*) => {
        impl<$head: Encode, $($tail: Encode),*> Encode for ($head, $($tail,)*) {
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($head, $($tail,)*) = self;
                $head.encode(out);
                $($tail.encode(out);)*
            }
        }
        impl<$head: Decode, $($tail: Decode),*> Decode for ($head, $($tail,)*) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($head::decode(r)?, $($tail::decode(r)?,)*))
            }
        }
        tuples!($($tail)*);
    };
}

tuples!(A B C D E F G H I);

/// Writes [`Encode`] and [`Decode`] for a struct, given its fields in
/// on-disk order (`0` for a newtype's field), or for an enum, given every
/// variant with its on-disk `u32` index (stored as a varint) and names for
/// its fields:
///
/// ```
/// # use gridsim::codec::{from_bytes, to_bytes};
/// #[derive(Debug, PartialEq)]
/// enum State { Idle, Held(String), Running { on: String, cpus: u32 } }
/// #[derive(Debug, PartialEq)]
/// struct Rec { id: u64, state: State }
/// gridsim::codec! { enum State { 0 => Idle, 1 => Held(reason), 2 => Running { on, cpus } } }
/// gridsim::codec! { struct Rec { id, state } }
///
/// let rec = Rec { id: 7, state: State::Held("proxy expired".into()) };
/// assert_eq!(from_bytes::<Rec>(&to_bytes(&rec)), Ok(rec));
/// ```
///
/// Decode builds a struct literal, so a field left out of the list fails to
/// compile; the listed index *is* the stored layout, so reordering an
/// enum's definition changes nothing on disk, and an index no variant
/// claims decodes to an error.
#[macro_export]
macro_rules! codec {
    (struct $name:ident { $($field:tt),* $(,)? }) => {
        impl $crate::codec::Encode for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::codec::Encode::encode(&self.$field, out);)*
            }
        }
        impl $crate::codec::Decode for $name {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                ::std::result::Result::Ok($name { $($field: $crate::codec::Decode::decode(r)?),* })
            }
        }
    };
    (enum $name:ident {
        $($index:literal => $variant:ident $(($($item:ident),*))? $({ $($field:ident),* })?),* $(,)?
    }) => {
        impl $crate::codec::Encode for $name {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($name::$variant $(($($item),*))? $({ $($field),* })? => {
                        <u32 as $crate::codec::Encode>::encode(&$index, out);
                        $($($crate::codec::Encode::encode($item, out);)*)?
                        $($($crate::codec::Encode::encode($field, out);)*)?
                    })*
                }
            }
        }
        impl $crate::codec::Decode for $name {
            fn decode(
                r: &mut $crate::codec::Reader<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                match <u32 as $crate::codec::Decode>::decode(r)? {
                    $($index => {
                        $(let ($($item,)*) = $crate::codec::Decode::decode(r)?;)?
                        $(let ($($field,)*) = $crate::codec::Decode::decode(r)?;)?
                        ::std::result::Result::Ok($name::$variant $(($($item),*))? $({ $($field),* })?)
                    })*
                    index => ::std::result::Result::Err($crate::codec::CodecError(::std::format!(
                        "no variant {index} in {}",
                        ::std::stringify!($name)
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[derive(Debug, PartialEq)]
    enum JobState {
        Idle,
        Running { on: String, cpus: u32 },
        Held(String),
        Done(i32, bool),
    }

    crate::codec! {
        enum JobState { 0 => Idle, 1 => Running { on, cpus }, 2 => Held(reason), 3 => Done(code, ok) }
    }

    #[derive(Debug, PartialEq)]
    struct Stored {
        id: u64,
        state: JobState,
        attempts: Vec<u32>,
        note: Option<String>,
        env: BTreeMap<String, String>,
        ratio: f64,
    }

    crate::codec! { struct Stored { id, state, attempts, note, env, ratio } }

    #[test]
    fn primitives() {
        round_trip(true);
        round_trip(false);
        round_trip(0u8);
        round_trip(-12345i64);
        round_trip(u64::MAX);
        round_trip(3.5f64);
        round_trip('λ');
        round_trip(String::from("hello grid"));
        round_trip(String::new());
        round_trip(());
    }

    #[test]
    fn containers() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(9u8));
        round_trip(Option::<u8>::None);
        round_trip((1u8, String::from("x"), -2i32));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2);
        round_trip(m);
    }

    #[test]
    fn structs_and_enums() {
        round_trip(JobState::Idle);
        round_trip(JobState::Running {
            on: "gatekeeper.wisc.edu".into(),
            cpus: 64,
        });
        round_trip(JobState::Held("credential expired".into()));
        round_trip(JobState::Done(-1, true));
        let mut env = BTreeMap::new();
        env.insert("GASS_URL".to_string(), "gass://n0:9000".to_string());
        round_trip(Stored {
            id: 42,
            state: JobState::Running {
                on: "pbs".into(),
                cpus: 8,
            },
            attempts: vec![1, 2, 3],
            note: None,
            env,
            ratio: 0.25,
        });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&String::from("hello"));
        assert!(from_bytes::<String>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn a_length_past_the_address_space_is_refused_not_added() {
        // 10 bytes in, the string claims u64::MAX more: `pos + n` would wrap.
        let mut bytes = to_bytes(&u64::MAX);
        bytes.extend_from_slice(b"tail");
        assert!(from_bytes::<String>(&bytes).is_err());
        assert!(from_bytes::<Vec<u8>>(&bytes).is_err());
        assert!(from_bytes::<(u64, String)>(&[bytes.clone(), bytes].concat()).is_err());
    }

    #[test]
    fn invalid_bool_rejected() {
        assert!(from_bytes::<bool>(&[7]).is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        // length=1, byte 0xFF — not valid UTF-8.
        assert!(from_bytes::<String>(&[1, 0xFF]).is_err());
    }

    fn hex<T: Encode>(v: T) -> String {
        to_bytes(&v).iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn integers_are_shortest_form_varints() {
        assert_eq!(hex(0u64), "00");
        assert_eq!(hex(127u32), "7f");
        assert_eq!(hex(128u16), "8001");
        assert_eq!(hex(300u64), "ac02");
        assert_eq!(hex(u64::MAX), "ffffffffffffffffff01");
        // Zigzag: 0, -1, 1, -2, … become 0, 1, 2, 3, …
        assert_eq!(hex(0i32), "00");
        assert_eq!(hex(-1i64), "01");
        assert_eq!(hex(1i16), "02");
        assert_eq!(hex(-64i64), "7f");
        assert_eq!(hex(64i64), "8001");
        assert_eq!(hex(i64::MIN), "ffffffffffffffffff01");
        assert_eq!(hex('λ'), "bb07");
        // Lengths are varints too; one-byte and eight-byte fields are not.
        assert_eq!(hex("ab"), "026162");
        assert_eq!(hex(vec![7u8; 3]), "03070707");
        assert_eq!(
            hex((255u8, -1i8, true, Some(1.0f64))),
            "ffff0101000000000000f03f"
        );
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let (bytes, len) = varint(v);
            assert_eq!(bytes[..len], to_bytes(&v), "{v}");
            assert_eq!(leading_varint(&bytes), Ok((v, len)));
        }
    }

    #[test]
    fn integer_extremes_round_trip() {
        round_trip(u64::MAX);
        round_trip(i64::MIN);
        round_trip(i64::MAX);
        round_trip(u32::MAX);
        round_trip(i32::MIN);
        round_trip(i32::MAX);
        round_trip(u16::MAX);
        round_trip(i16::MIN);
        round_trip(i16::MAX);
        round_trip(char::MAX);
    }

    #[test]
    fn malformed_varints_are_refused() {
        // Overlong: a trailing zero group says nothing.
        assert!(from_bytes::<u64>(&[0x80, 0x00]).is_err());
        assert!(from_bytes::<u32>(&[0xff, 0x80, 0x00]).is_err());
        assert!(from_bytes::<String>(&[0x80, 0x00]).is_err());
        // The tenth byte carries bit 63 only: 2 and up overflow u64.
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(from_bytes::<u64>(&max), Ok(u64::MAX));
        max[9] = 0x02;
        assert!(from_bytes::<u64>(&max).is_err());
        max[9] = 0x7f;
        assert!(from_bytes::<u64>(&max).is_err());
        // Eleven bytes is one too many, whatever they hold.
        let mut eleven = vec![0x80; 10];
        eleven.push(0x00);
        assert!(from_bytes::<u64>(&eleven).is_err());
        eleven[9] = 0x81;
        eleven[10] = 0x01;
        assert!(from_bytes::<u64>(&eleven).is_err());
        // A varint cut short.
        assert!(from_bytes::<u64>(&[0x80]).is_err());
        assert!(leading_varint(&[]).is_err());
    }

    #[test]
    fn values_out_of_range_for_their_type_are_refused() {
        assert!(from_bytes::<u16>(&to_bytes(&(u64::from(u16::MAX) + 1))).is_err());
        assert!(from_bytes::<u32>(&to_bytes(&(u64::from(u32::MAX) + 1))).is_err());
        assert!(from_bytes::<i16>(&to_bytes(&(i64::from(i16::MAX) + 1))).is_err());
        assert!(from_bytes::<i16>(&to_bytes(&(i64::from(i16::MIN) - 1))).is_err());
        assert!(from_bytes::<i32>(&to_bytes(&(i64::from(i32::MAX) + 1))).is_err());
        assert!(from_bytes::<i32>(&to_bytes(&(i64::from(i32::MIN) - 1))).is_err());
        assert!(from_bytes::<u32>(&to_bytes(&u64::MAX)).is_err());
        assert!(from_bytes::<i32>(&to_bytes(&i64::MIN)).is_err());
        // Not a scalar value: a surrogate, and one past the last.
        assert!(from_bytes::<char>(&to_bytes(&0xD800u32)).is_err());
        assert!(from_bytes::<char>(&to_bytes(&(u32::from(char::MAX) + 1))).is_err());
        // The widest value each type holds still decodes.
        assert_eq!(
            from_bytes::<u16>(&to_bytes(&u64::from(u16::MAX))),
            Ok(u16::MAX)
        );
        assert_eq!(
            from_bytes::<i32>(&to_bytes(&i64::from(i32::MIN))),
            Ok(i32::MIN)
        );
    }
}
