//! A compact binary serde codec for stable storage.
//!
//! The simulated "disk" ([`crate::store::StableStore`]) holds byte strings,
//! so crash-recovery genuinely round-trips component state through a
//! serialized form rather than cheating with in-memory clones. The format is
//! bincode-like: fixed-width little-endian integers, `u64` length prefixes
//! for sequences/strings, a one-byte tag for `Option`, and a `u32` variant
//! index for enums. It is positional (not self-describing), which is fine
//! because readers always know the schema.

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};
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

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError(msg.to_string())
    }
}

/// Serialize `value` into bytes.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_into(&mut out, value)?;
    Ok(out)
}

/// Append the encoding of `value` to `out` — the bytes [`to_bytes`] returns,
/// written into a buffer the caller owns (and can reuse, so a steady stream
/// of encodes stops growing a fresh `Vec` each time).
pub fn encode_into<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<(), CodecError> {
    value.serialize(&mut Encoder { out })
}

/// Append one element to an encoded sequence in place: `seq` holds the
/// bytes of a `Vec<T>` (or is empty, for a sequence not yet written) and
/// ends up holding the bytes [`to_bytes`] gives for that vector with
/// `element` pushed — the leading `u64` count goes up by one and the
/// element's encoding follows the rest.
pub fn push_seq_element<T: Serialize>(seq: &mut Vec<u8>, element: &T) -> Result<(), CodecError> {
    let count = match seq.first_chunk::<8>() {
        Some(count) => u64::from_le_bytes(*count),
        None if seq.is_empty() => {
            seq.extend_from_slice(&0u64.to_le_bytes());
            0
        }
        None => return Err(CodecError("sequence shorter than its count".into())),
    };
    seq[..8].copy_from_slice(&(count + 1).to_le_bytes());
    encode_into(seq, element)
}

/// Deserialize a `T` from bytes produced by [`to_bytes`].
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut de = Decoder {
        input: bytes,
        pos: 0,
    };
    let value = T::deserialize(&mut de)?;
    if de.pos != bytes.len() {
        return Err(CodecError(format!(
            "{} trailing bytes after value",
            bytes.len() - de.pos
        )));
    }
    Ok(value)
}

struct Encoder<'a> {
    out: &'a mut Vec<u8>,
}

impl Encoder<'_> {
    fn put_len(&mut self, n: usize) {
        self.out.extend_from_slice(&(n as u64).to_le_bytes());
    }
}

impl ser::Serializer for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.push(v as u8);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.out.push(v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.push(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.push(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError("seq without length".into()))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or_else(|| CodecError("map without length".into()))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
}

macro_rules! forward_compound {
    ($trait:ident, $method:ident) => {
        impl ser::$trait for &mut Encoder<'_> {
            type Ok = ();
            type Error = CodecError;
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

forward_compound!(SerializeSeq, serialize_element);
forward_compound!(SerializeTuple, serialize_element);
forward_compound!(SerializeTupleStruct, serialize_field);
forward_compound!(SerializeTupleVariant, serialize_field);

impl ser::SerializeMap for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStruct for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut Encoder<'_> {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
    pos: usize,
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
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

    /// A claimed element count, cut down to what the input could still
    /// hold, so a visitor that preallocates from `size_hint` never reserves
    /// more than the input's own size for a count the input made up.
    fn bounded(&self, count: usize) -> usize {
        count.min(self.input.len() - self.pos)
    }

    fn take_len(&mut self) -> Result<usize, CodecError> {
        let b = self.take(8)?;
        let n = u64::from_le_bytes(b.try_into().unwrap());
        usize::try_from(n).map_err(|_| CodecError("length overflow".into()))
    }

    fn take_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

macro_rules! de_num {
    ($method:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let b = self.take($n)?;
            visitor.$visit(<$ty>::from_le_bytes(b.try_into().unwrap()))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("format is not self-describing".into()))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(CodecError(format!("invalid bool byte {b}"))),
        }
    }

    de_num!(deserialize_i8, visit_i8, i8, 1);
    de_num!(deserialize_i16, visit_i16, i16, 2);
    de_num!(deserialize_i32, visit_i32, i32, 4);
    de_num!(deserialize_i64, visit_i64, i64, 8);
    de_num!(deserialize_u16, visit_u16, u16, 2);
    de_num!(deserialize_u32, visit_u32, u32, 4);
    de_num!(deserialize_u64, visit_u64, u64, 8);
    de_num!(deserialize_f32, visit_f32, f32, 4);
    de_num!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_u8(self.take(1)?[0])
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let v = self.take_u32()?;
        let c = char::from_u32(v).ok_or_else(|| CodecError(format!("invalid char {v}")))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let n = self.take_len()?;
        let bytes = self.take(n)?;
        let s = std::str::from_utf8(bytes).map_err(|e| CodecError(e.to_string()))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let n = self.take_len()?;
        visitor.visit_borrowed_bytes(self.take(n)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(CodecError(format!("invalid option tag {b}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_seq(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_map(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError("identifiers are not encoded".into()))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError(
            "cannot skip values in a positional format".into(),
        ))
    }
}

struct Counted<'a, 'de> {
    de: &'a mut Decoder<'de>,
    remaining: usize,
}

impl<'a, 'de> de::SeqAccess<'de> for Counted<'a, 'de> {
    type Error = CodecError;
    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.de.bounded(self.remaining))
    }
}

impl<'a, 'de> de::MapAccess<'de> for Counted<'a, 'de> {
    type Error = CodecError;
    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.de.bounded(self.remaining))
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Decoder<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;
    type Variant = Self;
    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), CodecError> {
        let idx = self.de.take_u32()?;
        let val = seed.deserialize(IntoDeserializer::<CodecError>::into_deserializer(idx))?;
        Ok((val, self))
    }
}

impl<'a, 'de> de::VariantAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;
    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn round_trip<T: Serialize + DeserializeOwned + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum JobState {
        Idle,
        Running { on: String, cpus: u32 },
        Held(String),
        Done(i32, bool),
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Stored {
        id: u64,
        state: JobState,
        attempts: Vec<u32>,
        note: Option<String>,
        env: BTreeMap<String, String>,
        ratio: f64,
    }

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
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert!(from_bytes::<u32>(&bytes).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = to_bytes(&String::from("hello")).unwrap();
        assert!(from_bytes::<String>(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn a_length_past_the_address_space_is_refused_not_added() {
        // 8 bytes in, the string claims u64::MAX more: `pos + n` would wrap.
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
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
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.push(0xFF);
        assert!(from_bytes::<String>(&bytes).is_err());
    }
}
