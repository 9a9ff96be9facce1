//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so this crate provides the
//! small serialization surface the workspace needs with serde-compatible
//! *names* (`serde::Serialize`, `serde::Deserialize`, `#[derive(...)]`,
//! `#[serde(skip)]`) over a much simpler model: everything serializes
//! through a JSON-like [`Value`] tree, and `serde_json` (the sibling compat
//! crate) is just a printer/parser for that tree.
//!
//! The wire format matches what real `serde_json` would produce for the
//! derived shapes used here (named structs, transparent newtypes, unit enum
//! variants as strings, externally tagged newtype variants), so snapshots
//! written by this build remain readable by a build against real serde.

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-like number: integers are kept exact, not coerced through f64.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// The value as f64 (lossy for very large integers, like serde_json).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(v) => v as f64,
            Number::NegInt(v) => v as f64,
            Number::Float(v) => v,
        }
    }

    /// The value as u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(v) => Some(v),
            Number::NegInt(_) => None,
            Number::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The value as i64 if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(v) => i64::try_from(v).ok(),
            Number::NegInt(v) => Some(v),
            Number::Float(v)
                if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 =>
            {
                Some(v as i64)
            }
            Number::Float(_) => None,
        }
    }
}

/// A JSON value tree. Objects preserve insertion order (like serde_json
/// with the default feature set preserves nothing — ordering here is a
/// convenience for stable output).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

/// Error raised by deserialization (and, for API symmetry, carried through
/// the infallible serialization entry points).
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Builds an object value from ordered pairs.
    pub fn object(fields: Vec<(String, Value)>) -> Value {
        Value::Object(fields)
    }

    /// Builds a string value.
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// The object entries, or an error naming the expected type.
    pub fn expect_object(&self, ty: &str) -> Result<&[(String, Value)], Error> {
        match self {
            Value::Object(entries) => Ok(entries),
            other => Err(Error::new(format!(
                "expected object for {ty}, got {other:?}"
            ))),
        }
    }

    /// The array elements if this is an array of exactly `len` elements.
    pub fn expect_array_of(&self, ty: &str, len: usize) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) if items.len() == len => Ok(items),
            other => Err(Error::new(format!(
                "expected array of {len} for {ty}, got {other:?}"
            ))),
        }
    }

    /// Immutable array access.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Mutable array access (used to tamper with snapshots in tests).
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// String access.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// f64 access.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// u64 access.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key)
            .unwrap_or_else(|| panic!("no field {key:?} in value"))
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        match self {
            Value::Object(entries) => entries
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {key:?} in object")),
            other => panic!("cannot index non-object value {other:?} with {key:?}"),
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => &items[index],
            other => panic!("cannot index non-array value {other:?} with {index}"),
        }
    }
}

/// Serialization into the [`Value`] tree.
pub trait Serialize {
    /// This value as a JSON-like tree.
    fn to_value(&self) -> Value;
}

/// Deserialization from the [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON-like tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Looks up and decodes a struct field. A missing field decodes from
/// `Null`, which lets `Option` fields default to `None` (matching serde's
/// treatment of omitted optional fields closely enough for this workspace).
pub fn decode_field<T: Deserialize>(
    map: &[(String, Value)],
    name: &str,
    ty: &str,
) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => {
            T::from_value(v).map_err(|e| Error::new(format!("field `{name}` of {ty}: {e}")))
        }
        None => T::from_value(&Value::Null)
            .map_err(|_| Error::new(format!("missing field `{name}` of {ty}"))),
    }
}

// ------------------------------------------------------------- primitives

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| Error::new(format!(concat!("expected ", stringify!($t), ", got {:?}"), v)))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!(concat!("value {} out of range for ", stringify!($t)), n)))
            }
        }
    )*};
}
impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::PosInt(v as u64))
                } else {
                    Value::Number(Number::NegInt(v))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = match v {
                    Value::Number(n) => n.as_i64(),
                    _ => None,
                }
                .ok_or_else(|| Error::new(format!(concat!("expected ", stringify!($t), ", got {:?}"), v)))?;
                <$t>::try_from(n)
                    .map_err(|_| Error::new(format!(concat!("value {} out of range for ", stringify!($t)), n)))
            }
        }
    )*};
}
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::new(format!("expected f64, got {v:?}")))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::Float(*self as f64))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!("expected array, got {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::new(format!("expected array of {N}, got {len} elements")))
    }
}

/// An `Arc` serializes as its contents, and each deserialized `Arc` owns
/// a fresh value (sharing is not kept). Real serde gates these two impls
/// behind its `rc` feature.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $i:tt),+) with $n:tt;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$i.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.expect_array_of("tuple", $n)?;
                Ok(($($t::from_value(&items[$i])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A.0) with 1;
    (A.0, B.1) with 2;
    (A.0, B.1, C.2) with 3;
    (A.0, B.1, C.2, D.3) with 4;
}

/// Map keys: JSON objects only have string keys, so integer-keyed maps
/// stringify their keys — the same convention real serde_json uses.
pub trait JsonKey: Sized {
    /// The key as a JSON object key.
    fn to_key(&self) -> String;
    /// Parses the key back.
    fn from_key(key: &str) -> Result<Self, Error>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_owned())
    }
}

macro_rules! impl_json_key {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse()
                    .map_err(|_| Error::new(format!(concat!("invalid ", stringify!($t), " map key {:?}"), key)))
            }
        }
    )*};
}
impl_json_key!(u16, u32, u64, usize, i32, i64);

impl<K: JsonKey + std::hash::Hash + Eq, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Value {
        // Sort keys for stable output (HashMap iteration order is random).
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_key(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K: JsonKey + std::hash::Hash + Eq, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v.expect_object("map")?;
        entries
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}

impl<K: JsonKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_value()))
                .collect(),
        )
    }
}

impl<K: JsonKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let entries = v.expect_object("map")?;
        entries
            .iter()
            .map(|(k, val)| Ok((K::from_key(k)?, V::from_value(val)?)))
            .collect()
    }
}
