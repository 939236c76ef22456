//! Offline stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, so the workspace carries a
//! minimal self-serialization model: every serializable type converts to and
//! from a JSON-shaped [`Value`] tree, and `serde_json` (the sibling shim)
//! renders that tree as real JSON text. The `#[derive(Serialize,
//! Deserialize)]` macros are provided by the local `serde_derive` proc-macro
//! crate and support named-field structs plus enums with unit and newtype
//! variants — exactly the shapes this workspace serializes.

use std::collections::HashMap;
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree: the interchange format between [`Serialize`]
/// impls and text codecs such as the `serde_json` shim.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (only produced for negative numbers).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object; insertion-ordered.
    Map(Vec<(String, Value)>),
}

/// Serialization/deserialization error.
#[derive(Clone, Debug)]
pub struct Error(String);

impl Error {
    /// Build an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Conversion into a [`Value`] tree.
pub trait Serialize {
    /// Serialize `self` as a [`Value`].
    fn to_value(&self) -> Value;
}

/// Reconstruction from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserialize from a [`Value`], failing on shape mismatches.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- helpers

/// Look up `key` in a [`Value::Map`] (derive-generated code calls this).
pub fn map_get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, Error> {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| Error::msg(format!("missing field `{key}`"))),
        _ => Err(Error::msg(format!(
            "expected map while reading field `{key}`"
        ))),
    }
}

/// Decompose an externally-tagged enum value: either a bare string (unit
/// variant) or a single-entry map (newtype variant).
pub fn expect_enum(v: &Value) -> Result<(&str, Option<&Value>), Error> {
    match v {
        Value::Str(s) => Ok((s.as_str(), None)),
        Value::Map(entries) if entries.len() == 1 => {
            Ok((entries[0].0.as_str(), Some(&entries[0].1)))
        }
        _ => Err(Error::msg("expected enum (string or single-entry map)")),
    }
}

// --------------------------------------------------------------- integers

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::msg("integer out of range")),
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::msg("integer out of range")),
                    // `as i128` is exact for every integral float an
                    // integer type here can hold, and saturates the rest.
                    Value::Float(f) if f.fract() == 0.0 => <$t>::try_from(*f as i128)
                        .map_err(|_| Error::msg("integer out of range")),
                    _ => Err(Error::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self < 0 { Value::Int(*self as i64) } else { Value::UInt(*self as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::msg("integer out of range")),
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::msg("integer out of range")),
                    // `as i128` is exact for every integral float an
                    // integer type here can hold, and saturates the rest.
                    Value::Float(f) if f.fract() == 0.0 => <$t>::try_from(*f as i128)
                        .map_err(|_| Error::msg("integer out of range")),
                    _ => Err(Error::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

// ----------------------------------------------------------------- floats

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // JSON has no Inf/NaN; represent them as null (as serde_json
                // does) and let deserialization restore NaN.
                if self.is_finite() { Value::Float(*self as f64) } else { Value::Null }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(Error::msg(concat!("expected ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

// ------------------------------------------------------------ other leaves

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

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::msg("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::msg("expected string")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            _ => Err(Error::msg("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
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

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == 2 => {
                Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
            }
            _ => Err(Error::msg("expected 2-tuple")),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Seq(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(items) if items.len() == 3 => Ok((
                A::from_value(&items[0])?,
                B::from_value(&items[1])?,
                C::from_value(&items[2])?,
            )),
            _ => Err(Error::msg("expected 3-tuple")),
        }
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so serialized bytes are deterministic across runs.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error::msg("expected map")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        assert_eq!(u32::from_value(&7u32.to_value()).unwrap(), 7);
        assert_eq!(i64::from_value(&(-3i64).to_value()).unwrap(), -3);
        assert_eq!(f32::from_value(&1.5f32.to_value()).unwrap(), 1.5);
        assert!(f32::from_value(&f32::NAN.to_value()).unwrap().is_nan());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
    }

    #[test]
    fn round_trip_containers() {
        let v = vec![(1usize, 2usize), (3, 4)];
        let back: Vec<(usize, usize)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);

        let mut m = HashMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        let back: HashMap<String, u32> = Deserialize::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        assert!(u32::from_value(&Value::Str("x".into())).is_err());
        assert!(Vec::<u8>::from_value(&Value::Bool(true)).is_err());
    }
}
