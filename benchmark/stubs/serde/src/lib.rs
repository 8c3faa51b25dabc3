//! Offline stand-in for the `serde` crate.
//!
//! The repository names serde's traits in derives and in one hand-written
//! `with =` helper but never serializes anything, so this crate carries
//! the trait names with just enough methods for that helper to
//! type-check. The derives (re-exported from the stub `serde_derive`)
//! expand to nothing.

pub use serde_derive::{Deserialize, Serialize};

/// Serialization half.
pub mod ser {
    /// Error raised by a [`Serializer`].
    pub trait Error: Sized + std::fmt::Debug + std::fmt::Display {
        /// Builds an error from a message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// A data format that can serialize values.
    pub trait Serializer: Sized {
        /// Output of a successful serialization.
        type Ok;
        /// Error type.
        type Error: Error;
        /// Serializes a byte string.
        fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
        /// Serializes a sequence.
        fn collect_seq<I>(self, iter: I) -> Result<Self::Ok, Self::Error>
        where
            I: IntoIterator,
            I::Item: Serialize;
    }

    /// A value that can be serialized.
    pub trait Serialize {
        /// Serializes `self` into `serializer`.
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
    }

    impl Serialize for u8 {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_bytes(std::slice::from_ref(self))
        }
    }

    impl<T: Serialize + ?Sized> Serialize for &T {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            (**self).serialize(serializer)
        }
    }

    impl<T: Serialize> Serialize for [T] {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.collect_seq(self)
        }
    }

    impl<T: Serialize> Serialize for Vec<T> {
        fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.collect_seq(self)
        }
    }
}

/// Deserialization half.
pub mod de {
    /// Error raised by a [`Deserializer`].
    pub trait Error: Sized + std::fmt::Debug + std::fmt::Display {
        /// Builds an error from a message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }

    /// A data format that can deserialize values.
    pub trait Deserializer<'de>: Sized {
        /// Error type.
        type Error: Error;
        /// Reads one byte.
        fn read_u8(&mut self) -> Result<u8, Self::Error>;
        /// Reads a sequence of `T`.
        fn read_seq<T: Deserialize<'de>>(self) -> Result<Vec<T>, Self::Error>;
    }

    /// A value that can be deserialized.
    pub trait Deserialize<'de>: Sized {
        /// Deserializes a value from `deserializer`.
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
    }

    /// A value deserializable without borrowing from the input.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

    impl<'de> Deserialize<'de> for u8 {
        fn deserialize<D: Deserializer<'de>>(mut deserializer: D) -> Result<Self, D::Error> {
            deserializer.read_u8()
        }
    }

    impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
        fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            deserializer.read_seq()
        }
    }
}

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
