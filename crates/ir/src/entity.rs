//! Typed entity indices and dense index-keyed vectors.
//!
//! Every IR object (function, block, virtual register, …) is referred to by a
//! small copyable index newtype. [`EntityVec`] is a `Vec` keyed by such an
//! index, which keeps cross-references between IR tables cheap and
//! type-checked.

use std::fmt;
use std::marker::PhantomData;

/// A typed dense index.
///
/// Implemented by the id newtypes generated with [`entity_id!`](crate::entity_id).
pub trait EntityId: Copy + Eq + std::hash::Hash {
    /// Builds an id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not fit in the id's representation.
    fn from_index(idx: usize) -> Self;
    /// Returns the raw index.
    fn index(self) -> usize;
}

/// Declares a `u32`-backed entity id newtype.
///
/// ```
/// ipra_ir::entity_id!(
///     /// Example id.
///     pub struct DemoId, "demo"
/// );
/// # use ipra_ir::entity::EntityId;
/// let d = DemoId::from_index(3);
/// assert_eq!(d.index(), 3);
/// assert_eq!(d.to_string(), "demo3");
/// ```
#[macro_export]
macro_rules! entity_id {
    ($(#[$attr:meta])* pub struct $name:ident, $prefix:expr) => {
        $(#[$attr])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index (inherent mirror of [`$crate::entity::EntityId::index`]).
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl $crate::entity::EntityId for $name {
            #[inline]
            fn from_index(idx: usize) -> Self {
                assert!(idx <= u32::MAX as usize, "entity index overflow");
                $name(idx as u32)
            }
            #[inline]
            fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl ::std::fmt::Debug for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                ::std::fmt::Display::fmt(self, f)
            }
        }
    };
}

/// A dense vector keyed by an [`EntityId`].
#[derive(Clone, PartialEq, Eq)]
pub struct EntityVec<K: EntityId, V> {
    items: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V> EntityVec<K, V> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        EntityVec {
            items: Vec::new(),
            _marker: PhantomData,
        }
    }

    /// Creates an empty vector with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EntityVec {
            items: Vec::with_capacity(cap),
            _marker: PhantomData,
        }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Releases the spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
    }

    /// Appends a value, returning its id.
    pub fn push(&mut self, value: V) -> K {
        let k = K::from_index(self.items.len());
        self.items.push(value);
        k
    }

    /// The id the next `push` will return.
    pub fn next_id(&self) -> K {
        K::from_index(self.items.len())
    }

    /// Returns `Some(&value)` when `k` is in range.
    pub fn get(&self, k: K) -> Option<&V> {
        self.items.get(k.index())
    }

    /// Returns `Some(&mut value)` when `k` is in range.
    pub fn get_mut(&mut self, k: K) -> Option<&mut V> {
        self.items.get_mut(k.index())
    }

    /// Whether `k` indexes an existing entity.
    pub fn contains(&self, k: K) -> bool {
        k.index() < self.items.len()
    }

    /// Iterates over `(id, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over `(id, &mut value)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.items
            .iter_mut()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }

    /// Iterates over all ids.
    pub fn ids(&self) -> impl Iterator<Item = K> {
        (0..self.items.len()).map(K::from_index)
    }

    /// Iterates over values only.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.items.iter()
    }

    /// Iterates over values mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.items.iter_mut()
    }
}

impl<K: EntityId, V> Default for EntityVec<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EntityId, V> std::ops::Index<K> for EntityVec<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, k: K) -> &V {
        &self.items[k.index()]
    }
}

impl<K: EntityId, V> std::ops::IndexMut<K> for EntityVec<K, V> {
    #[inline]
    fn index_mut(&mut self, k: K) -> &mut V {
        &mut self.items[k.index()]
    }
}

impl<K: EntityId, V: fmt::Debug> fmt::Debug for EntityVec<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<K: EntityId, V> FromIterator<V> for EntityVec<K, V> {
    fn from_iter<I: IntoIterator<Item = V>>(iter: I) -> Self {
        EntityVec {
            items: iter.into_iter().collect(),
            _marker: PhantomData,
        }
    }
}

impl<K: EntityId, V> Extend<V> for EntityVec<K, V> {
    fn extend<I: IntoIterator<Item = V>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

/// A dense map from an [`EntityId`] to `V`, pre-sized with a default value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntityMap<K: EntityId, V> {
    items: Vec<V>,
    _marker: PhantomData<K>,
}

impl<K: EntityId, V: Clone> EntityMap<K, V> {
    /// Creates a map with `n` entries, each set to `init`.
    pub fn with_default(n: usize, init: V) -> Self {
        EntityMap {
            items: vec![init; n],
            _marker: PhantomData,
        }
    }
}

impl<K: EntityId, V> EntityMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over `(id, &value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (K::from_index(i), v))
    }
}

impl<K: EntityId, V> std::ops::Index<K> for EntityMap<K, V> {
    type Output = V;
    #[inline]
    fn index(&self, k: K) -> &V {
        &self.items[k.index()]
    }
}

impl<K: EntityId, V> std::ops::IndexMut<K> for EntityMap<K, V> {
    #[inline]
    fn index_mut(&mut self, k: K) -> &mut V {
        &mut self.items[k.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    entity_id!(
        /// Test id.
        pub struct TestId, "t"
    );

    #[test]
    fn push_and_index() {
        let mut v: EntityVec<TestId, &str> = EntityVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(TestId(7).to_string(), "t7");
        assert_eq!(format!("{:?}", TestId(7)), "t7");
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let v: EntityVec<TestId, i32> = [10, 20, 30].into_iter().collect();
        let pairs: Vec<_> = v.iter().map(|(k, &x)| (k.index(), x)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn next_id_matches_push() {
        let mut v: EntityVec<TestId, ()> = EntityVec::new();
        let predicted = v.next_id();
        let actual = v.push(());
        assert_eq!(predicted, actual);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let v: EntityVec<TestId, i32> = EntityVec::new();
        assert!(v.get(TestId(0)).is_none());
        assert!(!v.contains(TestId(0)));
    }

    #[test]
    fn entity_map_default_fill() {
        let mut m: EntityMap<TestId, u8> = EntityMap::with_default(3, 9);
        assert_eq!(m[TestId(2)], 9);
        m[TestId(1)] = 4;
        assert_eq!(m[TestId(1)], 4);
        assert_eq!(m.len(), 3);
    }
}
