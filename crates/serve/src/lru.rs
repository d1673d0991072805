//! An exact least-recently-used cache with hit/miss/eviction counters —
//! the session table's quota enforcement. The count bound is the cache's
//! own; a caller with a second bound (the server's kernel budget) evicts
//! for it through [`LruCache::pop_lru`].
//!
//! Sessions are few, long-lived, and expensive to rebuild (each holds its
//! Model B kernels, freed with it), so the session table wants exact LRU:
//! registering past the capacity evicts precisely the session touched
//! longest ago. Recency order is a [`VecDeque`] of keys — `O(n)` on
//! touch, which is the right trade at session-table sizes (tens to
//! hundreds) and keeps the structure trivially auditable by the property
//! suite.

use std::collections::VecDeque;

/// An exact-LRU map bounded to `capacity` entries.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    /// Keys from least- to most-recently used; values ride along.
    entries: VecDeque<(K, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Clone, V> LruCache<K, V> {
    /// An empty cache bounded to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "an LRU cache needs positive capacity");
        Self {
            capacity,
            entries: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found their key.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by capacity pressure or [`LruCache::pop_lru`]
    /// (explicit [`LruCache::remove`] calls are not evictions).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks `key` up, counting a hit or miss and promoting a hit to
    /// most-recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        match self.entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.hits += 1;
                let entry = self.entries.remove(i).expect("position came from iter");
                self.entries.push_back(entry);
                self.entries.back().map(|(_, v)| v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks `key` up without touching recency or the counters.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Inserts (or replaces) `key` as most-recently used, returning the
    /// entry evicted to stay within capacity, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push_back((key, value));
        if self.entries.len() > self.capacity {
            self.pop_lru()
        } else {
            None
        }
    }

    /// Evicts the least-recently-used entry, counted as an eviction, or
    /// returns `None` when the cache is empty.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        let entry = self.entries.pop_front()?;
        self.evictions += 1;
        Some(entry)
    }

    /// Removes `key`, returning its value (not counted as an eviction).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        self.entries.remove(i).map(|(_, v)| v)
    }

    /// Entries from least- to most-recently used (the eviction order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_recency_order() {
        let mut lru = LruCache::new(2);
        assert!(lru.insert("a", 1).is_none());
        assert!(lru.insert("b", 2).is_none());
        // Touch "a": now "b" is the LRU entry.
        assert_eq!(lru.get(&"a"), Some(&1));
        let evicted = lru.insert("c", 3).unwrap();
        assert_eq!(evicted, ("b", 2));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.iter().collect::<Vec<_>>(), [(&"a", &1), (&"c", &3)]);
        assert_eq!(lru.pop_lru(), Some(("a", 1)), "pop_lru takes the LRU entry");
        assert_eq!(lru.evictions(), 2, "and counts it");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut lru = LruCache::new(2);
        lru.insert(1, "x");
        assert!(lru.get(&1).is_some());
        assert!(lru.get(&2).is_none());
        assert_eq!((lru.hits(), lru.misses()), (1, 1));
        // peek touches neither counters nor recency.
        assert!(lru.peek(&1).is_some());
        assert_eq!((lru.hits(), lru.misses()), (1, 1));
    }

    #[test]
    fn reinsert_replaces_without_growing() {
        let mut lru = LruCache::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert!(lru.insert("a", 10).is_none(), "replacement, not eviction");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.peek(&"a"), Some(&10));
        // "a" was promoted by the reinsert, so "b" evicts next.
        assert_eq!(lru.insert("c", 3).unwrap().0, "b");
    }

    #[test]
    fn remove_is_not_an_eviction() {
        let mut lru = LruCache::new(1);
        lru.insert(7, "x");
        assert_eq!(lru.remove(&7), Some("x"));
        assert_eq!(lru.remove(&7), None);
        assert_eq!(lru.evictions(), 0);
        assert!(lru.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u64, ()>::new(0);
    }
}
