//! Open-addressing flow table keyed by [`FiveTuple`].
//!
//! The Monitor NF's flow table sits on the per-packet fast path, where a
//! comparison-based `BTreeMap` descent costs several cache misses per
//! packet. [`FlowMap`] is a linear-probing hash table with a cheap
//! multiply-mix key hash.
//!
//! Iteration order is unspecified; [`FlowMap::sorted_entries`] yields
//! key-ordered entries so snapshots and state fingerprints stay canonical
//! (bit-identical to the previous `BTreeMap` encoding).

use lemur_packet::flow::FiveTuple;

/// Hash of the 13 tuple bytes: the fields pack into two words that are
/// mixed splitmix64-style — a handful of multiplies instead of a
/// byte-at-a-time loop, since this runs once per packet. Stable across
/// platforms — it feeds table placement only, never serialized state.
#[inline]
fn tuple_hash(t: &FiveTuple) -> u64 {
    const M: u64 = 0x9e37_79b9_7f4a_7c15;
    let a = ((t.src_ip.to_u32() as u64) << 32) | t.dst_ip.to_u32() as u64;
    let b = ((t.src_port as u64) << 40) | ((t.dst_port as u64) << 24) | ((t.protocol as u64) << 16);
    let mut h = (a ^ M).wrapping_mul(M);
    h ^= h >> 29;
    h = (h ^ b).wrapping_mul(M);
    h ^= h >> 32;
    h
}

/// One occupied slot.
#[derive(Debug, Clone)]
struct Slot<V> {
    hash: u64,
    key: FiveTuple,
    value: V,
}

/// Linear-probing hash map from [`FiveTuple`] to `V`. Capacity is a power
/// of two; the table grows at 7/8 load.
#[derive(Debug, Clone)]
pub struct FlowMap<V> {
    slots: Vec<Option<Slot<V>>>,
    len: usize,
}

impl<V> Default for FlowMap<V> {
    fn default() -> Self {
        FlowMap::new()
    }
}

impl<V> FlowMap<V> {
    /// An empty map (allocates on first insert).
    pub fn new() -> FlowMap<V> {
        FlowMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.len = 0;
        for slot in old.into_iter().flatten() {
            self.insert_fresh(slot);
        }
    }

    /// Insert a slot known not to be present (rehash / post-probe path).
    fn insert_fresh(&mut self, slot: Slot<V>) {
        let mask = self.mask();
        let mut i = (slot.hash as usize) & mask;
        loop {
            if self.slots[i].is_none() {
                self.slots[i] = Some(slot);
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: &FiveTuple) -> Option<&V> {
        if self.slots.is_empty() {
            return None;
        }
        let hash = tuple_hash(key);
        let mask = self.mask();
        let mut i = (hash as usize) & mask;
        loop {
            match &self.slots[i] {
                None => return None,
                Some(s) if s.hash == hash && s.key == *key => return Some(&s.value),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Entry-style upsert: returns the value for `key`, inserting
    /// `default()` first when absent.
    #[inline]
    pub fn get_mut_or_insert_with(
        &mut self,
        key: &FiveTuple,
        default: impl FnOnce() -> V,
    ) -> &mut V {
        let hash = tuple_hash(key);
        if self.slots.is_empty() || self.len + 1 > self.slots.len() - self.slots.len() / 8 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = (hash as usize) & mask;
        loop {
            match &self.slots[i] {
                Some(s) if s.hash == hash && s.key == *key => break,
                Some(_) => {
                    i = (i + 1) & mask;
                    continue;
                }
                None => {
                    self.slots[i] = Some(Slot {
                        hash,
                        key: *key,
                        value: default(),
                    });
                    self.len += 1;
                    break;
                }
            }
        }
        self.slots[i]
            .as_mut()
            .map(|s| &mut s.value)
            .expect("slot just resolved")
    }

    /// Unordered iteration over entries.
    pub fn iter(&self) -> impl Iterator<Item = (&FiveTuple, &V)> {
        self.slots.iter().flatten().map(|s| (&s.key, &s.value))
    }

    /// Key-ordered entries — the canonical order for snapshots and
    /// fingerprints (matches `BTreeMap` iteration).
    pub fn sorted_entries(&self) -> Vec<(&FiveTuple, &V)> {
        let mut v: Vec<(&FiveTuple, &V)> = self.iter().collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Keep only entries whose `(key, value)` satisfies the predicate.
    pub fn retain(&mut self, mut f: impl FnMut(&FiveTuple, &V) -> bool) {
        // Collect survivors and rebuild: linear probing cannot delete
        // in place without tombstones, and retain is off the fast path.
        let cap = self.slots.len();
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        self.len = 0;
        for slot in old.into_iter().flatten() {
            if f(&slot.key, &slot.value) {
                self.insert_fresh(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::ipv4;

    fn t(n: u8) -> FiveTuple {
        FiveTuple {
            src_ip: ipv4::Address::new(10, 0, 0, n),
            dst_ip: ipv4::Address::new(192, 168, 0, 1),
            src_port: 1000 + n as u16,
            dst_port: 80,
            protocol: 17,
        }
    }

    #[test]
    fn insert_get_grow_and_len() {
        let mut m: FlowMap<u64> = FlowMap::new();
        assert!(m.is_empty());
        for i in 0..200u8 {
            *m.get_mut_or_insert_with(&t(i), || 0) += i as u64;
        }
        assert_eq!(m.len(), 200);
        for i in 0..200u8 {
            assert_eq!(m.get(&t(i)), Some(&(i as u64)));
        }
        assert_eq!(m.get(&t(201)), None);
        // Upsert hits the existing entry.
        *m.get_mut_or_insert_with(&t(3), || 999) += 1;
        assert_eq!(m.get(&t(3)), Some(&4));
        assert_eq!(m.len(), 200);
    }

    #[test]
    fn sorted_entries_are_key_ordered() {
        let mut m: FlowMap<u32> = FlowMap::new();
        for i in [9u8, 3, 200, 1, 45] {
            m.get_mut_or_insert_with(&t(i), || i as u32);
        }
        let entries = m.sorted_entries();
        let keys: Vec<&FiveTuple> = entries.iter().map(|e| e.0).collect();
        let mut expect = keys.clone();
        expect.sort();
        assert_eq!(keys, expect);
    }

    #[test]
    fn retain_keeps_probe_chains() {
        let mut m: FlowMap<u8> = FlowMap::new();
        for i in 0..50u8 {
            m.get_mut_or_insert_with(&t(i), || i);
        }
        m.retain(|_, v| v % 2 == 0);
        assert_eq!(m.len(), 25);
        assert_eq!(m.get(&t(4)), Some(&4));
        assert_eq!(m.get(&t(5)), None);
        // Deleted keys don't break probe chains for surviving ones.
        for i in (0..50u8).step_by(2) {
            assert!(m.get(&t(i)).is_some());
        }
    }
}
