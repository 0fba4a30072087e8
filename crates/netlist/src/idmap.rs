//! [`IdMap`]: name lookups that store ids, not names.
//!
//! A [`Netlist`](crate::Netlist) keeps every device and net name once,
//! in its name arena, and every type name in its type table. Its
//! lookups by name are tables of ids into those: each slot holds an id
//! and 32 bits of the name's hash, and a lookup confirms every hash
//! match against the name itself through a caller-supplied test.
//!
//! The hash is SipHash under keys drawn at random for each map
//! ([`RandomState`]), so names a client uploads can neither be chosen to
//! pile onto one probe sequence nor be confused with one another: two
//! names whose hashes do collide still resolve each to its own id.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// The id of a vacant slot, and of an entry [`IdMap::remap`] drops.
pub(crate) const VACANT: u32 = u32::MAX;

/// One slot: an id and the low 32 bits of its name's hash.
#[derive(Clone, Copy, Debug)]
struct Slot {
    hash: u32,
    id: u32,
}

const EMPTY: Slot = Slot {
    hash: 0,
    id: VACANT,
};

/// An open-addressed, linearly probed table of ids keyed by names kept
/// elsewhere. Its length is a power of two, at most seven eighths
/// full.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdMap {
    keys: RandomState,
    slots: Vec<Slot>,
    len: usize,
}

impl IdMap {
    /// The hash of `name`.
    pub(crate) fn hash(&self, name: &str) -> u32 {
        let mut h = self.keys.build_hasher();
        h.write(name.as_bytes());
        h.finish() as u32
    }

    /// The id stored under `hash` for which `is` holds, if any.
    pub(crate) fn find(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == VACANT {
                return None;
            }
            if slot.hash == hash && is(slot.id) {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `id` under `hash`. The caller has checked that its name
    /// is not stored yet.
    pub(crate) fn insert(&mut self, hash: u32, id: u32) {
        self.reserve(1);
        place(&mut self.slots, Slot { hash, id });
        self.len += 1;
    }

    /// Makes room for `additional` more ids without growing.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let want = self.len + additional;
        if want * 8 > self.slots.len() * 7 {
            let len = (want * 8 / 7 + 1).next_power_of_two().max(8);
            self.rebuild(len, |id| id);
        }
    }

    /// Renumbers every id `i` to `map[i]`, dropping those mapped to
    /// [`VACANT`]. Names keep their hashes, so nothing is rehashed.
    pub(crate) fn remap(&mut self, map: &[u32]) {
        self.rebuild(self.slots.len(), |id| map[id as usize]);
    }

    /// Re-places every entry, renumbered by `map`, in a table of `len`
    /// slots.
    fn rebuild(&mut self, len: usize, map: impl Fn(u32) -> u32) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; len]);
        self.len = 0;
        for slot in old.into_iter().filter(|s| s.id != VACANT) {
            let id = map(slot.id);
            if id != VACANT {
                place(&mut self.slots, Slot { id, ..slot });
                self.len += 1;
            }
        }
    }
}

/// Puts `slot` in the first vacant slot of its probe sequence.
fn place(slots: &mut [Slot], slot: Slot) {
    let mask = slots.len() - 1;
    let mut i = slot.hash as usize & mask;
    while slots[i].id != VACANT {
        i = (i + 1) & mask;
    }
    slots[i] = slot;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_forced_onto_one_hash_both_resolve() {
        let names = ["alpha", "beta", "gamma"];
        let mut map = IdMap::default();
        // Every name under the same hash: one probe sequence, resolved
        // only by comparing the names themselves.
        for id in 0..names.len() as u32 {
            map.insert(7, id);
        }
        for (id, name) in names.iter().enumerate() {
            assert_eq!(map.find(7, |i| names[i as usize] == *name), Some(id as u32));
        }
        assert_eq!(map.find(7, |i| names[i as usize] == "delta"), None);
        // They survive growth and renumbering alike.
        map.reserve(1_000);
        map.remap(&[2, VACANT, 0]);
        assert_eq!(map.find(7, |i| i == 2), Some(2));
        assert_eq!(map.find(7, |i| i == 0), Some(0));
        assert_eq!(map.find(7, |i| i == 1), None);
        assert_eq!(map.len, 2);
    }

    #[test]
    fn growth_keeps_every_id_findable() {
        let mut map = IdMap::default();
        let names: Vec<String> = (0..5_000).map(|i| format!("n{i}")).collect();
        for (id, name) in names.iter().enumerate() {
            map.insert(map.hash(name), id as u32);
        }
        assert!(map.len * 8 <= map.slots.len() * 7);
        for (id, name) in names.iter().enumerate() {
            let found = map.find(map.hash(name), |i| names[i as usize] == *name);
            assert_eq!(found, Some(id as u32));
        }
    }
}
