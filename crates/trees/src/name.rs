//! Interned element-type and attribute names.
//!
//! Labels (element types from the alphabet Γ of the paper) and attribute
//! names are shared pervasively between trees, DTDs, patterns and mappings.
//! `Name` wraps an `Arc<str>` so that clones are reference-count bumps, with
//! content-based equality/hashing (and a pointer fast path for equality).

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An interned string used for element-type labels and attribute names.
#[derive(Clone)]
pub struct Name(Arc<str>);

impl Name {
    /// Creates a name from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        Name(Arc::from(s.as_ref()))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", &*self.0)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Convenience constructor: `name("prof")`.
pub fn name(s: &str) -> Name {
    Name::new(s)
}

/// A small open-addressing table from name bytes to dense `u32` ids.
///
/// Ids are assigned in insertion order. Lookups hash the bytes and compare
/// them against the stored names, so a probe with a borrowed `&[u8]` never
/// allocates. The SAX reader interns element and attribute names through
/// it, and a DTD resolves labels to their ids through it. Names come from
/// documents and schemas, so the table's hash is the standard library's
/// keyed one: input cannot be crafted to make names collide. In front of
/// it sits a direct-mapped cache indexed by the name's length and end
/// bytes; a hit skips the keyed hash, and a miss costs one comparison.
#[derive(Clone, Default)]
pub struct NameTable {
    names: Vec<Name>,
    /// `u32::MAX` marks an empty slot; the length is a power of two kept
    /// at least twice `names.len()`.
    slots: Vec<u32>,
    keys: std::collections::hash_map::RandomState,
    /// [`FRONT`] ids (`u32::MAX` when empty), by [`front_index`]; the
    /// first name inserted at an index keeps it.
    front: Vec<u32>,
}

/// Slots in a [`NameTable`]'s direct-mapped cache.
const FRONT: usize = 64;

/// The cache slot of a name: its length and first and last bytes.
fn front_index(bytes: &[u8]) -> usize {
    let (first, last) = match bytes {
        [] => (0, 0),
        [f, .., l] => (*f as usize, *l as usize),
        [b] => (*b as usize, *b as usize),
    };
    (bytes.len() ^ first << 1 ^ last << 3) % FRONT
}

impl NameTable {
    /// An empty table.
    pub fn new() -> NameTable {
        NameTable::default()
    }

    /// Number of names in the table.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name with id `id`.
    pub fn name(&self, id: u32) -> &Name {
        &self.names[id as usize]
    }

    /// All names, indexed by id.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    fn hash(&self, bytes: &[u8]) -> usize {
        use std::hash::BuildHasher;
        self.keys.hash_one(bytes) as usize
    }

    /// The id of the name spelled `bytes`, if present.
    pub fn find(&self, bytes: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let cached = self.front[front_index(bytes)];
        if cached != u32::MAX && self.names[cached as usize].as_str().as_bytes() == bytes {
            return Some(cached);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.hash(bytes) & mask;
        loop {
            let id = self.slots[i];
            if id == u32::MAX {
                return None;
            }
            if self.names[id as usize].as_str().as_bytes() == bytes {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `name` (which must not be present yet) and returns its id.
    pub fn insert(&mut self, name: Name) -> u32 {
        debug_assert!(self.find(name.as_str().as_bytes()).is_none());
        if self.front.is_empty() {
            self.front = vec![u32::MAX; FRONT];
        }
        if (self.names.len() + 1) * 2 > self.slots.len() {
            let size = ((self.names.len() + 1) * 4).next_power_of_two().max(16);
            self.slots = vec![u32::MAX; size];
            for id in 0..self.names.len() {
                self.place(id as u32);
            }
        }
        let id = self.names.len() as u32;
        let front = &mut self.front[front_index(name.as_str().as_bytes())];
        if *front == u32::MAX {
            *front = id;
        }
        self.names.push(name);
        self.place(id);
        id
    }

    fn place(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = self.hash(self.names[id as usize].as_str().as_bytes()) & mask;
        while self.slots[i] != u32::MAX {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn equality_is_by_content() {
        let a = Name::new("prof");
        let b = Name::new(String::from("prof"));
        assert_eq!(a, b);
        assert_ne!(a, Name::new("prog"));
    }

    #[test]
    fn clone_is_pointer_shared() {
        let a = Name::new("course");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn hashes_agree_with_str() {
        let mut set = HashSet::new();
        set.insert(Name::new("student"));
        // Borrow<str> lets us look up by &str.
        assert!(set.contains("student"));
        assert!(!set.contains("staff"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = vec![Name::new("b"), Name::new("a"), Name::new("c")];
        v.sort();
        assert_eq!(v, vec![Name::new("a"), Name::new("b"), Name::new("c")]);
    }

    #[test]
    fn name_table_assigns_ids_in_insertion_order() {
        let mut t = NameTable::new();
        assert_eq!(t.find(b"a"), None);
        let words: Vec<String> = (0..100).map(|i| format!("n{i}")).collect();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(t.insert(Name::new(w)), i as u32);
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(t.find(w.as_bytes()), Some(i as u32));
            assert_eq!(t.name(i as u32).as_str(), w);
        }
        assert_eq!(t.find(b"n100"), None);
        assert_eq!(t.find(b""), None);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn display_and_debug() {
        let n = Name::new("year");
        assert_eq!(n.to_string(), "year");
        assert_eq!(format!("{n:?}"), "\"year\"");
    }
}
