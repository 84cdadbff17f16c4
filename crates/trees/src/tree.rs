//! Unranked ordered data trees.
//!
//! An XML document is modelled exactly as in the paper (§2):
//! `T = ⟨U, ↓, →, lab, (ρ_a)⟩` — an unranked tree domain with child and
//! next-sibling relations, a labelling function, and per-node attribute
//! values. Nodes live in an arena owned by the [`Tree`]; a [`NodeId`] is a
//! cheap index into it.

use crate::name::Name;
use crate::value::Value;
use std::fmt;

/// Index of a node within its owning [`Tree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node of every tree.
    pub const ROOT: NodeId = NodeId(0);

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct NodeData {
    pub(crate) label: Name,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
    /// Attribute name/value pairs, in canonical (DTD) order.
    pub(crate) attrs: Vec<(Name, Value)>,
}

/// An unranked ordered tree with attribute values — an XML document.
///
/// The root always exists and is node [`NodeId::ROOT`]. Nodes are appended
/// with [`Tree::add_child`]; the arena never removes nodes (documents in
/// schema-mapping problems are immutable once constructed, and this keeps
/// `NodeId`s stable).
///
/// ```
/// use xmlmap_trees::{Tree, Value};
/// let mut t = Tree::new("r");
/// let p = t.add_child(Tree::ROOT, "prof", [("name", Value::str("Ada"))]);
/// let c = t.add_child(p, "course", [("cno", Value::str("cs101"))]);
/// assert_eq!(t.label(c).as_str(), "course");
/// assert_eq!(t.parent(c), Some(p));
/// assert_eq!(t.size(), 3);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Tree {
    nodes: Vec<NodeData>,
}

impl Tree {
    /// Alias for [`NodeId::ROOT`], for readability at call sites.
    pub const ROOT: NodeId = NodeId::ROOT;

    /// Creates a tree consisting of a single root node with no attributes.
    pub fn new(root_label: impl Into<Name>) -> Self {
        Tree {
            nodes: vec![NodeData {
                label: root_label.into(),
                parent: None,
                children: Vec::new(),
                attrs: Vec::new(),
            }],
        }
    }

    /// Creates a tree whose root carries the given attributes.
    pub fn with_root_attrs<N, V, I>(root_label: impl Into<Name>, attrs: I) -> Self
    where
        N: Into<Name>,
        V: Into<Value>,
        I: IntoIterator<Item = (N, V)>,
    {
        let mut t = Tree::new(root_label);
        t.nodes[0].attrs = attrs
            .into_iter()
            .map(|(n, v)| (n.into(), v.into()))
            .collect();
        t
    }

    /// Reserves room for `additional` more nodes if the allocator grants
    /// it, so that a builder that knows the size up front allocates the
    /// arena once. A refused reservation is not an error: the arena then
    /// grows as nodes arrive.
    pub fn reserve(&mut self, additional: usize) {
        let _ = self.nodes.try_reserve_exact(additional);
    }

    /// Appends a new last child under `parent` and returns its id.
    pub fn add_child<N, V, I>(&mut self, parent: NodeId, label: impl Into<Name>, attrs: I) -> NodeId
    where
        N: Into<Name>,
        V: Into<Value>,
        I: IntoIterator<Item = (N, V)>,
    {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label: label.into(),
            parent: Some(parent),
            children: Vec::new(),
            attrs: attrs
                .into_iter()
                .map(|(n, v)| (n.into(), v.into()))
                .collect(),
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a child with no attributes.
    pub fn add_elem(&mut self, parent: NodeId, label: impl Into<Name>) -> NodeId {
        self.add_child(parent, label, std::iter::empty::<(Name, Value)>())
    }

    /// Grafts a whole subtree (a copy of `sub`) as the last child of
    /// `parent`; returns the id of the copied root.
    pub fn graft(&mut self, parent: NodeId, sub: &Tree) -> NodeId {
        self.graft_node(parent, sub, Tree::ROOT)
    }

    fn graft_node(&mut self, parent: NodeId, sub: &Tree, at: NodeId) -> NodeId {
        let data = &sub.nodes[at.index()];
        let copied = self.add_child(parent, data.label.clone(), data.attrs.iter().cloned());
        self.copy_children(sub, at, copied);
        copied
    }

    /// Appends copies of the descendants of `from` in `sub` below `to`, in
    /// pre-order (so ids come out as a recursive copy would assign them).
    /// Iterative, so deep chains cannot overflow the stack.
    fn copy_children(&mut self, sub: &Tree, from: NodeId, to: NodeId) {
        let mut pending: Vec<(NodeId, NodeId)> =
            sub.children(from).iter().rev().map(|&c| (c, to)).collect();
        while let Some((at, parent)) = pending.pop() {
            let data = &sub.nodes[at.index()];
            let copied = self.add_child(parent, data.label.clone(), data.attrs.iter().cloned());
            pending.extend(data.children.iter().rev().map(|&c| (c, copied)));
        }
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The label of a node.
    pub fn label(&self, n: NodeId) -> &Name {
        &self.nodes[n.index()].label
    }

    /// The parent, or `None` for the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.index()].parent
    }

    /// The children, in document order.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].children
    }

    /// Attribute name/value pairs, in canonical order.
    pub fn attrs(&self, n: NodeId) -> &[(Name, Value)] {
        &self.nodes[n.index()].attrs
    }

    /// Just the attribute values (the tuple `ā` of the paper), in order.
    pub fn attr_values(&self, n: NodeId) -> impl Iterator<Item = &Value> + '_ {
        self.nodes[n.index()].attrs.iter().map(|(_, v)| v)
    }

    /// Looks up an attribute value by name (`ρ_a(n)` of the paper).
    pub fn attr(&self, n: NodeId, attr: &str) -> Option<&Value> {
        self.nodes[n.index()]
            .attrs
            .iter()
            .find(|(a, _)| a.as_str() == attr)
            .map(|(_, v)| v)
    }

    /// Replaces the attributes of `n` (used when normalising to DTD order).
    pub fn set_attrs<N, V, I>(&mut self, n: NodeId, attrs: I)
    where
        N: Into<Name>,
        V: Into<Value>,
        I: IntoIterator<Item = (N, V)>,
    {
        self.nodes[n.index()].attrs = attrs
            .into_iter()
            .map(|(a, v)| (a.into(), v.into()))
            .collect();
    }

    /// Overwrites a single attribute value; panics if the attribute is absent.
    pub fn set_attr(&mut self, n: NodeId, attr: &str, value: impl Into<Value>) {
        let slot = self.nodes[n.index()]
            .attrs
            .iter_mut()
            .find(|(a, _)| a.as_str() == attr)
            .unwrap_or_else(|| panic!("node {n:?} has no attribute {attr:?}"));
        slot.1 = value.into();
    }

    /// Reorders the children of `n`. The new list must be a permutation of
    /// the current children (panics otherwise).
    pub fn set_children(&mut self, n: NodeId, children: Vec<NodeId>) {
        let current = &self.nodes[n.index()].children;
        assert_eq!(
            children.len(),
            current.len(),
            "set_children: length mismatch"
        );
        let mut a = children.clone();
        let mut b = current.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "set_children: not a permutation of the children");
        self.nodes[n.index()].children = children;
    }

    /// The next sibling (`→` of the paper), if any.
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent(n)?;
        let sibs = self.children(p);
        let pos = sibs.iter().position(|&s| s == n)?;
        sibs.get(pos + 1).copied()
    }

    /// The previous sibling, if any.
    pub fn prev_sibling(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent(n)?;
        let sibs = self.children(p);
        let pos = sibs.iter().position(|&s| s == n)?;
        pos.checked_sub(1).map(|i| sibs[i])
    }

    /// Position of `n` among its siblings (root has position 0).
    pub fn sibling_index(&self, n: NodeId) -> usize {
        match self.parent(n) {
            None => 0,
            Some(p) => self
                .children(p)
                .iter()
                .position(|&s| s == n)
                .expect("node is a child of its parent"),
        }
    }

    /// All following siblings of `n`, nearest first (`→*`, strict).
    pub fn following_siblings(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (parent, pos) = match self.parent(n) {
            Some(p) => (Some(p), self.sibling_index(n)),
            None => (None, 0),
        };
        parent
            .into_iter()
            .flat_map(move |p| self.children(p)[pos + 1..].iter().copied())
    }

    /// All nodes of the tree in document (pre-)order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        DescendantsIter {
            tree: self,
            stack: vec![Tree::ROOT],
        }
    }

    /// Proper descendants of `n`, in document order.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        // The iterator pops from the end, so push children right-to-left.
        let stack: Vec<NodeId> = self.children(n).iter().rev().copied().collect();
        DescendantsIter { tree: self, stack }
    }

    /// `n` together with its proper descendants, in document order.
    pub fn descendants_or_self(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        DescendantsIter {
            tree: self,
            stack: vec![n],
        }
    }

    /// The depth of a node: root is at depth 0.
    pub fn depth(&self, n: NodeId) -> usize {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree: a single-node tree has height 0.
    pub fn height(&self) -> usize {
        self.nodes().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// The sequence of labels on the path from the root to `n`, inclusive.
    pub fn path_labels(&self, n: NodeId) -> Vec<Name> {
        let mut path = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            path.push(self.label(c).clone());
            cur = self.parent(c);
        }
        path.reverse();
        path
    }

    /// All constant data values occurring in the tree (with duplicates).
    pub fn data_values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.nodes
            .iter()
            .flat_map(|d| d.attrs.iter().map(|(_, v)| v))
    }

    /// Approximate heap footprint in bytes: node records, child id lists,
    /// attribute vectors, and the string data behind labels and values.
    /// Interned `Name`s/`Arc<str>`s are counted once per occurrence — an
    /// overestimate under sharing, which is the safe direction for the
    /// engine caches' memory accounting (they evict too early, never too
    /// late).
    pub fn approx_bytes(&self) -> u64 {
        let mut total = (self.nodes.capacity() * std::mem::size_of::<NodeData>()) as u64;
        for d in &self.nodes {
            total += (d.children.capacity() * std::mem::size_of::<NodeId>()) as u64;
            total += (d.attrs.capacity() * std::mem::size_of::<(Name, Value)>()) as u64;
            total += d.label.as_str().len() as u64;
            for (name, value) in &d.attrs {
                total += name.as_str().len() as u64;
                if let Value::Str(s) = value {
                    total += s.len() as u64;
                }
            }
        }
        total
    }

    /// Grafts a copy of `sub` under `parent` at child position `pos`
    /// (existing children from `pos` on shift right); returns the id of
    /// the copied root. Panics if `pos` exceeds the current child count.
    pub fn graft_at(&mut self, parent: NodeId, pos: usize, sub: &Tree) -> NodeId {
        let count = self.nodes[parent.index()].children.len();
        assert!(pos <= count, "graft_at: position {pos} out of {count}");
        let id = self.graft_node(parent, sub, Tree::ROOT);
        // graft_node appended the new root last; rotate it into place.
        let kids = &mut self.nodes[parent.index()].children;
        let last = kids.pop().expect("graft_node pushed a child");
        kids.insert(pos, last);
        id
    }

    /// Detaches the subtree rooted at `n` from its parent. The nodes stay
    /// in the arena (ids remain stable and the detached subtree can still
    /// be read through them) but are no longer reachable from the root —
    /// traversals, conformance checks and serialisation all start at
    /// [`Tree::ROOT`] and never see them. Panics on the root.
    pub fn detach(&mut self, n: NodeId) {
        let p = self.nodes[n.index()]
            .parent
            .expect("detach: cannot detach the root");
        let kids = &mut self.nodes[p.index()].children;
        let pos = kids
            .iter()
            .position(|&c| c == n)
            .expect("node is a child of its parent");
        kids.remove(pos);
        self.nodes[n.index()].parent = None;
    }

    /// Extracts the subtree rooted at `n` as a standalone tree.
    pub fn subtree(&self, n: NodeId) -> Tree {
        let data = &self.nodes[n.index()];
        let mut t = Tree::with_root_attrs(data.label.clone(), data.attrs.iter().cloned());
        t.copy_children(self, n, Tree::ROOT);
        t
    }
}

/// Are `a` and `b` identical up to a renaming of null labels?
///
/// Walks both trees in lockstep (same labels, same child order, same
/// attribute names in order) while building a **bijection** between null
/// labels: a null on one side must always meet the same null on the other,
/// constants must be equal, and a null never matches a constant. This is
/// the right equivalence for chase outputs — two runs of the chase differ
/// only in how they number the fresh nulls — and is what the differential
/// tests in `tests/chase_equiv.rs` assert about the two chase engines.
pub fn isomorphic_mod_nulls(a: &Tree, b: &Tree) -> bool {
    use std::collections::HashMap;
    fn go(
        a: &Tree,
        an: NodeId,
        b: &Tree,
        bn: NodeId,
        fwd: &mut HashMap<u64, u64>,
        bwd: &mut HashMap<u64, u64>,
    ) -> bool {
        if a.label(an) != b.label(bn) || a.attrs(an).len() != b.attrs(bn).len() {
            return false;
        }
        for ((aname, av), (bname, bv)) in a.attrs(an).iter().zip(b.attrs(bn)) {
            if aname != bname {
                return false;
            }
            match (av, bv) {
                (Value::Null(x), Value::Null(y)) => {
                    if *fwd.entry(*x).or_insert(*y) != *y || *bwd.entry(*y).or_insert(*x) != *x {
                        return false;
                    }
                }
                (x, y) if x.is_null() || y.is_null() => return false,
                (x, y) => {
                    if x != y {
                        return false;
                    }
                }
            }
        }
        let (ac, bc) = (a.children(an), b.children(bn));
        ac.len() == bc.len() && ac.iter().zip(bc).all(|(&x, &y)| go(a, x, b, y, fwd, bwd))
    }
    let (mut fwd, mut bwd) = (HashMap::new(), HashMap::new());
    go(a, Tree::ROOT, b, Tree::ROOT, &mut fwd, &mut bwd)
}

/// A structural hash of the subtree rooted at every node of `t`, indexed
/// by [`NodeId::index`].
///
/// A node's hash covers its label, its attributes (names and values, in
/// order; nulls by their id, and `Int(1)` apart from `Str("1")`) and the
/// ordered hashes of its children, so identical subtrees — in the sense
/// of [`subtrees_equal`] — hash alike. Unequal subtrees may collide:
/// callers verify a hit with [`subtrees_equal`] and never trust the hash.
///
/// One pass, O(|t|), no per-node key: the arena only appends a node under
/// an existing parent, so every child has a larger index than its parent
/// and walking the arena backwards visits children first. The hasher is
/// keyed per call, so inputs cannot be crafted to collide; hashes are
/// therefore only comparable within one call.
pub fn subtree_hashes(t: &Tree) -> Vec<u64> {
    use std::hash::{BuildHasher, Hash, Hasher};
    let keys = std::collections::hash_map::RandomState::new();
    let mut hashes = vec![0u64; t.nodes.len()];
    for (i, data) in t.nodes.iter().enumerate().rev() {
        let mut h = keys.build_hasher();
        data.label.hash(&mut h);
        data.attrs.hash(&mut h);
        h.write_usize(data.children.len());
        for c in &data.children {
            debug_assert!(c.index() > i, "children follow their parent in the arena");
            h.write_u64(hashes[c.index()]);
        }
        hashes[i] = h.finish();
    }
    hashes
}

/// Is the subtree of `a` at `an` identical to the subtree of `b` at `bn`?
///
/// Identical means: equal labels, equal attribute lists (names and values
/// in order; a null equals only the null with the same id, and constants
/// compare by variant and content), and pairwise identical children in
/// the same order. Iterative, so deep chains cannot overflow the stack.
pub fn subtrees_equal(a: &Tree, an: NodeId, b: &Tree, bn: NodeId) -> bool {
    // Node pairs still to compare; allocated only below the roots.
    let mut pending = Vec::new();
    let (mut x, mut y) = (an, bn);
    loop {
        let (dx, dy) = (&a.nodes[x.index()], &b.nodes[y.index()]);
        if dx.label != dy.label || dx.attrs != dy.attrs || dx.children.len() != dy.children.len() {
            return false;
        }
        pending.extend(dx.children.iter().copied().zip(dy.children.iter().copied()));
        match pending.pop() {
            Some(next) => (x, y) = next,
            None => return true,
        }
    }
}

struct DescendantsIter<'a> {
    tree: &'a Tree,
    stack: Vec<NodeId>,
}

impl Iterator for DescendantsIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        // Push children in reverse so the leftmost is popped first.
        for &c in self.tree.children(n).iter().rev() {
            self.stack.push(c);
        }
        Some(n)
    }
}

impl fmt::Debug for Tree {
    /// One line per node in document order, indented two spaces per
    /// level. Iterative, so deep chains cannot overflow the stack.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut pending = vec![(Tree::ROOT, 0usize)];
        while let Some((n, depth)) = pending.pop() {
            write!(f, "{:indent$}{}", "", self.label(n), indent = depth * 2)?;
            if !self.attrs(n).is_empty() {
                write!(f, "(")?;
                for (i, (a, v)) in self.attrs(n).iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}={v:?}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f)?;
            pending.extend(self.children(n).iter().rev().map(|&c| (c, depth + 1)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the university document from the paper's introduction:
    /// r[prof(Ada)[teach[year(2008)[course(cs1), course(cs2)]],
    ///             supervise[student(Sue)]]]
    fn intro_tree() -> (Tree, Vec<NodeId>) {
        let mut t = Tree::new("r");
        let prof = t.add_child(Tree::ROOT, "prof", [("name", Value::str("Ada"))]);
        let teach = t.add_elem(prof, "teach");
        let year = t.add_child(teach, "year", [("y", Value::str("2008"))]);
        let c1 = t.add_child(year, "course", [("cno", Value::str("cs1"))]);
        let c2 = t.add_child(year, "course", [("cno", Value::str("cs2"))]);
        let sup = t.add_elem(prof, "supervise");
        let stu = t.add_child(sup, "student", [("sid", Value::str("Sue"))]);
        (t, vec![prof, teach, year, c1, c2, sup, stu])
    }

    #[test]
    fn navigation_axes() {
        let (t, ids) = intro_tree();
        let [prof, teach, year, c1, c2, sup, stu] = ids[..] else {
            unreachable!()
        };
        assert_eq!(t.parent(prof), Some(Tree::ROOT));
        assert_eq!(t.children(prof), &[teach, sup]);
        assert_eq!(t.next_sibling(c1), Some(c2));
        assert_eq!(t.next_sibling(c2), None);
        assert_eq!(t.prev_sibling(c2), Some(c1));
        assert_eq!(t.prev_sibling(c1), None);
        assert_eq!(t.next_sibling(Tree::ROOT), None);
        assert_eq!(t.following_siblings(teach).collect::<Vec<_>>(), vec![sup]);
        assert_eq!(t.depth(stu), 3);
        assert_eq!(t.depth(Tree::ROOT), 0);
        assert_eq!(t.height(), 4);
        assert_eq!(t.sibling_index(c2), 1);
        assert_eq!(t.label(year).as_str(), "year");
    }

    #[test]
    fn document_order_traversal() {
        let (t, _) = intro_tree();
        let labels: Vec<&str> = t.nodes().map(|n| t.label(n).as_str()).collect();
        assert_eq!(
            labels,
            [
                "r",
                "prof",
                "teach",
                "year",
                "course",
                "course",
                "supervise",
                "student"
            ]
        );
        let descs: Vec<&str> = t
            .descendants(t.children(Tree::ROOT)[0])
            .map(|n| t.label(n).as_str())
            .collect();
        assert_eq!(
            descs,
            ["teach", "year", "course", "course", "supervise", "student"]
        );
    }

    #[test]
    fn attributes() {
        let (t, ids) = intro_tree();
        let prof = ids[0];
        assert_eq!(t.attr(prof, "name"), Some(&Value::str("Ada")));
        assert_eq!(t.attr(prof, "missing"), None);
        assert_eq!(
            t.attr_values(prof).cloned().collect::<Vec<_>>(),
            vec![Value::str("Ada")]
        );
    }

    #[test]
    fn set_attr_overwrites() {
        let (mut t, ids) = intro_tree();
        t.set_attr(ids[0], "name", "Grace");
        assert_eq!(t.attr(ids[0], "name"), Some(&Value::str("Grace")));
    }

    #[test]
    #[should_panic(expected = "no attribute")]
    fn set_missing_attr_panics() {
        let (mut t, ids) = intro_tree();
        t.set_attr(ids[0], "nope", "x");
    }

    #[test]
    fn subtree_and_graft_round_trip() {
        let (t, ids) = intro_tree();
        let sub = t.subtree(ids[0]); // the prof subtree
        assert_eq!(sub.size(), 7);
        assert_eq!(sub.label(Tree::ROOT).as_str(), "prof");

        let mut host = Tree::new("r");
        let copied = host.graft(Tree::ROOT, &sub);
        assert_eq!(host.subtree(copied), sub);
    }

    #[test]
    fn detach_and_graft_at() {
        let (mut t, ids) = intro_tree();
        let [prof, teach, year, _c1, _c2, sup, _stu] = ids[..] else {
            unreachable!()
        };
        let arena_before = t.size();
        let teach_copy = t.subtree(teach);
        t.detach(teach);
        // The parent no longer lists the subtree; the arena keeps it.
        assert_eq!(t.children(prof), &[sup]);
        assert_eq!(t.parent(teach), None);
        assert_eq!(t.size(), arena_before);
        // Traversal from the root never reaches detached nodes.
        assert!(t.nodes().all(|n| n != teach && n != year));
        // Re-insert the same subtree at the front: structure round-trips.
        let back = t.graft_at(prof, 0, &teach_copy);
        assert_eq!(t.children(prof).len(), 2);
        assert_eq!(t.children(prof)[0], back);
        assert_eq!(t.subtree(back), teach_copy);
        // Middle and end positions.
        let solo = Tree::new("extra");
        let mid = t.graft_at(prof, 1, &solo);
        assert_eq!(t.children(prof), &[back, mid, sup]);
        let end = t.graft_at(prof, 3, &solo);
        assert_eq!(t.children(prof), &[back, mid, sup, end]);
    }

    #[test]
    fn deep_chain_graft_on_a_small_stack() {
        // Grafting and extracting a chain far deeper than a 256 KiB stack
        // holds frames of a per-level recursion.
        const DEPTH: usize = 4_000;
        let (host, copied, chain) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut chain = Tree::new("a");
                let mut at = Tree::ROOT;
                for i in 0..DEPTH {
                    at = chain.add_child(at, "a", [("v", Value::int(i as i64))]);
                }
                let mut host = Tree::new("r");
                host.add_elem(Tree::ROOT, "first");
                let copied = host.graft_at(Tree::ROOT, 0, &chain);
                let back = host.subtree(copied);
                assert!(back == chain);
                (host, copied, chain)
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(host.size(), DEPTH + 3);
        assert_eq!(host.children(Tree::ROOT)[0], copied);
        assert_eq!(host.height(), DEPTH + 1);
        // Ids are assigned in pre-order, as a recursive copy assigns them.
        assert!(host
            .nodes()
            .skip(1)
            .take(DEPTH + 1)
            .map(|n| n.index())
            .eq(2..DEPTH + 3));
        assert_eq!(chain.size(), DEPTH + 1);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn graft_at_past_end_panics() {
        let mut t = Tree::new("r");
        t.graft_at(Tree::ROOT, 1, &Tree::new("a"));
    }

    #[test]
    #[should_panic(expected = "cannot detach the root")]
    fn detach_root_panics() {
        let mut t = Tree::new("r");
        t.detach(Tree::ROOT);
    }

    #[test]
    fn path_labels_from_root() {
        let (t, ids) = intro_tree();
        let stu = ids[6];
        let path: Vec<String> = t
            .path_labels(stu)
            .iter()
            .map(|n| n.as_str().to_string())
            .collect();
        assert_eq!(path, ["r", "prof", "supervise", "student"]);
    }

    #[test]
    fn structural_equality() {
        let (a, _) = intro_tree();
        let (b, _) = intro_tree();
        assert_eq!(a, b);
        let (mut c, ids) = intro_tree();
        c.set_attr(ids[6], "sid", "Bob");
        assert_ne!(a, c);
    }

    #[test]
    fn data_values_enumeration() {
        let (t, _) = intro_tree();
        let vals: Vec<String> = t.data_values().map(|v| v.to_string()).collect();
        assert_eq!(vals, ["Ada", "2008", "cs1", "cs2", "Sue"]);
    }

    #[test]
    fn structural_hashes_and_equality() {
        let mut t = Tree::new("r");
        let mk = |t: &mut Tree, v: Value, kids: &[&str]| {
            let a = t.add_child(Tree::ROOT, "a", [("x", v)]);
            for k in kids {
                t.add_elem(a, *k);
            }
            a
        };
        let a1 = mk(&mut t, Value::int(1), &["b", "c"]);
        let a2 = mk(&mut t, Value::int(1), &["b", "c"]);
        let swapped = mk(&mut t, Value::int(1), &["c", "b"]);
        let as_str = mk(&mut t, Value::str("1"), &["b", "c"]);
        let null1 = mk(&mut t, Value::null(1), &[]);
        let null1_again = mk(&mut t, Value::null(1), &[]);
        let null2 = mk(&mut t, Value::null(2), &[]);
        let h = subtree_hashes(&t);
        assert_eq!(h.len(), t.size());
        assert!(subtrees_equal(&t, a1, &t, a2));
        assert_eq!(h[a1.index()], h[a2.index()]);
        assert!(subtrees_equal(&t, null1, &t, null1_again));
        assert_eq!(h[null1.index()], h[null1_again.index()]);
        for other in [swapped, as_str] {
            assert!(!subtrees_equal(&t, a1, &t, other));
            assert_ne!(h[a1.index()], h[other.index()]);
        }
        assert!(!subtrees_equal(&t, null1, &t, null2));
        assert_ne!(h[null1.index()], h[null2.index()]);
        // Across trees: the same subtree standing alone.
        let alone = t.subtree(a1);
        assert!(subtrees_equal(&t, a1, &alone, Tree::ROOT));
        assert!(!subtrees_equal(&t, swapped, &alone, Tree::ROOT));
    }

    #[test]
    fn debug_lists_nodes_in_document_order() {
        let (t, _) = intro_tree();
        let expected = "r\n  prof(name=\"Ada\")\n    teach\n      year(y=\"2008\")\n        \
                        course(cno=\"cs1\")\n        course(cno=\"cs2\")\n    supervise\n      \
                        student(sid=\"Sue\")\n";
        assert_eq!(format!("{t:?}"), expected);
    }

    #[test]
    fn isomorphism_mod_nulls_renames_consistently() {
        let mk = |n1: u64, n2: u64| {
            let mut t = Tree::new("r");
            t.add_child(
                Tree::ROOT,
                "a",
                [("x", Value::null(n1)), ("y", Value::null(n2))],
            );
            t.add_child(
                Tree::ROOT,
                "a",
                [("x", Value::null(n1)), ("y", Value::str("c"))],
            );
            t
        };
        // Same null pattern under different numberings: isomorphic.
        assert!(isomorphic_mod_nulls(&mk(0, 1), &mk(7, 3)));
        // Distinct nulls on one side collapsed on the other: not a bijection.
        assert!(!isomorphic_mod_nulls(&mk(0, 1), &mk(5, 5)));
        assert!(!isomorphic_mod_nulls(&mk(5, 5), &mk(0, 1)));
        // A null never matches a constant, and constants must be equal.
        let mut c1 = Tree::new("r");
        c1.add_child(Tree::ROOT, "a", [("x", Value::str("v"))]);
        let mut c2 = Tree::new("r");
        c2.add_child(Tree::ROOT, "a", [("x", Value::null(0))]);
        assert!(!isomorphic_mod_nulls(&c1, &c2));
        assert!(isomorphic_mod_nulls(&c1, &c1.clone()));
        // Structure differences are caught.
        let mut c3 = c1.clone();
        c3.add_elem(Tree::ROOT, "a");
        assert!(!isomorphic_mod_nulls(&c1, &c3));
    }
}
