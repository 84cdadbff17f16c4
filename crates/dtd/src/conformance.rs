//! Conformance checking: `T ⊨ D` (paper §2).
//!
//! A tree conforms to a DTD iff its root carries the distinguished root
//! label, every node labelled ℓ has exactly the attributes `A_D(ℓ)` (in
//! order), and the left-to-right labels of its children spell a word in
//! `L(P_D(ℓ))`.
//!
//! Every check runs on one kernel: the dense per-label tables a [`Dtd`]
//! compiles once (`Kernel`). A node's label resolves to an id once, its
//! attribute names are compared against the id's list without allocating,
//! and its children word steps the id's bitset NFA ([`DenseNfa`]) label id
//! by label id. [`Dtd::check`], [`Dtd::normalize_attrs`],
//! [`Dtd::node_conforms`] (the incremental chase revalidating one node)
//! and the streaming [`crate::StreamValidator`] all call it.

use crate::dtd::Dtd;
use crate::index::DenseNfa;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use xmlmap_regex::Nfa;
use xmlmap_trees::{Name, NameTable, NodeId, Tree, Value};

/// Why a tree fails to conform to a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformanceError {
    /// The root label differs from the DTD's root element type.
    WrongRoot {
        /// Label found at the root.
        found: Name,
        /// The DTD's root element type.
        expected: Name,
    },
    /// A node's label is not in the DTD's alphabet.
    UnknownLabel {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: Name,
    },
    /// A node's attribute names differ from `A_D(ℓ)`.
    WrongAttributes {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: Name,
        /// Attribute names found, in document order.
        found: Vec<Name>,
        /// Attribute names required by the DTD, in order.
        expected: Vec<Name>,
    },
    /// A node's children do not spell a word in the production's language.
    BadChildren {
        /// The offending node.
        node: NodeId,
        /// Its label.
        label: Name,
        /// The children labels found.
        found: Vec<Name>,
    },
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceError::WrongRoot { found, expected } => {
                write!(f, "root is labelled {found}, expected {expected}")
            }
            ConformanceError::UnknownLabel { node, label } => {
                write!(f, "node {node:?} has label {label} not in the DTD alphabet")
            }
            ConformanceError::WrongAttributes {
                node,
                label,
                found,
                expected,
            } => write!(
                f,
                "node {node:?} ({label}) has attributes {found:?}, DTD requires {expected:?}"
            ),
            ConformanceError::BadChildren { node, label, found } => write!(
                f,
                "children of node {node:?} ({label}) spell {found:?}, not in the production language"
            ),
        }
    }
}

impl std::error::Error for ConformanceError {}

/// The dense per-label tables of a [`Dtd`]: label ids in alphabet order,
/// each label's attribute list and its production as a [`DenseNfa`].
pub(crate) struct Kernel {
    pub(crate) labels: NameTable,
    pub(crate) root: u32,
    attrs: Vec<Vec<Name>>,
    pub(crate) nfas: Vec<DenseNfa>,
}

/// How a node's attribute names compare with `A_D(ℓ)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AttrMatch {
    /// The same names in the same order.
    InOrder,
    /// The same set of names in another order.
    Shuffled,
    /// A different set of names.
    Mismatch,
}

impl Kernel {
    pub(crate) fn new(
        alphabet: &BTreeSet<Name>,
        root: &Name,
        attributes: &BTreeMap<Name, Vec<Name>>,
        compiled: &BTreeMap<Name, Arc<Nfa<Name>>>,
    ) -> Kernel {
        let mut labels = NameTable::new();
        for l in alphabet {
            labels.insert(l.clone());
        }
        let epsilon = Nfa::epsilon();
        let nfas = alphabet
            .iter()
            .map(|l| DenseNfa::new(compiled.get(l).map_or(&epsilon, |a| a), &labels))
            .collect();
        Kernel {
            root: labels
                .find(root.as_str().as_bytes())
                .expect("root is in the alphabet"),
            attrs: alphabet
                .iter()
                .map(|l| attributes.get(l).cloned().unwrap_or_default())
                .collect(),
            labels,
            nfas,
        }
    }

    /// The id of `label`, if it is in the alphabet.
    pub(crate) fn id(&self, label: &Name) -> Option<u32> {
        self.labels.find(label.as_str().as_bytes())
    }

    /// `A_D(ℓ)` of label id `id`.
    pub(crate) fn attrs(&self, id: u32) -> &[Name] {
        &self.attrs[id as usize]
    }

    /// Compares attribute names `found` with `A_D(ℓ)` of label id `id`.
    pub(crate) fn attr_match(&self, id: u32, found: &[(Name, Value)]) -> AttrMatch {
        let want = self.attrs(id);
        if found.len() != want.len() {
            AttrMatch::Mismatch
        } else if found.iter().zip(want).all(|((a, _), w)| a == w) {
            AttrMatch::InOrder
        } else if want.iter().all(|w| found.iter().any(|(a, _)| a == w)) {
            AttrMatch::Shuffled
        } else {
            AttrMatch::Mismatch
        }
    }

    /// `found` reordered into `A_D(ℓ)` order (its name set must match).
    fn reorder(&self, id: u32, found: &[(Name, Value)]) -> Vec<(Name, Value)> {
        self.attrs(id)
            .iter()
            .map(|w| {
                found
                    .iter()
                    .find(|(a, _)| a == w)
                    .expect("attribute sets match")
                    .clone()
            })
            .collect()
    }

    /// Do the labels of `node`'s children spell a word of label id `id`'s
    /// production? A label outside the alphabet rejects the word. Runs of
    /// one label resolve it once.
    fn children_accepted(&self, id: u32, tree: &Tree, node: NodeId) -> bool {
        let mut last: Option<(&Name, u32)> = None;
        let word = tree.children(node).iter().map(|&c| {
            let label = tree.label(c);
            match last {
                Some((l, sym)) if l == label => sym,
                _ => {
                    let sym = self.id(label).unwrap_or(u32::MAX);
                    last = Some((label, sym));
                    sym
                }
            }
        });
        self.nfas[id as usize].accepts(word, &mut Run::default())
    }
}

/// Scratch subsets for stepping a [`DenseNfa`] wider than one word.
#[derive(Default)]
pub(crate) struct Run {
    pub(crate) cur: Vec<u64>,
    pub(crate) next: Vec<u64>,
}

impl Dtd {
    /// Checks `tree ⊨ self`, reporting the first violation found
    /// (document order).
    pub fn check(&self, tree: &Tree) -> Result<(), ConformanceError> {
        let k = &*self.kernel;
        if tree.label(Tree::ROOT) != self.root() {
            return Err(ConformanceError::WrongRoot {
                found: tree.label(Tree::ROOT).clone(),
                expected: self.root().clone(),
            });
        }
        // Unknown labels are reported first: a child with a foreign label
        // would otherwise surface as a confusing BadChildren on its parent.
        let mut ids = vec![u32::MAX; tree.size()];
        for node in tree.nodes() {
            let label = tree.label(node);
            match k.id(label) {
                Some(id) => ids[node.index()] = id,
                None => {
                    return Err(ConformanceError::UnknownLabel {
                        node,
                        label: label.clone(),
                    })
                }
            }
        }
        let mut run = Run::default();
        for node in tree.nodes() {
            let id = ids[node.index()];
            let found = tree.attrs(node);
            if k.attr_match(id, found) != AttrMatch::InOrder {
                return Err(ConformanceError::WrongAttributes {
                    node,
                    label: tree.label(node).clone(),
                    found: found.iter().map(|(a, _)| a.clone()).collect(),
                    expected: k.attrs(id).to_vec(),
                });
            }
            let kids = tree.children(node);
            let word = kids.iter().map(|&c| ids[c.index()]);
            if !k.nfas[id as usize].accepts(word, &mut run) {
                return Err(ConformanceError::BadChildren {
                    node,
                    label: tree.label(node).clone(),
                    found: kids.iter().map(|&c| tree.label(c).clone()).collect(),
                });
            }
        }
        Ok(())
    }

    /// Convenience Boolean form of [`Dtd::check`].
    pub fn conforms(&self, tree: &Tree) -> bool {
        self.check(tree).is_ok()
    }

    /// Local conformance of one node: a known label (the root label at
    /// the root), exactly `A_D(ℓ)` in order, and a children word in the
    /// production language. A tree conforms iff every node reachable from
    /// the root passes — the verdict of [`Dtd::check`], one node at a time.
    pub fn node_conforms(&self, tree: &Tree, node: NodeId) -> bool {
        let k = &*self.kernel;
        let Some(id) = k.id(tree.label(node)) else {
            return false;
        };
        (node != Tree::ROOT || id == k.root)
            && k.attr_match(id, tree.attrs(node)) == AttrMatch::InOrder
            && k.children_accepted(id, tree, node)
    }

    /// Reorders one node's attributes into `A_D(ℓ)` order when its label
    /// is known and its attribute name set is `A_D(ℓ)`; returns whether
    /// the node's attributes now match `A_D(ℓ)`. Nodes already in order
    /// are left untouched.
    pub fn normalize_node(&self, tree: &mut Tree, node: NodeId) -> bool {
        let k = &*self.kernel;
        let Some(id) = k.id(tree.label(node)) else {
            return false;
        };
        match k.attr_match(id, tree.attrs(node)) {
            AttrMatch::InOrder => true,
            AttrMatch::Shuffled => {
                let attrs = k.reorder(id, tree.attrs(node));
                tree.set_attrs(node, attrs);
                true
            }
            AttrMatch::Mismatch => false,
        }
    }

    /// Reorders every node's attributes into `A_D(ℓ)` order (documents
    /// parsed from XML may list attributes in any order; conformance and
    /// pattern semantics use the canonical order). Fails with
    /// [`ConformanceError::WrongAttributes`] if a node's attribute *set*
    /// differs from the DTD's, or [`ConformanceError::UnknownLabel`],
    /// at the first such node in document order; nodes before it are
    /// normalised. Nodes already in order are not touched.
    pub fn normalize_attrs(&self, tree: &mut Tree) -> Result<(), ConformanceError> {
        let k = &*self.kernel;
        let mut shuffled = Vec::new();
        let mut outcome = Ok(());
        for node in tree.nodes() {
            let label = tree.label(node);
            let Some(id) = k.id(label) else {
                outcome = Err(ConformanceError::UnknownLabel {
                    node,
                    label: label.clone(),
                });
                break;
            };
            match k.attr_match(id, tree.attrs(node)) {
                AttrMatch::InOrder => {}
                AttrMatch::Shuffled => shuffled.push((node, id)),
                AttrMatch::Mismatch => {
                    outcome = Err(ConformanceError::WrongAttributes {
                        node,
                        label: label.clone(),
                        found: tree.attrs(node).iter().map(|(a, _)| a.clone()).collect(),
                        expected: k.attrs(id).to_vec(),
                    });
                    break;
                }
            }
        }
        for (node, id) in shuffled {
            let attrs = k.reorder(id, tree.attrs(node));
            tree.set_attrs(node, attrs);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlmap_trees::tree;

    fn d1() -> Dtd {
        crate::parse(
            "root r
             r -> prof*
             prof -> teach, supervise
             teach -> year
             year -> course, course
             supervise -> student*
             prof @ name
             student @ sid
             year @ y
             course @ cno",
        )
        .unwrap()
    }

    fn good_tree() -> Tree {
        tree! {
            "r" [
                "prof"("name" = "Ada") [
                    "teach" [ "year"("y" = "2008") [
                        "course"("cno" = "cs1"),
                        "course"("cno" = "cs2"),
                    ] ],
                    "supervise" [ "student"("sid" = "Sue") ],
                ],
            ]
        }
    }

    #[test]
    fn paper_example_conforms() {
        assert_eq!(d1().check(&good_tree()), Ok(()));
        // An empty professor list is allowed by prof*.
        assert!(d1().conforms(&tree!("r")));
    }

    #[test]
    fn wrong_root() {
        let e = d1().check(&tree!("prof"("name" = "Ada"))).unwrap_err();
        assert!(matches!(e, ConformanceError::WrongRoot { .. }));
    }

    #[test]
    fn unknown_label() {
        let t = tree!("r"["dean"]);
        let e = d1().check(&t).unwrap_err();
        assert!(matches!(e, ConformanceError::UnknownLabel { .. }));
    }

    #[test]
    fn missing_attribute() {
        let t = tree!("r" [ "prof" [
            "teach" [ "year"("y" = "2008") [
                "course"("cno" = "a"), "course"("cno" = "b") ] ],
            "supervise",
        ] ]);
        let e = d1().check(&t).unwrap_err();
        assert!(
            matches!(e, ConformanceError::WrongAttributes { ref label, .. } if label.as_str() == "prof"),
            "{e}"
        );
    }

    #[test]
    fn attribute_order_matters() {
        let d = crate::parse("r -> \nr @ x, y").unwrap();
        assert!(d.conforms(&tree!("r"("x" = "1", "y" = "2"))));
        assert!(!d.conforms(&tree!("r"("y" = "2", "x" = "1"))));
    }

    #[test]
    fn bad_children_word() {
        // year must have exactly two courses.
        let t = tree!("r" [ "prof"("name" = "Ada") [
            "teach" [ "year"("y" = "2008") [ "course"("cno" = "a") ] ],
            "supervise",
        ] ]);
        let e = d1().check(&t).unwrap_err();
        assert!(
            matches!(e, ConformanceError::BadChildren { ref label, .. } if label.as_str() == "year"),
            "{e}"
        );
    }

    #[test]
    fn leaf_elements_must_be_leaves() {
        let d = crate::parse("r -> a\na -> ").unwrap();
        assert!(d.conforms(&tree!("r"["a"])));
        assert!(!d.conforms(&tree!("r"["a"["a"]])));
    }

    #[test]
    fn normalize_reorders_attributes() {
        let d = crate::parse("r -> \nr @ x, y").unwrap();
        let mut t = tree!("r"("y" = "2", "x" = "1"));
        assert!(!d.conforms(&t));
        d.normalize_attrs(&mut t).unwrap();
        assert!(d.conforms(&t));
        let names: Vec<&str> = t
            .attrs(Tree::ROOT)
            .iter()
            .map(|(a, _)| a.as_str())
            .collect();
        assert_eq!(names, ["x", "y"]);

        // Wrong attribute set still errors.
        let mut wrong = tree!("r"("x" = "1", "z" = "2"));
        assert!(d.normalize_attrs(&mut wrong).is_err());
        let mut missing = tree!("r"("x" = "1"));
        assert!(d.normalize_attrs(&mut missing).is_err());
        let mut unknown = tree!("q");
        assert!(d.normalize_attrs(&mut unknown).is_err());
    }

    #[test]
    fn error_messages_render() {
        let e = d1().check(&tree!("x")).unwrap_err();
        assert!(e.to_string().contains("expected r"));
    }
}
