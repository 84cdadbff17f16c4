//! DTDs: productions, attribute lists, and compiled validators.
//!
//! A DTD over Γ (paper §2) is a pair of maps: `P_D : Γ → Regex(Γ − {r})`
//! and `A_D : Γ → Att*`. Attributes are *ordered*, following the paper's
//! convention that "attributes come in some order, just like in the
//! relational case", so a node can be written `ℓ(a₁, …, aₙ)`.

use crate::conformance::Kernel;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use xmlmap_regex::{Nfa, Regex};
use xmlmap_trees::Name;

/// A Document Type Definition.
///
/// Construct with [`DtdBuilder`] (or [`crate::parse()`](crate::parse())); the builder compiles
/// every production into a Glushkov NFA, and those into the dense per-label
/// tables of the conformance kernel, so checks don't pay per-call
/// automaton construction.
#[derive(Clone)]
pub struct Dtd {
    pub(crate) root: Name,
    pub(crate) productions: BTreeMap<Name, Regex>,
    pub(crate) attributes: BTreeMap<Name, Vec<Name>>,
    /// Compiled horizontal automata, one per element type.
    pub(crate) compiled: BTreeMap<Name, Arc<Nfa<Name>>>,
    /// All element types: production LHSs plus every symbol they mention.
    pub(crate) alphabet: BTreeSet<Name>,
    /// The dense per-label tables every conformance check runs on.
    pub(crate) kernel: Arc<Kernel>,
}

impl Dtd {
    /// Starts building a DTD with the given root element type.
    pub fn builder(root: impl Into<Name>) -> DtdBuilder {
        DtdBuilder {
            root: root.into(),
            productions: BTreeMap::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// The distinguished root element type `r`.
    pub fn root(&self) -> &Name {
        &self.root
    }

    /// The alphabet Γ: every element type mentioned anywhere in the DTD.
    pub fn alphabet(&self) -> impl Iterator<Item = &Name> + '_ {
        self.alphabet.iter()
    }

    /// Is `label` part of the alphabet?
    pub fn contains(&self, label: &Name) -> bool {
        self.alphabet.contains(label)
    }

    /// The production body for `label`; element types without an explicit
    /// production have `ε` (no children allowed).
    pub fn production(&self, label: &Name) -> &Regex {
        static EPSILON: Regex = Regex::Epsilon;
        self.productions.get(label).unwrap_or(&EPSILON)
    }

    /// The compiled horizontal automaton for `label`'s production.
    pub fn horizontal(&self, label: &Name) -> Option<&Nfa<Name>> {
        self.compiled.get(label).map(|a| a.as_ref())
    }

    /// The ordered attribute list `A_D(label)`.
    pub fn attrs(&self, label: &Name) -> &[Name] {
        self.attributes
            .get(label)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Number of attributes of `label`.
    pub fn arity(&self, label: &Name) -> usize {
        self.attrs(label).len()
    }

    /// Iterates over `(label, production)` pairs (labels without an explicit
    /// production are omitted; their production is ε).
    pub fn productions(&self) -> impl Iterator<Item = (&Name, &Regex)> + '_ {
        self.productions.iter()
    }

    /// The element types reachable from the root through productions.
    pub fn reachable(&self) -> BTreeSet<Name> {
        let mut seen = BTreeSet::from([self.root.clone()]);
        let mut stack = vec![self.root.clone()];
        while let Some(l) = stack.pop() {
            for s in self.production(&l).symbols() {
                if seen.insert(s.clone()) {
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// For each element type, the set of element types whose production
    /// mentions it (its possible parents).
    pub fn parent_map(&self) -> BTreeMap<Name, BTreeSet<Name>> {
        let mut map: BTreeMap<Name, BTreeSet<Name>> = BTreeMap::new();
        for (l, r) in &self.productions {
            for s in r.symbols() {
                map.entry(s).or_default().insert(l.clone());
            }
        }
        map
    }
}

impl fmt::Display for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "root {}", self.root)?;
        for (l, r) in &self.productions {
            writeln!(f, "{l} -> {r}")?;
        }
        for (l, attrs) in &self.attributes {
            if !attrs.is_empty() {
                write!(f, "{l} @ ")?;
                for (i, a) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Dtd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Errors raised when building a DTD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdError {
    /// A production body mentions the root element type.
    RootInProduction {
        /// The production whose body mentions the root.
        lhs: Name,
    },
    /// Two productions were given for the same element type.
    DuplicateProduction(Name),
    /// An attribute list was given twice for the same element type.
    DuplicateAttributes(Name),
    /// An attribute name is repeated within a single list.
    RepeatedAttribute {
        /// The element type with the bad list.
        label: Name,
        /// The repeated attribute name.
        attr: Name,
    },
}

impl fmt::Display for DtdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdError::RootInProduction { lhs } => {
                write!(f, "production for {lhs} mentions the root element type")
            }
            DtdError::DuplicateProduction(l) => write!(f, "duplicate production for {l}"),
            DtdError::DuplicateAttributes(l) => write!(f, "duplicate attribute list for {l}"),
            DtdError::RepeatedAttribute { label, attr } => {
                write!(f, "attribute {attr} repeated on element {label}")
            }
        }
    }
}

impl std::error::Error for DtdError {}

/// Builder for [`Dtd`].
pub struct DtdBuilder {
    root: Name,
    productions: BTreeMap<Name, Regex>,
    attributes: BTreeMap<Name, Vec<Name>>,
}

impl DtdBuilder {
    /// Adds a production `lhs → body`; `body` may be a [`Regex`] or a string
    /// in the DTD-flavoured syntax of `xmlmap-regex`.
    pub fn production(mut self, lhs: impl Into<Name>, body: impl IntoRegex) -> Self {
        self.productions.insert(lhs.into(), body.into_regex());
        self
    }

    /// Declares the ordered attribute list of an element type.
    pub fn attrs<I, N>(mut self, label: impl Into<Name>, attrs: I) -> Self
    where
        I: IntoIterator<Item = N>,
        N: Into<Name>,
    {
        self.attributes
            .insert(label.into(), attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Validates and compiles the DTD.
    pub fn build(self) -> Result<Dtd, DtdError> {
        for (lhs, body) in &self.productions {
            if body.symbols().contains(&self.root) {
                return Err(DtdError::RootInProduction { lhs: lhs.clone() });
            }
        }
        for (label, attrs) in &self.attributes {
            let mut seen = BTreeSet::new();
            for a in attrs {
                if !seen.insert(a.clone()) {
                    return Err(DtdError::RepeatedAttribute {
                        label: label.clone(),
                        attr: a.clone(),
                    });
                }
            }
        }
        let mut alphabet: BTreeSet<Name> = BTreeSet::from([self.root.clone()]);
        for (l, r) in &self.productions {
            alphabet.insert(l.clone());
            alphabet.extend(r.symbols());
        }
        alphabet.extend(self.attributes.keys().cloned());
        let compiled: BTreeMap<Name, Arc<Nfa<Name>>> = self
            .productions
            .iter()
            .map(|(l, r)| (l.clone(), Arc::new(Nfa::from_regex(r))))
            .collect();
        let kernel = Arc::new(Kernel::new(
            &alphabet,
            &self.root,
            &self.attributes,
            &compiled,
        ));
        Ok(Dtd {
            root: self.root,
            productions: self.productions,
            attributes: self.attributes,
            compiled,
            alphabet,
            kernel,
        })
    }
}

/// Accepts either a parsed [`Regex`] or its textual form.
pub trait IntoRegex {
    /// Converts to a [`Regex`], panicking on syntactically invalid text
    /// (builder inputs are programmer-provided literals).
    fn into_regex(self) -> Regex;
}

impl IntoRegex for Regex {
    fn into_regex(self) -> Regex {
        self
    }
}

impl IntoRegex for &str {
    fn into_regex(self) -> Regex {
        xmlmap_regex::parse(self).expect("invalid regex literal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DTD `D₁` from the paper's introduction.
    pub(crate) fn d1() -> Dtd {
        Dtd::builder("r")
            .production("r", "prof*")
            .production("prof", "teach, supervise")
            .production("teach", "year")
            .production("year", "course, course")
            .production("supervise", "student*")
            .attrs("prof", ["name"])
            .attrs("student", ["sid"])
            .attrs("year", ["y"])
            .attrs("course", ["cno"])
            .build()
            .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let d = d1();
        assert_eq!(d.root().as_str(), "r");
        assert_eq!(d.arity(&Name::new("prof")), 1);
        assert_eq!(d.arity(&Name::new("teach")), 0);
        assert_eq!(d.attrs(&Name::new("course")), &[Name::new("cno")]);
        assert_eq!(d.production(&Name::new("student")), &Regex::Epsilon);
        assert!(d.contains(&Name::new("supervise")));
        assert!(!d.contains(&Name::new("missing")));
    }

    #[test]
    fn alphabet_and_reachability() {
        let d = d1();
        let names: Vec<&str> = d.alphabet().map(|n| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "course",
                "prof",
                "r",
                "student",
                "supervise",
                "teach",
                "year"
            ]
        );
        assert_eq!(d.reachable().len(), 7);

        // An unreachable production still belongs to the alphabet.
        let d2 = Dtd::builder("r")
            .production("r", "a")
            .production("orphan", "b")
            .build()
            .unwrap();
        assert!(d2.contains(&Name::new("orphan")));
        assert!(!d2.reachable().contains(&Name::new("orphan")));
    }

    #[test]
    fn parent_map() {
        let d = d1();
        let pm = d.parent_map();
        assert_eq!(
            pm[&Name::new("course")],
            BTreeSet::from([Name::new("year")])
        );
        assert_eq!(pm[&Name::new("prof")], BTreeSet::from([Name::new("r")]));
        assert!(!pm.contains_key(&Name::new("r")));
    }

    #[test]
    fn rejects_root_in_body() {
        let e = Dtd::builder("r").production("a", "r?").build().unwrap_err();
        assert!(matches!(e, DtdError::RootInProduction { .. }));
    }

    #[test]
    fn rejects_repeated_attribute() {
        let e = Dtd::builder("r")
            .attrs("a", ["x", "x"])
            .build()
            .unwrap_err();
        assert!(matches!(e, DtdError::RepeatedAttribute { .. }));
    }

    #[test]
    fn display_lists_everything() {
        let d = d1();
        let s = d.to_string();
        assert!(s.contains("root r"));
        assert!(s.contains("prof -> teach, supervise"));
        assert!(s.contains("course @ cno"));
    }

    #[test]
    fn compiled_automata_match_productions() {
        let d = d1();
        let nfa = d.horizontal(&Name::new("year")).unwrap();
        assert!(nfa.accepts(&[Name::new("course"), Name::new("course")]));
        assert!(!nfa.accepts(&[Name::new("course")]));
    }
}
