//! Data-exchange utilities on top of the chase: certain answers and
//! solution reduction.
//!
//! The paper's §9 lists "constructing target instances" and query
//! answering over exchanged data as the key follow-up problems; for the
//! chaseable fragment (fully-specified stds, nested-relational targets —
//! the same class as \[4\]'s tractable query answering) the classical
//! recipes apply:
//!
//! * **certain answers** of a downward pattern query = the null-free
//!   answers of the query on the canonical solution;
//! * the canonical solution can be **reduced** by deduplicating identical
//!   sibling subtrees in repeatable slots — a cheap approximation of the
//!   core that often shrinks chase output dramatically.

use crate::chase::{canonical_solution_cached, ChaseCache, ChaseError};
use crate::stds::Mapping;
use std::collections::hash_map::{Entry, HashMap};
use xmlmap_dtd::Mult;
use xmlmap_patterns::{eval, Pattern, Valuation};
use xmlmap_regex::FastHashMap;
use xmlmap_trees::{subtrees_equal, Name, NodeId, Tree, Value};

/// Certain answers of `query` over all solutions of `source` under `m`:
/// the valuations returned in *every* solution.
///
/// Computed on the canonical solution, keeping only null-free valuations —
/// sound and complete for **downward** queries over the chaseable fragment
/// (the canonical solution is universal, and downward pattern matches are
/// preserved by the homomorphisms into other solutions).
///
/// Returns `Err` for non-downward queries (certain answers under order
/// constraints are not captured by the canonical solution) and propagates
/// chase failures (no solution ⇒ certain answers are trivially *all*
/// valuations; we surface the failure instead).
pub fn certain_answers(
    m: &Mapping,
    source: &Tree,
    query: &Pattern,
) -> Result<Vec<Valuation>, CertainAnswersError> {
    certain_answers_cached(m, source, query, &ChaseCache::new(m))
}

/// [`certain_answers`] against a caller-held [`ChaseCache`] built from the
/// same mapping, amortizing chase compilation across many sources.
pub fn certain_answers_cached(
    m: &Mapping,
    source: &Tree,
    query: &Pattern,
    chase: &ChaseCache,
) -> Result<Vec<Valuation>, CertainAnswersError> {
    if query.uses_next_sibling() || query.uses_following_sibling() {
        return Err(CertainAnswersError::OrderedQuery);
    }
    let canonical =
        canonical_solution_cached(m, source, chase).map_err(CertainAnswersError::NoSolution)?;
    let candidates = eval::all_matches(&canonical, query);
    // Null-freeness of each candidate is independent; fan the scan out
    // only for large answer sets — per-candidate work is a handful of
    // value-tag tests, so small sets are faster on one thread.
    if candidates.len() >= 1024 {
        let keep = xmlmap_par::par_map(&candidates, |v| v.values().all(|x| x.is_constant()));
        Ok(candidates
            .into_iter()
            .zip(keep)
            .filter_map(|(v, k)| k.then_some(v))
            .collect())
    } else {
        Ok(candidates
            .into_iter()
            .filter(|v| v.values().all(|x| x.is_constant()))
            .collect())
    }
}

/// Why certain answers could not be computed.
#[derive(Clone, Debug)]
pub enum CertainAnswersError {
    /// The query uses a horizontal axis.
    OrderedQuery,
    /// The source has no solution (or the mapping is outside the
    /// chaseable fragment).
    NoSolution(ChaseError),
}

impl std::fmt::Display for CertainAnswersError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertainAnswersError::OrderedQuery => {
                write!(f, "certain answers require a downward query")
            }
            CertainAnswersError::NoSolution(e) => write!(f, "no canonical solution: {e}"),
        }
    }
}

impl std::error::Error for CertainAnswersError {}

/// Deduplicates identical sibling subtrees sitting in repeatable slots.
/// The result is still a solution whenever the input was one produced by
/// the chase for a mapping without target `≠` conditions (removing one of
/// two identical subtrees cannot lose any pattern match — the twin
/// provides the same matches).
///
/// Two siblings are *identical* when their subtrees in the **input** are
/// ([`xmlmap_trees::subtrees_equal`]): same label, same attributes (names
/// and values in order, nulls by id, `Int(1)` apart from `Str("1")`) and
/// pairwise identical children in the same order. Only children whose
/// label has a repeatable multiplicity in the target DTD are dropped, and
/// of each set of identical siblings the first one is kept. Subtrees that
/// become identical only after their own children are reduced stay apart.
///
/// Cost: linear in the size of the solution, in expected time. One
/// bottom-up pass computes a structural hash per node
/// ([`xmlmap_trees::subtree_hashes`]); each parent then looks its
/// repeatable children up in a hash → kept-twins table and confirms every
/// hit with an exact comparison, so a hash collision never merges two
/// different subtrees. The output is built iteratively in pre-order, the
/// arena order of a recursive rebuild.
pub fn reduce_solution(m: &Mapping, solution: &Tree) -> Tree {
    let Some(nr) = m.target_dtd.nested_relational() else {
        return solution.clone();
    };
    let out =
        dedup_repeatable_siblings(solution, &xmlmap_trees::subtree_hashes(solution), |label| {
            nr.mult(label).is_some_and(Mult::repeatable)
        });
    debug_assert!(m.target_dtd.conforms(&out));
    out
}

/// [`reduce_solution`]'s rebuild over precomputed structural `hashes` of
/// `src` (indexed by node). The hashes only pick which kept siblings to
/// compare against: any hash function, even a constant one, yields the
/// same tree.
fn dedup_repeatable_siblings(
    src: &Tree,
    hashes: &[u64],
    repeatable: impl Fn(&Name) -> bool,
) -> Tree {
    /// End of a twin chain.
    const NONE: u32 = u32::MAX;
    let mut out = Tree::with_root_attrs(
        src.label(Tree::ROOT).clone(),
        src.attrs(Tree::ROOT).iter().cloned(),
    );
    // Kept repeatable children of the parent being expanded: `twins[i]`
    // is a kept child and the index of the previous kept child with the
    // same hash; `heads` maps a hash to the last one.
    let mut twins: Vec<(NodeId, u32)> = Vec::new();
    // Source children still to copy, with their output parent; popped in
    // document order.
    let mut pending: Vec<(NodeId, NodeId)> = Vec::new();
    let mut expand = |node: NodeId, at: NodeId, pending: &mut Vec<(NodeId, NodeId)>| {
        let children = src.children(node);
        let first = pending.len();
        let siblings = children.len() > 1;
        // A fresh table per parent: clearing a large one would cost its
        // capacity again at every later parent.
        let mut heads: FastHashMap<u64, u32> = FastHashMap::default();
        if siblings {
            heads.reserve(children.len());
        }
        twins.clear();
        for &child in children {
            if siblings && repeatable(src.label(child)) {
                let hash = hashes[child.index()];
                let head = heads.get(&hash).copied().unwrap_or(NONE);
                let mut twin = head;
                while twin != NONE && !subtrees_equal(src, twins[twin as usize].0, src, child) {
                    twin = twins[twin as usize].1;
                }
                if twin != NONE {
                    continue;
                }
                heads.insert(hash, twins.len() as u32);
                twins.push((child, head));
            }
            pending.push((child, at));
        }
        pending[first..].reverse();
    };
    expand(Tree::ROOT, Tree::ROOT, &mut pending);
    while let Some((child, at)) = pending.pop() {
        let copy = out.add_child(
            at,
            src.label(child).clone(),
            src.attrs(child).iter().cloned(),
        );
        expand(child, copy, &mut pending);
    }
    out
}

/// Chases and reduces in one step.
pub fn reduced_solution(m: &Mapping, source: &Tree) -> Result<Tree, ChaseError> {
    reduced_solution_cached(m, source, &ChaseCache::new(m))
}

/// [`reduced_solution`] against a caller-held [`ChaseCache`] built from the
/// same mapping.
pub fn reduced_solution_cached(
    m: &Mapping,
    source: &Tree,
    chase: &ChaseCache,
) -> Result<Tree, ChaseError> {
    Ok(reduce_solution(
        m,
        &canonical_solution_cached(m, source, chase)?,
    ))
}

/// Clio-style nesting (partitioned normal form): merges *sibling* nodes in
/// repeatable slots that share label **and attribute values**, recursively
/// combining their children (repeatable slots concatenate, non-repeatable
/// slots merge further). Turns the chase's one-subtree-per-firing output
/// into the naturally nested document — e.g. one `work` per title holding
/// all its `credit`s.
///
/// Safe (the result is still a solution) when every target pattern is
/// downward: node merging preserves child/descendant matches and never
/// removes values. For mappings with horizontal target patterns the input
/// is returned unchanged.
///
/// Two siblings merge when their *nodes* are identical: same label and
/// same attributes (names and values in order, nulls by id); their
/// children are not compared but pooled. Groups keep the order of their
/// first member. Cost: linear in the size of the solution, in expected
/// time — each level groups the pooled children through one hash table
/// keyed by borrowed (label, attributes) pairs — plus the final
/// conformance check.
pub fn nest_solution(m: &Mapping, solution: &Tree) -> Tree {
    let horizontal = m
        .stds
        .iter()
        .any(|s| s.target.uses_next_sibling() || s.target.uses_following_sibling());
    let Some(_nr) = m.target_dtd.nested_relational() else {
        return solution.clone();
    };
    if horizontal {
        return solution.clone();
    }

    /// A merged node under construction: the first member of its group
    /// (whose label and attributes every member shares) and the merged
    /// children of all members.
    struct Merged {
        first: NodeId,
        children: Vec<Merged>,
    }

    fn merge_children(src: &Tree, nodes: &[NodeId]) -> Vec<Merged> {
        // Gather all children of all merged source nodes, in order, and
        // group them by (label, attribute values), groups in order of
        // first occurrence. If a non-repeatable slot ends up with two
        // value-distinct groups, the final conformance check fails and
        // the caller keeps the original.
        type Key<'t> = (&'t Name, &'t [(Name, Value)]);
        let mut index: HashMap<Key<'_>, usize> = HashMap::new();
        let mut groups: Vec<Vec<NodeId>> = Vec::new();
        for &n in nodes {
            for &c in src.children(n) {
                match index.entry((src.label(c), src.attrs(c))) {
                    Entry::Occupied(slot) => groups[*slot.get()].push(c),
                    Entry::Vacant(slot) => {
                        slot.insert(groups.len());
                        groups.push(vec![c]);
                    }
                }
            }
        }
        groups
            .into_iter()
            .map(|members| Merged {
                first: members[0],
                children: merge_children(src, &members),
            })
            .collect()
    }

    fn build(src: &Tree, out: &mut Tree, at: NodeId, merged: &Merged) {
        let id = out.add_child(
            at,
            src.label(merged.first).clone(),
            src.attrs(merged.first).iter().cloned(),
        );
        for c in &merged.children {
            build(src, out, id, c);
        }
    }

    let top = merge_children(solution, &[Tree::ROOT]);
    let mut out = Tree::with_root_attrs(
        solution.label(Tree::ROOT).clone(),
        solution.attrs(Tree::ROOT).iter().cloned(),
    );
    for c in &top {
        build(solution, &mut out, Tree::ROOT, c);
    }
    if m.target_dtd.conforms(&out) {
        out
    } else {
        // Merging collided on a non-repeatable slot: keep the original.
        solution.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::canonical_solution;
    use crate::stds::Std;
    use xmlmap_dtd::Dtd;
    use xmlmap_trees::{tree, Value};

    fn dtd(s: &str) -> Dtd {
        xmlmap_dtd::parse(s).unwrap()
    }

    fn mapping(ds: &str, dt: &str, stds: &[&str]) -> Mapping {
        Mapping::new(
            dtd(ds),
            dtd(dt),
            stds.iter().map(|s| Std::parse(s).unwrap()).collect(),
        )
    }

    #[test]
    fn certain_answers_exclude_nulls() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ x, y",
            &["r/a(x) --> r/b(x, z)"], // z is existential: a null per tuple
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        // Asking for the first attribute: certain.
        let q1 = xmlmap_patterns::parse("r/b(x, y)").unwrap();
        let ans = certain_answers(&m, &src, &q1).unwrap();
        // Full tuples contain the null in y ⇒ nothing is certain.
        assert!(ans.is_empty());
        // Projection (empty tuple on b, value reached via wildcarding the
        // second attribute is not expressible — use a query on x alone via
        // a one-attribute pattern is an arity mismatch, so query b fully
        // but existentially): the pattern r/b(x, y) has no certain rows;
        // certain answers for "some b exists with x = 1" style queries:
        let q_exists = xmlmap_patterns::parse("r/b").unwrap();
        let ans = certain_answers(&m, &src, &q_exists).unwrap();
        assert_eq!(ans.len(), 1); // the empty valuation: certainly some b
    }

    #[test]
    fn certain_answers_on_copy_mapping() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let q = xmlmap_patterns::parse("r/b(x)").unwrap();
        let ans = certain_answers(&m, &src, &q).unwrap();
        let values: Vec<String> = ans
            .iter()
            .map(|v| v[&xmlmap_patterns::Var::new("x")].to_string())
            .collect();
        assert_eq!(values, ["1", "2"]);
    }

    #[test]
    fn ordered_queries_rejected() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let q = xmlmap_patterns::parse("r[b(x) ->* b(y)]").unwrap();
        assert!(matches!(
            certain_answers(&m, &Tree::new("r"), &q),
            Err(CertainAnswersError::OrderedQuery)
        ));
    }

    #[test]
    fn reduction_shrinks_duplicates() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb -> c\nb @ w\nc @ u",
            &["r[a(x), a(y)] --> r[b(x)/c(y), b(y)/c(x)]"],
        );
        // Two equal-valued a's: the chase creates many identical b-subtrees.
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let solution = canonical_solution(&m, &src).unwrap();
        let reduced = reduce_solution(&m, &solution);
        assert!(reduced.size() < solution.size());
        assert!(m.is_solution(&src, &reduced));
        // Exactly one distinct subtree remains: b(1)/c(1).
        assert_eq!(reduced.children(Tree::ROOT).len(), 1);
    }

    #[test]
    fn reduction_preserves_distinct_subtrees() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "2") ]);
        let solution = canonical_solution(&m, &src).unwrap();
        let reduced = reduce_solution(&m, &solution);
        assert_eq!(reduced.children(Tree::ROOT).len(), 2);
        assert!(m.is_solution(&src, &reduced));
    }

    #[test]
    fn colliding_hashes_do_not_change_the_reduction() {
        // With every hash forced equal, each repeatable child meets every
        // kept sibling and the exact comparison alone decides.
        let m = mapping(
            "root r\nr -> a*\na @ v, w",
            "root r\nr -> b*\nb -> c*\nb @ x\nc @ y, z",
            &[
                "r/a(x, y) --> r/b(x)/c(y, z)",
                "r/a(x, y) --> r/b(y)/c(x, x)",
                "r/a(x, y) --> r/b(x)/c(x, x)",
            ],
        );
        let src = tree!("r" [
            "a"("v" = "1", "w" = "1"),
            "a"("v" = "1", "w" = "2"),
            "a"("v" = "2", "w" = "1"),
            "a"("v" = "1", "w" = "1"),
        ]);
        let chased = canonical_solution(&m, &src).unwrap();
        let mut handmade = tree!("r" [
            "b"("x" = "1") [ "c"("y" = "1", "z" = "1") ],
            "b"("x" = "1") [ "c"("y" = "1", "z" = "1"), "c"("y" = "1", "z" = "1") ],
            "b"("x" = "1") [ "c"("y" = "1", "z" = "1") ],
            "b"("x" = 1) [ "c"("y" = "1", "z" = "1") ],
        ]);
        for null in [7, 8, 7] {
            let b = handmade.add_child(Tree::ROOT, "b", [("x", Value::null(null))]);
            handmade.add_child(b, "c", [("y", Value::null(null)), ("z", Value::str("1"))]);
        }
        let nr = m.target_dtd.nested_relational().unwrap();
        let repeatable = |label: &Name| nr.mult(label).is_some_and(Mult::repeatable);
        for solution in [chased, handmade] {
            let reduced = reduce_solution(&m, &solution);
            assert!(reduced.size() < solution.size());
            let collided =
                dedup_repeatable_siblings(&solution, &vec![0; solution.size()], repeatable);
            assert_eq!(collided, reduced);
        }
    }

    #[test]
    fn reduction_ignores_non_repeatable_slots() {
        // Two c's under r would not be deduplicated (but can't occur under
        // a One slot anyway); sanity: single child kept.
        let m = mapping(
            "root r\nr -> a?\na @ v",
            "root r\nr -> c\nc @ w",
            &["r/a(x) --> r/c(x)"],
        );
        let src = tree!("r"["a"("v" = "1")]);
        let solution = canonical_solution(&m, &src).unwrap();
        let reduced = reduce_solution(&m, &solution);
        assert_eq!(reduced, solution);
    }

    #[test]
    fn nesting_merges_equal_attribute_siblings() {
        // Two firings put the same work twice with different credits; the
        // nested form holds one work with both credits.
        let m = mapping(
            "root c\nc -> b*\nb -> a+\nb @ t\na @ n",
            "root db\ndb -> work*\nwork -> credit*\nwork @ title\ncredit @ who",
            &["c/b(t)[a(n)] --> db/work(t)/credit(n)"],
        );
        let src = tree! {
            "c" [ "b"("t" = "DE") [ "a"("n" = "Arenas"), "a"("n" = "Libkin") ] ]
        };
        let chased = canonical_solution(&m, &src).unwrap();
        assert_eq!(chased.children(Tree::ROOT).len(), 2); // one work per firing
        let nested = nest_solution(&m, &chased);
        assert!(m.is_solution(&src, &nested));
        assert_eq!(nested.children(Tree::ROOT).len(), 1);
        let work = nested.children(Tree::ROOT)[0];
        assert_eq!(nested.children(work).len(), 2); // both credits
    }

    #[test]
    fn nesting_preserves_distinct_groups() {
        let m = mapping(
            "root c\nc -> b*\nb @ t",
            "root db\ndb -> work*\nwork @ title",
            &["c/b(t) --> db/work(t)"],
        );
        let src = tree!("c" [ "b"("t" = "X"), "b"("t" = "Y") ]);
        let nested = nest_solution(&m, &canonical_solution(&m, &src).unwrap());
        assert_eq!(nested.children(Tree::ROOT).len(), 2);
        assert!(m.is_solution(&src, &nested));
    }

    #[test]
    fn nesting_skips_horizontal_targets() {
        let m = mapping(
            "root c\nc -> b*\nb @ t",
            "root db\ndb -> work*\nwork @ title",
            &["c/b(t) --> db[work(t) ->* work(t)]"],
        );
        let src = tree!("c");
        let sol = canonical_solution(&m, &src);
        // Horizontal targets are outside the chase fragment anyway; use a
        // hand-built solution to exercise the guard.
        let handmade = tree!("db" [ "work"("title" = "X"), "work"("title" = "X") ]);
        assert_eq!(nest_solution(&m, &handmade), handmade);
        let _ = sol;
    }

    #[test]
    fn reduced_solution_one_step() {
        let m = mapping(
            "root r\nr -> a*\na @ v",
            "root r\nr -> b*\nb @ w",
            &["r/a(x) --> r/b(x)"],
        );
        let src = tree!("r" [ "a"("v" = "1"), "a"("v" = "1") ]);
        let t = reduced_solution(&m, &src).unwrap();
        assert_eq!(t.children(Tree::ROOT).len(), 1);
        assert_eq!(
            t.attr(t.children(Tree::ROOT)[0], "w"),
            Some(&Value::str("1"))
        );
    }
}
