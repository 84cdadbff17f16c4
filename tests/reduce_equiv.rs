//! Differential tests: `reduce_solution` (one bottom-up pass of structural
//! hashes, every hash hit confirmed by an exact comparison) against the
//! implementation it replaced, kept below verbatim as the oracle — a
//! `Debug` fingerprint per repeatable child, checked against a list of the
//! fingerprints seen under the same parent.
//!
//! The two must agree exactly: the reduced trees are `==` (same arena
//! order, not just the same document) and serialize to the same bytes.
//! Inputs: chases of random nested-relational mappings over generated
//! sources with a tiny value pool (so identical firings abound),
//! exchange documents of the benchmark's `dense` shape, and hand-built
//! sibling sets that sit on the edges of "identical".

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xmlmap::core::{canonical_solution, reduce_solution};
use xmlmap::dtd::Mult;
use xmlmap::gen::{MappingGenConfig, TreeGenConfig};
use xmlmap::prelude::*;
use xmlmap::trees::xml;

/// The former `reduce_solution`, verbatim up to crate paths.
fn oracle(m: &Mapping, solution: &Tree) -> Tree {
    let Some(nr) = m.target_dtd.nested_relational() else {
        return solution.clone();
    };
    // Rebuild the tree, skipping duplicate repeatable-slot children.
    fn rebuild(
        src: &Tree,
        node: NodeId,
        nr: &xmlmap::dtd::NestedRelationalView,
        out: &mut Tree,
        at: NodeId,
    ) {
        let mut seen: Vec<(xmlmap::trees::Name, String)> = Vec::new();
        for &child in src.children(node) {
            let label = src.label(child).clone();
            let repeatable = nr.mult(&label).is_some_and(Mult::repeatable);
            if repeatable {
                let fingerprint = format!("{:?}", src.subtree(child));
                if seen.contains(&(label.clone(), fingerprint.clone())) {
                    continue;
                }
                seen.push((label.clone(), fingerprint));
            }
            let new_child = out.add_child(at, label, src.attrs(child).iter().cloned());
            rebuild(src, child, nr, out, new_child);
        }
    }
    let mut out = Tree::with_root_attrs(
        solution.label(Tree::ROOT).clone(),
        solution.attrs(Tree::ROOT).iter().cloned(),
    );
    rebuild(solution, Tree::ROOT, &nr, &mut out, Tree::ROOT);
    debug_assert!(m.target_dtd.conforms(&out));
    out
}

/// Reduces `solution` both ways and asserts equal trees and equal bytes;
/// returns the reduced tree.
fn check(m: &Mapping, solution: &Tree) -> Tree {
    let expected = oracle(m, solution);
    let got = reduce_solution(m, solution);
    assert!(
        got == expected,
        "reductions differ\nsolution:\n{solution:?}\noracle:\n{expected:?}\nnew:\n{got:?}"
    );
    assert_eq!(xml::to_string(&got), xml::to_string(&expected));
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Chases of generated nested-relational mappings over generated
    /// documents.
    #[test]
    fn random_nr_chases_reduce_like_the_oracle(case_seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case_seed);
        let ds = xmlmap::gen::random_nr_dtd(2, 2, 0.7, &mut rng);
        let dt = xmlmap::gen::random_nr_dtd(rng.gen_range(1..=3), 2, 0.7, &mut rng);
        let Some(m) = xmlmap::gen::random_nr_mapping(
            &ds,
            &dt,
            &MappingGenConfig {
                stds: rng.gen_range(1..=3),
                depth: 3,
                branch_probability: 0.7,
            },
            &mut rng,
        ) else {
            return Ok(());
        };
        let config = TreeGenConfig {
            continue_probability: 0.6,
            value_pool: 2,
            max_nodes: 60,
        };
        for _ in 0..3 {
            let source = xmlmap::gen::random_tree(&ds, &config, &mut rng);
            if let Ok(solution) = canonical_solution(&m, &source) {
                check(&m, &solution);
            }
        }
    }
}

/// Exchange documents of the `dense` benchmark shape (many professors,
/// few pads), with some professors repeated so the chase emits identical
/// subtrees for the reduction to drop.
#[test]
fn dense_exchange_documents_reduce_like_the_oracle() {
    let m = xmlmap::gen::exchange_mapping();
    for (profs, pads, repeats) in [(1, 0, 0), (40, 8, 0), (200, 40, 0), (200, 40, 60)] {
        let mut source = xmlmap::gen::exchange_tree(profs, 3, pads);
        // Re-insert copies of the first professors before the pads.
        let first: Vec<NodeId> = source.children(Tree::ROOT)[..repeats.min(profs)].to_vec();
        for (k, prof) in first.into_iter().enumerate() {
            let copy = source.subtree(prof);
            source.graft_at(Tree::ROOT, profs + k, &copy);
        }
        m.source_dtd.normalize_attrs(&mut source).unwrap();
        let solution = canonical_solution(&m, &source).unwrap();
        let reduced = check(&m, &solution);
        if repeats > 0 {
            assert!(reduced.size() < solution.size());
        }
    }
}

/// A target DTD whose `e` sits in two productions (so it has no single
/// multiplicity and is never deduplicated, even in a starred slot), with
/// a one-slot `f` under every `b`.
fn handmade_mapping() -> Mapping {
    Mapping::new(
        xmlmap::dtd::parse("root r\nr -> a*\na @ v").unwrap(),
        xmlmap::dtd::parse("root r\nr -> b*, d\nb -> c*, f\nd -> e*\nf -> e*\nb @ x\nc @ y\ne @ z")
            .unwrap(),
        vec![Std::parse("r/a(x) --> r/b(x)").unwrap()],
    )
}

/// Appends `b(x)[c(y)…, f[e(z)…]]` under the root.
fn add_b(t: &mut Tree, x: Value, cs: &[Value], es: &[Value]) {
    let b = t.add_child(Tree::ROOT, "b", [("x", x)]);
    for y in cs {
        t.add_child(b, "c", [("y", y.clone())]);
    }
    let f = t.add_elem(b, "f");
    for z in es {
        t.add_child(f, "e", [("z", z.clone())]);
    }
}

#[test]
fn handmade_sibling_sets_reduce_like_the_oracle() {
    let m = handmade_mapping();
    let (one, two) = (|| Value::str("1"), || Value::str("2"));
    let (null1, null2) = (|| Value::null(1), || Value::null(2));
    let mut t = Tree::new("r");
    // 0, 1: equal except for child order — both stay.
    add_b(&mut t, one(), &[one(), two()], &[]);
    add_b(&mut t, one(), &[two(), one()], &[]);
    // 2: a true duplicate of 0 — dropped.
    add_b(&mut t, one(), &[one(), two()], &[]);
    // 3: Int(1) against Str("1") — stays.
    add_b(&mut t, Value::int(1), &[one(), two()], &[]);
    // 4, 5, 6: ⊥1, ⊥2, ⊥1 again — the second ⊥1 is dropped.
    add_b(&mut t, null1(), &[null1()], &[]);
    add_b(&mut t, null2(), &[null1()], &[]);
    add_b(&mut t, null1(), &[null1()], &[]);
    // 7, 8: identical only after inner reduction (7's c's collapse into
    // 8's) — both stay, since the *input* subtrees differ.
    add_b(&mut t, two(), &[one(), one()], &[]);
    add_b(&mut t, two(), &[one()], &[]);
    // 9, 10: equal except inside the one-slot f, whose e's never dedup.
    add_b(&mut t, two(), &[], &[one(), one()]);
    add_b(&mut t, two(), &[], &[one()]);
    // 11: a duplicate of 9, e's included — dropped.
    add_b(&mut t, two(), &[], &[one(), one()]);
    // The non-repeatable d: its identical e children all stay.
    let d = t.add_elem(Tree::ROOT, "d");
    for _ in 0..3 {
        t.add_child(d, "e", [("z", one())]);
    }
    assert!(m.target_dtd.conforms(&t));

    let reduced = check(&m, &t);
    let kept = t.children(Tree::ROOT).len() - 3;
    assert_eq!(reduced.children(Tree::ROOT).len(), kept);
    let b7 = reduced.children(Tree::ROOT)[5];
    assert_eq!(reduced.children(b7).len(), 2, "inner c(1) twins collapse");
    let b9 = reduced.children(Tree::ROOT)[7];
    let f9 = *reduced.children(b9).last().unwrap();
    assert_eq!(reduced.children(f9).len(), 2, "e is never deduplicated");
    let d = *reduced.children(Tree::ROOT).last().unwrap();
    assert_eq!(reduced.children(d).len(), 3);
}

/// Wide sibling sets: many duplicates of a few shapes, interleaved, where
/// the old fingerprint list was quadratic.
#[test]
fn wide_sibling_sets_reduce_like_the_oracle() {
    let m = handmade_mapping();
    let mut t = Tree::new("r");
    for i in 0..600 {
        let v = Value::int(i % 7);
        let cs = [Value::str(format!("{}", i % 5)), Value::null(i as u64 % 3)];
        add_b(&mut t, v, &cs[..1 + (i % 2) as usize], &[]);
    }
    t.add_elem(Tree::ROOT, "d");
    let reduced = check(&m, &t);
    // Distinct shapes: (i mod 7, i mod 5) over even i, 35 of them, and
    // (i mod 7, i mod 5, i mod 3) over odd i, 105; plus d.
    assert_eq!(reduced.children(Tree::ROOT).len(), 35 + 105 + 1);
}
