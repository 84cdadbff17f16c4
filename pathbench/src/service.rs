//! The request pool behind the daemon and batch phases: job files written
//! into a directory of the checkout, request lines in the jobfile
//! grammar, and the answer each request must get.
//!
//! Expected answers never come from the compiled engines under test. They
//! come from known-answer families (`xmlmap_gen::hard`), from set logic on
//! the generated documents, or from reference oracles run untimed when the
//! pool or a round is made: the interpretive chase
//! (`core::chase::reference`), the reference pattern matcher, tree
//! conformance, the PTIME consistency procedure for nested-relational
//! mappings and the reference hedge-automaton inclusion.

use crate::inputs::{self, Family, Workload};
use rand::prelude::*;
use std::path::{Path, PathBuf};
use xmlmap_core::{JobResult, Mapping, Update};
use xmlmap_dtd::Dtd;
use xmlmap_trees::{xml, Tree, Value};

/// The eight jobfile verbs, in report order.
pub const VERBS: [&str; 8] = [
    "member",
    "consistent",
    "abscons",
    "subschema",
    "compose-member",
    "stream",
    "chase-stream",
    "delta-apply",
];

/// What a request must be answered with.
#[derive(Clone, Debug)]
pub enum Expect {
    /// An answer with this verdict whose detail contains the text.
    Answer(bool, Option<String>),
    /// A typed error whose message contains the text (e.g. a query
    /// outside an engine's fragment).
    Failed(String),
}

impl Expect {
    pub fn holds(&self, got: &JobResult) -> bool {
        match (self, got) {
            (Expect::Answer(yes, want), JobResult::Answer { yes: y, detail }) => {
                yes == y && want.as_ref().is_none_or(|w| detail.contains(w.as_str()))
            }
            (Expect::Failed(want), JobResult::Failed { error }) => error.contains(want.as_str()),
            _ => false,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Request {
    pub line: String,
    pub verb: &'static str,
    pub expect: Expect,
    /// Names a mapping or schema no earlier request named.
    pub cold: bool,
}

/// The pool: warm requests per verb, the per-round mix, and a generator
/// of cold requests.
pub struct Pool {
    pub dir: PathBuf,
    warm: Vec<(&'static str, Vec<Request>)>,
    /// Per verb: the next warm request, taken in turn, so that every run
    /// sends each warm request equally often whatever the seed.
    cursor: Vec<usize>,
    /// Per verb: warm and cold requests in one round.
    mix: Vec<(&'static str, usize, usize)>,
    rng: StdRng,
    cold_made: usize,
}

fn write(dir: &Path, name: &str, text: &str) -> String {
    std::fs::write(dir.join(name), text).unwrap_or_else(|e| panic!("writing {name}: {e}"));
    name.to_string()
}

/// Writes a mapping and checks that the file parses back to it.
fn write_mapping(dir: &Path, name: &str, m: &Mapping) -> String {
    let text = m.to_string();
    let back = Mapping::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse back: {e}"));
    assert_eq!(back.to_string(), text, "{name} does not round-trip");
    write(dir, name, &text)
}

fn write_dtd(dir: &Path, name: &str, d: &Dtd) -> String {
    write(dir, name, &d.to_string())
}

fn write_tree(dir: &Path, name: &str, t: &Tree) -> String {
    write(dir, name, &xml::to_string(t))
}

fn parse_tree(doc: &str, dtd: &Dtd) -> Tree {
    let mut t = xml::parse(doc).expect("generated documents parse");
    let _ = dtd.normalize_attrs(&mut t);
    t
}

/// Applies an update script to a plain tree — the oracle side of
/// `delta-apply`, independent of the incremental engine.
pub fn apply_by_hand(t: &mut Tree, updates: &[Update]) {
    let resolve = |t: &Tree, path: &[usize]| path.iter().fold(Tree::ROOT, |n, &i| t.children(n)[i]);
    for u in updates {
        match u {
            Update::InsertSubtree {
                parent,
                pos,
                subtree,
            } => {
                let p = resolve(t, parent);
                t.graft_at(p, *pos, subtree);
            }
            Update::DeleteSubtree { path } => {
                let n = resolve(t, path);
                t.detach(n);
            }
            Update::ReplaceText { path, attr, value } => {
                let n = resolve(t, path);
                t.set_attr(n, attr.as_str(), value.clone());
            }
        }
    }
}

/// The reference chase's canonical solution, or `None` when it fails.
fn reference_solution(m: &Mapping, t: &Tree) -> Option<Tree> {
    xmlmap_core::chase::reference::canonical_solution(m, t).ok()
}

impl Pool {
    /// Writes the pool for workload `w` into `dir` and computes every
    /// warm request's expected answer.
    pub fn build(w: Workload, fam: Family, dir: &Path, seed: u64) -> Pool {
        std::fs::create_dir_all(dir).expect("creating the pool directory");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E5F);
        let mut warm: Vec<(&'static str, Vec<Request>)> =
            VERBS.iter().map(|&v| (v, Vec::new())).collect();
        let mut push = |verb: &'static str, line: String, expect: Expect| {
            let slot = warm
                .iter_mut()
                .find(|(v, _)| *v == verb)
                .expect("known verb");
            slot.1.push(Request {
                line,
                verb,
                expect,
                cold: false,
            });
        };
        // The family's documents: stream, chase-stream, delta-apply.
        let (m, pattern, docs, storms): (Mapping, &str, Vec<String>, Vec<String>) = match fam {
            Family::Exchange { small, .. } => {
                let docs = small
                    .iter()
                    .map(|&s| inputs::exchange_doc(s, &mut rng))
                    .collect();
                let storms = small
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        inputs::exchange_storms(s, 1, seed.wrapping_add(i as u64)).next_storm_text()
                    })
                    .collect();
                (
                    xmlmap_gen::exchange_mapping(),
                    "r/prof(x)/supervise/student(s)",
                    docs,
                    storms,
                )
            }
            Family::Chain { small, .. } => {
                let depths = [small; 3];
                let docs = depths
                    .iter()
                    .map(|&d| inputs::chain_doc(d, &mut rng))
                    .collect();
                let storms = depths
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        inputs::chain_storms(d, 2, seed.wrapping_add(i as u64)).next_storm_text()
                    })
                    .collect();
                ((*inputs::chain_mapping()).clone(), "r//a(x)", docs, storms)
            }
        };
        let map = write_mapping(dir, "family.map", &m);
        let dtd = write_dtd(dir, "family.dtd", &m.source_dtd);
        let pat = xmlmap_patterns::parse(pattern).expect("static pattern");
        for (i, (doc, storm)) in docs.iter().zip(&storms).enumerate() {
            let src = write(dir, &format!("doc{i}.xml"), doc);
            let upd = write(dir, &format!("doc{i}.upd"), storm);
            let mut t = parse_tree(doc, &m.source_dtd);
            let matched = m.source_dtd.check(&t).is_ok()
                && !xmlmap_patterns::reference::all_matches(&t, &pat).is_empty();
            push(
                "stream",
                format!("stream {dtd} {src} {pattern}"),
                Expect::Answer(matched, Some(format!("({} elements,", t.size()))),
            );
            let sol = reference_solution(&m, &t).expect("family documents chase");
            push(
                "chase-stream",
                format!("chase-stream {map} {src}"),
                Expect::Answer(true, Some(format!("target has {} nodes", sol.size()))),
            );
            apply_by_hand(
                &mut t,
                &xmlmap_core::parse_updates(storm).expect("generated update grammar"),
            );
            let after = reference_solution(&m, &t).expect("storms keep a solution");
            push(
                "delta-apply",
                format!("delta-apply {map} {src} {upd}"),
                Expect::Answer(true, Some(format!("target has {} nodes)", after.size()))),
            );
            if w == Workload::Service {
                let tgt = write_tree(dir, &format!("doc{i}.sol.xml"), &sol);
                push(
                    "member",
                    format!("member {map} {src} {tgt}"),
                    Expect::Answer(true, None),
                );
            }
        }
        let mix = if w == Workload::Service {
            static_families(dir, &mut push);
            // Warm static-analysis requests take tens of µs, mostly
            // thread hand-offs that the host's steal time stretches; the
            // document verbs take ms of work. With 10 warm static and 4
            // cold requests first in latency order, the median lies
            // inside the `stream` cluster (ranks 15-20 of 32) and the
            // p90 inside the `delta-apply` one (27-32).
            vec![
                ("member", 2, 0),
                ("consistent", 2, 2),
                ("abscons", 2, 1),
                ("subschema", 2, 1),
                ("compose-member", 2, 0),
                ("stream", 6, 0),
                ("chase-stream", 6, 0),
                ("delta-apply", 6, 0),
            ]
        } else {
            vec![
                ("stream", 4, 0),
                ("chase-stream", 4, 0),
                ("delta-apply", 4, 0),
            ]
        };
        Pool {
            dir: dir.to_path_buf(),
            cursor: vec![0; warm.len()],
            warm,
            mix,
            rng,
            cold_made: 0,
        }
    }

    /// Every warm request once (setup answers them all, so that the
    /// measured rounds compile only what the cold share names).
    pub fn all_warm(&self) -> Vec<Request> {
        self.warm
            .iter()
            .flat_map(|(_, r)| r.iter().cloned())
            .collect()
    }

    pub fn round_size(&self) -> usize {
        self.mix.iter().map(|(_, w, c)| w + c).sum()
    }

    pub fn cold_share(&self) -> f64 {
        self.mix.iter().map(|(_, _, c)| c).sum::<usize>() as f64 / self.round_size() as f64
    }

    /// The next round: the fixed per-verb mix, warm requests taken from
    /// the pool in turn, cold ones written fresh, in seeded order.
    pub fn next_round(&mut self) -> Vec<Request> {
        let mut round = Vec::new();
        for (verb, n_warm, n_cold) in self.mix.clone() {
            let v = self
                .warm
                .iter()
                .position(|(name, _)| *name == verb)
                .expect("known verb");
            let pool = &self.warm[v].1;
            for _ in 0..n_warm {
                round.push(pool[self.cursor[v] % pool.len()].clone());
                self.cursor[v] += 1;
            }
            for _ in 0..n_cold {
                let k = self.cold_made;
                self.cold_made += 1;
                round.push(cold_request(&self.dir, verb, k, &mut self.rng));
            }
        }
        inputs::shuffle(&mut round, &mut self.rng);
        round
    }
}

/// The service workload's static-analysis requests over known-answer
/// families.
fn static_families(dir: &Path, push: &mut impl FnMut(&'static str, String, Expect)) {
    use xmlmap_gen::hard;
    for n in [2usize, 3] {
        let map = write_mapping(dir, &format!("mv{n}.map"), &hard::membership_vars(n));
        let (src, tgt) = hard::membership_instance(n);
        let mut rev = Tree::new("r");
        for &c in tgt.children(Tree::ROOT).iter().rev() {
            rev.graft(Tree::ROOT, &tgt.subtree(c));
        }
        let s = write_tree(dir, &format!("mv{n}.src.xml"), &src);
        let t = write_tree(dir, &format!("mv{n}.tgt.xml"), &tgt);
        let r = write_tree(dir, &format!("mv{n}.rev.xml"), &rev);
        // Thm 4.3's family: the in-order target is a solution, the
        // reversed one violates the order the target pattern demands.
        push(
            "member",
            format!("member {map} {s} {t}"),
            Expect::Answer(true, None),
        );
        push(
            "member",
            format!("member {map} {s} {r}"),
            Expect::Answer(false, None),
        );
        // A mapping with values and sibling order lies outside both exact
        // absolute-consistency fragments: a typed error is the answer.
        push(
            "abscons",
            format!("abscons {map}"),
            Expect::Failed("outside the exact ABSCONS fragments".to_string()),
        );
    }
    for n in [2usize, 3] {
        let map = write_mapping(dir, &format!("nextsib{n}.map"), &hard::cons_nextsib(n));
        push(
            "consistent",
            format!("consistent {map}"),
            Expect::Answer(true, None),
        );
        let map = write_mapping(
            dir,
            &format!("exptime{}.map", n + 1),
            &hard::cons_exptime(n + 1),
        );
        push(
            "consistent",
            format!("consistent {map}"),
            Expect::Answer(false, None),
        );
        let map = write_mapping(dir, &format!("chain{n}.map"), &hard::abscons_chain(n));
        push(
            "abscons",
            format!("abscons {map}"),
            Expect::Answer(true, None),
        );
    }
    let uni = write_dtd(dir, "university.dtd", &xmlmap_gen::university_dtd());
    let ex = write_dtd(dir, "exchange.dtd", &xmlmap_gen::exchange_source_dtd());
    // `r -> prof*` documents are `r -> prof*, pad*` documents, not back.
    push(
        "subschema",
        format!("subschema {uni} {ex}"),
        Expect::Answer(true, None),
    );
    push(
        "subschema",
        format!("subschema {ex} {uni}"),
        Expect::Answer(false, None),
    );
    push(
        "subschema",
        format!("subschema {ex} {ex}"),
        Expect::Answer(true, None),
    );
    // Composition of the copy chain a_i -> b_i -> c_i: (t1, t3) is in it
    // iff every a_i value is a c_i value of t3 (the middle document then
    // has one b per value, within the default six-node bound).
    let (m12, m23) = hard::compose_chain(1);
    let m12 = write_mapping(dir, "copy12.map", &m12);
    let m23 = write_mapping(dir, "copy23.map", &m23);
    let doc = |root: &str, items: &[(&str, &str, &str)]| {
        let mut t = Tree::new(root);
        for (label, attr, v) in items {
            t.add_child(Tree::ROOT, *label, [(*attr, Value::str(*v))]);
        }
        t
    };
    let s = write_tree(
        dir,
        "copy.src.xml",
        &doc("r", &[("a0", "v", "x"), ("a0", "v", "y"), ("a1", "v", "z")]),
    );
    let cases = [
        (
            "copy.all.xml",
            vec![("c0", "u", "x"), ("c0", "u", "y"), ("c1", "u", "z")],
            true,
        ),
        (
            "copy.more.xml",
            vec![
                ("c0", "u", "x"),
                ("c0", "u", "y"),
                ("c0", "u", "q"),
                ("c1", "u", "z"),
            ],
            true,
        ),
        (
            "copy.miss.xml",
            vec![("c0", "u", "x"), ("c1", "u", "z")],
            false,
        ),
        (
            "copy.swap.xml",
            vec![("c0", "u", "x"), ("c0", "u", "y"), ("c0", "u", "z")],
            false,
        ),
    ];
    for (name, items, yes) in cases {
        let t = write_tree(dir, name, &doc("w", &items));
        push(
            "compose-member",
            format!("compose-member {m12} {m23} {s} {t}"),
            Expect::Answer(yes, None),
        );
    }
    // Two seeded nested-relational mappings per static verb, oracled the
    // same way as cold requests.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for k in 0..2 {
        for verb in ["consistent", "abscons", "subschema"] {
            let r = cold_request(dir, verb, 1_000_000 + k, &mut rng);
            push(verb, r.line, r.expect);
        }
    }
}

/// Appends `k<k>` to every word `is_label` accepts, so that request `k`
/// names schemas no other request names.
fn relabel(text: &str, is_label: impl Fn(&str) -> bool, k: usize) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    let mut word = String::new();
    let flush = |word: &mut String, out: &mut String| {
        out.push_str(word);
        if is_label(word) {
            out.push_str(&format!("k{k}"));
        }
        word.clear();
    };
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            word.push(c);
        } else {
            flush(&mut word, &mut out);
            out.push(c);
        }
    }
    flush(&mut word, &mut out);
    out
}

/// The element labels `xmlmap_gen`'s random schemas use: `e<i>`.
fn generated_label(w: &str) -> bool {
    w.strip_prefix('e')
        .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
}

/// A seeded nested-relational mapping whose labels only request `k` uses.
fn random_mapping(k: usize, rng: &mut StdRng) -> Option<Mapping> {
    let ds = xmlmap_gen::random_nr_dtd(2, 2, 0.5, rng);
    let dt = xmlmap_gen::random_nr_dtd(2, 2, 0.5, rng);
    let m = xmlmap_gen::random_nr_mapping(
        &ds,
        &dt,
        &xmlmap_gen::MappingGenConfig {
            stds: 2,
            depth: 2,
            branch_probability: 0.6,
        },
        rng,
    )?;
    Some(
        Mapping::parse(&relabel(&m.to_string(), generated_label, k))
            .expect("relabelled mapping parses"),
    )
}

fn random_dtd(k: usize, rng: &mut StdRng) -> Dtd {
    let d = xmlmap_gen::random_nr_dtd(2, 2, 0.0, rng);
    xmlmap_dtd::parse(&relabel(&d.to_string(), generated_label, k))
        .expect("relabelled schema parses")
}

/// A request naming a mapping or schema pair never named before, with
/// its expected answer. Draws until the oracle is conclusive.
fn cold_request(dir: &Path, verb: &'static str, k: usize, rng: &mut StdRng) -> Request {
    let (line, expect) = match verb {
        "consistent" => loop {
            let Some(m) = random_mapping(k, rng) else {
                continue;
            };
            // Fact 5.1's PTIME procedure for nested-relational mappings.
            let Some(yes) = xmlmap_core::consistent_nr_ptime(&m) else {
                continue;
            };
            let map = write_mapping(dir, &format!("cold{k}.consistent.map"), &m);
            break (format!("consistent {map}"), Expect::Answer(yes, None));
        },
        "abscons" => {
            // Known answers, relabelled so that only this request names
            // the schemas: Thm 6.3's chain family is absolutely
            // consistent; copying a starred source value into a single
            // target slot is not (two distinct values cannot share it).
            let (m, yes) = if rng.gen_bool(0.5) {
                (xmlmap_gen::hard::abscons_chain(rng.gen_range(2..5)), true)
            } else {
                let text = "[source]\nroot r\nr -> a*\na @ v\n\
                            [target]\nroot r\nr -> b\nb @ w\n\
                            [stds]\nr/a(x) --> r/b(x)\n";
                (Mapping::parse(text).expect("static mapping"), false)
            };
            let labels: Vec<String> = m
                .source_dtd
                .alphabet()
                .chain(m.target_dtd.alphabet())
                .map(|l| l.as_str().to_string())
                .filter(|l| l != "r")
                .collect();
            let text = relabel(&m.to_string(), |w| labels.iter().any(|l| l == w), k);
            let m = Mapping::parse(&text).expect("relabelled mapping parses");
            let map = write_mapping(dir, &format!("cold{k}.abscons.map"), &m);
            (format!("abscons {map}"), Expect::Answer(yes, None))
        }
        "subschema" => {
            let d1 = random_dtd(k, rng);
            let d2 = if rng.gen_bool(0.5) {
                d1.clone()
            } else {
                random_dtd(k, rng)
            };
            let mut alphabet: Vec<_> = d1.alphabet().cloned().collect();
            for l in d2.alphabet() {
                if !alphabet.contains(l) {
                    alphabet.push(l.clone());
                }
            }
            let included = xmlmap_automata::reference::inclusion_counterexample(
                &xmlmap_automata::HedgeAutomaton::from_dtd(&d1),
                &xmlmap_automata::HedgeAutomaton::from_dtd(&d2),
                &alphabet,
                50_000_000,
            )
            .expect("small schemas stay within budget")
            .is_none();
            let a = write_dtd(dir, &format!("cold{k}a.dtd"), &d1);
            let b = write_dtd(dir, &format!("cold{k}b.dtd"), &d2);
            (format!("subschema {a} {b}"), Expect::Answer(included, None))
        }
        other => unreachable!("no cold requests for {other}"),
    };
    Request {
        line,
        verb,
        expect,
        cold: true,
    }
}
