//! Differential tests for document ingest: the SAX tokenizer and the
//! conformance kernel.
//!
//! *Tokenizer.* The reader parses each tag straight off its buffered slice
//! and parses it again after a refill when the tag runs past the buffer, so
//! its events and errors must not depend on how the source delivers bytes.
//! Random documents (comments and processing instructions, the five
//! entities, CR/LF, both quote styles, non-ASCII values, tags straddling the
//! 64 KiB refill) and byte-level mutations of them are read from a slice, a
//! one-byte reader and a random-chunk reader, and all three must agree on
//! every event, offset, position and error. A fixed table of malformed
//! inputs pins the diagnostics (offset, line, column, message) to the values
//! the byte-at-a-time reader reported before the run-scanning reader
//! replaced it.
//!
//! *Conformance.* `Dtd::check`, `Dtd::normalize_attrs` and
//! `Dtd::node_conforms` run on the dense per-label kernel. They are compared
//! with a test-local oracle that spells out `T ⊨ D` directly (the Glushkov
//! NFA's `accepts` over the children's label word) on random documents and
//! on label, attribute and child mutations of them; errors must be equal,
//! offending node included.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use xmlmap::dtd::{ConformanceError, Dtd};
use xmlmap::gen::{self, TreeGenConfig};
use xmlmap::trees::{xml, Name, NodeId, SaxEvent, SaxReader, Tree, Value, XmlError};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// A source that hands out one byte per `read`.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.0.split_first() {
            Some((&b, rest)) if !buf.is_empty() => {
                buf[0] = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// A source that hands out seeded random-length pieces.
struct Chunks<'a> {
    rest: &'a [u8],
    rng: StdRng,
}

impl Read for Chunks<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let max: usize = if self.rng.gen_bool(0.5) { 16 } else { 100_000 };
        let n = self
            .rng
            .gen_range(1..=max)
            .min(buf.len())
            .min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Every event with the reader's offset and position after it, then the
/// error that stopped the reader (`None` at a clean end of document).
type Trace = (Vec<(SaxEvent, usize, (u32, u32))>, Option<XmlError>);

fn trace<R: Read>(src: R) -> Trace {
    let mut reader = SaxReader::new(src);
    let mut events = Vec::new();
    loop {
        match reader.next_event() {
            Ok(Some(ev)) => events.push((ev, reader.offset(), reader.position())),
            Ok(None) => return (events, None),
            Err(e) => return (events, Some(e)),
        }
    }
}

/// Reads `doc` from all three sources; they must agree.
fn same_across_sources(doc: &[u8], seed: u64) -> Trace {
    let slice = trace(doc);
    let one = trace(OneByte(doc));
    assert!(one == slice, "one-byte reader diverges on {:?}", show(doc));
    let chunked = trace(Chunks {
        rest: doc,
        rng: StdRng::seed_from_u64(seed),
    });
    assert!(
        chunked == slice,
        "chunked reader diverges on {:?}",
        show(doc)
    );
    slice
}

fn show(doc: &[u8]) -> String {
    format!(
        "{} ({} bytes)",
        String::from_utf8_lossy(&doc[..doc.len().min(300)]),
        doc.len()
    )
}

const LABELS: [&str; 7] = ["r", "a", "b", "pad", "x.y", "ns:e", "_u-1"];
const ATTRS: [&str; 5] = ["v", "w", "id", "x:y", "long-name"];
const WS: [&str; 5] = [" ", "  ", "\t", "\n", "\r\n"];

fn ws(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(0..3) {
        out.push_str(WS[rng.gen_range(0..WS.len())]);
    }
}

/// Whitespace, comments and processing instructions.
fn misc(rng: &mut StdRng, out: &mut String) {
    ws(rng, out);
    match rng.gen_range(0..6) {
        0 => {
            out.push_str("<!--");
            // No piece ends in '>', so "-->" cannot appear early.
            let pieces = [" c ", "-", "é", "\n", "<a>x", "?>?", "&"];
            for _ in 0..rng.gen_range(0..6) {
                out.push_str(pieces[rng.gen_range(0..pieces.len())]);
            }
            out.push_str(" -->");
        }
        1 => {
            out.push_str("<?pi");
            // No piece starts with '>', so "?>" cannot appear early.
            let pieces = [" x=\"1\"", "?", "a>", "ü", "\r\n", "--"];
            for _ in 0..rng.gen_range(0..5) {
                out.push_str(pieces[rng.gen_range(0..pieces.len())]);
            }
            out.push_str(" ?>");
        }
        _ => {}
    }
    ws(rng, out);
}

/// A random value, written with quote `q` into `out`; returns the decoded
/// value.
fn value(rng: &mut StdRng, q: char, long: bool, out: &mut String) -> String {
    const PIECES: [(&str, &str); 16] = [
        ("x", "x"),
        ("42", "42"),
        (" ", " "),
        ("&lt;", "<"),
        ("&gt;", ">"),
        ("&amp;", "&"),
        ("&quot;", "\""),
        ("&apos;", "'"),
        ("é", "é"),
        ("ü", "ü"),
        ("東京", "東京"),
        ("😀", "😀"),
        ("\n", "\n"),
        ("\r\n", "\r\n"),
        (">", ">"),
        ("<", "<"),
    ];
    let mut decoded = String::new();
    out.push(q);
    let n = if long {
        rng.gen_range(500..4000)
    } else {
        rng.gen_range(0..6)
    };
    for _ in 0..n {
        let (raw, dec) = PIECES[rng.gen_range(0..PIECES.len())];
        out.push_str(raw);
        decoded.push_str(dec);
    }
    // The other quote style may appear raw.
    if rng.gen_bool(0.2) {
        let other = if q == '"' { '\'' } else { '"' };
        out.push(other);
        decoded.push(other);
    }
    out.push(q);
    decoded
}

/// One start tag; returns its label and decoded attributes.
fn start_tag(
    rng: &mut StdRng,
    label: &str,
    long_values: f64,
    out: &mut String,
) -> Vec<(String, String)> {
    out.push('<');
    out.push_str(label);
    let mut names: Vec<&str> = ATTRS.to_vec();
    let mut attrs = Vec::new();
    for _ in 0..rng.gen_range(0..=3) {
        let name = names.remove(rng.gen_range(0..names.len()));
        out.push_str(WS[rng.gen_range(0..WS.len())]);
        out.push_str(name);
        ws(rng, out);
        out.push('=');
        ws(rng, out);
        let q = if rng.gen_bool(0.5) { '"' } else { '\'' };
        let long = rng.gen_bool(long_values);
        let v = value(rng, q, long, out);
        attrs.push((name.to_string(), v));
    }
    ws(rng, out);
    attrs
}

/// A random document of roughly `budget` elements, and the tree it spells.
fn random_doc(rng: &mut StdRng, budget: usize, long_values: f64) -> (String, Tree) {
    let mut out = String::new();
    if rng.gen_bool(0.3) {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    }
    misc(rng, &mut out);
    let attrs = start_tag(rng, "r", long_values, &mut out);
    let mut tree = Tree::with_root_attrs("r", attrs.into_iter().map(|(a, v)| (a, Value::from(v))));
    out.push('>');
    // (node, label) of open elements below the root.
    let mut open: Vec<(NodeId, &str)> = vec![(Tree::ROOT, "r")];
    let mut made = 1;
    while let Some(&(parent, parent_label)) = open.last() {
        misc(rng, &mut out);
        let close = made >= budget || open.len() > 12 || rng.gen_bool(0.3);
        if close {
            out.push_str("</");
            out.push_str(parent_label);
            ws(rng, &mut out);
            out.push('>');
            open.pop();
            continue;
        }
        let label = LABELS[rng.gen_range(0..LABELS.len())];
        let attrs = start_tag(rng, label, long_values, &mut out);
        let node = tree.add_child(
            parent,
            label,
            attrs.into_iter().map(|(a, v)| (a, Value::from(v))),
        );
        made += 1;
        if rng.gen_bool(0.5) {
            out.push_str("/>");
        } else {
            out.push('>');
            open.push((node, label));
        }
    }
    misc(rng, &mut out);
    (out, tree)
}

#[test]
fn random_documents_read_alike_from_every_source() {
    let mut rng = StdRng::seed_from_u64(0x1_9e57);
    for case in 0..160u64 {
        // Every eighth document is large and has long values, so tags and
        // values straddle the 64 KiB refill of the slice source.
        let (budget, long) = if case % 8 == 7 {
            (3000, 0.02)
        } else {
            (40, 0.0)
        };
        let (doc, tree) = random_doc(&mut rng, budget, long);
        let (events, err) = same_across_sources(doc.as_bytes(), case);
        assert_eq!(
            err,
            None,
            "generated document must parse: {}",
            show(doc.as_bytes())
        );
        assert_eq!(events.len(), 2 * tree.size());
        assert!(xml::parse(&doc).unwrap() == tree, "decoded tree differs");
    }
}

#[test]
fn mutated_documents_fail_alike_from_every_source() {
    let mut rng = StdRng::seed_from_u64(0xbad_d0c);
    let mut errors = 0;
    for case in 0..400u64 {
        let (budget, long) = if case % 40 == 39 {
            (2500, 0.02)
        } else {
            (25, 0.0)
        };
        let (doc, _) = random_doc(&mut rng, budget, long);
        let mut bytes = doc.into_bytes();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..4) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {
                    const NOISE: [u8; 14] = [
                        b'<', b'>', b'"', b'\'', b'&', b'/', b'=', b' ', b'x', b';', b'-', b'?',
                        0xff, 0xc3,
                    ];
                    bytes.insert(at, NOISE[rng.gen_range(0..NOISE.len())]);
                }
            }
        }
        let (_, err) = same_across_sources(&bytes, case);
        errors += usize::from(err.is_some());
    }
    assert!(
        errors > 300,
        "mutations should mostly break the document ({errors})"
    );
}

#[test]
fn constructs_straddling_the_refill_read_alike() {
    // A leading comment pads the document so that a tag, an entity, a
    // multi-byte character or a comment terminator sits on each side of
    // the 64 KiB refill boundary in turn.
    const CHUNK: usize = 64 * 1024;
    let tails = [
        "<a v=\"x&amp;y\" w='東京😀'/><b/></r>",
        "<a v=\"x&amp;y\" w='東京😀'/><!-- é --><b></b></r>",
        "<a v=\"x&amp;y\" w='東京😀'/><b></c></r>",
        "<a v=\"\u{ff}&quo\"/></r>",
    ];
    for tail in tails {
        for k in 0..48 {
            let pad = CHUNK - 24 - k;
            let doc = format!("<r><!--{}-->\r\n{tail}", "-".repeat(pad));
            same_across_sources(doc.as_bytes(), k as u64);
        }
    }
    // A byte source with invalid UTF-8 right at the boundary.
    for k in 0..8 {
        let mut doc = format!("<r><!--{}--><a v=\"", "-".repeat(CHUNK - 20 - k)).into_bytes();
        doc.extend_from_slice(b"ok\xe6\x9d\xb1\xff\"/></r>");
        let (_, err) = same_across_sources(&doc, k as u64);
        assert_eq!(err.unwrap().message, "invalid UTF-8 in attribute value");
    }
}

/// Malformed inputs and the `(offset, line, column, message)` each one
/// is rejected with.
const MALFORMED: &[(&str, usize, u32, u32, &str)] = &[
    ("", 0, 1, 1, "expected '<'"),
    ("   \n ", 5, 2, 2, "expected '<'"),
    ("junk", 0, 1, 1, "expected '<'"),
    ("<", 1, 1, 2, "expected a name"),
    ("<a", 2, 1, 3, "unterminated start tag"),
    ("<a>", 3, 1, 4, "missing close tag </a>"),
    ("<a></b>", 6, 1, 7, "mismatched close tag: expected </a>"),
    ("<a></a", 6, 1, 7, "expected '>'"),
    ("<a></a x>", 7, 1, 8, "expected '>'"),
    (
        "<a/><b/>",
        4,
        1,
        5,
        "trailing content after the root element",
    ),
    (
        "<a/>junk",
        4,
        1,
        5,
        "trailing content after the root element",
    ),
    (
        "<a>text</a>",
        3,
        1,
        4,
        "text content is not supported in this fragment",
    ),
    (
        "<a x=\"1\" x=\"2\"/>",
        14,
        1,
        15,
        "duplicate attribute \"x\"",
    ),
    ("<a x=1/>", 6, 1, 7, "expected a quoted attribute value"),
    ("<a x/>", 4, 1, 5, "expected '='"),
    ("<a x=\"1", 7, 1, 8, "unterminated attribute value"),
    ("<a v=\"&nope;\"/>", 12, 1, 13, "unknown entity"),
    ("<a v=\"&lt\"/>", 11, 1, 12, "unknown entity"),
    ("<a v=\"&am", 9, 1, 10, "unterminated entity"),
    ("<!-- x", 6, 1, 7, "unterminated comment"),
    ("<? x", 4, 1, 5, "unterminated processing instruction"),
    ("<a/ >", 3, 1, 4, "expected '>'"),
    ("<a =\"\"/>", 3, 1, 4, "expected a name"),
    ("</a>", 1, 1, 2, "expected a name"),
    (
        "<r>\n  <a>text</a>\n</r>",
        9,
        2,
        6,
        "text content is not supported in this fragment",
    ),
    (
        "<r>\r\n<a x=\"1\"\n y='2' z=\"3\"/>\n<b></c></r>",
        35,
        4,
        7,
        "mismatched close tag: expected </b>",
    ),
    ("<a x = \"1\" / >", 12, 1, 13, "expected '>'"),
    (
        "<a><!-- c --><b></a>",
        19,
        1,
        20,
        "mismatched close tag: expected </b>",
    ),
    (
        "<r>\n<a v=\"x\ny\"/><b>",
        19,
        3,
        8,
        "missing close tag </b>",
    ),
    (
        "<a v='&apos;&quot;&amp;&lt;&gt;'>",
        33,
        1,
        34,
        "missing close tag </a>",
    ),
    ("<a v=\"&toolong;\"/>", 11, 1, 12, "unknown entity"),
    (
        "<a/><!--c--> x",
        13,
        1,
        14,
        "trailing content after the root element",
    ),
    ("<r><a/>\n\n   <", 13, 3, 5, "expected a name"),
    ("<é/>", 1, 1, 2, "expected a name"),
    (
        "<r><a v=\"1\" w=\"2\" v=\"3\"/></r>",
        23,
        1,
        24,
        "duplicate attribute \"v\"",
    ),
    (
        "<r>\t<a/>\t</r>\t<",
        14,
        1,
        15,
        "trailing content after the root element",
    ),
    (
        "<r><a></a ></r >x",
        16,
        1,
        17,
        "trailing content after the root element",
    ),
    ("<a v=\"&#60;\"/>", 11, 1, 12, "unknown entity"),
    ("<a v=\"&;\"/>", 8, 1, 9, "unknown entity"),
    ("<a v=\"&\n;\"/>", 9, 2, 2, "unknown entity"),
    (
        "<r><!-- -- --><? ?><a>\n</a >\n\n</r>\n\n<!--",
        40,
        6,
        5,
        "unterminated comment",
    ),
    (
        "<a\n\n  b\n=\n'x'\n\n c='y'\n>\n</a>\n<",
        29,
        10,
        1,
        "trailing content after the root element",
    ),
    ("<a/>\n<?pi", 9, 2, 5, "unterminated processing instruction"),
    (
        "<r><a></r>",
        9,
        1,
        10,
        "mismatched close tag: expected </a>",
    ),
];

#[test]
fn malformed_inputs_keep_their_diagnostics() {
    for (i, &(doc, offset, line, col, message)) in MALFORMED.iter().enumerate() {
        let (_, err) = same_across_sources(doc.as_bytes(), i as u64);
        let err = err.unwrap_or_else(|| panic!("{doc:?} must be rejected"));
        assert_eq!(
            (err.offset, err.line, err.col, err.message.as_str()),
            (offset, line, col, message),
            "{doc:?}"
        );
        assert_eq!(xml::parse(doc).unwrap_err(), err);
    }
}

// ---------------------------------------------------------------------------
// Conformance
// ---------------------------------------------------------------------------

/// `T ⊨ D` spelled out: the first violation in document order, unknown
/// labels first, with each node's children word run through the
/// production's Glushkov NFA.
fn oracle_check(dtd: &Dtd, tree: &Tree) -> Result<(), ConformanceError> {
    if tree.label(Tree::ROOT) != dtd.root() {
        return Err(ConformanceError::WrongRoot {
            found: tree.label(Tree::ROOT).clone(),
            expected: dtd.root().clone(),
        });
    }
    for node in tree.nodes() {
        let label = tree.label(node);
        if !dtd.contains(label) {
            return Err(ConformanceError::UnknownLabel {
                node,
                label: label.clone(),
            });
        }
    }
    for node in tree.nodes() {
        let label = tree.label(node);
        let expected = dtd.attrs(label);
        let found: Vec<Name> = tree.attrs(node).iter().map(|(a, _)| a.clone()).collect();
        if found != expected {
            return Err(ConformanceError::WrongAttributes {
                node,
                label: label.clone(),
                found,
                expected: expected.to_vec(),
            });
        }
        let word: Vec<Name> = tree
            .children(node)
            .iter()
            .map(|&c| tree.label(c).clone())
            .collect();
        let ok = match dtd.horizontal(label) {
            Some(nfa) => nfa.accepts(&word),
            None => word.is_empty(),
        };
        if !ok {
            return Err(ConformanceError::BadChildren {
                node,
                label: label.clone(),
                found: word,
            });
        }
    }
    Ok(())
}

/// Attribute normalisation spelled out: every node in document order is
/// rewritten into `A_D(ℓ)` order until the first unknown label or wrong
/// attribute set.
fn oracle_normalize(dtd: &Dtd, tree: &mut Tree) -> Result<(), ConformanceError> {
    let nodes: Vec<NodeId> = tree.nodes().collect();
    for node in nodes {
        let label = tree.label(node).clone();
        if !dtd.contains(&label) {
            return Err(ConformanceError::UnknownLabel { node, label });
        }
        let expected = dtd.attrs(&label);
        let current = tree.attrs(node).to_vec();
        let wrong = || ConformanceError::WrongAttributes {
            node,
            label: label.clone(),
            found: current.iter().map(|(a, _)| a.clone()).collect(),
            expected: expected.to_vec(),
        };
        if current.len() != expected.len() {
            return Err(wrong());
        }
        let mut reordered = Vec::with_capacity(expected.len());
        for want in expected {
            match current.iter().find(|(a, _)| a == want) {
                Some(pair) => reordered.push(pair.clone()),
                None => return Err(wrong()),
            }
        }
        tree.set_attrs(node, reordered);
    }
    Ok(())
}

/// One node's conformance spelled out.
fn oracle_node(dtd: &Dtd, tree: &Tree, n: NodeId) -> bool {
    let label = tree.label(n);
    if (n == Tree::ROOT && label != dtd.root()) || !dtd.contains(label) {
        return false;
    }
    let found: Vec<&Name> = tree.attrs(n).iter().map(|(a, _)| a).collect();
    if !found.iter().copied().eq(dtd.attrs(label)) {
        return false;
    }
    let word: Vec<Name> = tree
        .children(n)
        .iter()
        .map(|&c| tree.label(c).clone())
        .collect();
    dtd.horizontal(label)
        .map_or(word.is_empty(), |nfa| nfa.accepts(&word))
}

fn schemas(rng: &mut StdRng) -> Vec<Dtd> {
    let mut out = vec![
        gen::university_dtd(),
        gen::exchange_source_dtd(),
        xmlmap::dtd::parse(
            "root r
             r -> (a | b)*, c?
             a -> (a | b)*, c
             b -> c+
             c ->
             a @ x
             b @ y, z
             c @ w",
        )
        .unwrap(),
        // A production wider than one 64-bit subset word.
        xmlmap::dtd::parse(&format!(
            "root r\nr -> {}\nk @ v",
            vec!["k?"; 80].join(", ")
        ))
        .unwrap(),
    ];
    for _ in 0..12 {
        out.push(gen::random_nr_dtd(rng.gen_range(1..=3), 3, 0.6, rng));
    }
    out
}

/// Up to three label, attribute or child mutations of `t`.
fn mutate(t: &mut Tree, dtd: &Dtd, rng: &mut StdRng) {
    let alphabet: Vec<Name> = dtd.alphabet().cloned().collect();
    for _ in 0..rng.gen_range(0..=3) {
        let nodes: Vec<NodeId> = t.nodes().collect();
        let n = nodes[rng.gen_range(0..nodes.len())];
        match rng.gen_range(0..7) {
            // Relabel, within the alphabet or outside it.
            0 => {
                let label = if rng.gen_bool(0.8) {
                    alphabet[rng.gen_range(0..alphabet.len())].clone()
                } else {
                    Name::new("zz")
                };
                let mut fresh = Tree::with_root_attrs(label, t.attrs(n).iter().cloned());
                for &c in t.children(n) {
                    fresh.graft(Tree::ROOT, &t.subtree(c));
                }
                match t.parent(n) {
                    Some(p) => {
                        let pos = t.sibling_index(n);
                        t.detach(n);
                        t.graft_at(p, pos, &fresh);
                    }
                    None => *t = fresh,
                }
            }
            // Shuffle, drop, add or rename attributes.
            1 => {
                let mut attrs = t.attrs(n).to_vec();
                attrs.reverse();
                t.set_attrs(n, attrs);
            }
            2 => {
                let mut attrs = t.attrs(n).to_vec();
                if !attrs.is_empty() {
                    attrs.remove(rng.gen_range(0..attrs.len()));
                }
                t.set_attrs(n, attrs);
            }
            3 => {
                let mut attrs = t.attrs(n).to_vec();
                let name = if rng.gen_bool(0.5) { "extra" } else { "x" };
                attrs.insert(
                    rng.gen_range(0..=attrs.len()),
                    (Name::new(name), Value::int(1)),
                );
                t.set_attrs(n, attrs);
            }
            // Delete, duplicate or reorder children.
            4 => {
                if n != Tree::ROOT {
                    t.detach(n);
                }
            }
            5 => {
                if let Some(p) = t.parent(n) {
                    let copy = t.subtree(n);
                    let pos = rng.gen_range(0..=t.children(p).len());
                    t.graft_at(p, pos, &copy);
                }
            }
            _ => {
                let mut kids = t.children(n).to_vec();
                kids.reverse();
                t.set_children(n, kids);
            }
        }
    }
}

#[test]
fn kernel_matches_the_oracle_on_mutated_documents() {
    let mut rng = StdRng::seed_from_u64(0xc0_f0_12);
    let config = TreeGenConfig {
        max_nodes: 300,
        ..TreeGenConfig::default()
    };
    let (mut checked, mut failing) = (0, 0);
    for dtd in schemas(&mut rng) {
        for _ in 0..60 {
            let mut t = gen::random_tree(&dtd, &config, &mut rng);
            mutate(&mut t, &dtd, &mut rng);
            let verdict = oracle_check(&dtd, &t);
            assert_eq!(dtd.check(&t), verdict, "check on\n{t:?}\nagainst\n{dtd}");
            for n in t.nodes() {
                assert_eq!(
                    dtd.node_conforms(&t, n),
                    oracle_node(&dtd, &t, n),
                    "{n:?} of\n{t:?}"
                );
            }
            assert_eq!(t.nodes().all(|n| dtd.node_conforms(&t, n)), verdict.is_ok());
            let (mut fast, mut slow) = (t.clone(), t.clone());
            assert_eq!(
                dtd.normalize_attrs(&mut fast),
                oracle_normalize(&dtd, &mut slow),
                "normalize_attrs on\n{t:?}"
            );
            assert!(fast == slow, "normalised trees differ:\n{fast:?}\n{slow:?}");
            assert_eq!(dtd.check(&fast), oracle_check(&dtd, &slow));
            checked += 1;
            failing += usize::from(verdict.is_err());
        }
    }
    assert!(
        failing * 4 > checked && failing * 4 < checked * 3,
        "{failing} of {checked}"
    );
}
