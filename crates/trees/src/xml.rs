//! A small XML reader/writer for the element+attribute fragment.
//!
//! Documents in schema-mapping problems consist of elements with attributes
//! only — no mixed content, namespaces or entities beyond the five
//! predefined ones. This module parses and prints exactly that fragment, so
//! examples can work with ordinary-looking XML without an external
//! dependency.
//!
//! Tokenisation lives in [`crate::sax`]; [`parse`] here is an arena builder
//! driving that pull reader, so the in-memory and streaming paths share
//! entity/attribute handling and emit identical diagnostics.

use crate::sax::{SaxEvent, SaxReader};
use crate::tree::{NodeId, Tree};
use std::fmt::Write as _;

/// Errors raised while parsing XML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// 1-based line of the error.
    pub line: u32,
    /// 1-based column (in bytes) of the error.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XML parse error at byte {} (line {}, column {}): {}",
            self.offset, self.line, self.col, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML document (element+attribute fragment) into a [`Tree`].
pub fn parse(input: &str) -> Result<Tree, XmlError> {
    let mut reader = SaxReader::new(input.as_bytes());
    let mut tree: Option<Tree> = None;
    let mut stack: Vec<NodeId> = Vec::new();
    while let Some(event) = reader.next_event()? {
        match event {
            SaxEvent::Open { label, attrs } => {
                let node = match (tree.as_mut(), stack.last()) {
                    (None, _) => {
                        let mut t = Tree::with_root_attrs(label, attrs);
                        t.reserve(max_elements(input.as_bytes()).saturating_sub(1));
                        tree = Some(t);
                        Tree::ROOT
                    }
                    (Some(t), Some(&parent)) => t.add_child(parent, label, attrs),
                    // The reader rejects a second root as trailing content.
                    (Some(_), None) => unreachable!("reader enforces a single root"),
                };
                stack.push(node);
            }
            SaxEvent::Close { .. } => {
                stack.pop();
            }
        }
    }
    Ok(tree.expect("reader yields at least the root element"))
}

/// An upper bound on the elements of `input`: the `<`s not followed by
/// `/`, `!` or `?` (a `<` inside an attribute value or a comment counts
/// too), and at most one per four bytes, the length of `<a/>`. [`parse`]
/// sizes the arena with it, allocating the node table once instead of
/// growing it by doubling, which leaves large free blocks behind in the
/// allocator after the tree is dropped.
fn max_elements(input: &[u8]) -> usize {
    let starts = input
        .windows(2)
        .filter(|w| w[0] == b'<' && !matches!(w[1], b'/' | b'!' | b'?'))
        .count();
    starts.min(input.len() / 4)
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

/// Serialises a [`Tree`] as indented XML.
///
/// Iterative (an explicit stack of pending start and end tags), so deep
/// chains cannot overflow the stack.
pub fn to_string(tree: &Tree) -> String {
    enum Tag {
        Start(NodeId, usize),
        End(NodeId, usize),
    }
    let mut out = String::new();
    let mut pending = vec![Tag::Start(Tree::ROOT, 0)];
    while let Some(tag) = pending.pop() {
        match tag {
            Tag::Start(n, depth) => {
                let _ = write!(out, "{:indent$}<{}", "", tree.label(n), indent = depth * 2);
                for (a, v) in tree.attrs(n) {
                    let _ = write!(out, " {a}=\"");
                    escape(&v.to_string(), &mut out);
                    out.push('"');
                }
                if tree.children(n).is_empty() {
                    out.push_str("/>\n");
                } else {
                    out.push_str(">\n");
                    pending.push(Tag::End(n, depth));
                    pending.extend(
                        tree.children(n)
                            .iter()
                            .rev()
                            .map(|&c| Tag::Start(c, depth + 1)),
                    );
                }
            }
            Tag::End(n, depth) => {
                let _ = writeln!(
                    out,
                    "{:indent$}</{}>",
                    "",
                    tree.label(n),
                    indent = depth * 2
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    const DOC: &str = r#"<?xml version="1.0"?>
<!-- the running example of the paper -->
<r>
  <prof name="Ada">
    <teach>
      <year y="2008">
        <course cno="cs1"/>
        <course cno="cs2"/>
      </year>
    </teach>
    <supervise>
      <student sid="Sue"/>
    </supervise>
  </prof>
</r>"#;

    #[test]
    fn parse_round_trip() {
        let t = parse(DOC).unwrap();
        assert_eq!(t.size(), 8);
        let printed = to_string(&t);
        let t2 = parse(&printed).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parses_attributes_in_order() {
        let t = parse(r#"<c cno="cs1" year="2008"/>"#).unwrap();
        let names: Vec<&str> = t
            .attrs(Tree::ROOT)
            .iter()
            .map(|(a, _)| a.as_str())
            .collect();
        assert_eq!(names, ["cno", "year"]);
    }

    #[test]
    fn entities_round_trip() {
        let t = parse(r#"<a v="x &lt; y &amp; &quot;z&quot;"/>"#).unwrap();
        assert_eq!(t.attr(Tree::ROOT, "v"), Some(&Value::str("x < y & \"z\"")));
        let t2 = parse(&to_string(&t)).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn non_ascii_values_round_trip() {
        let t = parse("<a v=\"café\" w='Grüße &amp; 東京'/>").unwrap();
        assert_eq!(t.attr(Tree::ROOT, "v"), Some(&Value::str("café")));
        assert_eq!(t.attr(Tree::ROOT, "w"), Some(&Value::str("Grüße & 東京")));
        let printed = to_string(&t);
        assert_eq!(printed, "<a v=\"café\" w=\"Grüße &amp; 東京\"/>\n");
        assert_eq!(parse(&printed).unwrap(), t);
    }

    #[test]
    fn single_quotes_accepted() {
        let t = parse("<a v='hi'/>").unwrap();
        assert_eq!(t.attr(Tree::ROOT, "v"), Some(&Value::str("hi")));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse("<a><b></a></a>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn rejects_text_content() {
        assert!(parse("<a>hello</a>").is_err());
    }

    #[test]
    fn rejects_duplicate_attributes() {
        assert!(parse(r#"<a x="1" x="2"/>"#).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse("<a").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse(r#"<a v="x"#).is_err());
    }

    #[test]
    fn deep_chain_on_a_small_stack() {
        // A chain far deeper than a 256 KiB stack holds frames of a
        // per-level recursion: the serializer and the Debug listing must
        // not recurse. (The indented output grows with depth², so the
        // chain stays at a depth whose output is tens of MB.)
        const DEPTH: usize = 4_000;
        let (xml, debug) = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut t = Tree::new("r");
                let mut at = Tree::ROOT;
                for i in 0..DEPTH {
                    at = t.add_child(at, "a", [("v", Value::int(i as i64))]);
                }
                (to_string(&t), format!("{t:?}"))
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(xml.starts_with("<r>\n  <a v=\"0\">\n    <a v=\"1\">\n"));
        assert!(xml.ends_with("  </a>\n</r>\n"));
        assert_eq!(xml.lines().count(), 2 * DEPTH + 1);
        assert_eq!(debug.lines().count(), DEPTH + 1);
    }

    #[test]
    fn comments_between_children() {
        let t = parse("<a><!-- c --><b/><!-- d --></a>").unwrap();
        assert_eq!(t.size(), 2);
    }
}
