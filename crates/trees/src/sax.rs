//! A pull-based (SAX-style) reader for the element+attribute XML fragment.
//!
//! [`SaxReader`] yields [`SaxEvent::Open`]/[`SaxEvent::Close`] events from
//! any [`std::io::Read`] source without ever materialising a [`crate::Tree`]:
//! the reader keeps a rolling byte buffer, one label per *open* element and
//! a capped name table, so memory is O(depth + chunk), not O(document). This
//! is the entry point for streaming DTD conformance (`xmlmap-dtd`) and
//! streaming pattern evaluation (`xmlmap-patterns`) over documents that don't
//! fit the arena.
//!
//! The dialect is exactly the one of [`crate::xml`] — in fact
//! [`crate::xml::parse`] is a thin arena builder driven by this reader, so
//! entity handling, attribute parsing, and diagnostics are shared, not
//! duplicated. In particular: elements and attributes only (text content is
//! rejected — the fragment has no text events), the five predefined entities,
//! attribute values decoded as UTF-8, comments and processing instructions
//! skipped, duplicate attributes rejected, and a single root element.
//!
//! Scanning works on runs, not bytes. Whitespace, comments and processing
//! instructions are skipped a buffered run at a time. A tag is parsed
//! straight off the buffered slice; when it runs past the buffered bytes,
//! the reader refills (at least doubling what it holds of the tag) and
//! parses the tag again, so every tag is parsed by one grammar whatever the
//! chunking. Line and column advance once per consumed run. Element and
//! attribute names are interned in a per-reader table of at most
//! [`INTERN_NAMES`] names, so a repeated name costs a reference-count bump.

use crate::name::{Name, NameTable};
use crate::value::Value;
use crate::xml::XmlError;
use std::io::Read;
use std::sync::Arc;

/// Size of one refill of the rolling input buffer.
const CHUNK: usize = 64 * 1024;

/// Most names one reader interns; later names are allocated per use.
pub const INTERN_NAMES: usize = 256;

/// Longest name (in bytes) the reader interns.
const INTERN_NAME_LEN: usize = 64;

/// One parsing event.
///
/// A self-closing tag `<a/>` yields an `Open` immediately followed by a
/// `Close`, so consumers see a uniform open/close discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaxEvent {
    /// A start tag: `<label a="1" b="2">` (or the front half of `<label/>`).
    Open {
        /// The element type.
        label: Name,
        /// Attributes in document order.
        attrs: Vec<(Name, Value)>,
    },
    /// An end tag: `</label>` (or the back half of `<label/>`).
    Close {
        /// The element type of the matching start tag.
        label: Name,
    },
}

/// A pull parser over any byte source.
///
/// Call [`SaxReader::next_event`] until it returns `Ok(None)` (clean end of
/// document) or an error. Events are well-nested by construction: the reader
/// itself rejects mismatched or missing close tags, text content, and
/// trailing content after the root element, with the same messages as
/// [`crate::xml::parse`].
pub struct SaxReader<R: Read> {
    src: R,
    /// Input storage; `buf[pos..end]` are the buffered, unconsumed bytes.
    buf: Vec<u8>,
    /// Index of the next unconsumed byte in `buf`.
    pos: usize,
    /// End of the buffered bytes in `buf`.
    end: usize,
    /// Bytes discarded before `buf[0]` (for absolute offsets).
    consumed: usize,
    eof: bool,
    line: u32,
    col: u32,
    /// Labels of currently open elements; `len()` is the depth.
    stack: Vec<Name>,
    /// A self-closing tag was opened; the next event closes `stack.last()`.
    pending_close: bool,
    /// The single root element has been closed.
    root_closed: bool,
    /// High-water mark of `stack.len()`.
    peak_depth: usize,
    scratch: Scratch,
}

/// Reader-owned buffers a tag parse reuses.
#[derive(Default)]
struct Scratch {
    /// Interned element and attribute names.
    names: NameTable,
    /// Decoding buffer for attribute values that contain entities.
    text: String,
    /// The attributes of the tag being parsed.
    attrs: Vec<(Name, Value)>,
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')
}

/// Why a parse off the buffered slice stopped short.
enum Stop {
    /// The construct runs past the buffered bytes; refill and parse again.
    More,
    /// A syntax error this many bytes past the construct's start.
    Bad(usize, String),
}

/// A position in the buffered slice. Reading past its end yields
/// [`Stop::More`], or end of input once the source is exhausted.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    eof: bool,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Result<Option<u8>, Stop> {
        match self.bytes.get(self.at) {
            Some(&b) => Ok(Some(b)),
            None if self.eof => Ok(None),
            None => Err(Stop::More),
        }
    }

    fn bad<T>(&self, message: impl Into<String>) -> Result<T, Stop> {
        Err(Stop::Bad(self.at, message.into()))
    }

    /// Advances past the longest run of bytes satisfying `keep`.
    fn run(&mut self, keep: impl Fn(u8) -> bool) -> Result<&'a [u8], Stop> {
        let start = self.at;
        let rest = &self.bytes[start..];
        match rest.iter().position(|&b| !keep(b)) {
            Some(k) => self.at += k,
            None if self.eof => self.at = self.bytes.len(),
            None => return Err(Stop::More),
        }
        Ok(&self.bytes[start..self.at])
    }

    fn skip_ws(&mut self) -> Result<(), Stop> {
        self.run(is_ws).map(|_| ())
    }

    fn name(&mut self) -> Result<&'a [u8], Stop> {
        let name = self.run(is_name_byte)?;
        if name.is_empty() {
            return self.bad("expected a name");
        }
        Ok(name)
    }

    fn eat(&mut self, b: u8) -> Result<(), Stop> {
        if self.peek()? == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            self.bad(format!("expected {:?}", b as char))
        }
    }

    /// `<label attr="v" ...>` or `<label .../>`, from its `<`; returns the
    /// label and whether the tag closes itself, and leaves the attributes
    /// in `scratch.attrs`.
    fn open_tag(&mut self, scratch: &mut Scratch) -> Result<(Name, bool), Stop> {
        self.at += 1; // '<'
        let label = intern(&mut scratch.names, self.name()?);
        let attrs = &mut scratch.attrs;
        attrs.clear();
        loop {
            self.skip_ws()?;
            match self.peek()? {
                Some(b'/') | Some(b'>') => break,
                Some(_) => {
                    let attr = self.name()?;
                    self.skip_ws()?;
                    self.eat(b'=')?;
                    self.skip_ws()?;
                    let value = self.quoted_value(&mut scratch.text)?;
                    if attrs.iter().any(|(a, _)| a.as_str().as_bytes() == attr) {
                        let attr = std::str::from_utf8(attr).expect("names are ASCII");
                        return self.bad(format!("duplicate attribute {attr:?}"));
                    }
                    attrs.push((intern(&mut scratch.names, attr), value));
                }
                None => return self.bad("unterminated start tag"),
            }
        }
        let self_closing = self.peek()? == Some(b'/');
        if self_closing {
            self.at += 1;
        }
        self.eat(b'>')?;
        Ok((label, self_closing))
    }

    /// `</label>`, from its `<`, closing the element labelled `open`.
    fn close_tag(&mut self, open: &Name) -> Result<(), Stop> {
        self.at += 2; // "</"
        if self.name()? != open.as_str().as_bytes() {
            return self.bad(format!("mismatched close tag: expected </{open}>"));
        }
        self.skip_ws()?;
        self.eat(b'>')
    }

    /// A quoted attribute value, decoded: runs between entities are
    /// checked as UTF-8 and copied once. A value without entities becomes
    /// its `Arc<str>` straight from the input bytes.
    fn quoted_value(&mut self, scratch: &mut String) -> Result<Value, Stop> {
        let quote = match self.peek()? {
            Some(q @ (b'"' | b'\'')) => q,
            Some(_) => {
                self.at += 1;
                return self.bad("expected a quoted attribute value");
            }
            None => return self.bad("expected a quoted attribute value"),
        };
        self.at += 1;
        let mut decoded = false;
        loop {
            let rest = &self.bytes[self.at..];
            let Some(k) = rest.iter().position(|&b| b == quote || b == b'&') else {
                if !self.eof {
                    return Err(Stop::More);
                }
                self.at = self.bytes.len();
                return self.bad("unterminated attribute value");
            };
            let text = match std::str::from_utf8(&rest[..k]) {
                Ok(text) => text,
                Err(e) => {
                    self.at += e.valid_up_to();
                    return self.bad("invalid UTF-8 in attribute value");
                }
            };
            self.at += k + 1;
            if rest[k] == quote {
                return Ok(Value::Str(if decoded {
                    scratch.push_str(text);
                    Arc::from(scratch.as_str())
                } else {
                    Arc::from(text)
                }));
            }
            if !decoded {
                scratch.clear();
                decoded = true;
            }
            scratch.push_str(text);
            scratch.push(self.entity()?);
        }
    }

    /// The rest of an entity reference after its `&`.
    fn entity(&mut self) -> Result<char, Stop> {
        let start = self.at;
        loop {
            match self.peek()? {
                None => return self.bad("unterminated entity"),
                Some(b';') => {
                    let name = &self.bytes[start..self.at];
                    self.at += 1;
                    return match name {
                        b"lt" => Ok('<'),
                        b"gt" => Ok('>'),
                        b"amp" => Ok('&'),
                        b"quot" => Ok('"'),
                        b"apos" => Ok('\''),
                        _ => self.bad("unknown entity"),
                    };
                }
                Some(_) if self.at - start == 4 => return self.bad("unknown entity"),
                Some(_) => self.at += 1,
            }
        }
    }
}

/// The name spelled `bytes`, shared with earlier occurrences while the
/// table has room.
fn intern(names: &mut NameTable, bytes: &[u8]) -> Name {
    if let Some(id) = names.find(bytes) {
        return names.name(id).clone();
    }
    let name = Name::new(std::str::from_utf8(bytes).expect("names are ASCII"));
    if names.len() < INTERN_NAMES && bytes.len() <= INTERN_NAME_LEN {
        names.insert(name.clone());
    }
    name
}

impl<R: Read> SaxReader<R> {
    /// Wraps a byte source. Reading starts at offset 0, line 1, column 1.
    pub fn new(src: R) -> Self {
        SaxReader {
            src,
            buf: Vec::new(),
            pos: 0,
            end: 0,
            consumed: 0,
            eof: false,
            line: 1,
            col: 1,
            stack: Vec::new(),
            pending_close: false,
            root_closed: false,
            peak_depth: 0,
            scratch: Scratch::default(),
        }
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Deepest nesting seen so far.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Absolute byte offset of the next unconsumed byte.
    pub fn offset(&self) -> usize {
        self.consumed + self.pos
    }

    /// Current 1-based line and column.
    pub fn position(&self) -> (u32, u32) {
        (self.line, self.col)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, XmlError> {
        Err(XmlError {
            offset: self.offset(),
            line: self.line,
            col: self.col,
            message: message.into(),
        })
    }

    /// Consumes the next `n` buffered bytes, moving line and column past
    /// them in one step.
    fn advance(&mut self, n: usize) {
        let run = &self.buf[self.pos..self.pos + n];
        match run.iter().rposition(|&b| b == b'\n') {
            Some(last) => {
                let lines = run[..=last].iter().filter(|&&b| b == b'\n').count();
                self.line = self.line.saturating_add(lines as u32);
                self.col = (n - last) as u32;
            }
            None => self.col = self.col.saturating_add(n as u32),
        }
        self.pos += n;
    }

    /// The buffered, unconsumed bytes.
    fn rest(&self) -> &[u8] {
        &self.buf[self.pos..self.end]
    }

    /// Appends input after the unconsumed bytes, moving them to the front
    /// of the buffer first, until at least `at_least` new bytes have
    /// arrived or the source is exhausted. Returns whether any byte
    /// arrived. The buffer grows only to hold a tag longer than a chunk.
    fn fill(&mut self, at_least: usize) -> Result<bool, XmlError> {
        if self.eof {
            return Ok(false);
        }
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.consumed += self.pos;
            self.end -= self.pos;
            self.pos = 0;
        }
        let room = self.end + at_least.max(CHUNK);
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        let start = self.end;
        while self.end - start < at_least {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(k) => self.end += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return self.err(format!("I/O error: {e}")),
            }
        }
        Ok(self.end > start)
    }

    /// Makes `n` bytes available at `pos`, unless the source ends first.
    fn lookahead(&mut self, n: usize) -> Result<(), XmlError> {
        while self.end - self.pos < n && self.fill(1)? {}
        Ok(())
    }

    /// Skips whitespace, comments, and processing instructions.
    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            loop {
                let rest = self.rest();
                let k = rest.iter().position(|&b| !is_ws(b)).unwrap_or(rest.len());
                self.advance(k);
                if self.pos < self.end || !self.fill(1)? {
                    break;
                }
            }
            self.lookahead(4)?;
            let rest = self.rest();
            if rest.starts_with(b"<?") {
                self.advance(1); // '<'; "?>" may overlap the '?' that follows
                self.skip_past(b"?>", "unterminated processing instruction")?;
            } else if rest.starts_with(b"<!--") {
                self.advance(2); // "<!"; "-->" may overlap the "--" that follows
                self.skip_past(b"-->", "unterminated comment")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Consumes input up to and including the first `end`.
    fn skip_past(&mut self, end: &[u8], unterminated: &str) -> Result<(), XmlError> {
        loop {
            let rest = self.rest();
            if let Some(i) = rest.windows(end.len()).position(|w| w == end) {
                self.advance(i + end.len());
                return Ok(());
            }
            // Keep what may be the front of `end` for the next refill.
            let keep = (end.len() - 1).min(rest.len());
            self.advance(rest.len() - keep);
            if !self.fill(1)? {
                self.advance(self.end - self.pos);
                return self.err(unterminated);
            }
        }
    }

    /// Parses one tag off the buffered slice, refilling and parsing again
    /// while the tag runs past the buffered bytes.
    fn tag<T>(
        &mut self,
        mut parse: impl FnMut(&mut Cursor<'_>, &mut Scratch) -> Result<T, Stop>,
    ) -> Result<T, XmlError> {
        loop {
            let mut cur = Cursor {
                bytes: &self.buf[self.pos..self.end],
                at: 0,
                eof: self.eof,
            };
            match parse(&mut cur, &mut self.scratch) {
                Ok(v) => {
                    let n = cur.at;
                    self.advance(n);
                    return Ok(v);
                }
                Err(Stop::More) => {
                    // At least double the buffered part of the tag, so a
                    // tag longer than a chunk is parsed O(1) times.
                    let held = self.end - self.pos;
                    self.fill(held.max(1))?;
                }
                Err(Stop::Bad(at, message)) => {
                    self.advance(at);
                    return self.err(message);
                }
            }
        }
    }

    /// Pulls the next event, or `Ok(None)` at the clean end of the document.
    pub fn next_event(&mut self) -> Result<Option<SaxEvent>, XmlError> {
        if self.pending_close {
            self.pending_close = false;
            let label = self.stack.pop().expect("pending close on empty stack");
            if self.stack.is_empty() {
                self.root_closed = true;
            }
            return Ok(Some(SaxEvent::Close { label }));
        }
        // `skip_misc` leaves at least four bytes buffered, or the end.
        self.skip_misc()?;
        match self.rest().first().copied() {
            None => {
                if let Some(open) = self.stack.last() {
                    return self.err(format!("missing close tag </{open}>"));
                }
                if self.root_closed {
                    Ok(None)
                } else {
                    self.err("expected '<'")
                }
            }
            Some(b'<') => {
                if self.stack.is_empty() && self.root_closed {
                    return self.err("trailing content after the root element");
                }
                if self.rest().get(1) == Some(&b'/') {
                    if let Some(open) = self.stack.last().cloned() {
                        self.tag(|cur, _| cur.close_tag(&open))?;
                        self.stack.pop();
                        if self.stack.is_empty() {
                            self.root_closed = true;
                        }
                        return Ok(Some(SaxEvent::Close { label: open }));
                    }
                }
                let (label, self_closing) = self.tag(|cur, scratch| cur.open_tag(scratch))?;
                // Collected from a drain, the event's list has exactly
                // the capacity it needs (none for no attributes).
                let attrs = self.scratch.attrs.drain(..).collect();
                self.stack.push(label.clone());
                self.peak_depth = self.peak_depth.max(self.stack.len());
                self.pending_close = self_closing;
                Ok(Some(SaxEvent::Open { label, attrs }))
            }
            Some(_) => {
                if !self.stack.is_empty() {
                    self.err("text content is not supported in this fragment")
                } else if self.root_closed {
                    self.err("trailing content after the root element")
                } else {
                    self.err("expected '<'")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<SaxEvent>, XmlError> {
        let mut r = SaxReader::new(input.as_bytes());
        let mut out = Vec::new();
        while let Some(ev) = r.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    fn open(label: &str, attrs: &[(&str, &str)]) -> SaxEvent {
        SaxEvent::Open {
            label: Name::new(label),
            attrs: attrs
                .iter()
                .map(|(a, v)| (Name::new(*a), Value::str(*v)))
                .collect(),
        }
    }

    fn close(label: &str) -> SaxEvent {
        SaxEvent::Close {
            label: Name::new(label),
        }
    }

    #[test]
    fn event_sequence() {
        let evs = events(r#"<r><a x="1"/><b></b></r>"#).unwrap();
        assert_eq!(
            evs,
            vec![
                open("r", &[]),
                open("a", &[("x", "1")]),
                close("a"),
                open("b", &[]),
                close("b"),
                close("r"),
            ]
        );
    }

    #[test]
    fn depth_and_peak_are_tracked() {
        let mut r = SaxReader::new("<r><a><b/></a><c/></r>".as_bytes());
        let mut max_seen = 0;
        while let Some(_ev) = r.next_event().unwrap() {
            max_seen = max_seen.max(r.depth());
        }
        assert_eq!(max_seen, 3);
        assert_eq!(r.peak_depth(), 3);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn line_and_column_in_errors() {
        let e = events("<r>\n  <a>text</a>\n</r>").unwrap_err();
        assert_eq!((e.line, e.col), (2, 6));
        assert!(e.message.contains("text content"));
        assert_eq!(e.offset, 9);
    }

    #[test]
    fn small_chunks_see_identical_events() {
        // A reader that returns one byte at a time exercises every
        // refill/compaction boundary.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let doc = r#"<?xml version="1.0"?><!-- c --><r><a v="x &lt; y"/></r>"#;
        let mut slow = SaxReader::new(OneByte(doc.as_bytes()));
        let mut fast = SaxReader::new(doc.as_bytes());
        loop {
            let (a, b) = (slow.next_event().unwrap(), fast.next_event().unwrap());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn non_ascii_values_decode_as_utf8() {
        let evs = events("<a v=\"caf\u{e9} &amp; \u{1f600}\" w='\u{fc}'/>").unwrap();
        assert_eq!(
            evs,
            vec![
                open("a", &[("v", "caf\u{e9} & \u{1f600}"), ("w", "\u{fc}")]),
                close("a")
            ]
        );
    }

    #[test]
    fn invalid_utf8_is_located() {
        let doc: &[u8] = b"<r>\n  <a v=\"ok\xff\"/></r>";
        let mut r = SaxReader::new(doc);
        assert!(r.next_event().unwrap().is_some());
        let e = r.next_event().unwrap_err();
        assert_eq!(e.message, "invalid UTF-8 in attribute value");
        assert_eq!((e.offset, e.line, e.col), (14, 2, 11));
    }

    #[test]
    fn repeated_names_share_one_allocation() {
        let evs = events(r#"<r><pad a="1"/><pad a="2"/></r>"#).unwrap();
        let (
            SaxEvent::Open {
                label: l1,
                attrs: a1,
            },
            SaxEvent::Open {
                label: l2,
                attrs: a2,
            },
        ) = (&evs[1], &evs[3])
        else {
            panic!("{evs:?}")
        };
        assert!(std::ptr::eq(l1.as_str(), l2.as_str()));
        assert!(std::ptr::eq(a1[0].0.as_str(), a2[0].0.as_str()));
    }

    #[test]
    fn attribute_lists_are_allocated_exactly() {
        for ev in events(r#"<r><a x="1"/><b x="1" y="2" z="3" w="4" v="5"/></r>"#).unwrap() {
            if let SaxEvent::Open { attrs, .. } = ev {
                assert_eq!(attrs.capacity(), attrs.len());
            }
        }
    }

    #[test]
    fn name_table_is_capped() {
        let body: String = (0..4 * INTERN_NAMES)
            .map(|i| format!("<e{i} a{i}=\"v\"/>"))
            .collect();
        let doc = format!("<r>{body}</r>");
        let mut r = SaxReader::new(doc.as_bytes());
        let mut n = 0;
        while r.next_event().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 2 * (4 * INTERN_NAMES + 1));
        assert_eq!(r.scratch.names.len(), INTERN_NAMES);
    }

    #[test]
    fn tags_longer_than_a_chunk() {
        let long = "x".repeat(3 * CHUNK + 17);
        let doc = format!("<r><a v=\"{long}\"/><!-- {long} --><b/></r>");
        let evs = events(&doc).unwrap();
        assert_eq!(evs.len(), 6);
        assert_eq!(evs[1], open("a", &[("v", long.as_str())]));
    }

    #[test]
    fn rejects_malformed_input() {
        for (doc, needle) in [
            ("<a><b></a></a>", "mismatched"),
            ("<a>", "missing close tag"),
            ("<a/><b/>", "trailing content"),
            ("<a/>junk", "trailing content"),
            (r#"<a x="1" x="2"/>"#, "duplicate attribute"),
            ("", "expected '<'"),
            (r#"<a v="&nope;"/>"#, "unknown entity"),
        ] {
            let e = events(doc).unwrap_err();
            assert!(e.message.contains(needle), "{doc}: {e}");
        }
    }
}
