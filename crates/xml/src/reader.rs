//! Streaming pull parser.

use crate::entities::resolve_reference;
use crate::error::{XmlError, XmlErrorKind};
use crate::event::{AttributeRef, XmlEvent};
use crate::scanner::Scanner;
use std::borrow::Cow;

/// Elements open at once, the root counted, past which a document is
/// refused with [`XmlErrorKind::TooDeep`]: every tree built from the reader
/// stays shallow enough to drop, walk and write by recursion on a worker
/// thread's stack. `sc-json` draws the same line.
pub const MAX_DEPTH: usize = 512;

fn is_name_start(c: char) -> bool {
    if c.is_ascii() {
        c.is_ascii_alphabetic() || c == '_' || c == ':'
    } else {
        c.is_alphabetic()
    }
}

fn is_name_char(c: char) -> bool {
    if c.is_ascii() {
        c.is_ascii_alphanumeric() || matches!(c, '_' | ':' | '-' | '.')
    } else {
        c.is_alphabetic()
    }
}

/// A pull parser over an in-memory XML document.
///
/// Call [`XmlReader::next_event`] until it returns [`XmlEvent::Eof`]. Events
/// borrow from the input: names, CDATA and comments are slices of it, and
/// text and attribute values are too unless they held an entity or
/// character reference. Text is taken as whole runs up to the next `<` or
/// `&`, and error positions (line and column) are computed from the byte
/// offset only when an error is raised. The reader enforces
/// well-formedness: tags must balance, attributes must be unique per
/// element, and exactly one root element must exist; and it refuses
/// elements nested deeper than [`MAX_DEPTH`].
///
/// ```
/// use sc_xml::{XmlReader, XmlEvent};
///
/// let mut r = XmlReader::new("<a x=\"1\"><b/>hi</a>");
/// let mut names = Vec::new();
/// loop {
///     match r.next_event().unwrap() {
///         XmlEvent::StartElement { name, .. } => names.push(name),
///         XmlEvent::Eof => break,
///         _ => {}
///     }
/// }
/// assert_eq!(names, ["a", "b"]);
/// ```
#[derive(Debug)]
pub struct XmlReader<'a> {
    scanner: Scanner<'a>,
    /// Open-element stack, for tag balancing.
    stack: Vec<&'a str>,
    /// Pending synthetic EndElement after a self-closing tag.
    pending_end: Option<&'a str>,
    /// Whether the root element has been seen (and closed).
    seen_root: bool,
    finished: bool,
}

impl<'a> XmlReader<'a> {
    /// Creates a reader over `input`. A leading UTF-8 BOM (common in
    /// Windows-produced feeds) is skipped.
    pub fn new(input: &'a str) -> Self {
        let input = input.strip_prefix('\u{FEFF}').unwrap_or(input);
        Self {
            scanner: Scanner::new(input),
            stack: Vec::new(),
            pending_end: None,
            seen_root: false,
            finished: false,
        }
    }

    /// Current depth of open elements (0 outside the root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Produces the next event.
    pub fn next_event(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let mut attributes = Vec::new();
        let mut event = self.next_event_with(&mut attributes)?;
        if let XmlEvent::StartElement {
            attributes: own, ..
        } = &mut event
        {
            *own = attributes;
        }
        Ok(event)
    }

    /// [`XmlReader::next_event`], except that a start tag's attributes are
    /// appended to `attributes` and the event's own list is left empty: a
    /// caller that keeps every element's attributes in one list allocates
    /// nothing per tag.
    pub fn next_event_with(
        &mut self,
        attributes: &mut Vec<AttributeRef<'a>>,
    ) -> Result<XmlEvent<'a>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            return Ok(XmlEvent::EndElement { name });
        }
        if self.finished {
            return Ok(XmlEvent::Eof);
        }
        // Outside any element we skip whitespace; inside, it is text.
        if self.stack.is_empty() {
            self.scanner.skip_whitespace();
        }
        match self.scanner.peek_byte() {
            None => {
                if let Some(open) = self.stack.last() {
                    return Err(self
                        .scanner
                        .error(XmlErrorKind::BadDocumentStructure(format!(
                            "input ended with <{open}> still open"
                        ))));
                }
                if !self.seen_root {
                    return Err(self.scanner.error(XmlErrorKind::BadDocumentStructure(
                        "document has no root element".into(),
                    )));
                }
                self.finished = true;
                Ok(XmlEvent::Eof)
            }
            Some(b'<') => self.parse_markup(attributes),
            Some(_) => {
                let text = self.parse_text()?;
                if self.stack.is_empty() {
                    // Non-whitespace text outside the root is not
                    // well-formed; whitespace was skipped above, so anything
                    // here is an error.
                    return Err(self.scanner.error(XmlErrorKind::BadDocumentStructure(
                        "character data outside the root element".into(),
                    )));
                }
                Ok(XmlEvent::Text(text))
            }
        }
    }

    /// Character data up to the next `<`, copied only when a reference has
    /// to be decoded.
    fn parse_text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let mut text = Cow::Borrowed(self.scanner.take_until_any(b"<&"));
        while self.scanner.eat("&") {
            let out = text.to_mut();
            resolve_reference(&mut self.scanner, out)?;
            out.push_str(self.scanner.take_until_any(b"<&"));
        }
        Ok(text)
    }

    fn parse_markup(
        &mut self,
        attributes: &mut Vec<AttributeRef<'a>>,
    ) -> Result<XmlEvent<'a>, XmlError> {
        match self.scanner.rest().as_bytes().get(1) {
            Some(b'/') => {
                self.scanner.expect("</")?;
                return self.parse_end_tag();
            }
            Some(b'?') => {
                self.scanner.expect("<?")?;
                return self.parse_pi();
            }
            Some(b'!') => {
                if self.scanner.eat("<!--") {
                    let body = self.take_through("-->")?;
                    return Ok(XmlEvent::Comment(body));
                }
                if self.scanner.eat("<![CDATA[") {
                    if self.stack.is_empty() {
                        return Err(self.scanner.error(XmlErrorKind::BadDocumentStructure(
                            "CDATA outside the root element".into(),
                        )));
                    }
                    let body = self.take_through("]]>")?;
                    return Ok(XmlEvent::CData(body));
                }
                if self.scanner.starts_with("<!DOCTYPE") || self.scanner.starts_with("<!doctype") {
                    self.skip_doctype()?;
                    return self.next_event_with(attributes);
                }
            }
            _ => {}
        }
        self.scanner.expect("<")?;
        self.parse_start_tag(attributes)
    }

    /// The input up to `terminator`, consuming the terminator too.
    fn take_through(&mut self, terminator: &str) -> Result<&'a str, XmlError> {
        let body = self
            .scanner
            .take_until(terminator)
            .ok_or_else(|| self.scanner.error(XmlErrorKind::UnexpectedEof))?;
        self.scanner.expect(terminator)?;
        Ok(body)
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // Consume "<!DOCTYPE ... >" honouring one level of [] internal subset.
        self.scanner.expect("<!")?;
        let mut depth = 1usize;
        while depth > 0 {
            self.scanner.take_until_any(b"<>[");
            match self.scanner.bump() {
                Some('<') => depth += 1,
                Some('>') => depth -= 1,
                Some(_) => {
                    // Internal subset: skip past the matching ']'.
                    self.scanner.take_until_any(b"]");
                    self.scanner.bump();
                }
                None => return Err(self.scanner.error(XmlErrorKind::UnexpectedEof)),
            }
        }
        Ok(())
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        match self.scanner.peek() {
            Some(c) if is_name_start(c) => {}
            _ => return Err(self.scanner.error(XmlErrorKind::BadName)),
        }
        // Feed names are ASCII: take those bytes without decoding, and
        // decode only a name that goes on past them.
        let rest = self.scanner.rest();
        let ascii = rest
            .bytes()
            .take_while(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.'))
            .count();
        if rest.as_bytes().get(ascii).is_some_and(|b| !b.is_ascii()) {
            return Ok(self.scanner.take_while(is_name_char));
        }
        Ok(self.scanner.take(ascii))
    }

    fn parse_pi(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let target = self.parse_name()?;
        let data = self.take_through("?>")?.trim();
        if target.eq_ignore_ascii_case("xml") {
            let attr = |key: &str| pseudo_attrs(data).find(|(k, _)| *k == key).map(|(_, v)| v);
            return Ok(XmlEvent::Declaration {
                version: attr("version").unwrap_or("1.0"),
                encoding: attr("encoding"),
            });
        }
        Ok(XmlEvent::ProcessingInstruction { target, data })
    }

    /// A start tag after its `<`; its attributes go onto `attributes`.
    fn parse_start_tag(
        &mut self,
        attributes: &mut Vec<AttributeRef<'a>>,
    ) -> Result<XmlEvent<'a>, XmlError> {
        if self.seen_root && self.stack.is_empty() {
            return Err(self.scanner.error(XmlErrorKind::BadDocumentStructure(
                "multiple root elements".into(),
            )));
        }
        if self.stack.len() == MAX_DEPTH {
            return Err(self.scanner.error(XmlErrorKind::TooDeep(MAX_DEPTH)));
        }
        let name = self.parse_name()?;
        let first = attributes.len();
        loop {
            self.scanner.skip_whitespace();
            if self.scanner.eat("/>") {
                self.pending_end = Some(name);
                if self.stack.is_empty() {
                    self.seen_root = true;
                }
                return Ok(XmlEvent::StartElement {
                    name,
                    attributes: Vec::new(),
                    self_closing: true,
                });
            }
            if self.scanner.eat(">") {
                self.stack.push(name);
                return Ok(XmlEvent::StartElement {
                    name,
                    attributes: Vec::new(),
                    self_closing: false,
                });
            }
            let attr_name = self.parse_name()?;
            if attributes[first..].iter().any(|a| a.name == attr_name) {
                return Err(self
                    .scanner
                    .error(XmlErrorKind::DuplicateAttribute(attr_name.to_string())));
            }
            self.scanner.skip_whitespace();
            self.scanner.expect("=")?;
            self.scanner.skip_whitespace();
            let quote = match self.scanner.bump() {
                Some('"') => b'"',
                Some('\'') => b'\'',
                _ => return Err(self.scanner.error_here()),
            };
            let value = self.parse_attr_value(quote)?;
            attributes.push(AttributeRef {
                name: attr_name,
                value,
            });
        }
    }

    /// An attribute value after its opening `quote`, consuming the closing
    /// one; copied only when a reference has to be decoded.
    fn parse_attr_value(&mut self, quote: u8) -> Result<Cow<'a, str>, XmlError> {
        let stops: &[u8] = if quote == b'"' { b"\"<&" } else { b"'<&" };
        let mut value = Cow::Borrowed(self.scanner.take_until_any(stops));
        loop {
            match self.scanner.peek_byte() {
                None => return Err(self.scanner.error(XmlErrorKind::UnexpectedEof)),
                Some(b'<') => return Err(self.scanner.error_here()),
                Some(b'&') => {
                    self.scanner.bump();
                    let out = value.to_mut();
                    resolve_reference(&mut self.scanner, out)?;
                    out.push_str(self.scanner.take_until_any(stops));
                }
                Some(_) => {
                    self.scanner.bump();
                    return Ok(value);
                }
            }
        }
    }

    fn parse_end_tag(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let name = self.parse_name()?;
        self.scanner.skip_whitespace();
        self.scanner.expect(">")?;
        match self.stack.pop() {
            Some(open) if open == name => {
                if self.stack.is_empty() {
                    self.seen_root = true;
                }
                Ok(XmlEvent::EndElement { name })
            }
            Some(open) => Err(self.scanner.error(XmlErrorKind::MismatchedTag {
                expected: open.to_string(),
                found: name.to_string(),
            })),
            None => Err(self
                .scanner
                .error(XmlErrorKind::UnbalancedClose(name.to_string()))),
        }
    }
}

/// The `key="value"` pseudo-attributes of an XML declaration body, up to the
/// first malformed one.
fn pseudo_attrs(data: &str) -> impl Iterator<Item = (&str, &str)> {
    let mut rest = data.trim();
    std::iter::from_fn(move || {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim();
        let after = rest[eq + 1..].trim_start();
        let quote = after.chars().next().filter(|c| *c == '"' || *c == '\'')?;
        let close = after[1..].find(quote)?;
        rest = &after[close + 2..];
        Some((key, &after[1..1 + close]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<XmlEvent<'_>>, XmlError> {
        let mut r = XmlReader::new(input);
        let mut out = Vec::new();
        loop {
            let ev = r.next_event()?;
            let done = ev.is_eof();
            out.push(ev);
            if done {
                return Ok(out);
            }
        }
    }

    #[test]
    fn simple_document() {
        let evs = events("<a x=\"1\" y='2'>hi<b/></a>").unwrap();
        assert_eq!(
            evs,
            vec![
                XmlEvent::StartElement {
                    name: "a",
                    attributes: vec![
                        AttributeRef {
                            name: "x",
                            value: "1".into()
                        },
                        AttributeRef {
                            name: "y",
                            value: "2".into()
                        },
                    ],
                    self_closing: false,
                },
                XmlEvent::Text("hi".into()),
                XmlEvent::StartElement {
                    name: "b",
                    attributes: vec![],
                    self_closing: true,
                },
                XmlEvent::EndElement { name: "b" },
                XmlEvent::EndElement { name: "a" },
                XmlEvent::Eof,
            ]
        );
    }

    #[test]
    fn declaration_and_comment_and_pi() {
        let evs =
            events("<?xml version=\"1.0\" encoding=\"UTF-8\"?><!-- c --><?go now?><r/>").unwrap();
        assert_eq!(
            evs[0],
            XmlEvent::Declaration {
                version: "1.0",
                encoding: Some("UTF-8")
            }
        );
        assert_eq!(evs[1], XmlEvent::Comment(" c "));
        assert_eq!(
            evs[2],
            XmlEvent::ProcessingInstruction {
                target: "go",
                data: "now"
            }
        );
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let evs = events("<a t=\"&lt;&#65;&gt;\">x &amp; y</a>").unwrap();
        match &evs[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].value, "<A>");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(evs[1], XmlEvent::Text("x & y".into()));
    }

    #[test]
    fn cdata_is_verbatim() {
        let evs = events("<a><![CDATA[<not & parsed>]]></a>").unwrap();
        assert_eq!(evs[1], XmlEvent::CData("<not & parsed>"));
    }

    #[test]
    fn doctype_is_skipped() {
        let evs = events("<!DOCTYPE stations [<!ELEMENT s EMPTY>]><stations/>").unwrap();
        assert!(matches!(evs[0], XmlEvent::StartElement { .. }));
    }

    #[test]
    fn mismatched_tags_error() {
        let err = events("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn unbalanced_close_error() {
        let err = events("<a/></a>").unwrap_err();
        assert!(matches!(
            err.kind,
            XmlErrorKind::UnbalancedClose(_) | XmlErrorKind::BadDocumentStructure(_)
        ));
    }

    #[test]
    fn duplicate_attribute_error() {
        let err = events("<a x=\"1\" x=\"2\"/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn multiple_roots_error() {
        let err = events("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn truncated_document_error() {
        let err = events("<a><b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn empty_document_error() {
        let err = events("   ").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn text_outside_root_error() {
        let err = events("junk<a/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn whitespace_between_markup_is_preserved_inside_root() {
        let evs = events("<a> <b/> </a>").unwrap();
        assert_eq!(evs[1], XmlEvent::Text(" ".into()));
        assert_eq!(evs[4], XmlEvent::Text(" ".into()));
    }

    #[test]
    fn error_positions_are_tracked() {
        let err = events("<a>\n  <b x=1/>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn byte_order_mark_is_skipped() {
        let evs = events("\u{FEFF}<?xml version=\"1.0\"?><r/>").unwrap();
        assert!(matches!(evs[0], XmlEvent::Declaration { .. }));
        assert!(matches!(evs[1], XmlEvent::StartElement { .. }));
    }

    #[test]
    fn deeply_nested_document() {
        let mut doc = String::new();
        for i in 0..200 {
            doc.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            doc.push_str(&format!("</n{i}>"));
        }
        assert!(events(&doc).is_ok());
    }

    #[test]
    fn error_positions_after_multibyte_characters() {
        let at = |input: &str| {
            let e = events(input).unwrap_err();
            (e.kind, e.line, e.column)
        };
        assert_eq!(
            at("<a>\n  <é x=1/>\n</a>"),
            (XmlErrorKind::UnexpectedChar('/'), 2, 9)
        );
        assert_eq!(
            at("<r>\n🚲🚲 &bogus; </r>"),
            (XmlErrorKind::UnknownEntity("bogus".into()), 2, 11)
        );
        assert_eq!(
            at("<r>\n<a>\nçà</b></r>"),
            (
                XmlErrorKind::MismatchedTag {
                    expected: "a".into(),
                    found: "b".into()
                },
                3,
                7
            )
        );
        assert_eq!(
            at("<r>\n<é a='ü<'/></r>"),
            (XmlErrorKind::UnexpectedChar('<'), 2, 8)
        );
        assert_eq!(at("<r>\n<!-- 🚲 "), (XmlErrorKind::UnexpectedEof, 2, 5));
        assert_eq!(
            at("<r>\r\n\t<ü>&#xD800;</ü></r>"),
            (XmlErrorKind::BadCharRef("D800".into()), 2, 13)
        );
        assert_eq!(
            at("\u{FEFF}<r>\n🚲</r>\n<x/>"),
            (
                XmlErrorKind::BadDocumentStructure("multiple root elements".into()),
                3,
                2
            )
        );
    }

    #[test]
    fn text_and_attribute_values_borrow_unless_decoded() {
        let evs = events("<a p=\"plain\" q='&amp;x'>run<![CDATA[c]]>a&lt;b</a>").unwrap();
        let XmlEvent::StartElement { attributes, .. } = &evs[0] else {
            panic!("unexpected {:?}", evs[0]);
        };
        assert!(matches!(attributes[0].value, Cow::Borrowed("plain")));
        assert!(matches!(&attributes[1].value, Cow::Owned(v) if v == "&x"));
        assert!(matches!(evs[1], XmlEvent::Text(Cow::Borrowed("run"))));
        assert!(matches!(&evs[3], XmlEvent::Text(Cow::Owned(t)) if t == "a<b"));
    }
}
