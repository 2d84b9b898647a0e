//! The flat form of a document: what cube extraction reads.
//!
//! One pass of the [`XmlReader`] fills three lists and nothing else:
//!
//! ```text
//! elements   : one record per element, in document order (preorder):
//!              name, its attributes' range, the end of its subtree
//!              and the range of its subtree's text pieces
//! attributes : every element's attributes, end to end
//! texts      : every run of character data (text or CDATA), in
//!              document order
//! ```
//!
//! Names, text and attribute values are slices of the input; only a run
//! that held an entity or character reference is a decoded copy. An
//! element's descendants are the records after it up to its subtree's
//! end, so its children are found by stepping from subtree end to subtree
//! end, and a descendant walk is a range; its own text runs are those of
//! its subtree's range that fall outside its children's. Nothing in the
//! form points to anything else, so it drops, and is walked, without
//! recursion.
//!
//! ```
//! use sc_xml::FlatDocument;
//!
//! let doc = FlatDocument::parse("<stations><station id=\"42\">Fenian St</station></stations>").unwrap();
//! let station = doc.root().child_elements().next().unwrap();
//! assert_eq!(station.attr("id"), Some("42"));
//! assert_eq!(station.text(), "Fenian St");
//! ```

use crate::error::XmlError;
use crate::event::{AttributeRef, XmlEvent};
use crate::reader::XmlReader;
use std::borrow::Cow;
use std::ops::Range;

/// A parsed document as flat lists over its input text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatDocument<'a> {
    elements: Vec<Record<'a>>,
    attributes: Vec<AttributeRef<'a>>,
    texts: Vec<Cow<'a, str>>,
}

/// One element.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Record<'a> {
    name: &'a str,
    attributes: Range<usize>,
    /// One past the last element of the subtree: the descendants are the
    /// records from this one's index + 1 up to here.
    end: usize,
    /// The text pieces inside the subtree, descendants' included.
    texts: Range<usize>,
}

impl<'a> FlatDocument<'a> {
    /// Parses a complete document.
    pub fn parse(input: &'a str) -> Result<FlatDocument<'a>, XmlError> {
        let mut reader = XmlReader::new(input);
        // A tag or two per element, and a run of text between tags: sized
        // from the tags, the lists grow in place of being copied.
        let tags = input.bytes().filter(|&b| b == b'<').count();
        let mut doc = FlatDocument {
            elements: Vec::with_capacity(tags / 2 + 1),
            attributes: Vec::new(),
            texts: Vec::with_capacity(tags),
        };
        let mut open: Vec<usize> = Vec::new();
        loop {
            let first_attribute = doc.attributes.len();
            let text = match reader.next_event_with(&mut doc.attributes)? {
                XmlEvent::StartElement { name, .. } => {
                    open.push(doc.elements.len());
                    doc.elements.push(Record {
                        name,
                        attributes: first_attribute..doc.attributes.len(),
                        end: 0,
                        texts: doc.texts.len()..0,
                    });
                    continue;
                }
                XmlEvent::EndElement { .. } => {
                    let done = open.pop().expect("reader guarantees balanced tags");
                    let (end, texts_end) = (doc.elements.len(), doc.texts.len());
                    let record = &mut doc.elements[done];
                    record.end = end;
                    record.texts.end = texts_end;
                    continue;
                }
                XmlEvent::Text(text) => text,
                XmlEvent::CData(text) => Cow::Borrowed(text),
                XmlEvent::Declaration { .. }
                | XmlEvent::Comment(_)
                | XmlEvent::ProcessingInstruction { .. } => continue,
                XmlEvent::Eof => break,
            };
            // The reader refuses character data outside the root.
            if !open.is_empty() {
                doc.texts.push(text);
            }
        }
        Ok(doc)
    }

    /// The root element.
    pub fn root(&self) -> FlatElement<'_, 'a> {
        FlatElement {
            doc: self,
            index: 0,
        }
    }
}

/// One element of a [`FlatDocument`]: a copyable handle.
#[derive(Debug, Clone, Copy)]
pub struct FlatElement<'d, 'a> {
    doc: &'d FlatDocument<'a>,
    index: usize,
}

impl<'d, 'a> FlatElement<'d, 'a> {
    fn record(self) -> &'d Record<'a> {
        &self.doc.elements[self.index]
    }

    /// Tag name as written.
    pub fn name(self) -> &'a str {
        self.record().name
    }

    /// Attributes in document order, values decoded.
    pub fn attributes(self) -> impl Iterator<Item = (&'a str, &'d str)> {
        let doc = self.doc;
        doc.attributes[self.record().attributes.clone()]
            .iter()
            .map(|a| (a.name, a.value.as_ref()))
    }

    /// Looks up an attribute value by name.
    pub fn attr(self, name: &str) -> Option<&'d str> {
        self.attributes().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Child elements in document order.
    pub fn child_elements(self) -> impl Iterator<Item = FlatElement<'d, 'a>> {
        let (doc, end) = (self.doc, self.record().end);
        let mut next = self.index + 1;
        std::iter::from_fn(move || {
            (next < end).then(|| {
                let child = FlatElement { doc, index: next };
                next = doc.elements[next].end;
                child
            })
        })
    }

    /// Every element below this one, in document order, each before its
    /// own subtree.
    pub fn descendants(self) -> impl Iterator<Item = FlatElement<'d, 'a>> {
        let doc = self.doc;
        (self.index + 1..self.record().end).map(move |index| FlatElement { doc, index })
    }

    /// Concatenated text content of this element (direct character data
    /// only): borrowed when there is at most one run of it. The runs are
    /// those between its children's, so the walk costs its children and
    /// its own runs, not its subtree.
    pub fn text(self) -> Cow<'d, str> {
        let (texts, all) = (&self.doc.texts, self.record().texts.clone());
        let mut from = all.start;
        let children = self.child_elements().map(|c| c.record().texts.clone());
        let mut own = (children.chain(std::iter::once(all.end..all.end)))
            .flat_map(move |child| {
                let gap = from..child.start;
                from = child.end;
                &texts[gap]
            })
            .map(|t| t.as_ref());
        match (own.next(), own.next()) {
            (None, _) => Cow::Borrowed(""),
            (Some(one), None) => Cow::Borrowed(one),
            (Some(first), Some(second)) => {
                let mut text = String::from(first);
                text.push_str(second);
                own.for_each(|t| text.push_str(t));
                Cow::Owned(text)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::{Document, Element};

    /// A random document: nested elements with attributes, text runs,
    /// references, CDATA, comments and self-closing tags.
    fn random_element(rng: &mut sc_encoding::Rng, depth: usize, out: &mut String) {
        let name = *rng.choice(&["a", "b", "ç"]);
        out.push_str(&format!("<{name}"));
        if rng.gen_bool(0.4) {
            out.push_str(&format!(" id='{}'", rng.gen_range(3)));
        }
        if rng.gen_bool(0.2) {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for _ in 0..rng.gen_range(5) {
            match rng.gen_range(6) {
                0 | 1 if depth < 4 => random_element(rng, depth + 1, out),
                2 => out.push_str("<![CDATA[c<]]>"),
                3 => out.push_str("<!-- note -->"),
                4 => out.push_str("x&amp;y"),
                _ => out.push_str(&format!("t{}", rng.gen_range(10))),
            }
        }
        out.push_str(&format!("</{name}>"));
    }

    /// Every element of `owned` in document order, beside its flat twin.
    fn pairs<'d, 'a>(
        owned: &'d Element,
        flat: FlatElement<'d, 'a>,
        out: &mut Vec<(&'d Element, FlatElement<'d, 'a>)>,
    ) {
        out.push((owned, flat));
        for (o, f) in owned.child_elements().zip(flat.child_elements()) {
            pairs(o, f, out);
        }
    }

    #[test]
    fn the_flat_form_holds_what_the_owned_tree_holds() {
        let mut rng = sc_encoding::Rng::new(48);
        for _ in 0..500 {
            let mut xml = String::new();
            random_element(&mut rng, 0, &mut xml);
            let owned = Document::parse(&xml).unwrap();
            let flat = FlatDocument::parse(&xml).unwrap();
            let mut all = Vec::new();
            pairs(&owned.root, flat.root(), &mut all);
            assert_eq!(all.len(), flat.elements.len(), "{xml}");
            let descendants: Vec<usize> = flat.root().descendants().map(|e| e.index).collect();
            assert_eq!(descendants, (1..all.len()).collect::<Vec<_>>());
            for (o, f) in all {
                assert_eq!(f.name(), o.name);
                assert_eq!(f.text(), o.text(), "{xml}");
                let attributes = o
                    .attributes
                    .iter()
                    .map(|a| (a.name.as_str(), a.value.as_str()));
                assert!(f.attributes().eq(attributes), "{xml}");
                assert_eq!(f.child_elements().count(), o.child_elements().count());
            }
        }
    }

    #[test]
    fn text_borrows_a_single_run() {
        let doc = FlatDocument::parse("<a>one<b/>two<c>&amp;</c><d>plain</d></a>").unwrap();
        let kids: Vec<_> = doc.root().child_elements().collect();
        assert!(matches!(doc.root().text(), Cow::Owned(t) if t == "onetwo"));
        assert!(matches!(kids[1].text(), Cow::Borrowed("&")));
        assert!(matches!(kids[2].text(), Cow::Borrowed("plain")));
        assert_eq!(kids[0].text(), "");
    }
}
