//! A small owned DOM built on top of the pull parser.

use crate::error::{XmlError, XmlErrorKind};
use crate::event::{Attribute, AttributeRef, XmlEvent};
use crate::reader::XmlReader;
use crate::writer::XmlWriter;
use std::borrow::Cow;

/// A node inside an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// Character data (text and CDATA merged).
    Text(String),
}

/// An element with attributes and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Tag name as written.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }

    /// Iterates child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Iterates child elements with a given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// First child element with a given tag name.
    pub fn first_child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Concatenated text content of this element (direct text children only).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Serializes this element (and subtree) to XML text.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        w.write_element(self);
        w.into_string()
    }
}

/// A parsed document: declaration metadata plus the root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Declared version (defaults to `1.0`).
    pub version: String,
    /// Declared encoding, if any.
    pub encoding: Option<String>,
    /// The root element.
    pub root: Element,
}

impl Document {
    /// Parses a complete document.
    ///
    /// Children of every open element wait on one shared node stack; when
    /// the element closes they move into a `Vec` of exactly their number.
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        /// An element whose close tag has not been read yet.
        struct Open<'a> {
            name: &'a str,
            attributes: Vec<Attribute>,
            /// Where this element's children start on the node stack.
            first_child: usize,
        }

        let mut reader = XmlReader::new(input);
        let mut version = "1.0";
        let mut encoding = None;
        let mut open: Vec<Open<'_>> = Vec::new();
        let mut nodes: Vec<Node> = Vec::new();
        let mut root: Option<Element> = None;
        loop {
            match reader.next_event()? {
                XmlEvent::Declaration {
                    version: v,
                    encoding: e,
                } => {
                    version = v;
                    encoding = e;
                }
                XmlEvent::StartElement {
                    name, attributes, ..
                } => open.push(Open {
                    name,
                    attributes: attributes
                        .into_iter()
                        .map(AttributeRef::into_owned)
                        .collect(),
                    first_child: nodes.len(),
                }),
                XmlEvent::EndElement { .. } => {
                    let done = open.pop().expect("reader guarantees balanced tags");
                    let element = Element {
                        name: done.name.to_string(),
                        attributes: done.attributes,
                        children: nodes.drain(done.first_child..).collect(),
                    };
                    if open.is_empty() {
                        root = Some(element);
                    } else {
                        nodes.push(Node::Element(element));
                    }
                }
                XmlEvent::Text(t) => push_text(&open, &mut nodes, t),
                XmlEvent::CData(t) => push_text(&open, &mut nodes, Cow::Borrowed(t)),
                XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction { .. } => {}
                XmlEvent::Eof => break,
            }
        }
        /// Appends character data to the innermost open element, merging it
        /// into that element's last child when that is text too.
        fn push_text(open: &[Open<'_>], nodes: &mut Vec<Node>, text: Cow<'_, str>) {
            let Some(parent) = open.last() else { return };
            match nodes[parent.first_child..].last_mut() {
                Some(Node::Text(prev)) => prev.push_str(&text),
                _ => nodes.push(Node::Text(text.into_owned())),
            }
        }
        let root = root.ok_or(XmlError::new(
            XmlErrorKind::BadDocumentStructure("document has no root element".into()),
            1,
            1,
        ))?;
        Ok(Document {
            version: version.to_string(),
            encoding: encoding.map(str::to_string),
            root,
        })
    }

    /// Serializes the document with a declaration.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::new();
        w.write_declaration(&self.version, self.encoding.as_deref());
        w.write_element(&self.root);
        w.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FEED: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<stations updated="2016-03-15T10:00:00">
  <station id="17">
    <name>Fenian St</name>
    <bikes>3</bikes>
    <docks>20</docks>
  </station>
  <station id="42">
    <name>Smithfield</name>
    <bikes>11</bikes>
    <docks>30</docks>
  </station>
</stations>"#;

    #[test]
    fn parse_bike_feed() {
        let doc = Document::parse(FEED).unwrap();
        assert_eq!(doc.encoding.as_deref(), Some("UTF-8"));
        assert_eq!(doc.root.name, "stations");
        assert_eq!(doc.root.attr("updated"), Some("2016-03-15T10:00:00"));
        let stations: Vec<_> = doc.root.children_named("station").collect();
        assert_eq!(stations.len(), 2);
        assert_eq!(stations[0].first_child("name").unwrap().text(), "Fenian St");
        assert_eq!(stations[1].first_child("bikes").unwrap().text(), "11");
    }

    #[test]
    fn text_merging_across_cdata() {
        let doc = Document::parse("<a>one<![CDATA[ two]]> three</a>").unwrap();
        assert_eq!(doc.root.text(), "one two three");
        assert_eq!(doc.root.children.len(), 1);
    }

    #[test]
    fn serialization_roundtrip() {
        let doc = Document::parse(FEED).unwrap();
        let text = doc.to_xml();
        let back = Document::parse(&text).unwrap();
        // Whitespace text nodes survive, so compare structure directly.
        assert_eq!(back.root, doc.root);
    }

    #[test]
    fn roundtrip_with_special_characters() {
        let doc =
            Document::parse("<q expr=\"a &lt; b &amp; &quot;c&quot;\">5 &gt; 4 &amp; 3 &lt; 4</q>")
                .unwrap();
        assert_eq!(doc.root.attr("expr"), Some("a < b & \"c\""));
        assert_eq!(doc.root.text(), "5 > 4 & 3 < 4");
        let back = Document::parse(&doc.root.to_xml()).unwrap();
        assert_eq!(back.root, doc.root);
        assert!(doc.root.first_child("missing").is_none());
    }
}
