//! Pull-parser events, borrowed from the input text.

use std::borrow::Cow;

/// One attribute of a DOM element, owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written (prefix included).
    pub name: String,
    /// Decoded attribute value (entities resolved).
    pub value: String,
}

/// One attribute on a start tag, borrowed from the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeRef<'a> {
    /// Attribute name as written (prefix included).
    pub name: &'a str,
    /// Decoded value: borrowed unless it held an entity or character
    /// reference.
    pub value: Cow<'a, str>,
}

impl AttributeRef<'_> {
    /// The owned DOM attribute.
    pub fn into_owned(self) -> Attribute {
        Attribute {
            name: self.name.to_string(),
            value: self.value.into_owned(),
        }
    }
}

/// An event produced by [`crate::reader::XmlReader`], borrowing from the
/// document text it reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// `<?xml version="1.0" ...?>`.
    Declaration {
        /// Version string, e.g. `1.0`.
        version: &'a str,
        /// Encoding if declared.
        encoding: Option<&'a str>,
    },
    /// `<name attr="v">` — `self_closing` is true for `<name/>`.
    StartElement {
        /// Element name as written.
        name: &'a str,
        /// Attributes in document order.
        attributes: Vec<AttributeRef<'a>>,
        /// Whether the tag closed itself (`/>`).
        self_closing: bool,
    },
    /// `</name>` — also emitted synthetically after a self-closing start tag.
    EndElement {
        /// Element name as written.
        name: &'a str,
    },
    /// Character data with entities resolved; adjacent CDATA is separate.
    /// Borrowed unless it held an entity or character reference.
    Text(Cow<'a, str>),
    /// `<![CDATA[...]]>` content, verbatim.
    CData(&'a str),
    /// `<!-- ... -->` content, verbatim.
    Comment(&'a str),
    /// `<?target data?>`.
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// Raw data after the target.
        data: &'a str,
    },
    /// End of the document.
    Eof,
}

impl XmlEvent<'_> {
    /// True if this is [`XmlEvent::Eof`].
    pub fn is_eof(&self) -> bool {
        matches!(self, XmlEvent::Eof)
    }
}
