//! XML parse errors with line/column positions.

use std::fmt;

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A character that cannot start/continue the current construct.
    UnexpectedChar(char),
    /// `</b>` closed an element opened as `<a>`.
    MismatchedTag {
        /// Name on the open tag.
        expected: String,
        /// Name on the close tag.
        found: String,
    },
    /// Close tag with no matching open tag.
    UnbalancedClose(String),
    /// The same attribute appeared twice on one element.
    DuplicateAttribute(String),
    /// `&name;` where `name` is not a predefined entity.
    UnknownEntity(String),
    /// `&#...;` that does not denote a valid character.
    BadCharRef(String),
    /// Document contained no root element, or trailing garbage after it.
    BadDocumentStructure(String),
    /// Name token was empty or started with an invalid character.
    BadName,
    /// An element opened inside this many open elements: the reader's
    /// nesting limit (`reader::MAX_DEPTH`).
    TooDeep(usize),
}

/// An XML parse error at a specific position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// The failure category.
    pub kind: XmlErrorKind,
    /// 1-based line of the offending character.
    pub line: u32,
    /// 1-based column of the offending character.
    pub column: u32,
}

impl XmlError {
    /// Creates an error at a position.
    pub fn new(kind: XmlErrorKind, line: u32, column: u32) -> Self {
        Self { kind, line, column }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at {}:{}: ", self.line, self.column)?;
        match &self.kind {
            XmlErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            XmlErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            XmlErrorKind::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "mismatched tag: expected </{expected}>, found </{found}>"
                )
            }
            XmlErrorKind::UnbalancedClose(name) => {
                write!(f, "close tag </{name}> without matching open tag")
            }
            XmlErrorKind::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute {name:?}")
            }
            XmlErrorKind::UnknownEntity(name) => write!(f, "unknown entity &{name};"),
            XmlErrorKind::BadCharRef(raw) => write!(f, "invalid character reference &#{raw};"),
            XmlErrorKind::BadDocumentStructure(msg) => write!(f, "bad document: {msg}"),
            XmlErrorKind::BadName => write!(f, "invalid name token"),
            XmlErrorKind::TooDeep(limit) => {
                write!(f, "elements nested deeper than {limit}")
            }
        }
    }
}

impl std::error::Error for XmlError {}
