//! Low-level byte-offset cursor that produces positioned errors.

use crate::error::{XmlError, XmlErrorKind};

/// A cursor over the input text.
///
/// The cursor is a byte offset and advances by byte lengths; line and column
/// are derived from the offset only when asked for (in practice, when an
/// [`XmlError`] is built), so scanning pays nothing per character for them.
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Creates a scanner at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Self { input, pos: 0 }
    }

    /// Byte offset of the cursor.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// 1-based line of the cursor: one plus the newlines before it.
    pub fn line(&self) -> u32 {
        self.position().0
    }

    /// 1-based column of the cursor: one plus the characters since the last
    /// newline.
    pub fn column(&self) -> u32 {
        self.position().1
    }

    fn position(&self) -> (u32, u32) {
        let before = &self.input[..self.pos];
        let line_start = before.rfind('\n').map_or(0, |nl| nl + 1);
        let line = 1 + before.bytes().filter(|&b| b == b'\n').count();
        let column = 1 + before[line_start..].chars().count();
        (line as u32, column as u32)
    }

    /// The unconsumed input.
    pub fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// Whether all input has been consumed.
    pub fn is_eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// The next character without consuming it.
    pub fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    /// The next byte without consuming it.
    pub fn peek_byte(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    /// Consumes and returns one character.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Whether the remaining input starts with `s`.
    pub fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    /// Consumes `s` if the input starts with it; returns whether it did.
    pub fn eat(&mut self, s: &str) -> bool {
        let hit = self.starts_with(s);
        if hit {
            self.pos += s.len();
        }
        hit
    }

    /// Consumes `s` or errors with `UnexpectedChar`/`UnexpectedEof`.
    pub fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.error_here())
        }
    }

    /// Skips XML whitespace (space, tab, CR, LF).
    pub fn skip_whitespace(&mut self) {
        let skipped = self
            .rest()
            .bytes()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .count();
        self.pos += skipped;
    }

    /// Consumes characters while `pred` holds, returning the consumed slice.
    pub fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest
            .char_indices()
            .find(|&(_, c)| !pred(c))
            .map_or(rest.len(), |(i, _)| i);
        self.pos += len;
        &rest[..len]
    }

    /// Consumes the next `len` bytes, which must end on a char boundary.
    pub fn take(&mut self, len: usize) -> &'a str {
        let run = &self.rest()[..len];
        self.pos += len;
        run
    }

    /// Consumes input up to (not including) the first of the ASCII bytes in
    /// `stops`, or to the end, returning the consumed run.
    pub fn take_until_any(&mut self, stops: &[u8]) -> &'a str {
        debug_assert!(
            stops.is_ascii(),
            "stops must be ASCII to land on a char boundary"
        );
        let rest = self.rest();
        let len = rest
            .bytes()
            .position(|b| stops.contains(&b))
            .unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// Consumes input up to (not including) the first occurrence of `needle`,
    /// returning the consumed slice, or `None` (consuming nothing extra) if
    /// the needle never appears.
    pub fn take_until(&mut self, needle: &str) -> Option<&'a str> {
        let rest = self.rest();
        let idx = rest.find(needle)?;
        self.pos += idx;
        Some(&rest[..idx])
    }

    /// Error for an unexpected character (or EOF) at the cursor.
    pub fn error_here(&self) -> XmlError {
        match self.peek() {
            Some(c) => self.error(XmlErrorKind::UnexpectedChar(c)),
            None => self.error(XmlErrorKind::UnexpectedEof),
        }
    }

    /// Error of an explicit kind at the cursor.
    pub fn error(&self, kind: XmlErrorKind) -> XmlError {
        let (line, column) = self.position();
        XmlError::new(kind, line, column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_lines_and_columns() {
        let mut s = Scanner::new("ab\ncd");
        assert_eq!((s.line(), s.column()), (1, 1));
        s.bump();
        s.bump();
        assert_eq!((s.line(), s.column()), (1, 3));
        s.bump(); // newline
        assert_eq!((s.line(), s.column()), (2, 1));
        s.bump();
        assert_eq!((s.line(), s.column()), (2, 2));
    }

    #[test]
    fn columns_count_characters_not_bytes() {
        let mut s = Scanner::new("é\n🚲é<");
        s.bump();
        assert_eq!((s.line(), s.column()), (1, 2));
        s.bump();
        assert_eq!(s.take_while(|c| c != '<'), "🚲é");
        assert_eq!((s.line(), s.column()), (2, 3));
        assert_eq!(s.pos(), "é\n🚲é".len());
    }

    #[test]
    fn eat_and_expect() {
        let mut s = Scanner::new("<?xml?>");
        assert!(s.eat("<?xml"));
        assert!(!s.eat("version"));
        assert!(s.expect("?>").is_ok());
        assert!(s.is_eof());
        assert!(matches!(
            s.expect(">").unwrap_err().kind,
            XmlErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn take_until_finds_needle() {
        let mut s = Scanner::new("hello-->rest");
        assert_eq!(s.take_until("-->"), Some("hello"));
        assert!(s.starts_with("-->"));
    }

    #[test]
    fn take_until_missing_needle() {
        let mut s = Scanner::new("no terminator");
        assert_eq!(s.take_until("-->"), None);
        assert_eq!(s.pos(), 0);
    }

    #[test]
    fn take_until_any_stops_at_the_first_delimiter() {
        let mut s = Scanner::new("αβ&γ<");
        assert_eq!(s.take_until_any(b"<&"), "αβ");
        assert_eq!(s.peek(), Some('&'));
        s.bump();
        assert_eq!(s.take_until_any(b"\""), "γ<");
        assert!(s.is_eof());
    }

    #[test]
    fn take_while_unicode() {
        let mut s = Scanner::new("αβγ<");
        assert_eq!(s.take_while(|c| c != '<'), "αβγ");
        assert_eq!(s.peek(), Some('<'));
    }
}
