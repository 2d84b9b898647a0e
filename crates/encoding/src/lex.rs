//! Statement tokenizer and token cursor shared by the CQL (`sc-nosql`) and
//! SQL (`sc-relational`) front-ends.
//!
//! Both dialects have the same lexical shape: bare identifiers (keywords
//! match case-insensitively), integers, single-quoted strings with `''`
//! escapes, `--` line comments and the punctuation `( ) , . = ; * { } < >`.
//! Each grammar takes tokens from one [`Cursor`]; what a dialect does not
//! use (SQL has no `{`) is rejected by its grammar, not here.
//!
//! Characters are classified after UTF-8 decoding, and every step consumes
//! at least one byte, so any input ends in tokens or a [`ParseError`].

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Bare identifier or keyword (original case preserved).
    Ident(String),
    /// Integer literal.
    Number(i64),
    /// Single-quoted string literal, unescaped.
    Str(String),
    /// One punctuation character: `( ) , . = ; * { } < >`.
    Symbol(char),
}

impl Token {
    /// Whether this token is the keyword `kw` (case-insensitive).
    #[inline]
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Statement text that does not tokenize or does not fit the grammar. The
/// engines wrap it in their own `Parse` error variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// Tokenizes statement text.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(c) = input[i..].chars().next() {
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                i += input[i..].find('\n').unwrap_or(input.len() - i);
            }
            '(' | ')' | ',' | '.' | '=' | ';' | '*' | '{' | '}' | '<' | '>' => {
                out.push(Token::Symbol(c));
                i += 1;
            }
            '\'' => {
                let mut s = String::new();
                let mut rest = &input[i + 1..];
                loop {
                    let end = rest
                        .find('\'')
                        .ok_or_else(|| ParseError("unterminated string literal".into()))?;
                    s.push_str(&rest[..end]);
                    rest = &rest[end + 1..];
                    match rest.strip_prefix('\'') {
                        Some(after) => {
                            s.push('\'');
                            rest = after;
                        }
                        None => break,
                    }
                }
                i = input.len() - rest.len();
                out.push(Token::Str(s));
            }
            '-' | '0'..='9' => {
                let start = i;
                i += 1 + bytes[i + 1..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                let text = &input[start..i];
                if text == "-" {
                    return Err(ParseError(format!("stray '-' at byte {start}")));
                }
                let n = text
                    .parse()
                    .map_err(|_| ParseError(format!("bad number {text:?}")))?;
                out.push(Token::Number(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let rest = &input[i..];
                let len = rest
                    .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .unwrap_or(rest.len());
                out.push(Token::Ident(rest[..len].to_string()));
                i += len;
            }
            other => {
                return Err(ParseError(format!(
                    "unexpected character {other:?} at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

/// The token stream a recursive-descent grammar walks.
#[derive(Debug)]
pub struct Cursor {
    /// Tokens not yet consumed, the next one last.
    rest: Vec<Token>,
}

impl Cursor {
    /// Tokenizes `input` and positions the cursor before its first token.
    pub fn new(input: &str) -> Result<Cursor, ParseError> {
        let mut rest = tokenize(input)?;
        rest.reverse();
        Ok(Cursor { rest })
    }

    /// Whether every token has been consumed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next token, if any.
    #[inline]
    pub fn peek(&self) -> Option<&Token> {
        self.rest.last()
    }

    /// The token `ahead` places past the next one (`peek_at(0)` is
    /// [`Cursor::peek`]).
    #[inline]
    pub fn peek_at(&self, ahead: usize) -> Option<&Token> {
        self.rest
            .len()
            .checked_sub(ahead + 1)
            .map(|i| &self.rest[i])
    }

    /// Consumes and returns the next token.
    #[inline]
    pub fn bump(&mut self) -> Option<Token> {
        self.rest.pop()
    }

    /// Whether the next token is the keyword `kw`.
    #[inline]
    pub fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    /// Consumes the next token if it is the keyword `kw`.
    #[inline]
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.peek_keyword(kw);
        if hit {
            self.rest.pop();
        }
        hit
    }

    /// Consumes the keyword `kw` or fails.
    #[inline]
    pub fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if t.is_keyword(kw) => Ok(()),
            other => Err(ParseError(format!("expected {kw}, found {other:?}"))),
        }
    }

    /// Consumes the next token if it is the symbol `sym`.
    #[inline]
    pub fn eat_symbol(&mut self, sym: char) -> bool {
        let hit = self.peek() == Some(&Token::Symbol(sym));
        if hit {
            self.rest.pop();
        }
        hit
    }

    /// Consumes the symbol `sym` or fails.
    #[inline]
    pub fn expect_symbol(&mut self, sym: char) -> Result<(), ParseError> {
        match self.bump() {
            Some(Token::Symbol(c)) if c == sym => Ok(()),
            other => Err(ParseError(format!("expected {sym:?}, found {other:?}"))),
        }
    }

    /// Consumes an identifier and returns its text.
    #[inline]
    pub fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Ends a statement: eats one optional `;` and rejects anything after.
    pub fn finish(mut self) -> Result<(), ParseError> {
        self.eat_symbol(';');
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(ParseError(format!(
                "trailing tokens after statement: {t:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn figure3_statement_tokenizes() {
        let toks =
            tokenize("INSERT INTO DWARF_CELL (id,key,measure) VALUES (3,'Fenian St', 3);").unwrap();
        assert!(toks[0].is_keyword("insert"));
        assert!(toks.contains(&Token::Str("Fenian St".into())));
        assert!(toks.contains(&Token::Number(3)));
        assert_eq!(*toks.last().unwrap(), Token::Symbol(';'));
    }

    #[test]
    fn multi_row_insert_tokenizes() {
        let toks = tokenize("INSERT INTO d.t (id) VALUES (1), (2), (3)").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::Symbol('(')).count(), 4);
    }

    #[test]
    fn string_escapes_and_unicode() {
        let toks = tokenize("'O''Connell St' 'Baile Átha Cliath' 'it''s' '' Átha").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("O'Connell St".into()),
                Token::Str("Baile Átha Cliath".into()),
                Token::Str("it's".into()),
                Token::Str(String::new()),
                Token::Ident("Átha".into()),
            ]
        );
    }

    #[test]
    fn negative_numbers_and_sets() {
        let toks = tokenize("{-1, 2}").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Symbol('{'),
                Token::Number(-1),
                Token::Symbol(','),
                Token::Number(2),
                Token::Symbol('}'),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT -- everything\n* FROM t -- to the end").unwrap();
        assert_eq!(toks.len(), 4);
        assert_eq!(toks[1], Token::Symbol('*'));
    }

    #[test]
    fn errors() {
        for bad in [
            "'open",
            "'it''s",
            "a ? b",
            "a % b",
            "- 5",
            "-",
            "99999999999999999999",
        ] {
            assert!(tokenize(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn non_ascii_outside_literals_is_named_in_the_error() {
        let e = tokenize("SELECT € FROM ks.t").unwrap_err();
        assert_eq!(e.0, "unexpected character '€' at byte 7");
        let e = tokenize("SELECT * FROM ks.t WHERE a = ×").unwrap_err();
        assert!(e.0.contains("'×'"), "{e}");
    }

    #[test]
    fn random_unicode_tokenizes_or_fails_with_at_most_one_token_per_byte() {
        const POOL: &str = "aZ_9-'; (){}<>=*,.\t\n€×éÁ🚲٣";
        let pool: Vec<char> = POOL.chars().collect();
        let mut rng = Rng::new(26);
        for _ in 0..5_000 {
            let len = rng.gen_range(24) as usize;
            let input: String = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        *rng.choice(&pool)
                    } else {
                        char::from_u32(rng.gen_range(0x11_0000) as u32).unwrap_or('\u{FFFD}')
                    }
                })
                .collect();
            if let Ok(toks) = tokenize(&input) {
                assert!(toks.len() <= input.len(), "{input:?} gave {toks:?}");
            }
        }
    }

    #[test]
    fn cursor_walks_and_finishes() {
        let mut c = Cursor::new("SELECT count ( * ) FROM t;").unwrap();
        assert!(c.peek_keyword("select"));
        assert!(!c.eat_keyword("insert"));
        assert!(c.eat_keyword("SELECT"));
        assert_eq!(c.peek_at(1), Some(&Token::Symbol('(')));
        assert_eq!(c.ident().unwrap(), "count");
        c.expect_symbol('(').unwrap();
        assert!(!c.eat_symbol(')'));
        assert!(c.eat_symbol('*'));
        // A failed expectation still consumes the token it rejected.
        assert!(c.expect_keyword("from").is_err());
        c.expect_keyword("from").unwrap();
        assert_eq!(c.bump(), Some(Token::Ident("t".into())));
        assert!(!c.is_done());
        c.finish().unwrap();

        assert!(Cursor::new("t ;").unwrap().finish().is_err());
        assert!(Cursor::new(";;").unwrap().finish().is_err());
        assert!(Cursor::new("").unwrap().finish().is_ok());
        let mut c = Cursor::new("x").unwrap();
        assert_eq!(c.peek_at(1), None);
        c.bump();
        assert!(c.is_done());
        assert_eq!(c.bump(), None);
        assert!(c.ident().is_err());
    }
}
