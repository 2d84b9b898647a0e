//! Predefined entities and character references.

use crate::error::{XmlError, XmlErrorKind};
use crate::scanner::Scanner;

/// Resolves the entity/character reference whose `&` has just been consumed.
///
/// On entry the scanner sits after `&`; on success it sits after `;` and the
/// decoded character(s) are appended to `out`.
pub fn resolve_reference(s: &mut Scanner<'_>, out: &mut String) -> Result<(), XmlError> {
    if s.eat("#") {
        let (radix, digits) = if s.eat("x") {
            (16, s.take_while(|c| c.is_ascii_hexdigit()))
        } else {
            (10, s.take_while(|c| c.is_ascii_digit()))
        };
        let bad = || XmlErrorKind::BadCharRef(digits.to_string());
        s.expect(";")
            .map_err(|e| XmlError::new(bad(), e.line, e.column))?;
        let c = u32::from_str_radix(digits, radix)
            .ok()
            .and_then(char::from_u32)
            .ok_or_else(|| s.error(bad()))?;
        out.push(c);
        return Ok(());
    }
    let name = s.take_while(|c| c.is_ascii_alphanumeric());
    let unknown = || XmlErrorKind::UnknownEntity(name.to_string());
    s.expect(";")
        .map_err(|e| XmlError::new(unknown(), e.line, e.column))?;
    out.push(match name {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "apos" => '\'',
        "quot" => '"',
        _ => return Err(s.error(unknown())),
    });
    Ok(())
}

/// Escapes text content (`<`, `&`, and `>` for robustness).
pub fn escape_text(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

/// Escapes an attribute value for a double-quoted attribute.
pub fn escape_attr(text: &str, out: &mut String) {
    for c in text.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(input: &str) -> Result<String, XmlError> {
        let mut s = Scanner::new(input);
        let mut out = String::new();
        resolve_reference(&mut s, &mut out)?;
        Ok(out)
    }

    #[test]
    fn predefined_entities() {
        assert_eq!(resolve("lt;").unwrap(), "<");
        assert_eq!(resolve("gt;").unwrap(), ">");
        assert_eq!(resolve("amp;").unwrap(), "&");
        assert_eq!(resolve("apos;").unwrap(), "'");
        assert_eq!(resolve("quot;").unwrap(), "\"");
    }

    #[test]
    fn char_refs() {
        assert_eq!(resolve("#65;").unwrap(), "A");
        assert_eq!(resolve("#x41;").unwrap(), "A");
        assert_eq!(resolve("#x1F6B2;").unwrap(), "🚲");
    }

    #[test]
    fn bad_refs_are_rejected() {
        assert!(matches!(
            resolve("bogus;").unwrap_err().kind,
            XmlErrorKind::UnknownEntity(_)
        ));
        assert!(matches!(
            resolve("#xD800;").unwrap_err().kind, // surrogate
            XmlErrorKind::BadCharRef(_)
        ));
        assert!(matches!(
            resolve("#;").unwrap_err().kind,
            XmlErrorKind::BadCharRef(_)
        ));
        // Missing terminating semicolon.
        assert!(resolve("#65").is_err());
        assert!(resolve("lt").is_err());
    }

    #[test]
    fn escaping_roundtrip_shape() {
        let mut out = String::new();
        escape_text("a<b&c>d", &mut out);
        assert_eq!(out, "a&lt;b&amp;c&gt;d");
        let mut out = String::new();
        escape_attr("say \"hi\" & go", &mut out);
        assert_eq!(out, "say &quot;hi&quot; &amp; go");
    }
}
