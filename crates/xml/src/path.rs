//! XPath-lite: the tiny selector language cube definitions use to locate
//! record elements, dimension values and measures inside a feed document.
//!
//! Grammar (informal):
//!
//! ```text
//! path      := "/"? step ("/" step)* ("/" leaf)?
//! step      := ("/")? name predicate?          -- leading "//" = descendant
//! name      := NCName | "*"
//! predicate := "[" digits "]" | "[@" name "='" value "'" "]"
//! leaf      := "@" name | "text()"
//! ```
//!
//! Examples: `/stations/station`, `//station[@id='42']/name/text()`,
//! `@updated`, `readings/reading[2]/value/text()`.
//!
//! Paths evaluate on the flat form ([`FlatElement`]), whose descendant
//! walk is a range: no evaluation recurses deeper than the path's steps.

use crate::flat::FlatElement;
use std::borrow::Cow;
use std::fmt;

/// How a step walks the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Direct children.
    Child,
    /// Any descendant (the `//` axis), including children.
    Descendant,
}

/// Optional filter on a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// 1-based position among the step's matches.
    Index(usize),
    /// Requires `@name='value'`.
    AttrEquals {
        /// Attribute name.
        name: String,
        /// Required value.
        value: String,
    },
}

/// One navigation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Child or descendant axis.
    pub axis: Axis,
    /// Element name, or `*` for any.
    pub name: String,
    /// Optional predicate filter.
    pub predicate: Option<Predicate>,
}

/// What the path ultimately extracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Leaf {
    /// The matched elements themselves.
    Elements,
    /// Text content of the matched elements.
    Text,
    /// An attribute of the matched elements.
    Attr(String),
}

/// Parse error for a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid path: {}", self.message)
    }
}

impl std::error::Error for PathError {}

fn err(message: impl Into<String>) -> PathError {
    PathError {
        message: message.into(),
    }
}

/// A compiled path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Navigation steps, in order.
    pub steps: Vec<Step>,
    /// Value extraction at the end.
    pub leaf: Leaf,
    /// Whether the path began with `/` (anchored at the document root
    /// element rather than evaluated relative to the context element).
    pub absolute: bool,
}

impl Path {
    /// Compiles a path expression.
    pub fn parse(expr: &str) -> Result<Path, PathError> {
        let expr = expr.trim();
        if expr.is_empty() {
            return Err(err("empty expression"));
        }
        let mut rest = expr;
        let absolute = rest.starts_with('/') && !rest.starts_with("//");
        let mut steps = Vec::new();
        let mut leaf = Leaf::Elements;

        while !rest.is_empty() {
            let axis = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                Axis::Descendant
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                Axis::Child
            } else if steps.is_empty() {
                Axis::Child
            } else {
                return Err(err(format!("expected '/' before {rest:?}")));
            };
            if rest.is_empty() {
                return Err(err("trailing '/'"));
            }
            // Leaf selectors terminate the path.
            if let Some(r) = rest.strip_prefix('@') {
                if r.is_empty() {
                    return Err(err("'@' with no attribute name"));
                }
                if !r.chars().all(is_name_char) {
                    return Err(err(format!("bad attribute name {r:?}")));
                }
                leaf = Leaf::Attr(r.to_string());
                break;
            }
            if rest == "text()" {
                leaf = Leaf::Text;
                break;
            }
            // Element step: name, optional [predicate].
            let name_end = rest.find(['/', '[']).unwrap_or(rest.len());
            let name = &rest[..name_end];
            if name.is_empty() || (name != "*" && !name.chars().all(is_name_char)) {
                return Err(err(format!("bad step name {name:?}")));
            }
            rest = &rest[name_end..];
            let mut predicate = None;
            if let Some(r) = rest.strip_prefix('[') {
                let close = r.find(']').ok_or_else(|| err("unterminated '['"))?;
                let body = &r[..close];
                rest = &r[close + 1..];
                predicate = Some(parse_predicate(body)?);
            }
            steps.push(Step {
                axis,
                name: name.to_string(),
                predicate,
            });
        }
        if steps.is_empty() && leaf == Leaf::Elements {
            return Err(err("expression selects nothing"));
        }
        Ok(Path {
            steps,
            leaf,
            absolute,
        })
    }

    /// Evaluates the path, returning matched elements.
    ///
    /// For a leaf of `@attr` or `text()` the returned elements are the ones
    /// the leaf extracts from; use [`Path::select_values`] to get strings.
    pub fn select<'d, 'a>(&self, context: FlatElement<'d, 'a>) -> Vec<FlatElement<'d, 'a>> {
        let mut current = vec![context];
        for (i, step) in self.steps.iter().enumerate() {
            // For absolute paths the first step names the root element itself
            // (like `/stations/station` where context *is* `<stations>`).
            let mut next = Vec::new();
            if i == 0 && self.absolute {
                next.extend(Some(context).filter(|c| step.admits(*c)));
            } else {
                for el in &current {
                    let admitted = |c: &FlatElement<'d, 'a>| step.admits(*c);
                    match step.axis {
                        Axis::Child => next.extend(el.child_elements().filter(admitted)),
                        Axis::Descendant => next.extend(el.descendants().filter(admitted)),
                    }
                }
            }
            if let Some(Predicate::Index(n)) = step.predicate {
                next = next.into_iter().nth(n - 1).into_iter().collect();
            }
            if next.is_empty() {
                return Vec::new();
            }
            current = next;
        }
        current
    }

    /// Evaluates the path and extracts the leaf values.
    pub fn select_values(&self, context: FlatElement<'_, '_>) -> Vec<String> {
        let elements = self.select(context);
        match &self.leaf {
            Leaf::Elements | Leaf::Text => elements.iter().map(|e| e.text().into_owned()).collect(),
            Leaf::Attr(name) => elements
                .iter()
                .filter_map(|e| e.attr(name).map(str::to_string))
                .collect(),
        }
    }

    /// First leaf value, if any.
    pub fn select_first(&self, context: FlatElement<'_, '_>) -> Option<String> {
        self.first(context).map(Cow::into_owned)
    }

    /// First leaf value, if any: the first of [`Path::select_values`],
    /// found by a walk in document order that stops at the first match. An
    /// attribute, or the text of an element with at most one run of
    /// character data, is borrowed from the document.
    pub fn first<'d>(&self, context: FlatElement<'d, '_>) -> Option<Cow<'d, str>> {
        let positional = self
            .steps
            .iter()
            .any(|s| matches!(s.predicate, Some(Predicate::Index(_))));
        if positional {
            // `[n]` ranks all of a step's matches, so only the whole
            // selection can answer it.
            return self
                .select_values(context)
                .into_iter()
                .next()
                .map(Cow::Owned);
        }
        match self.steps.first() {
            Some(root) if self.absolute => root
                .admits(context)
                .then(|| self.first_from(context, 1))
                .flatten(),
            _ => self.first_from(context, 0),
        }
    }

    /// The first value reachable from `el` by `steps[step..]` and the leaf;
    /// a descendant step walks the descendants in document order, each
    /// before its own subtree.
    fn first_from<'d>(&self, el: FlatElement<'d, '_>, step: usize) -> Option<Cow<'d, str>> {
        let Some(s) = self.steps.get(step) else {
            return self.leaf_value(el);
        };
        let next =
            |c: FlatElement<'d, '_>| s.admits(c).then(|| self.first_from(c, step + 1)).flatten();
        match s.axis {
            Axis::Child => el.child_elements().find_map(next),
            Axis::Descendant => el.descendants().find_map(next),
        }
    }

    /// The leaf's value on one matched element; `None` only for a missing
    /// attribute.
    fn leaf_value<'d>(&self, el: FlatElement<'d, '_>) -> Option<Cow<'d, str>> {
        match &self.leaf {
            Leaf::Attr(name) => el.attr(name).map(Cow::Borrowed),
            Leaf::Elements | Leaf::Text => Some(el.text()),
        }
    }
}

impl Step {
    /// Whether `el` has this step's name and passes its attribute predicate.
    /// A positional predicate is not checked here: it ranks a whole step's
    /// matches.
    fn admits(&self, el: FlatElement<'_, '_>) -> bool {
        (self.name == "*" || el.name() == self.name)
            && match &self.predicate {
                Some(Predicate::AttrEquals { name, value }) => {
                    el.attr(name) == Some(value.as_str())
                }
                Some(Predicate::Index(_)) | None => true,
            }
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

fn parse_predicate(body: &str) -> Result<Predicate, PathError> {
    if let Some(r) = body.strip_prefix('@') {
        let eq = r.find('=').ok_or_else(|| err("predicate missing '='"))?;
        let name = &r[..eq];
        let value = &r[eq + 1..];
        let value = value
            .strip_prefix('\'')
            .and_then(|v| v.strip_suffix('\''))
            .ok_or_else(|| err("predicate value must be single-quoted"))?;
        if name.is_empty() || !name.chars().all(is_name_char) {
            return Err(err(format!("bad predicate attribute {name:?}")));
        }
        return Ok(Predicate::AttrEquals {
            name: name.to_string(),
            value: value.to_string(),
        });
    }
    let n: usize = body
        .parse()
        .map_err(|_| err(format!("bad predicate {body:?}")))?;
    if n == 0 {
        return Err(err("position predicates are 1-based"));
    }
    Ok(Predicate::Index(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatDocument;

    const FEED: &str = r#"<stations updated="10:00">
      <station id="17"><name>Fenian St</name><bikes>3</bikes></station>
      <station id="42"><name>Smithfield</name><bikes>11</bikes></station>
      <meta><source kind="bikes"><name>dublinbikes</name></source></meta>
    </stations>"#;

    fn feed() -> FlatDocument<'static> {
        FlatDocument::parse(FEED).unwrap()
    }

    #[test]
    fn absolute_child_path() {
        let doc = feed();
        let p = Path::parse("/stations/station").unwrap();
        assert_eq!(p.select(doc.root()).len(), 2);
    }

    #[test]
    fn absolute_path_requires_root_name_match() {
        let doc = feed();
        let p = Path::parse("/wrong/station").unwrap();
        assert!(p.select(doc.root()).is_empty());
    }

    #[test]
    fn relative_path_and_text_leaf() {
        let doc = feed();
        let station = doc.root().child_elements().next().unwrap();
        let p = Path::parse("name/text()").unwrap();
        assert_eq!(p.select_values(station), vec!["Fenian St"]);
    }

    #[test]
    fn attribute_leaf() {
        let doc = feed();
        let station = doc.root().child_elements().nth(1).unwrap();
        let p = Path::parse("@id").unwrap();
        assert_eq!(p.select_first(station), Some("42".to_string()));
    }

    #[test]
    fn descendant_axis() {
        let doc = feed();
        let p = Path::parse("//name/text()").unwrap();
        assert_eq!(
            p.select_values(doc.root()),
            vec!["Fenian St", "Smithfield", "dublinbikes"]
        );
    }

    #[test]
    fn attr_predicate() {
        let doc = feed();
        let p = Path::parse("//station[@id='42']/bikes/text()").unwrap();
        assert_eq!(p.select_values(doc.root()), vec!["11"]);
    }

    #[test]
    fn index_predicate_is_one_based() {
        let doc = feed();
        let p = Path::parse("station[2]/name/text()").unwrap();
        assert_eq!(p.select_values(doc.root()), vec!["Smithfield"]);
        let p = Path::parse("station[3]").unwrap();
        assert!(p.select(doc.root()).is_empty());
    }

    #[test]
    fn wildcard_step() {
        let doc = feed();
        let p = Path::parse("station/*").unwrap();
        assert_eq!(p.select(doc.root()).len(), 4);
    }

    #[test]
    fn bare_attribute_path() {
        let doc = feed();
        let p = Path::parse("@updated").unwrap();
        assert_eq!(p.select_first(doc.root()), Some("10:00".to_string()));
    }

    #[test]
    fn missing_attribute_yields_nothing() {
        let doc = feed();
        let p = Path::parse("station/@nope").unwrap();
        assert!(p.select_values(doc.root()).is_empty());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "", "/", "a//", "a/[1]", "a[b]", "a[@x=y]", "a[0]", "@", "a/@", "a b",
        ] {
            assert!(Path::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_structure() {
        let p = Path::parse("//station[@id='7']/name/text()").unwrap();
        assert!(!p.absolute);
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(
            p.steps[0].predicate,
            Some(Predicate::AttrEquals {
                name: "id".into(),
                value: "7".into()
            })
        );
        assert_eq!(p.leaf, Leaf::Text);
    }

    /// A random element under `name`: attributes from `x`/`y`, and children
    /// mixing elements, text runs and CDATA, so an element can hold zero,
    /// one or several text nodes.
    fn random_element(rng: &mut sc_encoding::Rng, name: &str, depth: usize, out: &mut String) {
        out.push('<');
        out.push_str(name);
        for attr in ["x", "y"] {
            if rng.gen_bool(0.4) {
                out.push_str(&format!(" {attr}='{}'", rng.gen_range(2) + 1));
            }
        }
        out.push('>');
        for _ in 0..rng.gen_range(5) {
            match rng.gen_range(4) {
                0 | 1 if depth < 4 => {
                    let child = *rng.choice(&["a", "b", "c"]);
                    random_element(rng, child, depth + 1, out);
                }
                2 => out.push_str(&format!("<![CDATA[c{}]]>", rng.gen_range(10))),
                _ => out.push_str(&format!("t{}", rng.gen_range(10))),
            }
        }
        out.push_str(&format!("</{name}>"));
    }

    /// A random path expression using every form the grammar has.
    fn random_path(rng: &mut sc_encoding::Rng) -> String {
        let mut p = String::from(*rng.choice(&["", "/", "//"]));
        let steps = rng.gen_range(4) as usize;
        for i in 0..steps {
            if i > 0 {
                let sep = *rng.choice(&["/", "//"]);
                p.push_str(sep);
            }
            let name = *rng.choice(&["r", "a", "b", "c", "*"]);
            p.push_str(name);
            match rng.gen_range(5) {
                0 => p.push_str(&format!("[@x='{}']", rng.gen_range(2) + 1)),
                1 => p.push_str(&format!("[{}]", rng.gen_range(3) + 1)),
                _ => {}
            }
        }
        let leaf = *rng.choice(&["", "@x", "@y", "text()"]);
        if !leaf.is_empty() {
            if steps > 0 {
                p.push('/');
            }
            p.push_str(leaf);
        }
        p
    }

    #[test]
    fn first_agrees_with_select_values() {
        let mut rng = sc_encoding::Rng::new(25);
        let (mut checked, mut found, mut owned) = (0, 0, 0);
        for _ in 0..300 {
            let mut xml = String::new();
            random_element(&mut rng, "r", 0, &mut xml);
            let doc = FlatDocument::parse(&xml).unwrap();
            for _ in 0..40 {
                let expr = random_path(&mut rng);
                let Ok(path) = Path::parse(&expr) else {
                    continue;
                };
                let first = path.first(doc.root());
                let positional = path
                    .steps
                    .iter()
                    .any(|s| matches!(s.predicate, Some(Predicate::Index(_))));
                owned += usize::from(!positional && matches!(first, Some(Cow::Owned(_))));
                found += usize::from(first.is_some());
                assert_eq!(
                    first.map(Cow::into_owned),
                    path.select_values(doc.root()).into_iter().next(),
                    "{expr} over {xml}"
                );
                checked += 1;
            }
        }
        assert!(checked > 5_000, "only {checked} paths parsed");
        assert!(
            found > checked / 10,
            "only {found} of {checked} paths matched"
        );
        assert!(
            owned > 100,
            "several text runs were joined only {owned} times"
        );
    }
}
