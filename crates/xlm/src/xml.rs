//! A minimal, dependency-free XML document model, parser and writer.
//!
//! Scope: what the xLM and PDI formats need — elements, attributes
//! (single- or double-quoted), text content, comments, processing
//! instructions/prolog (skipped), self-closing tags, and the five
//! predefined entities. No namespaces, DTDs or CDATA.

use std::fmt;

/// One XML element.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct XmlNode {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlNode>,
    /// Concatenated text content directly under this element (trimmed).
    pub text: String,
}

impl XmlNode {
    /// New element with a tag name.
    pub fn new(name: impl Into<String>) -> Self {
        XmlNode {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Builder: adds an attribute.
    pub fn attr(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.attrs.push((key.into(), value.to_string()));
        self
    }

    /// Builder: adds a child.
    pub fn child(mut self, child: XmlNode) -> Self {
        self.children.push(child);
        self
    }

    /// Attribute lookup.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child with the given tag name.
    pub fn find(&self, name: &str) -> Option<&XmlNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All children with the given tag name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a XmlNode> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Serialises the element (and subtree) with 2-space indentation.
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        self.write_into(&mut out, 0);
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&pad);
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape(v));
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>\n");
            return;
        }
        out.push('>');
        if !self.text.is_empty() {
            out.push_str(&escape(&self.text));
        }
        if !self.children.is_empty() {
            out.push('\n');
            for c in &self.children {
                c.write_into(out, depth + 1);
            }
            out.push_str(&pad);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push_str(">\n");
    }
}

/// Escapes the five predefined entities.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, XmlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, ch)) = chars.next() {
        if ch != '&' {
            out.push(ch);
            continue;
        }
        let rest = &s[i..];
        let end = rest
            .find(';')
            .ok_or_else(|| XmlError::at(i, "unterminated entity"))?;
        let ent = &rest[1..end];
        out.push(match ent {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => return Err(XmlError::at(i, "unknown entity")),
        });
        // skip the entity body
        for _ in 0..end {
            chars.next();
        }
    }
    Ok(out)
}

/// Parse errors with byte offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl XmlError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        XmlError {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

struct Parser<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<char> {
        self.s[self.pos..].chars().next()
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn expect(&mut self, pat: &str) -> Result<(), XmlError> {
        if self.starts_with(pat) {
            self.pos += pat.len();
            Ok(())
        } else {
            Err(XmlError::at(self.pos, format!("expected `{pat}`")))
        }
    }

    fn skip_misc(&mut self) -> Result<(), XmlError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let end = self.s[self.pos..]
                    .find("-->")
                    .ok_or_else(|| XmlError::at(self.pos, "unterminated comment"))?;
                self.pos += end + 3;
            } else if self.starts_with("<?") {
                let end = self.s[self.pos..]
                    .find("?>")
                    .ok_or_else(|| XmlError::at(self.pos, "unterminated processing instruction"))?;
                self.pos += end + 2;
            } else {
                return Ok(());
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || "_-.:".contains(c)) {
            self.bump();
        }
        if self.pos == start {
            return Err(XmlError::at(start, "expected a name"));
        }
        Ok(self.s[start..self.pos].to_string())
    }

    fn attribute(&mut self) -> Result<(String, String), XmlError> {
        let key = self.name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            _ => return Err(XmlError::at(self.pos, "expected quoted attribute value")),
        };
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                break;
            }
            self.bump();
        }
        let raw = &self.s[start..self.pos];
        self.expect(&quote.to_string())?;
        Ok((key, unescape(raw)?))
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        self.expect("<")?;
        let name = self.name()?;
        let mut node = XmlNode::new(name);
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.pos += 2;
                return Ok(node);
            }
            if self.starts_with(">") {
                self.pos += 1;
                break;
            }
            node.attrs.push(self.attribute()?);
        }
        // content
        let mut text = String::new();
        loop {
            if self.starts_with("<!--") || self.starts_with("<?") {
                self.skip_misc()?;
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != node.name {
                    return Err(XmlError::at(
                        self.pos,
                        format!("mismatched close tag `{close}` for `{}`", node.name),
                    ));
                }
                self.skip_ws();
                self.expect(">")?;
                node.text = unescape(text.trim())?;
                return Ok(node);
            }
            if self.starts_with("<") {
                node.children.push(self.element()?);
                continue;
            }
            match self.bump() {
                Some(c) => text.push(c),
                None => return Err(XmlError::at(self.pos, "unexpected end of input")),
            }
        }
    }
}

/// Parses a document, returning its root element.
pub fn parse(input: &str) -> Result<XmlNode, XmlError> {
    let mut p = Parser { s: input, pos: 0 };
    p.skip_misc()?;
    let root = p.element()?;
    p.skip_misc()?;
    if p.pos != input.len() {
        return Err(XmlError::at(p.pos, "trailing content after root element"));
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_document() {
        let doc = r#"<?xml version="1.0"?>
<!-- a flow -->
<flow name="demo">
  <node id="n0" type="extract"/>
  <node id="n1" type="load">text here</node>
</flow>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.name, "flow");
        assert_eq!(root.get_attr("name"), Some("demo"));
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[1].text, "text here");
        assert_eq!(root.find("node").unwrap().get_attr("id"), Some("n0"));
        assert_eq!(root.find_all("node").count(), 2);
    }

    #[test]
    fn entities_roundtrip() {
        let doc = r#"<a v="x &amp; y &lt; z">&quot;hi&apos;&gt;</a>"#;
        let root = parse(doc).unwrap();
        assert_eq!(root.get_attr("v"), Some("x & y < z"));
        assert_eq!(root.text, "\"hi'>");
    }

    #[test]
    fn single_quoted_attributes() {
        let root = parse(r#"<a v='single "inner"'/>"#).unwrap();
        assert_eq!(root.get_attr("v"), Some("single \"inner\""));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn unterminated_comment_rejected() {
        assert!(parse("<!-- oops <a/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&bogus;</a>").is_err());
    }

    #[test]
    fn writer_then_parser_roundtrip() {
        let mut text = XmlNode::new("node")
            .attr("id", "n0")
            .attr("expr", "(a > 1) AND 'it''s'");
        text.text = "some <text>".into();
        let node = XmlNode::new("design")
            .attr("name", "x & y")
            .child(text)
            .child(XmlNode::new("empty"));
        let xml = node.to_xml();
        let parsed = parse(&xml).unwrap();
        assert_eq!(parsed, node);
    }

    #[test]
    fn deep_nesting_roundtrip() {
        let mut node = XmlNode::new("leaf").attr("depth", 0);
        for d in 1..30 {
            node = XmlNode::new("level").attr("depth", d).child(node);
        }
        let parsed = parse(&node.to_xml()).unwrap();
        assert_eq!(parsed, node);
    }
}
