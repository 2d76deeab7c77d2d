//! A small pull (event) parser for the XML subset needed by the datasets in
//! the paper's evaluation: elements, attributes, character data, CDATA,
//! comments, processing instructions, the XML declaration and the five
//! predefined entities plus numeric character references.
//!
//! Not supported (not needed for the XMark/NASA-style datasets): DTD-internal
//! subsets beyond skipping `<!DOCTYPE ...>`, namespaces-aware processing
//! (prefixes are kept verbatim in names) and custom entity definitions.
//!
//! The parser is the one place well-formedness is checked: every event it
//! yields belongs to a document with exactly one root element whose tags
//! nest, and a document that breaks that is an [`XmlError`] at the byte
//! where it breaks. Consumers ([`crate::parse_into`],
//! [`crate::stream_to_graph`]) trust the event order.

use std::fmt;

/// Position-annotated parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input where the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XmlError {}

/// One parse event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlEvent {
    /// `<name attr="v" ...>`; `self_closing` for `<name/>`.
    StartElement {
        /// Tag name (prefix kept verbatim).
        name: String,
        /// Attributes in document order.
        attributes: Vec<(String, String)>,
        /// True for `<name/>` (no matching `EndElement` will follow).
        self_closing: bool,
    },
    /// `</name>`.
    EndElement {
        /// Tag name.
        name: String,
    },
    /// Character data (entities decoded, CDATA included verbatim).
    Text(String),
    /// `<!-- ... -->` contents.
    Comment(String),
    /// `<?target data?>` (including the XML declaration).
    ProcessingInstruction(String),
}

/// Resource limits enforced while parsing — defence against hostile inputs
/// (pathological nesting that would overflow recursive consumers, or
/// entity-reference floods). Exceeding a limit is an ordinary [`XmlError`],
/// never a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XmlLimits {
    /// Maximum open-element nesting depth.
    pub max_depth: usize,
    /// Maximum number of entity/character references decoded across the
    /// whole document.
    pub max_entity_refs: usize,
}

impl Default for XmlLimits {
    fn default() -> Self {
        // Generous for real datasets (XMark nests ~12 deep), tight enough
        // that adversarial documents fail fast.
        XmlLimits {
            max_depth: 512,
            max_entity_refs: 1 << 20,
        }
    }
}

impl XmlLimits {
    /// No limits (the pre-hardening behaviour).
    pub fn unlimited() -> Self {
        XmlLimits {
            max_depth: usize::MAX,
            max_entity_refs: usize::MAX,
        }
    }
}

/// Streaming XML pull parser over an in-memory string.
pub struct XmlParser<'a> {
    input: &'a str,
    pos: usize,
    limits: XmlLimits,
    /// Names of the open elements, innermost last.
    open: Vec<&'a str>,
    /// A root element has started (a second one is an error).
    seen_root: bool,
    entity_refs: usize,
}

impl<'a> XmlParser<'a> {
    /// Create a parser over `input` with the default [`XmlLimits`].
    pub fn new(input: &'a str) -> Self {
        XmlParser::with_limits(input, XmlLimits::default())
    }

    /// Create a parser over `input` with explicit limits.
    pub fn with_limits(input: &'a str, limits: XmlLimits) -> Self {
        XmlParser {
            input,
            pos: 0,
            limits,
            open: Vec::new(),
            seen_root: false,
            entity_refs: 0,
        }
    }

    /// Decode entities while charging the document-wide reference budget.
    fn decode(&mut self, raw: &str, at: usize) -> Result<String, XmlError> {
        let (text, used) = decode_entities_counted(raw, at)?;
        self.entity_refs = self.entity_refs.saturating_add(used);
        if self.entity_refs > self.limits.max_entity_refs {
            return Err(XmlError {
                position: at,
                message: format!(
                    "more than {} entity references in document",
                    self.limits.max_entity_refs
                ),
            });
        }
        Ok(text)
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        error_at(self.pos, message)
    }

    /// Character data at `at` is legal only inside the root element.
    fn text(&self, text: String, at: usize) -> Result<Option<XmlEvent>, XmlError> {
        if self.open.is_empty() {
            return Err(error_at(at, "text outside the root element"));
        }
        Ok(Some(XmlEvent::Text(text)))
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn advance(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        let trimmed = self.rest().trim_start_matches([' ', '\t', '\r', '\n']);
        self.pos = self.input.len() - trimmed.len();
    }

    fn take_until(&mut self, delim: &str, what: &str) -> Result<&'a str, XmlError> {
        match self.rest().find(delim) {
            Some(i) => {
                let s = &self.rest()[..i];
                self.advance(i + delim.len());
                Ok(s)
            }
            None => Err(self.err(format!("unterminated {what} (expected {delim:?})"))),
        }
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|&(_, c)| !is_name_char(c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err("expected a name"));
        }
        let name = &rest[..end];
        if name.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '.') {
            return Err(self.err(format!("invalid name start in {name:?}")));
        }
        self.advance(end);
        Ok(name)
    }

    fn read_attributes(&mut self) -> Result<Vec<(String, String)>, XmlError> {
        let mut attrs = Vec::new();
        loop {
            self.skip_whitespace();
            let Some(c) = self.rest().chars().next() else {
                return Err(self.err("unterminated start tag"));
            };
            if c == '>' || c == '/' || c == '?' {
                return Ok(attrs);
            }
            let name = self.read_name()?;
            self.skip_whitespace();
            if !self.starts_with("=") {
                return Err(self.err(format!("attribute {name:?} missing '='")));
            }
            self.advance(1);
            self.skip_whitespace();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.err(format!("attribute {name:?} value must be quoted"))),
            };
            self.advance(1);
            let raw = self.take_until(&quote.to_string(), "attribute value")?;
            let at = self.pos;
            attrs.push((name.to_string(), self.decode(raw, at)?));
        }
    }

    /// Pull the next event, or `None` at the end of a well-formed document.
    #[expect(
        clippy::should_implement_trait,
        reason = "a fallible iterator: next() mirrors the pull-parser convention"
    )]
    pub fn next(&mut self) -> Result<Option<XmlEvent>, XmlError> {
        if self.pos >= self.input.len() {
            if let Some(open) = self.open.last() {
                return Err(self.err(format!("unclosed element <{open}>")));
            }
            if !self.seen_root {
                return Err(self.err("empty document"));
            }
            return Ok(None);
        }
        if !self.starts_with("<") {
            // Character data up to the next tag.
            let end = self.rest().find('<').unwrap_or(self.rest().len());
            let raw = &self.rest()[..end];
            let at = self.pos;
            self.advance(end);
            let text = self.decode(raw, at)?;
            if text.trim().is_empty() {
                // Skip inter-element whitespace and continue pulling.
                return self.next();
            }
            return self.text(text, at);
        }
        if self.starts_with("<!--") {
            self.advance(4);
            let body = self.take_until("-->", "comment")?;
            return Ok(Some(XmlEvent::Comment(body.to_string())));
        }
        let start = self.pos;
        if self.starts_with("<![CDATA[") {
            self.advance(9);
            let body = self.take_until("]]>", "CDATA section")?;
            return self.text(body.to_string(), start);
        }
        if self.starts_with("<!DOCTYPE") {
            // Skip the doctype, honoring one level of [...] subset.
            let rest = self.rest();
            let mut depth = 0usize;
            for (i, c) in rest.char_indices() {
                match c {
                    '[' => depth += 1,
                    ']' => depth = depth.saturating_sub(1),
                    '>' if depth == 0 => {
                        self.advance(i + 1);
                        return self.next();
                    }
                    _ => {}
                }
            }
            return Err(self.err("unterminated DOCTYPE"));
        }
        if self.starts_with("<?") {
            self.advance(2);
            let body = self.take_until("?>", "processing instruction")?;
            return Ok(Some(XmlEvent::ProcessingInstruction(body.to_string())));
        }
        if self.starts_with("</") {
            self.advance(2);
            let name = self.read_name()?;
            self.skip_whitespace();
            if !self.starts_with(">") {
                return Err(self.err(format!("malformed end tag </{name}")));
            }
            self.advance(1);
            return match self.open.pop() {
                Some(open) if open == name => Ok(Some(XmlEvent::EndElement {
                    name: name.to_string(),
                })),
                Some(open) => Err(error_at(
                    start,
                    format!("mismatched end tag: <{open}> closed by </{name}>"),
                )),
                None => Err(error_at(start, format!("unmatched end tag </{name}>"))),
            };
        }
        // Start tag.
        if self.open.is_empty() && self.seen_root {
            return Err(self.err("multiple root elements"));
        }
        self.seen_root = true;
        self.advance(1);
        let name = self.read_name()?;
        let attributes = self.read_attributes()?;
        self.skip_whitespace();
        if self.starts_with("/>") {
            self.advance(2);
            return Ok(Some(XmlEvent::StartElement {
                name: name.to_string(),
                attributes,
                self_closing: true,
            }));
        }
        if self.starts_with(">") {
            self.advance(1);
            self.open.push(name);
            if self.open.len() > self.limits.max_depth {
                return Err(self.err(format!(
                    "element nesting deeper than {} levels",
                    self.limits.max_depth
                )));
            }
            return Ok(Some(XmlEvent::StartElement {
                name: name.to_string(),
                attributes,
                self_closing: false,
            }));
        }
        Err(self.err(format!("malformed start tag <{name}")))
    }

    /// Collect every event (convenience for tests and small documents).
    pub fn into_events(mut self) -> Result<Vec<XmlEvent>, XmlError> {
        let mut events = Vec::new();
        while let Some(e) = self.next()? {
            events.push(e);
        }
        Ok(events)
    }
}

fn error_at(position: usize, message: impl Into<String>) -> XmlError {
    XmlError {
        position,
        message: message.into(),
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':')
}

/// Decode the five predefined entities and numeric character references.
pub fn decode_entities(raw: &str, position: usize) -> Result<String, XmlError> {
    decode_entities_counted(raw, position).map(|(text, _)| text)
}

/// [`decode_entities`] plus the number of references that were expanded, so
/// the parser can charge them against [`XmlLimits::max_entity_refs`].
fn decode_entities_counted(raw: &str, position: usize) -> Result<(String, usize), XmlError> {
    if !raw.contains('&') {
        return Ok((raw.to_string(), 0));
    }
    let mut out = String::with_capacity(raw.len());
    let mut used = 0usize;
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let Some(semi) = rest.find(';') else {
            return Err(XmlError {
                position,
                message: "unterminated entity reference".to_string(),
            });
        };
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16).map_err(|_| XmlError {
                    position,
                    message: format!("bad hex character reference &{entity};"),
                })?;
                out.push(char::from_u32(code).ok_or_else(|| XmlError {
                    position,
                    message: format!("invalid character reference &{entity};"),
                })?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..].parse().map_err(|_| XmlError {
                    position,
                    message: format!("bad character reference &{entity};"),
                })?;
                out.push(char::from_u32(code).ok_or_else(|| XmlError {
                    position,
                    message: format!("invalid character reference &{entity};"),
                })?);
            }
            _ => {
                return Err(XmlError {
                    position,
                    message: format!("unknown entity &{entity};"),
                })
            }
        }
        used += 1;
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok((out, used))
}

/// Escape text content for serialization.
pub fn escape_text(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Escape an attribute value for serialization (double-quoted context).
pub fn escape_attr(s: &str) -> String {
    escape_text(s).replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(s: &str) -> Vec<XmlEvent> {
        XmlParser::new(s).into_events().unwrap()
    }

    #[test]
    fn parses_simple_element_with_text() {
        let ev = events("<a>hello</a>");
        assert_eq!(
            ev,
            vec![
                XmlEvent::StartElement {
                    name: "a".into(),
                    attributes: vec![],
                    self_closing: false
                },
                XmlEvent::Text("hello".into()),
                XmlEvent::EndElement { name: "a".into() },
            ]
        );
    }

    #[test]
    fn parses_attributes_both_quote_styles() {
        let ev = events(r#"<item id="i1" ref='p2'/>"#);
        assert_eq!(
            ev,
            vec![XmlEvent::StartElement {
                name: "item".into(),
                attributes: vec![("id".into(), "i1".into()), ("ref".into(), "p2".into())],
                self_closing: true
            }]
        );
    }

    #[test]
    fn skips_declaration_comment_doctype() {
        let ev = events("<?xml version=\"1.0\"?><!DOCTYPE site SYSTEM \"a.dtd\"><!-- hi --><r/>");
        assert_eq!(ev.len(), 3);
        assert!(matches!(ev[0], XmlEvent::ProcessingInstruction(_)));
        assert!(matches!(ev[1], XmlEvent::Comment(_)));
        assert!(matches!(ev[2], XmlEvent::StartElement { ref name, .. } if name == "r"));
    }

    #[test]
    fn doctype_with_internal_subset() {
        let ev = events("<!DOCTYPE r [<!ELEMENT r (#PCDATA)>]><r/>");
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn decodes_entities_in_text_and_attrs() {
        let ev = events(r#"<a t="x &amp; &quot;y&quot;">1 &lt; 2 &#65;&#x42;</a>"#);
        match &ev[0] {
            XmlEvent::StartElement { attributes, .. } => {
                assert_eq!(attributes[0].1, "x & \"y\"");
            }
            _ => panic!(),
        }
        assert_eq!(ev[1], XmlEvent::Text("1 < 2 AB".into()));
    }

    #[test]
    fn cdata_passes_verbatim() {
        let ev = events("<a><![CDATA[<not> &amp; parsed]]></a>");
        assert_eq!(ev[1], XmlEvent::Text("<not> &amp; parsed".into()));
    }

    #[test]
    fn whitespace_between_elements_is_skipped() {
        let ev = events("<a>\n  <b/>\n</a>");
        assert_eq!(ev.len(), 3);
    }

    #[test]
    fn rejects_unterminated_tag() {
        assert!(XmlParser::new("<a").into_events().is_err());
        assert!(XmlParser::new("<a foo>").into_events().is_err());
        assert!(XmlParser::new("<!-- never closed").into_events().is_err());
    }

    /// The five well-formedness errors, each at the byte where the document
    /// breaks: the start of the offending tag or text, or the end of input.
    /// `parse_into` and `stream_to_graph` get them from here.
    #[test]
    fn well_formedness_errors_carry_their_position() {
        let cases = [
            ("<a><b></a></b>", 6, "mismatched end tag: <b> closed by </a>"),
            ("</a>", 0, "unmatched end tag </a>"),
            ("<a/></a>", 4, "unmatched end tag </a>"),
            ("<a/><b/>", 4, "multiple root elements"),
            ("text<a/>", 0, "text outside the root element"),
            ("<a/>tail", 4, "text outside the root element"),
            ("<a/><![CDATA[x]]>", 4, "text outside the root element"),
            ("<a><b/>", 7, "unclosed element <a>"),
            ("", 0, "empty document"),
            ("<?xml version=\"1.0\"?>\n<!-- c -->\n", 33, "empty document"),
        ];
        for (doc, position, message) in cases {
            let err = XmlParser::new(doc).into_events().unwrap_err();
            assert_eq!(err, XmlError { position, message: message.into() }, "{doc:?}");
        }
    }

    #[test]
    fn rejects_unknown_entity() {
        let err = XmlParser::new("<a>&nope;</a>").into_events().unwrap_err();
        assert!(err.message.contains("unknown entity"));
    }

    #[test]
    fn rejects_bad_name() {
        assert!(XmlParser::new("<1abc/>").into_events().is_err());
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "a<b & \"c\" > d";
        let escaped = escape_attr(nasty);
        assert_eq!(decode_entities(&escaped, 0).unwrap(), nasty);
    }

    #[test]
    fn numeric_entity_out_of_range_is_rejected() {
        assert!(XmlParser::new("<a>&#x110000;</a>").into_events().is_err());
        assert!(XmlParser::new("<a>&#xD800;</a>").into_events().is_err()); // surrogate
        assert!(XmlParser::new("<a>&#99999999999;</a>").into_events().is_err());
    }

    #[test]
    fn unquoted_attribute_value_is_rejected() {
        assert!(XmlParser::new("<a k=v/>").into_events().is_err());
    }

    #[test]
    fn nested_doctype_brackets_are_skipped() {
        let ev = events("<!DOCTYPE r [<!ENTITY x \"[y]\">]><r/>");
        assert_eq!(ev.len(), 1);
    }

    #[test]
    fn crlf_whitespace_between_elements() {
        let ev = events("<a>\r\n  <b/>\r\n</a>");
        assert_eq!(ev.len(), 3);
    }

    #[test]
    fn empty_cdata_and_comment() {
        let ev = events("<a><![CDATA[]]><!----></a>");
        // CDATA is verbatim: even an empty section yields a text event
        // (unlike character data, which folds pure whitespace away).
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[1], XmlEvent::Text(String::new()));
        assert!(matches!(ev[2], XmlEvent::Comment(_)));
    }

    #[test]
    fn namespaced_names_kept_verbatim() {
        let ev = events("<ns:a xlink:href=\"x\"/>");
        match &ev[0] {
            XmlEvent::StartElement { name, attributes, .. } => {
                assert_eq!(name, "ns:a");
                assert_eq!(attributes[0].0, "xlink:href");
            }
            _ => panic!(),
        }
    }

    fn nested_doc(depth: usize) -> String {
        let mut doc = String::new();
        for _ in 0..depth {
            doc.push_str("<a>");
        }
        for _ in 0..depth {
            doc.push_str("</a>");
        }
        doc
    }

    #[test]
    fn default_limits_reject_pathological_nesting() {
        let doc = nested_doc(600);
        let err = XmlParser::new(&doc).into_events().unwrap_err();
        assert!(err.message.contains("nesting"), "message: {}", err.message);
        // The same document parses fine without limits.
        let ev = XmlParser::with_limits(&doc, XmlLimits::unlimited())
            .into_events()
            .unwrap();
        assert_eq!(ev.len(), 1200);
    }

    #[test]
    fn documents_at_the_depth_limit_still_parse() {
        let doc = nested_doc(512);
        assert!(XmlParser::new(&doc).into_events().is_ok());
    }

    #[test]
    fn custom_depth_limit_is_enforced() {
        let doc = nested_doc(4);
        let tight = XmlLimits {
            max_depth: 3,
            ..XmlLimits::default()
        };
        assert!(XmlParser::with_limits(&doc, tight).into_events().is_err());
        let exact = XmlLimits {
            max_depth: 4,
            ..XmlLimits::default()
        };
        assert!(XmlParser::with_limits(&doc, exact).into_events().is_ok());
    }

    #[test]
    fn entity_flood_is_rejected() {
        let mut doc = String::from("<a>");
        for _ in 0..100 {
            doc.push_str("&amp;");
        }
        doc.push_str("</a>");
        let tight = XmlLimits {
            max_entity_refs: 99,
            ..XmlLimits::default()
        };
        let err = XmlParser::with_limits(&doc, tight).into_events().unwrap_err();
        assert!(err.message.contains("entity references"), "message: {}", err.message);
        // 100 references are fine at the exact budget and under defaults.
        let exact = XmlLimits {
            max_entity_refs: 100,
            ..XmlLimits::default()
        };
        assert!(XmlParser::with_limits(&doc, exact).into_events().is_ok());
        assert!(XmlParser::new(&doc).into_events().is_ok());
    }

    #[test]
    fn entity_budget_counts_attributes_too() {
        let doc = r#"<a k="&lt;&gt;&amp;"/>"#;
        let tight = XmlLimits {
            max_entity_refs: 2,
            ..XmlLimits::default()
        };
        assert!(XmlParser::with_limits(doc, tight).into_events().is_err());
    }
}
