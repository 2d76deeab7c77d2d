//! An owned document tree over the pull parser, plus a serializer.
//!
//! [`Document::parse`] builds a [`Element`] tree from text;
//! [`Document::to_xml`] writes it back out (round-trip tested).

use crate::parser::{escape_attr, escape_text, XmlError, XmlEvent, XmlParser};
use std::fmt::Write as _;

/// A node in the document tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlNode {
    /// A child element.
    Element(Element),
    /// A run of character data.
    Text(String),
}

/// An XML element: name, attributes and ordered children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Ordered children (elements and text runs).
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Create an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Child elements (skipping text runs).
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|c| match c {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }
}

/// A parsed XML document: one root element.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Document {
    /// The document (root) element.
    pub root: Element,
}

impl Document {
    /// Parse a complete document (exactly one root element — the parser
    /// enforces well-formedness); comments and processing instructions are
    /// discarded.
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        let mut parser = XmlParser::new(input);
        let mut stack: Vec<Element> = Vec::new();
        let mut root: Option<Element> = None;
        while let Some(event) = parser.next()? {
            match event {
                XmlEvent::StartElement {
                    name,
                    attributes,
                    self_closing,
                } => {
                    let elem = Element {
                        name,
                        attributes,
                        children: Vec::new(),
                    };
                    if self_closing {
                        attach(&mut stack, &mut root, elem);
                    } else {
                        stack.push(elem);
                    }
                }
                XmlEvent::EndElement { .. } => {
                    if let Some(elem) = stack.pop() {
                        attach(&mut stack, &mut root, elem);
                    }
                }
                XmlEvent::Text(t) => {
                    if let Some(top) = stack.last_mut() {
                        top.children.push(XmlNode::Text(t));
                    }
                }
                XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction(_) => {}
            }
        }
        // `next` returns `None` only once exactly one root element closed.
        let root = root.expect("the parser ends only after the root element closes");
        Ok(Document { root })
    }

    /// Serialize with an XML declaration and 2-space indentation.
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        write_element(&mut out, &self.root, 0);
        out
    }
}

fn attach(stack: &mut [Element], root: &mut Option<Element>, elem: Element) {
    if let Some(top) = stack.last_mut() {
        top.children.push(XmlNode::Element(elem));
    } else {
        *root = Some(elem);
    }
}

fn write_element(out: &mut String, elem: &Element, depth: usize) {
    let pad = "  ".repeat(depth);
    let _ = write!(out, "{pad}<{}", elem.name);
    for (k, v) in &elem.attributes {
        let _ = write!(out, " {k}=\"{}\"", escape_attr(v));
    }
    if elem.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    // Mixed/text content is written inline; element-only content indented.
    let has_text = elem
        .children
        .iter()
        .any(|c| matches!(c, XmlNode::Text(_)));
    if has_text {
        out.push('>');
        for c in &elem.children {
            match c {
                XmlNode::Text(t) => out.push_str(&escape_text(t)),
                XmlNode::Element(e) => {
                    // Rare mixed content: inline without indentation.
                    let mut inner = String::new();
                    write_element(&mut inner, e, 0);
                    out.push_str(inner.trim_end_matches('\n'));
                }
            }
        }
        let _ = writeln!(out, "</{}>", elem.name);
    } else {
        out.push_str(">\n");
        for c in &elem.children {
            if let XmlNode::Element(e) = c {
                write_element(out, e, depth + 1);
            }
        }
        let _ = writeln!(out, "{pad}</{}>", elem.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = Document::parse("<a x=\"1\"><b>t</b><c/></a>").unwrap();
        let mut b = Element::new("b");
        b.children.push(XmlNode::Text("t".into()));
        let mut a = Element::new("a");
        a.attributes.push(("x".into(), "1".into()));
        a.children = vec![XmlNode::Element(b), XmlNode::Element(Element::new("c"))];
        assert_eq!(doc.root, a);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let src = "<site><people><person id=\"p0\"><name>A &amp; B</name></person></people><refs><r person=\"p0\"/></refs></site>";
        let doc = Document::parse(src).unwrap();
        let printed = doc.to_xml();
        let doc2 = Document::parse(&printed).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn round_trip_with_special_characters() {
        let mut e = Element::new("a");
        e.attributes.push(("t".into(), "x<y & \"z\"".into()));
        e.children.push(XmlNode::Text("1 < 2 & 3 > 2".into()));
        let doc = Document { root: e };
        let doc2 = Document::parse(&doc.to_xml()).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn comments_and_pis_are_dropped() {
        let doc = Document::parse("<?xml version=\"1.0\"?><a><!-- c --><b/></a>").unwrap();
        assert_eq!(doc.root.child_elements().count(), 1);
    }
}
