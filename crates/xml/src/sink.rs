//! The element-event face every producer of XML writes through.
//!
//! An [`XmlSink`] takes one document as element events in document order:
//! [`XmlSink::start`] with the element's attributes, [`XmlSink::text`] for
//! character data, [`XmlSink::end`] when the innermost element closes. The
//! parser drives a sink from text ([`parse_into`]), the dataset generators
//! drive one directly, and the two sinks are
//! [`GraphBuilder`](crate::GraphBuilder) (the graph) and [`XmlWriter`] (the
//! text).
//!
//! ```
//! use dkindex_xml::{parse_into, XmlSink, XmlWriter};
//!
//! let mut w = XmlWriter::new();
//! w.start("db", &[("id".to_string(), "a&b".to_string())]);
//! w.leaf("a");
//! w.text("1 < 2");
//! w.end();
//! let text = w.into_string();
//! assert_eq!(text, r#"<db id="a&amp;b"><a/>1 &lt; 2</db>"#);
//!
//! let mut again = XmlWriter::new();
//! parse_into(&text, &mut again).unwrap();
//! assert_eq!(again.into_string(), text);
//! ```

use crate::parser::{escape_attr, escape_text, XmlError, XmlEvent, XmlParser};
use std::fmt::Write as _;

/// A consumer of element events. Its methods cannot fail: a sink that can
/// reject a document (the graph builder's duplicate ids) reports it when
/// it is finished.
pub trait XmlSink {
    /// An element opens, with its attributes in document order.
    fn start(&mut self, name: &str, attributes: &[(String, String)]);
    /// Character data inside the innermost open element.
    fn text(&mut self, text: &str);
    /// The innermost open element closes.
    fn end(&mut self);
    /// An element with no attributes and no content.
    fn leaf(&mut self, name: &str) {
        self.start(name, &[]);
        self.end();
    }
}

/// Parse `input` and feed its element events to `sink`; comments and
/// processing instructions are dropped. On an [`XmlError`] the sink has
/// seen the events before the break.
pub fn parse_into(input: &str, sink: &mut impl XmlSink) -> Result<(), XmlError> {
    let mut parser = XmlParser::new(input);
    while let Some(event) = parser.next()? {
        match event {
            XmlEvent::StartElement {
                name,
                attributes,
                self_closing,
            } => {
                sink.start(&name, &attributes);
                if self_closing {
                    sink.end();
                }
            }
            XmlEvent::EndElement { .. } => sink.end(),
            XmlEvent::Text(t) => sink.text(&t),
            XmlEvent::Comment(_) | XmlEvent::ProcessingInstruction(_) => {}
        }
    }
    Ok(())
}

/// Writes the events as unindented XML text; an element without content
/// is written `<name/>`.
#[derive(Debug, Default)]
pub struct XmlWriter {
    out: String,
    open: Vec<String>,
    /// The last start tag still lacks its `>`.
    tag_pending: bool,
}

impl XmlWriter {
    /// An empty writer.
    pub fn new() -> Self {
        XmlWriter::default()
    }

    /// The text written so far.
    pub fn into_string(self) -> String {
        self.out
    }

    fn close_start_tag(&mut self) {
        if std::mem::take(&mut self.tag_pending) {
            self.out.push('>');
        }
    }
}

impl XmlSink for XmlWriter {
    fn start(&mut self, name: &str, attributes: &[(String, String)]) {
        self.close_start_tag();
        let _ = write!(self.out, "<{name}");
        for (k, v) in attributes {
            let _ = write!(self.out, " {k}=\"{}\"", escape_attr(v));
        }
        self.open.push(name.to_string());
        self.tag_pending = true;
    }

    fn text(&mut self, text: &str) {
        self.close_start_tag();
        self.out.push_str(&escape_text(text));
    }

    fn end(&mut self) {
        let Some(name) = self.open.pop() else { return };
        if std::mem::take(&mut self.tag_pending) {
            self.out.push_str("/>");
        } else {
            let _ = write!(self.out, "</{name}>");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rewrite(input: &str) -> String {
        let mut w = XmlWriter::new();
        parse_into(input, &mut w).unwrap();
        w.into_string()
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let src = "<site><people><person id=\"p0\"><name>A &amp; B</name></person></people><refs><r person=\"p0\"/></refs></site>";
        assert_eq!(rewrite(src), src);
    }

    #[test]
    fn special_characters_are_escaped() {
        let mut w = XmlWriter::new();
        w.start("a", &[("t".into(), "x<y & \"z\"".into())]);
        w.text("1 < 2 & 3 > 2");
        w.end();
        let text = w.into_string();
        assert_eq!(text, r#"<a t="x&lt;y &amp; &quot;z&quot;">1 &lt; 2 &amp; 3 &gt; 2</a>"#);
        assert_eq!(rewrite(&text), text);
    }

    #[test]
    fn comments_pis_and_blank_text_are_dropped() {
        assert_eq!(
            rewrite("<?xml version=\"1.0\"?><a>\n  <!-- c --><b></b>\n</a>"),
            "<a><b/></a>"
        );
    }
}
