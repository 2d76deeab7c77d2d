//! Parser for the paper's regular path expression grammar:
//!
//! ```text
//! expr   = seq ('|' seq)*
//! seq    = post ('.' post)*
//! post   = atom ('?' | '*')*
//! atom   = LABEL | '_' | '(' expr ')'
//! ```
//!
//! Labels are XML-name-like: a letter or `_`-free start character followed by
//! letters, digits, `-` and `:`. The bare `_` token is the wildcard.
//!
//! Query text comes from outside the program, and this parser and every
//! consumer of its AST (`Nfa` compilation, `Display`, `max_word_len`, `Clone`,
//! `Hash`, `Drop`) recurse on the expression's shape, so the lexer bounds it
//! first: over [`MAX_QUERY_NESTING`] or [`MAX_QUERY_NODES`] is an ordinary
//! [`ParseError`], never a stack overflow.

use crate::ast::PathExpr;
use std::fmt;

/// Deepest accepted parenthesis nesting; each level costs the recursive
/// descent four frames (`expr` → `seq` → `post` → `atom`).
pub const MAX_QUERY_NESTING: usize = 64;

/// Most AST nodes an accepted expression has: one per label, `_`, `.`, `|`,
/// `?` and `*` token. An `a.a.….a` chain or an `a***…` tower is as deep as it
/// is large, so this bounds every AST consumer's recursion too — to ≈0.4 MiB
/// of stack unoptimised, a quarter of a worker's 2 MiB (checked on a 512 KiB
/// thread in `tests/language_oracle.rs`).
pub const MAX_QUERY_NODES: usize = 512;

/// Error produced when a path expression fails to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Token {
    Label(String),
    Wildcard,
    Dot,
    Pipe,
    LParen,
    RParen,
    Question,
    Star,
}

fn lex(input: &str) -> Result<Vec<(usize, Token)>, ParseError> {
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut depth = 0usize;
    let mut nodes = 0usize;
    while let Some(c) = input[i..].chars().next() {
        let start = i;
        i += c.len_utf8();
        let token = match c {
            ' ' | '\t' | '\n' | '\r' => continue,
            '.' => Token::Dot,
            '|' => Token::Pipe,
            '(' => Token::LParen,
            ')' => Token::RParen,
            '?' => Token::Question,
            '*' => Token::Star,
            _ if c.is_alphanumeric() || c == '_' => {
                let in_name = |d: char| d.is_alphanumeric() || matches!(d, '_' | '-' | ':');
                i += input[i..].find(|d| !in_name(d)).unwrap_or(input.len() - i);
                match &input[start..i] {
                    "_" => Token::Wildcard,
                    word => Token::Label(word.to_string()),
                }
            }
            _ => {
                return Err(ParseError {
                    position: start,
                    message: format!("unexpected character {c:?}"),
                })
            }
        };
        // The caps: a parenthesis is charged to the nesting depth (an
        // unmatched `)` fails in the parser before it recurses any deeper),
        // every other token to the AST node it becomes.
        match token {
            Token::LParen => depth += 1,
            Token::RParen => depth = depth.saturating_sub(1),
            _ => nodes += 1,
        }
        if depth > MAX_QUERY_NESTING || nodes > MAX_QUERY_NODES {
            return Err(ParseError {
                position: start,
                message: format!(
                    "expression has more than {MAX_QUERY_NESTING} nested parentheses \
                     or {MAX_QUERY_NODES} nodes"
                ),
            });
        }
        tokens.push((start, token));
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<(usize, Token)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(_, t)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|&(p, _)| p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.here(),
            message: message.into(),
        }
    }

    fn expr(&mut self) -> Result<PathExpr, ParseError> {
        let mut left = self.seq()?;
        while self.peek() == Some(&Token::Pipe) {
            self.bump();
            let right = self.seq()?;
            left = PathExpr::alt(left, right);
        }
        Ok(left)
    }

    fn seq(&mut self) -> Result<PathExpr, ParseError> {
        let mut left = self.post()?;
        while self.peek() == Some(&Token::Dot) {
            self.bump();
            let right = self.post()?;
            left = PathExpr::seq(left, right);
        }
        Ok(left)
    }

    fn post(&mut self) -> Result<PathExpr, ParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Some(Token::Question) => {
                    self.bump();
                    e = PathExpr::opt(e);
                }
                Some(Token::Star) => {
                    self.bump();
                    e = PathExpr::star(e);
                }
                _ => return Ok(e),
            }
        }
    }

    fn atom(&mut self) -> Result<PathExpr, ParseError> {
        match self.bump() {
            Some(Token::Label(l)) => Ok(PathExpr::Label(l)),
            Some(Token::Wildcard) => Ok(PathExpr::Wildcard),
            Some(Token::LParen) => {
                let inner = self.expr()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseError {
                        position: self.here(),
                        message: "expected ')'".to_string(),
                    }),
                }
            }
            Some(t) => Err(ParseError {
                position: self.here(),
                message: format!("expected label, '_' or '(', found {t:?}"),
            }),
            None => Err(ParseError {
                position: self.here(),
                message: "unexpected end of expression".to_string(),
            }),
        }
    }
}

/// Parse a regular path expression such as `movieDB._?.movie.actor.name`.
pub fn parse(input: &str) -> Result<PathExpr, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let e = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(s: &str) {
        let e = parse(s).unwrap();
        let printed = e.to_string();
        let e2 = parse(&printed).unwrap();
        assert_eq!(e, e2, "round trip failed for {s} -> {printed}");
    }

    #[test]
    fn parses_linear_path() {
        let e = parse("director.movie.title").unwrap();
        assert_eq!(e, PathExpr::path(&["director", "movie", "title"]));
    }

    #[test]
    fn parses_paper_expression() {
        // From §3 of the paper.
        let e = parse("movieDB.(_)?.movie.actor.name").unwrap();
        assert_eq!(e.to_string(), "movieDB._?.movie.actor.name");
        assert_eq!(e.max_word_len(), Some(5));
        assert_eq!(e.min_word_len(), 4);
    }

    #[test]
    fn precedence_alternation_binds_loosest() {
        let e = parse("a.b|c").unwrap();
        assert_eq!(
            e,
            PathExpr::alt(PathExpr::path(&["a", "b"]), PathExpr::label("c"))
        );
    }

    #[test]
    fn postfix_binds_tightest() {
        let e = parse("a.b*").unwrap();
        assert_eq!(
            e,
            PathExpr::seq(PathExpr::label("a"), PathExpr::star(PathExpr::label("b")))
        );
    }

    #[test]
    fn parens_override_precedence() {
        let e = parse("(a.b)*").unwrap();
        assert_eq!(e, PathExpr::star(PathExpr::path(&["a", "b"])));
    }

    #[test]
    fn double_postfix_allowed() {
        let e = parse("a?*").unwrap();
        assert_eq!(e, PathExpr::star(PathExpr::opt(PathExpr::label("a"))));
    }

    #[test]
    fn wildcard_token() {
        assert_eq!(parse("_").unwrap(), PathExpr::Wildcard);
        let e = parse("a._.b").unwrap();
        assert_eq!(e.max_word_len(), Some(3));
    }

    #[test]
    fn labels_may_contain_digits_dash_colon() {
        let e = parse("ns:item-2").unwrap();
        assert_eq!(e, PathExpr::label("ns:item-2"));
        // Names are scanned by character: a multi-byte letter is a label
        // (it used to panic on the byte boundary), a symbol a typed error.
        assert_eq!(parse("é").unwrap(), PathExpr::label("é"));
        assert_eq!(parse("a.→").unwrap_err().position, 2);
    }

    #[test]
    fn whitespace_is_ignored() {
        assert_eq!(parse(" a . b ").unwrap(), parse("a.b").unwrap());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("a.b)").is_err());
        assert!(parse("a b").is_err());
    }

    #[test]
    fn rejects_dangling_operators() {
        assert!(parse("a.").is_err());
        assert!(parse("|a").is_err());
        assert!(parse("*").is_err());
        assert!(parse("(a").is_err());
    }

    #[test]
    fn error_reports_position() {
        let err = parse("a.$").unwrap_err();
        assert_eq!(err.position, 2);
        assert!(err.to_string().contains("byte 2"));
    }

    #[test]
    fn caps_are_typed_errors_at_the_first_token_over() {
        let nested = |d: usize| format!("{}item{}", "(".repeat(d), ")".repeat(d));
        assert_eq!(parse(&nested(MAX_QUERY_NESTING)).unwrap(), PathExpr::label("item"));
        assert_eq!(parse(&nested(MAX_QUERY_NESTING + 1)).unwrap_err().position, MAX_QUERY_NESTING);
        // Depth, not count: siblings reopen at the same level.
        assert!(parse(&vec!["(a)"; MAX_QUERY_NESTING + 1].join("|")).is_ok());
        // 1 label + (MAX - 1) stars is exactly MAX nodes, as deep as large.
        let tower = format!("a{}", "*".repeat(MAX_QUERY_NODES - 1));
        assert!(parse(&tower).is_ok());
        assert_eq!(parse(&format!("{tower}*")).unwrap_err().position, MAX_QUERY_NODES);
        // n labels and n - 1 dots are 2n - 1 nodes; the last label is over.
        let chain = |labels: usize| vec!["ab"; labels].join(".");
        assert!(parse(&chain(MAX_QUERY_NODES / 2)).is_ok());
        let err = parse(&chain(MAX_QUERY_NODES / 2 + 1)).unwrap_err();
        assert_eq!(err.position, 3 * (MAX_QUERY_NODES / 2));
        assert!(err.to_string().contains("more than"), "{err}");
        // The two frames that used to abort the server (ROADMAP item 1).
        assert!(parse(&nested(10_000)).is_err());
        assert!(parse(&vec!["a"; 500_000].join(".")).is_err());
    }

    #[test]
    fn round_trips() {
        for s in [
            "a",
            "_",
            "a.b.c",
            "a|b|c",
            "(a|b).c",
            "a.(b|c)*",
            "movieDB._?.movie.actor.name",
            "a?.b*.(c|d)?",
        ] {
            round_trip(s);
        }
    }
}
