//! Parsing regular path expressions over label names, with byte-spanned
//! errors.
//!
//! The grammar (whitespace insignificant; `/` between steps optional when
//! the boundary is unambiguous, so `knows/likes`, `(a|b)c`, and `a b` all
//! parse):
//!
//! ```text
//! expr    := alt
//! alt     := concat ('|' concat)*
//! concat  := unit (('/')* unit)*
//! unit    := atom ('?' | '{' INT (',' INT)? '}')*
//! atom    := LABEL | '.' | '(' expr ')'
//! LABEL   := any run of characters outside ()|?{},/. and whitespace
//! ```
//!
//! Nesting is bounded by `MAX_NESTING` (64), both in open groups and in
//! levels of the parsed tree, so a hostile request cannot exhaust the
//! stack of the parser or of anything that later recurses over the tree.
//!
//! Every [`QueryError`] carries the byte [`Span`] of the offending input;
//! [`QueryError::snippet`] renders the caret-underlined excerpt the CLI
//! prints. Label names resolve through a [`LabelResolver`] — a graph, a
//! bare interner, or a snapshot's name list — so the same parser serves
//! the local CLI and the remote serving tier.

use std::fmt;

use phe_core::MAX_K;
use phe_graph::{Graph, LabelId, LabelInterner};

use crate::expr::PathExpr;

/// The deepest an expression may nest: open groups while parsing, and
/// levels of the parsed tree (every alternation, concatenation and
/// repetition is a level). Far deeper than any hand-written expression,
/// and shallow enough that normalization, rendering, expansion and drop
/// all recurse safely on a 2 MiB thread stack.
pub(crate) const MAX_NESTING: usize = 64;

/// Anything that can turn a label name into an id.
pub trait LabelResolver {
    /// Resolves `name`, or `None` when the label is unknown.
    fn resolve_label(&self, name: &str) -> Option<LabelId>;
}

impl LabelResolver for Graph {
    fn resolve_label(&self, name: &str) -> Option<LabelId> {
        self.labels().get(name)
    }
}

impl LabelResolver for LabelInterner {
    fn resolve_label(&self, name: &str) -> Option<LabelId> {
        self.get(name)
    }
}

/// Positional name list (index = label id) — how snapshots carry labels.
impl LabelResolver for [String] {
    fn resolve_label(&self, name: &str) -> Option<LabelId> {
        self.iter()
            .position(|n| n == name)
            .map(|i| LabelId(i as u16))
    }
}

/// A half-open byte range into the source expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First byte of the offending region.
    pub start: usize,
    /// One past the last byte.
    pub end: usize,
}

impl Span {
    /// The span `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }
}

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryErrorKind {
    /// The expression was empty (or all whitespace/separators).
    EmptyQuery,
    /// A label name not present in the graph/statistics.
    UnknownLabel(String),
    /// More steps than the engine's `MAX_K` (concrete chains only;
    /// expression expansion handles the budget per concrete path).
    TooLong {
        /// Steps in the expression.
        len: usize,
        /// The supported maximum.
        max: usize,
    },
    /// A character outside the grammar (stray `)`, `,` outside braces, …).
    UnexpectedChar(char),
    /// The expression ended where more input was required.
    UnexpectedEnd,
    /// An opening `(` without its `)`.
    UnclosedParen,
    /// An empty group `()` or alternation branch (`a||b`, `|a`).
    EmptyGroup,
    /// A malformed or out-of-range repetition `{m,n}`.
    BadRepeat(String),
    /// Groups or levels of the parsed tree nested deeper than `max`.
    TooDeep {
        /// The supported maximum.
        max: usize,
    },
    /// The expression is valid but not a single concrete path — returned
    /// by [`parse_path`], whose callers expect a plain chain.
    NotConcrete,
}

/// A parse failure with the byte span it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError {
    /// The failure.
    pub kind: QueryErrorKind,
    /// Where in the source it happened.
    pub span: Span,
}

impl QueryError {
    fn new(kind: QueryErrorKind, span: Span) -> QueryError {
        QueryError { kind, span }
    }

    /// Renders the source with a caret underline below the offending
    /// span — what the CLI prints under its error line:
    ///
    /// ```text
    /// knows/hates
    ///       ^^^^^
    /// ```
    pub fn snippet(&self, source: &str) -> String {
        let prefix_chars = source
            .get(..self.span.start.min(source.len()))
            .map_or(0, |s| s.chars().count());
        let span_chars = source
            .get(self.span.start.min(source.len())..self.span.end.min(source.len()))
            .map_or(0, |s| s.chars().count())
            .max(1);
        format!(
            "{source}\n{}{}",
            " ".repeat(prefix_chars),
            "^".repeat(span_chars)
        )
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            QueryErrorKind::EmptyQuery => write!(f, "empty path expression"),
            QueryErrorKind::UnknownLabel(name) => write!(f, "unknown edge label {name:?}"),
            QueryErrorKind::TooLong { len, max } => {
                write!(f, "path expression has {len} steps; maximum is {max}")
            }
            QueryErrorKind::UnexpectedChar(c) => {
                write!(f, "unexpected character {c:?} in path expression")
            }
            QueryErrorKind::UnexpectedEnd => write!(f, "unexpected end of path expression"),
            QueryErrorKind::UnclosedParen => write!(f, "unclosed \"(\""),
            QueryErrorKind::EmptyGroup => write!(f, "empty group or alternation branch"),
            QueryErrorKind::BadRepeat(reason) => write!(f, "bad repetition: {reason}"),
            QueryErrorKind::TooDeep { max } => {
                write!(f, "path expression nests deeper than {max} levels")
            }
            QueryErrorKind::NotConcrete => write!(
                f,
                "expression is not a single concrete path (alternation, wildcard, \
                 and repetition need the expression API)"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

/// Parses a regular path expression, resolving label names through
/// `resolver`. See the module docs for the grammar.
///
/// # Errors
/// A spanned [`QueryError`] pointing at the offending bytes.
pub fn parse_expr<R: LabelResolver + ?Sized>(
    resolver: &R,
    input: &str,
) -> Result<PathExpr, QueryError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        resolver: &|name| resolver.resolve_label(name),
        tokens: &tokens,
        pos: 0,
        groups: 0,
        input,
    };
    let (expr, _) = parser.alt()?;
    match parser.peek() {
        None => Ok(expr),
        Some(t) => Err(QueryError::new(
            match t.kind {
                TokKind::RParen => QueryErrorKind::UnexpectedChar(')'),
                _ => QueryErrorKind::UnexpectedChar(t.first_char),
            },
            t.span,
        )),
    }
}

/// Parses a `/`-separated **concrete** path (e.g. `knows/likes/knows`)
/// into label ids — the pre-expression entry point, kept as a thin
/// wrapper: the full grammar is accepted, but anything that does not
/// denote exactly one chain is refused with
/// [`QueryErrorKind::NotConcrete`].
pub fn parse_path(graph: &Graph, expr: &str) -> Result<Vec<LabelId>, QueryError> {
    let parsed = parse_expr(graph, expr)?;
    let whole = Span::new(0, expr.len());
    let labels = parsed
        .as_concrete()
        .ok_or_else(|| QueryError::new(QueryErrorKind::NotConcrete, whole))?;
    if labels.len() > MAX_K {
        return Err(QueryError::new(
            QueryErrorKind::TooLong {
                len: labels.len(),
                max: MAX_K,
            },
            whole,
        ));
    }
    Ok(labels)
}

// ------------------------------------------------------------------ lexer

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokKind {
    Ident,
    Dot,
    Slash,
    Pipe,
    Question,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
}

#[derive(Debug, Clone, Copy)]
struct Tok {
    kind: TokKind,
    span: Span,
    first_char: char,
}

/// Characters with grammatical meaning; anything else (minus whitespace)
/// is label material.
fn special(c: char) -> Option<TokKind> {
    Some(match c {
        '.' => TokKind::Dot,
        '/' => TokKind::Slash,
        '|' => TokKind::Pipe,
        '?' => TokKind::Question,
        '(' => TokKind::LParen,
        ')' => TokKind::RParen,
        '{' => TokKind::LBrace,
        '}' => TokKind::RBrace,
        ',' => TokKind::Comma,
        _ => return None,
    })
}

fn lex(input: &str) -> Result<Vec<Tok>, QueryError> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if let Some(kind) = special(c) {
            chars.next();
            tokens.push(Tok {
                kind,
                span: Span::new(start, start + c.len_utf8()),
                first_char: c,
            });
            continue;
        }
        // Label run.
        let mut end = start;
        while let Some(&(i, c)) = chars.peek() {
            if c.is_whitespace() || special(c).is_some() {
                break;
            }
            end = i + c.len_utf8();
            chars.next();
        }
        tokens.push(Tok {
            kind: TokKind::Ident,
            span: Span::new(start, end),
            first_char: c,
        });
    }
    Ok(tokens)
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    resolver: &'a dyn Fn(&str) -> Option<LabelId>,
    tokens: &'a [Tok],
    pos: usize,
    /// Groups open at `pos`.
    groups: usize,
    input: &'a str,
}

/// A parsed sub-expression and the height of its tree.
type Parsed = (PathExpr, usize);

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn end_span(&self) -> Span {
        Span::new(self.input.len(), self.input.len())
    }

    /// Checks that `height` stays within [`MAX_NESTING`]; `from` is the
    /// first token of the construct the error points at.
    fn nest(&self, parsed: Parsed, from: usize) -> Result<Parsed, QueryError> {
        if parsed.1 <= MAX_NESTING {
            return Ok(parsed);
        }
        let start = self
            .tokens
            .get(from)
            .map_or(self.input.len(), |t| t.span.start);
        let end = self
            .pos
            .checked_sub(1)
            .and_then(|last| self.tokens.get(last))
            .map_or(self.input.len(), |t| t.span.end);
        Err(QueryError::new(
            QueryErrorKind::TooDeep { max: MAX_NESTING },
            Span::new(start, end.max(start)),
        ))
    }

    fn alt(&mut self) -> Result<Parsed, QueryError> {
        let from = self.pos;
        let (first, mut height) = self.concat()?;
        let mut branches = vec![first];
        while matches!(self.peek(), Some(t) if t.kind == TokKind::Pipe) {
            self.pos += 1;
            let (branch, h) = self.concat()?;
            height = height.max(h);
            branches.push(branch);
        }
        match <[PathExpr; 1]>::try_from(branches) {
            Ok([only]) => Ok((only, height)),
            Err(branches) => self.nest((PathExpr::Alt(branches), height + 1), from),
        }
    }

    fn concat(&mut self) -> Result<Parsed, QueryError> {
        let from = self.pos;
        let mut parts = Vec::new();
        let mut height = 0;
        loop {
            // Separator slashes are skippable (compat: `a//b`, `/a/`).
            while matches!(self.peek(), Some(t) if t.kind == TokKind::Slash) {
                self.pos += 1;
            }
            match self.peek() {
                Some(t) if matches!(t.kind, TokKind::Ident | TokKind::Dot | TokKind::LParen) => {
                    let (part, h) = self.unit()?;
                    height = height.max(h);
                    parts.push(part);
                }
                _ => break,
            }
        }
        if parts.is_empty() {
            // Distinguish a wholly empty input from an empty branch.
            return Err(match self.peek() {
                None if self.tokens.iter().all(|t| t.kind == TokKind::Slash) => {
                    QueryError::new(QueryErrorKind::EmptyQuery, Span::new(0, self.input.len()))
                }
                None => QueryError::new(QueryErrorKind::UnexpectedEnd, self.end_span()),
                Some(t) if matches!(t.kind, TokKind::Pipe | TokKind::RParen) => {
                    QueryError::new(QueryErrorKind::EmptyGroup, t.span)
                }
                Some(t) => QueryError::new(QueryErrorKind::UnexpectedChar(t.first_char), t.span),
            });
        }
        match <[PathExpr; 1]>::try_from(parts) {
            Ok([only]) => Ok((only, height)),
            Err(parts) => self.nest((PathExpr::Concat(parts), height + 1), from),
        }
    }

    fn unit(&mut self) -> Result<Parsed, QueryError> {
        let (mut expr, mut height) = self.atom()?;
        loop {
            let from = self.pos;
            let (min, max) = match self.peek() {
                Some(t) if t.kind == TokKind::Question => {
                    self.pos += 1;
                    (0, 1)
                }
                Some(t) if t.kind == TokKind::LBrace => {
                    let open = t.span;
                    self.pos += 1;
                    let (min, max, close) = self.repeat_bounds(open)?;
                    let span = Span::new(open.start, close.end);
                    if max == 0 {
                        return Err(QueryError::new(
                            QueryErrorKind::BadRepeat("maximum repetition is 0".into()),
                            span,
                        ));
                    }
                    if min > max {
                        return Err(QueryError::new(
                            QueryErrorKind::BadRepeat(format!(
                                "minimum {min} exceeds maximum {max}"
                            )),
                            span,
                        ));
                    }
                    if max as usize > MAX_K {
                        return Err(QueryError::new(
                            QueryErrorKind::BadRepeat(format!(
                                "maximum {max} exceeds the engine's MAX_K = {MAX_K}"
                            )),
                            span,
                        ));
                    }
                    (min, max)
                }
                _ => return Ok((expr, height)),
            };
            let inner = Box::new(expr);
            (expr, height) = self.nest((PathExpr::Repeat { inner, min, max }, height + 1), from)?;
        }
    }

    fn atom(&mut self) -> Result<Parsed, QueryError> {
        let t = *self
            .peek()
            .ok_or_else(|| QueryError::new(QueryErrorKind::UnexpectedEnd, self.end_span()))?;
        match t.kind {
            TokKind::Dot => {
                self.pos += 1;
                Ok((PathExpr::Wildcard, 1))
            }
            TokKind::Ident => {
                self.pos += 1;
                let name = self.text(t.span);
                match (self.resolver)(name) {
                    Some(id) => Ok((PathExpr::Label(id), 1)),
                    None => Err(QueryError::new(
                        QueryErrorKind::UnknownLabel(name.to_owned()),
                        t.span,
                    )),
                }
            }
            TokKind::LParen => {
                if self.groups == MAX_NESTING {
                    return Err(QueryError::new(
                        QueryErrorKind::TooDeep { max: MAX_NESTING },
                        t.span,
                    ));
                }
                self.pos += 1;
                self.groups += 1;
                let inner = self.alt()?;
                self.groups -= 1;
                match self.peek() {
                    Some(close) if close.kind == TokKind::RParen => {
                        self.pos += 1;
                        Ok(inner)
                    }
                    _ => Err(QueryError::new(QueryErrorKind::UnclosedParen, t.span)),
                }
            }
            _ => Err(QueryError::new(
                QueryErrorKind::UnexpectedChar(t.first_char),
                t.span,
            )),
        }
    }

    /// Parses `INT (',' INT)? '}'` after an opening brace; returns
    /// `(min, max, closing span)`.
    fn repeat_bounds(&mut self, open: Span) -> Result<(u8, u8, Span), QueryError> {
        let min = self.bound_int(open)?;
        match self.peek().copied() {
            Some(t) if t.kind == TokKind::RBrace => {
                self.pos += 1;
                Ok((min, min, t.span))
            }
            Some(t) if t.kind == TokKind::Comma => {
                self.pos += 1;
                let max = self.bound_int(open)?;
                match self.peek().copied() {
                    Some(t) if t.kind == TokKind::RBrace => {
                        self.pos += 1;
                        Ok((min, max, t.span))
                    }
                    other => Err(QueryError::new(
                        QueryErrorKind::BadRepeat("expected \"}\"".into()),
                        other.map_or(self.end_span(), |t| t.span),
                    )),
                }
            }
            other => Err(QueryError::new(
                QueryErrorKind::BadRepeat("expected \",\" or \"}\"".into()),
                other.map_or(self.end_span(), |t| t.span),
            )),
        }
    }

    fn bound_int(&mut self, open: Span) -> Result<u8, QueryError> {
        match self.peek().copied() {
            Some(t) if t.kind == TokKind::Ident => {
                let text = self.text(t.span);
                match text.parse::<u8>() {
                    Ok(v) => {
                        self.pos += 1;
                        Ok(v)
                    }
                    Err(_) => Err(QueryError::new(
                        QueryErrorKind::BadRepeat(format!("{text:?} is not a small integer")),
                        t.span,
                    )),
                }
            }
            Some(t) => Err(QueryError::new(
                QueryErrorKind::BadRepeat("expected an integer bound".into()),
                t.span,
            )),
            None => Err(QueryError::new(
                QueryErrorKind::BadRepeat("unterminated \"{\"".into()),
                open,
            )),
        }
    }

    fn text(&self, span: Span) -> &str {
        // Spans come from char_indices over this same string, so they
        // always fall on character boundaries.
        &self.input[span.start..span.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExpandOptions;
    use phe_graph::GraphBuilder;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "knows", 1);
        b.add_edge_named(1, "likes", 2);
        b.build()
    }

    #[test]
    fn parses_names() {
        let g = graph();
        let q = parse_path(&g, "knows/likes/knows").unwrap();
        assert_eq!(q, vec![LabelId(0), LabelId(1), LabelId(0)]);
    }

    #[test]
    fn tolerates_whitespace_and_empty_steps() {
        let g = graph();
        let q = parse_path(&g, " knows / likes ").unwrap();
        assert_eq!(q.len(), 2);
        let q = parse_path(&g, "knows//likes").unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn unknown_label_points_at_its_span() {
        let g = graph();
        let err = parse_path(&g, "knows/hates").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::UnknownLabel("hates".into()));
        assert_eq!(err.span, Span::new(6, 11));
        let snippet = err.snippet("knows/hates");
        assert_eq!(snippet, "knows/hates\n      ^^^^^");
    }

    #[test]
    fn empty_query() {
        let g = graph();
        assert_eq!(
            parse_path(&g, "   ").unwrap_err().kind,
            QueryErrorKind::EmptyQuery
        );
        assert_eq!(
            parse_path(&g, "///").unwrap_err().kind,
            QueryErrorKind::EmptyQuery
        );
    }

    #[test]
    fn too_long() {
        let g = graph();
        let expr = ["knows"; 9].join("/");
        assert_eq!(
            parse_path(&g, &expr).unwrap_err().kind,
            QueryErrorKind::TooLong { len: 9, max: 8 }
        );
    }

    #[test]
    fn parses_alternation_optional_repeat_wildcard() {
        let g = graph();
        let e = parse_expr(&g, "(knows|likes)/knows?").unwrap();
        assert_eq!(e.to_string(), "(0|1)/0?");
        let e = parse_expr(&g, "knows{2,3}").unwrap();
        assert_eq!(e.to_string(), "0{2,3}");
        let e = parse_expr(&g, "knows{2}").unwrap();
        assert_eq!(e.to_string(), "0{2}");
        let e = parse_expr(&g, "./likes").unwrap();
        assert_eq!(e.to_string(), "./1");
    }

    #[test]
    fn juxtaposition_concatenates() {
        let g = graph();
        let e = parse_expr(&g, "(knows|likes)knows").unwrap();
        assert_eq!(e.to_string(), "(0|1)/0");
        let e = parse_expr(&g, "knows likes").unwrap();
        assert_eq!(e.to_string(), "0/1");
    }

    #[test]
    fn non_concrete_is_refused_by_parse_path() {
        let g = graph();
        let err = parse_path(&g, "knows|likes").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::NotConcrete);
        // A fixed repetition *is* concrete.
        let q = parse_path(&g, "knows{2}").unwrap();
        assert_eq!(q, vec![LabelId(0), LabelId(0)]);
    }

    #[test]
    fn structural_errors_carry_spans() {
        let g = graph();
        let err = parse_expr(&g, "(knows|likes").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::UnclosedParen);
        assert_eq!(err.span, Span::new(0, 1));

        let err = parse_expr(&g, "knows)").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::UnexpectedChar(')'));
        assert_eq!(err.span, Span::new(5, 6));

        let err = parse_expr(&g, "knows|").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::UnexpectedEnd);

        let err = parse_expr(&g, "knows||likes").unwrap_err();
        assert_eq!(err.kind, QueryErrorKind::EmptyGroup);

        let err = parse_expr(&g, "knows{9}").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::BadRepeat(_)), "{err:?}");
        assert_eq!(err.span, Span::new(5, 8));

        let err = parse_expr(&g, "knows{3,2}").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::BadRepeat(_)));

        let err = parse_expr(&g, "knows{x}").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::BadRepeat(_)));

        let err = parse_expr(&g, "knows{0}").unwrap_err();
        assert!(matches!(err.kind, QueryErrorKind::BadRepeat(_)));

        // An unterminated brace is a repetition problem, not a paren one.
        let err = parse_expr(&g, "knows{").unwrap_err();
        assert!(
            matches!(&err.kind, QueryErrorKind::BadRepeat(r) if r.contains('{')),
            "{err:?}"
        );
    }

    /// Runs `f` on a thread with a 2 MiB stack, what spawned server
    /// threads get by default.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn hostile_nesting_is_refused_without_exhausting_the_stack() {
        // 200,000 groups around one label: a 400 KB request.
        let nested = format!("{}knows{}", "(".repeat(200_000), ")".repeat(200_000));
        let err = on_small_stack(move || parse_expr(&graph(), &nested).unwrap_err());
        assert_eq!(err.kind, QueryErrorKind::TooDeep { max: MAX_NESTING });
        assert_eq!(err.span, Span::new(MAX_NESTING, MAX_NESTING + 1));
        assert!(err.to_string().contains("64"), "{err}");

        // Stacked postfix operators deepen the tree without any group.
        let stacked = format!("knows{}", "?".repeat(200_000));
        let err = on_small_stack(move || parse_expr(&graph(), &stacked).unwrap_err());
        assert_eq!(err.kind, QueryErrorKind::TooDeep { max: MAX_NESTING });
    }

    #[test]
    fn the_deepest_accepted_expressions_recurse_safely() {
        // MAX_NESTING open groups; and a tree exactly MAX_NESTING levels
        // high, alternating alternation and concatenation levels.
        let groups = format!(
            "{}knows{}",
            "(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        let mut tall = "knows".to_string();
        for level in 1..MAX_NESTING {
            tall = if level % 2 == 1 {
                format!("({tall}|likes)")
            } else {
                format!("({tall})likes")
            };
        }
        let too_tall = format!("({tall})?");
        let too_many_groups = format!("({groups})");
        on_small_stack(move || {
            let g = graph();
            for source in [&groups, &tall] {
                let e = parse_expr(&g, source).unwrap();
                let normalized = e.normalize();
                let rendered = normalized.display_with(g.labels()).to_string();
                assert_eq!(parse_expr(&g, &rendered).unwrap().normalize(), normalized);
                e.expand(&ExpandOptions::new(2, MAX_K)).unwrap();
            }
            for source in [&too_tall, &too_many_groups] {
                let err = parse_expr(&g, source).unwrap_err();
                assert_eq!(err.kind, QueryErrorKind::TooDeep { max: MAX_NESTING });
            }
        });
    }

    #[test]
    fn error_display_and_snippet_multibyte() {
        let err = QueryError::new(QueryErrorKind::UnknownLabel("x".into()), Span::new(4, 5));
        assert!(err.to_string().contains("x"));
        // Multi-byte prefix: caret position counts characters, not bytes
        // ("héllo " is 7 bytes but 6 characters).
        let err = QueryError::new(QueryErrorKind::UnexpectedChar(')'), Span::new(7, 8));
        assert_eq!(err.snippet("héllo )"), "héllo )\n      ^");
    }

    #[test]
    fn resolver_impls_agree() {
        let g = graph();
        let names = vec!["knows".to_string(), "likes".to_string()];
        let via_slice = parse_expr(names.as_slice(), "knows|likes").unwrap();
        let via_graph = parse_expr(&g, "knows|likes").unwrap();
        assert_eq!(via_slice, via_graph);
        assert_eq!(g.labels().resolve_label("likes"), Some(LabelId(1)));
    }
}
