//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a plain TCP stream —
//! trivially scriptable (`nc`, any language) and cheap to parse. Batched
//! estimation is first-class: a single `estimate` request carries many
//! paths and is answered by one pinned estimator generation.
//!
//! Every response carries `"ok": true` (plus op-specific fields) or
//! `"ok": false` with an `"error"` string. Unknown ops, malformed JSON,
//! and bad field types are per-line errors; the connection stays open.
//!
//! Two structured refusal shapes extend the plain error line:
//!
//! * `{"ok":false,"error":…,"overloaded":true,"reason":…}` — admission
//!   control refused the request (`reason` is `"capacity"` for the
//!   max-connections cap, `"quota"` for the per-client in-flight quota,
//!   `"shed"` for load shedding); back off and retry.
//! * `{"ok":false,"error":…,"backpressure":true}` — the maintenance
//!   delta queue is at its cap; the batch was not enqueued. Retry after
//!   the next compacted publish.
//!
//! ## Op reference
//!
//! | op | fields | answer | notes |
//! |----|--------|--------|-------|
//! | `ping` | — | `{"ok":true}` | liveness probe |
//! | `estimate` | `estimator` (default `"default"`), `paths` | `version`, `estimates` | one pinned generation answers the whole batch |
//! | `estimate_expr` | `estimator` (default `"default"`), `exprs` (expression strings), `explain` (false) | `version`, `results` rows: `estimate`, `paths`, `pruned`, `truncated`, `matches_empty`, `cached`, plus `branches` (`[path, estimate]` pairs) when `explain` | regular path expressions — alternation `(a\|b)`, optional `a?`, repetition `a{m,n}`, wildcard `.`; cached by *normalized* expression, so `(a\|b)c` and `(b\|a)c` share an entry; one pinned generation answers the whole batch. With `k` the estimator's maximum path length: `pruned` counts the distinct prefixes `q = p·l` (`2 ≤ \|q\| ≤ k`) of the expression's words whose `p` the follow matrix allows but whose last step `l` it refutes; `truncated` counts the distinct prefixes of length `k + 1` whose first `k` labels it allows |
//! | `list` | — | `estimators` rows: `name`, `version`, `k`, `labels`, `size_bytes`, `description`, `base_build_id`, `applied_deltas` (lineage; `null` for pre-lineage snapshots), plus `maintained_catalog_bytes` / `maintained_plain_bytes` / `maintained_bytes_per_entry` for slots with maintenance state and `drift_mean_abs_error` / `drift_max_q_error` / `drift_sampled_paths` once a delta has been applied | each row read from a single generation; `applied_deltas` counts the delta publishes since the originating build (each publish is already a fresh build) |
//! | `metrics` | `format` (`"report"`) | `metrics` object, or `exposition` text when `format` is `"prometheus"` | qps, p50/p99, cache hit rate, rebuild + delta counters; the Prometheus form is the same text the `--metrics-addr` scrape endpoint serves |
//! | `load` | `name`, `snapshot` | `version` | restores a snapshot file from the **server's** filesystem and hot-swaps the slot |
//! | `rebuild` | `name`, `graph`, `k` (3), `beta` (64), `ordering` (`"sum-based"`), `histogram` (`"v-optimal-greedy"`), `threads` (1), `maintain` (false) | `{"status":"rebuilding"}` | asynchronous full build from a graph file |
//! | `delta` | `name`, `changes` | `{"status":"queued","queued":n}` | incremental update from a changes file, parsed at once (a bad file is an error line) and queued on the server's maintenance loop for its next compacted publish — on arrival at a zero publish interval |
//! | `maintenance` | `action` (`"status"` or `"compact"`), `name` (for `compact`) | `status`: `publish_interval_ms`, `slots` rows (`queued`, `enqueued`, `rejected`, `compacted`, `purged`, `last_outcome`); `compact`: `outcome` | inspect the server's maintenance loop, or publish a slot's queued batches now |
//!
//! ```text
//! → {"op":"ping"}
//! ← {"ok":true}
//! → {"op":"estimate","estimator":"main","paths":[["knows","likes"],[0,1]]}
//! ← {"ok":true,"version":1,"estimates":[123.0,7.5]}
//! → {"op":"estimate_expr","estimator":"main","exprs":["(knows|likes)/knows?"]}
//! ← {"ok":true,"version":1,"results":[{"estimate":130.5,"paths":4,"pruned":0,"truncated":0,"matches_empty":false,"cached":false}]}
//! → {"op":"rebuild","name":"main","graph":"/path/graph.tsv","k":3,"beta":64,"maintain":true}
//! ← {"ok":true,"status":"rebuilding"}
//! → {"op":"delta","name":"main","changes":"/path/changes.tsv"}
//! ← {"ok":true,"status":"queued","queued":1}
//! ```
//!
//! ## Background publishes: `rebuild` and `delta`
//!
//! Both ops answer immediately; a background thread (`rebuild`) or the
//! server's maintenance loop (`delta`) does the work and publishes with a
//! **compare-and-swap** on the slot version, so a result that raced with
//! a newer `load`/`rebuild` is discarded (counted as *superseded* in
//! `metrics`), never published over fresher statistics. Watch the slot's
//! `version` via `list` to observe the swap. One rebuild or maintenance
//! pass per slot at a time; a `rebuild` arriving while one runs is
//! refused with an error.
//!
//! `rebuild` reads a graph TSV and builds fresh statistics through the
//! sparse pipeline. With `"maintain": true` it additionally keeps the
//! graph + sparse catalog as the slot's *maintenance state*, which is
//! what makes `delta` possible.
//!
//! `delta` reads a changes file (`+<TAB>src<TAB>label<TAB>dst` /
//! `-<TAB>src<TAB>label<TAB>dst` lines) against the slot's maintenance
//! state and queues it; the loop composes the queued batches, counts only
//! the touched paths, merges them into the retained sparse catalog, and
//! hot-swaps statistics **bit-identical** to a full rebuild on the
//! changed graph — at a cost proportional to the change. The maintenance
//! state advances with each published pass, so deltas chain. A slot
//! without maintenance state (never rebuilt with `maintain`) refuses the
//! op synchronously, as does an unreadable changes file.
//!
//! Path steps may be label names (strings) or raw label ids (integers);
//! a batch may mix both styles between paths.
//!
//! ## Reading and writing lines
//!
//! One reader and one writer cover every op, and neither builds a JSON
//! tree. [`Request::parse`] is a single pass of a pull reader over the
//! line: keys may come in any order with any whitespace, unknown fields
//! are skipped (their syntax still checked), a repeated key keeps its
//! first value, and `paths` ids and `exprs` strings land straight in the
//! typed [`Request`]. A malformed line is an `invalid JSON: …` error
//! even when a field before the fault was wrong, and arrays and objects
//! nested 128 deep are refused the same way, so a hostile line costs a
//! bounded stack. Field-level errors name the field and quote the value.
//!
//! Responses are written member by member into the connection's output
//! buffer through [`ObjectWriter`]. Their bytes are exactly what the
//! compat `serde_json` printer makes of the same object: members in
//! handler order, floats in Rust's shortest round-trip form with `.0`
//! kept on integral values, non-finite floats as `null`, `\n`, `\r` and
//! `\t` escaped by name and other control characters as `\u00xx`.

use std::borrow::Cow;
use std::fmt::Write as _;

use serde_json::{Number, Value};

use crate::metrics::MetricsReport;

/// One step of a requested path: a label name or a raw id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathStep {
    /// Resolve through the estimator's label names.
    Name(String),
    /// Use the id directly.
    Id(u16),
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Batched estimation against a named estimator.
    Estimate {
        /// Registry slot name.
        estimator: String,
        /// The batch of paths.
        paths: Vec<Vec<PathStep>>,
    },
    /// Batched regular-path-expression estimation against a named
    /// estimator. Expression strings use the `phe-query` grammar
    /// (`(a|b)/c?`, `a{1,3}`, `.`); answers are cached per slot under the
    /// normalized expression.
    EstimateExpr {
        /// Registry slot name.
        estimator: String,
        /// The batch of expression strings.
        exprs: Vec<String>,
        /// Include per-branch `(path, estimate)` rows in each result
        /// (bypasses the expression cache).
        explain: bool,
    },
    /// List registered estimators.
    List,
    /// Service metrics snapshot.
    Metrics {
        /// Answer with the Prometheus text exposition (the same surface
        /// the scrape endpoint serves) instead of the JSON report.
        prometheus: bool,
    },
    /// Load (or hot-swap) a snapshot file from the server's filesystem.
    Load {
        /// Registry slot name to publish under.
        name: String,
        /// Path to the snapshot JSON on the server host.
        snapshot: String,
    },
    /// Rebuild a slot's statistics from a graph file on the server's
    /// filesystem, in the background, through the sparse build pipeline;
    /// the finished estimator hot-swaps the slot.
    Rebuild {
        /// Registry slot name to publish under.
        name: String,
        /// Path to the graph TSV on the server host.
        graph: String,
        /// Maximum path length `k`.
        k: usize,
        /// Histogram bucket budget β.
        beta: usize,
        /// Ordering method name (e.g. `"sum-based"`).
        ordering: String,
        /// Histogram family name (e.g. `"v-optimal-greedy"`).
        histogram: String,
        /// Worker threads for the background build. Defaults to 1 so a
        /// rebuild shares the machine with the serving workers instead of
        /// starving them; raise it explicitly when latency can spare the
        /// cores (0 ⇒ all cores).
        threads: usize,
        /// Keep the graph + sparse catalog as the slot's maintenance
        /// state, enabling subsequent `delta` ops. Defaults to `false`
        /// (the state costs `O(|E| + realized paths)` memory).
        maintain: bool,
    },
    /// Apply a changes file to a slot's maintained statistics in the
    /// background: incremental counting over only the touched paths,
    /// merged into the retained sparse catalog, hot-swapped on completion.
    /// Requires an earlier `rebuild` with `"maintain": true`.
    Delta {
        /// Registry slot name to update.
        name: String,
        /// Path to the changes file on the server host.
        changes: String,
    },
    /// Inspect the maintenance loop (queue depths and last outcome per
    /// slot) or force a compaction.
    Maintenance {
        /// Registry slot name (`compact` acts on it; `status` is
        /// loop-wide).
        name: String,
        /// What to do.
        action: MaintenanceAction,
    },
}

/// The `maintenance` op's sub-command.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceAction {
    /// Report the loop's publish interval and per-slot queue depth,
    /// counters and last outcome.
    Status,
    /// Compact the named slot's queue now — one counting pass over the
    /// composed batches and one publish — instead of waiting for the
    /// next publish interval.
    Compact,
}

/// A protocol-level failure (malformed request line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let mut reader = Reader {
            text: line,
            pos: 0,
            depth: 0,
        };
        reader.ws();
        let fields = if reader.peek() == Some(b'{') {
            Some(reader.fields()?)
        } else {
            reader.skip()?;
            None
        };
        reader.ws();
        if reader.pos != line.len() {
            return Err(syntax(format_args!(
                "trailing characters at offset {}",
                reader.pos
            )));
        }
        fields
            .ok_or_else(|| err("missing string field \"op\""))?
            .request()
    }

    /// Serializes this request to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        write_object(&mut line, |o| match self {
            Request::Ping => {
                o.field("op", "ping");
            }
            Request::List => {
                o.field("op", "list");
            }
            Request::Metrics { prometheus } => {
                let format = if *prometheus { "prometheus" } else { "report" };
                o.field("op", "metrics").field("format", format);
            }
            Request::Estimate { estimator, paths } => {
                o.field("op", "estimate")
                    .field("estimator", estimator)
                    .array("paths", |a| {
                        for path in paths {
                            a.array(|steps| {
                                for step in path {
                                    match step {
                                        PathStep::Name(name) => steps.item(name),
                                        PathStep::Id(id) => steps.item(u64::from(*id)),
                                    };
                                }
                            });
                        }
                    });
            }
            Request::EstimateExpr {
                estimator,
                exprs,
                explain,
            } => {
                o.field("op", "estimate_expr")
                    .field("estimator", estimator)
                    .array("exprs", |a| {
                        for expr in exprs {
                            a.item(expr);
                        }
                    })
                    .field("explain", *explain);
            }
            Request::Load { name, snapshot } => {
                o.field("op", "load")
                    .field("name", name)
                    .field("snapshot", snapshot);
            }
            Request::Rebuild {
                name,
                graph,
                k,
                beta,
                ordering,
                histogram,
                threads,
                maintain,
            } => {
                o.field("op", "rebuild")
                    .field("name", name)
                    .field("graph", graph)
                    .field("k", *k as u64)
                    .field("beta", *beta as u64)
                    .field("ordering", ordering)
                    .field("histogram", histogram)
                    .field("threads", *threads as u64)
                    .field("maintain", *maintain);
            }
            Request::Delta { name, changes } => {
                o.field("op", "delta")
                    .field("name", name)
                    .field("changes", changes);
            }
            Request::Maintenance { name, action } => {
                let action = match action {
                    MaintenanceAction::Status => "status",
                    MaintenanceAction::Compact => "compact",
                };
                o.field("op", "maintenance")
                    .field("name", name)
                    .field("action", action);
            }
        });
        line
    }
}

// ------------------------------------------------------------- the reader

/// Arrays and objects nested this deep are refused: the compat
/// `serde_json` recursion limit, so a request line and a snapshot file
/// accept the same nesting and neither can exhaust the stack.
const MAX_DEPTH: usize = 128;

/// The top-level fields requests read as scalars (`paths` and `exprs`
/// are read straight into their typed lists instead).
const SCALAR_KEYS: [&str; 15] = [
    "op",
    "estimator",
    "format",
    "explain",
    "name",
    "snapshot",
    "graph",
    "k",
    "beta",
    "threads",
    "ordering",
    "histogram",
    "maintain",
    "changes",
    "action",
];

/// A field-level outcome. The error is a well-formed line asking for the
/// wrong thing; it is reported only once the rest of the line has been
/// read, so a syntax fault anywhere wins.
type Field<T> = Result<T, ProtocolError>;

fn syntax(message: impl std::fmt::Display) -> ProtocolError {
    err(format!("invalid JSON: {message}"))
}

/// Quotes a field's source text in an error message the way the value's
/// `Debug` form reads (`String("x")`, `Number(PosInt(3))`, `Null`, …).
fn quote(source: &str) -> String {
    serde_json::from_str::<Value>(source).map_or_else(|_| source.to_owned(), |v| format!("{v:?}"))
}

/// A top-level field's value, decoded from its source text on demand.
enum Scalar<'a> {
    Str(Cow<'a, str>),
    Num(Number),
    Bool(bool),
    /// `null`, an array or an object.
    Other,
}

/// The pull reader: one pass over a line, handing typed values to its
/// caller. `pos` only ever stops on an ASCII byte or the end, so it is
/// always a char boundary.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// The source text from `start` to the current position.
    fn since(&self, start: usize) -> &'a str {
        self.text.get(start..self.pos).unwrap_or_default()
    }

    fn unexpected(&self) -> ProtocolError {
        syntax(format_args!(
            "unexpected {:?} at offset {}",
            self.peek().map(char::from),
            self.pos
        ))
    }

    /// Enters the array or object whose `open` byte is next.
    fn open(&mut self, open: u8) -> Result<(), ProtocolError> {
        if self.peek() != Some(open) {
            return Err(self.unexpected());
        }
        self.depth += 1;
        if self.depth >= MAX_DEPTH {
            return Err(syntax(format_args!(
                "recursion limit exceeded at offset {}",
                self.pos
            )));
        }
        self.pos += 1;
        Ok(())
    }

    /// Moves to the next item of the open container: past a `,`
    /// (`Ok(true)`, the reader on the item) or past the `close` byte
    /// (`Ok(false)`).
    fn next(&mut self, first: &mut bool, close: u8) -> Result<bool, ProtocolError> {
        self.ws();
        let was_first = std::mem::replace(first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !was_first => {
                self.pos += 1;
                self.ws();
                Ok(true)
            }
            _ if was_first => Ok(true),
            other => Err(syntax(format_args!(
                "expected ',' or {:?} at offset {}, got {:?}",
                char::from(close),
                self.pos,
                other.map(char::from)
            ))),
        }
    }

    /// Moves to the next member of the open object and reads its key,
    /// leaving the reader on the value; `None` past the closing brace.
    fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, ProtocolError> {
        if !self.next(first, b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.ws();
        if self.peek() != Some(b':') {
            return Err(syntax(format_args!("expected ':' at offset {}", self.pos)));
        }
        self.pos += 1;
        self.ws();
        Ok(Some(key))
    }

    /// Reads a string, borrowing it from the line unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, ProtocolError> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected());
        }
        self.pos += 1;
        let mut owned = String::new();
        loop {
            let rest = self.text.get(self.pos..).unwrap_or_default();
            let len = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or_else(|| syntax("unterminated string"))?;
            // `"` and `\` never occur inside a multi-byte character, so
            // the run ends on a char boundary.
            let run = rest.get(..len).unwrap_or_default();
            self.pos += len + 1;
            if rest.as_bytes().get(len) == Some(&b'"') {
                // Every escape appends a character, so an empty buffer
                // means the string had none.
                if owned.is_empty() {
                    return Ok(Cow::Borrowed(run));
                }
                owned.push_str(run);
                return Ok(Cow::Owned(owned));
            }
            owned.push_str(run);
            let escape = self.peek();
            self.pos += 1;
            owned.push(match escape {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| syntax("invalid \\u escape"))?;
                    self.pos += 4;
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or_else(|| syntax("invalid \\u code point"))?
                }
                other => {
                    return Err(syntax(format_args!(
                        "invalid escape {:?}",
                        other.map(char::from)
                    )))
                }
            });
        }
    }

    /// Reads a number with the compat `serde_json` grammar: integers stay
    /// exact, anything with a fraction, exponent or inner sign is a float.
    fn number(&mut self) -> Result<Number, ProtocolError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut float = false;
        // The plain non-negative integer every label id is, accumulated
        // in the scan (`None` once it overflows, as `u64` parsing fails).
        let mut digits = Some(0u64);
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {
                    digits =
                        digits.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        if !float && !negative {
            if let Some(v) = digits {
                return Ok(Number::PosInt(v));
            }
        }
        let text = self.since(start);
        let number = if float {
            text.parse().ok().map(Number::Float)
        } else if negative {
            text.parse().ok().map(Number::NegInt)
        } else {
            None
        };
        number.ok_or_else(|| syntax(format_args!("invalid number {text:?}")))
    }

    fn literal(&mut self, word: &str) -> Result<(), ProtocolError> {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        if !rest.starts_with(word.as_bytes()) {
            return Err(syntax(format_args!(
                "invalid literal at offset {}",
                self.pos
            )));
        }
        self.pos += word.len();
        Ok(())
    }

    /// Reads past one value of any kind, checking its syntax, and
    /// returns its source text.
    fn skip(&mut self) -> Result<&'a str, ProtocolError> {
        let start = self.pos;
        let mut first = true;
        match self.peek() {
            Some(b'{') => {
                self.open(b'{')?;
                while self.next_key(&mut first)?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.open(b'[')?;
                while self.next(&mut first, b']')? {
                    self.skip()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
            }
            Some(b't') => self.literal("true")?,
            Some(b'f') => self.literal("false")?,
            Some(b'n') => self.literal("null")?,
            _ => return Err(self.unexpected()),
        }
        Ok(self.since(start))
    }

    /// Reads an array through `item`. A value that is no array is skipped
    /// and answered with `not_array`; after the first failing item the
    /// rest are only checked for syntax.
    fn array<T>(
        &mut self,
        not_array: &str,
        mut item: impl FnMut(&mut Self) -> Result<Field<T>, ProtocolError>,
    ) -> Result<Field<Vec<T>>, ProtocolError> {
        if self.peek() != Some(b'[') {
            self.skip()?;
            return Ok(Err(err(not_array)));
        }
        self.open(b'[')?;
        let mut items = Vec::new();
        let mut failed = None;
        let mut first = true;
        while self.next(&mut first, b']')? {
            if failed.is_some() {
                self.skip()?;
                continue;
            }
            match item(self)? {
                Ok(value) => items.push(value),
                Err(e) => failed = Some(e),
            }
        }
        Ok(failed.map_or(Ok(items), Err))
    }

    fn step(&mut self) -> Result<Field<PathStep>, ProtocolError> {
        Ok(match self.peek() {
            Some(b'"') => Ok(PathStep::Name(self.string()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => {
                let n = self.number()?;
                n.as_u64()
                    .and_then(|v| u16::try_from(v).ok())
                    .map(PathStep::Id)
                    .ok_or_else(|| err(format!("label id {n:?} out of range")))
            }
            _ => {
                let source = self.skip()?;
                Err(err(format!(
                    "path step must be a name or id, got {}",
                    quote(source)
                )))
            }
        })
    }

    fn expr(&mut self) -> Result<Field<String>, ProtocolError> {
        if self.peek() == Some(b'"') {
            return Ok(Ok(self.string()?.into_owned()));
        }
        let source = self.skip()?;
        Ok(Err(err(format!(
            "each expression must be a string, got {}",
            quote(source)
        ))))
    }

    /// Reads the top-level object: the first value of every field a
    /// request can carry, every other member only checked for syntax.
    fn fields(&mut self) -> Result<Fields<'a>, ProtocolError> {
        self.open(b'{')?;
        let mut fields = Fields::default();
        let mut first = true;
        while let Some(key) = self.next_key(&mut first)? {
            match &*key {
                "paths" if fields.paths.is_none() => {
                    fields.paths =
                        Some(self.array("estimate needs an array field \"paths\"", |r| {
                            r.array("each path must be an array of steps", Reader::step)
                        })?);
                }
                "exprs" if fields.exprs.is_none() => {
                    fields.exprs = Some(
                        self.array("estimate_expr needs an array field \"exprs\"", Reader::expr)?,
                    );
                }
                key => match SCALAR_KEYS.iter().position(|k| *k == key) {
                    Some(slot) if fields.scalars.0[slot].is_none() => {
                        fields.scalars.0[slot] = Some(self.skip()?);
                    }
                    _ => {
                        self.skip()?;
                    }
                },
            }
        }
        Ok(fields)
    }
}

/// What the reader kept of a request's top-level object.
#[derive(Default)]
struct Fields<'a> {
    scalars: Scalars<'a>,
    paths: Option<Field<Vec<Vec<PathStep>>>>,
    exprs: Option<Field<Vec<String>>>,
}

/// The [`SCALAR_KEYS`] fields by position, each as the source text of
/// its first value (already checked for syntax).
#[derive(Default)]
struct Scalars<'a>([Option<&'a str>; SCALAR_KEYS.len()]);

impl<'a> Scalars<'a> {
    /// The field's source text and decoded value.
    fn get(&self, key: &str) -> Option<(&'a str, Scalar<'a>)> {
        let slot = SCALAR_KEYS.iter().position(|k| *k == key)?;
        let source = (*self.0.get(slot)?)?;
        let mut reader = Reader {
            text: source,
            pos: 0,
            depth: 0,
        };
        let value = match source.as_bytes().first() {
            Some(b'"') => reader.string().map(Scalar::Str),
            Some(b'-' | b'0'..=b'9') => reader.number().map(Scalar::Num),
            _ => Ok(match source {
                "true" => Scalar::Bool(true),
                "false" => Scalar::Bool(false),
                _ => Scalar::Other,
            }),
        };
        Some((source, value.unwrap_or(Scalar::Other)))
    }

    fn str(&self, key: &str) -> Option<Cow<'a, str>> {
        match self.get(key)? {
            (_, Scalar::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The string field, or `default` when it is absent or no string.
    fn str_or(&self, key: &str, default: &str) -> String {
        self.str(key)
            .map_or_else(|| default.to_owned(), Cow::into_owned)
    }

    fn required(&self, key: &str, message: &str) -> Result<String, ProtocolError> {
        self.str(key)
            .map(Cow::into_owned)
            .ok_or_else(|| err(message))
    }

    fn flag(&self, key: &str) -> Result<bool, ProtocolError> {
        match self.get(key) {
            None => Ok(false),
            Some((_, Scalar::Bool(b))) => Ok(b),
            Some((source, _)) => Err(err(format!(
                "field {key:?} must be a boolean, got {}",
                quote(source)
            ))),
        }
    }

    fn number(&self, key: &str) -> Result<Option<Number>, ProtocolError> {
        match self.get(key) {
            None => Ok(None),
            Some((_, Scalar::Num(n))) => Ok(Some(n)),
            Some((source, _)) => Err(err(format!(
                "field {key:?} must be a number, got {}",
                quote(source)
            ))),
        }
    }

    fn uint(&self, key: &str) -> Result<Option<u64>, ProtocolError> {
        self.number(key)?
            .map(|n| {
                n.as_u64()
                    .ok_or_else(|| err(format!("field {key:?} must be a non-negative integer")))
            })
            .transpose()
    }
}

impl Fields<'_> {
    /// Assembles the request `op` names, checking its fields in a fixed
    /// order so the first complaint is the same however the keys came.
    fn request(self) -> Result<Request, ProtocolError> {
        let Fields {
            scalars: f,
            paths,
            exprs,
        } = self;
        let op = f
            .str("op")
            .ok_or_else(|| err("missing string field \"op\""))?;
        Ok(match &*op {
            "ping" => Request::Ping,
            "list" => Request::List,
            "metrics" => Request::Metrics {
                prometheus: match f.get("format") {
                    None => false,
                    Some((_, Scalar::Str(format))) if format == "report" => false,
                    Some((_, Scalar::Str(format))) if format == "prometheus" => true,
                    Some((source, _)) => {
                        return Err(err(format!(
                            "field \"format\" must be \"report\" or \"prometheus\", got {}",
                            quote(source)
                        )))
                    }
                },
            },
            "estimate" => Request::Estimate {
                estimator: f.str_or("estimator", "default"),
                paths: paths
                    .unwrap_or_else(|| Err(err("estimate needs an array field \"paths\"")))?,
            },
            "estimate_expr" => Request::EstimateExpr {
                estimator: f.str_or("estimator", "default"),
                exprs: exprs
                    .unwrap_or_else(|| Err(err("estimate_expr needs an array field \"exprs\"")))?,
                explain: f.flag("explain")?,
            },
            "load" => Request::Load {
                name: f.str_or("name", "default"),
                snapshot: f.required("snapshot", "load needs a string field \"snapshot\"")?,
            },
            "rebuild" => Request::Rebuild {
                name: f.str_or("name", "default"),
                graph: f.required("graph", "rebuild needs a string field \"graph\"")?,
                k: f.uint("k")?.unwrap_or(3) as usize,
                beta: f.uint("beta")?.unwrap_or(64) as usize,
                threads: f.uint("threads")?.unwrap_or(1) as usize,
                ordering: f.str_or("ordering", "sum-based"),
                histogram: f.str_or("histogram", "v-optimal-greedy"),
                maintain: f.flag("maintain")?,
            },
            "delta" => Request::Delta {
                name: f.str_or("name", "default"),
                changes: f.required("changes", "delta needs a string field \"changes\"")?,
            },
            "maintenance" => Request::Maintenance {
                name: f.str_or("name", "default"),
                action: match f.str("action").as_deref() {
                    None | Some("status") => MaintenanceAction::Status,
                    Some("compact") => MaintenanceAction::Compact,
                    Some(other) => {
                        return Err(err(format!(
                            "field \"action\" must be \"status\" or \"compact\", got {other:?}"
                        )))
                    }
                },
            },
            other => return Err(err(format!("unknown op {other:?}"))),
        })
    }
}

// ------------------------------------------------------------- the writer

/// A value the writer prints in place, byte for byte as the compat
/// `serde_json` printer prints the equal [`Value`].
pub trait WriteJson {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl WriteJson for u64 {
    fn write_json(&self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
}

impl WriteJson for f64 {
    /// Rust's shortest round-trip form, with `.0` kept on integral
    /// values so they stay floats; non-finite values print as `null`.
    fn write_json(&self, out: &mut String) {
        if !self.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        let _ = write!(out, "{self}");
        let printed = out.as_bytes().get(start..).unwrap_or_default();
        if !printed.iter().any(|b| matches!(b, b'.' | b'e' | b'E')) {
            out.push_str(".0");
        }
    }
}

impl WriteJson for str {
    /// Escapes `"`, `\` and control characters; everything else, non-ASCII
    /// text included, is copied as is.
    fn write_json(&self, out: &mut String) {
        out.push('"');
        let mut run = 0;
        for (i, b) in self.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so both ends are char boundaries.
            out.push_str(self.get(run..i).unwrap_or_default());
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
        out.push_str(self.get(run..).unwrap_or_default());
        out.push('"');
    }
}

impl WriteJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Writes the members of one JSON object straight into a line buffer.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
    }

    /// Appends `"key":value`.
    pub fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Appends `"key":{…}` with the members `members` writes.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        self.key(key);
        write_object(self.out, members);
        self
    }

    /// Appends `"key":[…]` with the items `items` writes.
    pub fn array(&mut self, key: &str, items: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        self.key(key);
        write_array(self.out, items);
        self
    }
}

/// Writes the items of one JSON array straight into a line buffer.
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ArrayWriter<'_> {
    fn comma(&mut self) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
    }

    /// Appends one value.
    pub fn item(&mut self, value: impl WriteJson) -> &mut Self {
        self.comma();
        value.write_json(self.out);
        self
    }

    /// Appends one object with the members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        self.comma();
        write_object(self.out, members);
        self
    }

    /// Appends one array with the items `items` writes.
    pub fn array(&mut self, items: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        self.comma();
        write_array(self.out, items);
        self
    }
}

fn write_object(out: &mut String, members: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    members(&mut ObjectWriter {
        out: &mut *out,
        empty: true,
    });
    out.push('}');
}

fn write_array(out: &mut String, items: impl FnOnce(&mut ArrayWriter<'_>)) {
    out.push('[');
    items(&mut ArrayWriter {
        out: &mut *out,
        empty: true,
    });
    out.push(']');
}

/// Appends a success line to `out` (no newline): `"ok": true`, then the
/// members `fields` writes.
pub fn write_ok(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    write_object(out, |o| {
        o.field("ok", true);
        fields(o);
    });
}

/// Builds a success response carrying `fields`, for callers that hold
/// `Value`s; the server itself writes through [`write_ok`].
pub fn ok_response(mut fields: Vec<(String, Value)>) -> String {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.append(&mut fields);
    serde_json::to_string(&Value::Object(all))
        .unwrap_or_else(|_| error_response("response serialization failed"))
}

/// Builds an error line carrying `message` plus the members `extra`
/// writes.
fn refusal(message: &str, extra: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut line = String::new();
    write_object(&mut line, |o| {
        o.field("ok", false).field("error", message);
        extra(o);
    });
    line
}

/// Builds an error response.
pub fn error_response(message: &str) -> String {
    refusal(message, |_| {})
}

/// Builds the structured admission-control refusal: an error line
/// additionally carrying `"overloaded": true` and a machine-readable
/// `"reason"` (`"capacity"`, `"quota"`, or `"shed"`), so clients can
/// distinguish back-off-and-retry from a request that is simply wrong.
pub fn overloaded_response(reason: &str, message: &str) -> String {
    refusal(message, |o| {
        o.field("overloaded", true).field("reason", reason);
    })
}

/// Builds the structured maintenance backpressure refusal: the delta
/// queue is at its configured cap, so the batch was **not** enqueued.
/// Carries `"backpressure": true`; the client should retry after the
/// next compacted publish drains the queue.
pub fn backpressure_response(message: &str) -> String {
    refusal(message, |o| {
        o.field("backpressure", true);
    })
}

/// Writes a metrics report's members.
pub(crate) fn write_metrics(o: &mut ObjectWriter<'_>, report: &MetricsReport) {
    o.field("uptime_seconds", report.uptime.as_secs_f64())
        .field("requests", report.requests)
        .field("paths", report.paths)
        .field("errors", report.errors)
        .field("swaps", report.swaps)
        .field("rebuilds_started", report.rebuilds_started)
        .field("rebuilds_failed", report.rebuilds_failed)
        .field("rebuilds_superseded", report.rebuilds_superseded)
        .field("deltas_started", report.deltas_started)
        .field("deltas_failed", report.deltas_failed)
        .field("deltas_superseded", report.deltas_superseded)
        .field("qps", report.qps)
        .field("p50_us", report.p50.as_secs_f64() * 1e6)
        .field("p99_us", report.p99.as_secs_f64() * 1e6)
        .field("cache_hits", report.cache_hits)
        .field("cache_misses", report.cache_misses)
        .field("cache_hit_rate", report.cache_hit_rate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Today's reference parse: the whole line into a `Value` tree, then
    /// field by field. The typed reader must agree with it on every line.
    fn oracle(line: &str) -> Result<Request, ProtocolError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing string field \"op\""))?;
        match op {
            "ping" => Ok(Request::Ping),
            "list" => Ok(Request::List),
            "metrics" => match value.get("format") {
                None => Ok(Request::Metrics { prometheus: false }),
                Some(Value::String(f)) if f == "report" => {
                    Ok(Request::Metrics { prometheus: false })
                }
                Some(Value::String(f)) if f == "prometheus" => {
                    Ok(Request::Metrics { prometheus: true })
                }
                Some(other) => Err(err(format!(
                    "field \"format\" must be \"report\" or \"prometheus\", got {other:?}"
                ))),
            },
            "estimate" => {
                let estimator = value
                    .get("estimator")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let paths_value = value
                    .get("paths")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("estimate needs an array field \"paths\""))?;
                let mut paths = Vec::with_capacity(paths_value.len());
                for p in paths_value {
                    let steps_value = p
                        .as_array()
                        .ok_or_else(|| err("each path must be an array of steps"))?;
                    let mut steps = Vec::with_capacity(steps_value.len());
                    for s in steps_value {
                        steps.push(match s {
                            Value::String(name) => PathStep::Name(name.clone()),
                            Value::Number(n) => {
                                let id = n
                                    .as_u64()
                                    .and_then(|v| u16::try_from(v).ok())
                                    .ok_or_else(|| err(format!("label id {n:?} out of range")))?;
                                PathStep::Id(id)
                            }
                            other => {
                                return Err(err(format!(
                                    "path step must be a name or id, got {other:?}"
                                )))
                            }
                        });
                    }
                    paths.push(steps);
                }
                Ok(Request::Estimate { estimator, paths })
            }
            "estimate_expr" => {
                let estimator = value
                    .get("estimator")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let exprs_value = value
                    .get("exprs")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("estimate_expr needs an array field \"exprs\""))?;
                let mut exprs = Vec::with_capacity(exprs_value.len());
                for e in exprs_value {
                    match e {
                        Value::String(s) => exprs.push(s.clone()),
                        other => {
                            return Err(err(format!(
                                "each expression must be a string, got {other:?}"
                            )))
                        }
                    }
                }
                let explain = match value.get("explain") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(other) => {
                        return Err(err(format!(
                            "field \"explain\" must be a boolean, got {other:?}"
                        )))
                    }
                };
                Ok(Request::EstimateExpr {
                    estimator,
                    exprs,
                    explain,
                })
            }
            "load" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let snapshot = value
                    .get("snapshot")
                    .and_then(Value::as_str)
                    .ok_or_else(|| err("load needs a string field \"snapshot\""))?
                    .to_owned();
                Ok(Request::Load { name, snapshot })
            }
            "rebuild" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let graph = value
                    .get("graph")
                    .and_then(Value::as_str)
                    .ok_or_else(|| err("rebuild needs a string field \"graph\""))?
                    .to_owned();
                let uint_field = |field: &str, default: u64| -> Result<usize, ProtocolError> {
                    match value.get(field) {
                        None => Ok(default as usize),
                        Some(Value::Number(n)) => n.as_u64().map(|v| v as usize).ok_or_else(|| {
                            err(format!("field {field:?} must be a non-negative integer"))
                        }),
                        Some(other) => Err(err(format!(
                            "field {field:?} must be a number, got {other:?}"
                        ))),
                    }
                };
                let k = uint_field("k", 3)?;
                let beta = uint_field("beta", 64)?;
                let threads = uint_field("threads", 1)?;
                let ordering = value
                    .get("ordering")
                    .and_then(Value::as_str)
                    .unwrap_or("sum-based")
                    .to_owned();
                let histogram = value
                    .get("histogram")
                    .and_then(Value::as_str)
                    .unwrap_or("v-optimal-greedy")
                    .to_owned();
                let maintain = match value.get("maintain") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(other) => {
                        return Err(err(format!(
                            "field \"maintain\" must be a boolean, got {other:?}"
                        )))
                    }
                };
                Ok(Request::Rebuild {
                    name,
                    graph,
                    k,
                    beta,
                    ordering,
                    histogram,
                    threads,
                    maintain,
                })
            }
            "delta" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let changes = value
                    .get("changes")
                    .and_then(Value::as_str)
                    .ok_or_else(|| err("delta needs a string field \"changes\""))?
                    .to_owned();
                Ok(Request::Delta { name, changes })
            }
            "maintenance" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let action = match value.get("action").and_then(Value::as_str) {
                    None | Some("status") => MaintenanceAction::Status,
                    Some("compact") => MaintenanceAction::Compact,
                    Some(other) => {
                        return Err(err(format!(
                            "field \"action\" must be \"status\" or \"compact\", got {other:?}"
                        )))
                    }
                };
                Ok(Request::Maintenance { name, action })
            }
            other => Err(err(format!("unknown op {other:?}"))),
        }
    }

    #[test]
    fn parses_mixed_name_and_id_paths() {
        let r = Request::parse(
            r#"{"op":"estimate","estimator":"main","paths":[["knows","likes"],[0,1]]}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Estimate {
                estimator: "main".into(),
                paths: vec![
                    vec![
                        PathStep::Name("knows".into()),
                        PathStep::Name("likes".into())
                    ],
                    vec![PathStep::Id(0), PathStep::Id(1)],
                ],
            }
        );
    }

    #[test]
    fn round_trips_through_to_line() {
        let requests = vec![
            Request::Ping,
            Request::List,
            Request::Metrics { prometheus: false },
            Request::Metrics { prometheus: true },
            Request::Estimate {
                estimator: "default".into(),
                paths: vec![vec![PathStep::Name("a".into()), PathStep::Id(3)]],
            },
            Request::EstimateExpr {
                estimator: "main".into(),
                exprs: vec!["(a|b)/c?".into(), "a{1,3}".into()],
                explain: true,
            },
            Request::Load {
                name: "x".into(),
                snapshot: "/tmp/s.json".into(),
            },
            Request::Rebuild {
                name: "x".into(),
                graph: "/tmp/g.tsv".into(),
                k: 4,
                beta: 128,
                ordering: "sum-based".into(),
                histogram: "equi-width".into(),
                threads: 2,
                maintain: true,
            },
            Request::Delta {
                name: "x".into(),
                changes: "/tmp/changes.tsv".into(),
            },
            Request::Maintenance {
                name: "default".into(),
                action: MaintenanceAction::Status,
            },
            Request::Maintenance {
                name: "x".into(),
                action: MaintenanceAction::Compact,
            },
        ];
        for r in requests {
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn maintenance_parses_with_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"maintenance"}"#).unwrap();
        assert_eq!(
            r,
            Request::Maintenance {
                name: "default".into(),
                action: MaintenanceAction::Status,
            }
        );
        assert!(Request::parse(r#"{"op":"maintenance","action":"explode"}"#).is_err());
    }

    #[test]
    fn rebuild_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"rebuild","graph":"/g.tsv"}"#).unwrap();
        assert_eq!(
            r,
            Request::Rebuild {
                name: "default".into(),
                graph: "/g.tsv".into(),
                k: 3,
                beta: 64,
                ordering: "sum-based".into(),
                histogram: "v-optimal-greedy".into(),
                threads: 1,
                maintain: false,
            }
        );
        assert!(Request::parse(r#"{"op":"rebuild"}"#).is_err());
        assert!(Request::parse(r#"{"op":"rebuild","graph":"/g","k":"three"}"#).is_err());
        assert!(Request::parse(r#"{"op":"rebuild","graph":"/g","maintain":3}"#).is_err());
    }

    #[test]
    fn delta_parses_with_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"delta","changes":"/c.tsv"}"#).unwrap();
        assert_eq!(
            r,
            Request::Delta {
                name: "default".into(),
                changes: "/c.tsv".into(),
            }
        );
        assert!(Request::parse(r#"{"op":"delta"}"#).is_err());
        assert!(Request::parse(r#"{"op":"delta","changes":7}"#).is_err());
    }

    #[test]
    fn estimator_defaults_to_default() {
        let r = Request::parse(r#"{"op":"estimate","paths":[[1]]}"#).unwrap();
        assert!(matches!(r, Request::Estimate { estimator, .. } if estimator == "default"));
    }

    #[test]
    fn estimate_expr_parses_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"estimate_expr","exprs":["(a|b)/c"]}"#).unwrap();
        assert_eq!(
            r,
            Request::EstimateExpr {
                estimator: "default".into(),
                exprs: vec!["(a|b)/c".into()],
                explain: false,
            }
        );
        assert!(Request::parse(r#"{"op":"estimate_expr"}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate_expr","exprs":[7]}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate_expr","exprs":["a"],"explain":3}"#).is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"nope"}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate"}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate","paths":[[true]]}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate","paths":[[99999]]}"#).is_err());
        assert!(Request::parse(r#"{"op":"load"}"#).is_err());
        assert!(Request::parse(r#"{"paths":[[1]]}"#).is_err());
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(vec![(
            "estimates".into(),
            Value::Array(vec![Value::Number(Number::Float(1.5))]),
        )]);
        assert!(
            ok.starts_with(r#"{"ok":true"#) && !ok.contains('\n'),
            "{ok}"
        );
        let e = error_response("boom");
        assert!(e.contains(r#""ok":false"#) && e.contains("boom"));
    }

    #[test]
    fn structured_refusals_carry_their_markers() {
        let o = overloaded_response("quota", "client over in-flight quota");
        assert!(o.contains(r#""ok":false"#) && !o.contains('\n'), "{o}");
        assert!(o.contains(r#""overloaded":true"#), "{o}");
        assert!(o.contains(r#""reason":"quota""#), "{o}");
        let b = backpressure_response("delta queue full");
        assert!(b.contains(r#""ok":false"#), "{b}");
        assert!(
            b.contains(r#""backpressure":true"#) && b.contains("full"),
            "{b}"
        );
    }

    // ------------------------------------------------ reader vs the oracle

    /// A strategy from a plain generator function.
    struct Gen<F>(F);

    impl<T, F: Fn(&mut TestRng) -> T> Strategy for Gen<F> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> &'a T {
        &items[rng.below(items.len() as u64) as usize]
    }

    fn chance(rng: &mut TestRng, one_in: u64) -> bool {
        rng.below(one_in) == 0
    }

    fn ws(rng: &mut TestRng) -> &'static str {
        const WS: [&str; 8] = ["", "", "", " ", "  ", "\t", "\n", "\r\n "];
        WS[rng.below(8) as usize]
    }

    /// Label names and other strings worth quoting: quotes, backslashes,
    /// slashes, control characters and non-ASCII text.
    const NAMES: [&str; 12] = [
        "knows",
        "likes",
        "0",
        "a\"b",
        "back\\slash",
        "/",
        "é",
        "名前",
        "😀",
        "tab\there",
        "ctl\u{1}\u{1f}",
        "",
    ];

    /// A JSON string literal for `text`, escaping at random wherever JSON
    /// offers a choice.
    fn quoted(rng: &mut TestRng, text: &str) -> String {
        let mut out = String::from("\"");
        for c in text.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '/' if chance(rng, 2) => out.push_str("\\/"),
                '\n' if chance(rng, 2) => out.push_str("\\n"),
                '\t' if chance(rng, 2) => out.push_str("\\t"),
                c if (c as u32) < 0x10000 && chance(rng, 4) => {
                    if chance(rng, 2) {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    } else {
                        out.push_str(&format!("\\u{:04X}", c as u32));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Any JSON value, nested at most `depth` more levels.
    fn any_json(rng: &mut TestRng, depth: u32) -> String {
        match rng.below(if depth == 0 { 6 } else { 8 }) {
            0 => "null".into(),
            1 => "true".into(),
            2 => "false".into(),
            3 => (*pick(
                rng,
                &[
                    "0",
                    "7",
                    "-3",
                    "1.5",
                    "-0.0",
                    "1e3",
                    "2E-2",
                    "1e+2",
                    "1.0",
                    "65535",
                    "65536",
                    "18446744073709551615",
                    "-9223372036854775808",
                    "01",
                ],
            ))
            .into(),
            4 | 5 => {
                let name = *pick(rng, &NAMES);
                quoted(rng, name)
            }
            6 => {
                let items: Vec<String> = (0..rng.below(4))
                    .map(|_| any_json(rng, depth - 1))
                    .collect();
                let sep = format!("{},{}", ws(rng), ws(rng));
                format!("[{}{}{}]", ws(rng), items.join(&sep), ws(rng))
            }
            _ => {
                let members: Vec<String> = (0..rng.below(4))
                    .map(|_| {
                        let key = *pick(rng, &["a", "op", "paths", "x"]);
                        format!("{}:{}", quoted(rng, key), any_json(rng, depth - 1))
                    })
                    .collect();
                format!("{{{}}}", members.join(","))
            }
        }
    }

    /// What a request field holds when it holds the right kind of value.
    #[derive(Clone, Copy)]
    enum Kind {
        Str,
        Bool,
        Uint,
        Paths,
        Exprs,
        OneOf(&'static [&'static str]),
    }

    const OPS: [(&str, &[(&str, Kind)]); 10] = [
        ("ping", &[]),
        ("list", &[]),
        (
            "metrics",
            &[("format", Kind::OneOf(&["report", "prometheus", "text"]))],
        ),
        (
            "estimate",
            &[("estimator", Kind::Str), ("paths", Kind::Paths)],
        ),
        (
            "estimate_expr",
            &[
                ("estimator", Kind::Str),
                ("exprs", Kind::Exprs),
                ("explain", Kind::Bool),
            ],
        ),
        ("load", &[("name", Kind::Str), ("snapshot", Kind::Str)]),
        (
            "rebuild",
            &[
                ("name", Kind::Str),
                ("graph", Kind::Str),
                ("k", Kind::Uint),
                ("beta", Kind::Uint),
                ("threads", Kind::Uint),
                ("ordering", Kind::Str),
                ("histogram", Kind::Str),
                ("maintain", Kind::Bool),
            ],
        ),
        ("delta", &[("name", Kind::Str), ("changes", Kind::Str)]),
        (
            "maintenance",
            &[
                ("name", Kind::Str),
                ("action", Kind::OneOf(&["status", "compact", "explode"])),
            ],
        ),
        ("nope", &[]),
    ];

    fn step(rng: &mut TestRng) -> String {
        if chance(rng, 2) {
            let name = *pick(rng, &NAMES);
            quoted(rng, name)
        } else if chance(rng, 20) {
            any_json(rng, 1)
        } else {
            (*pick(
                rng,
                &["0", "1", "2", "7", "65535", "1.0", "65536", "-1", "1.5"],
            ))
            .into()
        }
    }

    fn value_of(rng: &mut TestRng, kind: Kind) -> String {
        if chance(rng, 10) {
            return any_json(rng, 2);
        }
        match kind {
            Kind::Str => {
                let name = *pick(rng, &NAMES);
                quoted(rng, name)
            }
            Kind::Bool => (*pick(rng, &["true", "false"])).into(),
            Kind::Uint => (*pick(rng, &["0", "1", "3", "64", "1.0", "-1", "2.5", "1e+2"])).into(),
            Kind::OneOf(options) => {
                let option = *pick(rng, options);
                quoted(rng, option)
            }
            Kind::Paths | Kind::Exprs => {
                let items: Vec<String> = (0..rng.below(5))
                    .map(|_| match kind {
                        Kind::Paths if chance(rng, 20) => any_json(rng, 1),
                        Kind::Paths => {
                            let steps: Vec<String> = (0..rng.below(5)).map(|_| step(rng)).collect();
                            format!("[{}]", steps.join(&format!("{},{}", ws(rng), ws(rng))))
                        }
                        _ if chance(rng, 20) => any_json(rng, 1),
                        _ => {
                            let expr = *pick(rng, &["(a|b)/c?", "a{1,3}", ".", "0|1", "é/\"x\""]);
                            quoted(rng, expr)
                        }
                    })
                    .collect();
                format!(
                    "[{}{}{}]",
                    ws(rng),
                    items.join(&format!(",{}", ws(rng))),
                    ws(rng)
                )
            }
        }
    }

    /// A well-formed request line for a random op: its fields (now and
    /// then of the wrong kind) in shuffled order, unknown and repeated
    /// members, random whitespace and randomly escaped keys.
    fn request_line(rng: &mut TestRng) -> String {
        let (op, fields) = *pick(rng, &OPS);
        let mut members: Vec<(String, String)> = Vec::new();
        if !chance(rng, 20) {
            let op_value = if chance(rng, 20) {
                any_json(rng, 1)
            } else {
                quoted(rng, op)
            };
            members.push(("op".into(), op_value));
        }
        for &(key, kind) in fields {
            if !chance(rng, 4) {
                members.push((key.into(), value_of(rng, kind)));
            }
        }
        for _ in 0..rng.below(3) {
            let key = *pick(rng, &["x", "Op", "op ", "pathsx", "é", ""]);
            members.push((key.into(), any_json(rng, 3)));
        }
        if !members.is_empty() && chance(rng, 4) {
            // A repeated key, before or after the first occurrence.
            let (key, _) = members[rng.below(members.len() as u64) as usize].clone();
            let kind = fields
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(Kind::Str, |&(_, kind)| kind);
            let at = rng.below(members.len() as u64 + 1) as usize;
            members.insert(at, (key, value_of(rng, kind)));
        }
        for i in (1..members.len()).rev() {
            members.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut line = String::from(ws(rng));
        line.push('{');
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(ws(rng));
            line.push_str(&quoted(rng, key));
            line.push_str(ws(rng));
            line.push(':');
            line.push_str(ws(rng));
            line.push_str(value);
            line.push_str(ws(rng));
        }
        line.push('}');
        line.push_str(ws(rng));
        line
    }

    /// Bit flips, truncations and splices of a well-formed line.
    fn mutated_line(rng: &mut TestRng) -> String {
        let mut bytes = request_line(rng).into_bytes();
        let donor = request_line(rng).into_bytes();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len() as u64 + 1) as usize;
            match rng.below(4) {
                0 if !bytes.is_empty() => {
                    let i = at.min(bytes.len() - 1);
                    bytes[i] ^= 1 << rng.below(8);
                }
                1 => bytes.truncate(at),
                2 => {
                    let from = rng.below(donor.len() as u64) as usize;
                    let to = from + rng.below((donor.len() - from) as u64 + 1) as usize;
                    bytes.splice(at..at, donor[from..to].iter().copied());
                }
                _ => {
                    let end = at + rng.below((bytes.len() - at) as u64 + 1) as usize;
                    bytes.drain(at..end);
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn typed_parse_matches_the_oracle_on_well_formed_lines(line in Gen(request_line)) {
            prop_assert_eq!(Request::parse(&line), oracle(&line), "{}", line);
        }

        #[test]
        fn typed_parse_accepts_exactly_what_the_oracle_accepts(line in Gen(mutated_line)) {
            let (ours, theirs) = (Request::parse(&line), oracle(&line));
            match (&ours, &theirs) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}", line),
                (Err(a), Err(b)) => prop_assert!(
                    a == b || (a.0.starts_with("invalid JSON: ") && b.0.starts_with("invalid JSON: ")),
                    "{line}: {a} vs {b}"
                ),
                _ => prop_assert!(false, "{line}: {ours:?} vs {theirs:?}"),
            }
        }
    }

    #[test]
    fn nesting_is_refused_at_the_oracle_depth() {
        let nested = |depth: usize| {
            format!(
                r#"{{"op":"ping","x":{}{}}}"#,
                "[".repeat(depth - 1),
                "]".repeat(depth - 1)
            )
        };
        // The top-level object is one level.
        let deepest = nested(MAX_DEPTH - 1);
        assert_eq!(Request::parse(&deepest), Ok(Request::Ping));
        assert_eq!(oracle(&deepest), Ok(Request::Ping));
        let too_deep = nested(MAX_DEPTH);
        let e = Request::parse(&too_deep).unwrap_err();
        assert!(e.0.starts_with("invalid JSON: recursion limit"), "{e}");
        assert!(oracle(&too_deep).is_err());
        // 100,000 levels (about 200 KB) is an error line, not a stack
        // overflow — in either parser.
        let hostile = nested(100_000);
        assert!(Request::parse(&hostile)
            .unwrap_err()
            .0
            .starts_with("invalid JSON: "));
        assert!(oracle(&hostile).is_err());
    }

    #[test]
    fn malformed_lines_are_invalid_json_in_both_parsers() {
        for line in [
            r#"{"op":"ping",}"#,
            r#"{,"op":"ping"}"#,
            r#"{"op":"ping" "x":1}"#,
            r#"{"op":"ping","x":[1,]}"#,
            r#"{"op":"ping","x":[,1]}"#,
            r#"{"op":"ping","x":[1 2]}"#,
            r#"{"op":"ping","x":{"a" 1}}"#,
            r#"{"op":"ping","x":{"a":1,}}"#,
            r#"{"op":"ping"}}"#,
            r#"{"op":"ping""#,
            r#"{"op":"ping","x":"\u+041"}"#,
            r#"{"op":"ping","x":"\ud800"}"#,
            r#"{"op":"ping","x":"\q"}"#,
            r#"{"op":"ping","x":1e}"#,
            r#"{"op":"ping","x":-}"#,
            r#"{"op":"ping","x":18446744073709551616}"#,
            r#"{"op":"ping","x":tru}"#,
            r#"{"op":"estimate","paths":[[true],[1,]]}"#,
            "",
            "  ",
        ] {
            let ours = Request::parse(line).unwrap_err();
            assert!(ours.0.starts_with("invalid JSON: "), "{line}: {ours}");
            assert!(oracle(line).is_err(), "{line}");
        }
        // Exponents with either sign, leading zeros and a lone minus zero
        // are numbers to both.
        for line in [
            r#"{"op":"ping","x":[1e+2,-2.5E+1,1E-2,01,-0]}"#,
            r#"{"op":"rebuild","graph":"/g","k":1e+1}"#,
        ] {
            assert_eq!(Request::parse(line), oracle(line), "{line}");
            assert!(oracle(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn field_errors_are_quoted_verbatim() {
        for (line, message) in [
            (
                r#"{"op":"estimate","paths":[[true]]}"#,
                "path step must be a name or id, got Bool(true)",
            ),
            (
                r#"{"op":"estimate","paths":[[1.5]]}"#,
                "label id Float(1.5) out of range",
            ),
            (
                r#"{"op":"estimate_expr","exprs":[["a"]]}"#,
                r#"each expression must be a string, got Array([String("a")])"#,
            ),
            (
                r#"{"op":"metrics","format":{"a":null}}"#,
                r#"field "format" must be "report" or "prometheus", got Object([("a", Null)])"#,
            ),
            (
                r#"{"op":"rebuild","graph":"/g","k":"three"}"#,
                r#"field "k" must be a number, got String("three")"#,
            ),
            (r#"{"op":"nope"}"#, r#"unknown op "nope""#),
            (r#"[1]"#, r#"missing string field "op""#),
        ] {
            assert_eq!(Request::parse(line), Err(err(message)), "{line}");
            assert_eq!(oracle(line), Err(err(message)), "{line}");
        }
        // A syntax fault wins over an earlier field error, as in the oracle.
        let e = Request::parse(r#"{"op":"estimate","paths":[[true]],"x":tru}"#).unwrap_err();
        assert!(e.0.starts_with("invalid JSON: "), "{e}");
    }

    // ------------------------------------------------ writer vs the oracle

    fn written(value: impl WriteJson) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

    fn printed(value: Value) -> String {
        serde_json::to_string(&value).unwrap()
    }

    fn float_bits(rng: &mut TestRng) -> f64 {
        match rng.below(4) {
            0 => f64::from_bits(rng.next_u64()),
            1 => *pick(
                rng,
                &[
                    0.0,
                    -0.0,
                    3.0,
                    -7.0,
                    1e300,
                    -1e300,
                    1e-300,
                    f64::MIN_POSITIVE,
                    5e-324,
                    -5e-324,
                    f64::MAX,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e15,
                    1e16,
                    1e21,
                    0.1,
                ],
            ),
            2 => (rng.next_u64() >> 11) as f64,
            _ => rng.unit_f64() * 10f64.powi(rng.below(40) as i32 - 20),
        }
    }

    fn text(rng: &mut TestRng) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
            '名', '😀',
        ];
        (0..rng.below(12)).map(|_| *pick(rng, &CHARS)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn floats_print_as_the_compat_printer_prints_them(x in Gen(float_bits)) {
            prop_assert_eq!(written(x), printed(Value::Number(Number::Float(x))), "{:e}", x);
        }

        #[test]
        fn strings_print_as_the_compat_printer_prints_them(s in Gen(text)) {
            prop_assert_eq!(written(s.as_str()), printed(Value::String(s.clone())));
        }
    }

    #[test]
    fn integral_floats_keep_their_fraction() {
        assert_eq!(written(3.0), "3.0");
        assert_eq!(written(-0.0), "-0.0");
        assert_eq!(written(f64::NAN), "null");
        assert_eq!(written(f64::NEG_INFINITY), "null");
        assert_eq!(written(1e300).len(), "1".len() + 300 + ".0".len());
    }

    /// Today's refusal and success builders, field for field.
    fn oracle_line(ok: bool, fields: Vec<(&str, Value)>) -> String {
        let mut all = vec![("ok".to_string(), Value::Bool(ok))];
        all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        printed(Value::Object(all))
    }

    #[test]
    fn refusals_and_ok_lines_match_the_oracle() {
        let mut rng = TestRng::deterministic();
        for _ in 0..500 {
            let (message, reason) = (text(&mut rng), text(&mut rng));
            assert_eq!(
                error_response(&message),
                oracle_line(false, vec![("error", Value::string(&message))])
            );
            assert_eq!(
                overloaded_response(&reason, &message),
                oracle_line(
                    false,
                    vec![
                        ("error", Value::string(&message)),
                        ("overloaded", Value::Bool(true)),
                        ("reason", Value::string(&reason)),
                    ]
                )
            );
            assert_eq!(
                backpressure_response(&message),
                oracle_line(
                    false,
                    vec![
                        ("error", Value::string(&message)),
                        ("backpressure", Value::Bool(true)),
                    ]
                )
            );
            let fields = vec![
                (
                    text(&mut rng),
                    Value::Number(Number::Float(float_bits(&mut rng))),
                ),
                (
                    text(&mut rng),
                    Value::Array(vec![Value::Null, Value::string(text(&mut rng))]),
                ),
            ];
            let expected = oracle_line(
                true,
                fields
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect(),
            );
            assert_eq!(ok_response(fields), expected);
        }
        assert_eq!(ok_response(vec![]), r#"{"ok":true}"#);
    }

    /// Today's metrics object, member for member.
    fn metrics_to_value(report: &MetricsReport) -> Value {
        let int = |v: u64| Value::Number(Number::PosInt(v));
        let float = |v: f64| Value::Number(Number::Float(v));
        Value::Object(vec![
            ("uptime_seconds".into(), float(report.uptime.as_secs_f64())),
            ("requests".into(), int(report.requests)),
            ("paths".into(), int(report.paths)),
            ("errors".into(), int(report.errors)),
            ("swaps".into(), int(report.swaps)),
            ("rebuilds_started".into(), int(report.rebuilds_started)),
            ("rebuilds_failed".into(), int(report.rebuilds_failed)),
            (
                "rebuilds_superseded".into(),
                int(report.rebuilds_superseded),
            ),
            ("deltas_started".into(), int(report.deltas_started)),
            ("deltas_failed".into(), int(report.deltas_failed)),
            ("deltas_superseded".into(), int(report.deltas_superseded)),
            ("qps".into(), float(report.qps)),
            ("p50_us".into(), float(report.p50.as_secs_f64() * 1e6)),
            ("p99_us".into(), float(report.p99.as_secs_f64() * 1e6)),
            ("cache_hits".into(), int(report.cache_hits)),
            ("cache_misses".into(), int(report.cache_misses)),
            ("cache_hit_rate".into(), float(report.cache_hit_rate)),
        ])
    }

    #[test]
    fn metrics_objects_match_the_oracle() {
        use std::time::Duration;
        let mut rng = TestRng::deterministic();
        for _ in 0..500 {
            let mut next = || rng.next_u64() >> rng.below(64);
            let report = MetricsReport {
                uptime: Duration::from_nanos(next()),
                requests: next(),
                paths: next(),
                errors: next(),
                swaps: next(),
                rebuilds_started: next(),
                rebuilds_failed: next(),
                rebuilds_superseded: next(),
                deltas_started: next(),
                deltas_failed: next(),
                deltas_superseded: next(),
                qps: next() as f64 / 7.0,
                p50: Duration::from_nanos(next()),
                p99: Duration::from_nanos(next()),
                mean: Duration::from_nanos(next()),
                cache_hits: next(),
                cache_misses: next(),
                cache_hit_rate: (next() % 1000) as f64 / 999.0,
            };
            let mut out = String::new();
            write_object(&mut out, |o| write_metrics(o, &report));
            assert_eq!(out, printed(metrics_to_value(&report)));
        }
    }
}
