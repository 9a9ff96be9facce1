//! The regular-path-query IR: one expression type for every estimation
//! consumer.
//!
//! A [`PathExpr`] describes a *set* of concrete label paths: concatenation
//! (`a/b`), alternation (`a|b`), optional steps (`a?`), bounded repetition
//! (`a{m,n}`), and the single-step wildcard (`.`). The histogram machinery
//! estimates fixed label sequences; this module closes the gap by
//! **expanding** an expression into its set of concrete paths up to the
//! estimator's maximum length `k`.
//!
//! Expansion compiles the expression into a Glushkov position automaton:
//! every label or wildcard leaf is one position, and `e{m,n}` unrolls into
//! `min(n, k + 1)` copies of `e`, the first `min(m, k + 1)` of them
//! mandatory — enough for words of length `≤ k` to be accepted exactly and
//! for prefixes of length `k + 1` to be counted right. The walk then visits
//! the automaton's subset states depth first, trying candidate labels in
//! ascending id order and checking the graph's [`FollowMatrix`] at every
//! extension, so a prefix the graph refutes is never built, let alone
//! extended. Two counts report what the walk refused:
//!
//! * `pruned`: the distinct prefixes `q = p·l` of the expression's words
//!   with `2 ≤ |q| ≤ k` whose `p` the follow matrix allows but whose last
//!   step it refutes (`follows(last(p), l)` is false);
//! * `truncated`: the distinct prefixes of length `k + 1` whose first `k`
//!   labels the follow matrix allows.
//!
//! Two properties make expansion the right compilation target:
//!
//! * **Disjointness.** Distinct concrete label sequences describe disjoint
//!   path populations, so an expression's total is the exact sum of its
//!   branches' per-path statistics — no inclusion–exclusion, no
//!   correlation assumptions. (The quantity summed is the *per-path pair
//!   count*, the same quantity an optimizer materializes when executing
//!   the branches of a union plan.)
//! * **Determinism.** [`Expansion::paths`] is sorted length-major, then
//!   lexicographically by label id — the same order a brute-force
//!   enumeration of the domain visits — and estimate totals are summed in
//!   that order, so independent computations of the same expression agree
//!   bit for bit. The walk yields this order without sorting: its
//!   pre-order within one length is lexicographic, so concatenating the
//!   accepted paths bucketed by length is canonical, and subset states
//!   make every prefix unique.

use std::fmt;

use phe_core::{LabelPath, MAX_K};
use phe_graph::{FollowMatrix, LabelId, LabelInterner};

/// A regular path expression over edge labels.
///
/// Construct via [`crate::parse_expr`] or the constructors here; compare
/// normalized forms (see [`PathExpr::normalize`]) when syntactic variants
/// like `(a|b)` vs `(b|a)` should be treated as equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PathExpr {
    /// One step with a fixed label.
    Label(LabelId),
    /// One step with any label (`.`).
    Wildcard,
    /// Sub-expressions in sequence (`a/b`, also written `(a|b)c`).
    Concat(Vec<PathExpr>),
    /// Any one of the branches (`a|b`).
    Alt(Vec<PathExpr>),
    /// `min..=max` copies of the inner expression in sequence: `a{m,n}`;
    /// `a?` is `a{0,1}`.
    Repeat {
        /// The repeated sub-expression.
        inner: Box<PathExpr>,
        /// Minimum repetitions (0 makes the whole group optional).
        min: u8,
        /// Maximum repetitions (bounded by [`MAX_K`]).
        max: u8,
    },
}

impl PathExpr {
    /// The trivial expression of one concrete path.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn path(labels: &[LabelId]) -> PathExpr {
        assert!(!labels.is_empty(), "a path expression needs steps");
        if labels.len() == 1 {
            PathExpr::Label(labels[0])
        } else {
            PathExpr::Concat(labels.iter().copied().map(PathExpr::Label).collect())
        }
    }

    /// The single concrete label path this expression denotes, if it is a
    /// plain chain (no alternation, wildcard, or repetition) — the shape
    /// the pre-expression API accepted.
    pub fn as_concrete(&self) -> Option<Vec<LabelId>> {
        match self {
            PathExpr::Label(l) => Some(vec![*l]),
            PathExpr::Concat(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                for part in parts {
                    out.extend(part.as_concrete()?);
                }
                (!out.is_empty()).then_some(out)
            }
            PathExpr::Repeat { inner, min, max } if min == max => {
                let once = inner.as_concrete()?;
                let mut out = Vec::with_capacity(once.len() * *min as usize);
                for _ in 0..*min {
                    out.extend(once.iter().copied());
                }
                (!out.is_empty()).then_some(out)
            }
            _ => None,
        }
    }

    /// Structural normalization: flattens nested concatenations and
    /// alternations, unwraps single-element groups, rewrites `e{1,1}` to
    /// `e` and `e{0,0}` to the empty sequence, and **sorts + dedupes**
    /// alternation branches — so `(a|b)/c` and `(b|a)/c` normalize to the
    /// same value. Idempotent (property-tested); [`PathExpr::cache_key`]
    /// is derived from this form.
    pub fn normalize(&self) -> PathExpr {
        match self {
            PathExpr::Label(_) | PathExpr::Wildcard => self.clone(),
            PathExpr::Concat(parts) => {
                let mut flat = Vec::with_capacity(parts.len());
                for part in parts {
                    match part.normalize() {
                        PathExpr::Concat(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match <[PathExpr; 1]>::try_from(flat) {
                    Ok([only]) => only,
                    Err(flat) => PathExpr::Concat(flat),
                }
            }
            PathExpr::Alt(branches) => {
                let mut flat = Vec::with_capacity(branches.len());
                for branch in branches {
                    match branch.normalize() {
                        PathExpr::Alt(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                flat.sort();
                flat.dedup();
                match <[PathExpr; 1]>::try_from(flat) {
                    Ok([only]) => only,
                    Err(flat) => PathExpr::Alt(flat),
                }
            }
            PathExpr::Repeat { inner, min, max } => {
                let inner = inner.normalize();
                match (*min, *max) {
                    (0, 0) => PathExpr::Concat(Vec::new()),
                    (1, 1) => inner,
                    (min, max) => PathExpr::Repeat {
                        inner: Box::new(inner),
                        min,
                        max,
                    },
                }
            }
        }
    }

    /// The canonical key of this expression: the normalized form rendered
    /// over label *ids*. Two expressions with the same denotation under
    /// commutation of alternation get the same key — what the service's
    /// expression cache is keyed by.
    pub fn cache_key(&self) -> String {
        self.normalize().to_string()
    }

    /// Whether `seq` is one of the concrete label sequences this
    /// expression denotes. Independent of [`PathExpr::expand`] (simple
    /// backtracking over split points) — the property tests pit the two
    /// against each other.
    pub fn matches(&self, seq: &[LabelId]) -> bool {
        match self {
            PathExpr::Label(l) => seq == [*l],
            PathExpr::Wildcard => seq.len() == 1,
            PathExpr::Concat(parts) => Self::matches_seq(parts, seq),
            PathExpr::Alt(branches) => branches.iter().any(|b| b.matches(seq)),
            PathExpr::Repeat { inner, min, max } => {
                (*min..=*max).any(|r| Self::matches_repeat(inner, r as usize, seq))
            }
        }
    }

    fn matches_seq(parts: &[PathExpr], seq: &[LabelId]) -> bool {
        match parts {
            [] => seq.is_empty(),
            [first, rest @ ..] => (0..=seq.len())
                .any(|i| first.matches(&seq[..i]) && Self::matches_seq(rest, &seq[i..])),
        }
    }

    fn matches_repeat(inner: &PathExpr, reps: usize, seq: &[LabelId]) -> bool {
        if reps == 0 {
            return seq.is_empty();
        }
        (0..=seq.len())
            .any(|i| inner.matches(&seq[..i]) && Self::matches_repeat(inner, reps - 1, &seq[i..]))
    }

    /// Expands this expression into its set of concrete label paths of
    /// length `1..=opts.max_len`, pruned by the follow matrix when one is
    /// provided. See the module docs for the walk, the ordering and
    /// disjointness guarantees, and the `pruned` / `truncated` counts.
    ///
    /// # Errors
    /// [`ExpandError::TooManyPaths`] when the accepted paths, or the live
    /// prefixes of any one length, exceed `opts.max_paths` — the guard
    /// that keeps `.{1,8}`-style expressions from enumerating the whole
    /// domain — and when the unrolled automaton would need more than
    /// `MAX_POSITIONS` (512) positions.
    pub fn expand(&self, opts: &ExpandOptions<'_>) -> Result<Expansion, ExpandError> {
        let _expand = phe_obs::span::stage("query.expand");
        let max_len = opts.max_len.min(MAX_K);
        let automaton = Automaton::compile(self, max_len).ok_or(ExpandError::TooManyPaths {
            limit: opts.max_paths,
        })?;
        let mut walk = Walk::new(&automaton, opts, max_len);
        walk.visit(0)?;
        Ok(Expansion {
            paths: walk.buckets.concat(),
            pruned: walk.pruned,
            truncated: walk.truncated,
            matches_empty: automaton.nullable,
        })
    }

    /// Expansion width: the number of concrete paths. Convenience for
    /// workload stratification.
    pub fn width(&self, opts: &ExpandOptions<'_>) -> Result<usize, ExpandError> {
        Ok(self.expand(opts)?.paths.len())
    }

    /// Renders with label names from an interner, e.g. `(knows|likes)/x?`.
    pub fn display_with<'a>(&'a self, labels: &'a LabelInterner) -> impl fmt::Display + 'a {
        NamedExpr { expr: self, labels }
    }

    /// Renders an indented expansion/structure tree (the `--explain`
    /// view), with label names resolved through `name` (unknown ids fall
    /// back to `?id`, as in [`render_path`]).
    pub fn tree(&self, name: &dyn Fn(LabelId) -> Option<String>) -> String {
        let mut out = String::new();
        self.tree_into(&mut out, name, 0);
        out
    }

    fn tree_into(&self, out: &mut String, name: &dyn Fn(LabelId) -> Option<String>, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PathExpr::Label(l) => {
                out.push_str(&format!("{pad}label {}\n", name_or_fallback(name, *l)));
            }
            PathExpr::Wildcard => out.push_str(&format!("{pad}wildcard .\n")),
            PathExpr::Concat(parts) => {
                out.push_str(&format!("{pad}concat\n"));
                for part in parts {
                    part.tree_into(out, name, depth + 1);
                }
            }
            PathExpr::Alt(branches) => {
                out.push_str(&format!("{pad}alt\n"));
                for branch in branches {
                    branch.tree_into(out, name, depth + 1);
                }
            }
            PathExpr::Repeat { inner, min, max } => {
                if (*min, *max) == (0, 1) {
                    out.push_str(&format!("{pad}optional ?\n"));
                } else {
                    out.push_str(&format!("{pad}repeat {{{min},{max}}}\n"));
                }
                inner.tree_into(out, name, depth + 1);
            }
        }
    }

    /// Operator precedence for unambiguous rendering: alternation binds
    /// loosest, then concatenation, then postfix repetition.
    fn precedence(&self) -> u8 {
        match self {
            PathExpr::Alt(_) => 0,
            PathExpr::Concat(_) => 1,
            PathExpr::Repeat { .. } => 2,
            PathExpr::Label(_) | PathExpr::Wildcard => 3,
        }
    }

    fn fmt_with(
        &self,
        f: &mut fmt::Formatter<'_>,
        atom: &dyn Fn(&mut fmt::Formatter<'_>, LabelId) -> fmt::Result,
    ) -> fmt::Result {
        let child = |f: &mut fmt::Formatter<'_>, e: &PathExpr, min_prec: u8| -> fmt::Result {
            if e.precedence() < min_prec {
                write!(f, "(")?;
                e.fmt_with(f, atom)?;
                write!(f, ")")
            } else {
                e.fmt_with(f, atom)
            }
        };
        match self {
            PathExpr::Label(l) => atom(f, *l),
            PathExpr::Wildcard => write!(f, "."),
            PathExpr::Concat(parts) => {
                if parts.is_empty() {
                    return write!(f, "()");
                }
                for (i, part) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, "/")?;
                    }
                    child(f, part, 2)?;
                }
                Ok(())
            }
            PathExpr::Alt(branches) => {
                if branches.is_empty() {
                    return write!(f, "(|)");
                }
                for (i, branch) in branches.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    child(f, branch, 1)?;
                }
                Ok(())
            }
            PathExpr::Repeat { inner, min, max } => {
                child(f, inner, 3)?;
                if (*min, *max) == (0, 1) {
                    write!(f, "?")
                } else if min == max {
                    write!(f, "{{{min}}}")
                } else {
                    write!(f, "{{{min},{max}}}")
                }
            }
        }
    }
}

impl fmt::Display for PathExpr {
    /// Renders over label *ids* (e.g. `(0|1)/2?`) — deterministic and
    /// name-independent, which is what [`PathExpr::cache_key`] needs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with(f, &|f, l| write!(f, "{}", l.0))
    }
}

struct NamedExpr<'a> {
    expr: &'a PathExpr,
    labels: &'a LabelInterner,
}

impl fmt::Display for NamedExpr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expr.fmt_with(f, &|f, l| match self.labels.name(l) {
            Some(name) => write!(f, "{name}"),
            None => write!(f, "?{}", l.0),
        })
    }
}

/// Everything expansion needs to know about its target estimator.
#[derive(Debug, Clone, Copy)]
pub struct ExpandOptions<'a> {
    /// Alphabet size — what the wildcard ranges over.
    pub label_count: usize,
    /// Maximum concrete path length (the estimator's `k`; capped at
    /// [`MAX_K`]).
    pub max_len: usize,
    /// Follow matrix for pruning impossible branches; `None` expands
    /// purely syntactically (sound — just no pruning).
    pub follow: Option<&'a FollowMatrix>,
    /// Upper bound on the expansion set size.
    pub max_paths: usize,
}

/// Default expansion-set bound.
pub const DEFAULT_MAX_PATHS: usize = 65_536;

impl<'a> ExpandOptions<'a> {
    /// Options for an estimator with `label_count` labels and maximum
    /// path length `max_len`, no pruning, default path cap.
    pub fn new(label_count: usize, max_len: usize) -> ExpandOptions<'a> {
        ExpandOptions {
            label_count,
            max_len: max_len.min(MAX_K),
            follow: None,
            max_paths: DEFAULT_MAX_PATHS,
        }
    }

    /// Attaches a follow matrix for pruning.
    pub fn with_follow(mut self, follow: &'a FollowMatrix) -> ExpandOptions<'a> {
        self.follow = Some(follow);
        self
    }
}

/// The most positions one expression's automaton may have. Nested
/// repetitions multiply positions — `(a{0,8}){0,8}` unrolls to 64 at
/// `k = 8` — so an expression over this bound is refused before anything
/// is allocated.
pub(crate) const MAX_POSITIONS: usize = 512;

/// The Glushkov position automaton of one expression, unrolled for a
/// length budget. Every position set is a bitset of `words` `u64`s.
struct Automaton {
    words: usize,
    /// Positions that may hold a word's first label.
    first: Vec<u64>,
    /// Positions that may hold a word's last label.
    last: Vec<u64>,
    /// Row `p`: the positions that may come right after position `p`.
    follow: Vec<u64>,
    /// Whether the expression matches the empty sequence.
    nullable: bool,
    /// The wildcard positions.
    wildcards: Vec<u64>,
    /// The distinct concrete labels, ascending.
    labels: Vec<LabelId>,
    /// Row `i`: the positions holding `labels[i]`.
    label_positions: Vec<u64>,
}

/// Derives `first`, `last`, `follow` and `nullable` in one recursive pass,
/// numbering leaves left to right. The sets of the sub-expressions being
/// combined live on a stack, so building allocates nothing per node.
struct Builder {
    words: usize,
    /// Copies a repetition unrolls into at most: `k + 1`.
    copies: usize,
    /// Each position's label; `None` is the wildcard.
    leaves: Vec<Option<LabelId>>,
    follow: Vec<u64>,
    /// Per stacked sub-expression: its `first` set, then its `last` set.
    sets: Vec<u64>,
    /// Per stacked sub-expression: whether it matches the empty sequence.
    nullable: Vec<bool>,
}

impl Automaton {
    /// Compiles `expr` for paths of length `≤ max_len`, or `None` when it
    /// needs more than [`MAX_POSITIONS`] positions.
    fn compile(expr: &PathExpr, max_len: usize) -> Option<Automaton> {
        let copies = max_len + 1;
        let positions = position_count(expr, copies);
        if positions > MAX_POSITIONS {
            return None;
        }
        let words = positions.div_ceil(64).max(1);
        let mut builder = Builder {
            words,
            copies,
            leaves: Vec::with_capacity(positions),
            follow: vec![0; positions * words],
            sets: Vec::new(),
            nullable: Vec::new(),
        };
        builder.push(expr);
        let mut labels: Vec<LabelId> = builder.leaves.iter().flatten().copied().collect();
        labels.sort_unstable();
        labels.dedup();
        let mut wildcards = vec![0; words];
        let mut label_positions = vec![0; labels.len() * words];
        for (p, leaf) in builder.leaves.iter().enumerate() {
            match leaf {
                None => set_bit(&mut wildcards, p),
                Some(l) => {
                    if let Ok(i) = labels.binary_search(l) {
                        set_bit(&mut label_positions[i * words..(i + 1) * words], p);
                    }
                }
            }
        }
        let last = builder.sets.split_off(words);
        Some(Automaton {
            words,
            first: builder.sets,
            last,
            follow: builder.follow,
            nullable: builder.nullable == [true],
            wildcards,
            labels,
            label_positions,
        })
    }

    /// The positions that may come right after position `p`.
    fn follow_row(&self, p: usize) -> &[u64] {
        &self.follow[p * self.words..(p + 1) * self.words]
    }

    /// The positions holding `labels[i]`.
    fn label_row(&self, i: usize) -> &[u64] {
        &self.label_positions[i * self.words..(i + 1) * self.words]
    }
}

/// The positions `expr` unrolls into when repetitions keep at most
/// `copies` copies (saturating, so a hostile nesting cannot overflow).
fn position_count(expr: &PathExpr, copies: usize) -> usize {
    match expr {
        PathExpr::Label(_) | PathExpr::Wildcard => 1,
        PathExpr::Concat(parts) | PathExpr::Alt(parts) => parts
            .iter()
            .fold(0, |n, part| n.saturating_add(position_count(part, copies))),
        PathExpr::Repeat { inner, max, .. } => {
            position_count(inner, copies).saturating_mul(usize::from(*max).min(copies))
        }
    }
}

impl Builder {
    /// Stacks the sets of `expr`.
    fn push(&mut self, expr: &PathExpr) {
        match expr {
            PathExpr::Label(l) => self.push_leaf(Some(*l)),
            PathExpr::Wildcard => self.push_leaf(None),
            PathExpr::Concat(parts) => {
                self.push_empty(true);
                for part in parts {
                    self.push(part);
                    self.concat();
                }
            }
            PathExpr::Alt(branches) => {
                self.push_empty(false);
                for branch in branches {
                    self.push(branch);
                    self.alt();
                }
            }
            PathExpr::Repeat { inner, min, max } => {
                let copies = usize::from(*max).min(self.copies);
                let mandatory = usize::from(*min).min(copies);
                self.push_empty(true);
                for _ in 0..mandatory {
                    self.push(inner);
                    self.concat();
                }
                // The optional copies nest, `(e(e(e)?)?)?`, so each copy
                // leads only into the next one: stack them all, then fold
                // from the right.
                for _ in mandatory..copies {
                    self.push(inner);
                }
                self.push_empty(true);
                for _ in mandatory..copies {
                    self.concat();
                    // Each folded tail is optional as a whole.
                    if let Some(optional) = self.nullable.last_mut() {
                        *optional = true;
                    }
                }
                self.concat();
            }
        }
    }

    fn push_empty(&mut self, nullable: bool) {
        self.sets.resize(self.sets.len() + 2 * self.words, 0);
        self.nullable.push(nullable);
    }

    fn push_leaf(&mut self, label: Option<LabelId>) {
        let p = self.leaves.len();
        self.leaves.push(label);
        self.push_empty(false);
        let top = self.sets.len() - 2 * self.words;
        let (first, last) = self.sets[top..].split_at_mut(self.words);
        set_bit(first, p);
        set_bit(last, p);
    }

    /// Replaces the top two sub-expressions `a`, `b` by `a` followed by
    /// `b`: every last position of `a` leads into every first position of
    /// `b`.
    fn concat(&mut self) {
        let words = self.words;
        let b_at = self.sets.len() - 2 * words;
        let (below, b) = self.sets.split_at_mut(b_at);
        let (a_first, a_last) = below[b_at - 2 * words..].split_at_mut(words);
        let (b_first, b_last) = b.split_at(words);
        for p in ones(a_last) {
            or_into(&mut self.follow[p * words..(p + 1) * words], b_first);
        }
        let b_nullable = self.nullable.pop() == Some(true);
        if let Some(a_nullable) = self.nullable.last_mut() {
            if *a_nullable {
                or_into(a_first, b_first);
            }
            if b_nullable {
                or_into(a_last, b_last);
            } else {
                a_last.copy_from_slice(b_last);
            }
            *a_nullable &= b_nullable;
        }
        self.sets.truncate(b_at);
    }

    /// Replaces the top two sub-expressions `a`, `b` by `a | b`.
    fn alt(&mut self) {
        let b_at = self.sets.len() - 2 * self.words;
        let (below, b) = self.sets.split_at_mut(b_at);
        or_into(&mut below[b_at - 2 * self.words..], b);
        let b_nullable = self.nullable.pop() == Some(true);
        if let Some(a_nullable) = self.nullable.last_mut() {
            *a_nullable |= b_nullable;
        }
        self.sets.truncate(b_at);
    }
}

/// The depth-first walk over an automaton's subset states. Scratch is
/// sized once per expansion; apart from the accepted [`LabelPath`]s the
/// walk allocates nothing per prefix.
struct Walk<'a> {
    automaton: &'a Automaton,
    follow: Option<&'a FollowMatrix>,
    label_count: usize,
    max_len: usize,
    max_paths: usize,
    /// Row `d`: the positions that may hold the label at index `d` of the
    /// current prefix (row 0 is the automaton's `first`).
    candidates: Vec<u64>,
    /// The candidate positions that admit the label under test.
    state: Vec<u64>,
    prefix: [LabelId; MAX_K],
    /// Bucket `d`: accepted paths of length `d + 1`, in visit order.
    buckets: Vec<Vec<LabelPath>>,
    /// Entry `d`: live prefixes of length `d + 1` built so far.
    live: [usize; MAX_K],
    accepted: usize,
    pruned: u64,
    truncated: u64,
}

impl<'a> Walk<'a> {
    fn new(automaton: &'a Automaton, opts: &ExpandOptions<'a>, max_len: usize) -> Walk<'a> {
        let words = automaton.words;
        let mut candidates = vec![0; (max_len + 1) * words];
        candidates[..words].copy_from_slice(&automaton.first);
        Walk {
            automaton,
            follow: opts.follow,
            label_count: opts.label_count,
            max_len,
            max_paths: opts.max_paths,
            candidates,
            state: vec![0; words],
            prefix: [LabelId(0); MAX_K],
            buckets: vec![Vec::new(); max_len],
            live: [0; MAX_K],
            accepted: 0,
            pruned: 0,
            truncated: 0,
        }
    }

    /// Extends the current prefix of length `depth` by every label its
    /// candidate positions admit, in ascending id order.
    fn visit(&mut self, depth: usize) -> Result<(), ExpandError> {
        let automaton = self.automaton;
        let words = automaton.words;
        let row = depth * words..(depth + 1) * words;
        // Labels come from two ascending sources, merged: the alphabet
        // when a wildcard is a candidate, and the concrete labels.
        let wild_end = if meets(&self.candidates[row.clone()], &automaton.wildcards) {
            self.label_count
        } else {
            0
        };
        let (mut wild, mut concrete) = (0, 0);
        loop {
            let next_concrete = automaton.labels.get(concrete).map(|l| l.index());
            let label = match (wild < wild_end, next_concrete) {
                (true, Some(c)) => wild.min(c),
                (true, None) => wild,
                (false, Some(c)) => c,
                (false, None) => break,
            };
            let by_wildcard = label < wild_end;
            if by_wildcard {
                wild = label + 1;
            }
            let by_label = (next_concrete == Some(label)).then_some(concrete);
            if by_label.is_some() {
                concrete += 1;
            }
            // A wildcard candidate admits every alphabet label; a concrete
            // label needs one of its positions among the candidates.
            let admitted = by_wildcard
                || by_label
                    .is_some_and(|c| meets(&self.candidates[row.clone()], automaton.label_row(c)));
            if !admitted {
                continue;
            }
            let label = LabelId(label as u16);
            if depth == self.max_len {
                self.truncated += 1;
                continue;
            }
            if let (Some(follow), Some(prev)) = (self.follow, depth.checked_sub(1)) {
                if !follow.follows(self.prefix[prev], label) {
                    self.pruned += 1;
                    continue;
                }
            }
            for (i, slot) in self.state.iter_mut().enumerate() {
                let mut admits = if by_wildcard {
                    automaton.wildcards[i]
                } else {
                    0
                };
                if let Some(c) = by_label {
                    admits |= automaton.label_row(c)[i];
                }
                *slot = self.candidates[row.start + i] & admits;
            }
            self.prefix[depth] = label;
            self.live[depth] += 1;
            if meets(&self.state, &automaton.last) {
                self.buckets[depth].push(LabelPath::new(&self.prefix[..=depth]));
                self.accepted += 1;
            }
            if self.live[depth] > self.max_paths || self.accepted > self.max_paths {
                return Err(ExpandError::TooManyPaths {
                    limit: self.max_paths,
                });
            }
            let (_, rest) = self.candidates.split_at_mut((depth + 1) * words);
            let next = &mut rest[..words];
            next.fill(0);
            for p in ones(&self.state) {
                or_into(next, automaton.follow_row(p));
            }
            if next.iter().any(|&w| w != 0) {
                self.visit(depth + 1)?;
            }
        }
        Ok(())
    }
}

fn set_bit(set: &mut [u64], p: usize) {
    set[p / 64] |= 1 << (p % 64);
}

fn or_into(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// The members of a position set, ascending.
fn ones(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
    set.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + bit
            })
        })
    })
}

/// The concrete-path compilation of an expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Expansion {
    /// Distinct concrete paths, sorted length-major then lexicographically
    /// by label id.
    pub paths: Vec<LabelPath>,
    /// Distinct prefixes `q = p·l` (`2 ≤ |q| ≤ k`) of the expression's
    /// words whose `p` the follow matrix allows but whose last step
    /// `last(p) → l` it refutes — branches the estimator never sees.
    pub pruned: u64,
    /// Distinct prefixes of length `k + 1` of the expression's words whose
    /// first `k` labels the follow matrix allows — cut by the length
    /// budget.
    pub truncated: u64,
    /// Whether the expression also denotes the empty sequence (e.g. `a?`
    /// alone) — not estimable, reported so callers can surface it.
    pub matches_empty: bool,
}

/// Why an expression could not be expanded (or planned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// The expansion exceeded the configured path bound, or its
    /// automaton's 512-position bound.
    TooManyPaths {
        /// The configured bound.
        limit: usize,
    },
    /// The expression denotes no estimable concrete path at all — every
    /// branch was over-length or follow-pruned (or the expression only
    /// matches the empty path).
    EmptyExpansion,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::TooManyPaths { limit } => write!(
                f,
                "expression expands to more than {limit} concrete paths; \
                 tighten the expression or raise the expansion limit"
            ),
            ExpandError::EmptyExpansion => write!(
                f,
                "expression expands to no estimable concrete path (every \
                 branch was over-length or pruned)"
            ),
        }
    }
}

impl std::error::Error for ExpandError {}

fn name_or_fallback(name: &dyn Fn(LabelId) -> Option<String>, l: LabelId) -> String {
    name(l).unwrap_or_else(|| format!("?{}", l.0))
}

/// Renders a concrete path as slash-joined label names, falling back to
/// `?id` for ids the resolver does not know — the one rendering rule the
/// CLI's explain output and the service's branch rows share.
pub fn render_path(path: &LabelPath, name: &dyn Fn(LabelId) -> Option<String>) -> String {
    let mut out = String::new();
    for (i, l) in path.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        out.push_str(&name_or_fallback(name, l));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    fn opts<'a>() -> ExpandOptions<'a> {
        ExpandOptions::new(3, 4)
    }

    fn seqs(expansion: &Expansion) -> Vec<Vec<u16>> {
        expansion
            .paths
            .iter()
            .map(|p| p.as_slice().to_vec())
            .collect()
    }

    #[test]
    fn expands_alternation_and_concat() {
        // (0|1)/2
        let e = PathExpr::Concat(vec![
            PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))]),
            PathExpr::Label(l(2)),
        ]);
        let x = e.expand(&opts()).unwrap();
        assert_eq!(seqs(&x), vec![vec![0, 2], vec![1, 2]]);
        assert!(!x.matches_empty);
    }

    #[test]
    fn expands_optional_and_repeat() {
        // 0?/1 -> {1, 01}
        let e = PathExpr::Concat(vec![
            PathExpr::Repeat {
                inner: Box::new(PathExpr::Label(l(0))),
                min: 0,
                max: 1,
            },
            PathExpr::Label(l(1)),
        ]);
        let x = e.expand(&opts()).unwrap();
        assert_eq!(seqs(&x), vec![vec![1], vec![0, 1]]);

        // 0{1,3}
        let e = PathExpr::Repeat {
            inner: Box::new(PathExpr::Label(l(0))),
            min: 1,
            max: 3,
        };
        let x = e.expand(&opts()).unwrap();
        assert_eq!(seqs(&x), vec![vec![0], vec![0, 0], vec![0, 0, 0]]);
    }

    #[test]
    fn wildcard_ranges_over_alphabet_and_empty_is_flagged() {
        let x = PathExpr::Wildcard.expand(&opts()).unwrap();
        assert_eq!(seqs(&x), vec![vec![0], vec![1], vec![2]]);

        let e = PathExpr::Repeat {
            inner: Box::new(PathExpr::Label(l(0))),
            min: 0,
            max: 1,
        };
        let x = e.expand(&opts()).unwrap();
        assert!(x.matches_empty);
        assert_eq!(seqs(&x), vec![vec![0]]);
    }

    #[test]
    fn expansion_is_length_major_sorted_and_distinct() {
        // (0/1|0)|(0|1/0) with duplicates across branches.
        let e = PathExpr::Alt(vec![
            PathExpr::path(&[l(0), l(1)]),
            PathExpr::Label(l(0)),
            PathExpr::Label(l(0)),
            PathExpr::path(&[l(1), l(0)]),
        ]);
        let x = e.expand(&opts()).unwrap();
        assert_eq!(seqs(&x), vec![vec![0], vec![0, 1], vec![1, 0]]);
    }

    #[test]
    fn length_budget_truncates() {
        // 0{3} with max_len 2: everything is too long.
        let e = PathExpr::Repeat {
            inner: Box::new(PathExpr::Label(l(0))),
            min: 3,
            max: 3,
        };
        let x = e
            .expand(&ExpandOptions {
                max_len: 2,
                ..opts()
            })
            .unwrap();
        assert!(x.paths.is_empty());
        assert!(x.truncated > 0, "{x:?}");
    }

    #[test]
    fn follow_matrix_prunes_impossible_branches() {
        // follows: only 0 -> 1 is possible (row 0, column 1).
        let mut bits = vec![false; 9];
        bits[1] = true;
        let follow = FollowMatrix::from_bits(3, bits);
        let e = PathExpr::Concat(vec![PathExpr::Wildcard, PathExpr::Wildcard]);
        let x = e.expand(&opts().with_follow(&follow)).unwrap();
        assert_eq!(seqs(&x), vec![vec![0, 1]]);
        assert_eq!(x.pruned, 8);
    }

    #[test]
    fn expansion_cap_is_enforced() {
        let e = PathExpr::Concat(vec![PathExpr::Wildcard, PathExpr::Wildcard]);
        let err = e
            .expand(&ExpandOptions {
                max_paths: 4,
                ..opts()
            })
            .unwrap_err();
        assert!(matches!(err, ExpandError::TooManyPaths { limit: 4 }));
        assert!(err.to_string().contains("4"));
    }

    fn repeat(inner: PathExpr, min: u8, max: u8) -> PathExpr {
        PathExpr::Repeat {
            inner: Box::new(inner),
            min,
            max,
        }
    }

    #[test]
    fn repetition_unrolls_one_copy_past_the_budget() {
        // 0{1,8} at k = 2: 0 and 00 are accepted, and 000 is the one
        // prefix of length k + 1.
        let x = repeat(PathExpr::Label(l(0)), 1, 8)
            .expand(&ExpandOptions::new(3, 2))
            .unwrap();
        assert_eq!(seqs(&x), vec![vec![0], vec![0, 0]]);
        assert_eq!(x.truncated, 1);
        assert_eq!(x.pruned, 0);
    }

    #[test]
    fn wildcard_blowup_is_refused() {
        // .{1,8} over 32 labels at k = 8 denotes ~1.1e12 paths.
        let err = repeat(PathExpr::Wildcard, 1, 8)
            .expand(&ExpandOptions::new(32, 8))
            .unwrap_err();
        assert_eq!(
            err,
            ExpandError::TooManyPaths {
                limit: DEFAULT_MAX_PATHS
            }
        );
    }

    #[test]
    fn nested_repetitions_stay_bounded() {
        // (((0{0,8}){0,8}){0,8}){0,8} denotes every run of 0s up to 4096
        // long; at k its automaton has min(8, k + 1)^4 positions.
        let mut e = PathExpr::Label(l(0));
        for _ in 0..4 {
            e = repeat(e, 0, 8);
        }
        for max_len in [2, 4, 8] {
            let runs: Vec<Vec<u16>> = (1..=max_len).map(|n| vec![0; n]).collect();
            match e.expand(&ExpandOptions::new(3, max_len)) {
                Ok(x) => {
                    assert_eq!(seqs(&x), runs, "k = {max_len}");
                    assert!(x.matches_empty);
                }
                Err(err) => {
                    assert!(max_len > 2, "81 positions must expand");
                    assert!(matches!(err, ExpandError::TooManyPaths { .. }), "{err}");
                }
            }
        }
        // (0{0,8}){0,8}: 64 positions at k = 8, well inside the bound.
        let x = repeat(repeat(PathExpr::Label(l(0)), 0, 8), 0, 8)
            .expand(&ExpandOptions::new(3, 8))
            .unwrap();
        assert_eq!(
            seqs(&x),
            (1..=8).map(|n| vec![0; n]).collect::<Vec<Vec<u16>>>()
        );
    }

    #[test]
    fn normalize_flattens_sorts_and_dedupes() {
        let e = PathExpr::Alt(vec![
            PathExpr::Label(l(1)),
            PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))]),
        ]);
        let n = e.normalize();
        assert_eq!(
            n,
            PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))])
        );
        assert_eq!(n.normalize(), n, "idempotent");

        let e = PathExpr::Concat(vec![PathExpr::Concat(vec![PathExpr::Label(l(2))])]);
        assert_eq!(e.normalize(), PathExpr::Label(l(2)));

        let e = PathExpr::Repeat {
            inner: Box::new(PathExpr::Label(l(0))),
            min: 1,
            max: 1,
        };
        assert_eq!(e.normalize(), PathExpr::Label(l(0)));
    }

    #[test]
    fn cache_keys_agree_for_commuted_alternations() {
        let ab = PathExpr::Concat(vec![
            PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))]),
            PathExpr::Label(l(2)),
        ]);
        let ba = PathExpr::Concat(vec![
            PathExpr::Alt(vec![PathExpr::Label(l(1)), PathExpr::Label(l(0))]),
            PathExpr::Label(l(2)),
        ]);
        assert_eq!(ab.cache_key(), ba.cache_key());
        assert_eq!(ab.cache_key(), "(0|1)/2");
    }

    #[test]
    fn matches_agrees_with_structure() {
        let e = PathExpr::Concat(vec![
            PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))]),
            PathExpr::Repeat {
                inner: Box::new(PathExpr::Label(l(2))),
                min: 0,
                max: 2,
            },
        ]);
        assert!(e.matches(&[l(0)]));
        assert!(e.matches(&[l(1), l(2)]));
        assert!(e.matches(&[l(0), l(2), l(2)]));
        assert!(!e.matches(&[l(2)]));
        assert!(!e.matches(&[]));
    }

    #[test]
    fn as_concrete_recovers_plain_chains() {
        let e = PathExpr::path(&[l(0), l(1), l(0)]);
        assert_eq!(e.as_concrete(), Some(vec![l(0), l(1), l(0)]));
        let alt = PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))]);
        assert_eq!(alt.as_concrete(), None);
        let rep = PathExpr::Repeat {
            inner: Box::new(PathExpr::Label(l(1))),
            min: 2,
            max: 2,
        };
        assert_eq!(rep.as_concrete(), Some(vec![l(1), l(1)]));
    }

    #[test]
    fn display_round_structure() {
        let e = PathExpr::Concat(vec![
            PathExpr::Alt(vec![PathExpr::Label(l(0)), PathExpr::Label(l(1))]),
            PathExpr::Repeat {
                inner: Box::new(PathExpr::Label(l(2))),
                min: 0,
                max: 1,
            },
        ]);
        assert_eq!(e.to_string(), "(0|1)/2?");
        let mut interner = LabelInterner::new();
        interner.intern("a").unwrap();
        interner.intern("b").unwrap();
        interner.intern("c").unwrap();
        assert_eq!(e.display_with(&interner).to_string(), "(a|b)/c?");
        let tree = e.tree(&|id| Some(format!("l{}", id.0)));
        assert!(tree.contains("concat"), "{tree}");
        assert!(tree.contains("optional ?"), "{tree}");
        assert!(tree.contains("label l2"), "{tree}");

        let path = LabelPath::new(&[l(0), l(9)]);
        let rendered = render_path(&path, &|id| (id.0 < 3).then(|| format!("n{}", id.0)));
        assert_eq!(rendered, "n0/?9");
    }
}
