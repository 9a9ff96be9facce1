//! Query workload generation, stratified by true selectivity.
//!
//! Evaluating an estimator on a handful of hand-picked queries invites
//! bias; evaluating on *every* path weights the (typically huge)
//! zero-selectivity tail. This module generates workloads the way gMark
//! frames it: pick queries per *selectivity stratum*, so cheap, medium,
//! and expensive paths are all represented.

use std::collections::HashSet;

use phe_graph::{FollowMatrix, LabelId};
use phe_pathenum::SparseCatalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::expr::{ExpandOptions, PathExpr};

/// A selectivity-stratified workload of label-path queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The queries, each a non-empty label path.
    pub queries: Vec<Vec<LabelId>>,
}

/// Builds a workload of (up to) `count` length-`len` queries with
/// non-zero selectivity, spread evenly across selectivity quartiles of
/// the catalog's length-`len` block. Deterministic per seed.
///
/// Returns fewer queries when the graph has fewer non-zero paths.
///
/// # Panics
/// Panics if `len` is 0 or exceeds the catalog's `k`.
pub fn stratified_workload(
    catalog: &SparseCatalog,
    len: usize,
    count: usize,
    seed: u64,
) -> Workload {
    let k = catalog.encoding().max_len();
    assert!(len >= 1 && len <= k, "length {len} outside 1..={k}");
    // Collect (canonical index, selectivity) for the realized paths of the
    // requested length: the catalog's entries inside the length block.
    let lo = catalog.encoding().offset_of_length(len) as u64;
    let hi = lo + catalog.encoding().label_count().pow(len as u32) as u64;
    let mut candidates: Vec<(usize, u64)> = catalog
        .iter()
        .skip_while(|&(i, _)| i < lo)
        .take_while(|&(i, _)| i < hi)
        .map(|(i, f)| (i as usize, f))
        .collect();
    if candidates.is_empty() {
        return Workload {
            queries: Vec::new(),
        };
    }
    candidates.sort_by_key(|&(i, f)| (f, i));

    // Quartile strata; draw round-robin so every stratum contributes.
    let strata = 4usize.min(candidates.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picks: Vec<usize> = Vec::with_capacity(count.min(candidates.len()));
    let mut taken = vec![false; candidates.len()];
    let stratum_bounds: Vec<(usize, usize)> = (0..strata)
        .map(|s| {
            let start = s * candidates.len() / strata;
            let end = (s + 1) * candidates.len() / strata;
            (start, end)
        })
        .collect();
    let mut stratum = 0usize;
    let mut attempts = 0usize;
    while picks.len() < count.min(candidates.len()) && attempts < count * 64 {
        attempts += 1;
        let (start, end) = stratum_bounds[stratum % strata];
        stratum += 1;
        if start == end {
            continue;
        }
        let pos = rng.gen_range(start..end);
        if !taken[pos] {
            taken[pos] = true;
            picks.push(pos);
        }
    }
    // Fill any shortfall deterministically.
    for (pos, t) in taken.iter_mut().enumerate() {
        if picks.len() >= count.min(candidates.len()) {
            break;
        }
        if !*t {
            *t = true;
            picks.push(pos);
        }
    }

    let queries = picks
        .into_iter()
        .map(|pos| catalog.encoding().decode(candidates[pos].0))
        .collect();
    Workload { queries }
}

/// A workload of regular path expressions, stratified by **expansion
/// width** — how many concrete paths each expression denotes. Chain-only
/// workloads never exercise the expansion machinery; this one covers
/// branchy queries by construction.
#[derive(Debug, Clone)]
pub struct ExprWorkload {
    /// The expressions, grouped by stratum (all width-1 first, then 2–4,
    /// then 5–16), normalized.
    pub exprs: Vec<PathExpr>,
    /// Expansion width of each expression, parallel to `exprs`.
    pub widths: Vec<usize>,
}

/// The width strata `stratified_expr_workload` fills: single-path,
/// moderately branchy, and wide.
pub const EXPR_WIDTH_STRATA: [(usize, usize); 3] = [(1, 1), (2, 4), (5, 16)];

/// Builds an expression workload with (up to) `per_stratum` expressions
/// per width stratum (widths 1, 2–4, and 5–16), each guaranteed to have
/// at least one realized (non-zero-selectivity) branch. Expressions are
/// synthesized from the catalog's realized paths — alternations, optional
/// steps, single-step wildcards, and bounded repetitions — expanded with
/// `follow` pruning when a matrix is supplied, and deduplicated by
/// normalized cache key. Deterministic per seed.
///
/// Returns fewer expressions when the graph is too small to fill a
/// stratum.
pub fn stratified_expr_workload(
    catalog: &SparseCatalog,
    follow: Option<&FollowMatrix>,
    per_stratum: usize,
    seed: u64,
) -> ExprWorkload {
    let k = catalog.encoding().max_len();
    let label_count = catalog.encoding().label_count();
    let realized: Vec<Vec<LabelId>> = catalog.iter_nonzero().map(|(p, _)| p).collect();
    if realized.is_empty() || per_stratum == 0 {
        return ExprWorkload {
            exprs: Vec::new(),
            widths: Vec::new(),
        };
    }

    let mut opts = ExpandOptions::new(label_count, k);
    // Nothing wider than the top stratum is kept; cap accordingly.
    opts.max_paths = EXPR_WIDTH_STRATA[2].1 * 4;
    if let Some(follow) = follow {
        opts = opts.with_follow(follow);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut strata: [Vec<(PathExpr, usize)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut seen: HashSet<String> = HashSet::new();
    let pick = |rng: &mut StdRng| realized[rng.gen_range(0..realized.len())].clone();

    let mut attempts = 0usize;
    while strata.iter().any(|s| s.len() < per_stratum) && attempts < per_stratum * 600 {
        attempts += 1;
        let candidate = match rng.gen_range(0..7u32) {
            // A plain chain — the width-1 backbone.
            0 => PathExpr::path(&pick(&mut rng)),
            // Alternation of 2–6 realized chains.
            1 => {
                let n = rng.gen_range(2..7usize);
                PathExpr::Alt((0..n).map(|_| PathExpr::path(&pick(&mut rng))).collect())
            }
            // A chain with its last step optional.
            2 => {
                let chain = pick(&mut rng);
                let (last, prefix) = chain.split_last().expect("realized paths are non-empty");
                let mut parts: Vec<PathExpr> =
                    prefix.iter().copied().map(PathExpr::Label).collect();
                parts.push(PathExpr::Repeat {
                    inner: Box::new(PathExpr::Label(*last)),
                    min: 0,
                    max: 1,
                });
                PathExpr::Concat(parts)
            }
            // A chain with one step replaced by the wildcard.
            3 => {
                let chain = pick(&mut rng);
                let at = rng.gen_range(0..chain.len());
                PathExpr::Concat(
                    chain
                        .iter()
                        .enumerate()
                        .map(|(i, l)| {
                            if i == at {
                                PathExpr::Wildcard
                            } else {
                                PathExpr::Label(*l)
                            }
                        })
                        .collect(),
                )
            }
            // Alternating heads into a shared continuation: (a|b)/rest.
            4 => {
                let chain = pick(&mut rng);
                let other = pick(&mut rng);
                let mut parts = vec![PathExpr::Alt(vec![
                    PathExpr::Label(chain[0]),
                    PathExpr::Label(other[0]),
                ])];
                parts.extend(chain[1..].iter().copied().map(PathExpr::Label));
                PathExpr::Concat(parts)
            }
            // Bounded repetition of a realized single step.
            5 => {
                let chain = pick(&mut rng);
                let max = rng.gen_range(2..=k.clamp(2, 4)) as u8;
                PathExpr::Repeat {
                    inner: Box::new(PathExpr::Label(chain[0])),
                    min: 1,
                    max,
                }
            }
            // Two wildcard steps — the wide-stratum generator (width up
            // to |L|² before pruning).
            _ => {
                let chain = pick(&mut rng);
                let parts: Vec<PathExpr> = if chain.len() >= 2 {
                    let hole_a = rng.gen_range(0..chain.len());
                    let mut hole_b = rng.gen_range(0..chain.len());
                    if hole_b == hole_a {
                        hole_b = (hole_a + 1) % chain.len();
                    }
                    chain
                        .iter()
                        .enumerate()
                        .map(|(i, l)| {
                            if i == hole_a || i == hole_b {
                                PathExpr::Wildcard
                            } else {
                                PathExpr::Label(*l)
                            }
                        })
                        .collect()
                } else {
                    vec![PathExpr::Wildcard, PathExpr::Wildcard]
                };
                PathExpr::Concat(parts)
            }
        };
        let candidate = candidate.normalize();
        let key = candidate.cache_key();
        if seen.contains(&key) {
            continue;
        }
        let Ok(expansion) = candidate.expand(&opts) else {
            continue;
        };
        let width = expansion.paths.len();
        let Some(bucket) = EXPR_WIDTH_STRATA
            .iter()
            .position(|&(lo, hi)| (lo..=hi).contains(&width))
        else {
            continue;
        };
        if strata[bucket].len() >= per_stratum {
            continue;
        }
        // Accuracy runs need something to measure: at least one branch
        // must actually occur in the graph.
        if !expansion
            .paths
            .iter()
            .any(|p| catalog.selectivity(p.as_label_ids()) > 0)
        {
            continue;
        }
        seen.insert(key);
        strata[bucket].push((candidate, width));
    }

    let mut exprs = Vec::new();
    let mut widths = Vec::new();
    for stratum in strata {
        for (expr, width) in stratum {
            exprs.push(expr);
            widths.push(width);
        }
    }
    ExprWorkload { exprs, widths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_datasets::{erdos_renyi, LabelDistribution};

    fn catalog() -> SparseCatalog {
        let g = erdos_renyi(80, 900, 4, LabelDistribution::Zipf { exponent: 1.0 }, 3);
        SparseCatalog::compute(&g, 3).unwrap()
    }

    #[test]
    fn respects_count_and_length() {
        let c = catalog();
        let w = stratified_workload(&c, 3, 20, 7);
        assert_eq!(w.queries.len(), 20);
        for q in &w.queries {
            assert_eq!(q.len(), 3);
            assert!(c.selectivity(q) > 0, "zero-selectivity query {q:?}");
        }
    }

    #[test]
    fn queries_are_distinct() {
        let c = catalog();
        let w = stratified_workload(&c, 2, 12, 5);
        let mut qs = w.queries.clone();
        qs.sort();
        qs.dedup();
        assert_eq!(qs.len(), w.queries.len());
    }

    #[test]
    fn covers_selectivity_range() {
        let c = catalog();
        let w = stratified_workload(&c, 3, 24, 11);
        let sels: Vec<u64> = w.queries.iter().map(|q| c.selectivity(q)).collect();
        let min = *sels.iter().min().unwrap();
        let max = *sels.iter().max().unwrap();
        // Stratification must reach both tails: a meaningful spread.
        assert!(max >= min * 4, "workload too homogeneous: {min}..{max}");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = catalog();
        assert_eq!(
            stratified_workload(&c, 2, 10, 9).queries,
            stratified_workload(&c, 2, 10, 9).queries
        );
        assert_ne!(
            stratified_workload(&c, 2, 10, 9).queries,
            stratified_workload(&c, 2, 10, 10).queries
        );
    }

    #[test]
    fn expr_workload_fills_width_strata() {
        let c = catalog();
        let w = stratified_expr_workload(&c, None, 4, 17);
        assert_eq!(w.exprs.len(), w.widths.len());
        assert_eq!(w.exprs.len(), 12, "all three strata filled");
        for (lo, hi) in EXPR_WIDTH_STRATA {
            let in_stratum = w.widths.iter().filter(|&&x| (lo..=hi).contains(&x)).count();
            assert_eq!(in_stratum, 4, "stratum {lo}..={hi}: {:?}", w.widths);
        }
        // Every expression has at least one realized branch, and the
        // recorded width matches a fresh expansion.
        let opts = ExpandOptions::new(c.encoding().label_count(), c.encoding().max_len());
        for (expr, width) in w.exprs.iter().zip(&w.widths) {
            let x = expr
                .expand(&ExpandOptions {
                    max_paths: EXPR_WIDTH_STRATA[2].1 * 4,
                    ..opts
                })
                .unwrap();
            assert_eq!(x.paths.len(), *width);
            assert!(x.paths.iter().any(|p| c.selectivity(p.as_label_ids()) > 0));
        }
    }

    #[test]
    fn expr_workload_is_deterministic_and_deduplicated() {
        let c = catalog();
        let a = stratified_expr_workload(&c, None, 3, 9);
        let b = stratified_expr_workload(&c, None, 3, 9);
        assert_eq!(a.exprs, b.exprs);
        let keys: Vec<String> = a.exprs.iter().map(PathExpr::cache_key).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "cache keys must be distinct");
        assert_ne!(
            a.exprs,
            stratified_expr_workload(&c, None, 3, 10).exprs,
            "seed must matter"
        );
    }

    #[test]
    fn expr_workload_respects_follow_pruning() {
        let g = erdos_renyi(80, 900, 4, LabelDistribution::Zipf { exponent: 1.0 }, 3);
        let c = SparseCatalog::compute(&g, 3).unwrap();
        let follow = FollowMatrix::from_graph(&g);
        let w = stratified_expr_workload(&c, Some(&follow), 3, 21);
        assert!(!w.exprs.is_empty());
        // With pruning active, recorded widths reflect the pruned
        // expansion.
        let opts = ExpandOptions {
            max_paths: EXPR_WIDTH_STRATA[2].1 * 4,
            ..ExpandOptions::new(c.encoding().label_count(), c.encoding().max_len())
        }
        .with_follow(&follow);
        for (expr, width) in w.exprs.iter().zip(&w.widths) {
            assert_eq!(expr.expand(&opts).unwrap().paths.len(), *width);
        }
    }

    #[test]
    fn shortfall_returns_what_exists() {
        let c = catalog();
        // Request far more than exist.
        let w = stratified_workload(&c, 1, 1000, 2);
        assert!(w.queries.len() <= 4);
        assert!(!w.queries.is_empty());
    }
}
