//! Lexicographical (dictionary) ordering (paper §3.2).
//!
//! Paths sort as in a dictionary: compare rank-by-rank; a path that is a
//! prefix of another comes first. Equivalently this is a preorder walk of
//! the rank trie. Ranking and unranking are both `O(k)` using subtree
//! sizes.
//!
//! **Fidelity note.** The paper's formal definition pads with blank
//! symbols ranked *above* every label, which would sort `"1"` *after*
//! `"1/3"` — contradicting the paper's own Table 2, where `"1"` precedes
//! `"1/1"`. We implement the Table 2 (prefix-first) semantics; the
//! blank-symbol sentence is taken to be an erratum, and
//! `tests/paper_fidelity.rs` pins every Table 2 row.

use crate::domain::PathDomain;
use crate::ordering::DomainOrdering;
use crate::path::LabelPath;
use crate::ranking::LabelRanking;

/// Dictionary ordering over a ranking rule.
#[derive(Debug, Clone)]
pub struct LexicographicalOrdering {
    domain: PathDomain,
    ranking: LabelRanking,
    name: &'static str,
    /// `subtree[d]` = number of paths with a fixed prefix of length `d`
    /// (the prefix itself plus all of its extensions up to length `k`),
    /// for `d` in `1..=k`.
    subtree: Vec<u64>,
}

impl LexicographicalOrdering {
    /// Creates the ordering. `name` distinguishes the ranking rule
    /// (`"lex-alph"` / `"lex-card"`).
    pub fn new(
        domain: PathDomain,
        ranking: LabelRanking,
        name: &'static str,
    ) -> LexicographicalOrdering {
        assert_eq!(
            ranking.len(),
            domain.label_count(),
            "ranking over {} labels but domain over {}",
            ranking.len(),
            domain.label_count()
        );
        let k = domain.max_len();
        // Paths of length ≤ j: offset_of_length(j + 1). A depth-d node's
        // subtree holds itself plus every path of length ≤ k−d below it.
        let subtree: Vec<u64> = (1..=k)
            .map(|d| 1 + domain.offset_of_length(k - d + 1))
            .collect();
        LexicographicalOrdering {
            domain,
            ranking,
            name,
            subtree,
        }
    }

    /// The ranking rule in use.
    pub fn ranking(&self) -> &LabelRanking {
        &self.ranking
    }

    #[inline]
    fn subtree_size(&self, depth: usize) -> u64 {
        self.subtree[depth - 1]
    }
}

impl DomainOrdering for LexicographicalOrdering {
    fn name(&self) -> &'static str {
        self.name
    }

    fn domain(&self) -> &PathDomain {
        &self.domain
    }

    fn reuse_key(&self) -> Option<Vec<u32>> {
        Some(self.ranking.rank_sequence())
    }

    fn index_of(&self, path: &LabelPath) -> u64 {
        // Descending to child r at depth d skips (r − 1) whole subtrees;
        // continuing past a node (to its children) skips the node itself.
        let mut index = 0u64;
        for (i, label) in path.iter().enumerate() {
            let depth = i + 1;
            let r = self.ranking.rank(label) as u64;
            index += (r - 1) * self.subtree_size(depth);
            if depth < path.len() {
                index += 1;
            }
        }
        index
    }

    fn path_at(&self, mut index: u64) -> LabelPath {
        assert!(index < self.domain.size(), "index {index} outside domain");
        let mut labels = Vec::with_capacity(self.domain.max_len());
        let mut depth = 1usize;
        loop {
            let sub = self.subtree_size(depth);
            let r = index / sub + 1;
            index %= sub;
            labels.push(self.ranking.unrank(r as u32));
            if index == 0 {
                break;
            }
            index -= 1; // step past the node itself into its children
            depth += 1;
        }
        LabelPath::new(&labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::LabelId;

    #[test]
    fn round_trip_exhaustive() {
        let d = PathDomain::new(4, 3);
        let o = LexicographicalOrdering::new(
            d,
            LabelRanking::cardinality_from_frequencies(&[9, 2, 7, 4]),
            "lex-card",
        );
        for i in 0..d.size() {
            let p = o.path_at(i);
            assert_eq!(o.index_of(&p), i, "round trip at {i}");
        }
    }

    #[test]
    fn prefix_comes_immediately_before_extensions() {
        let d = PathDomain::new(3, 3);
        let o = LexicographicalOrdering::new(d, LabelRanking::identity(3), "lex-alph");
        let p = LabelPath::single(LabelId(1));
        let first_child = LabelPath::new(&[LabelId(1), LabelId(0)]);
        assert_eq!(o.index_of(&first_child), o.index_of(&p) + 1);
    }

    #[test]
    fn order_is_true_dictionary_order() {
        // Verify against an explicit comparator on rank sequences.
        let d = PathDomain::new(3, 3);
        let ranking = LabelRanking::cardinality_from_frequencies(&[5, 1, 3]);
        let o = LexicographicalOrdering::new(d, ranking.clone(), "lex-card");
        let mut paths: Vec<LabelPath> = d.iter().collect();
        paths.sort_by(|a, b| {
            let ra: Vec<u32> = a.iter().map(|l| ranking.rank(l)).collect();
            let rb: Vec<u32> = b.iter().map(|l| ranking.rank(l)).collect();
            ra.cmp(&rb) // Vec<u32> cmp is exactly prefix-first dictionary order
        });
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(o.index_of(p), i as u64, "path {p} misplaced");
        }
    }

    #[test]
    fn k1_degenerates_to_rank_order() {
        let d = PathDomain::new(5, 1);
        let o = LexicographicalOrdering::new(
            d,
            LabelRanking::cardinality_from_frequencies(&[4, 3, 2, 1, 0]),
            "lex-card",
        );
        for i in 0..5u64 {
            let p = o.path_at(i);
            assert_eq!(o.ranking().rank(p.label(0)) as u64, i + 1);
        }
    }
}
