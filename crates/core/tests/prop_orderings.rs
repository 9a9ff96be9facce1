//! Property tests for the ordering framework: every ordering is a true
//! bijection, stage structure holds, and the combinatorics agree with
//! brute force on arbitrary inputs.

use phe_core::base_set::SumBasedL2Ordering;
use phe_core::combinatorics::{
    dist, integer_partitions, multiset_permutation_rank, multiset_permutation_unrank, nop,
    PartitionRanker,
};
use phe_core::ordering::{
    DomainOrdering, LexicographicalOrdering, NumericalOrdering, SumBasedOrdering,
};
use phe_core::{LabelPath, LabelRanking, PathDomain};
use proptest::prelude::*;

/// An arbitrary frequency assignment for up to 5 labels.
fn arb_freqs() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..10_000, 2..6)
}

/// Formula 4 order, stated directly: from the largest value down, the
/// first value whose count differs decides, fewer copies first.
fn formula4_precedes(a: &[u32], b: &[u32]) -> bool {
    let count = |s: &[u32], v: u32| s.iter().filter(|&&x| x == v).count();
    let top = a.iter().chain(b).copied().max().unwrap_or(0);
    (1..=top)
        .rev()
        .map(|v| (count(a, v), count(b, v)))
        .find(|(ca, cb)| ca != cb)
        .is_some_and(|(ca, cb)| ca < cb)
}

fn all_orderings(freqs: &[u64], k: usize) -> Vec<Box<dyn DomainOrdering>> {
    let n = freqs.len();
    let domain = PathDomain::new(n, k);
    let alph = LabelRanking::identity(n);
    let card = LabelRanking::cardinality_from_frequencies(freqs);
    // Synthetic pair frequencies for the L2 ordering: product marginals
    // with a deterministic perturbation, so they are correlated but fixed.
    let pair_freqs: Vec<u64> = (0..n * n)
        .map(|i| {
            let (a, b) = (i / n, i % n);
            freqs[a].saturating_mul(freqs[b]) / 100 + ((i as u64 * 7919) % 13)
        })
        .collect();
    vec![
        Box::new(NumericalOrdering::new(domain, alph.clone(), "num-alph")),
        Box::new(NumericalOrdering::new(domain, card.clone(), "num-card")),
        Box::new(LexicographicalOrdering::new(domain, alph, "lex-alph")),
        Box::new(LexicographicalOrdering::new(
            domain,
            card.clone(),
            "lex-card",
        )),
        Box::new(SumBasedOrdering::new(domain, card)),
        Box::new(SumBasedL2Ordering::from_frequencies(
            domain,
            freqs,
            &pair_freqs,
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn orderings_are_bijections(freqs in arb_freqs(), k in 1usize..4) {
        let domain = PathDomain::new(freqs.len(), k);
        for o in all_orderings(&freqs, k) {
            let mut seen = vec![false; domain.size() as usize];
            for i in 0..domain.size() {
                let p = o.path_at(i);
                // Unranking then ranking is the identity.
                prop_assert_eq!(o.index_of(&p), i, "{} at {}", o.name(), i);
                // Every index yields a distinct path (bijectivity).
                let canonical = domain.canonical_index(&p) as usize;
                prop_assert!(!seen[canonical], "{} maps two indexes to {}", o.name(), p);
                seen[canonical] = true;
            }
            prop_assert!(seen.iter().all(|&s| s), "{} missed paths", o.name());
        }
    }

    #[test]
    fn ranking_then_unranking_roundtrips_from_paths(freqs in arb_freqs(), k in 1usize..4) {
        let domain = PathDomain::new(freqs.len(), k);
        for o in all_orderings(&freqs, k) {
            // Walk paths in canonical order; index_of then path_at must
            // return the same path.
            for canonical in 0..domain.size() {
                let p = domain.canonical_path(canonical);
                let idx = o.index_of(&p);
                prop_assert!(idx < domain.size(), "{}: index out of range", o.name());
                prop_assert_eq!(o.path_at(idx), p, "{} at path {}", o.name(), p);
            }
        }
    }

    #[test]
    fn orderings_are_length_major(freqs in arb_freqs(), k in 2usize..4) {
        // All orderings in this framework place shorter paths first.
        let domain = PathDomain::new(freqs.len(), k);
        for o in all_orderings(&freqs, k) {
            if o.name() == "lex-alph" || o.name() == "lex-card" {
                continue; // dictionary order interleaves lengths by design
            }
            let mut last_len = 1usize;
            for i in 0..domain.size() {
                let len = o.path_at(i).len();
                prop_assert!(len >= last_len, "{}: length dropped at {}", o.name(), i);
                last_len = len;
            }
        }
    }

    #[test]
    fn sum_based_groups_by_summed_rank(freqs in arb_freqs(), k in 1usize..4) {
        let domain = PathDomain::new(freqs.len(), k);
        let card = LabelRanking::cardinality_from_frequencies(&freqs);
        let o = SumBasedOrdering::new(domain, card);
        for m in 1..=k {
            let lo = domain.offset_of_length(m);
            let hi = lo + domain.length_block(m);
            let mut last = 0u32;
            for i in lo..hi {
                let sum = o.summed_rank(&o.path_at(i));
                prop_assert!(sum >= last, "sum regressed at {}", i);
                last = sum;
            }
        }
    }

    #[test]
    fn dist_is_consistent_with_partitions(n in 1usize..7, m in 1usize..5, sr in 0u64..40) {
        let parts = integer_partitions(sr, m, n as u64);
        let total: u64 = parts.iter().map(|p| nop(p)).sum();
        prop_assert_eq!(total, dist(sr, m, n));
    }

    #[test]
    fn permutation_rank_unrank_roundtrip(values in prop::collection::vec(1u32..6, 1..7)) {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let total = nop(&sorted);
        // Spot-check a spread of ranks instead of all (total can be 720).
        for i in [0, total / 3, total / 2, total.saturating_sub(1)] {
            if i < total {
                let mut perm = vec![0; sorted.len()];
                prop_assert!(multiset_permutation_unrank(i, &sorted, &mut perm).is_some());
                prop_assert_eq!(multiset_permutation_rank(&perm), i);
                let mut back = perm.clone();
                back.sort_unstable();
                prop_assert_eq!(&back, &sorted, "permutation changed the multiset");
            }
        }
    }

    #[test]
    fn lex_order_matches_reference_comparator(freqs in arb_freqs()) {
        let k = 3usize;
        let domain = PathDomain::new(freqs.len(), k);
        let ranking = LabelRanking::cardinality_from_frequencies(&freqs);
        let o = LexicographicalOrdering::new(domain, ranking.clone(), "lex-card");
        let mut paths: Vec<LabelPath> = domain.iter().collect();
        paths.sort_by(|a, b| {
            let ra: Vec<u32> = a.iter().map(|l| ranking.rank(l)).collect();
            let rb: Vec<u32> = b.iter().map(|l| ranking.rank(l)).collect();
            ra.cmp(&rb)
        });
        for (i, p) in paths.iter().enumerate() {
            prop_assert_eq!(o.index_of(p), i as u64);
        }
    }

    #[test]
    fn numerical_order_matches_reference_comparator(freqs in arb_freqs()) {
        let k = 3usize;
        let domain = PathDomain::new(freqs.len(), k);
        let ranking = LabelRanking::cardinality_from_frequencies(&freqs);
        let o = NumericalOrdering::new(domain, ranking.clone(), "num-card");
        let mut paths: Vec<LabelPath> = domain.iter().collect();
        paths.sort_by(|a, b| {
            let ka = (a.len(), a.iter().map(|l| ranking.rank(l)).collect::<Vec<u32>>());
            let kb = (b.len(), b.iter().map(|l| ranking.rank(l)).collect::<Vec<u32>>());
            ka.cmp(&kb)
        });
        for (i, p) in paths.iter().enumerate() {
            prop_assert_eq!(o.index_of(p), i as u64);
        }
    }
}

proptest! {
    // Cheap cases (no enumeration), so many of them.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn closed_form_partition_rank_tiles_its_group(
        case in (1u32..65).prop_flat_map(|n| (Just(n), prop::collection::vec(1..n + 1, 1..7)))
    ) {
        let (n, ranks) = case;
        let ranker = PartitionRanker::new(n as u64, 6);
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        let (m, sum) = (sorted.len(), sorted.iter().map(|&r| r as u64).sum::<u64>());
        let size = ranker.group_size(sum, m);
        prop_assert_eq!(size, dist(sum, m, n as usize));
        let at = |position: u64| {
            let mut out = vec![0; m];
            ranker.multiset_at(sum, position, &mut out).map(|rem| (out, rem))
        };
        // The multiset owns positions [offset, offset + nop) of its group.
        let offset = ranker.offset_of(&sorted);
        let count = nop(&sorted);
        prop_assert!(offset + count <= size);
        prop_assert_eq!(at(offset), Some((sorted.clone(), 0)));
        prop_assert_eq!(at(offset + count - 1), Some((sorted.clone(), count - 1)));
        // Its neighbours in the group abut it and sit on the right side
        // of it in Formula 4 order.
        if offset > 0 {
            let (before, rem) = at(offset - 1).unwrap();
            prop_assert_eq!(ranker.offset_of(&before) + rem, offset - 1);
            prop_assert_eq!(rem + 1, nop(&before));
            prop_assert!(formula4_precedes(&before, &sorted), "{:?} !< {:?}", before, sorted);
        }
        if offset + count < size {
            let (after, rem) = at(offset + count).unwrap();
            prop_assert_eq!(rem, 0);
            prop_assert_eq!(ranker.offset_of(&after), offset + count);
            prop_assert!(formula4_precedes(&sorted, &after), "{:?} !< {:?}", sorted, after);
        }
        prop_assert_eq!(at(size), None);
    }
}
