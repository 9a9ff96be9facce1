//! The paper's accuracy result as a gate: Figure 2's ordering ranking at
//! `--scale ci`, scored over the whole domain by the closed-form scorer
//! that `figure2_accuracy` prints from.
//!
//! On the independently labeled synthetic datasets (SNAP-ER, SNAP-FF),
//! sum-based must beat every native ordering at `k = 3` for every β of
//! the figure's sweep. The ranking is pinned at `k = 3` only: at other
//! `k` some β points tie or flip.

use phe_bench::{beta_sweep, RunConfig, Scale};
use phe_core::eval::evaluate_configuration;
use phe_core::ordering::OrderingKind;
use phe_core::HistogramKind;
use phe_pathenum::SparseCatalog;

#[test]
fn sum_based_beats_every_native_ordering_on_synthetic_data_at_k3() {
    let config = RunConfig {
        scale: Scale::Ci,
        seed: 42,
        csv: false,
        k_override: None,
    };
    let k = 3;
    let mut checked = 0;
    for dataset in config.datasets() {
        if !matches!(dataset.name, "SNAP-ER" | "SNAP-FF") {
            continue;
        }
        let graph = &dataset.graph;
        let catalog = SparseCatalog::compute_parallel(graph, k, 0).unwrap();
        let error = |kind: OrderingKind, beta: usize| {
            let ordering = kind.build_sparse(graph, &catalog, k);
            evaluate_configuration(
                &catalog,
                ordering.as_ref(),
                HistogramKind::VOptimalGreedy,
                beta,
            )
            .unwrap()
            .mean_abs_error_rate
        };
        for beta in beta_sweep(catalog.len(), 6).into_iter().filter(|&b| b >= 2) {
            let sum_based = error(OrderingKind::SumBased, beta);
            for native in [
                OrderingKind::NumAlph,
                OrderingKind::NumCard,
                OrderingKind::LexAlph,
                OrderingKind::LexCard,
            ] {
                let native_error = error(native, beta);
                assert!(
                    sum_based < native_error,
                    "{} at β = {beta}: sum-based {sum_based:.4} does not beat {} {native_error:.4}",
                    dataset.name,
                    native.name()
                );
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 12, "six β points on each of the two datasets");
}
