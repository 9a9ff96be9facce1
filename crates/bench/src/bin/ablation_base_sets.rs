//! Ablation B — the paper's future-work direction: does a richer base set
//! (`B = L²`, ranked by true 2-path selectivities) beat the plain
//! sum-based ordering, especially on label-correlated data?
//!
//! Compares mean error rates of sum-based vs sum-based-L2 (and num-card
//! as the native reference) on all four datasets. The L2 ordering sees
//! pair correlations that per-label rank sums cannot, so the hypothesis
//! is that its advantage concentrates on the correlated "real-like"
//! datasets — the ones where the paper found plain sum-based gains muted.

use phe_bench::{beta_sweep, emit, timed, RunConfig};
use phe_core::eval::evaluate_configuration;
use phe_core::ordering::OrderingKind;
use phe_core::HistogramKind;
use phe_pathenum::SparseCatalog;

fn main() {
    let config = RunConfig::from_args();
    let k = config.k();
    let orderings = [
        OrderingKind::NumCard,
        OrderingKind::SumBased,
        OrderingKind::SumBasedL2,
        OrderingKind::Ideal, // infeasible reference: the floor any ordering can reach
    ];

    let mut headers: Vec<&str> = vec!["dataset", "β"];
    headers.extend(orderings.iter().map(|o| o.name()));
    let mut rows = Vec::new();

    for dataset in config.datasets() {
        let graph = &dataset.graph;
        let (sparse, secs) =
            timed(|| SparseCatalog::compute_parallel(graph, k, 0).expect("domain fits u48"));
        eprintln!("{}: catalog in {secs:.1}s", dataset.name);
        let built: Vec<_> = orderings
            .iter()
            .map(|kind| kind.build_sparse(graph, &sparse, k))
            .collect();
        for beta in beta_sweep(sparse.len(), 5) {
            if beta < 2 {
                continue;
            }
            let mut row = vec![dataset.name.to_string(), beta.to_string()];
            for ordering in &built {
                let report = evaluate_configuration(
                    &sparse,
                    ordering.as_ref(),
                    HistogramKind::VOptimalGreedy,
                    beta,
                )
                .unwrap();
                row.push(format!("{:.4}", report.mean_abs_error_rate));
            }
            rows.push(row);
        }
    }

    emit(
        &format!("Ablation B — base set L vs L² (mean |err|, V-optimal greedy, k = {k})"),
        &headers,
        &rows,
        config.csv,
    );

    println!(
        "\nReading guide: sum-based-L2 ranks pieces by true f(l1/l2), so it can \
         exploit label correlations; compare its margin over sum-based on the \
         real-like datasets (correlated) vs SNAP-ER (independent labels). The \
         'ideal' column is the selectivity-sorted reference the paper rules out \
         on memory grounds — the floor for any ordering at this β."
    );
}
