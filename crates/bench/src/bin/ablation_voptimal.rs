//! Ablation A — how much does the V-optimal construction mode matter?
//!
//! The paper says "V-optimal histogram" without an algorithm; the exact
//! dynamic program is `O(N²β)` and cannot have run at the paper's scale
//! (its largest domain, |L| = 8 at k = 6, has about 3·10⁵ paths, so the
//! DP needs about 6·10¹² steps already at β = 64). This experiment quantifies what our choice of
//! the greedy-merge approximation costs: on a domain where the exact DP
//! *is* feasible, it compares SSE and mean error rate of every histogram
//! family under the sum-based ordering, plus construction time.

use phe_bench::{beta_sweep, emit, timed, RunConfig};
use phe_core::eval::evaluate_configuration;
use phe_core::ordering::OrderingKind;
use phe_core::HistogramKind;
use phe_histogram::builder::{EquiDepth, EquiWidth, HistogramBuilder, VOptimal};
use phe_histogram::SparseFrequencies;
use phe_pathenum::SparseCatalog;

fn main() {
    let config = RunConfig::from_args();
    // Cap k so the exact DP stays feasible (domain ≤ 8192).
    let k = config.k_override.unwrap_or(4).min(4);
    let graph = config.moreno();
    let sparse = SparseCatalog::compute_parallel(&graph, k, 0).expect("domain fits u48");
    let ordering = OrderingKind::SumBased.build_sparse(&graph, &sparse, k);
    // SSE is defined over the dense sequence: unrank every index.
    let ordered: Vec<u64> = (0..ordering.domain_size())
        .map(|i| sparse.selectivity(ordering.path_at(i).as_label_ids()))
        .collect();
    let n = ordered.len();
    let view = SparseFrequencies::dense(&ordered);
    eprintln!("domain: {n} paths (k = {k}), sum-based ordering");

    let kinds: [(HistogramKind, &dyn HistogramBuilder); 5] = [
        (
            HistogramKind::VOptimalExact,
            &VOptimal {
                mode: phe_histogram::VOptimalMode::Exact { limit: 8192 },
            },
        ),
        (HistogramKind::VOptimalGreedy, &VOptimal::greedy()),
        (HistogramKind::VOptimalMaxDiff, &VOptimal::maxdiff()),
        (HistogramKind::EquiWidth, &EquiWidth),
        (HistogramKind::EquiDepth, &EquiDepth),
    ];

    let mut rows = Vec::new();
    for beta in beta_sweep(n, 5) {
        for (kind, builder) in &kinds {
            let (histogram, build_secs) = timed(|| builder.build(&view, beta));
            let histogram = match histogram {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("{}: skipped at β={beta}: {e}", kind.name());
                    continue;
                }
            };
            let sse = histogram.sse(&ordered);
            let report = evaluate_configuration(&sparse, ordering.as_ref(), *kind, beta).unwrap();
            rows.push(vec![
                beta.to_string(),
                kind.name().to_string(),
                format!("{sse:.0}"),
                format!("{:.4}", report.mean_abs_error_rate),
                format!("{:.3}", report.median_q_error),
                format!("{:.1}", build_secs * 1e3),
            ]);
        }
    }

    emit(
        "Ablation A — V-optimal construction modes (sum-based ordering, Moreno-like)",
        &[
            "β",
            "histogram",
            "SSE",
            "mean |err|",
            "median q-err",
            "build ms",
        ],
        &rows,
        config.csv,
    );

    println!(
        "\nReading guide: v-optimal-exact lower-bounds SSE by definition; the gap \
         to v-optimal-greedy is the price of the paper-scale approximation."
    );
}
