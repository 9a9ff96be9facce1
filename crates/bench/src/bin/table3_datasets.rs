//! Reproduces the paper's **Table 3** (dataset statistics) from the
//! facsimile generators, plus the structural diagnostics that justify the
//! real-data substitutions: per-label skew and label-correlation score.
//! The real datasets cannot be redistributed, so their facsimiles must
//! keep the two properties the paper's ordering comparison rests on —
//! skewed per-label cardinalities and correlated consecutive labels — and
//! these columns show that they do.

use phe_bench::{emit, timed, RunConfig, Scale};
use phe_graph::GraphStats;

fn main() {
    let config = RunConfig::from_args();
    let ((datasets, stats), secs) = timed(|| {
        let datasets = config.datasets();
        let stats: Vec<GraphStats> = datasets
            .iter()
            .map(|d| GraphStats::compute(&d.graph))
            .collect();
        (datasets, stats)
    });

    let rows: Vec<Vec<String>> = datasets
        .iter()
        .zip(&stats)
        .map(|(d, s)| {
            vec![
                d.name.to_string(),
                s.label_count.to_string(),
                s.vertex_count.to_string(),
                s.edge_count.to_string(),
                if d.real_world { "yes" } else { "no" }.to_string(),
                format!("{:.2}", s.mean_out_degree),
                format!("{:.3}", s.label_independence_correlation()),
            ]
        })
        .collect();

    emit(
        &format!(
            "Table 3 — datasets ({:?} scale, generated in {secs:.1}s)",
            config.scale
        ),
        &[
            "Dataset",
            "#Edge Labels",
            "#Vertices",
            "#Edges",
            "Real world data",
            "mean out-deg",
            "label-indep corr",
        ],
        &rows,
        config.csv,
    );

    println!();
    println!("Per-label cardinalities f(l) (the input to cardinality ranking):");
    for (d, s) in datasets.iter().zip(&stats) {
        println!("  {:<20} {:?}", d.name, s.label_frequencies);
    }

    if config.scale == Scale::Paper {
        // The facsimiles must hit the published numbers exactly.
        let expect = [
            (6, 2539, 12969),
            (8, 37374, 209068),
            (6, 12333, 147996),
            (8, 50000, 132673),
        ];
        for ((l, v, e), s) in expect.iter().zip(&stats) {
            assert_eq!((s.label_count, s.vertex_count, s.edge_count), (*l, *v, *e));
        }
        println!("\nAll four datasets match the published Table 3 sizes exactly.");
    }
}
