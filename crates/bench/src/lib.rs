#![warn(missing_docs)]

//! # phe-bench — shared harness for the experiment binaries
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper or answers one systems question (the "Benchmarks" table in
//! `docs/ARCHITECTURE.md` indexes them). This library holds what they
//! share: scale handling, dataset loading, β sweeps, and text/CSV
//! table output.
//!
//! All binaries accept:
//!
//! * `--scale ci|paper` — `ci` (default) runs reduced dataset sizes and
//!   `k` so a full sweep finishes in seconds; `paper` uses the exact
//!   Table 3 sizes and `k = 6` (minutes to hours for the larger sweeps);
//! * `--seed N` — RNG seed for dataset generation (default 42);
//! * `--csv` — additionally emit machine-readable CSV to stdout;
//! * `--k N` — override the maximum path length.

use std::time::Instant;

use phe_datasets::Dataset;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes for smoke runs and CI.
    Ci,
    /// The paper's exact configuration.
    Paper,
}

/// Parsed command-line configuration shared by all binaries.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Selected scale.
    pub scale: Scale,
    /// Dataset seed.
    pub seed: u64,
    /// Whether to emit CSV alongside the text table.
    pub csv: bool,
    /// Optional `k` override.
    pub k_override: Option<usize>,
}

impl RunConfig {
    /// Parses `std::env::args`, exiting with usage text on error.
    pub fn from_args() -> RunConfig {
        let mut config = RunConfig {
            scale: Scale::Ci,
            seed: 42,
            csv: false,
            k_override: None,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    match args.get(i).map(String::as_str) {
                        Some("ci") => config.scale = Scale::Ci,
                        Some("paper") => config.scale = Scale::Paper,
                        other => usage(&format!("bad --scale value {other:?}")),
                    }
                }
                "--seed" => {
                    i += 1;
                    config.seed = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --seed value"));
                }
                "--k" => {
                    i += 1;
                    let k = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --k value"));
                    config.k_override = Some(k);
                }
                "--csv" => config.csv = true,
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument {other:?}")),
            }
            i += 1;
        }
        config
    }

    /// The default maximum path length at this scale (paper: 6).
    pub fn k(&self) -> usize {
        self.k_override.unwrap_or(match self.scale {
            Scale::Ci => 4,
            Scale::Paper => 6,
        })
    }

    /// Loads the four paper datasets at this configuration's scale.
    ///
    /// CI scales are chosen so the densest dataset's catalog stays cheap:
    /// relation sizes in the ER graph approach `|V|²` at depth `k`, so ER
    /// is scaled hardest.
    pub fn datasets(&self) -> Vec<Dataset> {
        match self.scale {
            Scale::Paper => phe_datasets::paper_datasets(1.0, self.seed),
            Scale::Ci => vec![
                named(
                    "Moreno health",
                    true,
                    phe_datasets::moreno_health_like_scaled(0.25, self.seed),
                ),
                named(
                    "DBpedia (subgraph)",
                    true,
                    phe_datasets::dbpedia_like_scaled(0.04, self.seed + 1),
                ),
                named(
                    "SNAP-ER",
                    false,
                    phe_datasets::snap_er_scaled(0.03, self.seed + 2),
                ),
                named(
                    "SNAP-FF",
                    false,
                    phe_datasets::snap_ff_scaled(0.03, self.seed + 3),
                ),
            ],
        }
    }

    /// The Moreno-like dataset alone (Table 4 / Figure 1 workloads).
    pub fn moreno(&self) -> phe_graph::Graph {
        match self.scale {
            Scale::Paper => phe_datasets::moreno_health_like(self.seed),
            Scale::Ci => phe_datasets::moreno_health_like_scaled(0.25, self.seed),
        }
    }
}

fn named(name: &'static str, real_world: bool, graph: phe_graph::Graph) -> Dataset {
    Dataset {
        name,
        real_world,
        graph,
    }
}

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: <binary> [--scale ci|paper] [--seed N] [--k N] [--csv]\n\
         \n\
         --scale ci     reduced datasets, k=4 (default; seconds)\n\
         --scale paper  Table 3 sizes, k=6 (minutes or more)\n\
         --seed N       dataset generation seed (default 42)\n\
         --k N          override maximum path length\n\
         --csv          also print CSV rows"
    );
    std::process::exit(2)
}

/// The paper's Table 4 β sweep: halving from `n/2` for `levels` levels
/// (paper: 27993 down to 437 over a 55 996-path domain).
pub fn beta_sweep(domain_size: usize, levels: usize) -> Vec<usize> {
    (1..=levels).map(|i| (domain_size >> i).max(1)).collect()
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders CSV (quoting only what needs it).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    };
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Prints a titled table, optionally followed by CSV.
pub fn emit(title: &str, headers: &[&str], rows: &[Vec<String>], csv: bool) {
    println!("\n== {title} ==\n");
    print!("{}", render_table(headers, rows));
    if csv {
        println!("\n--- CSV ---");
        print!("{}", render_csv(headers, rows));
    }
}

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_sweep_reproduces_table4_budgets() {
        // Σ_{i=1..6} 6^i = 55 986; halving it seven times yields *exactly*
        // the paper's Table 4 β column (27993 … 437) — strong evidence the
        // paper's "55996 label paths" is a typo for 55 986.
        assert_eq!(
            beta_sweep(55_986, 7),
            vec![27993, 13996, 6998, 3499, 1749, 874, 437]
        );
        assert_eq!(beta_sweep(10, 5), vec![5, 2, 1, 1, 1]);
    }

    #[test]
    fn table_rendering_aligns() {
        let rows = vec![
            vec!["a".into(), "1".into()],
            vec!["bbbb".into(), "22".into()],
        ];
        let t = render_table(&["name", "value"], &rows);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn csv_quotes_commas() {
        let rows = vec![vec!["a,b".into(), "x\"y".into()]];
        let c = render_csv(&["h1", "h2"], &rows);
        assert!(c.contains("\"a,b\""));
        assert!(c.contains("\"x\"\"y\""));
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
