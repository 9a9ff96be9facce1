//! `phe` — command-line front end for the path-selectivity toolkit.
//!
//! ```text
//! phe generate <moreno|dbpedia|snap-er|snap-ff|chained> [--scale X] [--seed N] --out graph.tsv
//! phe stats <graph.tsv>
//! phe build <graph.tsv> --k K --beta B [--ordering NAME] [--histogram NAME] --out stats.json
//! phe delta --graph graph.tsv --changes changes.tsv --k K --beta B [--out stats.json]
//! phe estimate <stats.json> <path-expr>...          # e.g. knows/likes
//! phe accuracy <graph.tsv> --k K --beta B           # compare all orderings
//! phe serve --snapshot [name=]stats.json... [--addr A] [--workers N]
//! phe query --remote ADDR [--estimator NAME] <path-expr>...
//! ```
//!
//! The `build` → `estimate` pair demonstrates the production workflow:
//! statistics are built once against the graph (expensive: exact catalog),
//! serialized as a small JSON snapshot, and then queried with **no graph
//! access** — exactly what a query optimizer's statistics module does.
//! `serve` keeps that restored estimator resident and answers batched
//! estimate requests over TCP (see `phe-service`); `query --remote` is the
//! matching client. Re-issuing `load` (or `phe serve`'s snapshot op) while
//! serving hot-swaps statistics without dropping in-flight requests.

use std::process::ExitCode;

use phe::core::snapshot::EstimatorSnapshot;
use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::{Graph, GraphStats};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("delta") => cmd_delta(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("accuracy") => cmd_accuracy(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `phe --help` for usage");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
phe — histogram domain ordering for path selectivity estimation

USAGE:
  phe generate <dataset> [--scale X] [--seed N] --out <graph.tsv>
      dataset: moreno | dbpedia | snap-er | snap-ff | chained
  phe stats <graph.tsv>
  phe build <graph.tsv> --k K --beta B [--ordering O] [--histogram H] [--stats]
            [--no-accuracy] [--trace] [--catalog-file NAME.phc] --out <stats.json>
      ordering:  num-alph | num-card | lex-alph | lex-card | sum-based | sum-based-L2
      histogram: equi-width | equi-depth | v-optimal-greedy | v-optimal-exact |
                 v-optimal-maxdiff | end-biased
      --catalog-file write the sparse catalog to a checksummed .phc
                     sidecar next to --out (recorded by relative name in
                     the snapshot) instead of inlining it in the JSON;
                     `phe serve` memory-maps the sidecar so the catalog
                     payload stays disk-resident
      --stats        report sparse vs dense catalog memory; past the dense
                     domain limit (2^28 paths) this needs --no-accuracy,
                     since only the sparse pipeline can run there
      --no-accuracy  skip the whole-domain accuracy report; keeps the
                     build sparse end-to-end (REQUIRED past the dense
                     domain limit)
      --trace        print the nested stage-time tree of the build
                     (count/merge/order/histogram)
  phe delta --graph <graph.tsv> --changes <changes.tsv> --k K --beta B
            [--ordering O] [--histogram H] [--out <stats.json>] [--compare]
      incrementally refreshes statistics: builds from the graph, then
      merges the changes file (+/-<TAB>src<TAB>label<TAB>dst lines)
      instead of recounting; --compare verifies against (and times) a
      full rebuild
  phe estimate <stats.json> <path-expr>...
      path-expr: a regular path expression over label names —
      concatenation knows/likes, alternation (a|b), optional a?,
      bounded repetition a{m,n}, single-step wildcard .
      (labels whose names contain ( ) | ? { } , . / or whitespace
      cannot be referenced — those characters belong to the grammar)
  phe accuracy <graph.tsv> --k K --beta B
  phe serve --snapshot [name=]stats.json [--snapshot ...] [--addr 127.0.0.1:7878]
            [--workers N] [--shards N] [--cache ENTRIES] [--no-load]
            [--max-connections N] [--max-inflight-per-client N]
            [--shed-p99-ms MS] [--shed-queue-depth N] [--max-queue-depth N]
            [--metrics-addr 127.0.0.1:9464] [--publish-interval-ms MS]
            [--compact-after N] [--drift-scale S]
      serves batched estimates over newline-delimited JSON TCP via a
      readiness-driven event loop: --shards event-loop threads multiplex
      connections (0 = auto) and --workers dispatch threads run the
      CPU-heavy ops. Admission control refuses connections past
      --max-connections (default 1024) and requests past a per-peer
      --max-inflight-per-client quota (default 64) with structured
      overloaded lines; load shedding refuses expensive ops while more
      than --shed-queue-depth requests are queued (default 128) or the
      recent p99 latency exceeds --shed-p99-ms (default off). ctrl-C
      prints the metrics report (qps, p50/p99, cache + expression-cache
      hit rates, per-slot accuracy drift) and exits; --metrics-addr
      additionally serves the same metrics as a Prometheus text scrape
      endpoint (GET /metrics). Maintained slots run an autonomous
      freshness loop: delta ops enqueue (past --max-queue-depth batches
      per slot they are refused with a backpressure line, default 1024);
      every --publish-interval-ms (default 2000; 0 publishes each batch
      as it arrives) the queue is compacted into one counting pass and
      published; a rebuild (ordering and histogram re-derived from the
      maintained catalog, no recount) triggers after --compact-after
      applied deltas (default 64; 0 disables) or when accuracy drift
      exceeds the Baraud-Birge threshold scaled by --drift-scale
      (default 1.0; 0 disables)
  phe query (--remote 127.0.0.1:7878 | --snapshot stats.json) [--estimator NAME]
            [--graph graph.tsv] [--explain] [--trace] <path-expr>...
      estimates regular path expressions — locally against a snapshot, or
      remotely via the estimate_expr op (one batched request, answered by
      a single estimator generation). --graph enables follow-matrix
      pruning of impossible branches (local mode). --explain prints the
      expansion tree, per-branch estimates, prune counts, and (remote)
      the server-side stage timings. --trace prints the local
      stage-time tree (parse/expand/prune/estimate)
";

/// Tiny flag parser: positional args plus `--flag value` pairs.
struct Flags {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        Self::parse_with_booleans(args, &[])
    }

    /// Like [`Flags::parse`], but the named flags are valueless switches
    /// (recorded with value `"true"`).
    fn parse_with_booleans(args: &[String], booleans: &[&str]) -> Result<Flags, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                if booleans.contains(&name) {
                    flags.push((name.to_owned(), "true".to_owned()));
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name.to_owned(), value.clone()));
                i += 2;
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Ok(Flags { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get_parsed(name)?
            .ok_or_else(|| format!("missing required flag --{name}"))
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    phe::graph::io::read_tsv_path(path).map_err(|e| format!("reading {path}: {e}"))
}

fn parse_ordering(name: &str) -> Result<OrderingKind, String> {
    OrderingKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown ordering {name:?} (ideal is ablation-only)"))
}

fn parse_histogram(name: &str) -> Result<HistogramKind, String> {
    HistogramKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown histogram {name:?}"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let [dataset] = flags.positional.as_slice() else {
        return Err("generate needs exactly one dataset name".into());
    };
    let scale: f64 = flags.get_parsed("scale")?.unwrap_or(1.0);
    let seed: u64 = flags.get_parsed("seed")?.unwrap_or(42);
    let out: String = flags.require("out")?;
    let graph = match dataset.as_str() {
        "moreno" => phe::datasets::moreno_health_like_scaled(scale, seed),
        "dbpedia" => phe::datasets::dbpedia_like_scaled(scale, seed),
        "snap-er" => phe::datasets::snap_er_scaled(scale, seed),
        "snap-ff" => phe::datasets::snap_ff_scaled(scale, seed),
        "chained" => {
            let vertices = (10_000.0 * scale).round().max(16.0) as u32;
            let edges = (60_000.0 * scale).round().max(32.0) as u64;
            phe::datasets::schema_graph(vertices, &phe::datasets::chained_schema(6, edges), seed)
        }
        other => return Err(format!("unknown dataset {other:?}")),
    };
    phe::graph::io::write_tsv_path(&graph, &out).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("stats needs exactly one graph file".into());
    };
    let graph = load_graph(path)?;
    let stats = GraphStats::compute(&graph);
    println!("vertices: {}", stats.vertex_count);
    println!("edges:    {}", stats.edge_count);
    println!("labels:   {}", stats.label_count);
    println!(
        "degrees:  mean {:.2}, max {}, sinks {}",
        stats.mean_out_degree, stats.max_out_degree, stats.sink_count
    );
    println!(
        "label independence score: {:.3} (1 = independent chaining)",
        stats.label_independence_correlation()
    );
    println!("per-label cardinalities:");
    for l in graph.label_ids() {
        println!(
            "  {:<20} {}",
            graph.labels().name(l).unwrap_or("?"),
            graph.label_frequency(l)
        );
    }
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_booleans(args, &["stats", "no-accuracy", "trace"])?;
    let [path] = flags.positional.as_slice() else {
        return Err("build needs exactly one graph file".into());
    };
    let graph = load_graph(path)?;
    // The accuracy report needs the dense ground-truth catalog; skipping
    // it (--no-accuracy) keeps the build sparse end-to-end, which is the
    // only way through domains past the dense limit.
    let with_accuracy = flags.get("no-accuracy").is_none();
    // --catalog-file NAME writes the sparse catalog to a `.phc` sidecar
    // next to --out instead of inlining it in the snapshot JSON;
    // `phe serve` then memory-maps it, keeping the payload disk-resident.
    let catalog_file = flags.get("catalog-file").map(str::to_owned);
    if let Some(sidecar) = catalog_file.as_deref() {
        if std::path::Path::new(sidecar).is_absolute() {
            return Err(format!(
                "--catalog-file {sidecar:?} must be a relative name — the snapshot \
                 records it relative to its own directory so the pair stays movable"
            ));
        }
    }
    let config = EstimatorConfig {
        k: flags.require("k")?,
        beta: flags.require("beta")?,
        ordering: parse_ordering(flags.get("ordering").unwrap_or("sum-based"))?,
        histogram: parse_histogram(flags.get("histogram").unwrap_or("v-optimal-greedy"))?,
        threads: 0,
        retain_catalog: with_accuracy,
        // The sidecar is written from the retained sparse catalog.
        retain_sparse: catalog_file.is_some(),
    };
    let out: String = flags.require("out")?;
    let trace = flags.get("trace").is_some();
    let (result, spans) =
        phe::obs::span::capture(|| PathSelectivityEstimator::build(&graph, config));
    let estimator = result.map_err(|e| {
        if with_accuracy && matches!(e, phe::histogram::HistogramError::DomainTooLarge { .. }) {
            format!(
                "{e}\nhint: this domain is past the dense materialization limit, where \
                 only the sparse pipeline can run — retry with --no-accuracy (the \
                 ground-truth accuracy report is what needs the dense catalog; \
                 --stats still works without it)"
            )
        } else {
            e.to_string()
        }
    })?;
    if trace {
        print!("{}", phe::obs::span::render_tree(&spans));
    }
    let mut snapshot = estimator.snapshot().map_err(|e| e.to_string())?;
    if let Some(sidecar) = &catalog_file {
        let catalog = estimator
            .sparse_catalog()
            .expect("retain_sparse is set when --catalog-file is given");
        let phc_path = std::path::Path::new(&out).parent().map_or_else(
            || std::path::PathBuf::from(sidecar),
            |dir| dir.join(sidecar),
        );
        let bytes = phe::pathenum::file::write_catalog_file(&phc_path, catalog)
            .map_err(|e| format!("writing {}: {e}", phc_path.display()))?;
        snapshot.sparse_runs = None;
        snapshot.catalog_file = Some(sidecar.clone());
        println!(
            "wrote {} ({bytes} bytes; `phe serve` memory-maps it disk-resident)",
            phc_path.display()
        );
    }
    write_snapshot(&out, &snapshot)?;
    println!(
        "built {} statistics over {} paths (k = {}, β = {})",
        config.ordering.name(),
        estimator.domain_size(),
        config.k,
        config.beta
    );
    println!(
        "catalog {:.2}s | ordering {:.3}s | histogram {:.3}s",
        estimator.build_stats().catalog_time.as_secs_f64(),
        estimator.build_stats().ordering_time.as_secs_f64(),
        estimator.build_stats().histogram_time.as_secs_f64()
    );
    if with_accuracy {
        let report = estimator.accuracy_report();
        println!(
            "whole-domain mean |err| = {:.4}, median q-error = {:.3}",
            report.mean_abs_error_rate, report.median_q_error
        );
    }
    if flags.get("stats").is_some() {
        let fp = estimator.footprint();
        let percent = 100.0 * fp.nonzero_paths as f64 / fp.domain_size.max(1) as f64;
        println!(
            "domain           {} paths, {} realized ({percent:.2}% non-zero)",
            fp.domain_size, fp.nonzero_paths
        );
        println!(
            "sparse catalog   {} bytes compressed ({:.2} bytes/entry); plain pairs {} bytes \
             ({:.1}x compression); dense equivalent {} bytes ({:.1}x)",
            fp.sparse_bytes,
            fp.bytes_per_entry(),
            fp.sparse_plain_bytes,
            fp.compression_ratio(),
            fp.dense_bytes,
            fp.dense_bytes as f64 / (fp.sparse_bytes as f64).max(1.0)
        );
        println!(
            "retained         {} bytes ({})",
            estimator.size_bytes(),
            if with_accuracy {
                "histogram + ordering state + dense catalog"
            } else {
                "histogram + ordering state only"
            }
        );
    }
    println!(
        "wrote {out} ({} bytes retained state)",
        snapshot.retained_bytes()
    );
    Ok(())
}

fn cmd_delta(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_booleans(args, &["compare"])?;
    let graph_path: String = flags.require("graph")?;
    let changes_path: String = flags.require("changes")?;
    let graph = load_graph(&graph_path)?;
    let changes_file =
        std::fs::File::open(&changes_path).map_err(|e| format!("reading {changes_path}: {e}"))?;
    let delta = phe::graph::delta::read_changes(changes_file, &graph)
        .map_err(|e| format!("parsing {changes_path}: {e}"))?;

    let config = EstimatorConfig {
        k: flags.require("k")?,
        beta: flags.require("beta")?,
        ordering: parse_ordering(flags.get("ordering").unwrap_or("sum-based"))?,
        histogram: parse_histogram(flags.get("histogram").unwrap_or("v-optimal-greedy"))?,
        threads: 0,
        retain_catalog: false,
        // The sparse catalog is the state the delta merges into.
        retain_sparse: true,
    };

    let t0 = std::time::Instant::now();
    let base = PathSelectivityEstimator::build(&graph, config).map_err(|e| e.to_string())?;
    let base_secs = t0.elapsed().as_secs_f64();
    println!(
        "base build       {} paths, {} realized — {base_secs:.3}s (build id {:016x})",
        base.domain_size(),
        base.footprint().nonzero_paths,
        base.build_id()
    );

    let t1 = std::time::Instant::now();
    let (refreshed, new_graph) = base
        .apply_delta(&graph, &delta)
        .map_err(|e| e.to_string())?;
    let delta_secs = t1.elapsed().as_secs_f64();
    println!(
        "delta            {} removals + {} insertions ⇒ {} realized paths — {delta_secs:.3}s \
         ({:.1}x faster than the base build)",
        delta.removals().len(),
        delta.insertions().len(),
        refreshed.footprint().nonzero_paths,
        base_secs / delta_secs.max(1e-9)
    );
    println!(
        "lineage          build id {:016x}, {} delta(s) applied (snapshot v5)",
        refreshed.build_id(),
        refreshed.applied_deltas()
    );
    if let Some(drift) = refreshed.drift() {
        println!(
            "drift            mean |err| = {:.4}, max q-error = {:.3} over {} of {} touched \
             path(s) sampled",
            drift.mean_abs_error_rate, drift.max_q_error, drift.sampled, drift.touched
        );
    }

    if flags.get("compare").is_some() {
        let t2 = std::time::Instant::now();
        let fresh =
            PathSelectivityEstimator::build(&new_graph, config).map_err(|e| e.to_string())?;
        let full_secs = t2.elapsed().as_secs_f64();
        let merged = refreshed.sparse_catalog().expect("retain_sparse is set");
        let recounted = fresh.sparse_catalog().expect("retain_sparse is set");
        if merged != recounted {
            return Err("incremental catalog diverged from the full recount".into());
        }
        // Catalogs identical ⇒ identical ordering inputs and histogram —
        // spot-check the estimates anyway.
        for (index, _) in merged.iter().take(512) {
            let path = merged.encoding().decode(index as usize);
            let (a, b) = (refreshed.estimate(&path), fresh.estimate(&path));
            if a.to_bits() != b.to_bits() {
                return Err(format!("estimate mismatch on {path:?}: {a} vs {b}"));
            }
        }
        println!(
            "verified         merged catalog bit-identical to full recount; \
             full rebuild {full_secs:.3}s ⇒ delta is {:.1}x faster",
            full_secs / delta_secs.max(1e-9)
        );
    }

    if let Some(out) = flags.get("out") {
        let snapshot = refreshed.snapshot().map_err(|e| e.to_string())?;
        write_snapshot(out, &snapshot)?;
        println!(
            "wrote {out} ({} bytes retained state)",
            snapshot.retained_bytes()
        );
    }
    Ok(())
}

/// Writes a snapshot as pretty JSON, durably replacing any file at `out`
/// (temp file, fsync, rename, directory fsync).
fn write_snapshot(out: &str, snapshot: &EstimatorSnapshot) -> Result<(), String> {
    let json = serde_json::to_string_pretty(snapshot).map_err(|e| e.to_string())?;
    phe::pathenum::file::replace_file(
        std::path::Path::new(out),
        &[json.as_bytes()],
        phe::pathenum::file::Durability::Synced,
    )
    .map_err(|e| format!("writing {out}: {e}"))
}

/// Renders a spanned parse error with its caret-underlined snippet, the
/// way the CLI reports it under `error:`.
fn render_query_error(source: &str, err: &phe::query::QueryError) -> String {
    let mut out = err.to_string();
    for line in err.snippet(source).lines() {
        out.push_str("\n  ");
        out.push_str(line);
    }
    out
}

/// One locally estimated expression: the parsed form, its expansion, and
/// per-branch estimates (canonical order).
struct LocalExprEstimate {
    expr: phe::query::PathExpr,
    expansion: phe::query::Expansion,
    branches: Vec<(String, f64)>,
    total: f64,
}

/// Parses, expands, and estimates one expression against a restored
/// snapshot — the local counterpart of the service's `estimate_expr` op,
/// plus optional follow-matrix pruning when the build graph is at hand.
fn local_expr_estimate(
    snapshot: &EstimatorSnapshot,
    restored: &phe::core::LabelPathHistogram,
    source: &str,
    follow: Option<&phe::graph::FollowMatrix>,
) -> Result<LocalExprEstimate, String> {
    let parse_span = phe::obs::span::stage("query.parse");
    let expr = phe::query::parse_expr(snapshot.label_names.as_slice(), source)
        .map_err(|e| render_query_error(source, &e))?;
    drop(parse_span);
    // Concrete over-length chains keep the pre-expression error text;
    // branchy expressions handle the budget per concrete path.
    if let Some(chain) = expr.as_concrete() {
        if chain.len() > snapshot.k {
            return Err(format!(
                "{source:?} has {} steps but the statistics cover k ≤ {}",
                chain.len(),
                snapshot.k
            ));
        }
    }
    let mut opts = phe::query::ExpandOptions::new(snapshot.label_names.len(), snapshot.k);
    if let Some(follow) = follow {
        opts = opts.with_follow(follow);
    }
    let expansion = expr.normalize().expand(&opts).map_err(|e| e.to_string())?;
    let estimate_span = phe::obs::span::stage("query.estimate");
    let mut total = 0.0f64;
    let mut branches = Vec::with_capacity(expansion.paths.len());
    for path in &expansion.paths {
        let estimate = restored.estimate(path);
        total += estimate;
        let name = phe::query::render_path(path, &|l| snapshot.label_names.get(l.index()).cloned());
        branches.push((name, estimate));
    }
    drop(estimate_span);
    Ok(LocalExprEstimate {
        expr,
        expansion,
        branches,
        total,
    })
}

fn read_snapshot(snapshot_path: &str) -> Result<EstimatorSnapshot, String> {
    let json = std::fs::read_to_string(snapshot_path)
        .map_err(|e| format!("reading {snapshot_path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {snapshot_path}: {e}"))
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let (snapshot_path, exprs) = flags
        .positional
        .split_first()
        .ok_or("estimate needs a stats.json and at least one path expression")?;
    if exprs.is_empty() {
        return Err("estimate needs at least one path expression".into());
    }
    let snapshot = read_snapshot(snapshot_path)?;
    let restored = snapshot.restore().map_err(|e| e.to_string())?;
    for expr in exprs {
        let estimate = local_expr_estimate(&snapshot, &restored, expr, None)?;
        println!("{expr}\t{:.2}", estimate.total);
    }
    Ok(())
}

fn cmd_accuracy(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let [path] = flags.positional.as_slice() else {
        return Err("accuracy needs exactly one graph file".into());
    };
    let graph = load_graph(path)?;
    let k: usize = flags.require("k")?;
    let beta: usize = flags.require("beta")?;
    let catalog = phe::pathenum::parallel::compute_parallel(&graph, k, 0);
    println!(
        "{:<14} {:>12} {:>14}",
        "ordering", "mean |err|", "median q-error"
    );
    for kind in OrderingKind::ALL {
        let ordering = kind.build(&graph, &catalog, k);
        let report = phe::core::evaluate_configuration(
            &catalog,
            ordering.as_ref(),
            HistogramKind::VOptimalGreedy,
            beta,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "{:<14} {:>12.4} {:>14.3}",
            kind.name(),
            report.mean_abs_error_rate,
            report.median_q_error
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_booleans(args, &["no-load"])?;
    let snapshots = flags.get_all("snapshot");
    if snapshots.is_empty() {
        return Err("serve needs at least one --snapshot [name=]stats.json".into());
    }

    // One registry for everything: span stage histograms, service
    // counters, cache counters, and drift gauges all land in the global
    // registry, so the scrape endpoint, the `metrics` protocol op, and
    // the shutdown dump can never disagree.
    let obs = std::sync::Arc::clone(phe::obs::global());
    let metrics = std::sync::Arc::new(phe::service::ServiceMetrics::with_registry(
        std::sync::Arc::clone(&obs),
    ));
    let cache_capacity: usize = flags
        .get_parsed("cache")?
        .unwrap_or(phe::service::EstimatorRegistry::DEFAULT_CACHE_CAPACITY);
    let registry = std::sync::Arc::new(
        phe::service::EstimatorRegistry::new(metrics.cache_counters(), cache_capacity)
            .with_observability(obs),
    );
    for spec in snapshots {
        // "--snapshot name=path" names the slot; bare paths serve as
        // "default" (first) or their file stem (subsequent).
        let (name, path) = match spec.split_once('=') {
            Some((name, path)) => (name.to_owned(), path),
            None if registry.is_empty() => ("default".to_owned(), spec),
            None => {
                let stem = std::path::Path::new(spec)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or(spec);
                (stem.to_owned(), spec)
            }
        };
        // register() hot-swaps silently; at startup a repeated name is an
        // operator mistake (e.g. two bare paths with the same file stem),
        // not a swap — refuse before publishing anything over the first.
        if registry.get(&name).is_some() {
            return Err(format!(
                "duplicate estimator name {name:?} (name snapshots explicitly: --snapshot NAME={path})"
            ));
        }
        let servable = phe::service::load_snapshot(path)?;
        let residency = servable.catalog_residency();
        registry.register(&name, servable);
        match residency {
            Some(c) if c.mapped => println!(
                "loaded {name:?} from {path} (catalog mmap-resident: {} payload bytes \
                 on disk, {} heap bytes for the skip index)",
                c.payload_bytes, c.heap_bytes
            ),
            Some(c) => println!(
                "loaded {name:?} from {path} (catalog heap-resident: {} bytes — \
                 mmap unavailable on this target)",
                c.payload_bytes
            ),
            None => println!("loaded {name:?} from {path}"),
        }
    }

    let mut config = phe::service::ServerConfig {
        allow_load: flags.get("no-load").is_none(),
        ..Default::default()
    };
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.to_owned();
    }
    if let Some(workers) = flags.get_parsed("workers")? {
        config.workers = workers;
    }
    if let Some(shards) = flags.get_parsed("shards")? {
        config.shards = shards;
    }
    if let Some(max_connections) = flags.get_parsed("max-connections")? {
        config.max_connections = max_connections;
    }
    if let Some(quota) = flags.get_parsed("max-inflight-per-client")? {
        config.max_inflight_per_client = quota;
    }
    if let Some(depth) = flags.get_parsed("shed-queue-depth")? {
        config.shed_queue_depth = depth;
    }
    if let Some(p99_ms) = flags.get_parsed::<u64>("shed-p99-ms")? {
        config.shed_p99 = (p99_ms > 0).then(|| std::time::Duration::from_millis(p99_ms));
    }
    let metrics_server = match flags.get("metrics-addr") {
        None => None,
        Some(addr) => {
            let render_metrics = std::sync::Arc::clone(&metrics);
            let endpoint = phe::obs::http::serve_metrics(
                addr,
                std::sync::Arc::new(move || render_metrics.render_prometheus()),
            )
            .map_err(|e| format!("starting metrics endpoint on {addr}: {e}"))?;
            println!(
                "metrics scrape endpoint on http://{}/metrics",
                endpoint.local_addr()
            );
            Some(endpoint)
        }
    };
    // Every delta goes through the maintenance loop the server runs;
    // --publish-interval-ms 0 publishes each queued batch on arrival.
    let publish_interval_ms: u64 = flags.get_parsed("publish-interval-ms")?.unwrap_or(2000);
    let max_queue_depth: Option<usize> = flags.get_parsed("max-queue-depth")?;
    let mut policy = phe::core::RebuildPolicy::default();
    if let Some(compact_after) = flags.get_parsed("compact-after")? {
        policy.max_applied_deltas = compact_after;
    }
    if let Some(drift_scale) = flags.get_parsed("drift-scale")? {
        policy.drift_scale = drift_scale;
    }
    let coordinator = phe::service::MaintenanceCoordinator::new(
        std::sync::Arc::clone(&registry),
        metrics.clone(),
        phe::service::MaintenanceConfig {
            publish_interval: std::time::Duration::from_millis(publish_interval_ms),
            policy,
            max_queue_depth: max_queue_depth
                .unwrap_or(phe::service::MaintenanceConfig::default().max_queue_depth),
        },
    );

    let sigint = phe::service::install_sigint_flag();
    let server = phe::service::Server::start_with(
        std::sync::Arc::clone(&registry),
        metrics.clone(),
        coordinator,
        config,
    )
    .map_err(|e| format!("starting server: {e}"))?;
    println!(
        "serving {} estimator(s) on {} — ctrl-C for metrics + shutdown",
        registry.len(),
        server.local_addr()
    );
    match publish_interval_ms {
        0 => println!("maintenance loop: deltas publish on arrival"),
        ms => println!("maintenance loop: compacted publish every {ms}ms"),
    }
    while !sigint() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("\nshutting down...");
    server.shutdown();
    if let Some(mut endpoint) = metrics_server {
        endpoint.shutdown();
    }
    println!("{}", metrics.report());
    for info in registry.list() {
        let lineage = info.lineage.map_or_else(
            || "lineage unknown (pre-v3 snapshot)".to_owned(),
            |(id, deltas)| format!("build {id:016x} + {deltas} delta(s)"),
        );
        println!(
            "estimator        {:?} v{}: {} bytes retained, {lineage} ({})",
            info.name, info.version, info.size_bytes, info.description
        );
        println!(
            "                 expression cache: {} normalized-key hit(s) / {} raw miss(es)",
            info.expr_cache.0, info.expr_cache.1
        );
        if let Some(m) = info.maintained {
            println!(
                "                 maintained catalog: {} bytes compressed vs {} plain \
                 ({:.2} bytes/entry over {} paths)",
                m.catalog_bytes,
                m.plain_bytes,
                m.catalog_bytes as f64 / (m.nonzero_paths as f64).max(1.0),
                m.nonzero_paths
            );
        }
        if let Some(d) = info.drift {
            println!(
                "                 drift after last delta: mean |err| = {:.4}, \
                 max q-error = {:.3} ({} path(s) sampled)",
                d.mean_abs_error_rate, d.max_q_error, d.sampled
            );
        }
        if let Some(c) = info.catalog {
            println!(
                "                 catalog {}: {} payload bytes, {} heap bytes, \
                 {} realized paths",
                if c.mapped {
                    "mmap-resident"
                } else {
                    "heap-resident"
                },
                c.payload_bytes,
                c.heap_bytes,
                c.nonzero_paths
            );
        }
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse_with_booleans(args, &["explain", "trace"])?;
    let explain = flags.get("explain").is_some();
    let trace = flags.get("trace").is_some();
    if flags.positional.is_empty() {
        return Err("query needs at least one path expression".into());
    }
    match (flags.get("remote"), flags.get("snapshot")) {
        (Some(_), Some(_)) => Err("--remote and --snapshot are mutually exclusive".into()),
        (Some(remote), None) => {
            if trace {
                return Err(
                    "--trace times the local pipeline; for server-side timings use \
                     --remote with --explain (the response carries the stage breakdown)"
                        .into(),
                );
            }
            query_remote(
                remote,
                flags.get("estimator").unwrap_or("default"),
                &flags.positional,
                explain,
            )
        }
        (None, Some(snapshot)) => query_local(
            snapshot,
            flags.get("graph"),
            &flags.positional,
            explain,
            trace,
        ),
        (None, None) => Err("query needs --remote host:port or --snapshot stats.json".into()),
    }
}

/// One batched `estimate_expr` request for all expressions: the batch is
/// answered by a single estimator generation, so the printed results are
/// consistent even if the server hot-swaps mid-call.
fn query_remote(
    remote: &str,
    estimator: &str,
    exprs: &[String],
    explain: bool,
) -> Result<(), String> {
    let mut client = phe::service::ServiceClient::connect(remote)
        .map_err(|e| format!("connecting {remote}: {e}"))?;
    let batch = client
        .estimate_expr(estimator, exprs, explain)
        .map_err(|e| e.to_string())?;
    if batch.results.len() != exprs.len() {
        return Err(format!(
            "server answered {} results for {} expressions",
            batch.results.len(),
            exprs.len()
        ));
    }
    for (expr, result) in exprs.iter().zip(&batch.results) {
        println!("{expr}\t{:.2}", result.estimate);
        if explain {
            println!(
                "  {} concrete path(s), {} pruned, {} truncated{}{}",
                result.paths,
                result.pruned,
                result.truncated,
                if result.cached { ", cached" } else { "" },
                if result.matches_empty {
                    ", also matches the empty path"
                } else {
                    ""
                }
            );
            for (path, estimate) in result.branches.iter().flatten() {
                println!("    {path}\t{estimate:.2}");
            }
            for (depth, stage, seconds) in result.stages.iter().flatten() {
                println!(
                    "    {:indent$}{stage} {:.3} ms",
                    "",
                    seconds * 1e3,
                    indent = depth * 2
                );
            }
        }
    }
    eprintln!(
        "(estimator {estimator:?} v{} answered {} expression(s))",
        batch.version,
        batch.results.len()
    );
    Ok(())
}

/// Local expression estimation against a snapshot — `phe estimate` with
/// the full expression surface, plus follow-matrix pruning when the
/// build graph is supplied.
fn query_local(
    snapshot_path: &str,
    graph_path: Option<&str>,
    exprs: &[String],
    explain: bool,
    trace: bool,
) -> Result<(), String> {
    let snapshot = read_snapshot(snapshot_path)?;
    let restored = snapshot.restore().map_err(|e| e.to_string())?;
    let follow = match graph_path {
        None => None,
        Some(path) => {
            let graph = load_graph(path)?;
            let graph_names: Vec<&str> = graph
                .label_ids()
                .map(|l| graph.labels().name(l).unwrap_or("?"))
                .collect();
            if graph_names != snapshot.label_names {
                return Err(format!(
                    "{path} does not match the statistics: its labels differ from the \
                     snapshot's (follow-matrix pruning needs the build graph)"
                ));
            }
            Some(phe::graph::FollowMatrix::from_graph(&graph))
        }
    };
    for expr in exprs {
        let (estimate, spans) = phe::obs::span::capture(|| {
            local_expr_estimate(&snapshot, &restored, expr, follow.as_ref())
        });
        let estimate = estimate?;
        println!("{expr}\t{:.2}", estimate.total);
        if trace {
            for line in phe::obs::span::render_tree(&spans).lines() {
                println!("  {line}");
            }
        }
        if explain {
            println!(
                "  {} concrete path(s), {} pruned, {} truncated{}",
                estimate.branches.len(),
                estimate.expansion.pruned,
                estimate.expansion.truncated,
                if estimate.expansion.matches_empty {
                    ", also matches the empty path"
                } else {
                    ""
                }
            );
            for line in estimate
                .expr
                .tree(&|l| snapshot.label_names.get(l.index()).cloned())
                .lines()
            {
                println!("  {line}");
            }
            for (path, value) in &estimate.branches {
                println!("    {path}\t{value:.2}");
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn get_all_collects_repeated_flags() {
        let f = Flags::parse(&s(&["--snapshot", "a.json", "--snapshot", "b=c.json"])).unwrap();
        assert_eq!(f.get_all("snapshot"), vec!["a.json", "b=c.json"]);
        assert!(f.get_all("missing").is_empty());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let f =
            Flags::parse_with_booleans(&s(&["--no-load", "--addr", "x:1"]), &["no-load"]).unwrap();
        assert_eq!(f.get("no-load"), Some("true"));
        assert_eq!(f.get("addr"), Some("x:1"));
        // Bare non-boolean flags still error.
        assert!(Flags::parse_with_booleans(&s(&["--k"]), &["no-load"]).is_err());
    }

    #[test]
    fn flags_parse_positional_and_pairs() {
        let f = Flags::parse(&s(&["g.tsv", "--k", "3", "--beta", "64"])).unwrap();
        assert_eq!(f.positional, vec!["g.tsv"]);
        assert_eq!(f.get("k"), Some("3"));
        assert_eq!(f.require::<usize>("beta").unwrap(), 64);
        assert!(f.get("missing").is_none());
    }

    #[test]
    fn flags_last_wins() {
        let f = Flags::parse(&s(&["--k", "3", "--k", "5"])).unwrap();
        assert_eq!(f.require::<usize>("k").unwrap(), 5);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Flags::parse(&s(&["--k"])).is_err());
    }

    #[test]
    fn bad_parse_is_reported() {
        let f = Flags::parse(&s(&["--k", "abc"])).unwrap();
        let err = f.require::<usize>("k").unwrap_err();
        assert!(err.contains("abc"));
    }

    #[test]
    fn ordering_and_histogram_names_resolve() {
        assert_eq!(parse_ordering("sum-based").unwrap(), OrderingKind::SumBased);
        assert_eq!(
            parse_histogram("v-optimal-greedy").unwrap(),
            HistogramKind::VOptimalGreedy
        );
        assert!(parse_ordering("ideal").is_err(), "ideal is ablation-only");
        assert!(parse_histogram("nope").is_err());
    }
}
