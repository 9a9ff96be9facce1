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

/// The exit status when stdout closes before the output ends, as in
/// `phe … | head`: 141, what a shell reports for a process a SIGPIPE
/// ended.
const EXIT_STDOUT_CLOSED: i32 = 141;

/// `print!` for the CLI's output: see [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for the CLI's output: see [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `println!` for the lines `phe serve` prints until it shuts down: see
/// [`write_stdout_unless_closed`]. A server's clients do not read its
/// stdout, so it keeps serving when no one else does either.
macro_rules! status {
    ($($arg:tt)*) => {
        {
            let _open = write_stdout_unless_closed(format_args!("{}\n", format_args!($($arg)*)));
        }
    };
}

/// Writes to stdout. A closed stdout ends the process quietly with
/// [`EXIT_STDOUT_CLOSED`], since no reader is left for the rest of the
/// output. (`println!` panics instead.)
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if !write_stdout_unless_closed(args) {
        std::process::exit(EXIT_STDOUT_CLOSED);
    }
}

/// Writes to stdout and returns whether it is still open. Any other write
/// error is reported and ends the process with status 1.
fn write_stdout_unless_closed(args: std::fmt::Arguments<'_>) -> bool {
    use std::io::Write;
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => true,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => false,
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}

use phe::core::snapshot::EstimatorSnapshot;
use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::{Graph, GraphStats};
use phe::query::CardinalityEstimator;
use phe::service::ServableEstimator;

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
            [--trace] --out <stats.json>
      ordering:  num-alph | num-card | lex-alph | lex-card | sum-based | sum-based-L2
      histogram: equi-width | equi-depth | v-optimal-greedy | v-optimal-exact |
                 v-optimal-maxdiff | end-biased
      --stats        report the sparse catalog's memory against its dense
                     equivalent (never allocated)
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
      published. A publish is already a fresh build: the ordering and
      histogram are re-derived over the merged catalog, so the served
      estimates equal a full build of the maintained graph
  phe query (--remote 127.0.0.1:7878 | --snapshot stats.json) [--estimator NAME]
            [--graph graph.tsv] [--explain] [--trace] <path-expr>...
      estimates regular path expressions — locally against a snapshot, or
      remotely via the estimate_expr op (one batched request, answered by
      a single estimator generation). Local mode prunes impossible
      branches with the follow matrix a v5 snapshot carries, as a server
      does; --graph takes it from the build graph instead. --explain
      prints the expansion tree, per-branch estimates, prune counts, and
      (remote) the server-side stage timings. --trace prints the local
      stage-time tree (parse/expand/estimate)

EXIT STATUS:
  0 on success, 1 on an error (reported on stderr), 2 after printing this
  usage, and 141 when stdout closes before the output ends (as in
  `phe ... | head`), which ends any subcommand quietly; `phe serve` keeps
  serving until SIGINT and ends with 141 when its report finds stdout
  closed
";

/// Tiny flag parser: positional args plus the flags a subcommand declares.
struct Flags {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Flags {
    /// Parses `phe COMMAND`'s arguments: `valued` flags take the next
    /// argument as their value, `booleans` are valueless switches
    /// (recorded with value `"true"`), and any other `--name` is refused,
    /// so a misspelt flag never runs with a default in its place.
    fn parse(
        command: &str,
        args: &[String],
        valued: &[&str],
        booleans: &[&str],
    ) -> Result<Flags, String> {
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
                if !valued.contains(&name) {
                    return Err(format!("unknown flag --{name} for `phe {command}`"));
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
    let flags = Flags::parse("generate", args, &["scale", "seed", "out"], &[])?;
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
    outln!(
        "wrote {out}: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("stats", args, &[], &[])?;
    let [path] = flags.positional.as_slice() else {
        return Err("stats needs exactly one graph file".into());
    };
    let graph = load_graph(path)?;
    let stats = GraphStats::compute(&graph);
    outln!("vertices: {}", stats.vertex_count);
    outln!("edges:    {}", stats.edge_count);
    outln!("labels:   {}", stats.label_count);
    outln!(
        "degrees:  mean {:.2}, max {}, sinks {}",
        stats.mean_out_degree,
        stats.max_out_degree,
        stats.sink_count
    );
    outln!(
        "label independence score: {:.3} (1 = independent chaining)",
        stats.label_independence_correlation()
    );
    outln!("per-label cardinalities:");
    for l in graph.label_ids() {
        outln!(
            "  {:<20} {}",
            graph.labels().name(l).unwrap_or("?"),
            graph.label_frequency(l)
        );
    }
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "build",
        args,
        &["k", "beta", "ordering", "histogram", "out"],
        &["stats", "trace"],
    )?;
    let [path] = flags.positional.as_slice() else {
        return Err("build needs exactly one graph file".into());
    };
    let graph = load_graph(path)?;
    let config = EstimatorConfig {
        k: flags.require("k")?,
        beta: flags.require("beta")?,
        ordering: parse_ordering(flags.get("ordering").unwrap_or("sum-based"))?,
        histogram: parse_histogram(flags.get("histogram").unwrap_or("v-optimal-greedy"))?,
        threads: 0,
        // The whole-domain accuracy report reads the retained sparse
        // state.
        retain_sparse: true,
    };
    let out: String = flags.require("out")?;
    let trace = flags.get("trace").is_some();
    let (result, spans) =
        phe::obs::span::capture(|| PathSelectivityEstimator::build(&graph, config));
    let estimator = result.map_err(|e| e.to_string())?;
    if trace {
        out!("{}", phe::obs::span::render_tree(&spans));
    }
    let snapshot = estimator.snapshot().map_err(|e| e.to_string())?;
    write_snapshot(&out, &snapshot)?;
    outln!(
        "built {} statistics over {} paths (k = {}, β = {})",
        config.ordering.name(),
        estimator.domain_size(),
        config.k,
        config.beta
    );
    outln!(
        "catalog {:.2}s | ordering {:.3}s | histogram {:.3}s",
        estimator.build_stats().catalog_time.as_secs_f64(),
        estimator.build_stats().ordering_time.as_secs_f64(),
        estimator.build_stats().histogram_time.as_secs_f64()
    );
    let report = estimator
        .accuracy_report()
        .ok_or("the build retained no ordered runs to score")?;
    outln!(
        "whole-domain mean |err| = {:.4}, median q-error = {:.3}",
        report.mean_abs_error_rate,
        report.median_q_error
    );
    if flags.get("stats").is_some() {
        let fp = estimator.footprint();
        let percent = 100.0 * fp.nonzero_paths as f64 / fp.domain_size.max(1) as f64;
        outln!(
            "domain           {} paths, {} realized ({percent:.2}% non-zero)",
            fp.domain_size,
            fp.nonzero_paths
        );
        outln!(
            "sparse catalog   {} bytes compressed ({:.2} bytes/entry); plain pairs {} bytes \
             ({:.1}x compression); dense equivalent {} bytes ({:.1}x)",
            fp.sparse_bytes,
            fp.bytes_per_entry(),
            fp.sparse_plain_bytes,
            fp.compression_ratio(),
            fp.dense_bytes,
            fp.dense_bytes as f64 / (fp.sparse_bytes as f64).max(1.0)
        );
        outln!(
            "retained         {} bytes (histogram + ordering state + sparse catalog and \
             ordered runs)",
            estimator.size_bytes()
        );
    }
    outln!(
        "wrote {out} ({} bytes retained state)",
        snapshot.retained_bytes()
    );
    Ok(())
}

fn cmd_delta(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "delta",
        args,
        &[
            "graph",
            "changes",
            "k",
            "beta",
            "ordering",
            "histogram",
            "out",
        ],
        &["compare"],
    )?;
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
        // The sparse catalog is the state the delta merges into.
        retain_sparse: true,
    };

    let t0 = std::time::Instant::now();
    let base = PathSelectivityEstimator::build(&graph, config).map_err(|e| e.to_string())?;
    let base_secs = t0.elapsed().as_secs_f64();
    outln!(
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
    outln!(
        "delta            {} removals + {} insertions ⇒ {} realized paths — {delta_secs:.3}s \
         ({:.1}x faster than the base build)",
        delta.removals().len(),
        delta.insertions().len(),
        refreshed.footprint().nonzero_paths,
        base_secs / delta_secs.max(1e-9)
    );
    outln!(
        "lineage          build id {:016x}, {} delta(s) applied (snapshot v5)",
        refreshed.build_id(),
        refreshed.applied_deltas()
    );
    if let Some(drift) = refreshed.drift() {
        outln!(
            "drift            mean |err| = {:.4}, max q-error = {:.3} over {} of {} touched \
             path(s) sampled",
            drift.mean_abs_error_rate,
            drift.max_q_error,
            drift.sampled,
            drift.touched
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
        outln!(
            "verified         merged catalog bit-identical to full recount; \
             full rebuild {full_secs:.3}s ⇒ delta is {:.1}x faster",
            full_secs / delta_secs.max(1e-9)
        );
    }

    if let Some(out) = flags.get("out") {
        let snapshot = refreshed.snapshot().map_err(|e| e.to_string())?;
        write_snapshot(out, &snapshot)?;
        outln!(
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

fn read_snapshot(snapshot_path: &str) -> Result<EstimatorSnapshot, String> {
    let json = std::fs::read_to_string(snapshot_path)
        .map_err(|e| format!("reading {snapshot_path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {snapshot_path}: {e}"))
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    match Flags::parse("estimate", args, &[], &[])?
        .positional
        .split_first()
    {
        Some((snapshot_path, exprs)) if !exprs.is_empty() => {
            query_local(snapshot_path, None, exprs, false, false)
        }
        _ => Err("estimate needs a stats.json and at least one path expression".into()),
    }
}

/// Restores the statistics local expression estimates are answered from,
/// pruning with the build graph's follow matrix when `graph_path` is
/// given, else with the one a v5 snapshot carries — the same matrix a
/// server loading the snapshot prunes with, so local and remote estimates
/// agree.
fn local_estimator(
    snapshot_path: &str,
    graph_path: Option<&str>,
) -> Result<ServableEstimator, String> {
    let mut snapshot = read_snapshot(snapshot_path)?;
    if let Some(path) = graph_path {
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
        let follow = phe::graph::FollowMatrix::from_graph(&graph);
        snapshot.follow_bits_base64 = Some(phe::core::snapshot::encode_follow_bits(&follow));
    }
    ServableEstimator::from_snapshot(&snapshot).map_err(|e| e.to_string())
}

fn cmd_accuracy(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse("accuracy", args, &["k", "beta"], &[])?;
    let [path] = flags.positional.as_slice() else {
        return Err("accuracy needs exactly one graph file".into());
    };
    let graph = load_graph(path)?;
    let k: usize = flags.require("k")?;
    let beta: usize = flags.require("beta")?;
    let sparse =
        phe::pathenum::SparseCatalog::compute_parallel(&graph, k, 0).map_err(|e| e.to_string())?;
    outln!(
        "{:<14} {:>12} {:>14}",
        "ordering",
        "mean |err|",
        "median q-error"
    );
    for kind in OrderingKind::ALL {
        let ordering = kind.build_sparse(&graph, &sparse, k);
        let report = phe::core::evaluate_configuration(
            &sparse,
            ordering.as_ref(),
            HistogramKind::VOptimalGreedy,
            beta,
        )
        .map_err(|e| e.to_string())?;
        outln!(
            "{:<14} {:>12.4} {:>14.3}",
            kind.name(),
            report.mean_abs_error_rate,
            report.median_q_error
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "serve",
        args,
        &[
            "snapshot",
            "addr",
            "workers",
            "shards",
            "cache",
            "max-connections",
            "max-inflight-per-client",
            "shed-p99-ms",
            "shed-queue-depth",
            "max-queue-depth",
            "metrics-addr",
            "publish-interval-ms",
        ],
        &["no-load"],
    )?;
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
        registry.register(&name, phe::service::load_snapshot(path)?);
        status!("loaded {name:?} from {path}");
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
            status!(
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
    let coordinator = phe::service::MaintenanceCoordinator::new(
        std::sync::Arc::clone(&registry),
        metrics.clone(),
        phe::service::MaintenanceConfig {
            publish_interval: std::time::Duration::from_millis(publish_interval_ms),
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
    status!(
        "serving {} estimator(s) on {} — ctrl-C for metrics + shutdown",
        registry.len(),
        server.local_addr()
    );
    match publish_interval_ms {
        0 => status!("maintenance loop: deltas publish on arrival"),
        ms => status!("maintenance loop: compacted publish every {ms}ms"),
    }
    while !sigint() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    status!("\nshutting down...");
    server.shutdown();
    if let Some(mut endpoint) = metrics_server {
        endpoint.shutdown();
    }
    outln!("{}", metrics.report());
    for info in registry.list() {
        let lineage = info.lineage.map_or_else(
            || "lineage unknown (pre-v3 snapshot)".to_owned(),
            |(id, deltas)| format!("build {id:016x} + {deltas} delta(s)"),
        );
        outln!(
            "estimator        {:?} v{}: {} bytes retained, {lineage} ({})",
            info.name,
            info.version,
            info.size_bytes,
            info.description
        );
        outln!(
            "                 expression cache: {} normalized-key hit(s) / {} raw miss(es)",
            info.expr_cache.0,
            info.expr_cache.1
        );
        if let Some(m) = info.maintained {
            outln!(
                "                 maintained catalog: {} bytes compressed vs {} plain \
                 ({:.2} bytes/entry over {} paths)",
                m.catalog_bytes,
                m.plain_bytes,
                m.catalog_bytes as f64 / (m.nonzero_paths as f64).max(1.0),
                m.nonzero_paths
            );
        }
        if let Some(d) = info.drift {
            outln!(
                "                 drift after last delta: mean |err| = {:.4}, \
                 max q-error = {:.3} ({} path(s) sampled)",
                d.mean_abs_error_rate,
                d.max_q_error,
                d.sampled
            );
        }
    }
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        "query",
        args,
        &["remote", "snapshot", "estimator", "graph"],
        &["explain", "trace"],
    )?;
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
        outln!("{expr}\t{:.2}", result.estimate);
        if explain {
            outln!(
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
                outln!("    {path}\t{estimate:.2}");
            }
            for (depth, stage, seconds) in result.stages.iter().flatten() {
                outln!(
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
/// the full expression surface, explain and trace output. Each expression
/// is parsed here for the caret diagnostics and the explain tree, then
/// answered by the same `estimate_expr` the server runs.
fn query_local(
    snapshot_path: &str,
    graph_path: Option<&str>,
    exprs: &[String],
    explain: bool,
    trace: bool,
) -> Result<(), String> {
    let estimator = local_estimator(snapshot_path, graph_path)?;
    for source in exprs {
        let (answer, spans) = phe::obs::span::capture(|| {
            let parse_span = phe::obs::span::stage("query.parse");
            let expr = phe::query::parse_expr(&estimator, source)
                .map_err(|e| render_query_error(source, &e))?;
            drop(parse_span);
            // Concrete over-length chains keep the pre-expression error
            // text; branchy expressions handle the budget per concrete path.
            if let Some(chain) = expr.as_concrete().filter(|c| c.len() > estimator.k()) {
                return Err(format!(
                    "{source:?} has {} steps but the statistics cover k ≤ {}",
                    chain.len(),
                    estimator.k()
                ));
            }
            let estimate = estimator
                .estimate_expr(&expr.normalize())
                .map_err(|e| e.to_string())?;
            Ok((expr, estimate))
        });
        let (expr, estimate) = answer?;
        outln!("{source}\t{:.2}", estimate.total);
        if trace {
            for line in phe::obs::span::render_tree(&spans).lines() {
                outln!("  {line}");
            }
        }
        if explain {
            outln!(
                "  {} concrete path(s), {} pruned, {} truncated{}",
                estimate.width(),
                estimate.pruned,
                estimate.truncated,
                if estimate.matches_empty {
                    ", also matches the empty path"
                } else {
                    ""
                }
            );
            for line in expr
                .tree(&|l| estimator.label_name(l).map(str::to_owned))
                .lines()
            {
                outln!("  {line}");
            }
            for (path, value) in &estimate.branches {
                outln!("    {}\t{value:.2}", estimator.render_path(path));
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
        let f = Flags::parse(
            "serve",
            &s(&["--snapshot", "a.json", "--snapshot", "b=c.json"]),
            &["snapshot"],
            &[],
        )
        .unwrap();
        assert_eq!(f.get_all("snapshot"), vec!["a.json", "b=c.json"]);
        assert!(f.get_all("missing").is_empty());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let f = Flags::parse(
            "serve",
            &s(&["--no-load", "--addr", "x:1"]),
            &["addr"],
            &["no-load"],
        )
        .unwrap();
        assert_eq!(f.get("no-load"), Some("true"));
        assert_eq!(f.get("addr"), Some("x:1"));
        // Bare non-boolean flags still error.
        assert!(Flags::parse("serve", &s(&["--k"]), &["k"], &["no-load"]).is_err());
    }

    #[test]
    fn flags_parse_positional_and_pairs() {
        let f = Flags::parse(
            "build",
            &s(&["g.tsv", "--k", "3", "--beta", "64"]),
            &["k", "beta"],
            &[],
        )
        .unwrap();
        assert_eq!(f.positional, vec!["g.tsv"]);
        assert_eq!(f.get("k"), Some("3"));
        assert_eq!(f.require::<usize>("beta").unwrap(), 64);
        assert!(f.get("missing").is_none());
    }

    #[test]
    fn flags_last_wins() {
        let f = Flags::parse("build", &s(&["--k", "3", "--k", "5"]), &["k"], &[]).unwrap();
        assert_eq!(f.require::<usize>("k").unwrap(), 5);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Flags::parse("build", &s(&["--k"]), &["k"], &[]).is_err());
    }

    #[test]
    fn undeclared_flags_are_refused() {
        let refused = |args: &[&str]| {
            Flags::parse("build", &s(args), &["k", "ordering"], &["stats"])
                .err()
                .expect("an undeclared flag must be refused")
        };
        // A misspelt valued flag, and one another subcommand declares.
        assert_eq!(
            refused(&["g.tsv", "--orderng", "lex-alph"]),
            "unknown flag --orderng for `phe build`"
        );
        assert_eq!(
            refused(&["--snapshot", "s.json"]),
            "unknown flag --snapshot for `phe build`"
        );
        // A boolean is refused by name too, valueless or not.
        assert_eq!(
            refused(&["--trace"]),
            "unknown flag --trace for `phe build`"
        );
        // Declared flags of both kinds still parse.
        let f = Flags::parse(
            "build",
            &s(&["--stats", "--ordering", "lex-alph", "g.tsv"]),
            &["k", "ordering"],
            &["stats"],
        )
        .unwrap();
        assert_eq!(f.get("stats"), Some("true"));
        assert_eq!(f.get("ordering"), Some("lex-alph"));
        assert_eq!(f.positional, vec!["g.tsv"]);
        // A subcommand that declares no flags refuses every one.
        assert_eq!(
            Flags::parse("stats", &s(&["g.tsv", "--k", "3"]), &[], &[])
                .err()
                .unwrap(),
            "unknown flag --k for `phe stats`"
        );
    }

    #[test]
    fn bad_parse_is_reported() {
        let f = Flags::parse("build", &s(&["--k", "abc"]), &["k"], &[]).unwrap();
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
