//! `natix` — command-line front end for the Natix sibling-partitioning
//! store.
//!
//! ```text
//! natix partition <file.xml> [--alg ekm|dhw|ghdw|km|rs|dfs|bfs|lukes] [--k 256] [--stats]
//! natix load      <file.xml> <store.natix> [--alg ekm] [--k 256]
//! natix query     <store.natix> '<xpath>' [--count]
//! natix dump      <store.natix> [--degraded]
//! natix stats     <store.natix>
//! natix fsck      <store.natix> [--repair]
//! natix bulkload  <dir> [--input <file.xml>]... [--docs N] [--shards N] [--threads N]
//!                 [--seg-docs N] [--budget N] [--k SLOTS] [--seed N] [--pool-pages N]
//! natix collection stats <dir> | dump <dir> <doc-id> | fsck <dir> [--repair]
//! natix soak      [--quick] [--seed N] [--corruption | --group-commit | --bulkload |
//!                 --diskfull | --serve | --repl] | --replay <script>
//! natix stress    [--quick] [--seed N] [--runs N] [--net [--proxy | --leak]]
//! natix serve     <store.natix> [--addr HOST:PORT] [--workers N] [--max-pins N]
//!                 [--lease-ttl-ms N] [--pool-pages N] [--replica-of HOST:PORT]
//! natix net       <addr> ping|query|dump|stats|fsck|update|shed-probe|promote|shutdown [...]
//! ```
//!
//! `natix serve` runs the network daemon of `natix-server`: a
//! length-prefixed binary protocol over TCP, a worker pool for
//! connections, and a store-service thread that maps each connection
//! onto `SharedStore` snapshot pins (wire format in DESIGN.md §15). It
//! prints `listening on HOST:PORT` once ready and exits after a wire
//! `shutdown` request has drained all in-flight work. `natix net` is the
//! matching client: one verb per invocation, honoring the server's typed
//! retry-after backpressure (`--retries N` bounds the patience). The pin
//! budget (`--max-pins`) is the daemon's one overload gate: a `begin`, or
//! an unpinned `query`/`dump`, past it gets a typed retry-after. Its
//! `shed-probe` verb drives the backpressure round trip deterministically:
//! it saturates the pin budget (`--pins N` connections holding `begin`
//! pins), demands one more pin, an unpinned query and an unpinned dump,
//! expects a typed retry-after for each, then releases a pin and retries
//! until admitted.
//!
//! `natix serve --replica-of HOST:PORT` runs the daemon as a hot
//! standby: it subscribes to the primary at that address, bootstraps
//! from a streamed snapshot, then applies committed journal batches so
//! its store file is byte-identical to the primary at every acked
//! epoch. A replica serves read-only queries (writes get the typed
//! read-only retry-after) and reports its applied epoch and batch
//! counters in `stats`; the primary's `stats` reports follower count
//! and replication lag. `natix net <replica> promote` is failover: it
//! waits for the applied epoch to settle, discards any unacked staged
//! tail, runs recovery, and fences the store so batches from a deposed
//! primary are refused with a typed `fenced` error (DESIGN.md §17).
//!
//! Exit codes are structured so scripts can tell failure classes apart:
//! 0 success, 1 generic failure, 2 usage error (an unknown option on any
//! verb, before anything is opened, bound or connected), 3 request shed
//! by backpressure (`StoreError::Overloaded`/`ReadOnly`), 4 corruption
//! detected, 5 I/O failure.
//!
//! `natix bulkload` streams a document corpus into a sharded collection:
//! `--shards` independent store files under `<dir>` plus a catalog,
//! loaded by `--threads` parallel workers through the streaming
//! SAX-to-record pipeline (memory stays O(depth + sibling budget + K)
//! per in-flight document regardless of corpus size). The corpus is
//! either explicit `--input` files (each one document, in id order) or
//! `--docs N` synthetic small documents cycling the six Table 1
//! generators. `natix collection` inspects the result: `stats` prints a
//! per-shard table, `dump` extracts one document by id, and `fsck`
//! scrubs every shard independently — damage in one shard is localized
//! and never blocks checking the others.
//!
//! `natix fsck` scrubs a store file — header slots, pending journal,
//! catalog, page checksums, and the full partition-record graph — and
//! prints a machine-readable report (one `finding ...` line per
//! problem). With `--repair` it salvages every record that still passes
//! its checksum, rebuilds the catalog from the survivors, and
//! quarantines the rest; quarantined subtrees are readable via
//! `natix dump --degraded`, which prints the surviving document plus a
//! damage report naming each missing sibling interval.
//!
//! `natix soak` and `natix stress` run the campaigns of `natix-testkit`,
//! one row of its `CAMPAIGNS` table per invocation (DESIGN.md §7 has the
//! table with each row's contract, counts and wall time; `natix` with no
//! arguments prints the rows):
//!
//! ```text
//! natix soak                  fuzz          power cuts at every write event of update traces
//! natix soak --corruption     corruption    bit rot in every page class of every committed state
//! natix soak --group-commit   group-commit  power cuts inside batched commits
//! natix soak --bulkload       bulkload      power cuts during a sharded streaming bulkload
//! natix soak --diskfull       diskfull      a full disk at every write event
//! natix soak --serve          serve         SIGKILL of a `natix serve` child mid-storm
//! natix soak --repl           repl          failover: primary, fault proxy, hot standby, promote
//! natix stress                chaos         seeded reader/writer/fsck interleavings
//! natix stress --net          net           closed-loop client fleets against a live server
//! natix stress --net --proxy  proxy         the fleet behind the TCP fault proxy
//! natix stress --net --leak   leak          a silent client holding the only pin slot
//! ```
//!
//! `--quick` is the CI smoke tier (seconds); the default is the full
//! acceptance tier. `--seed N` replaces the row's seeds and `--runs N`
//! the chaos row's number of interleavings; a flag the selected row
//! cannot honour, or two rows at once, is a usage error (exit 2).
//! Progress goes to stderr, the one-line summary to stdout. On any
//! abnormal end — a failure or a panic, in every row — a drop guard
//! prints the seeds in play and the exact command line to reproduce;
//! failing update traces are shrunk and printed as scripts that
//! `natix soak --replay` re-runs.
//!
//! DHW and GHDW run one DP per distinct weighted subtree shape with
//! per-column forcing profiles (`natix_core::dag`). `natix partition --stats`
//! prints the sharing and pruning counters of that run so users can see
//! why a document did or didn't benefit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use natix_core::{
    dhw_with_statistics, ghdw_with_statistics, Bfs, Dfs, Dhw, DpStats, Ekm, Ghdw, Km, Lukes,
    PartitionError, Partitioner, Rs,
};
use natix_server::{
    query_lines, serve as serve_daemon, Client, ClientError, ProtoError, Request, ResponseBody,
    ServeConfig, ServeError, ShedKind, Stats, UpdateOp,
};
use natix_store::{
    bulkload_collection, fsck, fsck_collection, BulkloadOptions, Collection, ErrorCategory,
    FilePager, PagerFactory, StoreConfig, StoreError, XmlStore,
};
use natix_testkit::Tier;
use natix_tree::{validate, Partitioning, Tree, Weight};

/// A CLI failure: the message plus the process exit code, so scripts can
/// tell failure classes apart (see the module docs for the code table).
#[derive(Debug)]
struct CliError {
    code: u8,
    msg: String,
}

/// Exit code for a store failure class: sheds are 3, corruption 4,
/// I/O 5; invalid requests are ordinary failures.
fn exit_code_for(category: ErrorCategory) -> u8 {
    match category {
        ErrorCategory::Shed => 3,
        ErrorCategory::Corrupt => 4,
        ErrorCategory::Io => 5,
        ErrorCategory::InvalidRequest => 1,
    }
}

impl CliError {
    fn new(code: u8, msg: impl Into<String>) -> CliError {
        CliError {
            code,
            msg: msg.into(),
        }
    }

    /// Classify a store error into its exit code.
    fn store(e: &StoreError) -> CliError {
        CliError::new(exit_code_for(e.category()), e.to_string())
    }

    /// Like [`CliError::store`], prefixing the failing path.
    fn store_at(path: &str, e: &StoreError) -> CliError {
        CliError::new(exit_code_for(e.category()), format!("{path}: {e}"))
    }

    /// Classify a network-client failure: exhausted retry-after patience
    /// is a shed (3), transport trouble is I/O (5).
    fn client(e: &ClientError) -> CliError {
        match e {
            ClientError::StillOverloaded { .. } => CliError::new(3, e.to_string()),
            // An expired lease is a shed-class condition: the server is
            // healthy, the client just has to re-`begin`.
            ClientError::SessionExpired => CliError::new(3, e.to_string()),
            ClientError::Proto(ProtoError::Io(_)) => CliError::new(5, e.to_string()),
            ClientError::Proto(_) => CliError::new(1, e.to_string()),
        }
    }

    /// Classify a typed error response from the server.
    fn response(kind: natix_server::ErrKind, message: &str) -> CliError {
        let code = match kind {
            natix_server::ErrKind::Corrupt => 4,
            natix_server::ErrKind::Io => 5,
            _ => 1,
        };
        CliError::new(code, format!("server: {kind} error: {message}"))
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::new(1, msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::new(1, msg)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  natix partition <file.xml> [--alg NAME] [--k SLOTS] [--stats]\n  \
         natix load <file.xml> <store.natix> [--alg NAME] [--k SLOTS] [--pool-pages N]\n  \
         natix query <store.natix> '<xpath>' [--count] [--pool-pages N]\n  \
         natix dump <store.natix> [--degraded] [--pool-pages N]\n  \
         natix stats <store.natix> [--pool-pages N]\n  \
         natix fsck <store.natix> [--repair]\n  \
         natix bulkload <dir> [--input <file.xml>]... [--docs N] [--shards N] [--threads N] \
         [--seg-docs N] [--budget N] [--k SLOTS] [--seed N] [--pool-pages N]\n  \
         natix collection stats <dir> | dump <dir> <doc-id> | fsck <dir> [--repair]\n  \
         natix soak|stress <campaign, below> [--quick] [--seed N] [--runs N]\n  \
         natix soak --replay <script>\n  \
         natix serve <store.natix> [--addr HOST:PORT] [--workers N] [--max-pins N] \
         [--lease-ttl-ms N] [--pool-pages N] [--replica-of HOST:PORT]\n  \
         natix net <addr> ping | query '<xpath>' [--count] | dump | stats | \
         fsck | update '<xpath>' <append-element|append-text|insert-before|delete> [VALUE] | \
         shed-probe [--pins N] | promote | shutdown   (all: [--retries N])\n\
         algorithms: ekm (default), dhw, ghdw, km, rs, dfs, bfs, lukes\n\
         --stats prints DP cache and scan counters (dhw/ghdw)\n\
         --pool-pages N caps the buffer pool at N 8 KB pages (default 8192)\n\
         campaigns (--quick: the CI smoke tier; --runs: chaos only):"
    );
    for row in &natix_testkit::CAMPAIGNS {
        eprintln!("  natix {:<26} {}", row.command, row.contract);
    }
    ExitCode::from(2)
}

/// Resolve an algorithm name.
fn algorithm(name: &str) -> Option<Box<dyn Partitioner>> {
    Some(match name.to_ascii_lowercase().as_str() {
        "ekm" => Box::new(Ekm),
        "dhw" => Box::new(Dhw),
        "ghdw" => Box::new(Ghdw),
        "km" => Box::new(Km),
        "rs" => Box::new(Rs),
        "dfs" => Box::new(Dfs),
        "bfs" => Box::new(Bfs),
        "lukes" => Box::new(Lukes),
        _ => return None,
    })
}

/// A `*_with_statistics` entry point of `natix_core`.
type StatsFn = fn(&Tree, Weight) -> Result<(Partitioning, DpStats), PartitionError>;

struct Flags {
    alg: Box<dyn Partitioner>,
    k: u64,
    /// `--stats`: the counting entry point of the chosen DP algorithm.
    stats: Option<StatsFn>,
    pool_pages: Option<usize>,
}

/// Strip a `--pool-pages N` flag out of `args`, returning the cap (if
/// present) and the remaining arguments for the command's own parser.
fn extract_pool_pages(args: &[String]) -> Result<(Option<usize>, Vec<String>), String> {
    let mut pool_pages = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--pool-pages" {
            let n: usize = it
                .next()
                .ok_or("missing value for --pool-pages")?
                .parse()
                .map_err(|_| "--pool-pages expects a positive integer".to_string())?;
            if n == 0 {
                return Err("--pool-pages expects a positive integer".to_string());
            }
            pool_pages = Some(n);
        } else {
            rest.push(a.clone());
        }
    }
    Ok((pool_pages, rest))
}

/// Usage error (exit 2) for the first of `extra` not in `allowed`.
fn refuse_unknown(extra: &[String], allowed: &[&str]) -> Result<(), CliError> {
    match extra.iter().find(|a| !allowed.contains(&a.as_str())) {
        Some(bad) => Err(CliError::new(2, format!("unknown option {bad}"))),
        None => Ok(()),
    }
}

fn store_config(pool_pages: Option<usize>) -> StoreConfig {
    let mut config = StoreConfig::default();
    if let Some(n) = pool_pages {
        config.buffer_pages = n;
    }
    config
}

/// Parse the options of `partition`/`load`; every error is a usage error.
fn parse_flags(rest: &[String]) -> Result<Flags, CliError> {
    parse_flags_inner(rest).map_err(|msg| CliError::new(2, msg))
}

fn parse_flags_inner(rest: &[String]) -> Result<Flags, String> {
    let mut alg: Box<dyn Partitioner> = Box::new(Ekm);
    let mut k = 256;
    let mut stats = false;
    let (pool_pages, rest) = extract_pool_pages(rest)?;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--alg" => {
                let name = it.next().ok_or("missing value for --alg")?;
                alg = algorithm(name).ok_or_else(|| format!("unknown algorithm {name}"))?;
            }
            "--k" => {
                k = it
                    .next()
                    .ok_or("missing value for --k")?
                    .parse()
                    .map_err(|_| "--k expects a positive integer".to_string())?;
            }
            "--stats" => stats = true,
            "--count" => {} // handled by the caller
            other => return Err(format!("unknown option {other}")),
        }
    }
    let stats: Option<StatsFn> = match (stats, alg.name()) {
        (false, _) => None,
        (true, "DHW") => Some(dhw_with_statistics),
        (true, "GHDW") => Some(ghdw_with_statistics),
        (true, other) => return Err(format!("--stats supports dhw/ghdw, not {other}")),
    };
    Ok(Flags {
        alg,
        k,
        stats,
        pool_pages,
    })
}

fn read_xml_file(path: &str) -> Result<natix_xml::Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    natix_xml::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn open_store(path: &str, pool_pages: Option<usize>) -> Result<XmlStore, CliError> {
    let pager = FilePager::open(Path::new(path)).map_err(|e| CliError::store_at(path, &e))?;
    XmlStore::open(Box::new(pager), store_config(pool_pages))
        .map_err(|e| CliError::store_at(path, &e))
}

fn cmd_partition(args: &[String]) -> Result<(), CliError> {
    let file = args.first().ok_or("missing <file.xml>")?;
    let flags = parse_flags(&args[1..])?;
    let doc = read_xml_file(file)?;
    let tree = doc.tree();
    let (p, dp_stats) = match flags.stats {
        Some(run) => run(tree, flags.k).map(|(p, dp_stats)| (p, Some(dp_stats))),
        None => flags.alg.partition(tree, flags.k).map(|p| (p, None)),
    }
    .map_err(|e| e.to_string())?;
    let stats = validate(tree, flags.k, &p).map_err(|e| e.to_string())?;
    println!(
        "document   : {} nodes, {} slots",
        tree.len(),
        tree.total_weight()
    );
    println!("algorithm  : {} (K = {})", flags.alg.name(), flags.k);
    println!("partitions : {}", stats.cardinality);
    println!("root weight: {}", stats.root_weight);
    println!("max weight : {}", stats.max_partition_weight);
    println!(
        "lower bound: {} (total weight / K)",
        tree.total_weight().div_ceil(flags.k)
    );
    if let Some(dp_stats) = dp_stats {
        print_dp_stats(&dp_stats);
    }
    Ok(())
}

/// `--stats`: the structure-sharing and scan counters of the
/// run that produced the partitioning.
fn print_dp_stats(stats: &DpStats) {
    println!(
        "dag shapes : {} distinct of {} nodes ({:.1}x dedup)",
        stats.dag_distinct,
        stats.dag_nodes,
        stats.dag_dedup_ratio()
    );
    println!(
        "cache hits : {} ({:.1}% of nodes)",
        stats.dag_hits,
        stats.dag_hit_rate() * 100.0
    );
    println!(
        "pruned     : {} window positions never compared ({} compared), {} scans ended early",
        stats.pruned_candidates, stats.compared_candidates, stats.pruned_scans
    );
    println!(
        "dp tables  : {} inner shapes, {} rows (avg {:.2} s values), {} cells",
        stats.inner_nodes,
        stats.total_rows,
        stats.avg_rows(),
        stats.total_entries
    );
    println!(
        "workspace  : {} KB peak",
        stats.bytes_allocated.div_ceil(1024)
    );
}

fn cmd_load(args: &[String]) -> Result<(), CliError> {
    let file = args.first().ok_or("missing <file.xml>")?;
    let out = args.get(1).ok_or("missing <store.natix>")?;
    let flags = parse_flags(&args[2..])?;
    let doc = read_xml_file(file)?;
    // Partition first: an infeasible K fails as `natix partition` does,
    // before the output file exists.
    let partitioning = flags
        .alg
        .partition(doc.tree(), flags.k)
        .map_err(|e| e.to_string())?;
    let pager = FilePager::create(Path::new(out)).map_err(|e| CliError::store_at(out, &e))?;
    let store = XmlStore::bulkload(
        &doc,
        &partitioning,
        Box::new(pager),
        StoreConfig {
            record_limit_slots: flags.k,
            ..store_config(flags.pool_pages)
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "loaded {} nodes into {} records on {} pages ({} KB) using {}",
        doc.len(),
        store.record_count(),
        store.page_count(),
        store.occupied_bytes() / 1024,
        flags.alg.name()
    );
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), CliError> {
    let (pool_pages, args) = extract_pool_pages(args)?;
    let store_path = args.first().ok_or("missing <store.natix>")?;
    let query = args.get(1).ok_or("missing XPath query")?;
    refuse_unknown(&args[2..], &["--count"])?;
    let count_only = args.iter().any(|a| a == "--count");
    let path = natix_xpath::parse(query).map_err(|e| e.to_string())?;
    let mut store = open_store(store_path, pool_pages)?;
    let (count, lines) =
        query_lines(&mut store, &path, count_only, None).map_err(|e| CliError::store(&e))?;
    if count_only {
        println!("{count}");
    } else {
        for line in &lines {
            println!("{line}");
        }
        eprintln!("{count} result(s)");
    }
    let nav = store.nav_stats();
    eprintln!(
        "record crossings: {} ({} decodes, {} cache hits)",
        nav.record_switches, nav.record_decodes, nav.record_cache_hits
    );
    Ok(())
}

fn cmd_dump(args: &[String]) -> Result<(), CliError> {
    let (pool_pages, args) = extract_pool_pages(args)?;
    let store_path = args.first().ok_or("missing <store.natix>")?;
    refuse_unknown(&args[1..], &["--degraded"])?;
    let degraded = args.iter().any(|a| a == "--degraded");
    if degraded {
        let mut store =
            XmlStore::open_read_only(&PathBuf::from(store_path), store_config(pool_pages))
                .map_err(|e| CliError::store_at(store_path, &e))?;
        let (doc, damage) = store
            .to_document_degraded()
            .map_err(|e| CliError::store(&e))?;
        println!("{}", doc.to_xml());
        eprintln!("{damage}");
        return Ok(());
    }
    let mut store = open_store(store_path, pool_pages)?;
    let doc = store.to_document().map_err(|e| CliError::store(&e))?;
    println!("{}", doc.to_xml());
    Ok(())
}

/// `natix fsck`: scrub a store file; with `--repair`, salvage the
/// records that still verify and quarantine the rest. Exit 0 when the
/// store is clean (or the repair succeeded); the report goes to stdout.
fn cmd_fsck(args: &[String]) -> Result<(), CliError> {
    let store_path = args.first().ok_or("missing <store.natix>")?;
    refuse_unknown(&args[1..], &["--repair"])?;
    let repair = args.iter().any(|a| a == "--repair");
    let pages = PathBuf::from(store_path);
    // A file that does not open is an I/O failure, not a damaged store.
    pages
        .open_pager()
        .map_err(|e| CliError::store_at(store_path, &e))?;
    let report = fsck(&pages, repair);
    print!("{report}");
    if report.clean() || report.repaired {
        Ok(())
    } else {
        Err(CliError::new(
            4,
            format!(
                "{store_path}: {} error(s) found{}",
                report.errors(),
                if repair { "; repair failed" } else { "" }
            ),
        ))
    }
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let (pool_pages, args) = extract_pool_pages(args)?;
    let store_path = args.first().ok_or("missing <store.natix>")?;
    refuse_unknown(&args[1..], &[])?;
    let mut store = open_store(store_path, pool_pages)?;
    let doc = store.to_document().map_err(|e| CliError::store(&e))?;
    let mut stats = Stats::default();
    stats.push("doc.nodes", doc.len());
    stats.push("doc.weight_slots", doc.total_weight());
    stats.push("store.live_records", store.live_record_count());
    stats.push("store.pages", store.page_count());
    stats.push("store.occupied_bytes", store.occupied_bytes());
    let avg = doc.total_weight() as f64 / store.live_record_count().max(1) as f64;
    stats.push("doc.avg_record_slots", format!("{avg:.1}"));
    print!("{stats}");
    Ok(())
}

/// `natix bulkload`: stream a corpus into a sharded collection. The
/// corpus is `--input` files (one document each, in id order) or
/// `--docs N` synthetic small documents from the Table 1 generators.
fn cmd_bulkload(args: &[String]) -> Result<(), CliError> {
    let (pool_pages, args) = extract_pool_pages(args)?;
    let dir = args.first().ok_or("missing <dir>")?.clone();
    let mut inputs: Vec<String> = Vec::new();
    let mut docs = 10_000usize;
    let mut seed = 42u64;
    let mut opts = BulkloadOptions::default();
    let mut k: natix_tree::Weight = 256;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next()
                .ok_or(format!("missing value for {name}"))?
                .parse::<u64>()
                .map_err(|_| format!("{name} expects a non-negative integer"))
        };
        match a.as_str() {
            "--input" => {
                inputs.push(it.next().ok_or("missing value for --input")?.clone());
            }
            "--docs" => docs = num("--docs")? as usize,
            "--seed" => seed = num("--seed")?,
            "--shards" => opts.shards = num("--shards")? as u32,
            "--threads" => opts.threads = num("--threads")? as usize,
            "--seg-docs" => opts.seg_docs = num("--seg-docs")? as usize,
            "--budget" => opts.sibling_budget = num("--budget")? as usize,
            "--k" => k = num("--k")?,
            other => return Err(CliError::new(2, format!("unknown option {other}"))),
        }
    }
    let config = StoreConfig {
        record_limit_slots: k,
        ..store_config(pool_pages)
    };
    let start = std::time::Instant::now();
    let report = if inputs.is_empty() {
        bulkload_collection(
            Path::new(&dir),
            natix_datagen::small_docs(docs, seed),
            config,
            opts,
        )
    } else {
        let mut read = Vec::with_capacity(inputs.len());
        for path in &inputs {
            read.push(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?);
        }
        bulkload_collection(Path::new(&dir), read, config, opts)
    }
    .map_err(|e| e.to_string())?;
    let secs = start.elapsed().as_secs_f64();
    println!(
        "loaded {} documents ({} records) into {} shard(s) with {} thread(s) in {:.2}s ({:.0} docs/s)",
        report.docs,
        report.records,
        opts.shards,
        opts.threads,
        secs,
        report.docs as f64 / secs.max(1e-9)
    );
    println!(
        "peak resident: loader {} KB, shard pools {} KB",
        report.peak_loader_resident.div_ceil(1024),
        report.peak_pool_resident.div_ceil(1024)
    );
    for (s, n) in report.shard_docs.iter().enumerate() {
        println!("shard {s:>4}: {n} docs");
    }
    Ok(())
}

/// `natix collection`: inspect a sharded collection. `stats` prints a
/// per-shard table, `dump <doc-id>` extracts one document, `fsck`
/// scrubs every shard independently.
fn cmd_collection(args: &[String]) -> Result<(), CliError> {
    let sub = args.first().ok_or("missing subcommand (stats|dump|fsck)")?;
    match sub.as_str() {
        "stats" => {
            let (pool_pages, rest) = extract_pool_pages(&args[1..])?;
            let dir = rest.first().ok_or("missing <dir>")?;
            refuse_unknown(&rest[1..], &[])?;
            let mut coll = Collection::open(Path::new(dir), store_config(pool_pages))
                .map_err(|e| format!("{dir}: {e}"))?;
            let stats = coll.stats().map_err(|e| e.to_string())?;
            println!("shards   : {}", coll.shard_count());
            println!("documents: {}", coll.doc_count());
            println!(
                "{:>6} {:>10} {:>12} {:>8}",
                "shard", "docs", "records", "pages"
            );
            for (s, (docs, records, pages)) in stats.iter().enumerate() {
                println!("{s:>6} {docs:>10} {records:>12} {pages:>8}");
            }
            let problems = coll.check().map_err(|e| e.to_string())?;
            if problems.is_empty() {
                println!("consistency: ok");
                Ok(())
            } else {
                for (s, msg) in &problems {
                    eprintln!("shard {s}: {msg}");
                }
                Err(format!("{} shard(s) inconsistent", problems.len()).into())
            }
        }
        "dump" => {
            let (pool_pages, rest) = extract_pool_pages(&args[1..])?;
            let dir = rest.first().ok_or("missing <dir>")?;
            let doc_id: u64 = rest
                .get(1)
                .ok_or("missing <doc-id>")?
                .parse()
                .map_err(|_| "<doc-id> expects a non-negative integer".to_string())?;
            refuse_unknown(&rest[2..], &[])?;
            let mut coll = Collection::open(Path::new(dir), store_config(pool_pages))
                .map_err(|e| format!("{dir}: {e}"))?;
            let doc = coll.get_document(doc_id).map_err(|e| e.to_string())?;
            println!("{}", doc.to_xml());
            Ok(())
        }
        "fsck" => {
            let dir = args.get(1).ok_or("missing <dir>")?;
            refuse_unknown(&args[2..], &["--repair"])?;
            let repair = args.iter().any(|a| a == "--repair");
            let reports = fsck_collection(Path::new(dir), repair).map_err(|e| e.to_string())?;
            let mut dirty = 0usize;
            for (s, report) in &reports {
                if report.clean() {
                    println!("shard {s}: clean");
                } else {
                    dirty += 1;
                    println!("shard {s}: {} error(s)", report.errors());
                    print!("{report}");
                }
            }
            if dirty == 0 {
                Ok(())
            } else {
                Err(CliError::new(
                    4,
                    format!(
                        "{dirty}/{} shard(s) damaged; healthy shards unaffected",
                        reports.len()
                    ),
                ))
            }
        }
        other => Err(format!("unknown collection subcommand {other}").into()),
    }
}

/// Drop guard for `natix soak` and `natix stress`: unless disarmed by a
/// clean finish, it prints the seeds in play and the exact command line
/// to reproduce — on failure exits *and* on panics anywhere in the
/// harness, so a crash never eats the reproduction info.
struct ReplayBanner {
    armed: bool,
    verb: String,
    rerun: String,
    seeds: Vec<u64>,
}

impl ReplayBanner {
    fn new(verb: &str, rerun: String, seeds: Vec<u64>) -> ReplayBanner {
        ReplayBanner {
            armed: true,
            verb: verb.to_string(),
            rerun,
            seeds,
        }
    }

    fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for ReplayBanner {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let verb = &self.verb;
        eprintln!("{verb}: run did not finish cleanly");
        eprintln!("{verb}: seeds in play: {:?}", self.seeds);
        eprintln!("{verb}: reproduce with: {}", self.rerun);
        eprintln!("{verb}: a failure above carries its own replay script or rerun line");
    }
}

/// `natix soak` and `natix stress`: run one row of
/// `natix_testkit::CAMPAIGNS` (or, for `soak --replay`, a shrunk failure
/// script). The selector words pick the row, the row refuses the flags
/// it cannot honour (usage errors, exit 2), progress goes to stderr, the
/// summary to stdout; a non-zero exit means at least one failure was
/// printed, with the banner naming the seeds and the command to rerun.
fn cmd_campaign(verb: &str, args: &[String]) -> Result<(), CliError> {
    let usage = |msg: String| CliError::new(2, msg);
    let mut tier = Tier::Full;
    let mut seed: Option<u64> = None;
    let mut runs: Option<usize> = None;
    let mut replay_path: Option<&String> = None;
    let mut selectors: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| usage(format!("missing value for {a}")))
                .and_then(|v| v.parse().map_err(|_| usage(format!("{a} expects {what}"))))
        };
        match a.as_str() {
            "--quick" => tier = Tier::Quick,
            "--seed" => seed = Some(value("an integer")?),
            "--runs" => runs = Some(value("a positive integer")? as usize),
            "--replay" if verb == "soak" => {
                let path = it.next();
                replay_path = Some(path.ok_or_else(|| usage("missing value for --replay".into()))?);
            }
            word if natix_testkit::is_selector(verb, word) => {
                if !selectors.contains(&word) {
                    selectors.push(word);
                }
            }
            other => return Err(usage(format!("unknown option {other}"))),
        }
    }
    if let Some(path) = replay_path {
        let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut banner = ReplayBanner::new(verb, format!("natix soak --replay {path}"), vec![]);
        let (row, report) = natix_testkit::replay(&script)?;
        banner.disarm();
        println!("replay ({row}): {}", report.summary());
        return Ok(());
    }
    let row = natix_testkit::select(verb, &selectors).map_err(usage)?;
    let server_bin = row
        .server_bin
        .then(std::env::current_exe)
        .transpose()
        .map_err(|e| CliError::new(5, format!("cannot locate the natix binary: {e}")))?;
    let plan = row.plan(tier, seed, runs, server_bin).map_err(usage)?;
    let mut banner = ReplayBanner::new(verb, plan.rerun(), plan.seeds.clone());
    let report = plan.run(&mut |line| eprintln!("  {line}"));
    for f in &report.failures {
        eprintln!("FAIL {f}");
    }
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}: {}", plan.title(), report.summary());
    if report.ok() {
        banner.disarm();
        Ok(())
    } else {
        Err(format!("{} failure(s) printed above", report.failures.len()).into())
    }
}

/// `natix serve`: run the network daemon until a wire `shutdown` request
/// drains it. The `listening on HOST:PORT` banner line on stdout is the
/// machine-readable readiness signal (the serve soak parses it).
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let (pool_pages, args) = extract_pool_pages(args)?;
    let store = args.first().ok_or("missing <store.natix>")?.clone();
    let mut config = ServeConfig {
        store: std::path::PathBuf::from(&store),
        pool_pages,
        ..ServeConfig::default()
    };
    config.addr = "127.0.0.1:4547".to_string();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, CliError> {
            Ok(it
                .next()
                .ok_or(format!("missing value for {name}"))?
                .clone())
        };
        match a.as_str() {
            "--addr" => config.addr = val("--addr")?,
            "--workers" => {
                config.workers = val("--workers")?
                    .parse()
                    .map_err(|_| "--workers expects a positive integer")?;
            }
            "--max-pins" => {
                config.max_pins = val("--max-pins")?
                    .parse()
                    .map_err(|_| "--max-pins expects a positive integer")?;
            }
            "--lease-ttl-ms" => {
                // 0 disables the lease reaper: pins live until disconnect.
                config.lease_ttl_ms = val("--lease-ttl-ms")?
                    .parse()
                    .map_err(|_| "--lease-ttl-ms expects a non-negative integer")?;
            }
            "--replica-of" => {
                config.replica_of = Some(val("--replica-of")?);
            }
            other => return Err(CliError::new(2, format!("unknown option {other}"))),
        }
    }
    if config.workers == 0 || config.max_pins == 0 {
        return Err("--workers and --max-pins must be positive".into());
    }
    // The reaper ticks at max(ttl/4, 10ms): a TTL under 40 ms is below
    // the tick granularity and would expire pins erratically. Reject it
    // as a usage error (0 still means "reaper disabled").
    if config.lease_ttl_ms > 0 && config.lease_ttl_ms < 40 {
        return Err(CliError::new(
            2,
            "--lease-ttl-ms must be 0 (disabled) or at least 40 (the lease \
             reaper tick granularity)",
        ));
    }
    let handle = serve_daemon(config.clone()).map_err(|e| match e {
        ServeError::Bind(io) => CliError::new(5, format!("bind {}: {io}", config.addr)),
        ServeError::Store(se) => CliError::store_at(&store, &se),
    })?;
    // A supervisor may parse only the banner line and stop reading our
    // stdout; later prints must not EPIPE-kill a healthy daemon, so
    // write errors on status lines are deliberately ignored.
    use std::io::Write as _;
    let mut out = std::io::stdout();
    let _ = writeln!(out, "natix serve: listening on {}", handle.addr());
    if let Some(src) = &config.replica_of {
        let _ = writeln!(
            out,
            "natix serve: replica of {src} (read-only until promoted)"
        );
    }
    let _ = writeln!(
        out,
        "natix serve: serving {store} ({} workers, {} pins); \
         stop with: natix net {} shutdown",
        config.workers,
        config.max_pins,
        handle.addr()
    );
    let _ = out.flush();
    let summary = handle.join();
    let _ = writeln!(out, "natix serve: drained and stopped; {summary}");
    if summary.worker_panics == 0 {
        Ok(())
    } else {
        Err(format!("{} connection handler panic(s)", summary.worker_panics).into())
    }
}

/// `natix net`: one protocol verb per invocation against a running
/// `natix serve` daemon. Shed responses are retried up to `--retries`
/// times honoring the server's back-off hints; exhausted patience exits
/// with the shed code (3).
fn cmd_net(args: &[String]) -> Result<(), CliError> {
    let addr = args.first().ok_or("missing <addr> (host:port)")?.clone();
    let verb = args
        .get(1)
        .ok_or("missing verb (try: natix net ADDR ping)")?;
    let rest = &args[2..];
    let mut retries = 20u32;
    let mut positional: Vec<String> = Vec::new();
    let mut count_only = false;
    let mut pins = 4usize;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--count" => count_only = true,
            "--retries" => {
                retries = it
                    .next()
                    .ok_or("missing value for --retries")?
                    .parse()
                    .map_err(|_| "--retries expects a non-negative integer")?;
            }
            "--pins" => {
                pins = it
                    .next()
                    .ok_or("missing value for --pins")?
                    .parse()
                    .map_err(|_| "--pins expects a positive integer")?;
            }
            other if other.starts_with("--") => {
                return Err(CliError::new(2, format!("unknown option {other}")))
            }
            other => positional.push(other.to_string()),
        }
    }
    let connect = || Client::connect(addr.as_str()).map_err(|e| CliError::client(&e));
    // One verb, one well-typed exchange; every unexpected response kind
    // maps onto the structured exit codes.
    let exchange = |c: &mut Client, req: &Request| -> Result<natix_server::Response, CliError> {
        let (resp, shed_retries) = c
            .request_retry(req, retries)
            .map_err(|e| CliError::client(&e))?;
        if shed_retries > 0 {
            eprintln!("(admitted after {shed_retries} retry-after responses)");
        }
        if let ResponseBody::Error { kind, message } = &resp.body {
            return Err(CliError::response(*kind, message));
        }
        Ok(resp)
    };
    match verb.as_str() {
        "ping" => {
            let mut c = connect()?;
            let resp = exchange(&mut c, &Request::Ping)?;
            println!("pong (committed epoch {})", resp.epoch);
            Ok(())
        }
        "query" => {
            let xpath = positional.first().ok_or("missing '<xpath>'")?;
            let mut c = connect()?;
            let resp = exchange(
                &mut c,
                &Request::Query {
                    xpath: xpath.clone(),
                    count_only,
                },
            )?;
            let ResponseBody::QueryResult { count, lines } = resp.body else {
                return Err(format!("unexpected response: {:?}", resp.body).into());
            };
            if count_only {
                println!("{count}");
            } else {
                for line in &lines {
                    println!("{line}");
                }
                eprintln!("{count} result(s) at epoch {}", resp.epoch);
            }
            Ok(())
        }
        "dump" => {
            let mut c = connect()?;
            let resp = exchange(&mut c, &Request::Dump)?;
            let ResponseBody::DumpResult { xml } = resp.body else {
                return Err(format!("unexpected response: {:?}", resp.body).into());
            };
            println!("{xml}");
            Ok(())
        }
        "stats" => {
            print!("{}", connect()?.stats().map_err(|e| CliError::client(&e))?);
            Ok(())
        }
        "fsck" => {
            let mut c = connect()?;
            let resp = exchange(&mut c, &Request::Fsck)?;
            let ResponseBody::FsckResult { clean, report } = resp.body else {
                return Err(format!("unexpected response: {:?}", resp.body).into());
            };
            print!("{report}");
            if clean {
                Ok(())
            } else {
                Err(CliError::new(4, "served store is damaged (report above)"))
            }
        }
        "update" => {
            let target = positional.first().ok_or("missing '<xpath>' target")?;
            let op_name = positional
                .get(1)
                .ok_or("missing op (append-element|append-text|insert-before|delete)")?;
            let value = positional.get(2).cloned();
            let need_value = |v: Option<String>| -> Result<String, CliError> {
                v.ok_or_else(|| CliError::new(2, format!("{op_name} needs a VALUE argument")))
            };
            let op = match op_name.as_str() {
                "append-element" => UpdateOp::AppendElement {
                    name: need_value(value)?,
                },
                "append-text" => UpdateOp::AppendText {
                    text: need_value(value)?,
                },
                "insert-before" => UpdateOp::InsertBefore {
                    name: need_value(value)?,
                },
                "delete" => UpdateOp::DeleteSubtree,
                other => return Err(CliError::new(2, format!("unknown update op {other}"))),
            };
            let mut c = connect()?;
            let resp = exchange(
                &mut c,
                &Request::Update {
                    target: target.clone(),
                    op,
                },
            )?;
            println!("updated; committed epoch {}", resp.epoch);
            Ok(())
        }
        "shed-probe" => cmd_shed_probe(&addr, pins, retries),
        "promote" => {
            // Catch-up-then-promote: wait until the replica's applied
            // epoch stops advancing (three identical consecutive polls,
            // bounded), then promote. A replica that is still draining
            // batches from a live primary keeps advancing; once the
            // primary is dead the epoch settles within a poll or two.
            let mut c = connect()?;
            let mut last = exchange(&mut c, &Request::Ping)?.epoch;
            let mut stable = 0u32;
            for _ in 0..40 {
                if stable >= 3 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(250));
                let now = exchange(&mut c, &Request::Ping)?.epoch;
                if now == last {
                    stable += 1;
                } else {
                    stable = 0;
                    last = now;
                }
            }
            let resp = exchange(&mut c, &Request::ReplPromote)?;
            if !matches!(resp.body, ResponseBody::ReplPromoted) {
                return Err(format!("unexpected response: {:?}", resp.body).into());
            }
            println!("promoted to primary; fencing epoch {}", resp.epoch);
            Ok(())
        }
        "shutdown" => {
            let mut c = connect()?;
            let resp = exchange(&mut c, &Request::Shutdown)?;
            if matches!(resp.body, ResponseBody::ShuttingDown) {
                println!("server is draining and shutting down");
                Ok(())
            } else {
                Err(format!("unexpected response: {:?}", resp.body).into())
            }
        }
        other => Err(CliError::new(2, format!("unknown net verb {other}"))),
    }
}

/// The deterministic backpressure round trip: hold `pins` session pins,
/// demand one more, then read unpinned with a query and a dump (each
/// expecting a typed retry-after, the reads with `what = "read"`), then
/// release a pin and retry honoring the hints until admitted.
fn cmd_shed_probe(addr: &str, pins: usize, retries: u32) -> Result<(), CliError> {
    let mut holders: Vec<Client> = Vec::new();
    for i in 0..pins {
        let mut c = Client::connect(addr).map_err(|e| CliError::client(&e))?;
        match c
            .request(&Request::Begin)
            .map_err(|e| CliError::client(&e))?
            .body
        {
            ResponseBody::SessionPinned => holders.push(c),
            ResponseBody::RetryAfter { .. } => {
                // The budget is smaller than --pins; saturated already.
                eprintln!("pin budget saturated after {i} pins (smaller than --pins {pins})");
                break;
            }
            other => return Err(format!("pin {i}: unexpected response {other:?}").into()),
        }
    }
    if holders.is_empty() {
        return Err("could not hold a single pin; is the server idle?".into());
    }
    let mut probe = Client::connect(addr).map_err(|e| CliError::client(&e))?;
    let resp = probe
        .request(&Request::Begin)
        .map_err(|e| CliError::client(&e))?;
    let ResponseBody::RetryAfter { kind, millis, what } = &resp.body else {
        return Err(format!(
            "expected a shed response with {} pins held, got {:?} — \
             is the server's --max-pins larger than --pins?",
            holders.len(),
            resp.body
        )
        .into());
    };
    println!(
        "shed observed: {} pins held, next begin got retry-after {millis} ms ({kind:?}, {what})",
        holders.len()
    );
    // An unpinned read needs a pin of its own: it is shed the same way,
    // never evaluated without one.
    let query = Request::Query {
        xpath: "/*".to_string(),
        count_only: true,
    };
    for req in [query, Request::Dump] {
        let body = probe.request(&req).map_err(|e| CliError::client(&e))?.body;
        let read_shed = match &body {
            ResponseBody::RetryAfter { kind, what, .. } => {
                *kind == ShedKind::Overloaded && what == "read"
            }
            _ => false,
        };
        if !read_shed {
            return Err(
                format!("expected an overloaded read shed for {req:?}, got {body:?}").into(),
            );
        }
    }
    println!(
        "read shed observed: an unpinned query and dump each got retry-after (Overloaded, read)"
    );
    // Release one pin (disconnect releases the session) and honor the
    // advertised back-off: the probe must eventually be admitted.
    drop(holders.pop());
    let (resp, used) = probe
        .request_retry(&Request::Begin, retries.max(1))
        .map_err(|e| CliError::client(&e))?;
    if !matches!(resp.body, ResponseBody::SessionPinned) {
        return Err(format!("retry after release: unexpected response {:?}", resp.body).into());
    }
    println!(
        "retry honored: admitted at epoch {} after {used} retry-after response(s)",
        resp.epoch
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "partition" => cmd_partition(rest),
        "load" => cmd_load(rest),
        "query" => cmd_query(rest),
        "dump" => cmd_dump(rest),
        "stats" => cmd_stats(rest),
        "fsck" => cmd_fsck(rest),
        "bulkload" => cmd_bulkload(rest),
        "collection" => cmd_collection(rest),
        "soak" | "stress" => cmd_campaign(cmd, rest),
        "serve" => cmd_serve(rest),
        "net" => cmd_net(rest),
        "--help" | "-h" | "help" => return usage(),
        other => Err(CliError::new(2, format!("unknown command {other}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("natix: {}", e.msg);
            ExitCode::from(e.code.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: the store-error → exit-code mapping. Sheds
    /// (overloaded and read-only) exit 3, corruption 4, I/O 5, invalid
    /// updates stay generic failures.
    #[test]
    fn store_error_exit_codes() {
        let overloaded = StoreError::Overloaded {
            what: "read",
            inflight: 8,
            limit: 8,
        };
        assert_eq!(CliError::store(&overloaded).code, 3);
        let read_only = StoreError::ReadOnly {
            reason: "disk full",
        };
        assert_eq!(CliError::store(&read_only).code, 3);
        let corrupt = StoreError::Corrupt {
            what: "page checksum".into(),
            page: Some(3),
            class: None,
            record: None,
            expected: Some(1),
            found: Some(2),
        };
        assert_eq!(CliError::store(&corrupt).code, 4);
        let io = StoreError::Io {
            source: std::io::Error::other("disk on fire"),
            page: None,
            op: "read",
        };
        assert_eq!(CliError::store(&io).code, 5);
        assert_eq!(CliError::store(&StoreError::InvalidUpdate("no")).code, 1);
        assert_eq!(CliError::store(&StoreError::BadPage(9)).code, 4);
    }

    /// Client-side failures map the same way: exhausted retry-after
    /// patience is a shed (3), transport failure is I/O (5).
    #[test]
    fn client_error_exit_codes() {
        let shed = ClientError::StillOverloaded {
            attempts: 5,
            what: "read".to_string(),
        };
        assert_eq!(CliError::client(&shed).code, 3);
        let io = ClientError::Proto(ProtoError::Io(std::io::Error::other("reset")));
        assert_eq!(CliError::client(&io).code, 5);
        let proto = ClientError::Proto(ProtoError::Malformed("bad"));
        assert_eq!(CliError::client(&proto).code, 1);
        assert_eq!(
            CliError::response(natix_server::ErrKind::Corrupt, "x").code,
            4
        );
        assert_eq!(CliError::response(natix_server::ErrKind::Io, "x").code, 5);
        assert_eq!(
            CliError::response(natix_server::ErrKind::BadRequest, "x").code,
            1
        );
    }

    /// Plain-string errors (usage and similar) stay exit 1 so existing
    /// scripts keep their meaning.
    #[test]
    fn string_errors_stay_generic() {
        let e: CliError = "something broke".into();
        assert_eq!(e.code, 1);
        let e: CliError = String::from("still broke").into();
        assert_eq!(e.code, 1);
    }
}
