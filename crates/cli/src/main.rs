//! `natix` — command-line front end for the Natix sibling-partitioning
//! store.
//!
//! ```text
//! natix partition <file.xml> [--alg ekm|dhw|ghdw|km|rs|dfs|bfs|lukes] [--k N=256] [--stats]
//! natix load      <file.xml> <store.natix> [--alg ekm] [--k N=256] [--pool-pages N=8192]
//! natix query     <store.natix> <xpath> [--count] [--pool-pages N]
//! natix dump      <store.natix> [--degraded] [--pool-pages N]
//! natix stats     <store.natix> [--pool-pages N]
//! natix fsck      <store.natix> [--repair]
//! natix bulkload  <dir> [--input FILE]... | [--docs N=10000] [--seed N=42]
//!                 [--shards N=4] [--threads N=1] [--seg-docs N=256] [--budget N=8] [--k N] [--pool-pages N]
//! natix collection stats <dir> | dump <dir> <doc-id> | fsck <dir> [--repair]
//! natix soak      [--quick] [--seed N] [--corruption | --group-commit | --bulkload |
//!                 --diskfull | --serve | --repl]
//! natix soak --replay <script>
//! natix stress    [--quick] [--seed N] [--runs N] [--net [--proxy | --leak]]
//! natix serve     <store.natix> [--addr HOST:PORT=127.0.0.1:4547] [--workers N=8] [--max-pins N=64]
//!                 [--lease-ttl-ms N=30000] [--pool-pages N] [--replica-of HOST:PORT]
//! natix net       <addr> ping|query|dump|stats|fsck|update|shed-probe|promote|shutdown [...]
//! ```
//!
//! Every verb is one row of `VERBS` (a `net` or `collection` sub-verb
//! and each `net update` op are rows too): its words, its positionals,
//! and the flags it takes with their value kinds and defaults. `natix`
//! with no arguments prints the table, and one parser checks a command
//! line against it before the row runs.
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
//! 0 success, 1 generic failure, 2 usage error, 3 request shed by
//! backpressure (`StoreError::Overloaded`/`ReadOnly`), 4 corruption
//! detected, 5 I/O failure. Code 2 means any argument error — an unknown
//! command or option, a flag the verb does not take, a missing or
//! surplus positional, a missing, malformed or out-of-range value, or
//! options that contradict each other — and it is given before anything
//! is opened, created, bound or connected, with nothing on stdout.
//!
//! `natix bulkload` streams a document corpus into a sharded collection:
//! `--shards` independent store files under `<dir>` plus a catalog,
//! loaded by `--threads` parallel workers through the streaming
//! SAX-to-record pipeline (memory stays O(depth + sibling budget + K)
//! per in-flight document regardless of corpus size). The corpus is
//! either explicit `--input` files (each one document, in id order) or
//! `--docs N` synthetic small documents cycling the six Table 1
//! generators from `--seed`, never both. `natix collection` inspects the
//! result: `stats` prints a per-shard table, `dump` extracts one document
//! by id, and `fsck` scrubs every shard independently — damage in one
//! shard is localized and never blocks checking the others.
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
//! arguments prints the rows). The selector words are the row's own:
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
    query_lines, serve as serve_daemon, Client, ClientError, ProtoError, Request, Response,
    ResponseBody, ServeConfig, ServeError, ShedKind, Stats, UpdateOp,
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

    /// A usage error (exit 2).
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::new(2, msg)
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

impl From<ClientError> for CliError {
    fn from(e: ClientError) -> CliError {
        CliError::client(&e)
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

// ------------------------------------------------------------ the verbs

/// What a flag's value, or a positional, must be.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A flag that takes no value.
    Switch,
    /// An integer ≥ 0.
    Count,
    /// An integer ≥ 1.
    Positive,
    /// Any word.
    Text,
}

impl Kind {
    /// Why `value` is no value of this kind for `name`, if it is not.
    fn refuse(self, name: &str, value: &str) -> Option<String> {
        let (least, what) = match self {
            Kind::Count => (0, "non-negative"),
            Kind::Positive => (1, "positive"),
            Kind::Switch | Kind::Text => return None,
        };
        match value.parse::<u64>() {
            Ok(n) if n >= least => None,
            _ => Some(format!("{name} expects a {what} integer, not {value:?}")),
        }
    }
}

/// A flag (`--k`) or a positional (`<file.xml>`) of one verb.
struct Arg {
    name: &'static str,
    kind: Kind,
    /// The value of an absent flag; empty when absence means "not set".
    default: &'static str,
}

const fn flag(name: &'static str, kind: Kind, default: &'static str) -> Arg {
    Arg {
        name,
        kind,
        default,
    }
}

const fn text(name: &'static str) -> Arg {
    flag(name, Kind::Text, "")
}

const fn switch(name: &'static str) -> Arg {
    flag(name, Kind::Switch, "")
}

/// The function a row runs once its command line has been checked.
type Run = fn(&Args) -> Result<(), CliError>;

/// One row of [`VERBS`].
struct Verb {
    /// The words that select the row; a `<placeholder>` among them takes
    /// any word (`net <addr> ping`), and the words the placeholders take
    /// come first among the row's positionals.
    words: &'static str,
    /// The positionals after the words, in order, every one required.
    positionals: &'static [Arg],
    /// The flags the row takes, anywhere on the line.
    flags: &'static [Arg],
    run: Run,
    /// What the row does, in a line.
    synopsis: &'static str,
}

const fn verb(
    words: &'static str,
    positionals: &'static [Arg],
    flags: &'static [Arg],
    run: Run,
    synopsis: &'static str,
) -> Verb {
    Verb {
        words,
        positionals,
        flags,
        run,
        synopsis,
    }
}

const FILE: Arg = text("<file.xml>");
const STORE: Arg = text("<store.natix>");
const DIR: Arg = text("<dir>");
const XPATH: Arg = text("<xpath>");
const ALG: Arg = flag("--alg", Kind::Text, "ekm");
const K: Arg = flag("--k", Kind::Positive, "256");
const POOL: Arg = flag("--pool-pages", Kind::Positive, "8192");
const REPAIR: Arg = switch("--repair");
const RETRIES: Arg = flag("--retries", Kind::Count, "20");
/// `soak` and `stress`: the selector words come from `CAMPAIGNS`, and
/// `Campaign::plan` refuses a flag the selected row cannot honour.
const CAMPAIGN: [Arg; 3] = [
    switch("--quick"),
    flag("--seed", Kind::Count, ""),
    flag("--runs", Kind::Positive, ""),
];

/// Every verb: `main` runs the one row a command line names, once the
/// line has been checked against it, and `usage()` prints them all.
#[rustfmt::skip]
static VERBS: [Verb; 26] = [
    verb("partition", &[FILE], &[ALG, K, switch("--stats")], cmd_partition,
         "partition with ekm|dhw|ghdw|km|rs|dfs|bfs|lukes; --stats: the DP's counters (dhw, ghdw)"),
    verb("load", &[FILE, STORE], &[ALG, K, POOL], cmd_load, "partition, then bulkload a new store file"),
    verb("query", &[STORE, XPATH], &[switch("--count"), POOL], cmd_query, "print an XPath query's hits"),
    verb("dump", &[STORE], &[switch("--degraded"), POOL], cmd_dump, "print the document (or what survives)"),
    verb("stats", &[STORE], &[POOL], cmd_stats, "print the store's counters, one `name value` line each"),
    verb("fsck", &[STORE], &[REPAIR], cmd_fsck, "scrub a store (--repair: salvage and quarantine)"),
    verb("bulkload", &[DIR], &[text("--input"), flag("--docs", Kind::Count, "10000"),
         flag("--seed", Kind::Count, "42"), flag("--shards", Kind::Positive, "4"),
         flag("--threads", Kind::Positive, "1"), flag("--seg-docs", Kind::Positive, "256"),
         flag("--budget", Kind::Count, "8"), K, POOL], cmd_bulkload,
         "load a sharded collection from each --input file, or from --docs synthetic ones"),
    verb("collection stats", &[DIR], &[POOL], cmd_collection_stats, "print and check the shards"),
    verb("collection dump", &[DIR, flag("<doc-id>", Kind::Count, "")], &[POOL], cmd_collection_dump,
         "print one document"),
    verb("collection fsck", &[DIR], &[REPAIR], cmd_collection_fsck, "scrub every shard"),
    verb("soak", &[], &CAMPAIGN, cmd_campaign, "run one crash campaign"),
    verb("soak --replay", &[text("<script>")], &[], cmd_replay, "re-run a printed failure script"),
    verb("stress", &[], &CAMPAIGN, cmd_campaign, "run one concurrency or network campaign"),
    verb("serve", &[STORE], &[flag("--addr", Kind::Text, "127.0.0.1:4547"),
         flag("--workers", Kind::Positive, "8"), flag("--max-pins", Kind::Positive, "64"),
         flag("--lease-ttl-ms", Kind::Count, "30000"), POOL, text("--replica-of")], cmd_serve,
         "serve a store until a wire shutdown (--replica-of: as that primary's hot standby)"),
    verb("net <addr> ping", &[], &[RETRIES], net_ping, "print the committed epoch"),
    verb("net <addr> query", &[XPATH], &[switch("--count"), RETRIES], net_query, "print a query's hits"),
    verb("net <addr> dump", &[], &[RETRIES], net_dump, "print the served document"),
    verb("net <addr> stats", &[], &[], net_stats, "print the daemon's counters"),
    verb("net <addr> fsck", &[], &[RETRIES], net_fsck, "scrub the served store"),
    verb("net <addr> update <xpath> append-element", &[text("<name>")], &[RETRIES],
         |a| net_update(a, UpdateOp::AppendElement { name: a.pos[2].clone() }), "append an element"),
    verb("net <addr> update <xpath> append-text", &[text("<text>")], &[RETRIES],
         |a| net_update(a, UpdateOp::AppendText { text: a.pos[2].clone() }), "append a text node"),
    verb("net <addr> update <xpath> insert-before", &[text("<name>")], &[RETRIES],
         |a| net_update(a, UpdateOp::InsertBefore { name: a.pos[2].clone() }), "insert an element"),
    verb("net <addr> update <xpath> delete", &[], &[RETRIES],
         |a| net_update(a, UpdateOp::DeleteSubtree), "delete the first hit's subtree"),
    verb("net <addr> shed-probe", &[], &[flag("--pins", Kind::Positive, "4"), RETRIES], net_shed_probe,
         "hold --pins pins, see the next begin and unpinned reads shed, then get admitted"),
    verb("net <addr> promote", &[], &[RETRIES], net_promote, "let a replica catch up, then promote it"),
    verb("net <addr> shutdown", &[], &[RETRIES], net_shutdown, "drain the daemon and stop it"),
];

/// A command line checked against its row.
struct Args {
    verb: &'static Verb,
    /// The words that filled the row's `<placeholders>`, then the
    /// positionals.
    pos: Vec<String>,
    /// The flags given, in order, each with its value (a switch's is its
    /// own name).
    given: Vec<(&'static Arg, String)>,
    /// The campaign selector words given (`--net`), each once.
    selectors: Vec<String>,
}

impl Args {
    fn given(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// Every value given for `name`, in order (`bulkload --input`).
    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let given = self.given.iter().filter(move |(f, _)| f.name == name);
        given.map(|(_, v)| v.as_str())
    }

    /// The last value given for `name`, else its default, if it has one.
    fn value(&self, name: &str) -> Option<&str> {
        let last = self.given.iter().rev().find(|(f, _)| f.name == name);
        let default = self.verb.flags.iter().find(|f| f.name == name);
        let default = default.map(|f| f.default).filter(|d| !d.is_empty());
        last.map(|(_, v)| v.as_str()).or(default)
    }

    /// A numeric flag as `T`, or `None` when it is neither given nor
    /// defaulted; a value too large for `T` is a usage error.
    fn opt<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>, CliError> {
        let Some(value) = self.value(name) else {
            return Ok(None);
        };
        let n: u64 = value.parse().expect("the parser checked every number");
        let out_of_range = |_| CliError::usage(format!("{name} {value} is out of range"));
        T::try_from(n).map(Some).map_err(out_of_range)
    }

    /// A numeric flag with a default, as `T`.
    fn num<T: TryFrom<u64>>(&self, name: &str) -> Result<T, CliError> {
        Ok(self.opt(name)?.expect("num() reads a flag with a default"))
    }
}

impl Verb {
    /// The usage line: `natix collection dump <dir> <doc-id> [--pool-pages N=8192]`.
    fn line(&self) -> String {
        let mut line = format!("natix {}", self.words);
        for p in self.positionals {
            line += &format!(" {}", p.name);
        }
        for f in self.flags {
            let meta = match f.kind {
                Kind::Switch => "",
                Kind::Text => " TEXT",
                Kind::Count | Kind::Positive => " N",
            };
            let eq = if f.default.is_empty() { "" } else { "=" };
            line += &format!(" [{}{meta}{eq}{}]", f.name, f.default);
        }
        line
    }

    /// `args` checked against this row, or `None` when its words are not
    /// the leading words of `args`. A word that starts with `--` is a flag
    /// unless it is one of the row's words (`soak --replay`) or a selector
    /// word `CAMPAIGNS` gives the row; a flag that takes a value takes the
    /// next argument.
    fn read(&'static self, args: &[String]) -> Option<Result<Args, String>> {
        let words: Vec<&str> = self.words.split(' ').collect();
        let (mut pos, mut given, mut selectors) = (Vec::new(), Vec::new(), Vec::new());
        let mut refused = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") || words.contains(&a.as_str()) {
                pos.push(a.clone());
            } else if natix_testkit::is_selector(self.words, a) {
                selectors.retain(|s| s != a);
                selectors.push(a.clone());
            } else if let Some(f) = self.flags.iter().find(|f| f.name == a.as_str()) {
                match (f.kind == Kind::Switch).then_some(a).or_else(|| it.next()) {
                    Some(value) => given.push((f, value.clone())),
                    None => refused = refused.or(Some(format!("missing value for {a}"))),
                }
            } else {
                refused = refused.or(Some(format!("unknown option {a}")));
            }
        }
        // The row's words lead; the words its placeholders take stay.
        let mut at = 0;
        for w in &words {
            match pos.get(at)? {
                _ if w.starts_with('<') => at += 1,
                a if a == w => drop(pos.remove(at)),
                _ => return None,
            }
        }
        let (rest, usage) = (&pos[at..], self.line());
        if let Some(extra) = rest.get(self.positionals.len()) {
            refused = refused.or(Some(format!("unknown option {extra}; usage: {usage}")));
        }
        if let Some(missing) = self.positionals.get(rest.len()) {
            refused = refused.or(Some(format!("missing {}; usage: {usage}", missing.name)));
        }
        let flags = given.iter().map(|(f, v)| (*f, v));
        let mut values = self.positionals.iter().zip(rest).chain(flags);
        refused = refused.or_else(|| values.find_map(|(arg, v)| arg.kind.refuse(arg.name, v)));
        let line = Args {
            verb: self,
            pos,
            given,
            selectors,
        };
        Some(refused.map_or(Ok(line), Err))
    }
}

/// The row `args` names, with the line checked against it; any argument
/// error is a usage error (exit 2). Where several rows match, the one
/// with the most words wins (`soak --replay` over `soak`).
fn parse(args: &[String]) -> Result<Args, CliError> {
    VERBS
        .iter()
        .filter_map(|verb| Some((verb.words.split(' ').count(), verb.read(args)?)))
        .max_by_key(|(words, _)| *words)
        .map_or_else(
            || Err(format!("unknown command: natix {}", args.join(" "))),
            |(_, read)| read,
        )
        .map_err(CliError::usage)
}

/// The help: every row of `VERBS` with its flags and defaults, then the
/// campaign rows.
fn usage() -> String {
    let mut text = String::from("usage:\n");
    for verb in &VERBS {
        text += &format!("  {}\n      {}\n", verb.line(), verb.synopsis);
    }
    text += "(--pool-pages counts 8 KB pages)\ncampaigns, one per soak/stress selector \
             (--quick: the CI smoke tier; --runs: chaos only):\n";
    for row in &natix_testkit::CAMPAIGNS {
        text += &format!("  natix {:<26} {}\n", row.command, row.contract);
    }
    text
}

// -------------------------------------------------------- local verbs

/// The `--alg` of a line.
fn algorithm(a: &Args) -> Result<Box<dyn Partitioner>, CliError> {
    let name = a.value("--alg").unwrap_or_default();
    Ok(match name.to_ascii_lowercase().as_str() {
        "ekm" => Box::new(Ekm),
        "dhw" => Box::new(Dhw),
        "ghdw" => Box::new(Ghdw),
        "km" => Box::new(Km),
        "rs" => Box::new(Rs),
        "dfs" => Box::new(Dfs),
        "bfs" => Box::new(Bfs),
        "lukes" => Box::new(Lukes),
        _ => return Err(CliError::usage(format!("unknown algorithm {name}"))),
    })
}

/// A `*_with_statistics` entry point of `natix_core`.
type StatsFn = fn(&Tree, Weight) -> Result<(Partitioning, DpStats), PartitionError>;

/// The store settings of a line: its `--pool-pages`, and its `--k` where
/// the verb takes one.
fn store_config(a: &Args) -> Result<StoreConfig, CliError> {
    Ok(StoreConfig {
        buffer_pages: a.num("--pool-pages")?,
        record_limit_slots: a
            .opt("--k")?
            .unwrap_or(StoreConfig::default().record_limit_slots),
    })
}

fn read_xml_file(path: &str) -> Result<natix_xml::Document, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    natix_xml::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn open_store(path: &str, config: StoreConfig) -> Result<XmlStore, CliError> {
    let pager = FilePager::open(Path::new(path)).map_err(|e| CliError::store_at(path, &e))?;
    XmlStore::open(Box::new(pager), config).map_err(|e| CliError::store_at(path, &e))
}

fn cmd_partition(a: &Args) -> Result<(), CliError> {
    let (alg, k) = (algorithm(a)?, a.num("--k")?);
    let not_dp = |name| CliError::usage(format!("--stats supports dhw/ghdw, not {name}"));
    let counting: Option<StatsFn> = match (a.given("--stats"), alg.name()) {
        (false, _) => None,
        (true, "DHW") => Some(dhw_with_statistics),
        (true, "GHDW") => Some(ghdw_with_statistics),
        (true, other) => return Err(not_dp(other)),
    };
    let doc = read_xml_file(&a.pos[0])?;
    let tree = doc.tree();
    let (p, dp_stats) = match counting {
        Some(run) => run(tree, k).map(|(p, dp_stats)| (p, Some(dp_stats))),
        None => alg.partition(tree, k).map(|p| (p, None)),
    }
    .map_err(|e| e.to_string())?;
    let stats = validate(tree, k, &p).map_err(|e| e.to_string())?;
    println!(
        "document   : {} nodes, {} slots",
        tree.len(),
        tree.total_weight()
    );
    println!("algorithm  : {} (K = {k})", alg.name());
    println!("partitions : {}", stats.cardinality);
    println!("root weight: {}", stats.root_weight);
    println!("max weight : {}", stats.max_partition_weight);
    println!(
        "lower bound: {} (total weight / K)",
        tree.total_weight().div_ceil(k)
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

fn cmd_load(a: &Args) -> Result<(), CliError> {
    let (alg, config) = (algorithm(a)?, store_config(a)?);
    let out = &a.pos[1];
    let doc = read_xml_file(&a.pos[0])?;
    // Partition first: an infeasible K fails as `natix partition` does,
    // before the output file exists.
    let partitioning = alg
        .partition(doc.tree(), config.record_limit_slots)
        .map_err(|e| e.to_string())?;
    let pager = FilePager::create(Path::new(out)).map_err(|e| CliError::store_at(out, &e))?;
    let store = XmlStore::bulkload(&doc, &partitioning, Box::new(pager), config)
        .map_err(|e| e.to_string())?;
    println!(
        "loaded {} nodes into {} records on {} pages ({} KB) using {}",
        doc.len(),
        store.record_count(),
        store.page_count(),
        store.occupied_bytes() / 1024,
        alg.name()
    );
    Ok(())
}

fn cmd_query(a: &Args) -> Result<(), CliError> {
    let (count_only, config) = (a.given("--count"), store_config(a)?);
    let path = natix_xpath::parse(&a.pos[1]).map_err(|e| e.to_string())?;
    let mut store = open_store(&a.pos[0], config)?;
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

fn cmd_dump(a: &Args) -> Result<(), CliError> {
    let (store_path, config) = (&a.pos[0], store_config(a)?);
    if a.given("--degraded") {
        let mut store = XmlStore::open_read_only(&PathBuf::from(store_path), config)
            .map_err(|e| CliError::store_at(store_path, &e))?;
        let (doc, damage) = store
            .to_document_degraded()
            .map_err(|e| CliError::store(&e))?;
        println!("{}", doc.to_xml());
        eprintln!("{damage}");
        return Ok(());
    }
    let mut store = open_store(store_path, config)?;
    let doc = store.to_document().map_err(|e| CliError::store(&e))?;
    println!("{}", doc.to_xml());
    Ok(())
}

/// `natix fsck`: scrub a store file; with `--repair`, salvage the
/// records that still verify and quarantine the rest. Exit 0 when the
/// store is clean (or the repair succeeded); the report goes to stdout.
fn cmd_fsck(a: &Args) -> Result<(), CliError> {
    let (store_path, repair) = (&a.pos[0], a.given("--repair"));
    let pages = PathBuf::from(store_path);
    // A file that does not open is an I/O failure, not a damaged store.
    pages
        .open_pager()
        .map_err(|e| CliError::store_at(store_path, &e))?;
    let report = fsck(&pages, repair);
    print!("{report}");
    if report.clean() || report.repaired {
        return Ok(());
    }
    let failed = if repair { "; repair failed" } else { "" };
    let msg = format!("{store_path}: {} error(s) found{failed}", report.errors());
    Err(CliError::new(4, msg))
}

fn cmd_stats(a: &Args) -> Result<(), CliError> {
    let mut store = open_store(&a.pos[0], store_config(a)?)?;
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
fn cmd_bulkload(a: &Args) -> Result<(), CliError> {
    let inputs: Vec<&str> = a.all("--input").collect();
    if !inputs.is_empty() && (a.given("--docs") || a.given("--seed")) {
        return Err(CliError::usage(
            "--docs and --seed make a synthetic corpus; with --input the corpus is the files",
        ));
    }
    let (dir, config) = (Path::new(&a.pos[0]), store_config(a)?);
    let opts = BulkloadOptions {
        shards: a.num("--shards")?,
        threads: a.num("--threads")?,
        seg_docs: a.num("--seg-docs")?,
        sibling_budget: a.num("--budget")?,
    };
    let synthetic = natix_datagen::small_docs(a.num("--docs")?, a.num("--seed")?);
    let start = std::time::Instant::now();
    let report = if inputs.is_empty() {
        bulkload_collection(dir, synthetic, config, opts)
    } else {
        let read = |path: &&str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
        let texts = inputs.iter().map(read).collect::<Result<Vec<_>, _>>()?;
        bulkload_collection(dir, texts, config, opts)
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

fn open_collection(a: &Args) -> Result<Collection, CliError> {
    let dir = &a.pos[0];
    Ok(Collection::open(Path::new(dir), store_config(a)?).map_err(|e| format!("{dir}: {e}"))?)
}

/// `natix collection stats`: the per-shard table, then the consistency
/// check of every shard.
fn cmd_collection_stats(a: &Args) -> Result<(), CliError> {
    let mut coll = open_collection(a)?;
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

fn cmd_collection_dump(a: &Args) -> Result<(), CliError> {
    let doc_id: u64 = a.pos[1].parse().expect("the parser checked <doc-id>");
    let mut coll = open_collection(a)?;
    let doc = coll.get_document(doc_id).map_err(|e| e.to_string())?;
    println!("{}", doc.to_xml());
    Ok(())
}

/// `natix collection fsck`: scrub every shard independently.
fn cmd_collection_fsck(a: &Args) -> Result<(), CliError> {
    let reports =
        fsck_collection(Path::new(&a.pos[0]), a.given("--repair")).map_err(|e| e.to_string())?;
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
        return Ok(());
    }
    let msg = format!("{dirty}/{} shard(s) damaged", reports.len());
    Err(CliError::new(4, msg + "; healthy shards unaffected"))
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
/// `natix_testkit::CAMPAIGNS`. The selector words pick the row, the row
/// refuses the flags it cannot honour (usage errors, exit 2), progress
/// goes to stderr, the summary to stdout; a non-zero exit means at least
/// one failure was printed, with the banner naming the seeds and the
/// command to rerun.
fn cmd_campaign(a: &Args) -> Result<(), CliError> {
    let verb = a.verb.words;
    let selectors: Vec<&str> = a.selectors.iter().map(String::as_str).collect();
    let row = natix_testkit::select(verb, &selectors).map_err(CliError::usage)?;
    let quick = a.given("--quick");
    let tier = if quick { Tier::Quick } else { Tier::Full };
    let (seed, runs) = (a.opt("--seed")?, a.opt("--runs")?);
    let server_bin = row
        .server_bin
        .then(std::env::current_exe)
        .transpose()
        .map_err(|e| CliError::new(5, format!("cannot locate the natix binary: {e}")))?;
    let plan = row
        .plan(tier, seed, runs, server_bin)
        .map_err(CliError::usage)?;
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

/// `natix soak --replay`: run the sweep of a shrunk failure script.
fn cmd_replay(a: &Args) -> Result<(), CliError> {
    let path = &a.pos[0];
    let script = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut banner = ReplayBanner::new("soak", format!("natix soak --replay {path}"), vec![]);
    let (row, report) = natix_testkit::replay(&script)?;
    banner.disarm();
    println!("replay ({row}): {}", report.summary());
    Ok(())
}

// ------------------------------------------------ the daemon and client

/// `natix serve`: run the network daemon until a wire `shutdown` request
/// drains it. The `listening on HOST:PORT` banner line on stdout is the
/// machine-readable readiness signal (the serve soak parses it).
fn cmd_serve(a: &Args) -> Result<(), CliError> {
    let store = &a.pos[0];
    let config = ServeConfig {
        store: PathBuf::from(store),
        addr: a.value("--addr").unwrap_or_default().to_string(),
        workers: a.num("--workers")?,
        max_pins: a.num("--max-pins")?,
        // 0 disables the lease reaper: pins live until disconnect.
        lease_ttl_ms: a.num("--lease-ttl-ms")?,
        pool_pages: Some(a.num("--pool-pages")?),
        replica_of: a.value("--replica-of").map(str::to_string),
    };
    // The reaper ticks at max(ttl/4, 10ms): a TTL under 40 ms is below
    // the tick granularity and would expire pins erratically. Reject it
    // as a usage error (0 still means "reaper disabled").
    if config.lease_ttl_ms > 0 && config.lease_ttl_ms < 40 {
        return Err(CliError::usage(
            "--lease-ttl-ms must be 0 (disabled) or at least 40 (the lease \
             reaper tick granularity)",
        ));
    }
    let handle = serve_daemon(config.clone()).map_err(|e| match e {
        ServeError::Bind(io) => CliError::new(5, format!("bind {}: {io}", config.addr)),
        ServeError::Store(se) => CliError::store_at(store, &se),
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

/// A `natix net` verb's connection to the daemon at `<addr>`.
fn connect(a: &Args) -> Result<Client, CliError> {
    Ok(Client::connect(a.pos[0].as_str())?)
}

/// One well-typed exchange: shed responses are retried up to `retries`
/// times honoring the server's back-off hints (exhausted patience exits
/// with the shed code, 3), and a typed error response maps onto the
/// structured exit codes.
fn exchange(c: &mut Client, req: &Request, retries: u32) -> Result<Response, CliError> {
    let (resp, shed_retries) = c.request_retry(req, retries)?;
    if shed_retries > 0 {
        eprintln!("(admitted after {shed_retries} retry-after responses)");
    }
    if let ResponseBody::Error { kind, message } = &resp.body {
        return Err(CliError::response(*kind, message));
    }
    Ok(resp)
}

/// `natix net <addr> VERB`: one request on a fresh connection.
fn net_request(a: &Args, req: Request) -> Result<Response, CliError> {
    let retries = a.num("--retries")?;
    exchange(&mut connect(a)?, &req, retries)
}

fn unexpected(body: &ResponseBody) -> CliError {
    format!("unexpected response: {body:?}").into()
}

fn net_ping(a: &Args) -> Result<(), CliError> {
    let resp = net_request(a, Request::Ping)?;
    println!("pong (committed epoch {})", resp.epoch);
    Ok(())
}

fn net_query(a: &Args) -> Result<(), CliError> {
    let count_only = a.given("--count");
    let xpath = a.pos[1].clone();
    let resp = net_request(a, Request::Query { xpath, count_only })?;
    let ResponseBody::QueryResult { count, lines } = resp.body else {
        return Err(unexpected(&resp.body));
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

fn net_dump(a: &Args) -> Result<(), CliError> {
    let resp = net_request(a, Request::Dump)?;
    let ResponseBody::DumpResult { xml } = resp.body else {
        return Err(unexpected(&resp.body));
    };
    println!("{xml}");
    Ok(())
}

fn net_stats(a: &Args) -> Result<(), CliError> {
    print!("{}", connect(a)?.stats()?);
    Ok(())
}

fn net_fsck(a: &Args) -> Result<(), CliError> {
    let resp = net_request(a, Request::Fsck)?;
    let ResponseBody::FsckResult { clean, report } = resp.body else {
        return Err(unexpected(&resp.body));
    };
    print!("{report}");
    if !clean {
        return Err(CliError::new(4, "served store is damaged (report above)"));
    }
    Ok(())
}

fn net_update(a: &Args, op: UpdateOp) -> Result<(), CliError> {
    let target = a.pos[1].clone();
    let resp = net_request(a, Request::Update { target, op })?;
    println!("updated; committed epoch {}", resp.epoch);
    Ok(())
}

/// Catch-up-then-promote: wait until the replica's applied epoch stops
/// advancing (three identical consecutive polls, bounded), then promote.
/// A replica that is still draining batches from a live primary keeps
/// advancing; once the primary is dead the epoch settles within a poll
/// or two.
fn net_promote(a: &Args) -> Result<(), CliError> {
    let retries = a.num("--retries")?;
    let mut c = connect(a)?;
    let mut last = exchange(&mut c, &Request::Ping, retries)?.epoch;
    let mut stable = 0u32;
    for _ in 0..40 {
        if stable >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(250));
        let now = exchange(&mut c, &Request::Ping, retries)?.epoch;
        if now == last {
            stable += 1;
        } else {
            stable = 0;
            last = now;
        }
    }
    let resp = exchange(&mut c, &Request::ReplPromote, retries)?;
    if !matches!(resp.body, ResponseBody::ReplPromoted) {
        return Err(unexpected(&resp.body));
    }
    println!("promoted to primary; fencing epoch {}", resp.epoch);
    Ok(())
}

fn net_shutdown(a: &Args) -> Result<(), CliError> {
    let resp = net_request(a, Request::Shutdown)?;
    if !matches!(resp.body, ResponseBody::ShuttingDown) {
        return Err(unexpected(&resp.body));
    }
    println!("server is draining and shutting down");
    Ok(())
}

/// The deterministic backpressure round trip: hold `--pins` session pins,
/// demand one more, then read unpinned with a query and a dump (each
/// expecting a typed retry-after, the reads with `what = "read"`), then
/// release a pin and retry honoring the hints until admitted.
fn net_shed_probe(a: &Args) -> Result<(), CliError> {
    let (pins, retries): (usize, u32) = (a.num("--pins")?, a.num("--retries")?);
    let mut holders: Vec<Client> = Vec::new();
    for i in 0..pins {
        let mut c = connect(a)?;
        match c.request(&Request::Begin)?.body {
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
    let mut probe = connect(a)?;
    let resp = probe.request(&Request::Begin)?;
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
        let body = probe.request(&req)?.body;
        let read_shed = matches!(&body,
            ResponseBody::RetryAfter { kind: ShedKind::Overloaded, what, .. } if what == "read");
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
    let (resp, used) = probe.request_retry(&Request::Begin, retries.max(1))?;
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
    if let None | Some("--help" | "-h" | "help") = args.first().map(String::as_str) {
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    match parse(&args).and_then(|a| (a.verb.run)(&a)) {
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

    fn line(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    /// Every row is found by its own words and no other, declares each
    /// flag once, and `usage()` prints its synopsis, flags and defaults:
    /// the help cannot drift from what runs.
    #[test]
    fn every_row_is_found_by_its_own_words_and_usage_prints_it() {
        let usage = usage();
        for row in &VERBS {
            // Its words (a placeholder filled), then a valid value for
            // every positional.
            let mut args: Vec<&str> = row
                .words
                .split(' ')
                .map(|w| if w.starts_with('<') { "x" } else { w })
                .collect();
            args.extend(row.positionals.iter().map(|_| "1"));
            let found = parse(&line(&args)).unwrap_or_else(|e| panic!("{}: {}", row.words, e.msg));
            assert!(
                std::ptr::eq(found.verb, row),
                "{} found {}",
                row.words,
                found.verb.words
            );
            assert_eq!(VERBS.iter().filter(|v| v.words == row.words).count(), 1);

            for (i, f) in row.flags.iter().enumerate() {
                assert!(
                    !row.flags[..i].iter().any(|g| g.name == f.name),
                    "{} declares {} twice",
                    row.words,
                    f.name
                );
                assert!(
                    f.name.starts_with("--") && !f.name.contains(' '),
                    "{}",
                    f.name
                );
                // A declared default is a value of the flag's kind.
                assert!(
                    f.default.is_empty() || f.kind.refuse(f.name, f.default).is_none(),
                    "{}",
                    f.name
                );
            }
            let shown = usage
                .lines()
                .find(|l| l.trim() == row.line())
                .unwrap_or_else(|| panic!("usage lacks {}", row.words));
            assert!(usage.contains(row.synopsis), "{}", row.words);
            for arg in row.positionals.iter().chain(row.flags) {
                assert!(
                    shown.contains(arg.name) && shown.contains(arg.default),
                    "{shown}"
                );
            }
        }
        // A placeholder takes any word; a literal word only itself.
        assert!(parse(&line(&["net", "x", "frobnicate"])).is_err());
        assert!(parse(&line(&["collection", "frob", "x"])).is_err());
        assert_eq!(
            parse(&line(&["soak", "--replay", "s"])).unwrap().verb.words,
            "soak --replay"
        );
    }

    /// The declared defaults are the library's: a flag left out runs as
    /// it ran before the table declared it.
    #[test]
    fn declared_defaults_are_the_library_defaults() {
        let default = |words: &str, name: &str| -> u64 {
            let row = VERBS.iter().find(|v| v.words == words).unwrap();
            row.flags
                .iter()
                .find(|f| f.name == name)
                .unwrap()
                .default
                .parse()
                .unwrap()
        };
        let (store, serve, bulk) = (
            StoreConfig::default(),
            ServeConfig::default(),
            BulkloadOptions::default(),
        );
        for words in [
            "load",
            "query",
            "dump",
            "stats",
            "bulkload",
            "collection stats",
            "collection dump",
            "serve",
        ] {
            assert_eq!(
                default(words, "--pool-pages"),
                store.buffer_pages as u64,
                "{words}"
            );
        }
        for words in ["partition", "load", "bulkload"] {
            assert_eq!(default(words, "--k"), store.record_limit_slots, "{words}");
        }
        assert_eq!(default("serve", "--workers"), serve.workers as u64);
        assert_eq!(default("serve", "--max-pins"), u64::from(serve.max_pins));
        assert_eq!(default("serve", "--lease-ttl-ms"), serve.lease_ttl_ms);
        assert_eq!(default("bulkload", "--shards"), u64::from(bulk.shards));
        assert_eq!(default("bulkload", "--threads"), bulk.threads as u64);
        assert_eq!(default("bulkload", "--seg-docs"), bulk.seg_docs as u64);
        assert_eq!(default("bulkload", "--budget"), bulk.sibling_budget as u64);
    }

    /// A checked line reads every `--input` in order, the last of a
    /// repeated scalar, a default when a flag is absent, and each
    /// selector word once.
    #[test]
    fn a_checked_line_reads_repeats_defaults_and_selectors() {
        let a = parse(&line(&[
            "bulkload", "d", "--input", "a", "--shards", "2", "--input", "b", "--shards", "3",
        ]))
        .unwrap();
        assert_eq!(a.all("--input").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(a.num::<u32>("--shards").unwrap(), 3);
        assert_eq!(a.num::<usize>("--threads").unwrap(), 1);
        assert!(!a.given("--docs"));
        let a = parse(&line(&["stress", "--net", "--quick", "--net"])).unwrap();
        assert_eq!(a.selectors, ["--net"]);
        assert_eq!(a.opt::<u64>("--seed").unwrap(), None);
        assert!(a.given("--quick"));
    }
}
