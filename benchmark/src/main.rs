//! The repo benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--repeat <n>]
//! ```
//!
//! An untraced run prints every end-to-end metric, a traced run every
//! per-layer metric; both check their outputs and end with one JSON
//! result line. See `README.md` for the glossary and `BENCHMARK.json`
//! for the contract the driver checks.

mod env;
mod fixtures;
mod probes;
mod report;
mod stats;
mod tpager;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use env::{Environment, WorkDir};
use report::{Ledger, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::{Config, Phase, Workload};

/// Measured seconds when `--seconds` is absent (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 24.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: natix-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--repeat <n>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--quick" => args.quick = true,
            // `--trace 1`, `--trace 0`, or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) || args.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".to_string());
    }
    if args.quick {
        // A twentieth of the measured phase, like every other size.
        args.seconds /= 20.0;
    }
    Ok(args)
}

/// The outcome of one run, ready to print.
struct Outcome {
    ledger: Ledger,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Outcome {
    fn new(defs: &'static [report::MetricDef]) -> Outcome {
        Outcome {
            ledger: Ledger::new(defs),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Count a measured phase's ops and failed ops.
    fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.failures.extend(phase.failures.iter().cloned());
    }

    /// Count failed checks outside the measured ops (closing checks,
    /// probes): each is one more failed op.
    fn check(&mut self, failures: Vec<String>) {
        self.failed += failures.len() as u64;
        self.failures.extend(failures);
    }
}

/// The report lines that say what a run did: its sizes and the hash of
/// the request sequence its seed generates.
fn intro<W: Workload>(w: &W, seed: u64) -> [String; 2] {
    [
        w.describe(),
        format!("sequence_hash: {:016x} (seed {seed})", w.sequence_hash()),
    ]
}

fn setup_once<W: Workload>(args: &Args, work: &WorkDir, rep: usize) -> Result<(W, f64), String> {
    let dir = work.join(&format!("setup-{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = Config {
        seed: args.seed,
        quick: args.quick,
        work: dir,
    };
    let start = Instant::now();
    let w = W::setup(&cfg)?;
    Ok((w, start.elapsed().as_secs_f64()))
}

/// The untraced run: end-to-end metrics only.
fn run_end_to_end<W: Workload>(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::new(END_TO_END);
    // Set up several times and report the median: one set-up is a few
    // seconds of page-cache- and allocator-sensitive work, and a single
    // sample of it does not repeat. The last one is measured.
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut workload = None;
    for rep in 0..repeats {
        if let Some(previous) = workload.take() {
            out.check(W::teardown(previous).failures);
        }
        let (w, secs) = setup_once::<W>(args, work, rep)?;
        setups.push(secs);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    out.notes.extend(intro(&w, args.seed));

    let phase = w.measure(Duration::from_secs_f64(args.seconds), false);
    let peak_rss = env::peak_rss_bytes();
    out.absorb(&phase);
    let exact = w.exact();
    out.check(w.teardown().failures);

    let (p50s, p90s) = (phase.round_percentiles(50.0), phase.round_percentiles(90.0));
    out.notes.push(format!(
        "measured phase: {:.2} s, {} rounds, {} latency samples, set-ups {:?} s",
        phase.wall_s,
        phase.round_rates.len(),
        phase.latencies().len(),
        setups
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    ));
    let rounded = |v: &[f64]| v.iter().map(|x| x.round()).collect::<Vec<_>>();
    out.notes
        .push(format!("round rates: {:?}", rounded(&phase.round_rates)));
    out.notes
        .push(format!("round p50s: {:?} us", rounded(&p50s)));
    out.notes
        .push(format!("round p90s: {:?} us", rounded(&p90s)));
    out.ledger.set_all(&[
        ("setup_s", stats::median(&setups)),
        ("ops_per_s", phase.best_rate()),
        ("op_p50_us", phase.best_percentile(50.0)),
        ("op_p90_us", phase.best_percentile(90.0)),
        ("peak_rss_bytes", peak_rss as f64),
        ("paper_cost", exact.paper_cost),
        ("space_amp", exact.space_amp),
    ]);
    Ok(out)
}

/// The traced run: rounds alternate between traced and untraced (their
/// throughput difference is the tracing overhead), then the layer
/// probes run. Reports per-layer metrics only.
fn run_traced<W: Workload>(args: &Args, work: &WorkDir, name: &str) -> Result<Outcome, String> {
    let mut out = Outcome::new(PER_LAYER);
    let (mut w, _) = setup_once::<W>(args, work, 0)?;
    out.notes.extend(intro(&w, args.seed));
    let usage_before = env::usage();
    let traced = w.measure(Duration::from_secs_f64(args.seconds), true);
    let usage = env::usage().since(&usage_before);
    out.absorb(&traced);
    let teardown = w.teardown();
    out.check(teardown.failures);

    let lat = traced.latencies();
    // Odd rounds ran traced, even rounds untraced: interleaved, so
    // drift over the run cancels out of their ratio.
    let rates_where = |on: bool| -> Vec<f64> {
        traced
            .round_rates
            .iter()
            .zip(&traced.round_traced)
            .filter(|(_, t)| **t == on)
            .map(|(r, _)| *r)
            .collect()
    };
    let (rate_plain, rate_traced) = (
        stats::median(&rates_where(false)),
        stats::median(&rates_where(true)),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spans: Vec<_> = traced.threads.iter().flatten().cloned().collect();
    let l = &mut out.ledger;
    l.set_all(&[
        ("client.p99_us", stats::percentile(&lat, 99.0)),
        ("client.latency_samples", lat.len() as f64),
        ("trace.overhead_share", 1.0 - rate_traced / rate_plain),
        ("process.cpu_user_s", usage.user_s),
        ("process.cpu_sys_s", usage.sys_s),
        (
            "process.cpu_util",
            (usage.user_s + usage.sys_s) / (traced.wall_s * cores as f64),
        ),
        (
            "process.ctx_switches_involuntary",
            usage.involuntary_switches as f64,
        ),
        ("unattributed_share", trace::unattributed_share(&spans)),
    ]);
    l.set_all(&traced.rows);
    l.set_all(&teardown.rows);

    // The layer probes: the same suite in every traced run, so a layer
    // a workload bypasses still has its row.
    let probe_dir = work.join("probes");
    std::fs::create_dir_all(&probe_dir).map_err(|e| format!("create probe dir: {e}"))?;
    let probed = probes::run_all(l, &probe_dir, args.quick)?;
    let op_p50 = traced.best_percentile(50.0);
    probes::derive(l, name, &traced, rate_traced, op_p50, &probed);
    out.check(probed.failures().to_vec());
    out.ledger.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if name == "serve-read" {
        // ROADMAP item 1's diagnosis has two halves: what opening a
        // snapshot copies, and the cold pool every snapshot starts with.
        let get = |row: &str| out.ledger.get(row);
        let store_us = get("store.concurrent.request_us") / workloads::serve_read::QUERIES as f64;
        let miss_us = get("store.pager.reads_per_op")
            * (get("store.pager.read_us") + get("store.checksum.verify_ns_per_page") / 1e3);
        out.notes.push(format!(
            "snapshot open is {:.1}% of the served op_p50_us ({:.1} us of {op_p50:.1} us); \
             the cold pool's {:.0} backend reads per request, each verified, are {:.0}% of the \
             {store_us:.0} us the store spends on a request",
            get("store.concurrent.snapshot_open_share") * 100.0,
            get("store.concurrent.snapshot_open_us"),
            get("store.pager.reads_per_op"),
            miss_us / store_us * 100.0,
        ));
    }

    // Write the trace file.
    let counters: Vec<(String, f64)> = out
        .ledger
        .iter()
        .map(|(d, v)| (d.name.to_string(), v))
        .collect();
    let path = env::out_dir()?.join(format!("trace-{name}.json"));
    std::fs::write(&path, trace::to_json(name, &traced.threads, &counters))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    out.notes.push(format!(
        "trace: {} spans on {} thread(s) written to {}",
        spans.len(),
        traced.threads.len(),
        path.display()
    ));
    out.notes.push(format!(
        "throughput untraced {rate_plain:.1}/s, traced {rate_traced:.1}/s"
    ));
    for (span, row) in traced.threads.iter().flat_map(|t| trace::rows(t)) {
        out.notes.push(format!(
            "span {:<18} count {:>7} total {:>10.3} ms self {:>10.3} ms",
            span,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        ));
    }
    Ok(out)
}

fn run_workload(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    use workloads::{
        bulkload_stream::BulkloadStream, partition_docs::PartitionDocs, serve_read::ServeRead,
        serve_write::ServeWrite,
    };
    let name = args.workload.as_str();
    macro_rules! go {
        ($w:ty) => {
            if args.trace {
                run_traced::<$w>(args, work, name)
            } else {
                run_end_to_end::<$w>(args, work)
            }
        };
    }
    match name {
        "partition-docs" => go!(PartitionDocs),
        "bulkload-stream" => go!(BulkloadStream),
        "serve-read" => go!(ServeRead),
        "serve-write" => go!(ServeWrite),
        _ => unreachable!("parse_args checked the workload name"),
    }
}

/// One run: print the report, then the result line. Returns the exit
/// code.
fn run_once(args: &Args) -> i32 {
    let out_dir = match env::out_dir().and_then(|d| {
        std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
        Ok(d)
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("natix-benchmark: {e}");
            return 2;
        }
    };
    let work = match WorkDir::create(&out_dir) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("natix-benchmark: {e}");
            return 2;
        }
    };
    let environment = Environment::probe(&work.0);
    println!(
        "workload {} seed {} seconds {} trace {} quick {}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );
    for line in environment.lines() {
        println!("{line}");
    }
    let out = match run_workload(args, &work) {
        Ok(out) => out,
        Err(e) => {
            // A set-up or correctness-gate failure: no result line.
            eprintln!("natix-benchmark: {}: {e}", args.workload);
            return 1;
        }
    };
    for note in &out.notes {
        println!("{note}");
    }
    print!("{}", out.ledger.table());
    for f in out.failures.iter().take(16) {
        println!("FAILED: {f}");
    }
    let failed = out.failed;
    let correct = failed == 0;
    println!(
        "failed_share: {} of {} attempted",
        failed,
        out.attempted.max(1)
    );
    println!(
        "{}",
        report::result_line(correct, out.attempted, failed, &out.ledger)
    );
    if correct {
        0
    } else {
        1
    }
}

/// `--repeat N`: run the same workload N times (fresh processes, as the
/// driver does) and judge the spread of every end-to-end metric.
fn run_repeat(args: &Args, argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("natix-benchmark: current_exe: {e}");
            return 2;
        }
    };
    // Child arguments: ours without `--repeat N`.
    let mut child_args = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--repeat" {
            it.next();
        } else {
            child_args.push(a.clone());
        }
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); defs.len()];
    for run in 0..args.repeat {
        let output = match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("natix-benchmark: spawn run {run}: {e}");
                return 2;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or("");
        if !output.status.success() || !line.contains("\"correct\": true") {
            eprintln!(
                "run {run} failed:\n{stdout}{}",
                String::from_utf8_lossy(&output.stderr)
            );
            return 1;
        }
        for (d, s) in defs.iter().zip(&mut samples) {
            s.push(report::value_in_result_line(line, d.name).unwrap_or(f64::NAN));
        }
        eprintln!("run {} of {} done", run + 1, args.repeat);
    }
    println!(
        "{} x{} (seed {}, {} s): median, quartiles, (max-min)/median, bound",
        args.workload, args.repeat, args.seed, args.seconds
    );
    let mut ok = true;
    for (d, s) in defs.iter().zip(&samples) {
        let med = stats::median(s);
        let (q1, q3) = stats::quartiles(s);
        let sorted = stats::sorted(s.clone());
        let range = sorted[sorted.len() - 1] - sorted[0];
        let spread = if med == 0.0 { 0.0 } else { range / med.abs() };
        let iqr = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        // A bound below a percent marks an exact metric: any difference
        // between runs of one commit is a defect of the benchmark.
        let verdict = if args.trace {
            ""
        } else if d.bound < 0.01 && range != 0.0 {
            ok = false;
            "  EXACT METRIC DIFFERS"
        } else if spread > d.bound / 2.0 {
            ok = false;
            "  SPREAD EXCEEDS HALF THE BOUND"
        } else {
            ""
        };
        println!(
            "  {:<44} median {:>16.4} q1 {:>16.4} q3 {:>16.4} iqr {:>6.2}% range {:>6.2}% bound {:>5.1}%{verdict}",
            d.name,
            med,
            q1,
            q3,
            iqr * 100.0,
            spread * 100.0,
            d.bound * 100.0
        );
    }
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("natix-benchmark: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let code = if args.repeat > 1 {
        run_repeat(&args, &argv)
    } else {
        run_once(&args)
    };
    std::process::exit(code);
}
