//! **Table 2**: CPU time of each partitioning algorithm on each evaluation
//! document.
//!
//! ```text
//! cargo run -p natix-bench --release --bin table2 [--scale 0.05 | --paper] [--threads N]
//! ```
//!
//! Absolute times differ from the paper's 2.4 GHz Pentium IV, but the
//! *ordering* must hold: DHW ≫ GHDW ≫ KM > BFS > EKM ≈ RS ≈ DFS, with EKM
//! orders of magnitude faster than DHW at near-optimal quality.
//!
//! `--threads` spreads the *documents* over scoped workers; within one
//! document the algorithms are still timed back to back so measurements of
//! the same document never interleave. Pass `--threads 1` for the cleanest
//! numbers on a busy machine.

use std::sync::atomic::{AtomicUsize, Ordering};

use natix_bench::json_row;
use natix_bench::{fmt_duration, natix_core, natix_datagen, time, write_json, Args, Table};
use natix_core::evaluation_algorithms;

json_row! {
    struct Row {
        document: String,
        nodes: usize,
        seconds: Vec<(String, f64)>,
    }
}

fn main() {
    let args = Args::parse();
    let algorithms = evaluation_algorithms();
    let mut headers = vec!["Document"];
    for a in &algorithms {
        headers.push(a.name());
    }
    let mut table = Table::new(&headers);

    let suite = natix_datagen::evaluation_suite(args.scale, args.seed);

    // One work item per document; each worker times that document's whole
    // algorithm column sequentially (boxed partitioners are not `Sync`, so
    // every worker builds its own zero-sized algorithm set).
    let next = AtomicUsize::new(0);
    let workers = args.threads.min(suite.len()).max(1);
    let batches: Vec<Vec<(usize, Vec<f64>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let algs = evaluation_algorithms();
                    let mut out: Vec<(usize, Vec<f64>)> = Vec::new();
                    loop {
                        let d = next.fetch_add(1, Ordering::Relaxed);
                        if d >= suite.len() {
                            break;
                        }
                        let (name, doc) = &suite[d];
                        let tree = doc.tree();
                        let mut secs = Vec::with_capacity(algs.len());
                        for alg in &algs {
                            let (res, dur) = time(|| alg.partition(tree, args.k));
                            res.unwrap_or_else(|e| panic!("{} on {name}: {e}", alg.name()));
                            secs.push(dur.as_secs_f64());
                            eprintln!("{name}: {} in {}", alg.name(), fmt_duration(dur));
                        }
                        out.push((d, secs));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("table2 worker panicked"))
            .collect()
    });
    let mut grid: Vec<Option<Vec<f64>>> = vec![None; suite.len()];
    for batch in batches {
        for (d, secs) in batch {
            grid[d] = Some(secs);
        }
    }

    let mut results = Vec::new();
    for (d, (name, doc)) in suite.iter().enumerate() {
        let secs = grid[d].take().expect("document timed");
        let mut cells = vec![name.to_string()];
        let mut seconds = Vec::new();
        for (alg, &sec) in algorithms.iter().zip(&secs) {
            cells.push(fmt_duration(std::time::Duration::from_secs_f64(sec)));
            seconds.push((alg.name().to_string(), sec));
        }
        table.row(cells);
        results.push(Row {
            document: name.to_string(),
            nodes: doc.tree().len(),
            seconds,
        });
    }

    println!(
        "Table 2: Partitioning CPU time (K = {}, scale = {}, threads = {})\n",
        args.k, args.scale, workers
    );
    println!("{}", table.render());
    write_json(&args, &results);
}
