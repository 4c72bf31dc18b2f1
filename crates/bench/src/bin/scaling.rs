//! **Ablation A2**: runtime as a function of document size — the paper's
//! central complexity claim is that DHW (and GHDW) are *linear* in the
//! number of nodes for fixed K.
//!
//! ```text
//! cargo run -p natix-bench --release --bin scaling [--k 256]
//! ```
//!
//! Generates XMark-like documents at doubling scales and reports, per
//! algorithm, total time and time-per-node. Linearity shows as a flat
//! ns/node column.

use natix_bench::json_row;
use natix_bench::{fmt_duration, natix_core, natix_datagen, time, write_json, Args, Table};
use natix_core::{Dhw, Ekm, Ghdw, Km, Partitioner};

json_row! {
    struct Row {
        scale: f64,
        nodes: usize,
        per_algorithm: Vec<(String, f64, f64)>, // name, seconds, ns/node
    }
}

fn main() {
    let args = Args::parse();
    let algorithms: Vec<Box<dyn Partitioner>> =
        vec![Box::new(Dhw), Box::new(Ghdw), Box::new(Ekm), Box::new(Km)];

    let mut headers = vec!["Scale", "Nodes"];
    for a in &algorithms {
        headers.push(a.name());
    }
    // Two columns per algorithm would be noisy; print time and a second
    // table with ns/node.
    let mut time_table = Table::new(&headers);
    let mut rate_table = Table::new(&headers);
    let mut results = Vec::new();

    for scale in [0.005, 0.01, 0.02, 0.04, 0.08] {
        let doc = natix_datagen::xmark(natix_datagen::GenConfig {
            scale,
            seed: args.seed,
        });
        let tree = doc.tree();
        let n = tree.len();
        let mut time_cells = vec![format!("{scale}"), n.to_string()];
        let mut rate_cells = vec![format!("{scale}"), n.to_string()];
        let mut per_algorithm = Vec::new();
        for alg in &algorithms {
            let (res, dur) = time(|| alg.partition(tree, args.k));
            res.expect("feasible");
            let ns_per_node = dur.as_nanos() as f64 / n as f64;
            time_cells.push(fmt_duration(dur));
            rate_cells.push(format!("{ns_per_node:.0}ns"));
            per_algorithm.push((alg.name().to_string(), dur.as_secs_f64(), ns_per_node));
            eprintln!(
                "scale {scale}: {} {} ({ns_per_node:.0} ns/node)",
                alg.name(),
                fmt_duration(dur)
            );
        }
        time_table.row(time_cells);
        rate_table.row(rate_cells);
        results.push(Row {
            scale,
            nodes: n,
            per_algorithm,
        });
    }

    println!(
        "Ablation: linear scaling in document size (K = {})\n",
        args.k
    );
    println!("Total time:\n{}", time_table.render());
    println!(
        "Per node (flat column = linear runtime):\n{}",
        rate_table.render()
    );
    write_json(&args, &results);
}
