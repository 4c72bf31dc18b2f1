//! **Ablation A1**: partition counts as a function of the weight limit K.
//!
//! ```text
//! cargo run -p natix-bench --release --bin sweep_k [--scale 0.02]
//! ```
//!
//! Sweeps K over 32..4096 slots on the XMark-like document and prints one
//! row per K with every algorithm's partition count. Expected shape: all
//! counts fall roughly like `weight / K`; the gap between KM and the
//! sibling partitioners *grows* as K grows, because larger storage units
//! can merge more sibling subtrees that KM must keep separate.

use natix_bench::json_row;
use natix_bench::{natix_core, natix_datagen, natix_tree, write_json, Args, Table};
use natix_core::evaluation_algorithms;
use natix_tree::validate;

json_row! {
    struct Row {
        k: u64,
        lower_bound: u64,
        partitions: Vec<(String, usize)>,
    }
}

fn main() {
    let mut args = Args::parse();
    if args.scale == Args::default().scale {
        // Smaller default than the table binaries: DHW runs once per K.
        args.scale = 0.02;
    }
    let doc = natix_datagen::xmark(natix_datagen::GenConfig {
        scale: args.scale,
        seed: args.seed,
    });
    let tree = doc.tree();
    eprintln!(
        "document: {} nodes, {} slots",
        tree.len(),
        tree.total_weight()
    );

    let algorithms = evaluation_algorithms();
    let mut headers = vec!["K", "ceil(W/K)"];
    for a in &algorithms {
        headers.push(a.name());
    }
    let mut table = Table::new(&headers);
    let mut results = Vec::new();

    let min_k = tree.max_node_weight();
    for k in [32u64, 64, 128, 256, 512, 1024, 2048, 4096] {
        if k < min_k {
            eprintln!("skipping K={k}: heaviest node weighs {min_k}");
            continue;
        }
        let lb = tree.total_weight().div_ceil(k);
        let mut cells = vec![k.to_string(), lb.to_string()];
        let mut partitions = Vec::new();
        for alg in &algorithms {
            let p = alg.partition(tree, k).expect("feasible");
            let stats = validate(tree, k, &p).expect("valid");
            cells.push(stats.cardinality.to_string());
            partitions.push((alg.name().to_string(), stats.cardinality));
        }
        table.row(cells);
        results.push(Row {
            k,
            lower_bound: lb,
            partitions,
        });
        eprintln!("done: K={k}");
    }

    println!(
        "Ablation: partitions vs K on XMark-like data (scale = {})\n",
        args.scale
    );
    println!("{}", table.render());
    write_json(&args, &results);
}
