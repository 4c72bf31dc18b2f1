//! **Ablation A3**: effectiveness of the DP-table memoization
//! (paper Sec. 3.3.6: "measurements for a 20 MB sample document and
//! K = 256 show that on average, less than 4 of the potential 256 values
//! for s actually occur for inner nodes").
//!
//! ```text
//! cargo run -p natix-bench --release --bin memoization [--scale 0.05]
//! ```
//!
//! Rows are the per-node DP runs of the one engine: one per distinct inner
//! subtree shape. Besides cell counts, the table
//! reports the peak workspace bytes of the flat-arena tables and the
//! structure sharing of `natix_core::dag`: distinct weighted subtree shapes
//! (fingerprints), nodes-per-shape dedup ratio, shape-cache hit rate, and
//! the interval start positions the cells' scans never compared.

use natix_bench::json_row;
use natix_bench::{natix_core, natix_datagen, write_json, Args, Table};
use natix_core::dhw_with_statistics;

json_row! {
    struct Row {
        document: String,
        inner_nodes: u64,
        avg_s_values: f64,
        max_s_values: usize,
        table_cells: u64,
        full_table_cells: u64,
        arena_cells: u64,
        arena_peak_bytes: u64,
        dag_distinct_fingerprints: u64,
        dag_dedup_ratio: f64,
        dag_hit_rate: f64,
        pruned_candidates: u64,
        pruned_scans: u64,
    }
}

fn main() {
    let args = Args::parse();
    let mut table = Table::new(&[
        "Document",
        "Inner shapes",
        "avg s/shape",
        "cells used",
        "cells full table",
        "saved",
        "arena KB",
        "shapes",
        "dedup",
        "hit",
        "pruned",
    ]);
    let mut results = Vec::new();
    for (name, doc) in natix_datagen::evaluation_suite(args.scale, args.seed) {
        let tree = doc.tree();
        let (_, stats) = dhw_with_statistics(tree, args.k).expect("feasible");
        // The naive table materializes every s in [w(v), K] for every j of
        // every inner node.
        let full: u64 = tree
            .node_ids()
            .filter(|&v| tree.child_count(v) > 0)
            .map(|v| {
                let s_range = args.k.saturating_sub(tree.weight(v)) + 1;
                s_range * (tree.child_count(v) as u64 + 1)
            })
            .sum();
        table.row(vec![
            name.to_string(),
            stats.inner_nodes.to_string(),
            format!("{:.2}", stats.avg_rows()),
            stats.total_entries.to_string(),
            full.to_string(),
            format!(
                "{:.1}%",
                100.0 * (1.0 - stats.total_entries as f64 / full as f64)
            ),
            (stats.bytes_allocated / 1024).to_string(),
            stats.dag_distinct.to_string(),
            format!("{:.1}x", stats.dag_dedup_ratio()),
            format!("{:.0}%", stats.dag_hit_rate() * 100.0),
            stats.pruned_candidates.to_string(),
        ]);
        eprintln!(
            "done: {name} (avg {:.2} s values, {} of {} shapes distinct)",
            stats.avg_rows(),
            stats.dag_distinct,
            stats.dag_nodes,
        );
        results.push(Row {
            document: name.to_string(),
            inner_nodes: stats.inner_nodes,
            avg_s_values: stats.avg_rows(),
            max_s_values: stats.max_rows,
            table_cells: stats.total_entries,
            full_table_cells: full,
            arena_cells: stats.arena_entries,
            arena_peak_bytes: stats.bytes_allocated,
            dag_distinct_fingerprints: stats.dag_distinct,
            dag_dedup_ratio: stats.dag_dedup_ratio(),
            dag_hit_rate: stats.dag_hit_rate(),
            pruned_candidates: stats.pruned_candidates,
            pruned_scans: stats.pruned_scans,
        });
    }
    println!(
        "Ablation: DP-table memoization effectiveness (K = {}, scale = {})\n",
        args.k, args.scale
    );
    println!("{}", table.render());
    println!("Paper Sec. 3.3.6 reference point: < 4 avg s values on a 20 MB document at K = 256.");
    println!(
        "Inner shapes = per-node DP runs (one per distinct inner subtree shape); cells full\n\
         table = the naive table over every inner node. arena KB = peak reusable workspace of\n\
         the flat-arena DP. shapes = distinct weighted subtree fingerprints (minimal-DAG\n\
         nodes); dedup = nodes per shape; hit = fraction of nodes served from the shape cache;\n\
         pruned = interval start positions in the cells' windows that the scan never compared\n\
         (one candidate per card run is compared; the rest of the run, and every position after\n\
         the exit, are pruned)."
    );
    write_json(&args, &results);
}
