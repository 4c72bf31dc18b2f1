//! **Table 3**: query processing time on KM vs EKM storage layouts, plus
//! total occupied disk space.
//!
//! ```text
//! cargo run -p natix-bench --release --bin table3 [--scale 0.05 | --paper]
//! ```
//!
//! Reproduces the paper's Sec. 6.4 methodology: load the XMark document
//! into the store once per algorithm, execute the XPathMark queries Q1-Q7
//! several times against a warm buffer pool (larger than the document),
//! and report the median. The claim to verify: the EKM (sibling) layout
//! beats the KM (parent-child-only) layout on every query, by up to ~2×.
//! Next to the times stand the two counts the cost model is about, both
//! of one evaluation that starts with no record decoded: record
//! boundaries crossed, and records decoded from their pages (what the
//! repo benchmark's `paper_cost` sums over Q1-Q7 on `serve-read`).
//! Everything but the times is deterministic; `scripts/ci.sh` compares
//! those columns with `results/table3.json`.

use natix_bench::json_row;
use natix_bench::{
    median_time, natix_core, natix_datagen, natix_store, natix_xpath, write_json, Args, Table,
};
use natix_core::{Ekm, Km, Partitioner};
use natix_store::{MemPager, NavStats, StoreConfig, XmlStore};
use natix_xpath::{eval, parse, xpathmark, StoreNavigator};

json_row! {
    struct QueryRow {
        query: String,
        km_seconds: f64,
        ekm_seconds: f64,
        speedup: f64,
        km_switches: u64,
        ekm_switches: u64,
        km_decodes: u64,
        ekm_decodes: u64,
        result_count: usize,
    }
}

json_row! {
    struct Results {
        km_records: usize,
        ekm_records: usize,
        km_disk_bytes: u64,
        ekm_disk_bytes: u64,
        queries: Vec<QueryRow>,
    }
}

fn load(doc: &natix_xml::Document, alg: &dyn Partitioner, k: u64) -> XmlStore {
    let p = alg.partition(doc.tree(), k).expect("feasible");
    XmlStore::bulkload(doc, &p, Box::new(MemPager::new()), StoreConfig::default())
        .expect("bulkload")
}

fn main() {
    let args = Args::parse();
    eprintln!("generating XMark document (scale {}) ...", args.scale);
    let doc = natix_datagen::xmark(natix_datagen::GenConfig {
        scale: args.scale,
        seed: args.seed,
    });
    eprintln!(
        "document: {} nodes, {} slots",
        doc.len(),
        doc.total_weight()
    );

    eprintln!("bulkloading with KM and EKM (K = {}) ...", args.k);
    let mut km = load(&doc, &Km, args.k);
    let mut ekm = load(&doc, &Ekm, args.k);

    let mut table = Table::new(&[
        "Query",
        "KM",
        "EKM",
        "speedup",
        "KM-xings",
        "EKM-xings",
        "KM-decodes",
        "EKM-decodes",
    ]);
    table.row(vec![
        "Total Occupied Disk Space".into(),
        format!("{}KB", km.occupied_bytes() / 1024),
        format!("{}KB", ekm.occupied_bytes() / 1024),
        String::new(),
        format!("{} recs", km.record_count()),
        format!("{} recs", ekm.record_count()),
        String::new(),
        String::new(),
    ]);

    let runs = 9;
    let mut rows = Vec::new();
    for (qname, qtext) in xpathmark::all() {
        let path = parse(qtext).expect("XPathMark query parses");
        let measure = |store: &mut XmlStore| -> (f64, NavStats, usize) {
            store.reset_nav_stats();
            // One counted run for crossings and result size.
            let count = {
                let mut nav = StoreNavigator::new(store);
                eval(&mut nav, &path).expect("eval").len()
            };
            let nav_stats = store.nav_stats();
            let d = median_time(runs, || {
                let mut nav = StoreNavigator::new(store);
                let r = eval(&mut nav, &path).expect("eval");
                std::hint::black_box(r.len());
            });
            (d.as_secs_f64(), nav_stats, count)
        };
        let (km_s, km_nav, km_count) = measure(&mut km);
        let (ekm_s, ekm_nav, ekm_count) = measure(&mut ekm);
        assert_eq!(
            km_count, ekm_count,
            "{qname}: layouts disagree on the result"
        );
        let speedup = km_s / ekm_s;
        table.row(vec![
            format!("{qname}: {qtext}"),
            format!("{:.4}s", km_s),
            format!("{:.4}s", ekm_s),
            format!("{speedup:.2}x"),
            km_nav.record_switches.to_string(),
            ekm_nav.record_switches.to_string(),
            km_nav.record_decodes.to_string(),
            ekm_nav.record_decodes.to_string(),
        ]);
        eprintln!("{qname}: KM {km_s:.4}s, EKM {ekm_s:.4}s ({speedup:.2}x), {km_count} results");
        rows.push(QueryRow {
            query: qtext.to_string(),
            km_seconds: km_s,
            ekm_seconds: ekm_s,
            speedup,
            km_switches: km_nav.record_switches,
            ekm_switches: ekm_nav.record_switches,
            km_decodes: km_nav.record_decodes,
            ekm_decodes: ekm_nav.record_decodes,
            result_count: km_count,
        });
    }

    println!(
        "Table 3: Query processing time, KM vs EKM layout (K = {}, scale = {})\n",
        args.k, args.scale
    );
    println!("{}", table.render());
    write_json(
        &args,
        &Results {
            km_records: km.record_count(),
            ekm_records: ekm.record_count(),
            km_disk_bytes: km.occupied_bytes(),
            ekm_disk_bytes: ekm.occupied_bytes(),
            queries: rows,
        },
    );
}
