//! Metric catalogue and report rendering.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names (a unit test compares them) and
//! `README.md` explains each. An untraced run reports every end-to-end
//! metric, a traced run every per-layer metric.

use std::fmt::Write as _;

/// One named metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. The program reports values and leaves
    /// judging them to the driver, so only the test that compares this
    /// catalogue with `BENCHMARK.json` reads the field.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. `failed_share` is not listed: it
/// must stay 0, which a relative bound cannot express, so it travels as
/// the `failed`/`attempted` pair of the result line (and as a layer row).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.2),
    e2e("op_p50_us", "us", "lower", 0.2),
    e2e("op_p90_us", "us", "lower", 0.25),
    e2e("peak_rss_bytes", "bytes", "lower", 0.25),
    e2e("paper_cost", "count", "lower", 0.001),
    e2e("space_amp", "ratio", "lower", 0.1),
];

/// One row per layer boundary the benchmark can see from outside.
pub const PER_LAYER: &[MetricDef] = &[
    // xml / tree / core: the offline partitioning path.
    layer("xml.parse_ns_per_byte", "ns/byte", "lower"),
    layer("tree.validate_ns_per_node", "ns/node", "lower"),
    layer("core.dhw_ns_per_node", "ns/node", "lower"),
    layer("core.ghdw_ns_per_node", "ns/node", "lower"),
    layer("core.ekm_ns_per_node", "ns/node", "lower"),
    layer("core.dhw_share", "share", "lower"),
    layer("core.dag_dedup_ratio", "ratio", "higher"),
    layer("core.dag_hit_rate", "share", "higher"),
    layer("core.pruned_candidates", "count", "higher"),
    layer("core.partitions_dhw", "count", "lower"),
    layer("core.partitions_ghdw", "count", "lower"),
    layer("core.partitions_ekm", "count", "lower"),
    // The streaming write path.
    layer("xml.sax_ns_per_byte", "ns/byte", "lower"),
    layer("core.sekm_ns_per_node", "ns/node", "lower"),
    layer("store.bulkload.mem_docs_per_s", "docs/s", "higher"),
    layer("store.bulkload.records_per_doc", "count", "lower"),
    layer("store.bulkload.slab_peak_bytes", "bytes", "lower"),
    layer(
        "store.collection.catalog_bytes_per_doc",
        "bytes/doc",
        "lower",
    ),
    layer("store.collection.open_s", "s", "lower"),
    layer("store.collection.get_document_us", "us", "lower"),
    // Device traffic of this workload's op, seen by the TimingPager.
    layer("store.pager.reads_per_op", "count", "lower"),
    layer("store.pager.writes_per_op", "count", "lower"),
    layer("store.pager.syncs_per_op", "count", "lower"),
    layer("store.pager.read_us", "us", "lower"),
    layer("store.pager.write_us", "us", "lower"),
    layer("store.pager.sync_us", "us", "lower"),
    layer("store.pager.bytes_written_per_user_byte", "ratio", "lower"),
    layer("store.journal.pages_per_commit", "pages", "lower"),
    layer("device.fsync_probe_us", "us", "lower"),
    // The read path under a served query.
    layer("store.pool.hit_rate", "share", "higher"),
    layer("store.pool.evictions_per_op", "count", "lower"),
    layer("store.pool.miss_us", "us", "lower"),
    layer("store.checksum.verify_ns_per_page", "ns/page", "lower"),
    layer("store.concurrent.snapshot_open_us", "us", "lower"),
    layer("store.concurrent.snapshot_open_share", "share", "lower"),
    layer("store.concurrent.request_us", "us", "lower"),
    layer("xpath.parse_us_per_cycle", "us", "lower"),
    layer("xpath.eval_us_per_cycle_warm", "us", "lower"),
    layer("xpath.pages_per_cycle", "pages", "lower"),
    layer("xpath.records_visited_per_cycle", "count", "lower"),
    layer("xml.write_ns_per_byte", "ns/byte", "lower"),
    // The write path: commits beside pins, capture and shipping.
    layer("store.concurrent.snapshot_open_us_overlay", "us", "lower"),
    layer("store.concurrent.mutate_us", "us", "lower"),
    layer("store.concurrent.batch8_mutate_us_per_op", "us/op", "lower"),
    layer("store.concurrent.overlay_pages_peak", "pages", "lower"),
    layer("store.replicate.cut_us", "us", "lower"),
    layer("store.replicate.encode_us_per_page", "us/page", "lower"),
    layer("store.replicate.apply_us_per_page", "us/page", "lower"),
    layer("store.replicate.pages_per_batch", "pages", "lower"),
    layer("store.replicate.catchup_s", "s", "lower"),
    layer("client.update_pair_p50_us", "us", "lower"),
    layer("client.read_cycle_p50_us", "us", "lower"),
    // The network front door.
    layer("server.wire.codec_us_per_req", "us/req", "lower"),
    layer("server.ping_rtt_us", "us", "lower"),
    layer("server.solo_op_us", "us", "lower"),
    layer("server.queue_wait_us", "us", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.shed_share", "share", "lower"),
    layer("server.retry_share", "share", "lower"),
    layer("server.handler_panics", "count", "lower"),
    layer("client.p99_us", "us", "lower"),
    layer("client.latency_samples", "count", "higher"),
    layer("failed_share", "share", "lower"),
    // Read beside every workload.
    layer("process.cpu_user_s", "s", "lower"),
    layer("process.cpu_sys_s", "s", "lower"),
    layer("process.cpu_util", "share", "higher"),
    layer("process.ctx_switches_involuntary", "count", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("unattributed_share", "share", "lower"),
];

/// The workloads, with the reason each exists (one line, as in
/// `BENCHMARK.json`).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "partition-docs",
        "offline parse, DHW/GHDW/EKM partition and validate of the six paper documents: core, xml and tree do all the work, store and server none",
    ),
    (
        "bulkload-stream",
        "streaming sharded bulkload of small documents onto files: the write path end to end (SAX, SEKM, slabs, pager, journal commit, catalog) with server and xpath idle",
    ),
    (
        "serve-read",
        "two closed-loop connections run unpinned XPathMark Q1-Q7 against a served store four times its pool: snapshot open, cold pool and checksum per request, core idle",
    ),
    (
        "serve-write",
        "one connection alternates update pairs with pinned XPathMark cycles on a primary with a hot standby, store fits its pool: fsync, header flip, deferred checkpoints, capture and shipping",
    ),
];

/// Values of one catalogue for one run. A layer the workload leaves
/// idle keeps its row at 0.
pub struct Ledger {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Ledger {
    /// Empty ledger over `defs`, every row 0.
    pub fn new(defs: &'static [MetricDef]) -> Ledger {
        Ledger {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Record a value. Panics on a name outside the catalogue: that is
    /// a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        // A ratio over an empty sample must not poison the JSON line.
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// Record several values.
    pub fn set_all(&mut self, rows: &[(&'static str, f64)]) {
        for (name, value) in rows {
            self.set(name, *value);
        }
    }

    /// Value of `name`.
    pub fn get(&self, name: &str) -> f64 {
        self.iter()
            .find(|(d, _)| d.name == name)
            .map_or(0.0, |(_, v)| v)
    }

    /// Rows in catalogue order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// Human-readable table, one metric per line with its unit.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (d, v) in self.iter() {
            let _ = writeln!(s, "  {:<44} {:>18} {}", d.name, format_value(v), d.unit);
        }
        s
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The machine-readable result: last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, ledger: &Ledger) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (d, v)) in ledger.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // `{}` prints the shortest text that reads back as the same
        // f64: every measured digit, nothing rounded.
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}

/// Pull one metric's value back out of a [`result_line`] (the
/// `--repeat` self-check reads its children's output with it).
pub fn value_in_result_line(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_every_digit() {
        let mut l = Ledger::new(END_TO_END);
        l.set("ops_per_s", 1_234.567_890_123_4);
        l.set("setup_s", 2.0);
        let line = result_line(true, 10, 0, &l);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(
            value_in_result_line(&line, "ops_per_s"),
            Some(1_234.567_890_123_4)
        );
        assert_eq!(value_in_result_line(&line, "setup_s"), Some(2.0));
        assert_eq!(value_in_result_line(&line, "nope"), None);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| (d.name, d.unit))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "count")));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} / {unit}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, why) in WORKLOADS {
            assert!(named(name), "workload {name} missing from BENCHMARK.json");
            assert!(json.contains(why), "why of {name} differs");
        }
        for d in END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for d in PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name, d.unit, d.better
            );
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let total = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(json.matches("\"name\": ").count(), total);
    }
}
