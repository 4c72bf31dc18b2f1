//! End-to-end tests for the `natix` command-line tool, driving the real
//! binary via `CARGO_BIN_EXE_natix`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn natix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_natix"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "natix-cli-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SAMPLE: &str = concat!(
    "<library><shelf id=\"s1\">",
    "<book><title>Tree Partitioning</title><pages>120</pages></book>",
    "<book><title>Records and Pages in Depth</title><pages>240</pages></book>",
    "</shelf><shelf id=\"s2\"><book><title>Sibling Intervals</title></book></shelf></library>",
);

#[test]
fn partition_reports_counts() {
    let dir = tmpdir();
    let xml = dir.join("lib.xml");
    std::fs::write(&xml, SAMPLE).unwrap();
    let out = natix(&[
        "partition",
        xml.to_str().unwrap(),
        "--alg",
        "dhw",
        "--k",
        "16",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("algorithm  : DHW (K = 16)"), "{stdout}");
    assert!(stdout.contains("partitions : 3"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partition_stats_prints_cache_counters() {
    let dir = tmpdir();
    let xml = dir.join("lib.xml");
    std::fs::write(&xml, SAMPLE).unwrap();
    let path = xml.to_str().unwrap();
    let out = natix(&["partition", path, "--alg", "dhw", "--k", "16", "--stats"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("dag shapes :"), "{stdout}");
    assert!(stdout.contains("distinct of"), "{stdout}");
    assert!(stdout.contains("cache hits :"), "{stdout}");
    assert!(stdout.contains("pruned     :"), "{stdout}");
    assert!(stdout.contains("dp tables  :"), "{stdout}");
    // The counters come from the run that produced the partitioning, so
    // the result lines are the ones a plain run prints.
    let plain = natix(&["partition", path, "--alg", "dhw", "--k", "16"]);
    let plain = String::from_utf8_lossy(&plain.stdout);
    assert!(stdout.starts_with(plain.as_ref()), "{stdout}\nvs\n{plain}");

    let out = natix(&["partition", path, "--alg", "ghdw", "--k", "16", "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("algorithm  : GHDW (K = 16)"), "{stdout}");
    assert!(stdout.contains("dp tables  :"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn load_query_dump_roundtrip() {
    let dir = tmpdir();
    let xml = dir.join("lib.xml");
    let store = dir.join("lib.natix");
    std::fs::write(&xml, SAMPLE).unwrap();

    let out = natix(&[
        "load",
        xml.to_str().unwrap(),
        store.to_str().unwrap(),
        "--alg",
        "ekm",
        "--k",
        "16",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = natix(&["query", store.to_str().unwrap(), "//book/title", "--count"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");

    let out = natix(&[
        "query",
        store.to_str().unwrap(),
        "//shelf[@id='s2']/book",
        "--count",
    ]);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1");

    let out = natix(&["dump", store.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), SAMPLE);

    let out = natix(&["stats", store.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stats = natix_server::Stats::parse(&stdout).unwrap();
    assert!(stats.u64("store.live_records").unwrap() > 0, "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

const PAGE_SIZE: usize = 8192;

/// Byte offset of the page-class tag inside the 12-byte page frame.
const CLASS_AT: usize = PAGE_SIZE - 10;

/// XOR-rot a 100-byte run of the highest record-class page of a store
/// file (never the first record page, which holds the root record).
/// Returns the page number hit.
fn rot_last_record_page(path: &std::path::Path) -> usize {
    let mut bytes = std::fs::read(path).unwrap();
    let mut target = None;
    for page in 2..bytes.len() / PAGE_SIZE {
        let p = &bytes[page * PAGE_SIZE..(page + 1) * PAGE_SIZE];
        if p.iter().any(|&b| b != 0) && p[CLASS_AT] == 2 {
            target = Some(page);
        }
    }
    let page = target.expect("a record page");
    for b in &mut bytes[page * PAGE_SIZE + 100..page * PAGE_SIZE + 200] {
        *b ^= 0x5A;
    }
    std::fs::write(path, bytes).unwrap();
    page
}

/// A document fat enough that its records spread over several pages, so
/// rotting one page leaves survivors to salvage.
fn fat_sample() -> String {
    let mut s = String::from("<site>");
    for i in 0..24 {
        s.push_str(&format!(
            "<item id=\"i{i}\"><name>object number {i}</name><note>{}</note></item>",
            format!("text content for padding {i} ").repeat(30)
        ));
    }
    s.push_str("</site>");
    s
}

#[test]
fn fsck_scrubs_clean_and_flags_damage() {
    let dir = tmpdir();
    let xml = dir.join("lib.xml");
    let store = dir.join("lib.natix");
    std::fs::write(&xml, SAMPLE).unwrap();
    let out = natix(&["load", xml.to_str().unwrap(), store.to_str().unwrap()]);
    assert!(out.status.success());

    let out = natix(&["fsck", store.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("fsck status=clean"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Destroy the winning header slot (bulkload publishes only slot 1):
    // opening fails, plain fsck reports damage with a non-zero exit.
    let mut bytes = std::fs::read(&store).unwrap();
    for b in &mut bytes[PAGE_SIZE..2 * PAGE_SIZE] {
        *b = 0xA5;
    }
    std::fs::write(&store, bytes).unwrap();
    assert!(!natix(&["dump", store.to_str().unwrap()]).status.success());
    let out = natix(&["fsck", store.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("fsck status=damaged"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // --repair rebuilds the catalog and headers from the surviving
    // records; afterwards the store scrubs clean and dumps byte-equal.
    let out = natix(&["fsck", store.to_str().unwrap(), "--repair"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("repair recovered="),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let out = natix(&["fsck", store.to_str().unwrap()]);
    assert!(out.status.success());
    let out = natix(&["dump", store.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), SAMPLE);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn repair_quarantines_and_degraded_dump_reports_the_loss() {
    let dir = tmpdir();
    let xml = dir.join("site.xml");
    let store = dir.join("site.natix");
    std::fs::write(&xml, fat_sample()).unwrap();
    let out = natix(&[
        "load",
        xml.to_str().unwrap(),
        store.to_str().unwrap(),
        "--k",
        "160",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    rot_last_record_page(&store);
    let out = natix(&["fsck", store.to_str().unwrap(), "--repair"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("record-quarantined"), "{report}");

    // The repaired store scrubs clean, strict dump refuses (data IS
    // missing), and --degraded serves the survivors plus a damage report.
    assert!(natix(&["fsck", store.to_str().unwrap()]).status.success());
    assert!(!natix(&["dump", store.to_str().unwrap()]).status.success());
    let out = natix(&["dump", store.to_str().unwrap(), "--degraded"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8_lossy(&out.stdout);
    assert!(doc.starts_with("<site>"), "{doc}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("damage"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every row of the campaign table runs its quick tier through the
/// built binary: exit 0, the summary line under the row's title, the
/// replay banner silent. A row added to `CAMPAIGNS` is tested by being
/// added. The rows are separate processes and run side by side (the
/// network rows mostly wait on timers).
#[test]
fn every_campaign_row_passes_its_quick_tier() {
    std::thread::scope(|rows| {
        for row in &natix_testkit::CAMPAIGNS {
            rows.spawn(move || quick_tier_passes(row));
        }
    });
}

fn quick_tier_passes(row: &'static natix_testkit::Campaign) {
    let mut args: Vec<&str> = row.command.split(' ').collect();
    args.push("--quick");
    let out = natix(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}\n{stdout}\n{stderr}");
    let bin = row.server_bin.then(|| env!("CARGO_BIN_EXE_natix").into());
    let plan = row
        .plan(natix_testkit::Tier::Quick, None, None, bin)
        .unwrap();
    let summary = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{}: ", plan.title())))
        .unwrap_or_else(|| panic!("{args:?} printed no summary line:\n{stdout}"));
    assert!(summary.contains(" 0 failure"), "{args:?}: {summary}");
    assert!(!stderr.contains("reproduce with"), "{args:?}\n{stderr}");
}

#[test]
fn stress_quick_tier_passes_and_prints_no_banner() {
    // A trimmed quick campaign keeps the debug-binary test fast while
    // still covering one-shot- and permanent-fault interleavings.
    let out = natix(&["stress", "--quick", "--runs", "30"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("stress (quick):"), "{stdout}");
    assert!(stdout.contains("30 interleavings"), "{stdout}");
    assert!(stdout.contains("0 failures"), "{stdout}");
    // A clean run must NOT print the failure banner.
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("reproduce with"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stress_is_seed_deterministic() {
    let a = natix(&["stress", "--quick", "--runs", "10", "--seed", "77"]);
    let b = natix(&["stress", "--quick", "--runs", "10", "--seed", "77"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout)
    );
}

#[test]
fn stress_rejects_unknown_flags() {
    let out = natix(&["stress", "--frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn soak_failure_banner_survives_bad_replay() {
    let dir = tmpdir();
    let script = dir.join("bad.soak");
    // A malformed script: the run cannot finish cleanly, so the drop
    // guard must print the reproduction banner.
    std::fs::write(&script, "workload nope.xml scale 0.001 gen-seed 1 k 24\n").unwrap();
    let out = natix(&["soak", "--replay", script.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("soak: reproduce with:"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown command.
    let out = natix(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = natix(&["partition", "/nonexistent/file.xml"]);
    assert!(!out.status.success());

    // Unknown algorithm.
    let dir = tmpdir();
    let xml = dir.join("x.xml");
    std::fs::write(&xml, "<a/>").unwrap();
    let out = natix(&["partition", xml.to_str().unwrap(), "--alg", "zzz"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    // Malformed XML.
    std::fs::write(&xml, "<a><b></a>").unwrap();
    let out = natix(&["partition", xml.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mismatched end tag"));

    // Opening garbage as a store.
    let garbage = dir.join("garbage.natix");
    std::fs::write(&garbage, vec![7u8; 16384]).unwrap();
    let out = natix(&["stats", garbage.to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_args_prints_usage() {
    let out = natix(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
