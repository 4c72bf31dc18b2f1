//! Regression tests for the structured exit codes (satellite of the
//! serve PR): 2 = usage, 3 = shed/overloaded, 4 = corruption, 5 = I/O.
//! Drives the real binary via `CARGO_BIN_EXE_natix`, including a live
//! `natix serve` daemon for the shed path.

use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn natix(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_natix"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "natix-exitcodes-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn build_store(dir: &Path) -> String {
    let xml = dir.join("seed.xml");
    std::fs::write(&xml, "<list><e>alpha</e><e>beta</e><e>gamma</e></list>").unwrap();
    let store = dir.join("store.natix");
    let out = natix(&[
        "load",
        xml.to_str().unwrap(),
        store.to_str().unwrap(),
        "--k",
        "16",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    store.to_str().unwrap().to_string()
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(code(&natix(&[])), 2, "no arguments is a usage error");
    let out = natix(&["frobnicate"]);
    assert_eq!(code(&out), 2, "unknown command is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
}

#[test]
fn partition_option_errors_exit_2_before_any_output() {
    let dir = tmpdir("flags");
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, "<list><e>alpha</e><e>beta</e></list>").unwrap();
    let xml = xml.to_str().unwrap();
    let store = dir.join("out.natix");
    let store = store.to_str().unwrap();

    // --stats needs a DP algorithm; the default is ekm.
    for args in [
        &["partition", xml, "--stats"][..],
        &["partition", xml, "--alg", "km", "--stats"],
    ] {
        let out = natix(args);
        assert_eq!(code(&out), 2, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result first");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--stats supports dhw/ghdw"));
    }
    let out = natix(&["partition", xml, "--alg", "dhw", "--stats"]);
    assert_eq!(code(&out), 0);

    // Unknown options — the retired engine knobs among them; `--threads`
    // survives on `bulkload` only — are usage errors. So are the flags a
    // verb used to accept and never read (`partition --pool-pages`,
    // `--count` outside `query`, `load --stats`), a missing positional and
    // a K no record can have.
    for (args, needle) in [
        (
            &["partition", xml, "--alg", "dhw", "--threads", "2"][..],
            "unknown option",
        ),
        (
            &["partition", xml, "--alg", "dhw", "--frobnicate"],
            "unknown option",
        ),
        (
            &["load", xml, store, "--alg", "dhw", "--threads", "2"],
            "unknown option",
        ),
        (&["load", xml, store, "--frobnicate"], "unknown option"),
        (
            &["partition", xml, "--pool-pages", "3"],
            "unknown option --pool-pages",
        ),
        (&["partition", xml, "--count"], "unknown option --count"),
        (&["load", xml, store, "--count"], "unknown option --count"),
        (
            &["load", xml, store, "--alg", "dhw", "--stats"],
            "unknown option --stats",
        ),
        (&["load", xml], "missing <store.natix>"),
        (
            &["partition", xml, "--k", "0"],
            "--k expects a positive integer",
        ),
    ] {
        let out = natix(args);
        assert_eq!(code(&out), 2, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "{args:?}"
        );
    }
    assert!(
        !Path::new(store).exists(),
        "a rejected load created a store"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What the batch loader cannot store is an ordinary failure (exit 1
/// with the reason), never a panic: a K no partitioning fits, refused
/// with `natix partition`'s message before the output file exists; a
/// fragment of more than u16::MAX nodes; more than u16::MAX labels.
#[test]
fn load_limits_exit_1_without_a_panic() {
    let dir = tmpdir("load-limits");
    let write = |name: &str, xml: String| {
        let path = dir.join(name);
        std::fs::write(&path, xml).unwrap();
        path.to_str().unwrap().to_string()
    };
    let text = write("text.xml", "<a><b>some text here</b></a>".into());
    let wide = write("wide.xml", format!("<r>{}</r>", "<e/>".repeat(70_000)));
    let names: String = (0..66_000).map(|i| format!("<n{i}/>")).collect();
    let names = write("names.xml", format!("<r>{names}</r>"));
    let store = dir.join("out.natix");
    let store = store.to_str().unwrap();

    let partition = natix(&["partition", &text, "--k", "1"]);
    assert_eq!(code(&partition), 1);
    let out = natix(&["load", &text, store, "--k", "1"]);
    assert_eq!(code(&out), 1);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&partition.stderr)
    );
    assert!(
        !Path::new(store).exists(),
        "an infeasible load created a store"
    );

    for (xml, k, reason) in [
        (&wide, "100000", "fragment larger than u16::MAX nodes"),
        (&names, "256", "label table full"),
    ] {
        let out = natix(&["load", xml, store, "--k", k]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 1, "{xml}: {stderr}");
        assert!(
            stderr.contains(reason) && !stderr.contains("panicked"),
            "{xml}: {stderr}"
        );
        let _ = std::fs::remove_file(store);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// One rule for `soak`/`stress` flags: exactly one campaign per
/// invocation, and a flag the selected row cannot honour is a usage
/// error naming the row. Nothing runs, nothing is printed to stdout.
#[test]
fn campaign_flag_errors_exit_2_and_name_the_row() {
    for (args, needle) in [
        // Two sweeps at once, or half a selector.
        (
            &["soak", "--corruption", "--diskfull"][..],
            "is not one campaign",
        ),
        (
            &["soak", "--quick", "--serve", "--repl"],
            "is not one campaign",
        ),
        (
            &["stress", "--net", "--proxy", "--leak"],
            "is not one campaign",
        ),
        (
            &["stress", "--proxy"],
            "natix stress --proxy is not one campaign",
        ),
        // --runs counts interleavings: the chaos row only.
        (&["soak", "--runs", "3"], "natix soak takes no --runs"),
        (
            &["stress", "--net", "--runs", "3"],
            "natix stress --net takes no --runs",
        ),
        // --seed on a row that has none used to be ignored silently.
        (
            &["soak", "--bulkload", "--seed", "7"],
            "natix soak --bulkload takes no --seed",
        ),
        // The BENCH_serve.json writer is gone, and with it the flag.
        (
            &["stress", "--net", "--quick", "--json", "out.json"],
            "unknown option --json",
        ),
        (&["stress", "--json", "out.json"], "unknown option --json"),
        // A selector of the other verb is no option of this one.
        (&["soak", "--net"], "unknown option --net"),
        (&["stress", "--replay", "x"], "unknown option --replay"),
        // A replay runs the script's own row and tier.
        (
            &["soak", "--replay", "x", "--quick"],
            "unknown option --quick",
        ),
        (&["stress", "--seed"], "missing value for --seed"),
        (
            &["stress", "--runs", "many"],
            "--runs expects a positive integer",
        ),
    ] {
        let out = natix(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
    assert!(!Path::new("out.json").exists());
}

/// The store verbs refuse arguments they do not know before they read
/// the store: a misspelt `--count` used to print every hit.
#[test]
fn store_verb_option_errors_exit_2_before_any_output() {
    let dir = tmpdir("store-flags");
    let store = build_store(&dir);
    let before = std::fs::read(&store).unwrap();
    for (args, needle) in [
        (&["query", &store, "//e", "--cuont"][..], "unknown option"),
        (
            &["query", &store, "//e", "--count", "extra"],
            "unknown option",
        ),
        (&["stats", &store, "--frobnicate"], "unknown option"),
        (&["dump", &store, "--frobnicate"], "unknown option"),
        (&["fsck", &store, "--frobnicate"], "unknown option"),
        (
            &["query", &store, "//e", "--pool-pages", "0"],
            "--pool-pages expects a positive integer",
        ),
    ] {
        let out = natix(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    assert!(
        std::fs::read(&store).unwrap() == before,
        "a refused verb wrote"
    );
    let out = natix(&["query", &store, "//e", "--count"]);
    assert_eq!(code(&out), 0);
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The daemon, client and collection verbs refuse an unknown option —
/// `serve --queue-depth`/`--read-budget` and `net dump --degraded`, which
/// older scripts may still pass, among them — with the usage code before
/// they bind, connect or open anything (the store and the port below do
/// not exist). So are a malformed or out-of-range value, a flag or word
/// another `net` verb takes, and `bulkload --input` with the synthetic
/// corpus's `--docs`/`--seed`: no OS error shows, so nothing was opened
/// or connected to.
#[test]
fn daemon_and_collection_option_errors_exit_2_before_anything_opens() {
    let dir = tmpdir("verb-flags");
    let missing = dir.join("missing.natix");
    let missing = missing.to_str().unwrap();
    let coll = dir.join("coll");
    let coll = coll.to_str().unwrap();
    let xml = dir.join("doc.xml");
    std::fs::write(&xml, "<list><e>alpha</e></list>").unwrap();
    let xml = xml.to_str().unwrap();
    let positive = "expects a positive integer";
    for (args, needle) in [
        (
            &["serve", missing, "--queue-depth", "4"][..],
            "unknown option",
        ),
        (&["serve", missing, "--read-budget", "1"], "unknown option"),
        (
            &["net", "127.0.0.1:9", "dump", "--degraded"],
            "unknown option",
        ),
        (&["bulkload", coll, "--frobnicate"], "unknown option"),
        (
            &["collection", "fsck", coll, "--frobnicate"],
            "unknown option",
        ),
        (
            &["collection", "stats", coll, "--frobnicate"],
            "unknown option",
        ),
        (
            &["collection", "dump", coll, "0", "--frobnicate"],
            "unknown option",
        ),
        (&["serve", missing, "--workers", "abc"], positive),
        (&["serve", missing, "--workers", "0"], positive),
        (
            &["bulkload", coll, "--docs", "abc"],
            "expects a non-negative integer",
        ),
        (&["bulkload", coll, "--shards", "0"], positive),
        (
            &["collection", "dump", coll, "abc"],
            "expects a non-negative integer",
        ),
        (
            &["net", "127.0.0.1:9", "ping", "--pins", "2"],
            "unknown option --pins",
        ),
        (
            &["net", "127.0.0.1:9", "ping", "extra"],
            "unknown option extra",
        ),
        (
            &["net", "127.0.0.1:9", "ping", "--count"],
            "unknown option --count",
        ),
        (
            &["net", "127.0.0.1:9", "stats", "--retries", "3"],
            "unknown option --retries",
        ),
        // 2^32 + 1 shards used to wrap to one.
        (
            &["bulkload", coll, "--shards", "4294967297"],
            "out of range",
        ),
        (
            &[
                "bulkload", coll, "--input", xml, "--docs", "5", "--seed", "3",
            ],
            "with --input the corpus is the files",
        ),
    ] {
        let out = natix(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed something");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("os error"), "{args:?}: {stderr}");
    }
    assert!(!Path::new(coll).exists(), "a rejected bulkload wrote");
    assert!(
        !Path::new(missing).exists(),
        "a rejected serve created a store"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_store_exits_5() {
    let dir = tmpdir("io");
    let ghost = dir.join("does-not-exist.natix");
    let out = natix(&["query", ghost.to_str().unwrap(), "//e"]);
    assert_eq!(
        code(&out),
        5,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_store_exits_4() {
    let dir = tmpdir("corrupt");
    let store = build_store(&dir);
    // Zero out page 1 (the first data page after the header page) so
    // fsck trips a checksum failure.
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(&store)
        .unwrap();
    f.seek(SeekFrom::Start(8192)).unwrap();
    f.write_all(&[0u8; 8192]).unwrap();
    f.sync_all().unwrap();
    drop(f);
    let out = natix(&["fsck", &store]);
    assert_eq!(
        code(&out),
        4,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn format_2_store_exits_4_and_is_left_alone() {
    foreign_format_store_exits_4_and_is_left_alone('2');
}

#[test]
fn format_3_store_exits_4_and_is_left_alone() {
    foreign_format_store_exits_4_and_is_left_alone('3');
}

fn foreign_format_store_exits_4_and_is_left_alone(digit: char) {
    let dir = tmpdir(&format!("v{digit}"));
    let store = build_store(&dir);
    // Turn the winning header (epoch 1, page 1) into the other format's:
    // its magic, and the store's FNV-style sum over the first 52 bytes
    // redone to match (a slot whose checksum fails is a torn slot,
    // whatever its magic says).
    let mut bytes = std::fs::read(&store).unwrap();
    let slot = &mut bytes[8192..8192 + 60];
    slot[7] = digit as u8;
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &slot[..52] {
        sum = (sum ^ u64::from(b)).wrapping_mul(0x1_0000_0000_01b3);
    }
    slot[52..60].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&store, &bytes).unwrap();
    let before = std::fs::read(&store).unwrap();

    for args in [
        &["dump", &store][..],
        &["query", &store, "//e"],
        &["fsck", &store],
        &["fsck", &store, "--repair"],
    ] {
        let out = natix(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            code(&out),
            4,
            "{args:?}\nstdout: {stdout}\nstderr: {stderr}"
        );
        if args[0] == "fsck" {
            assert!(stdout.contains("code=unsupported-format"), "{stdout}");
        } else {
            let named = format!("unsupported store format {digit}");
            assert!(stderr.contains(&named), "{args:?}: {stderr}");
        }
        assert!(std::fs::read(&store).unwrap() == before, "{args:?} wrote");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

struct ServerGuard {
    child: Child,
    addr: String,
    // Keeps the stdout pipe's read end open so the daemon's own status
    // prints never hit a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = natix(&["net", &self.addr, "shutdown"]);
        let _ = self.child.wait();
    }
}

fn spawn_server(store: &str, max_pins: &str) -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_natix"))
        .args([
            "serve",
            store,
            "--addr",
            "127.0.0.1:0",
            "--max-pins",
            max_pins,
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    let addr = line
        .rsplit("listening on ")
        .next()
        .expect("banner format")
        .trim()
        .to_string();
    assert!(addr.contains(':'), "bad banner line: {line:?}");
    ServerGuard {
        child,
        addr,
        _stdout: reader,
    }
}

#[test]
fn shed_with_exhausted_retries_exits_3() {
    let dir = tmpdir("shed");
    let store = build_store(&dir);
    let server = spawn_server(&store, "1");

    // A healthy request works over the wire (exit 0).
    let out = natix(&["net", &server.addr, "query", "//e", "--count"]);
    assert_eq!(
        code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");

    // Success path of the backpressure round trip: the shed-probe verb
    // saturates the single pin, observes a retry-after, then releases
    // and is admitted.
    let probe = natix(&["net", &server.addr, "shed-probe", "--pins", "1"]);
    assert_eq!(
        code(&probe),
        0,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&probe.stdout),
        String::from_utf8_lossy(&probe.stderr)
    );
    let probe_out = String::from_utf8_lossy(&probe.stdout);
    assert!(probe_out.contains("shed observed"), "{probe_out}");
    assert!(probe_out.contains("read shed observed"), "{probe_out}");
    assert!(probe_out.contains("retry honored"), "{probe_out}");

    // Failure path: saturate the pin from a helper thread holding a raw
    // session open, then ask for another with a tiny retry budget.
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let addr = server.addr.clone();
    let holder = std::thread::spawn(move || {
        // Sustained hold: keep a pinned session open until signalled.
        // The shed-probe process above may not have had its sessions
        // reaped yet, so honor retry-after hints while acquiring.
        let mut c = natix_server::Client::connect(addr.as_str()).expect("connect");
        let (resp, _) = c
            .request_retry(&natix_server::Request::Begin, 200)
            .expect("begin holds the only pin");
        assert!(matches!(
            resp.body,
            natix_server::ResponseBody::SessionPinned
        ));
        rx.recv().ok();
        drop(c);
    });
    // Wait for the holder to have the pin: poll until a Begin sheds.
    let mut saturated = false;
    for _ in 0..100 {
        let mut c = natix_server::Client::connect(server.addr.as_str()).expect("connect");
        match c
            .request(&natix_server::Request::Begin)
            .expect("begin")
            .body
        {
            natix_server::ResponseBody::RetryAfter { .. } => {
                saturated = true;
                break;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    assert!(saturated, "holder never pinned the session");

    // With the only admission slot pinned, an ad-hoc query keeps
    // getting retry-after; a tiny retry budget runs out of patience and
    // must exit with the shed code.
    let out = natix(&[
        "net",
        &server.addr,
        "query",
        "//e",
        "--count",
        "--retries",
        "2",
    ]);
    assert_eq!(
        code(&out),
        3,
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("overloaded"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    tx.send(()).unwrap();
    holder.join().unwrap();
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}
