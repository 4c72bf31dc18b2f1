//! End-to-end tests of the `natix serve` daemon over real sockets:
//! verb round trips, graceful shutdown, protocol abuse (malformed
//! frames, bad lengths, mid-frame disconnects, randomized frame
//! mutations), the backpressure round trip, and a miniature
//! concurrent-client soak asserting snapshot isolation at the wire.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use natix_core::Ekm;
use natix_server::wire::{read_frame, write_frame, OP_SHUTDOWN};
use natix_server::{
    serve, Client, ErrKind, Request, Response, ResponseBody, ServeConfig, ServerHandle, ShedKind,
};
use natix_store::{bulkload_with, FilePager, StoreConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED_XML: &str = "<list><e>one entry of text</e><e>two entry of text</e>\
                        <e>three entry of text</e></list>";

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("natix-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_store(dir: &Path) -> PathBuf {
    build_store_of(dir, SEED_XML)
}

fn build_store_of(dir: &Path, xml: &str) -> PathBuf {
    let path = dir.join("store.natix");
    let doc = natix_xml::parse(xml).unwrap();
    let pager = FilePager::create(&path).unwrap();
    drop(bulkload_with(&doc, &Ekm, 16, Box::new(pager), StoreConfig::default()).unwrap());
    path
}

fn start(store: PathBuf, tweak: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    let mut config = ServeConfig {
        store,
        workers: 3,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    // Even an ephemeral-port bind can transiently fail with AddrInUse
    // when parallel test binaries churn through the port range; retry a
    // bounded number of times before declaring the environment broken.
    let mut last = None;
    for attempt in 0..10 {
        match serve(config.clone()) {
            Ok(handle) => return handle,
            Err(natix_server::ServeError::Bind(io))
                if io.kind() == std::io::ErrorKind::AddrInUse =>
            {
                std::thread::sleep(std::time::Duration::from_millis(25 * (attempt + 1)));
                last = Some(io);
            }
            Err(e) => panic!("serve: {e}"),
        }
    }
    panic!("bind kept failing with AddrInUse after 10 attempts: {last:?}")
}

/// Every verb round-trips, an update is visible to a later query, and a
/// wire-initiated shutdown drains cleanly with zero worker panics.
#[test]
fn verbs_round_trip_and_graceful_shutdown() {
    let dir = scratch_dir("verbs");
    let handle = start(build_store(&dir), |_| {});
    let mut c = Client::connect(handle.addr()).unwrap();

    let epoch0 = c.ping().unwrap();
    let (qe, count, lines) = c.query("//e").unwrap();
    assert_eq!(count, 3);
    assert_eq!(lines, vec!["<e>"; 3]);
    assert!(qe >= epoch0);

    let (_, xml) = c.dump().unwrap();
    assert_eq!(xml, natix_xml::parse(SEED_XML).unwrap().to_xml());

    let stats = c.stats().unwrap();
    assert!(stats.contains("epoch"), "{stats}");
    assert!(stats.contains("snapshots"), "{stats}");

    let (clean, report) = c.fsck().unwrap();
    assert!(clean, "{report}");

    // Update through the wire, observed by a later query on the same
    // connection at a strictly newer epoch.
    let resp = c
        .request(&Request::Update {
            target: "/list".to_string(),
            op: natix_server::UpdateOp::AppendElement {
                name: "fresh".to_string(),
            },
        })
        .unwrap();
    assert_eq!(resp.body, ResponseBody::UpdateDone);
    assert!(resp.epoch > epoch0);
    let (_, count, _) = c.query("//fresh").unwrap();
    assert_eq!(count, 1);

    // A bad XPath is a typed BadRequest, not a dropped connection.
    let resp = c
        .request(&Request::Query {
            xpath: "///".to_string(),
            count_only: true,
        })
        .unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::BadRequest,
                ..
            }
        ),
        "{resp:?}"
    );
    // ... and an update matching nothing reports InvalidUpdate.
    let resp = c
        .request(&Request::Update {
            target: "//absent".to_string(),
            op: natix_server::UpdateOp::DeleteSubtree,
        })
        .unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::InvalidUpdate,
                ..
            }
        ),
        "{resp:?}"
    );

    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    assert_eq!(summary.proto_errors, 0, "{summary}");
    assert!(summary.ok >= 8, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Session pins hold their epoch: a pinned connection keeps seeing the
/// begin-time document while another connection commits updates.
#[test]
fn session_pin_isolates_from_concurrent_commits() {
    let dir = scratch_dir("pin");
    let handle = start(build_store(&dir), |_| {});

    let mut reader = Client::connect(handle.addr()).unwrap();
    let pinned_epoch = reader.begin().unwrap();
    let (_, before_xml) = reader.dump().unwrap();

    let mut writer = Client::connect(handle.addr()).unwrap();
    for i in 0..3 {
        let resp = writer
            .request(&Request::Update {
                target: "/list".to_string(),
                op: natix_server::UpdateOp::AppendText {
                    text: format!("wire payload number {i}"),
                },
            })
            .unwrap();
        assert_eq!(resp.body, ResponseBody::UpdateDone, "update {i}");
    }

    // The pinned reader still serves its epoch ...
    let (e, xml) = reader.dump().unwrap();
    assert_eq!(e, pinned_epoch);
    assert_eq!(xml, before_xml);
    // ... and after releasing the pin it sees the new state.
    reader.end().unwrap();
    let (e2, xml2) = reader.dump().unwrap();
    assert!(e2 > pinned_epoch);
    assert!(xml2.contains("wire payload number 2"));

    reader.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A malformed body is answered with a typed protocol error and the
/// connection keeps working; an undelimitable length prefix is answered
/// and then the connection is closed.
#[test]
fn malformed_frames_get_typed_errors() {
    let dir = scratch_dir("malformed");
    let handle = start(build_store(&dir), |_| {});

    // Unknown opcode: typed error, connection survives.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut s, &[0xEE]).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::Proto,
                ..
            }
        ),
        "{resp:?}"
    );
    write_frame(&mut s, &Request::Ping.encode()).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert_eq!(resp.body, ResponseBody::Pong, "connection must survive");

    // Oversized length prefix: typed error, then close.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let resp = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(
        matches!(
            &resp.body,
            ResponseBody::Error {
                kind: ErrKind::Proto,
                ..
            }
        ),
        "{resp:?}"
    );
    assert!(
        matches!(read_frame(&mut s), Err(natix_server::ProtoError::Closed)),
        "server must close after an undelimitable prefix"
    );

    // Mid-frame disconnect: claim 100 bytes, send 10, hang up. The
    // server must shrug it off and keep serving.
    let mut s = TcpStream::connect(handle.addr()).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[7u8; 10]).unwrap();
    drop(s);

    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.ping().is_ok());
    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    assert!(summary.proto_errors >= 2, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Randomized network fuzz: mutations and truncations of valid frames,
/// plus raw byte soup, sent over real connections. Every exchange ends
/// in a typed response or a clean close — the server never panics and
/// still serves valid traffic afterwards.
#[test]
fn fuzzed_frames_never_kill_the_server() {
    let dir = scratch_dir("fuzz");
    let handle = start(build_store(&dir), |_| {});
    let mut rng = StdRng::seed_from_u64(0xF0A2);

    let valid: Vec<Vec<u8>> = vec![
        Request::Ping.encode(),
        Request::Query {
            xpath: "//e".to_string(),
            count_only: false,
        }
        .encode(),
        Request::Dump.encode(),
        Request::Stats.encode(),
        Request::Fsck.encode(),
        Request::Begin.encode(),
        Request::End.encode(),
        Request::Update {
            target: "/list".to_string(),
            op: natix_server::UpdateOp::AppendElement {
                name: "fz".to_string(),
            },
        }
        .encode(),
    ];

    let mut conn = TcpStream::connect(handle.addr()).unwrap();
    for round in 0..300 {
        let mut body = valid[rng.gen_range(0..valid.len())].clone();
        match rng.gen_range(0..4u8) {
            0 => {
                // Flip 1..4 bytes.
                for _ in 0..rng.gen_range(1..4u8) {
                    let i = rng.gen_range(0..body.len());
                    body[i] = rng.gen_range(0..=255u8);
                }
            }
            1 => {
                // Truncate.
                let keep = rng.gen_range(0..body.len());
                body.truncate(keep.max(1));
            }
            2 => {
                // Raw byte soup.
                body = (0..rng.gen_range(1..48usize))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect();
            }
            _ => {} // leave valid
        }
        // A mutation may fabricate the shutdown opcode; skip those so the
        // fuzz loop keeps a live server to abuse.
        if body[0] == OP_SHUTDOWN {
            continue;
        }
        write_frame(&mut conn, &body).unwrap();
        match read_frame(&mut conn) {
            Ok(frame) => {
                // Whatever came back must at least be a decodable
                // response; content is free.
                Response::decode(&frame)
                    .unwrap_or_else(|e| panic!("round {round}: undecodable response: {e}"));
            }
            Err(_) => {
                // Clean close (or reset) — reconnect and go on.
                conn = TcpStream::connect(handle.addr()).unwrap();
            }
        }
    }

    // The server is still healthy.
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.ping().is_ok());
    let (clean, report) = c.fsck().unwrap();
    assert!(clean, "store must stay consistent under fuzz:\n{report}");
    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The backpressure round trip. Saturate the pin budget and the next
/// session, and the next unpinned read, get a typed retry-after (not a
/// hang, not a reset, never an unpinned read); honoring the hint after a
/// pin frees succeeds.
#[test]
fn backpressure_round_trip() {
    let dir = scratch_dir("backpressure");
    let handle = start(build_store(&dir), |c| {
        c.max_pins = 2;
    });

    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    a.begin().unwrap();
    b.begin().unwrap();

    // Budget exhausted: a typed retry-after with a usable hint.
    let resp = c.request(&Request::Begin).unwrap();
    match &resp.body {
        ResponseBody::RetryAfter { millis, what, .. } => {
            assert!(*millis > 0, "{resp:?}");
            assert!(!what.is_empty(), "{resp:?}");
        }
        other => panic!("expected RetryAfter, got {other:?}"),
    }

    // An unpinned read needs a pin of its own: it is shed the same way.
    let resp = c.request(&Request::Dump).unwrap();
    match &resp.body {
        ResponseBody::RetryAfter { kind, millis, what } => {
            assert_eq!(*kind, ShedKind::Overloaded, "{resp:?}");
            assert!(*millis > 0, "{resp:?}");
            assert_eq!(what, "read", "{resp:?}");
        }
        other => panic!("expected RetryAfter, got {other:?}"),
    }

    // Release one pin; a client that honors retry-after gets through.
    a.end().unwrap();
    let (resp, _retries) = c.request_retry(&Request::Dump, 50).unwrap();
    assert_eq!(
        resp.body,
        ResponseBody::DumpResult {
            xml: natix_xml::parse(SEED_XML).unwrap().to_xml()
        }
    );
    let (resp, _retries) = c.request_retry(&Request::Begin, 50).unwrap();
    assert_eq!(resp.body, ResponseBody::SessionPinned);

    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.shed, 2, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite (miniature soak): concurrent reader clients race a writer
/// over the wire. Every response is consistent with exactly one
/// committed epoch — equal-epoch dumps hash identically, per-connection
/// epochs never regress — and the store fscks clean afterwards.
#[test]
fn concurrent_clients_observe_single_epoch_states() {
    let dir = scratch_dir("soak-mini");
    let handle = start(build_store(&dir), |_| {});
    let addr = handle.addr();

    let readers: Vec<_> = (0..3)
        .map(|r| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut last_epoch = 0u64;
                let mut dumps: Vec<(u64, u64)> = Vec::new();
                for _ in 0..15 {
                    let (resp, _) = c.request_retry(&Request::Dump, 50).unwrap();
                    let ResponseBody::DumpResult { xml } = &resp.body else {
                        panic!("reader {r}: {resp:?}");
                    };
                    assert!(
                        resp.epoch >= last_epoch,
                        "epoch regressed on one connection"
                    );
                    last_epoch = resp.epoch;
                    let mut h = DefaultHasher::new();
                    xml.hash(&mut h);
                    dumps.push((resp.epoch, h.finish()));

                    let (resp, _) = c
                        .request_retry(
                            &Request::Query {
                                xpath: "//e".to_string(),
                                count_only: true,
                            },
                            50,
                        )
                        .unwrap();
                    assert!(
                        matches!(&resp.body, ResponseBody::QueryResult { .. }),
                        "reader {r}: {resp:?}"
                    );
                }
                dumps
            })
        })
        .collect();

    let mut w = Client::connect(addr).unwrap();
    for i in 0..12 {
        let (resp, _) = w
            .request_retry(
                &Request::Update {
                    target: "/list".to_string(),
                    op: natix_server::UpdateOp::AppendText {
                        text: format!("soak payload number {i}"),
                    },
                },
                50,
            )
            .unwrap();
        assert_eq!(resp.body, ResponseBody::UpdateDone, "update {i}: {resp:?}");
    }

    // Exactly one document hash per committed epoch, across all clients.
    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    for t in readers {
        for (epoch, hash) in t.join().unwrap() {
            if let Some(prev) = by_epoch.insert(epoch, hash) {
                assert_eq!(
                    prev, hash,
                    "two clients saw different documents at epoch {epoch}"
                );
            }
        }
    }
    assert!(!by_epoch.is_empty());

    let (clean, report) = w.fsck().unwrap();
    assert!(clean, "{report}");
    w.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The number in front of `what` on the stats line labelled `line`.
fn gauge(stats: &str, line: &str, what: &str) -> u64 {
    let row = stats
        .lines()
        .find(|l| l.trim_start().starts_with(line))
        .unwrap_or_else(|| panic!("no {line} line in {stats}"));
    let words: Vec<&str> = row.split(&[' ', ','][..]).collect();
    let at = words.iter().position(|w| *w == what).expect(what);
    words[at - 1].parse().expect("number")
}

/// A session that goes idle past its lease TTL has its pin reaped: the
/// freed slot admits another client, the leaker's next request gets the
/// typed session-expired answer exactly once, and a fresh `begin` on the
/// same connection recovers it.
#[test]
fn expired_lease_frees_the_pin_and_answers_typed() {
    let dir = scratch_dir("lease");
    let handle = start(build_store(&dir), |c| {
        c.max_pins = 1;
        c.lease_ttl_ms = 200;
    });

    let mut leaker = Client::connect(handle.addr()).unwrap();
    leaker.begin().unwrap();

    // The only pin slot is held: a second session sheds.
    let mut other = Client::connect(handle.addr()).unwrap();
    let resp = other.request(&Request::Begin).unwrap();
    assert!(
        matches!(&resp.body, ResponseBody::RetryAfter { .. }),
        "{resp:?}"
    );

    // Let the lease lapse (TTL + reaper ticks), then the slot is free.
    std::thread::sleep(std::time::Duration::from_millis(450));
    other.begin().unwrap();
    other.end().unwrap();

    // The leaker is told once, typed; afterwards the connection works
    // normally and can re-pin.
    match leaker.query("//e") {
        Err(natix_server::ClientError::SessionExpired) => {}
        other => panic!("expected the typed session-expired answer, got {other:?}"),
    }
    let (_, count, _) = leaker.query("//e").unwrap();
    assert_eq!(count, 3, "connection must keep working after the notice");
    leaker.begin().unwrap();
    leaker.end().unwrap();

    leaker.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.lease_expirations, 1, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");
    assert_eq!(summary.proto_errors, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: shutdown racing an expired lease. The reaper releases the
/// overdue pin; the shutdown drain must not release it a second time —
/// pin accounting stays exact (no underflow in the active-snapshot
/// gauge), the drain completes, and the store scrubs clean afterwards.
#[test]
fn shutdown_does_not_double_release_a_reaped_pin() {
    let dir = scratch_dir("lease-race");
    let store = build_store(&dir);
    let handle = start(store.clone(), |c| {
        c.lease_ttl_ms = 150;
    });

    let mut leaker = Client::connect(handle.addr()).unwrap();
    leaker.begin().unwrap();
    // Reaped while idle.
    std::thread::sleep(std::time::Duration::from_millis(350));

    // A store-touching request processes the reaper's deferred release;
    // the gauge must come back to a sane small number (an over-release
    // would underflow it) and no session may still be pinned.
    let mut probe = Client::connect(handle.addr()).unwrap();
    probe.begin().unwrap();
    probe.end().unwrap();
    let stats = probe.stats().unwrap();
    assert!(stats.contains("0 session-pinned"), "{stats}");
    assert!(gauge(&stats, "snapshots", "active") <= 1, "{stats}");

    // Shutdown immediately after: the drain clears a session table that
    // no longer holds the reaped pin.
    probe.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.lease_expirations, 1, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");

    // The drain's deferred maintenance ran on exact pin accounting: the
    // store file reopens and scrubs clean.
    let report = natix_store::fsck(&store, false);
    assert!(report.clean(), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Poll the stats verb until `ready` holds (the conditions below are
/// all reached by the server on its own; the deadline only bounds a
/// failing run).
fn await_stats(c: &mut Client, what: &str, ready: impl Fn(&str) -> bool) -> String {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let stats = c.stats().unwrap();
        if ready(&stats) {
            return stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "never saw {what}: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// A flat list wide enough that [`SLOW_QUERY`] — quadratic in the
/// number of siblings — stays in flight for over a second, in either
/// build profile. The comparison matches nothing, so each `e` has to look
/// at every sibling after it (as a *step*, `following-sibling::e` stops
/// at the first sibling an earlier context already reached, and the
/// whole query is linear).
const SLOW_SIBLINGS: usize = if cfg!(debug_assertions) { 1500 } else { 5000 };
const SLOW_QUERY: &str = "/list/e[following-sibling::e = 'x' or following-sibling::e]";

fn build_slow_store(dir: &Path) -> PathBuf {
    build_store_of(
        dir,
        &format!("<list>{}</list>", "<e/>".repeat(SLOW_SIBLINGS)),
    )
}

fn slow_request() -> Request {
    Request::Query {
        xpath: SLOW_QUERY.to_string(),
        count_only: true,
    }
}

fn slow_count(c: &mut Client) -> Response {
    c.request(&slow_request()).unwrap()
}

/// Tentpole (a): unpinned reads evaluated on four workers race fifty
/// commits. A response's body is the model document of the epoch it
/// carries — every update acked at or below that epoch is in it, at
/// most the one being committed beyond them, equal epochs read equal
/// documents on every connection — epochs never regress on a
/// connection, and no pin survives the drain.
#[test]
fn parallel_unpinned_reads_match_the_model_of_their_epoch() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const UPDATES: usize = 50;
    let dir = scratch_dir("parallel");
    let handle = start(build_store(&dir), |c| c.workers = 6);
    let addr = handle.addr();
    // The model after `k` updates, as the server dumps it.
    let model = |k: usize| {
        let added: String = (0..k).map(|i| format!("<u{i}/>")).collect();
        natix_xml::parse(&SEED_XML.replace("</list>", &format!("{added}</list>")))
            .unwrap()
            .to_xml()
    };
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let done = std::sync::Arc::clone(&done);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut seen: Vec<(u64, usize)> = Vec::new();
                let mut turn = r;
                while !done.load(Ordering::SeqCst) || seen.len() < 8 {
                    turn += 1;
                    let (epoch, k) = if turn % 2 == 0 {
                        let (epoch, xml) = c.dump().unwrap();
                        let k = xml.matches("<u").count();
                        assert_eq!(xml, model(k), "reader {r}: no prefix of the updates");
                        (epoch, k)
                    } else {
                        let (epoch, count, lines) = c.query("/list/*").unwrap();
                        let k = count as usize - 3;
                        let mut want = vec!["<e>".to_string(); 3];
                        want.extend((0..k).map(|i| format!("<u{i}>")));
                        assert_eq!(lines, want, "reader {r}");
                        (epoch, k)
                    };
                    if let Some(&(last, _)) = seen.last() {
                        assert!(epoch >= last, "reader {r}: epoch regressed");
                    }
                    seen.push((epoch, k));
                }
                seen
            })
        })
        .collect();

    let mut w = Client::connect(addr).unwrap();
    let mut acked = Vec::new();
    for i in 0..UPDATES {
        let resp = w
            .request(&Request::Update {
                target: "/list".to_string(),
                op: natix_server::UpdateOp::AppendElement {
                    name: format!("u{i}"),
                },
            })
            .unwrap();
        assert_eq!(resp.body, ResponseBody::UpdateDone, "update {i}");
        acked.push(resp.epoch);
    }
    done.store(true, Ordering::SeqCst);

    let mut by_epoch: HashMap<u64, usize> = HashMap::new();
    for t in readers {
        for (epoch, k) in t.join().unwrap() {
            // Update i committed somewhere in (acked[i-1], acked[i]].
            let visible = acked.iter().filter(|&&e| e <= epoch).count();
            let begun = acked.iter().filter(|&&e| e < epoch).count() + 1;
            assert!(
                visible <= k && k <= begun,
                "epoch {epoch} read {k} updates, acks allow {visible}..={begun}"
            );
            assert_eq!(
                *by_epoch.entry(epoch).or_insert(k),
                k,
                "two documents at epoch {epoch}"
            );
        }
    }

    let stats = w.stats().unwrap();
    assert_eq!(gauge(&stats, "snapshots", "active"), 0, "{stats}");
    assert_eq!(gauge(&stats, "reads", "in"), 0, "{stats}");
    w.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics + summary.errors, 0, "{summary}");
    assert_eq!(summary.reads_in_flight, 0, "{summary}");
    assert!(summary.peak_reads_in_flight >= 1, "{summary}");
    let report = natix_store::fsck(&dir.join("store.natix"), false);
    assert!(report.clean(), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tentpole (b): a session whose lease runs out while its read is in
/// flight keeps its pin until the read is back — and loses it then.
#[test]
fn lease_is_not_reaped_under_a_read_in_flight() {
    const TTL_MS: u64 = 100;
    let dir = scratch_dir("lease-read");
    let handle = start(build_slow_store(&dir), |c| c.lease_ttl_ms = TTL_MS);
    let addr = handle.addr();

    let reader = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let pinned = c.begin().unwrap();
        (slow_count(&mut c), pinned, c)
    });
    // The read is in flight, its lease long overdue, its pin still held.
    let mut observer = Client::connect(addr).unwrap();
    let overdue = await_stats(&mut observer, "an overdue read in flight", |s| {
        gauge(s, "reads", "in") == 1 && gauge(s, "pins", "ms") >= 3 * TTL_MS
    });
    assert_eq!(gauge(&overdue, "pins", "session-pinned"), 1, "{overdue}");
    assert_eq!(gauge(&overdue, "leases", "expired"), 0, "{overdue}");

    let (resp, pinned, mut c) = reader.join().unwrap();
    let pairs = (SLOW_SIBLINGS - 1) as u32;
    assert_eq!(
        resp.body,
        ResponseBody::QueryResult {
            count: pairs,
            lines: vec![]
        }
    );
    assert_eq!(resp.epoch, pinned);
    // Back with the service, the overdue lease is fair game.
    let reaped = await_stats(&mut observer, "the lease reaped", |s| {
        gauge(s, "leases", "expired") == 1
    });
    assert_eq!(gauge(&reaped, "pins", "session-pinned"), 0, "{reaped}");
    assert_eq!(gauge(&reaped, "reads", "in"), 0, "{reaped}");
    match c.query("//e") {
        Err(natix_server::ClientError::SessionExpired) => {}
        other => panic!("expected the typed session-expired answer, got {other:?}"),
    }

    c.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.lease_expirations, 1, "{summary}");
    assert_eq!(summary.worker_panics, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: a client that hangs up while its unpinned read is being
/// evaluated does not take the lent pin with it.
#[test]
fn hung_up_client_returns_its_lent_pin() {
    let dir = scratch_dir("hangup");
    let handle = start(build_slow_store(&dir), |_| {});
    let mut gone = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut gone, &slow_request().encode()).unwrap();
    let mut observer = Client::connect(handle.addr()).unwrap();
    let busy = await_stats(&mut observer, "the read in flight", |s| {
        gauge(s, "reads", "in") == 1
    });
    assert_eq!(gauge(&busy, "snapshots", "active"), 1, "{busy}");
    drop(gone);
    await_stats(&mut observer, "the pin back", |s| {
        gauge(s, "reads", "in") == 0 && gauge(s, "snapshots", "active") == 0
    });
    observer.shutdown_server().unwrap();
    let summary = handle.join();
    assert_eq!(summary.worker_panics + summary.errors, 0, "{summary}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tentpole (c): with three reads in flight — one pinned, one unpinned, one whose
/// client has hung up — `shutdown` answers the two that can still be
/// answered, in full, and only then lets go of the pins.
#[test]
fn shutdown_answers_reads_in_flight_before_releasing_pins() {
    let dir = scratch_dir("drain-reads");
    let store = build_slow_store(&dir);
    let handle = start(store.clone(), |c| c.workers = 4);
    let addr = handle.addr();

    let readers: Vec<_> = [true, false]
        .into_iter()
        .map(|pin| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                if pin {
                    c.begin().unwrap();
                }
                slow_count(&mut c)
            })
        })
        .collect();
    let mut gone = TcpStream::connect(addr).unwrap();
    write_frame(&mut gone, &slow_request().encode()).unwrap();
    let mut observer = Client::connect(addr).unwrap();
    await_stats(&mut observer, "three reads in flight", |s| {
        gauge(s, "reads", "in") == 3
    });
    drop(gone);
    observer.shutdown_server().unwrap();

    for t in readers {
        let resp = t.join().unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::QueryResult {
                count: (SLOW_SIBLINGS - 1) as u32,
                lines: vec![]
            }
        );
    }
    let summary = handle.join();
    assert_eq!(summary.reads_in_flight, 0, "{summary}");
    assert_eq!(summary.peak_reads_in_flight, 3, "{summary}");
    assert_eq!(summary.worker_panics + summary.errors, 0, "{summary}");
    let report = natix_store::fsck(&store, false);
    assert!(report.clean(), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `serve` reports store-open failures as errors instead of panicking
/// or leaking threads.
#[test]
fn serve_reports_missing_store() {
    let dir = scratch_dir("missing");
    let config = ServeConfig {
        store: dir.join("nope.natix"),
        ..ServeConfig::default()
    };
    match serve(config) {
        Err(natix_server::ServeError::Store(_)) => {}
        other => panic!("expected store error, got {:?}", other.map(|h| h.addr())),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
