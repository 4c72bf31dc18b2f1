//! Client-facing network harnesses over `natix serve`.
//!
//! Three campaigns extend the chaos/stress machinery across the wire:
//!
//! * [`net_load`] (`natix stress --net`) — one closed-loop client
//!   [`fleet`] against an in-process server, larger than its pin budget
//!   at full so admission sheds. Every client checks the snapshot
//!   contract at the wire: reads on a pinned session carry the pin
//!   epoch, every other epoch never regresses, and two clients that
//!   dump the same epoch see byte-identical documents. The same fleet
//!   runs behind a fault proxy for `natix stress --net --proxy`.
//! * [`serve_soak`] (`natix soak --serve`) — a power-cut campaign against
//!   a *child process* running `natix serve`. Reader clients and an
//!   update storm run against the daemon until it is SIGKILLed
//!   mid-storm; the store file is then reopened (running crash
//!   recovery), must pass consistency and fsck, and must contain every
//!   update the server acknowledged — an ack over the wire is a
//!   durability promise. Killing the process (not the machine) means
//!   every completed `write` survives in the page cache, so *any*
//!   resulting file state is a legitimate recovery target and the
//!   assertion is universal, not timing-dependent.
//! * [`lease_leak`] (`natix stress --net --leak`) — one client pins the
//!   only admission slot and goes silent; the lease reaper must
//!   unstarve the others within one TTL.
//!
//! The store builder, the served-store audit and [`ServeChild`] are
//! shared with the replication campaign.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use natix_core::Ekm;
use natix_datagen::{xmark, GenConfig};
use natix_server::{
    serve, Client, ClientError, Request, ResponseBody, ServeConfig, ServeSummary, UpdateOp,
};
use natix_store::{bulkload_with, fsck, FilePager, StoreConfig, XmlStore};
use natix_xml::Document;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{scratch_dir, Plan, Progress, Report};
use crate::proxy::{FaultProxy, ProxyPlan};

// ------------------------------------------------------ shared plumbing

/// Bulkload `doc` under record limit `k` into a fresh store file.
pub(crate) fn build_store(path: &Path, doc: &Document, k: u64) {
    let pager = FilePager::create(path).expect("create store file");
    drop(
        bulkload_with(doc, &Ekm, k, Box::new(pager), StoreConfig::default())
            .expect("bulkload store file"),
    );
}

/// The store a network campaign serves: an XMark document under `dir`.
pub(crate) fn served_store(dir: &Path, scale: f64, seed: u64) -> PathBuf {
    let path = dir.join("served.natix");
    build_store(&path, &xmark(GenConfig { scale, seed }), 128);
    path
}

/// The closing audit of a campaign over an in-process server, on a
/// direct connection: the store must scrub clean, then the daemon is
/// told to drain.
fn scrub_and_stop(addr: SocketAddr, when: &str, failures: &mut Vec<String>) {
    match Client::connect(addr).and_then(|mut c| {
        let r = c.fsck()?;
        c.shutdown_server()?;
        Ok(r)
    }) {
        Ok((true, _)) => {}
        Ok((false, report)) => failures.push(format!("{when} fsck not clean:\n{report}")),
        Err(e) => failures.push(format!("{when} fsck/shutdown: {e}")),
    }
}

/// Note the drained server's counters; a protocol error or a handler
/// panic fails the campaign whatever the clients saw.
fn audit_server(report: &mut Report, server: &ServeSummary) {
    report.notes.push(format!("  server: {server}"));
    if server.proto_errors > 0 || server.worker_panics > 0 {
        report.failures.push(format!(
            "server counted {} protocol error(s) and {} handler panic(s)",
            server.proto_errors, server.worker_panics
        ));
    }
}

/// A spawned `natix serve` child plus its parsed listen address. The
/// stdout pipe's read end stays open for the child's lifetime (dropping
/// it would EPIPE the daemon's own prints); drop kills the child so a
/// failed or panicking round can never leak a daemon.
pub(crate) struct ServeChild {
    pub child: std::process::Child,
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    pub addr: String,
}

impl ServeChild {
    pub fn spawn(bin: &Path, store: &Path, extra: &[String]) -> Result<ServeChild, String> {
        let mut child = std::process::Command::new(bin)
            .arg("serve")
            .arg(store)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut reader = std::io::BufReader::new(stdout);
        let mut banner = String::new();
        if reader.read_line(&mut banner).is_err() || !banner.contains("listening on ") {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("no listen banner, got {banner:?}"));
        }
        let addr = banner
            .rsplit("listening on ")
            .next()
            .unwrap()
            .trim()
            .to_string();
        Ok(ServeChild {
            child,
            _stdout: reader,
            addr,
        })
    }

    /// SIGKILL — a power cut or a failover, not a graceful shutdown.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.kill();
    }
}

// ------------------------------------------------------------ the fleet

/// One closed-loop client fleet against an in-process server.
pub(crate) struct Fleet {
    pub clients: usize,
    /// Requests each client completes (reconnects not counted).
    pub requests: usize,
    /// XMark scale of the served document.
    pub scale: f64,
    /// The server's snapshot-pin budget, its one overload gate.
    pub max_pins: u32,
}

/// What one client of a fleet observed.
#[derive(Default)]
struct Observed {
    completed: u64,
    sheds: u64,
    reconnects: u64,
    /// `(epoch, document hash)` per dump, for cross-client comparison.
    dumps: Vec<(u64, u64)>,
    failures: Vec<String>,
}

/// The one request mix: every verb a client may send, updates included.
fn request(rng: &mut StdRng, id: usize, n: u64) -> Request {
    match rng.gen_range(0..100u32) {
        0..=9 => Request::Ping,
        10..=24 => Request::Begin,
        25..=54 => Request::Query {
            xpath: "//keyword".to_string(),
            count_only: true,
        },
        55..=64 => Request::Dump,
        65..=79 => Request::End,
        80..=84 => Request::Stats,
        85..=87 => Request::Fsck,
        _ => Request::Update {
            target: "/site".to_string(),
            op: UpdateOp::AppendText {
                text: format!("fleet marker {id}.{n}"),
            },
        },
    }
}

/// One client: `requests` requests of the mix at `addr`, re-`begin`ning
/// on an expired lease and, when `reconnect` (a fault proxy tears
/// streams), reconnecting on every torn one. The epoch rule: a read on a
/// pinned session carries the pin epoch, and every other response's
/// epoch never decreases.
fn client(addr: SocketAddr, id: usize, requests: usize, seed: u64, reconnect: bool) -> Observed {
    let mut obs = Observed::default();
    let mut rng = StdRng::seed_from_u64(seed ^ (id as u64) << 32);
    let mut conn: Option<Client> = None;
    let mut pin: Option<u64> = None;
    let mut last = 0u64;
    let mut refused = 0usize;
    while obs.completed < requests as u64 {
        let c = match &mut conn {
            Some(c) => c,
            None => {
                pin = None;
                match Client::connect(addr) {
                    Ok(c) => conn.insert(c),
                    Err(_) if reconnect && refused < 20 * requests => {
                        refused += 1;
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                    Err(e) => {
                        obs.failures.push(format!("client {id}: connect: {e}"));
                        return obs;
                    }
                }
            }
        };
        let req = request(&mut rng, id, obs.completed);
        let resp = match c.request_retry(&req, 200) {
            Ok((resp, retries)) => {
                obs.sheds += retries as u64;
                resp
            }
            Err(ClientError::SessionExpired) => {
                pin = None;
                continue;
            }
            Err(_) if reconnect => {
                conn = None;
                obs.reconnects += 1;
                continue;
            }
            Err(e) => {
                obs.failures
                    .push(format!("client {id}: request {}: {e}", obs.completed));
                return obs;
            }
        };
        match (&resp.body, &req, pin) {
            // Typed lease expiry: the well-behaved path is a fresh
            // begin; not a failure, not a completed request.
            (ResponseBody::SessionExpired, ..) => {
                pin = None;
                continue;
            }
            (ResponseBody::Error { kind, message }, ..) => obs
                .failures
                .push(format!("client {id}: {kind} error on {req:?}: {message}")),
            (_, Request::Query { .. } | Request::Dump, Some(pinned)) if resp.epoch != pinned => {
                obs.failures.push(format!(
                    "client {id}: pinned at epoch {pinned} but {req:?} reported {}",
                    resp.epoch
                ));
            }
            (_, Request::Query { .. } | Request::Dump, Some(_)) => {}
            _ if resp.epoch < last => obs.failures.push(format!(
                "client {id}: epoch regressed {last} -> {} on {req:?}",
                resp.epoch
            )),
            _ => last = resp.epoch,
        }
        match (&req, &resp.body) {
            (Request::Begin, _) => pin = Some(resp.epoch),
            (Request::End, _) => pin = None,
            (_, ResponseBody::DumpResult { xml }) => {
                let mut h = DefaultHasher::new();
                xml.hash(&mut h);
                obs.dumps.push((resp.epoch, h.finish()));
            }
            _ => {}
        }
        obs.completed += 1;
    }
    obs
}

/// Server, optional fault proxy, fleet: every client runs [`client`]
/// through the proxy when there is one. Two clients that dump the same
/// epoch must see the same document. The audit and the shutdown go over
/// a direct connection: the store must scrub clean, and the server must
/// drain within 30 s (a wedged worker would not). The report counts
/// `clients`, `requests`, `sheds` and `reconnects`, plus the proxy's
/// `conns`, `resets`, `stalls` and `bytes`, under `shape`.
pub(crate) fn fleet(
    seed: u64,
    f: Fleet,
    proxy: Option<ProxyPlan>,
    shape: &'static str,
    progress: &mut Progress,
) -> Report {
    progress(&format!(
        "fleet: {} clients x {} requests, xmark scale {}, {} pins, {}",
        f.clients,
        f.requests,
        f.scale,
        f.max_pins,
        match proxy {
            Some(p) => format!("behind a fault proxy (seed {:#x})", p.seed),
            None => "direct".to_string(),
        }
    ));
    let dir = scratch_dir("fleet");
    let handle = serve(ServeConfig {
        store: served_store(&dir, f.scale, seed),
        // One worker per client, and spares for the audit and the
        // connections a torn stream leaves behind.
        workers: f.clients + 2,
        max_pins: f.max_pins,
        ..ServeConfig::default()
    })
    .expect("start fleet server");
    let direct = handle.addr();
    let proxy = proxy.map(|p| FaultProxy::start(direct, p).expect("start fault proxy"));
    let addr = proxy.as_ref().map_or(direct, FaultProxy::addr);
    let reconnect = proxy.is_some();
    let threads: Vec<_> = (0..f.clients)
        .map(|id| std::thread::spawn(move || client(addr, id, f.requests, seed, reconnect)))
        .collect();

    let mut report = Report::new(shape, &[seed]);
    report.add("clients", f.clients as u64);
    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    for t in threads {
        let obs = t.join().expect("fleet client panicked");
        report.add("requests", obs.completed);
        report.add("sheds", obs.sheds);
        report.add("reconnects", obs.reconnects);
        report.failures.extend(obs.failures);
        for (epoch, hash) in obs.dumps {
            if by_epoch
                .insert(epoch, hash)
                .is_some_and(|prev| prev != hash)
            {
                report.failures.push(format!(
                    "two clients saw different documents at epoch {epoch}"
                ));
            }
        }
    }
    if let Some(proxy) = proxy {
        let injected = proxy.stop();
        report.add("conns", injected.connections);
        report.add("resets", injected.resets);
        report.add("stalls", injected.stalls);
        report.add("bytes", injected.forwarded);
    }

    scrub_and_stop(direct, "post-fleet", &mut report.failures);
    let (sum_tx, sum_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = sum_tx.send(handle.join());
    });
    match sum_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(server) => audit_server(&mut report, &server),
        Err(_) => report
            .failures
            .push("server did not drain within 30 s (wedged worker)".to_string()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// `natix stress --net`: one fleet straight at the server — 4 clients of
/// 50 requests at quick (XMark scale 0.005, 64 pins); 16 of 250 at full
/// (0.02), twice as many clients as its 8 pins, so admission sheds.
pub(crate) fn net_load(plan: &Plan, progress: &mut Progress) -> Report {
    let f = plan.tier.pick(
        Fleet {
            clients: 4,
            requests: 50,
            scale: 0.005,
            max_pins: 64,
        },
        Fleet {
            clients: 16,
            requests: 250,
            scale: 0.02,
            max_pins: 8,
        },
    );
    let shape = "{clients} clients, {requests} requests, {sheds} sheds, {failures} failures";
    fleet(plan.seeds[0], f, None, shape, progress)
}

// ----------------------------------------------------------- serve soak

/// `natix soak --serve`: 2 power-cut rounds of 40 offered updates under
/// 2 readers at quick; 8 rounds of 120 under 3 at full.
pub(crate) fn serve_soak(plan: &Plan, progress: &mut Progress) -> Report {
    let (rounds, updates, readers) = plan.tier.pick((2, 40, 2), (8, 120, 3));
    progress(&format!(
        "serve soak: {rounds} power-cut rounds, {updates} updates offered per round, {readers} readers"
    ));
    let mut report = Report::new(
        "{rounds} rounds, {acked updates} acked updates, {recovered} recovered, \
         {failures} failures",
        &plan.seeds,
    );
    for round in 0..rounds {
        let (acked, recovered) = soak_round(
            plan.server_bin(),
            plan.seeds[0],
            round,
            updates,
            readers,
            &mut report.failures,
        );
        report.add("rounds", 1);
        report.add("acked updates", acked);
        report.add("recovered", recovered);
    }
    report
}

/// One round: spawn the daemon, load it, SIGKILL it mid-storm at a
/// seeded point, then recover the store file and audit the acks.
fn soak_round(
    server_bin: &Path,
    seed: u64,
    round: usize,
    updates_per_round: usize,
    reader_count: usize,
    failures: &mut Vec<String>,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9E37_79B9));
    let dir = scratch_dir(&format!("serve-{round}"));
    let store = dir.join("soak.natix");
    let doc = natix_xml::parse("<list><e>one entry of text</e><e>two entry of text</e></list>")
        .expect("seed doc");
    build_store(&store, &doc, 16);

    let mut daemon = match ServeChild::spawn(server_bin, &store, &[]) {
        Ok(d) => d,
        Err(e) => {
            failures.push(format!("round {round}: {e}"));
            return (0, 0);
        }
    };
    let addr = daemon.addr.clone();

    // Reader clients exercise the snapshot contract until the kill.
    let stop = Arc::new(AtomicBool::new(false));
    let reader_failures = Arc::new(Mutex::new(Vec::<String>::new()));
    let readers: Vec<_> = (0..reader_count)
        .map(|r| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let sink = Arc::clone(&reader_failures);
            std::thread::spawn(move || {
                let Ok(mut c) = Client::connect(addr.as_str()) else {
                    if !stop.load(Ordering::SeqCst) {
                        sink.lock()
                            .unwrap()
                            .push(format!("reader {r}: connect failed"));
                    }
                    return;
                };
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    match c.request_retry(&Request::Dump, 20) {
                        Ok((resp, _)) => {
                            if resp.epoch < last_epoch {
                                sink.lock()
                                    .unwrap()
                                    .push(format!("reader {r}: epoch regressed"));
                            }
                            last_epoch = resp.epoch;
                        }
                        Err(_) => {
                            // Only a pre-kill failure is a violation; the
                            // kill itself tears connections mid-request.
                            if !stop.load(Ordering::SeqCst) {
                                sink.lock()
                                    .unwrap()
                                    .push(format!("reader {r}: request failed before the kill"));
                            }
                            return;
                        }
                    }
                }
            })
        })
        .collect();

    // The update storm; the kill lands mid-storm at a seeded point.
    let kill_at = rng.gen_range(updates_per_round / 4..updates_per_round);
    let mut acked: Vec<usize> = Vec::new();
    match Client::connect(addr.as_str()) {
        Ok(mut w) => {
            for i in 0..updates_per_round {
                if i == kill_at {
                    break;
                }
                let req = Request::Update {
                    target: "/list".to_string(),
                    op: UpdateOp::AppendText {
                        text: format!("soak marker {round}.{i} end"),
                    },
                };
                match w.request_retry(&req, 100) {
                    Ok((resp, _)) if resp.body == ResponseBody::UpdateDone => acked.push(i),
                    Ok((resp, _)) => {
                        failures.push(format!("round {round}: update {i}: {resp:?}"));
                        break;
                    }
                    Err(e) => {
                        failures.push(format!("round {round}: update {i}: {e}"));
                        break;
                    }
                }
            }
        }
        Err(e) => failures.push(format!("round {round}: writer connect: {e}")),
    }

    // Power cut: SIGKILL, no shutdown handshake. Completed writes
    // survive in the page cache; in-flight ones may tear.
    stop.store(true, Ordering::SeqCst);
    daemon.kill();
    for t in readers {
        let _ = t.join();
    }
    failures.extend(reader_failures.lock().unwrap().drain(..));

    // Recovery audit: reopen (replays the journal), then scrub.
    let mut recovered = 0u64;
    match FilePager::open(&store).and_then(|p| XmlStore::open(Box::new(p), StoreConfig::default()))
    {
        Ok(mut re) => {
            if let Err(e) = re.check_consistency() {
                failures.push(format!("round {round}: post-kill consistency: {e}"));
            }
            match re.to_document() {
                Ok(doc) => {
                    let xml = doc.to_xml();
                    for &i in &acked {
                        let marker = format!("soak marker {round}.{i} end");
                        if xml.matches(&marker).count() == 1 {
                            recovered += 1;
                        } else {
                            failures.push(format!(
                                "round {round}: acked update {i} lost or duplicated after power cut"
                            ));
                        }
                    }
                }
                Err(e) => failures.push(format!("round {round}: post-kill read: {e}")),
            }
        }
        Err(e) => failures.push(format!("round {round}: post-kill reopen: {e}")),
    }
    let report = fsck(&store, false);
    if !report.clean() {
        failures.push(format!("round {round}: post-kill fsck:\n{report}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    (acked.len() as u64, recovered)
}

// ----------------------------------------------------------- lease leak

/// `natix stress --net --leak`: one deliberate leaker must never starve
/// the other clients for more than a lease TTL. It pins the *only*
/// admission slot and goes silent; well-behaved victims shed until the
/// reaper expires the lease, then pin freely (shed rate returns to 0).
/// The leaker's next request is answered with the typed session-expired
/// response, after which a fresh `begin` works. Updates issued
/// throughout prove the stuck pin's reclamation backlog drains once the
/// lease is reaped.
///
/// Quick: a 400 ms lease, 2 victims, 6 updates, XMark scale 0.002 (the
/// scenario takes a few multiples of the TTL); full: 800 ms, 4, 12, 0.005.
pub(crate) fn lease_leak(plan: &Plan, progress: &mut Progress) -> Report {
    let (lease_ttl_ms, victim_count, updates, scale) =
        plan.tier.pick((400, 2, 6, 0.002), (800, 4, 12, 0.005));
    progress(&format!(
        "lease leak: {victim_count} victims, ttl {lease_ttl_ms} ms, {updates} updates, xmark scale {scale}"
    ));
    let ttl = std::time::Duration::from_millis(lease_ttl_ms);
    let dir = scratch_dir("net-lease");
    let handle = serve(ServeConfig {
        store: served_store(&dir, scale, plan.seeds[0]),
        workers: victim_count + 3,
        // One pin slot: the leak starves the whole budget.
        max_pins: 1,
        lease_ttl_ms,
        ..ServeConfig::default()
    })
    .expect("start lease server");
    let addr = handle.addr();
    let mut failures = Vec::new();

    // The leaker pins the only slot and goes silent.
    let mut leaker = Client::connect(addr).expect("leaker connect");
    if let Err(e) = leaker.begin() {
        failures.push(format!("leaker begin: {e}"));
    }
    let pinned_at = Instant::now();

    let mut victims: Vec<Client> = (0..victim_count)
        .map(|_| Client::connect(addr).expect("victim connect"))
        .collect();
    let mut writer = Client::connect(addr).expect("writer connect");

    // Phase A — starvation: while the lease is live, every victim pin
    // attempt must shed (round-robin so victims never shed each other).
    let mut starved_sheds = 0u64;
    let mut update_no = 0usize;
    let phase_a_end = pinned_at + ttl.mul_f64(0.7);
    'phase_a: while Instant::now() < phase_a_end {
        for (v, c) in victims.iter_mut().enumerate() {
            match c.request(&Request::Begin) {
                Ok(resp) => match resp.body {
                    ResponseBody::RetryAfter { .. } => starved_sheds += 1,
                    ResponseBody::SessionPinned => {
                        failures.push(format!("victim {v} pinned while the leak was live"));
                        let _ = c.end();
                    }
                    other => failures.push(format!("victim {v} begin: {other:?}")),
                },
                Err(e) => failures.push(format!("victim {v} begin: {e}")),
            }
        }
        if update_no < updates {
            update_no += 1;
            let req = Request::Update {
                target: "/site".to_string(),
                op: UpdateOp::AppendText {
                    text: format!("leak marker {update_no}"),
                },
            };
            if let Err(e) = writer.request_retry(&req, 50) {
                failures.push(format!("update {update_no}: {e}"));
                break 'phase_a;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let backlog = |c: &mut Client| -> Result<u64, String> {
        let stats = c.stats().map_err(|e| e.to_string())?;
        stats.u64("store.reclaim_backlog_pages")
    };
    let backlog_peak = backlog(&mut writer).unwrap_or_else(|e| {
        failures.push(format!("stats at leak peak: {e}"));
        0
    });
    if backlog_peak == 0 {
        failures.push("stuck pin did not accumulate a reclamation backlog".to_string());
    }

    // Let the lease expire and the reaper run (TTL + a reaper tick).
    let deadline = pinned_at + ttl + ttl.mul_f64(0.5);
    while Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Phase B — recovery: within one TTL of the expiry the shed rate is
    // back to 0 and pins flow again.
    let mut recovered_sheds = 0u64;
    let mut recovered_pins = 0u64;
    let phase_b_end = Instant::now() + ttl;
    while Instant::now() < phase_b_end {
        for (v, c) in victims.iter_mut().enumerate() {
            match c.request(&Request::Begin) {
                Ok(resp) => match resp.body {
                    ResponseBody::RetryAfter { .. } => recovered_sheds += 1,
                    ResponseBody::SessionPinned => {
                        recovered_pins += 1;
                        if let Err(e) = c.end() {
                            failures.push(format!("victim {v} end: {e}"));
                        }
                    }
                    other => failures.push(format!("victim {v} post-expiry begin: {other:?}")),
                },
                Err(e) => failures.push(format!("victim {v} post-expiry begin: {e}")),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    if recovered_sheds > 0 {
        failures.push(format!(
            "shed rate did not return to 0 within one TTL ({recovered_sheds} sheds)"
        ));
    }
    if recovered_pins == 0 {
        failures.push("no victim managed to pin after the lease expired".to_string());
    }

    // The leaker is told exactly once, then recovers by re-beginning.
    match leaker.query("//keyword") {
        Err(natix_server::ClientError::SessionExpired) => {}
        Ok(_) => failures.push("leaker was not told its session expired".to_string()),
        Err(e) => failures.push(format!("leaker post-expiry query: {e}")),
    }
    match leaker.begin() {
        Ok(_) => {
            if let Err(e) = leaker.end() {
                failures.push(format!("leaker re-begin end: {e}"));
            }
        }
        Err(e) => failures.push(format!("leaker re-begin: {e}")),
    }

    // Reclamation proceeded once the pin was reaped: a few more commits
    // drain the backlog the leak accumulated.
    for i in 0..3 {
        let req = Request::Update {
            target: "/site".to_string(),
            op: UpdateOp::AppendText {
                text: format!("post-leak marker {i}"),
            },
        };
        if let Err(e) = writer.request_retry(&req, 50) {
            failures.push(format!("post-leak update {i}: {e}"));
        }
    }
    let backlog_after = backlog(&mut writer).unwrap_or_else(|e| {
        failures.push(format!("stats after recovery: {e}"));
        u64::MAX
    });
    if backlog_peak > 0 && backlog_after >= backlog_peak {
        failures.push(format!(
            "reclamation backlog did not drain ({backlog_peak} -> {backlog_after})"
        ));
    }

    scrub_and_stop(addr, "post-leak", &mut failures);
    let server = handle.join();
    if server.lease_expirations == 0 {
        failures.push("server counted no lease expirations".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let mut report = Report::new(
        "{sheds while leaked} sheds while leaked, {after expiry} after expiry \
         ({pins ok} pins ok), backlog {backlog peak} -> {backlog after}, \
         {lease expirations} lease expirations, {failures} failures",
        &plan.seeds,
    );
    report.add("sheds while leaked", starved_sheds);
    report.add("after expiry", recovered_sheds);
    report.add("pins ok", recovered_pins);
    report.add("backlog peak", backlog_peak);
    report.add("backlog after", backlog_after);
    report.add("lease expirations", server.lease_expirations);
    report.failures = failures;
    report
}

#[cfg(test)]
mod tests {
    use crate::{campaign, Tier};

    #[test]
    fn lease_leak_quick_unstarves_within_one_ttl() {
        let plan = campaign("leak")
            .unwrap()
            .plan(Tier::Quick, None, None, None)
            .unwrap();
        let report = plan.run(&mut |_| {});
        assert!(
            report.ok(),
            "lease leak scenario failed: {}\n{}",
            report.summary(),
            report.failures.join("\n")
        );
        assert!(
            report.count("sheds while leaked") > 0,
            "leak never starved the budget"
        );
    }
}
