//! Client-facing network harnesses over `natix serve`.
//!
//! Three campaigns extend the chaos/stress machinery across the wire:
//!
//! * [`net_load`] (`natix stress --net`) — an in-process server under
//!   closed-loop client fleets of increasing size. Per level it reports
//!   request latency percentiles, throughput and the shed rate
//!   (retry-after responses per offered request), while every client
//!   checks the snapshot contract at the wire: per-connection epochs
//!   never regress and two clients that dump the same epoch see
//!   byte-identical documents.
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
//! shared with the proxy and replication campaigns.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use natix_core::Ekm;
use natix_datagen::{xmark, GenConfig};
use natix_server::{serve, Client, Request, ResponseBody, ServeConfig, ServeSummary, UpdateOp};
use natix_store::{bulkload_with, fsck, FilePager, StoreConfig, XmlStore};
use natix_xml::Document;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{scratch_dir, Plan, Progress, Report};

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
pub(crate) fn scrub_and_stop(addr: SocketAddr, when: &str, failures: &mut Vec<String>) {
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
pub(crate) fn audit_server(report: &mut Report, server: &ServeSummary) {
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

// ------------------------------------------------------------- net load

/// One tier of the load sweep.
struct LoadSweep {
    /// Client-fleet sizes to sweep (offered-load levels).
    levels: &'static [usize],
    /// Requests each client completes per level.
    requests_per_client: usize,
    /// XMark scale of the served document.
    scale: f64,
    /// Server connection workers.
    workers: usize,
    /// Snapshot-pin budget.
    max_pins: u32,
}

/// CI smoke tier: two small levels, seconds.
const QUICK_LOAD: LoadSweep = LoadSweep {
    levels: &[1, 4],
    requests_per_client: 40,
    scale: 0.005,
    workers: 6,
    max_pins: 64,
};

/// The acceptance tier: a full offered-load sweep.
const FULL_LOAD: LoadSweep = LoadSweep {
    levels: &[1, 2, 4, 8, 16],
    requests_per_client: 250,
    scale: 0.02,
    // One worker per client at the top level: contention is measured at
    // the store, not the accept queue.
    workers: 16,
    // Small enough that the 8- and 16-client levels contend for
    // admission and the shed-rate column comes alive.
    max_pins: 8,
};

/// Store-service queue bound of the load server.
const QUEUE_DEPTH: usize = 64;

/// Nearest-rank percentile of an ascending-sorted sample.
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What one closed-loop client observed during a level.
struct ClientObservation {
    latencies_us: Vec<u64>,
    completed: u64,
    sheds: u64,
    /// `(epoch, document hash)` per dump, for cross-client comparison.
    dumps: Vec<(u64, u64)>,
    failures: Vec<String>,
}

fn client_loop(
    addr: std::net::SocketAddr,
    id: usize,
    level: usize,
    requests: usize,
    seed: u64,
) -> ClientObservation {
    let mut obs = ClientObservation {
        latencies_us: Vec::with_capacity(requests),
        completed: 0,
        sheds: 0,
        dumps: Vec::new(),
        failures: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ (level as u64) << 24 ^ id as u64);
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            obs.failures.push(format!("client {id}: connect: {e}"));
            return obs;
        }
    };
    let mut last_epoch = 0u64;
    // While a session is pinned, reads come from its snapshot and must
    // all report the pin epoch; between pins, epochs are monotone.
    let mut pin_epoch: Option<u64> = None;
    for i in 0..requests {
        let req = if pin_epoch.is_some() {
            match rng.gen_range(0..100u32) {
                0..=19 => Request::End,
                20..=59 => Request::Query {
                    xpath: "//keyword".to_string(),
                    count_only: true,
                },
                60..=79 => Request::Query {
                    xpath: "//item".to_string(),
                    count_only: false,
                },
                _ => Request::Dump { degraded_ok: false },
            }
        } else {
            match rng.gen_range(0..100u32) {
                0..=19 => Request::Begin,
                20..=44 => Request::Query {
                    xpath: "//keyword".to_string(),
                    count_only: true,
                },
                45..=54 => Request::Query {
                    xpath: "//item".to_string(),
                    count_only: false,
                },
                55..=69 => Request::Dump { degraded_ok: false },
                70..=74 => Request::Stats,
                75..=79 => Request::Fsck,
                _ => Request::Update {
                    target: "/site".to_string(),
                    op: UpdateOp::AppendText {
                        text: format!("load marker {level}.{id}.{i}"),
                    },
                },
            }
        };
        let started = Instant::now();
        match c.request_retry(&req, 200) {
            Ok((resp, retries)) => {
                obs.latencies_us.push(started.elapsed().as_micros() as u64);
                obs.completed += 1;
                obs.sheds += retries as u64;
                match (&req, pin_epoch) {
                    (Request::Begin, _) => pin_epoch = Some(resp.epoch),
                    (Request::End, _) => pin_epoch = None,
                    (_, Some(pinned)) => {
                        // Snapshot isolation at the wire: a pinned
                        // session never sees another epoch.
                        if resp.epoch != pinned {
                            obs.failures.push(format!(
                                "client {id}: pinned at epoch {pinned} but {req:?} reported {}",
                                resp.epoch
                            ));
                        }
                    }
                    (_, None) => {
                        if resp.epoch > 0 && resp.epoch < last_epoch {
                            obs.failures.push(format!(
                                "client {id}: epoch regressed {last_epoch} -> {} on {req:?}",
                                resp.epoch
                            ));
                        }
                    }
                }
                last_epoch = last_epoch.max(resp.epoch);
                match &resp.body {
                    ResponseBody::DumpResult { xml, full, .. } => {
                        if !full {
                            obs.failures
                                .push(format!("client {id}: degraded dump without opting in"));
                        }
                        let mut h = DefaultHasher::new();
                        xml.hash(&mut h);
                        obs.dumps.push((resp.epoch, h.finish()));
                    }
                    ResponseBody::Error { kind, message } => {
                        obs.failures
                            .push(format!("client {id}: {kind} error on {req:?}: {message}"));
                    }
                    _ => {}
                }
            }
            Err(e) => {
                obs.failures.push(format!("client {id}: request {i}: {e}"));
                return obs;
            }
        }
    }
    obs
}

/// `natix stress --net`: sweep the tier's fleet sizes against one
/// in-process server and report latency, throughput and shed behaviour
/// per level.
pub(crate) fn net_load(plan: &Plan, progress: &mut Progress) -> Report {
    let seed = plan.seeds[0];
    let cfg = plan.tier.pick(QUICK_LOAD, FULL_LOAD);
    progress(&format!(
        "net load: levels {:?}, {} requests/client, xmark scale {}, {} workers, {} pins",
        cfg.levels, cfg.requests_per_client, cfg.scale, cfg.workers, cfg.max_pins
    ));
    let mut report = Report::new(
        "{levels} levels, {requests} requests, {sheds} sheds, {failures} failures",
        &plan.seeds,
    );
    let dir = scratch_dir("net-load");
    let handle = serve(ServeConfig {
        store: served_store(&dir, cfg.scale, seed),
        workers: cfg.workers,
        queue_depth: QUEUE_DEPTH,
        max_pins: cfg.max_pins,
        ..ServeConfig::default()
    })
    .expect("start load server");
    let addr = handle.addr();

    for &clients in cfg.levels {
        let started = Instant::now();
        let threads: Vec<_> = (0..clients)
            .map(|id| {
                let requests = cfg.requests_per_client;
                std::thread::spawn(move || client_loop(addr, id, clients, requests, seed))
            })
            .collect();
        let observations: Vec<ClientObservation> =
            threads.into_iter().map(|t| t.join().unwrap()).collect();
        let elapsed_s = started.elapsed().as_secs_f64();

        let mut latencies: Vec<u64> = Vec::new();
        let mut completed = 0u64;
        let mut sheds = 0u64;
        let mut by_epoch: HashMap<u64, u64> = HashMap::new();
        for obs in observations {
            latencies.extend(obs.latencies_us);
            completed += obs.completed;
            sheds += obs.sheds;
            report.failures.extend(obs.failures);
            for (epoch, hash) in obs.dumps {
                if let Some(prev) = by_epoch.insert(epoch, hash) {
                    if prev != hash {
                        report.failures.push(format!(
                            "level {clients}: two clients saw different documents at epoch {epoch}"
                        ));
                    }
                }
            }
        }
        latencies.sort_unstable();
        report.add("levels", 1);
        report.add("requests", completed);
        report.add("sheds", sheds);
        // Sheds per offered request; completed requests per second.
        report.notes.push(format!(
            "  {clients:>2} clients: {completed:>6} req, p50 {:>6} us, p99 {:>7} us, {:>7.0} req/s, shed rate {:.3}",
            percentile_us(&latencies, 50.0),
            percentile_us(&latencies, 99.0),
            completed as f64 / elapsed_s.max(1e-9),
            sheds as f64 / ((completed + sheds) as f64).max(1.0),
        ));
    }

    // The store under load must still scrub clean before shutdown.
    scrub_and_stop(addr, "post-load", &mut report.failures);
    audit_server(&mut report, &handle.join());
    let _ = std::fs::remove_dir_all(&dir);
    report
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
                    match c.request_retry(&Request::Dump { degraded_ok: false }, 20) {
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

/// Pull the `backlog : N superseded pages` figure out of the stats text.
fn parse_backlog(stats: &str) -> Option<u64> {
    let line = stats
        .lines()
        .find(|l| l.trim_start().starts_with("backlog"))?;
    line.split(':')
        .nth(1)?
        .trim()
        .split(' ')
        .next()?
        .parse()
        .ok()
}

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
    let backlog_peak = match writer.stats() {
        Ok(text) => parse_backlog(&text).unwrap_or(0),
        Err(e) => {
            failures.push(format!("stats at leak peak: {e}"));
            0
        }
    };
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
    let backlog_after = match writer.stats() {
        Ok(text) => parse_backlog(&text).unwrap_or(u64::MAX),
        Err(e) => {
            failures.push(format!("stats after recovery: {e}"));
            u64::MAX
        }
    };
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
