//! Deterministic seeded TCP fault proxy, and the chaos harness that
//! drives client fleets through it.
//!
//! [`FaultProxy`] sits between clients and a live `natix serve` daemon
//! and mistreats every byte stream according to a seeded plan: forwarding
//! is chopped into partial writes, seeded stalls are injected before
//! chunks, throughput can be throttled to a byte rate, and connections
//! are reset mid-frame. All decisions derive from
//! `ProxyPlan::seed` mixed with the connection number and direction, so
//! a plan replays the same mistreatment schedule for the same sequence
//! of connections.
//!
//! [`proxy_chaos`] is the harness behind `natix stress --net
//! --proxy`: an in-process server, a proxy in front of it, and a fleet
//! of clients running the full verb sweep *through* the proxy,
//! reconnecting whenever the proxy tears their connection. The contract:
//! the server finishes with **zero protocol errors** (a torn TCP stream
//! must never be misread as a protocol violation), **zero worker
//! panics**, a clean drain (no wedged workers), and epoch consistency —
//! per-connection epochs never regress and two clients that dump the
//! same epoch see byte-identical documents.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix_server::{serve, Client, ClientError, Request, ResponseBody, ServeConfig, UpdateOp};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{scratch_dir, Plan, Progress, Report};
use crate::net::{audit_server, scrub_and_stop, served_store};

// ------------------------------------------------------------ the proxy

/// Seeded mistreatment plan for a [`FaultProxy`].
#[derive(Debug, Clone, Copy)]
pub struct ProxyPlan {
    /// Base seed; each connection/direction derives its own RNG from it.
    pub seed: u64,
    /// Upper bound of the stall injected before some forwarded chunks
    /// (milliseconds; 0 disables stalls).
    pub max_stall_ms: u64,
    /// Per-mille chance a forwarded chunk is preceded by a stall.
    pub stall_per_mille: u32,
    /// Largest slice forwarded per socket write — forces partial writes
    /// and frame fragmentation (0 = forward whole reads).
    pub max_chunk: usize,
    /// Per-mille chance, per forwarded chunk, of resetting the
    /// connection mid-frame (both directions die).
    pub reset_per_mille: u32,
    /// Byte-rate throttle per direction (bytes/second, 0 = unlimited).
    pub bytes_per_sec: u64,
}

impl ProxyPlan {
    /// Mild chaos: fragmentation and short stalls, occasional resets.
    /// Suitable for CI smoke runs.
    pub fn gentle(seed: u64) -> ProxyPlan {
        ProxyPlan {
            seed,
            max_stall_ms: 15,
            stall_per_mille: 80,
            max_chunk: 7,
            reset_per_mille: 4,
            bytes_per_sec: 0,
        }
    }

    /// Hostile network: heavy fragmentation, long stalls, throttling and
    /// frequent mid-frame resets.
    pub fn harsh(seed: u64) -> ProxyPlan {
        ProxyPlan {
            seed,
            max_stall_ms: 60,
            stall_per_mille: 150,
            max_chunk: 3,
            reset_per_mille: 12,
            bytes_per_sec: 256 * 1024,
        }
    }
}

/// What a proxy did over its lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Connections proxied.
    pub connections: u64,
    /// Bytes forwarded (both directions).
    pub forwarded: u64,
    /// Connections reset mid-stream by the plan.
    pub resets: u64,
    /// Stalls injected.
    pub stalls: u64,
}

#[derive(Default)]
struct ProxyCounters {
    connections: AtomicU64,
    forwarded: AtomicU64,
    resets: AtomicU64,
    stalls: AtomicU64,
}

/// A running fault proxy; accepts on its own ephemeral port and forwards
/// to the upstream address through the mistreatment plan.
pub struct FaultProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ProxyCounters>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Start a proxy in front of `upstream`.
    pub fn start(upstream: SocketAddr, plan: ProxyPlan) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ProxyCounters::default());
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("natix-fault-proxy".into())
                .spawn(move || accept_loop(listener, upstream, plan, shutdown, counters))
                .expect("spawn proxy acceptor")
        };
        Ok(FaultProxy {
            addr,
            shutdown,
            counters,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — point clients here.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, tear down active pumps, and return the stats.
    pub fn stop(mut self) -> ProxyStats {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        ProxyStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            forwarded: self.counters.forwarded.load(Ordering::Relaxed),
            resets: self.counters.resets.load(Ordering::Relaxed),
            stalls: self.counters.stalls.load(Ordering::Relaxed),
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: ProxyPlan,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ProxyCounters>,
) {
    let mut pumps: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                // One thread per direction; either side dying (or a
                // planned reset) kills both via the shared flag.
                let dead = Arc::new(AtomicBool::new(false));
                for dir in 0..2u64 {
                    let (mut from, mut to) = if dir == 0 {
                        (
                            client.try_clone().expect("clone client"),
                            server.try_clone().expect("clone server"),
                        )
                    } else {
                        (
                            server.try_clone().expect("clone server"),
                            client.try_clone().expect("clone client"),
                        )
                    };
                    let seed = plan
                        .seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(conn * 2 + dir);
                    let dead = Arc::clone(&dead);
                    let shutdown = Arc::clone(&shutdown);
                    let counters = Arc::clone(&counters);
                    pumps.push(
                        std::thread::Builder::new()
                            .name(format!("natix-proxy-pump-{conn}-{dir}"))
                            .spawn(move || {
                                pump(&mut from, &mut to, plan, seed, dead, shutdown, counters)
                            })
                            .expect("spawn proxy pump"),
                    );
                }
                conn += 1;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                pumps.retain(|t| !t.is_finished());
            }
            Err(_) => break,
        }
    }
    for t in pumps {
        let _ = t.join();
    }
}

/// Forward one direction of one connection through the plan.
fn pump(
    from: &mut TcpStream,
    to: &mut TcpStream,
    plan: ProxyPlan,
    seed: u64,
    dead: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<ProxyCounters>,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    let mut window_start = Instant::now();
    let mut window_bytes = 0u64;
    let kill = |from: &TcpStream, to: &TcpStream| {
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    };
    loop {
        if dead.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
            kill(from, to);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                dead.store(true, Ordering::SeqCst);
                kill(from, to);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                dead.store(true, Ordering::SeqCst);
                kill(from, to);
                return;
            }
        };
        let mut off = 0usize;
        while off < n {
            if dead.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
                kill(from, to);
                return;
            }
            if plan.reset_per_mille > 0 && rng.gen_range(0..1000) < plan.reset_per_mille {
                // Mid-frame reset: kill both directions with bytes of the
                // current frame already delivered.
                counters.resets.fetch_add(1, Ordering::Relaxed);
                dead.store(true, Ordering::SeqCst);
                kill(from, to);
                return;
            }
            if plan.max_stall_ms > 0
                && plan.stall_per_mille > 0
                && rng.gen_range(0..1000) < plan.stall_per_mille
            {
                counters.stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(rng.gen_range(1..=plan.max_stall_ms)));
            }
            let chunk = if plan.max_chunk > 0 {
                (n - off).min(rng.gen_range(1..=plan.max_chunk))
            } else {
                n - off
            };
            if to.write_all(&buf[off..off + chunk]).is_err() {
                dead.store(true, Ordering::SeqCst);
                kill(from, to);
                return;
            }
            counters
                .forwarded
                .fetch_add(chunk as u64, Ordering::Relaxed);
            off += chunk;
            if plan.bytes_per_sec > 0 {
                // Throttle: sleep whenever the current window runs ahead
                // of the byte budget.
                window_bytes += chunk as u64;
                let budget =
                    plan.bytes_per_sec as f64 * window_start.elapsed().as_secs_f64().max(1e-4);
                if (window_bytes as f64) > budget {
                    let excess_s = (window_bytes as f64 - budget) / plan.bytes_per_sec as f64;
                    std::thread::sleep(Duration::from_secs_f64(excess_s.min(0.25)));
                }
                if window_start.elapsed() > Duration::from_secs(2) {
                    window_start = Instant::now();
                    window_bytes = 0;
                }
            }
        }
    }
}

// ----------------------------------------------------- the chaos harness

struct ChaosObservation {
    completed: u64,
    reconnects: u64,
    dumps: Vec<(u64, u64)>,
    failures: Vec<String>,
}

/// One client: the full verb sweep through the proxy, reconnecting on
/// every transport tear, re-`begin`ning on every expired lease.
fn chaos_client(proxy_addr: SocketAddr, id: usize, requests: usize, seed: u64) -> ChaosObservation {
    let mut obs = ChaosObservation {
        completed: 0,
        reconnects: 0,
        dumps: Vec::new(),
        failures: Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(seed ^ (id as u64) << 32);
    let mut client: Option<Client> = None;
    let mut pin_epoch: Option<u64> = None;
    let mut last_epoch = 0u64;
    let mut done = 0usize;
    let mut tears = 0u64;
    while done < requests {
        let c = match client.as_mut() {
            Some(c) => c,
            None => {
                pin_epoch = None;
                match Client::connect(proxy_addr) {
                    Ok(c) => {
                        client = Some(c);
                        client.as_mut().unwrap()
                    }
                    Err(_) => {
                        tears += 1;
                        if tears > (requests as u64) * 20 {
                            obs.failures
                                .push(format!("client {id}: could not reconnect through proxy"));
                            return obs;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                        continue;
                    }
                }
            }
        };
        let req = match rng.gen_range(0..100u32) {
            0..=9 => Request::Ping,
            10..=24 => Request::Begin,
            25..=49 => Request::Query {
                xpath: "//keyword".to_string(),
                count_only: true,
            },
            50..=59 => Request::Dump,
            60..=69 => Request::End,
            70..=77 => Request::Stats,
            78..=84 => Request::Fsck,
            _ => Request::Update {
                target: "/site".to_string(),
                op: UpdateOp::AppendText {
                    text: format!("chaos marker {id}.{done}"),
                },
            },
        };
        match c.request_retry(&req, 100) {
            Ok((resp, _)) => {
                if matches!(resp.body, ResponseBody::SessionExpired) {
                    // Typed lease expiry: the well-behaved path is a
                    // fresh begin; not a failure, not a completed verb.
                    pin_epoch = None;
                    continue;
                }
                if let ResponseBody::Error { kind, message } = &resp.body {
                    obs.failures
                        .push(format!("client {id}: {kind} error on {req:?}: {message}"));
                }
                match (&req, pin_epoch) {
                    (Request::Begin, _) => pin_epoch = Some(resp.epoch),
                    (Request::End, _) => pin_epoch = None,
                    // Only reads are served from the session snapshot;
                    // the other verbs report the committed epoch.
                    (Request::Query { .. } | Request::Dump, Some(p)) if resp.epoch != p => {
                        obs.failures.push(format!(
                            "client {id}: pinned at {p} but {req:?} reported {}",
                            resp.epoch
                        ));
                    }
                    (_, None) if resp.epoch > 0 && resp.epoch < last_epoch => {
                        obs.failures.push(format!(
                            "client {id}: epoch regressed {last_epoch} -> {}",
                            resp.epoch
                        ));
                    }
                    _ => {}
                }
                if pin_epoch.is_none() {
                    last_epoch = last_epoch.max(resp.epoch);
                }
                if let ResponseBody::DumpResult { xml } = &resp.body {
                    let mut h = DefaultHasher::new();
                    xml.hash(&mut h);
                    obs.dumps.push((resp.epoch, h.finish()));
                }
                obs.completed += 1;
                done += 1;
            }
            Err(ClientError::SessionExpired) => {
                pin_epoch = None;
            }
            Err(_) => {
                // The proxy tore the stream (reset, or a stall past the
                // client timeout): reconnect and keep going.
                client = None;
                obs.reconnects += 1;
            }
        }
    }
    obs
}

/// Session lease TTL handed to the server (ms): long enough that no
/// stall expires a lease.
const LEASE_TTL_MS: u64 = 30_000;

/// `natix stress --net --proxy`: 3 clients of 60 requests behind the
/// gentle plan at quick (XMark scale 0.003); 6 of 250 behind the harsh
/// plan at full (0.01). See the module docs for the contract.
pub(crate) fn proxy_chaos(plan: &Plan, progress: &mut Progress) -> Report {
    let seed = plan.seeds[0];
    let (clients, requests, scale, mistreat) = plan.tier.pick(
        (3, 60, 0.003, ProxyPlan::gentle(seed)),
        (6, 250, 0.01, ProxyPlan::harsh(seed)),
    );
    progress(&format!(
        "proxy chaos: {clients} clients x {requests} requests, xmark scale {scale}, plan seed {seed:#x}"
    ));
    fleet(seed, clients, requests, scale, mistreat)
}

/// Server, proxy, fleet: `clients` clients complete `requests_per_client`
/// requests each (reconnects not counted) through `plan`.
fn fleet(
    seed: u64,
    clients: usize,
    requests_per_client: usize,
    scale: f64,
    plan: ProxyPlan,
) -> Report {
    let dir = scratch_dir("proxy");
    let handle = serve(ServeConfig {
        store: served_store(&dir, scale, seed),
        workers: clients + 2,
        lease_ttl_ms: LEASE_TTL_MS,
        ..ServeConfig::default()
    })
    .expect("start chaos server");
    let direct_addr = handle.addr();
    let proxy = FaultProxy::start(direct_addr, plan).expect("start fault proxy");
    let proxy_addr = proxy.addr();

    let mut report = Report::new(
        "{completed} completed, {reconnects} reconnects; proxy: {conns} conns, {resets} resets, \
         {stalls} stalls, {bytes} bytes; {failures} failures",
        &[seed],
    );
    let threads: Vec<_> = (0..clients)
        .map(|id| {
            std::thread::spawn(move || chaos_client(proxy_addr, id, requests_per_client, seed))
        })
        .collect();
    let mut by_epoch: HashMap<u64, u64> = HashMap::new();
    for t in threads {
        let obs = t.join().expect("chaos client panicked");
        report.add("completed", obs.completed);
        report.add("reconnects", obs.reconnects);
        report.failures.extend(obs.failures);
        for (epoch, hash) in obs.dumps {
            if let Some(prev) = by_epoch.insert(epoch, hash) {
                if prev != hash {
                    report.failures.push(format!(
                        "two clients saw different documents at epoch {epoch}"
                    ));
                }
            }
        }
    }
    let injected = proxy.stop();
    report.add("conns", injected.connections);
    report.add("resets", injected.resets);
    report.add("stalls", injected.stalls);
    report.add("bytes", injected.forwarded);

    // Audit and shutdown over a *direct* connection: the store must
    // scrub clean, and the server must drain without wedged workers.
    scrub_and_stop(direct_addr, "post-chaos", &mut report.failures);
    let (sum_tx, sum_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = sum_tx.send(handle.join());
    });
    match sum_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(server) => audit_server(&mut report, &server),
        Err(_) => report
            .failures
            .push("server did not drain within 30s (wedged worker)".to_string()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_chaos_quick_runs_clean() {
        // A trimmed quick tier: two clients, half the requests.
        let report = fleet(0xFA_117, 2, 30, 0.003, ProxyPlan::gentle(0xFA_117));
        assert!(
            report.ok(),
            "proxy chaos failed: {}\n{}",
            report.summary(),
            report.failures.join("\n")
        );
        assert_eq!(report.count("completed"), 60);
    }
}
