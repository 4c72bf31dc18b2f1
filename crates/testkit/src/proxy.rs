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
//! --proxy`: the client fleet of [`crate::net`] run *through* a proxy in
//! front of an in-process server, its clients reconnecting whenever the
//! proxy tears their connection. The contract:
//! the server finishes with **zero protocol errors** (a torn TCP stream
//! must never be misread as a protocol violation), **zero worker
//! panics**, a clean drain (no wedged workers), and epoch consistency —
//! reads on a pinned session carry the pin epoch, no other epoch
//! regresses, and two clients that dump the same epoch see
//! byte-identical documents.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix_server::ServeConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{Plan, Progress, Report};
use crate::net::{fleet, Fleet};

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

/// The proxy row's summary line.
const SHAPE: &str = "{requests} completed, {reconnects} reconnects; proxy: {conns} conns, \
                     {resets} resets, {stalls} stalls, {bytes} bytes; {failures} failures";

/// `natix stress --net --proxy`: the one client fleet of
/// [`crate::net`] behind a [`FaultProxy`] — 3 clients of 60 requests
/// behind the gentle plan at quick (XMark scale 0.003); 6 of 250 behind
/// the harsh plan at full (0.01). See the module docs for the contract.
pub(crate) fn proxy_chaos(plan: &Plan, progress: &mut Progress) -> Report {
    let seed = plan.seeds[0];
    let (clients, requests, scale, mistreat) = plan.tier.pick(
        (3, 60, 0.003, ProxyPlan::gentle(seed)),
        (6, 250, 0.01, ProxyPlan::harsh(seed)),
    );
    let max_pins = ServeConfig::default().max_pins;
    let f = Fleet {
        clients,
        requests,
        scale,
        max_pins,
    };
    fleet(seed, f, Some(mistreat), SHAPE, progress)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_chaos_quick_runs_clean() {
        // A trimmed quick tier: two clients, half the requests.
        let f = Fleet {
            clients: 2,
            requests: 30,
            scale: 0.003,
            max_pins: ServeConfig::default().max_pins,
        };
        let report = fleet(
            0xFA_117,
            f,
            Some(ProxyPlan::gentle(0xFA_117)),
            SHAPE,
            &mut |_| {},
        );
        assert!(
            report.ok(),
            "proxy chaos failed: {}\n{}",
            report.summary(),
            report.failures.join("\n")
        );
        assert_eq!(report.count("requests"), 60);
    }
}
