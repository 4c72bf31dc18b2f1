//! `serve-read`: unpinned queries against a store larger than its pool.
//!
//! An in-process `serve()` over a file store of one XMark document in
//! the EKM layout (about 400 pages, pool a quarter of that). Two
//! closed-loop connections each run XPathMark cycles: Q1–Q7 back to
//! back in a seed-derived order, every answer compared with an
//! in-memory evaluation. Every request pays `Inner::snapshot_store`, a
//! cold pool and checksum verification (ROADMAP items 1 and 2); `core`
//! does nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use natix_server::{serve, Client, ServeConfig, ServerHandle};
use natix_store::{FilePager, StoreConfig, XmlStore};
use natix_xpath::{eval, StoreNavigator};

use super::{
    permutation, rng, Config, Exact, Phase, RoundClock, SequenceHash, Teardown, Workload,
    SEQUENCE_PREFIX,
};
use crate::env::GENERATOR_THREADS;
use crate::fixtures::{checked_query, Expected, XmarkStore, XMARK_SCALE};
use crate::stats;
use crate::trace::{Recorder, Span};

/// Cycles per connection per round (≈ 1.3 s).
const CYCLES_PER_ROUND: usize = 8;

/// Queries per cycle.
pub const QUERIES: usize = 7;

/// Pool budget of the served store: a quarter of its pages.
pub fn pool_pages(store: &XmarkStore) -> usize {
    (store.pages as usize / 4).max(8)
}

/// Stop a server and fold its counters into rows and failures.
pub fn stop_server(handle: ServerHandle, requests: u64, out: &mut Teardown) {
    handle.shutdown();
    let s = handle.join();
    let requests = requests.max(1) as f64;
    out.rows
        .push(("server.handler_panics", s.worker_panics as f64));
    out.rows.push((
        "server.shed_share",
        (s.shed + s.queue_shed) as f64 / requests,
    ));
    if s.errors + s.proto_errors + s.worker_panics > 0 {
        out.failures.push(format!("server counted failures: {s}"));
    }
}

/// Order of the queries in cycle `cycle` of connection `conn`.
pub fn cycle_order(seed: u64, conn: usize, cycle: u64) -> Vec<usize> {
    permutation(&mut rng(seed, ((conn as u64 + 1) << 40) | cycle), QUERIES)
}

/// What one connection saw in a phase.
#[derive(Default)]
pub struct ConnLog {
    pub cycle_us: Vec<f64>,
    pub requests: u64,
    pub retries: u64,
    pub failures: Vec<String>,
}

/// Run one checked cycle on `client`.
pub fn run_cycle(
    client: &mut Client,
    expected: &[Expected],
    order: &[usize],
    rec: &mut Recorder,
    log: &mut ConnLog,
) {
    let start = Instant::now();
    rec.span("cycle", |rec| {
        for &q in order {
            log.requests += 1;
            match rec.span("client.query", |_| checked_query(client, &expected[q])) {
                Ok(retries) => log.retries += retries as u64,
                Err(e) => log.failures.push(e),
            }
        }
    });
    log.cycle_us.push(start.elapsed().as_secs_f64() * 1e6);
}

/// Fold a connection's log into the phase: one attempted op per request
/// and, when the connection ran `per_round` cycles in every round, one
/// latency sample per cycle (cycle time ÷ 7) in that round's list.
pub fn fold_reader(phase: &mut Phase, log: ConnLog, spans: Vec<Span>, per_round: Option<usize>) {
    phase.attempted += log.requests;
    if let Some(per_round) = per_round {
        for (round, cycles) in log.cycle_us.chunks(per_round).enumerate() {
            if phase.round_lat_us.len() <= round {
                phase.round_lat_us.push(Vec::new());
            }
            phase.round_lat_us[round].extend(cycles.iter().map(|c| c / QUERIES as f64));
        }
    }
    log.failures.into_iter().for_each(|f| phase.fail(f));
    phase.threads.push(spans);
}

pub struct ServeRead {
    store: XmarkStore,
    exact: Exact,
    handle: ServerHandle,
    clients: Vec<Client>,
    seed: u64,
    cycles_per_round: usize,
    next_cycle: u64,
    requests: u64,
}

impl ServeRead {
    /// Run rounds on both connections until `budget` is spent (`None`:
    /// exactly one round, the warm-up).
    fn rounds(&mut self, budget: Option<Duration>, trace: bool) -> Phase {
        let (seed, per_round, first) = (self.seed, self.cycles_per_round, self.next_cycle);
        let expected = &self.store.expected;
        let barrier = Barrier::new(GENERATOR_THREADS);
        let stop = AtomicBool::new(false);
        let origin = Instant::now();
        let mut clock = RoundClock::start(budget.unwrap_or(Duration::ZERO), trace);
        let mut rounds_run = 0u64;
        let mut phase = Phase::default();
        let (lead, others) = self.clients.split_first_mut().expect("two connections");
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for (conn, client) in others.iter_mut().enumerate() {
                let conn = conn + 1;
                let (barrier, stop) = (&barrier, &stop);
                joins.push(scope.spawn(move || {
                    let mut rec = Recorder::new(false, origin);
                    let mut log = ConnLog::default();
                    let mut cycle = first;
                    for round in 0.. {
                        // Odd rounds are traced, as the leader's clock has it.
                        rec.set_enabled(trace && round % 2 == 1);
                        for _ in 0..per_round {
                            rec.set_op(cycle);
                            let order = cycle_order(seed, conn, cycle);
                            run_cycle(client, expected, &order, &mut rec, &mut log);
                            cycle += 1;
                        }
                        barrier.wait();
                        // The leader decides between the two barriers.
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    (log, rec.into_spans())
                }));
            }
            // Connection 0 runs on this thread and keeps the clock.
            let client = lead;
            let mut rec = Recorder::new(false, origin);
            let mut log = ConnLog::default();
            let mut cycle = first;
            loop {
                rec.set_enabled(clock.tracing());
                for _ in 0..per_round {
                    rec.set_op(cycle);
                    let order = cycle_order(seed, 0, cycle);
                    run_cycle(client, expected, &order, &mut rec, &mut log);
                    cycle += 1;
                }
                barrier.wait();
                rounds_run += 1;
                let units = (GENERATOR_THREADS * per_round * QUERIES) as f64;
                let go_on = clock.end_round(units) && budget.is_some();
                stop.store(!go_on, Ordering::SeqCst);
                barrier.wait();
                if !go_on {
                    break;
                }
            }
            phase.wall_s = clock.wall_s();
            let mut cycles: Vec<f64> = log.cycle_us.clone();
            let mut retries = log.retries;
            fold_reader(&mut phase, log, rec.into_spans(), Some(per_round));
            for j in joins {
                let (log, spans) = j.join().expect("client thread panicked");
                cycles.extend(&log.cycle_us);
                retries += log.retries;
                fold_reader(&mut phase, log, spans, Some(per_round));
            }
            phase.rows.push((
                "client.read_cycle_p50_us",
                stats::percentile(&stats::sorted(cycles), 50.0),
            ));
            phase.rows.push((
                "server.retry_share",
                retries as f64 / phase.attempted.max(1) as f64,
            ));
        });
        self.next_cycle += rounds_run * per_round as u64;
        self.requests += phase.attempted;
        phase.round_rates = clock.rates;
        phase.round_traced = clock.traced;
        phase
    }
}

/// Table 3 on the served layout: records decoded from pages by one
/// XPathMark cycle when every query starts cold, as a served unpinned
/// query does. Also checks each count against the in-memory oracle.
pub fn decodes_per_cycle(store: &XmarkStore, pool: usize) -> Result<u64, String> {
    let config = StoreConfig {
        buffer_pages: pool,
        ..StoreConfig::default()
    };
    let mut decodes = 0;
    for q in &store.expected {
        let pager = FilePager::open(&store.path).map_err(|e| format!("open store: {e}"))?;
        let mut xs =
            XmlStore::open(Box::new(pager), config).map_err(|e| format!("open store: {e}"))?;
        let hits = eval(&mut StoreNavigator::new(&mut xs), &q.path)
            .map_err(|e| format!("{}: {e}", q.name))?;
        if hits.len() as u32 != q.count {
            return Err(format!(
                "{}: store evaluation found {} hits, in-memory {}",
                q.name,
                hits.len(),
                q.count
            ));
        }
        decodes += xs.nav_stats().record_decodes;
    }
    Ok(decodes)
}

impl Workload for ServeRead {
    fn setup(cfg: &Config) -> Result<ServeRead, String> {
        let scale = if cfg.quick {
            XMARK_SCALE / 4.0
        } else {
            XMARK_SCALE
        };
        let store = XmarkStore::build(&cfg.work.join("served.natix"), scale)?;
        let pool = pool_pages(&store);
        let exact = Exact {
            paper_cost: decodes_per_cycle(&store, pool)? as f64,
            space_amp: store.space_amp(),
        };
        let handle = serve(ServeConfig {
            store: store.path.clone(),
            workers: GENERATOR_THREADS,
            pool_pages: Some(pool),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("start server: {e}"))?;
        let clients = (0..GENERATOR_THREADS)
            .map(|_| Client::connect(handle.addr()).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut w = ServeRead {
            store,
            exact,
            handle,
            clients,
            seed: cfg.seed,
            cycles_per_round: cfg.sized(CYCLES_PER_ROUND),
            // The warm-up round uses cycle numbers the measured
            // sequence never reaches.
            next_cycle: 1 << 39,
            requests: 0,
        };
        let warm = w.rounds(None, false);
        w.next_cycle = 0;
        match warm.failures.first() {
            Some(f) => {
                let mut t = Teardown::default();
                stop_server(w.handle, w.requests, &mut t);
                Err(format!("warm-up: {f}"))
            }
            None => Ok(w),
        }
    }

    fn describe(&self) -> String {
        format!(
            "XMark store of {} pages ({} bytes of XML), pool {} pages, {GENERATOR_THREADS} connections, \
             {} cycles per connection per round",
            self.store.pages,
            self.store.xml.len(),
            pool_pages(&self.store),
            self.cycles_per_round
        )
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn sequence_hash(&self) -> u64 {
        let mut h = SequenceHash::new();
        for cycle in 0..(SEQUENCE_PREFIX / GENERATOR_THREADS) as u64 {
            for conn in 0..GENERATOR_THREADS {
                cycle_order(self.seed, conn, cycle)
                    .into_iter()
                    .for_each(|q| h.push(q as u64));
            }
        }
        h.finish()
    }

    fn measure(&mut self, budget: Duration, trace: bool) -> Phase {
        self.rounds(Some(budget), trace)
    }

    fn teardown(self) -> Teardown {
        let mut out = Teardown::default();
        drop(self.clients);
        stop_server(self.handle, self.requests, &mut out);
        out
    }
}
