//! `serve-write`: writes under pinned reads, shipped to a standby.
//!
//! A primary `serve()` plus an in-process `replica_of` standby, on a
//! store that fits its pool. One generator thread alternates between two
//! connections. On A it issues an update pair — append an element under
//! a seed-chosen region, then delete it, so the document stays the same
//! size. On B it runs one XPathMark cycle inside a `begin`…`end` session
//! re-begun every 5 cycles: pins defer checkpoints, so the journal
//! overlay grows and shrinks. One op is a pair and the cycle after it.
//! The same `store`/`server` layers as `serve-read`, used differently: a
//! read-path gain that costs writers, pinned readers or followers shows
//! here.
//!
//! The first version ran A and B from two closed-loop threads and took
//! the pair as the op. A pair then waited in the store-service queue
//! behind whichever queries it met (18 ms of a 3 ms op), three chains of
//! threads shared two cores, and 40 % of the rest was fsync: `ops_per_s`
//! and `op_p50_us` came out a fifth apart between identical runs on the
//! driver's host. The pair's latency is now the layer row
//! `client.update_pair_p50_us`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use natix_server::{serve, Client, Request, ResponseBody, ServeConfig, ServerHandle, UpdateOp};
use natix_store::{FilePager, StoreConfig, XmlStore};
use rand::Rng;

use super::serve_read::{cycle_order, fold_reader, run_cycle, stop_server, ConnLog, QUERIES};
use super::{
    file_len, rng, Config, Exact, Phase, RoundClock, SequenceHash, Teardown, Workload,
    SEQUENCE_PREFIX,
};
use crate::fixtures::{append, delete, XmarkStore, XMARK_SCALE};
use crate::stats;
use crate::trace::Recorder;

/// Pinned sessions per round (≈ 0.6 s). Short rounds, so that one of
/// them falls between two busy stretches of the host: over the same ten
/// runs the best of 10-op rounds moved 2 % from the fastest run to the
/// slowest, the best of 30-op rounds 6 %.
const SESSIONS_PER_ROUND: usize = 2;

/// Update pairs and cycles under one pin (a third of a second). Under
/// pins of 50 cycles the deferred checkpoints let the file grow to 65
/// times the XML and the resident set to 550 MB.
const CYCLES_PER_SESSION: usize = 5;

/// Requests of one op: the two updates of a pair and the seven queries
/// of a cycle.
const STEP_REQUESTS: usize = 2 + QUERIES;

/// Measured pairs after which the primary's file size is sampled for
/// `space_amp`: a fixed point of the op sequence, so a faster build is
/// not charged for the extra commits it fits into the same seconds.
const SPACE_SAMPLE_PAIR: u64 = 100;

/// Update pairs run alone at teardown.
const SOLO_PAIRS: u64 = 8;

/// Update pairs of the single-threaded `paper_cost` pass.
const EXACT_PAIRS: usize = 48;

/// The regions of an XMark document: the parents updates append under.
pub const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// Region and element name of update pair `n`.
pub fn pair_target(seed: u64, n: u64) -> (&'static str, String) {
    let region = REGIONS[rng(seed, n).gen_range(0..REGIONS.len())];
    (region, format!("bench{n}"))
}

fn update(client: &mut Client, target: String, op: UpdateOp) -> Result<(), String> {
    let req = Request::Update { target, op };
    match client.request_retry(&req, 50) {
        Ok((resp, _)) if matches!(resp.body, ResponseBody::UpdateDone) => Ok(()),
        Ok((resp, _)) => Err(format!("update answered {:?}", resp.body)),
        Err(e) => Err(format!("update: {e}")),
    }
}

/// Append `<name/>` under the region, then delete it.
fn update_pair(
    client: &mut Client,
    region: &str,
    name: &str,
    rec: &mut Recorder,
) -> Result<(), String> {
    rec.span("client.update", |_| {
        update(
            client,
            format!("/site/regions/{region}"),
            UpdateOp::AppendElement {
                name: name.to_string(),
            },
        )
    })?;
    rec.span("client.update", |_| {
        update(
            client,
            format!("/site/regions/{region}/{name}"),
            UpdateOp::DeleteSubtree,
        )
    })
}

/// The exact pass: `EXACT_PAIRS` canonical update pairs on a private
/// copy of the store, single-threaded and unserved. Returns
/// `record_count()` after ÷ before, and checks the document is
/// unchanged.
fn exact_pass(store: &XmarkStore, copy: &PathBuf) -> Result<f64, String> {
    std::fs::copy(&store.path, copy).map_err(|e| format!("copy store: {e}"))?;
    let pager = FilePager::open(copy).map_err(|e| format!("open copy: {e}"))?;
    let mut xs = XmlStore::open(Box::new(pager), StoreConfig::default())
        .map_err(|e| format!("open copy: {e}"))?;
    let before = xs.record_count();
    for n in 0..EXACT_PAIRS {
        let region = REGIONS[n % REGIONS.len()];
        append(&mut xs, region, "bench").map_err(|e| format!("append: {e}"))?;
        delete(&mut xs, region, "bench").map_err(|e| format!("delete: {e}"))?;
    }
    let after = xs.record_count();
    let xml = xs
        .to_document()
        .map_err(|e| format!("read back: {e}"))?
        .to_xml();
    drop(xs);
    let _ = std::fs::remove_file(copy);
    if xml != store.xml {
        return Err("update pairs changed the document".to_string());
    }
    Ok(after as f64 / before as f64)
}

pub struct ServeWrite {
    store: XmarkStore,
    exact: Exact,
    primary: ServerHandle,
    standby: ServerHandle,
    writer: Client,
    reader: Client,
    standby_client: Client,
    seed: u64,
    sessions_per_round: usize,
    next_pair: u64,
    next_cycle: u64,
    requests: u64,
}

impl ServeWrite {
    /// Run rounds until `budget` is spent, three at least (the warm-up
    /// asks for no more). One thread drives both connections in a fixed
    /// interleaving — a pair on A, a cycle on B — so what an op waits for
    /// is the program and never the race between two load generators.
    fn rounds(&mut self, budget: Duration, trace: bool) -> Phase {
        let seed = self.seed;
        let xml_bytes = self.store.xml.len() as f64;
        let mut phase = Phase::default();
        let mut rec = Recorder::new(false, Instant::now());
        let mut log = ConnLog::default();
        let mut clock = RoundClock::start(budget, trace);
        let mut pairs = 0;
        let mut pair_us = Vec::new();
        loop {
            rec.set_enabled(clock.tracing());
            let mut lat_us = Vec::with_capacity(self.sessions_per_round * CYCLES_PER_SESSION);
            let requests_before = 2 * pairs + log.requests;
            for _ in 0..self.sessions_per_round {
                log.requests += 2;
                if let Err(e) = self.reader.begin() {
                    phase.fail(format!("begin: {e}"));
                }
                for _ in 0..CYCLES_PER_SESSION {
                    let (region, name) = pair_target(seed, self.next_pair);
                    rec.set_op(self.next_pair);
                    let start = Instant::now();
                    let writer = &mut self.writer;
                    let r = rec.span("pair", |rec| update_pair(writer, region, &name, rec));
                    pair_us.push(start.elapsed().as_secs_f64() * 1e6);
                    if let Err(e) = r {
                        phase.fail(format!("pair {}: {e}", self.next_pair));
                    }
                    pairs += 1;
                    self.next_pair += 1;
                    if self.next_pair == SPACE_SAMPLE_PAIR {
                        self.exact.space_amp = file_len(&self.store.path) as f64 / xml_bytes;
                    }
                    let order = cycle_order(seed, 1, self.next_cycle);
                    let expected = &self.store.expected;
                    run_cycle(&mut self.reader, expected, &order, &mut rec, &mut log);
                    self.next_cycle += 1;
                    lat_us.push(start.elapsed().as_secs_f64() * 1e6 / STEP_REQUESTS as f64);
                }
                if let Err(e) = self.reader.end() {
                    phase.fail(format!("end: {e}"));
                }
            }
            phase.round_lat_us.push(lat_us);
            let requests = 2 * pairs + log.requests - requests_before;
            if !clock.end_round(requests as f64) {
                break;
            }
        }
        phase.wall_s = clock.wall_s();
        phase.attempted = 2 * pairs;
        phase.rows.push((
            "client.update_pair_p50_us",
            stats::percentile(&stats::sorted(pair_us), 50.0),
        ));
        phase.rows.push((
            "client.read_cycle_p50_us",
            stats::percentile(&stats::sorted(log.cycle_us.clone()), 50.0),
        ));
        phase.rows.push((
            "server.retry_share",
            log.retries as f64 / log.requests.max(1) as f64,
        ));
        fold_reader(&mut phase, log, rec.into_spans(), None);
        self.requests += phase.attempted;
        phase.round_rates = clock.rates;
        phase.round_traced = clock.traced;
        phase
    }

    /// Wait until the standby has applied the primary's epoch, then
    /// compare their dumps. Returns the catch-up time.
    fn catch_up(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let target = self
            .writer
            .ping()
            .map_err(|e| format!("ping primary: {e}"))?;
        loop {
            let applied = self
                .standby_client
                .ping()
                .map_err(|e| format!("ping standby: {e}"))?;
            if applied >= target {
                break;
            }
            if start.elapsed() > Duration::from_secs(20) {
                return Err(format!(
                    "standby stuck at epoch {applied}, primary at {target}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let took = start.elapsed().as_secs_f64();
        let (p_epoch, p_xml) = self
            .writer
            .dump()
            .map_err(|e| format!("dump primary: {e}"))?;
        let (s_epoch, s_xml) = self
            .standby_client
            .dump()
            .map_err(|e| format!("dump standby: {e}"))?;
        if p_epoch != s_epoch {
            return Err(format!("primary at epoch {p_epoch}, standby at {s_epoch}"));
        }
        if p_xml != s_xml {
            return Err(format!(
                "standby dump differs from primary at epoch {p_epoch}"
            ));
        }
        if p_xml != self.store.xml {
            return Err("update pairs changed the served document".to_string());
        }
        Ok(took)
    }
}

impl Workload for ServeWrite {
    fn setup(cfg: &Config) -> Result<ServeWrite, String> {
        let scale = if cfg.quick {
            XMARK_SCALE / 4.0
        } else {
            XMARK_SCALE
        };
        let store = XmarkStore::build(&cfg.work.join("primary.natix"), scale)?;
        let exact = Exact {
            paper_cost: exact_pass(&store, &cfg.work.join("exact.natix"))?,
            space_amp: store.space_amp(),
        };
        // Three workers: the writer, the reader and the standby's fetch
        // loop each hold a connection for the whole run.
        let primary = serve(ServeConfig {
            store: store.path.clone(),
            workers: 3,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("start primary: {e}"))?;
        let standby = serve(ServeConfig {
            store: cfg.work.join("standby.natix"),
            workers: 2,
            replica_of: Some(primary.addr().to_string()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("start standby: {e}"))?;
        let connect =
            |h: &ServerHandle| Client::connect(h.addr()).map_err(|e| format!("connect: {e}"));
        let mut w = ServeWrite {
            writer: connect(&primary)?,
            reader: connect(&primary)?,
            standby_client: connect(&standby)?,
            store,
            exact,
            primary,
            standby,
            seed: cfg.seed,
            sessions_per_round: cfg.sized(SESSIONS_PER_ROUND),
            // Warm-up pairs and cycles use numbers the measured
            // sequence never reaches.
            next_pair: 1 << 40,
            next_cycle: 1 << 39,
            requests: 0,
        };
        let warm = w.rounds(Duration::ZERO, false);
        w.next_pair = 0;
        w.next_cycle = 0;
        let ready = match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            // The standby must have bootstrapped before the clock starts.
            None => w.catch_up().map(|_| ()),
        };
        match ready {
            Ok(()) => Ok(w),
            Err(e) => {
                w.teardown();
                Err(e)
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "XMark store of {} pages ({} bytes of XML) in a default pool, writer + pinned reader + standby, \
             {} pins per round, {CYCLES_PER_SESSION} update pairs and cycles per pin",
            self.store.pages,
            self.store.xml.len(),
            self.sessions_per_round
        )
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn sequence_hash(&self) -> u64 {
        let mut h = SequenceHash::new();
        for n in 0..SEQUENCE_PREFIX as u64 {
            let (region, _) = pair_target(self.seed, n);
            h.push(REGIONS.iter().position(|r| *r == region).unwrap_or(0) as u64);
            cycle_order(self.seed, 1, n)
                .into_iter()
                .for_each(|q| h.push(q as u64));
        }
        h.finish()
    }

    fn measure(&mut self, budget: Duration, trace: bool) -> Phase {
        self.rounds(budget, trace)
    }

    fn teardown(mut self) -> Teardown {
        let mut out = Teardown::default();
        match self.catch_up() {
            Ok(secs) => out.rows.push(("store.replicate.catchup_s", secs)),
            Err(e) => out.failures.push(e),
        }
        // A few pairs with the reader gone: the op without a queue to
        // wait in, the base `server.queue_wait_us` is measured from.
        let mut rec = Recorder::new(false, Instant::now());
        let mut solo = Vec::new();
        for n in 0..SOLO_PAIRS {
            let (region, name) = pair_target(self.seed, (1 << 41) | n);
            let start = Instant::now();
            match update_pair(&mut self.writer, region, &name, &mut rec) {
                Ok(()) => solo.push(start.elapsed().as_secs_f64() * 1e6),
                Err(e) => out.failures.push(format!("solo pair: {e}")),
            }
        }
        out.rows.push(("server.solo_op_us", stats::median(&solo)));
        drop((self.writer, self.reader, self.standby_client));
        // Standby first: its fetch loop holds a connection to the primary.
        let mut standby = Teardown::default();
        stop_server(self.standby, 1, &mut standby);
        out.failures.extend(standby.failures);
        stop_server(self.primary, self.requests, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_the_request_sequence() {
        let sequence = |seed| {
            (0..64)
                .map(|n| (pair_target(seed, n).0, cycle_order(seed, 1, n)))
                .collect::<Vec<_>>()
        };
        assert_eq!(sequence(3), sequence(3));
        assert_ne!(sequence(3), sequence(4));
        // Connections of one run issue different sequences too.
        assert_ne!(cycle_order(3, 0, 0), cycle_order(3, 1, 0));
    }
}
