//! The four workloads and what they share: the run configuration, the
//! seed-derived operation sequence, the round clock and the result of a
//! measured phase.

pub mod bulkload_stream;
pub mod partition_docs;
pub mod serve_read;
pub mod serve_write;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tpager::PagerTotals;
use crate::trace::Span;

/// Weight limit of every partitioning and store in the benchmark: the
/// paper's K = 256 slots (2 KB records).
pub const K: u64 = 256;

/// Seed of every generated corpus. The corpora are the same for every
/// `--seed` so that the exact metrics (`paper_cost`, `space_amp`) repeat
/// across seeds; the seed decides the *order* in which a run uses them.
pub const CORPUS_SEED: u64 = 0x004e_4154_4958;

/// What a workload is asked to do.
#[derive(Clone)]
pub struct Config {
    pub seed: u64,
    /// `--quick`: every size cut to about a twentieth, for smoke runs.
    pub quick: bool,
    /// Scratch directory for store files.
    pub work: PathBuf,
}

impl Config {
    /// `full` at full size, a twentieth (at least 1) under `--quick`.
    pub fn sized(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

/// Exact, single-threaded counts taken during set-up.
#[derive(Clone, Copy, Default)]
pub struct Exact {
    pub paper_cost: f64,
    pub space_amp: f64,
}

/// What one measured phase observed.
#[derive(Default)]
pub struct Phase {
    /// Latency of every measured op in microseconds, one list per round
    /// (all generator threads of the round together).
    pub round_lat_us: Vec<Vec<f64>>,
    /// Throughput of every round in the workload's end-to-end unit, and
    /// whether the round ran with tracing on.
    pub round_rates: Vec<f64>,
    pub round_traced: Vec<bool>,
    /// Ops attempted, in the unit `failed` counts.
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub failures: Vec<String>,
    pub wall_s: f64,
    /// Spans per generator thread (empty when untraced).
    pub threads: Vec<Vec<Span>>,
    /// Device traffic seen by a TimingPager during the phase.
    pub pager: PagerTotals,
    /// Ops `pager` spreads over, user bytes they carried, commits made.
    pub pager_ops: u64,
    pub user_bytes: u64,
    pub commits: u64,
    /// Workload-specific layer rows.
    pub rows: Vec<(&'static str, f64)>,
}

impl Phase {
    /// Latencies of all rounds pooled, ascending.
    pub fn latencies(&self) -> Vec<f64> {
        crate::stats::sorted(self.round_lat_us.iter().flatten().copied().collect())
    }

    /// The `p`th percentile of each round's latencies.
    pub fn round_percentiles(&self, p: f64) -> Vec<f64> {
        self.round_lat_us
            .iter()
            .map(|r| crate::stats::percentile(&crate::stats::sorted(r.clone()), p))
            .collect()
    }

    /// Throughput of the fastest round: the end-to-end `ops_per_s`. The
    /// rounds are equal work, and what differs between them on a shared
    /// host — a neighbour on the core, a stalled disk queue — only ever
    /// slows one down. Such stretches last ten seconds and more here,
    /// so the median over rounds moved a tenth between identical runs
    /// (and `op_p90_us` a quarter) where the best round moved a
    /// twentieth.
    pub fn best_rate(&self) -> f64 {
        self.round_rates.iter().copied().fold(0.0, f64::max)
    }

    /// The lowest `p`th percentile any round reached: the end-to-end
    /// latencies, for the reason given at [`Phase::best_rate`].
    pub fn best_percentile(&self, p: f64) -> f64 {
        self.round_percentiles(p)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Count a failed op, keeping the first few messages.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }
}

/// What tearing a workload down found.
#[derive(Default)]
pub struct Teardown {
    pub failures: Vec<String>,
    pub rows: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Everything before the first measured op: corpus generation, store
    /// build, server start, the single-threaded correctness and
    /// `paper_cost` pass, and a discarded warm-up.
    fn setup(cfg: &Config) -> Result<Self, String>;

    /// One line on the sizes the run used, for the report.
    fn describe(&self) -> String;

    /// The exact counts (read after the measured phase: `serve-write`
    /// samples its store size under load).
    fn exact(&self) -> Exact;

    /// Hash of the first [`SEQUENCE_PREFIX`] ops this seed generates.
    fn sequence_hash(&self) -> u64;

    /// Run whole rounds of the seed-derived op sequence for about
    /// `budget`. With `trace`, every second round records spans and
    /// pager counters; the rounds between them run untraced, so the
    /// difference of their throughputs prices the tracing.
    fn measure(&mut self, budget: Duration, trace: bool) -> Phase;

    /// Stop servers, run the closing checks.
    fn teardown(self) -> Teardown;
}

/// Ops hashed into `sequence_hash`.
pub const SEQUENCE_PREFIX: usize = 1024;

/// FNV-1a over op descriptors: equal seeds must print equal hashes.
#[derive(Clone, Copy)]
pub struct SequenceHash(u64);

impl SequenceHash {
    pub fn new() -> SequenceHash {
        SequenceHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The generator of stream `stream` of a run (one per connection or
/// purpose, so threads never share a generator).
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A permutation of `0..n` per call: the order one op visits its parts.
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut order);
    order
}

/// Times equal rounds and decides when the budget is spent.
pub struct RoundClock {
    start: Instant,
    budget: Duration,
    round_start: Instant,
    longest: Duration,
    pub rates: Vec<f64>,
    pub traced: Vec<bool>,
    trace: bool,
}

impl RoundClock {
    /// Start the first round now. With `trace`, odd rounds are traced.
    pub fn start(budget: Duration, trace: bool) -> RoundClock {
        let now = Instant::now();
        RoundClock {
            start: now,
            budget,
            round_start: now,
            longest: Duration::ZERO,
            rates: Vec::new(),
            traced: Vec::new(),
            trace,
        }
    }

    /// Start timing the next round now, leaving out what the caller did
    /// since the last one ended (closing checks, deleting files).
    pub fn begin_round(&mut self) {
        self.round_start = Instant::now();
    }

    /// Whether the round now running records spans and counters.
    pub fn tracing(&self) -> bool {
        self.trace && self.rates.len() % 2 == 1
    }

    /// Close a round that did `units` of work; returns whether another
    /// whole round fits (at least three rounds always run, so the
    /// median of rounds has something to choose from).
    pub fn end_round(&mut self, units: f64) -> bool {
        let now = Instant::now();
        let took = now - self.round_start;
        self.traced.push(self.tracing());
        self.rates.push(units / took.as_secs_f64().max(1e-9));
        self.longest = self.longest.max(took);
        self.round_start = now;
        self.rates.len() < 3 || now - self.start + self.longest <= self.budget
    }

    /// Seconds since the first round started.
    pub fn wall_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Size of a file, 0 when missing.
pub fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_best_round_ignores_slow_stretches_however_long() {
        // Five equal rounds, three of them beside a noisy neighbour: the
        // median over rounds would report the neighbour.
        let phase = Phase {
            round_rates: vec![100.0, 70.0, 60.0, 98.0, 65.0],
            round_lat_us: vec![
                vec![10.0, 10.0, 11.0, 30.0],
                vec![14.0, 15.0, 16.0, 90.0],
                vec![17.0, 17.0, 18.0, 25.0],
            ],
            ..Phase::default()
        };
        assert_eq!(phase.best_rate(), 100.0);
        assert_eq!(phase.best_percentile(50.0), 10.0);
        assert_eq!(phase.best_percentile(90.0), 25.0);
    }

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let order = |seed| {
            let mut r = rng(seed, 1);
            (0..8).map(|_| permutation(&mut r, 7)).collect::<Vec<_>>()
        };
        assert_eq!(order(5), order(5));
        assert_ne!(order(5), order(6));
        let mut p = permutation(&mut rng(9, 0), 7);
        p.sort_unstable();
        assert_eq!(p, (0..7).collect::<Vec<_>>());
    }
}
