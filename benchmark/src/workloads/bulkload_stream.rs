//! `bulkload-stream`: the write path end to end.
//!
//! `bulkload_collection` streams small documents (4096 pre-generated,
//! cycled in a seed-derived order) into 4 shard files with 2 loader
//! threads and 512-page pools, one collection of 12288 documents per
//! round. The corpus iterator is the clock of an op: one slice of
//! documents, timed where the loader pulls them, so the bounded queues
//! make the iterator run at the loaders' pace. A round's throughput is
//! its documents over the whole call, drain and final commits included.
//! `server` and `xpath` are idle.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use natix_store::{
    bulkload_collection, bulkload_collection_with, shard_path, BulkloadOptions, BulkloadReport,
    Collection, StoreConfig, CATALOG_FILE,
};
use rand::Rng;

use super::{
    file_len, permutation, rng, Config, Exact, Phase, RoundClock, SequenceHash, Teardown, Workload,
    K, SEQUENCE_PREFIX,
};
use crate::fixtures::small_corpus;
use crate::tpager::{create_timed, PagerCounters};
use crate::trace::Recorder;

/// Pre-generated documents, cycled.
pub const CORPUS_DOCS: usize = 4096;

/// Documents per op (one latency sample each): shards × documents per
/// segment. Every shard commits once per slice, so all ops are alike —
/// a shorter slice would mix slices that wait for four fsyncs with
/// slices that wait for none, and a percentile would sit between them.
const SLICE: usize = 1024;

/// Slices per round (12288 documents, ≈ 1.6 s): enough for a round to
/// have a 90th percentile below its maximum.
const SLICES_PER_ROUND: usize = 12;

/// Documents round-tripped against the generator in the set-up load.
const SAMPLE: usize = 200;

/// Documents round-tripped after every measured round (a full run has
/// about fifteen rounds, so more than 200 in all).
const SAMPLE_PER_ROUND: usize = 16;

pub const SHARDS: u32 = 4;
pub const LOADER_THREADS: usize = 2;
pub const POOL_PAGES: usize = 512;

/// Store configuration of every shard.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        record_limit_slots: K,
        buffer_pages: POOL_PAGES,
        ..StoreConfig::default()
    }
}

/// Loader options: the CLI's defaults at 4 shards and `threads` loaders.
pub fn options(threads: usize) -> BulkloadOptions {
    BulkloadOptions {
        shards: SHARDS,
        threads,
        ..BulkloadOptions::default()
    }
}

/// Bytes a collection directory occupies: shard files plus catalog.
pub fn collection_bytes(dir: &Path) -> u64 {
    (0..SHARDS)
        .map(|s| file_len(&shard_path(dir, s)))
        .sum::<u64>()
        + file_len(&dir.join(CATALOG_FILE))
}

/// Load `docs` into a fresh collection at `dir`. With `counters` the
/// shard backends go through a TimingPager; without, they are the plain
/// `FilePager`s a user gets.
pub fn load<I: IntoIterator<Item = String>>(
    dir: &Path,
    docs: I,
    threads: usize,
    counters: Option<&Arc<PagerCounters>>,
) -> Result<BulkloadReport, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (config, opts) = (store_config(), options(threads));
    match counters {
        Some(c) => {
            bulkload_collection_with(dir, docs, config, opts, &|_, path| create_timed(path, c))
        }
        None => bulkload_collection(dir, docs, config, opts),
    }
    .map_err(|e| format!("bulkload into {}: {e}", dir.display()))
}

/// Read `ids` back from the collection at `dir` and compare each with
/// the text `expect(id)` the generator produced. Returns the misses.
pub fn verify_sample<'a>(
    dir: &Path,
    ids: &[u64],
    expect: impl Fn(u64) -> &'a str,
) -> Result<Vec<String>, String> {
    let mut collection =
        Collection::open(dir, store_config()).map_err(|e| format!("open collection: {e}"))?;
    let mut misses = Vec::new();
    for &id in ids {
        match collection.get_document(id) {
            Ok(doc) if doc.to_xml() == expect(id) => {}
            Ok(_) => misses.push(format!("document {id} does not round-trip byte-identical")),
            Err(e) => misses.push(format!("document {id}: {e}")),
        }
    }
    Ok(misses)
}

/// The corpus iterator of one round: yields `left` documents in the
/// seed's order and times every slice where the loader pulls it.
struct Feed<'a> {
    corpus: &'a [String],
    order: &'a [usize],
    pos: usize,
    left: usize,
    fed: usize,
    bytes: u64,
    slice_start: Instant,
    rec: &'a mut Recorder,
    lat_us: &'a mut Vec<f64>,
}

impl Iterator for Feed<'_> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        if self.fed > 0 && self.fed.is_multiple_of(SLICE) {
            let now = Instant::now();
            let took = now - self.slice_start;
            self.lat_us.push(took.as_secs_f64() * 1e6 / SLICE as f64);
            self.rec.set_op((self.pos / SLICE - 1) as u64);
            self.rec.push("slice", self.slice_start, now);
            self.slice_start = now;
        }
        if self.left == 0 {
            return None;
        }
        let doc = &self.corpus[self.order[self.pos % self.order.len()]];
        self.pos += 1;
        self.left -= 1;
        self.fed += 1;
        self.bytes += doc.len() as u64;
        Some(doc.clone())
    }
}

pub struct BulkloadStream {
    corpus: Vec<String>,
    order: Vec<usize>,
    exact: Exact,
    seed: u64,
    work: PathBuf,
    slices_per_round: usize,
    /// Documents fed so far (the cycled sequence continues across
    /// rounds and phases).
    pos: usize,
}

impl Workload for BulkloadStream {
    fn setup(cfg: &Config) -> Result<BulkloadStream, String> {
        let n = if cfg.quick {
            CORPUS_DOCS / 8
        } else {
            CORPUS_DOCS
        };
        let corpus = small_corpus(n);
        let order = permutation(&mut rng(cfg.seed, 0), n);

        // The exact pass: half the corpus in generator order on one
        // loader thread. Records per document is the paper's cost of
        // the layout; bytes on disk per byte of XML its space.
        let canonical = cfg.work.join("canonical");
        let half = n / 2;
        let report = load(&canonical, corpus[..half].iter().cloned(), 1, None)?;
        if report.docs != half as u64 {
            return Err(format!(
                "canonical load took {} of {half} documents",
                report.docs
            ));
        }
        let xml_bytes: usize = corpus[..half].iter().map(String::len).sum();
        let exact = Exact {
            paper_cost: report.records as f64 / report.docs as f64,
            space_amp: collection_bytes(&canonical) as f64 / xml_bytes as f64,
        };
        let step = (half / SAMPLE).max(1);
        let ids: Vec<u64> = (0..half as u64).step_by(step).collect();
        let misses = verify_sample(&canonical, &ids, |id| corpus[id as usize].as_str())?;
        if let Some(m) = misses.first() {
            return Err(format!("canonical load: {m}"));
        }
        let _ = std::fs::remove_dir_all(&canonical);

        // Warm-up load, discarded: the same half in the seed's order on
        // both loader threads.
        let warm = cfg.work.join("warmup");
        load(
            &warm,
            order[..half].iter().map(|&i| corpus[i].clone()),
            LOADER_THREADS,
            None,
        )?;
        let _ = std::fs::remove_dir_all(&warm);

        Ok(BulkloadStream {
            corpus,
            order,
            exact,
            seed: cfg.seed,
            work: cfg.work.clone(),
            slices_per_round: cfg.sized(SLICES_PER_ROUND),
            pos: 0,
        })
    }

    fn describe(&self) -> String {
        format!(
            "{} documents cycled, {} bytes of XML, {SHARDS} shards, {LOADER_THREADS} loader threads, \
             {POOL_PAGES}-page pools, {SLICE}-document slices, {} slices per round",
            self.corpus.len(),
            self.corpus.iter().map(String::len).sum::<usize>(),
            self.slices_per_round
        )
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn sequence_hash(&self) -> u64 {
        let mut h = SequenceHash::new();
        for &i in self.order.iter().cycle().take(SEQUENCE_PREFIX) {
            h.push(i as u64);
        }
        h.finish()
    }

    fn measure(&mut self, budget: Duration, trace: bool) -> Phase {
        let mut phase = Phase::default();
        let dir = self.work.join("load");
        let round_docs = SLICE * self.slices_per_round;
        let mut rec = Recorder::new(false, Instant::now());
        let mut clock = RoundClock::start(budget, trace);
        loop {
            // One round is one collection: load it, check it, delete it.
            // Deleting per round keeps the filesystem's work (block
            // allocation, discards of freed extents) the same in every
            // round; one ever-growing collection slows down as it grows
            // and leaves gigabytes to discard for the next run.
            let counters = clock.tracing().then(PagerCounters::new);
            rec.set_enabled(clock.tracing());
            let first = self.pos;
            let mut lat_us = Vec::with_capacity(self.slices_per_round);
            clock.begin_round();
            let mut feed = Feed {
                corpus: &self.corpus,
                order: &self.order,
                pos: first,
                left: round_docs,
                fed: 0,
                bytes: 0,
                slice_start: Instant::now(),
                rec: &mut rec,
                lat_us: &mut lat_us,
            };
            let result = load(&dir, &mut feed, LOADER_THREADS, counters.as_ref());
            let bytes = feed.bytes;
            phase.round_lat_us.push(lat_us);
            let go_on = clock.end_round(round_docs as f64);
            self.pos += round_docs;
            phase.attempted += round_docs as u64;
            if let Some(c) = counters {
                let t = c.totals();
                phase.pager = phase.pager.plus(&t);
                phase.pager_ops += round_docs as u64;
                phase.user_bytes += bytes;
                // Each shard commits once per segment.
                phase.commits += (round_docs / options(LOADER_THREADS).seg_docs) as u64;
            }
            match result {
                Ok(report) if report.docs == round_docs as u64 => {
                    // A seed-chosen sample of the round must equal what
                    // the generator produced.
                    let mut pick = rng(self.seed, 99 + first as u64);
                    let ids: Vec<u64> = (0..SAMPLE_PER_ROUND)
                        .map(|_| pick.gen_range(0..round_docs as u64))
                        .collect();
                    let n = self.order.len();
                    let expect =
                        |id: u64| self.corpus[self.order[(first + id as usize) % n]].as_str();
                    match verify_sample(&dir, &ids, expect) {
                        Ok(misses) => misses.into_iter().for_each(|m| phase.fail(m)),
                        Err(e) => phase.fail(e),
                    }
                }
                Ok(report) => {
                    phase.fail(format!("loaded {} of {round_docs} documents", report.docs))
                }
                Err(e) => {
                    phase.failed += round_docs as u64 - 1;
                    phase.fail(e);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
            if !go_on {
                break;
            }
        }
        phase.wall_s = clock.wall_s();
        phase.round_rates = clock.rates;
        phase.round_traced = clock.traced;
        phase.threads = vec![rec.into_spans()];
        phase
    }

    fn teardown(self) -> Teardown {
        Teardown::default()
    }
}
