//! `partition-docs`: the offline path, one thread.
//!
//! One op is one pass over the six paper documents: parse the text,
//! partition with the CLI's default engines (`CachedDhw`, `CachedGhdw`,
//! `Ekm`, a fresh DAG cache per call as a user pays it) at K = 256, and
//! validate each result. `core`, `xml` and `tree` do all the work and
//! `store`/`server` none, so a DP consolidation (ROADMAP item 3) shows
//! here and a pager or snapshot change must not.

use std::time::{Duration, Instant};

use natix_core::{CachedDhw, CachedGhdw, Ekm, Partitioner};
use natix_tree::validate;

use super::{
    permutation, rng, Config, Exact, Phase, RoundClock, SequenceHash, Teardown, Workload, K,
    SEQUENCE_PREFIX,
};
use crate::trace::Recorder;

/// Suite scale: a pass takes about 57 ms, so a 24 s run times ≈ 400.
pub const SCALE: f64 = 0.01;

/// Passes per round (≈ 1.3 s).
const PASSES_PER_ROUND: usize = 20;

/// Partitionings per pass: six documents × three algorithms.
pub const PARTITIONINGS_PER_PASS: usize = 18;

/// The six documents as text, in the paper's row order.
pub fn suite_texts(scale: f64) -> Vec<(&'static str, String)> {
    natix_datagen::evaluation_suite(scale, super::CORPUS_SEED)
        .into_iter()
        .map(|(name, doc)| (name, doc.to_xml()))
        .collect()
}

/// Partition counts of one document under DHW, GHDW and EKM.
pub type Cards = [usize; 3];

/// What one checked pass over the suite found.
pub struct PassResult {
    pub cards: Vec<Cards>,
    /// Nodes and total weight per document.
    pub nodes: Vec<usize>,
    pub weights: Vec<u64>,
}

/// Parse, partition ×3 and validate document `i`; a span around each
/// call into a layer. Errors name the failing step.
fn process(
    texts: &[(&'static str, String)],
    i: usize,
    rec: &mut Recorder,
) -> Result<(Cards, usize, u64), String> {
    let (name, text) = &texts[i];
    let doc = rec
        .span("xml.parse", |_| natix_xml::parse(text))
        .map_err(|e| format!("{name}: parse: {e}"))?;
    let tree = doc.tree();
    let algs: [(&'static str, &dyn Partitioner); 3] = [
        ("core.dhw", &CachedDhw),
        ("core.ghdw", &CachedGhdw),
        ("core.ekm", &Ekm),
    ];
    let mut cards = [0usize; 3];
    for (slot, (span, alg)) in algs.into_iter().enumerate() {
        let p = rec
            .span(span, |_| alg.partition(tree, K))
            .map_err(|e| format!("{name}: {}: {e}", alg.name()))?;
        let stats = rec
            .span("tree.validate", |_| validate(tree, K, &p))
            .map_err(|e| format!("{name}: {} is not feasible: {e}", alg.name()))?;
        cards[slot] = stats.cardinality;
    }
    if !(cards[0] <= cards[1] && cards[1] <= cards[2]) {
        return Err(format!(
            "{name}: expected DHW <= GHDW <= EKM, got {cards:?}"
        ));
    }
    Ok((cards, doc.len(), doc.total_weight()))
}

/// One pass in the given document order.
pub fn pass(
    texts: &[(&'static str, String)],
    order: &[usize],
    rec: &mut Recorder,
) -> Result<PassResult, String> {
    let mut out = PassResult {
        cards: vec![[0; 3]; texts.len()],
        nodes: vec![0; texts.len()],
        weights: vec![0; texts.len()],
    };
    rec.span("pass", |rec| {
        for &i in order {
            let (cards, nodes, weight) = process(texts, i, rec)?;
            out.cards[i] = cards;
            out.nodes[i] = nodes;
            out.weights[i] = weight;
        }
        Ok::<(), String>(())
    })?;
    Ok(out)
}

pub struct PartitionDocs {
    texts: Vec<(&'static str, String)>,
    expected: Vec<Cards>,
    exact: Exact,
    seed: u64,
    passes_per_round: usize,
    /// Passes measured so far (the op sequence continues across phases).
    next_pass: u64,
}

impl PartitionDocs {
    /// Document order of pass `n`: the seed-derived part of the op.
    fn order(&self, n: u64) -> Vec<usize> {
        permutation(&mut rng(self.seed, n), self.texts.len())
    }

    /// Run pass `n`, count it in `phase`, and return its latency in
    /// microseconds.
    fn run_pass(&self, n: u64, rec: &mut Recorder, phase: &mut Phase) -> f64 {
        rec.set_op(n);
        let start = Instant::now();
        let result = pass(&self.texts, &self.order(n), rec);
        let lat_us = start.elapsed().as_secs_f64() * 1e6;
        phase.attempted += 1;
        match result {
            Ok(r) if r.cards == self.expected => {}
            Ok(r) => phase.fail(format!(
                "pass {n}: partition counts {:?} differ from the set-up pass {:?}",
                r.cards, self.expected
            )),
            Err(e) => phase.fail(format!("pass {n}: {e}")),
        }
        lat_us
    }
}

impl Workload for PartitionDocs {
    fn setup(cfg: &Config) -> Result<PartitionDocs, String> {
        let scale = if cfg.quick { SCALE / 4.0 } else { SCALE };
        let texts = suite_texts(scale);
        let canonical: Vec<usize> = (0..texts.len()).collect();
        let mut rec = Recorder::new(false, Instant::now());
        let checked = pass(&texts, &canonical, &mut rec)?;
        let partitions: usize = checked.cards.iter().flatten().sum();
        let weight: u64 = checked.weights.iter().sum();
        let w = PartitionDocs {
            texts,
            expected: checked.cards,
            exact: Exact {
                // Table 1: partitions over the suite × three algorithms.
                paper_cost: partitions as f64,
                // Slots reserved (partitions·K) per slot of content.
                space_amp: (partitions as u64 * K) as f64 / (3 * weight) as f64,
            },
            seed: cfg.seed,
            passes_per_round: cfg.sized(PASSES_PER_ROUND),
            next_pass: 0,
        };
        // Warm-up round, discarded: page in the code and the allocator.
        let mut discard = Phase::default();
        for n in 0..w.passes_per_round as u64 {
            w.run_pass(u64::MAX - n, &mut rec, &mut discard);
        }
        if let Some(f) = discard.failures.first() {
            return Err(format!("warm-up: {f}"));
        }
        Ok(w)
    }

    fn describe(&self) -> String {
        format!(
            "six documents, {} bytes of XML, {} passes per round, K = {K}",
            self.texts.iter().map(|(_, t)| t.len()).sum::<usize>(),
            self.passes_per_round
        )
    }

    fn exact(&self) -> Exact {
        self.exact
    }

    fn sequence_hash(&self) -> u64 {
        let mut h = SequenceHash::new();
        for n in 0..SEQUENCE_PREFIX as u64 {
            for i in self.order(n) {
                h.push(i as u64);
            }
        }
        h.finish()
    }

    fn measure(&mut self, budget: Duration, trace: bool) -> Phase {
        let mut phase = Phase::default();
        let mut rec = Recorder::new(false, Instant::now());
        let mut clock = RoundClock::start(budget, trace);
        loop {
            rec.set_enabled(clock.tracing());
            let mut lat_us = Vec::with_capacity(self.passes_per_round);
            for _ in 0..self.passes_per_round {
                lat_us.push(self.run_pass(self.next_pass, &mut rec, &mut phase));
                self.next_pass += 1;
            }
            phase.round_lat_us.push(lat_us);
            let units = (self.passes_per_round * PARTITIONINGS_PER_PASS) as f64;
            if !clock.end_round(units) {
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
