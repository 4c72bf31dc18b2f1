//! Power-cut campaign for the sharded streaming bulkload.
//!
//! The collection loader's crash contract: killing the power mid-load
//! must leave (1) every shard *independently* recoverable — each shard
//! file either reopens through normal journal recovery with a clean
//! consistency check and fsck scrub, or (for the cut shard only) was
//! never committed at all and has no catalog presence; and (2) the
//! catalog consistent — every frame references only durably committed
//! segments, so every cataloged document id is readable and serializes
//! to exactly the source document. Torn catalog tails are dropped by
//! the reader, never reported as damage.
//!
//! The sweep wraps one shard's [`FilePager`] in a [`FaultInjectingPager`]
//! power cut. Because the injector's backend is the real file, the disk
//! after the simulated cut holds exactly the pre-cut bytes (plus the
//! torn half-page when the cut lands mid-write) — recovery then runs
//! against an authentic crashed file, not a model of one.
//!
//! Cut points are chosen against a measured write-event horizon: a
//! fault-free load first counts the target shard's write events
//! (allocations + page writes, the same numbering the injector uses);
//! the campaign then sweeps cuts across `[1, horizon]`, alternating
//! clean and torn cuts. A shard's write stream depends only on its own
//! document subsequence, so the horizon is stable across runs and
//! thread counts and every chosen cut point actually fires.

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use natix_store::{
    bulkload_collection_with, fsck, read_catalog, shard_path, BulkloadOptions, Collection,
    FaultInjectingPager, FaultSchedule, FilePager, PageId, Pager, StoreConfig, StoreResult,
    XmlStore, PAGE_SIZE,
};

use crate::harness::{scratch_dir, Plan, Progress, Report};

/// One tier of the campaign: the corpus, how it is sharded and
/// segmented, and how densely the horizon is cut.
struct Load {
    /// Corpus size (synthetic documents, deterministic by index).
    docs: usize,
    shards: u32,
    /// Documents per segment commit.
    seg_docs: usize,
    /// Streaming partitioner sibling budget.
    sibling_budget: usize,
    /// Record weight limit `K` for the shard stores.
    record_limit_slots: natix_tree::Weight,
    /// Cut points to sweep across the horizon; 0 = every write event.
    max_cuts: usize,
}

/// CI smoke tier: a handful of cuts over a small corpus.
const QUICK: Load = Load {
    docs: 36,
    shards: 3,
    seg_docs: 4,
    sibling_budget: 4,
    record_limit_slots: 64,
    max_cuts: 10,
};

/// Thorough tier: a larger corpus, cut at every write event of its
/// horizon.
const FULL: Load = Load {
    docs: 180,
    shards: 4,
    seg_docs: 12,
    sibling_budget: 6,
    record_limit_slots: 128,
    max_cuts: 120,
};

/// Loader threads.
const THREADS: usize = 2;

/// The shard that gets the power cut.
const TARGET_SHARD: u32 = 0;

impl Load {
    fn store_config(&self) -> StoreConfig {
        StoreConfig {
            record_limit_slots: self.record_limit_slots,
            ..StoreConfig::default()
        }
    }

    fn load_options(&self) -> BulkloadOptions {
        BulkloadOptions {
            shards: self.shards,
            threads: THREADS,
            seg_docs: self.seg_docs,
            sibling_budget: self.sibling_budget,
        }
    }
}

/// Counts write events (allocations + page writes) with the same
/// numbering [`FaultInjectingPager`] uses, so the measured horizon maps
/// one-to-one onto cut points.
struct CountingPager {
    inner: Box<dyn Pager>,
    events: Arc<AtomicU64>,
}

impl Pager for CountingPager {
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> StoreResult<PageId> {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.inner.allocate()
    }

    fn read(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StoreResult<()> {
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StoreResult<()> {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.inner.write(id, buf)
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.inner.sync()
    }
}

/// Deterministic synthetic corpus: shape varies with the index so cuts
/// land across records of different sizes and fan-outs.
fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 3 {
            0 => format!(
                "<doc id=\"{i}\"><title>entry {i}</title>\
                 <body>payload text for document number {i}</body></doc>"
            ),
            1 => {
                let items: String = (0..(i % 7) + 2)
                    .map(|j| format!("<item k=\"{j}\">v{i}-{j}</item>"))
                    .collect();
                format!("<doc id=\"{i}\"><list>{items}</list></doc>")
            }
            _ => format!(
                "<doc id=\"{i}\"><a><b><c depth=\"3\">leaf {i}</c></b></a>\
                 <note>n{}</note></doc>",
                i % 5
            ),
        })
        .collect()
}

/// Recovery contract check against the on-disk state of `dir`.
fn verify_dir(
    dir: &Path,
    cfg: &Load,
    docs: &[String],
    cut_shard: Option<u32>,
) -> Result<(), String> {
    let (shard_count, segments) =
        read_catalog(dir).map_err(|e| format!("catalog unreadable: {e}"))?;
    if shard_count != cfg.shards {
        return Err(format!(
            "catalog shard count {shard_count} != configured {}",
            cfg.shards
        ));
    }

    for s in 0..shard_count {
        let frames = segments.iter().filter(|g| g.shard == s).count();
        let opened = FilePager::open(&shard_path(dir, s))
            .and_then(|p| XmlStore::open(Box::new(p), cfg.store_config()));
        match opened {
            Ok(mut store) => {
                store
                    .check_consistency()
                    .map_err(|e| format!("shard {s} inconsistent after recovery: {e}"))?;
                drop(store);
                let report = fsck(&shard_path(dir, s), false);
                if !report.clean() {
                    return Err(format!("shard {s} fsck not clean:\n{report}"));
                }
            }
            Err(e) => {
                // An unopenable shard is legal only when it never reached
                // a first commit — the cut shard itself, or a sibling the
                // dead worker never got to create — and then the catalog
                // must hold nothing for it. A baseline run (`cut_shard`
                // is `None`) tolerates no unopenable shard at all.
                if cut_shard.is_none() {
                    return Err(format!("shard {s} failed to open: {e}"));
                }
                if frames > 0 {
                    return Err(format!(
                        "shard {s} has {frames} catalog frame(s) but failed to open: {e}"
                    ));
                }
            }
        }
    }

    // Every cataloged document must read back byte-for-byte.
    let mut coll =
        Collection::open(dir, cfg.store_config()).map_err(|e| format!("collection open: {e}"))?;
    for s in 0..shard_count {
        let locals = coll.shard_doc_count(s);
        for local in 0..locals {
            let doc_id = s as u64 + local * shard_count as u64;
            let got = coll
                .get_document(doc_id)
                .map_err(|e| format!("cataloged doc {doc_id} unreadable: {e}"))?
                .to_xml();
            let want = docs
                .get(doc_id as usize)
                .ok_or_else(|| format!("catalog invents doc {doc_id}"))?;
            if &got != want {
                return Err(format!("doc {doc_id} corrupted after recovery"));
            }
        }
    }
    Ok(())
}

/// `natix soak --bulkload`: measure the target shard's write-event
/// horizon with a fault-free load, then sweep power cuts across it,
/// verifying the recovery contract after each simulated crash.
pub(crate) fn bulkload(plan: &Plan, progress: &mut Progress) -> Report {
    sweep(&plan.tier.pick(QUICK, FULL), progress)
}

fn sweep(cfg: &Load, progress: &mut Progress) -> Report {
    let docs = corpus(cfg.docs);
    let mut report = Report::new(
        "{docs} docs, horizon {horizon} write events, {cuts} cuts swept, {failures} failure(s)",
        &[],
    );
    report.add("docs", docs.len() as u64);

    // Baseline: fault-free load, counting the target shard's write
    // events; everything must verify before any cut is meaningful.
    let base = scratch_dir("bulk-base");
    let events = Arc::new(AtomicU64::new(0));
    let counter = events.clone();
    let outcome = bulkload_collection_with(
        &base,
        docs.iter().cloned(),
        cfg.store_config(),
        cfg.load_options(),
        &move |shard, path| {
            let file = Box::new(FilePager::create(path)?);
            if shard == TARGET_SHARD {
                Ok(Box::new(CountingPager {
                    inner: file,
                    events: counter.clone(),
                }))
            } else {
                Ok(file)
            }
        },
    );
    let baseline = match outcome {
        Ok(_) => verify_dir(&base, cfg, &docs, None),
        Err(e) => Err(format!("fault-free load failed: {e}")),
    };
    let _ = fs::remove_dir_all(&base);
    if let Err(message) = baseline {
        report.failures.push(format!("baseline: {message}"));
        return report;
    }
    let horizon = events.load(Ordering::Relaxed);
    report.add("horizon", horizon);
    progress(&format!(
        "baseline clean: {} docs, horizon {horizon} write events on shard {TARGET_SHARD}",
        docs.len(),
    ));

    // Cut points across [1, horizon], endpoints included; every point
    // fires because the shard's write stream is deterministic.
    let cuts: Vec<u64> = if cfg.max_cuts == 0 || cfg.max_cuts as u64 >= horizon {
        (1..=horizon).collect()
    } else {
        let m = cfg.max_cuts as u64;
        (0..m)
            .map(|i| 1 + i * (horizon - 1) / (m - 1))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect()
    };

    for (i, &at) in cuts.iter().enumerate() {
        let torn = i % 2 == 1;
        let dir = scratch_dir("bulk-cut");
        // The load may fail (worker lost its disk) or succeed (the rest
        // of the corpus routed around the dead shard before the feed
        // loop noticed) — both are legal; the disk contract is what we
        // check.
        let _ = bulkload_collection_with(
            &dir,
            docs.iter().cloned(),
            cfg.store_config(),
            cfg.load_options(),
            &move |shard, path| {
                let file = Box::new(FilePager::create(path)?);
                if shard == TARGET_SHARD {
                    Ok(Box::new(FaultInjectingPager::new(
                        file,
                        FaultSchedule::power_cut(at, torn),
                    )))
                } else {
                    Ok(file)
                }
            },
        );
        report.add("cuts", 1);
        let verdict = verify_dir(&dir, cfg, &docs, Some(TARGET_SHARD));
        let _ = fs::remove_dir_all(&dir);
        if let Err(message) = verdict {
            let torn = if torn { "+torn" } else { "" };
            report.failures.push(format!("cut@{at}{torn}: {message}"));
            if report.failures.len() >= 5 {
                progress("aborting sweep after 5 failures");
                break;
            }
        }
        if (i + 1) % 25 == 0 {
            progress(&format!("{}/{} cuts swept", i + 1, cuts.len()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick tier samples 10 cuts of its horizon; a header that
    /// reached the disk ahead of its data pages slipped between them.
    /// Cut the small corpus at every write event of a fresh load.
    #[test]
    fn quick_corpus_survives_a_cut_at_every_write_event() {
        let report = sweep(
            &Load {
                max_cuts: 0,
                ..QUICK
            },
            &mut |_| {},
        );
        assert!(
            report.ok(),
            "{}\n{}",
            report.summary(),
            report.failures.join("\n")
        );
        assert_eq!(report.count("cuts"), report.count("horizon"));
        assert!(report.count("horizon") > 40, "{}", report.summary());
    }
}
