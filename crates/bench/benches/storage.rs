//! Criterion benchmarks for the storage substrate: bulkload throughput,
//! full-document traversal over different layouts, and the decode of a
//! record.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use natix_bench::{natix_core, natix_datagen, natix_store};
use natix_core::{Ekm, Km, Partitioner, Rs};
use natix_datagen::GenConfig;
use natix_store::{decode_record, MemPager, StoreConfig, XmlStore};

fn bench_bulkload(c: &mut Criterion) {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.01,
        seed: 5,
    });
    let mut g = c.benchmark_group("store/bulkload");
    g.throughput(Throughput::Elements(doc.len() as u64));
    for alg in [&Ekm as &dyn Partitioner, &Km, &Rs] {
        let p = alg.partition(doc.tree(), 256).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(alg.name()), &p, |b, p| {
            b.iter(|| {
                XmlStore::bulkload(&doc, p, Box::new(MemPager::new()), StoreConfig::default())
                    .unwrap()
                    .record_count()
            })
        });
    }
    g.finish();
}

fn bench_full_scan(c: &mut Criterion) {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.01,
        seed: 5,
    });
    let mut g = c.benchmark_group("store/full-scan");
    g.throughput(Throughput::Elements(doc.len() as u64));
    for alg in [&Ekm as &dyn Partitioner, &Km] {
        let p = alg.partition(doc.tree(), 256).unwrap();
        let mut store =
            XmlStore::bulkload(&doc, &p, Box::new(MemPager::new()), StoreConfig::default())
                .unwrap();
        g.bench_function(BenchmarkId::from_parameter(alg.name()), |b| {
            b.iter(|| store.to_document().unwrap().len())
        });
    }
    g.finish();
}

/// What entering a record costs once its page is in the pool: the copy
/// out of the page plus `decode`, over every record of the store the
/// repo benchmark's `serve-read` workload serves (XMark 0.08, EKM,
/// K = 256: 646 records). One iteration decodes them all, so the
/// `elem/s` rate is records and the `B/s` rate record bytes; DESIGN.md
/// §13 and §15 quote the per-record figure.
fn bench_decode(c: &mut Criterion) {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.08,
        seed: 0x004e_4154_4958,
    });
    let p = Ekm.partition(doc.tree(), 256).unwrap();
    let mut store =
        XmlStore::bulkload(&doc, &p, Box::new(MemPager::new()), StoreConfig::default()).unwrap();
    let images: Vec<Vec<u8>> = (0..store.record_count() as u32)
        .map(|no| store.with_record(no, |rec| rec.bytes().to_vec()).unwrap())
        .collect();
    let bytes: usize = images.iter().map(Vec::len).sum();
    let mut g = c.benchmark_group("store/decode");
    for (unit, tp) in [
        ("records", Throughput::Elements(images.len() as u64)),
        ("bytes", Throughput::Bytes(bytes as u64)),
    ] {
        g.throughput(tp);
        g.bench_function(BenchmarkId::new("served-ekm", unit), |b| {
            b.iter(|| {
                images
                    .iter()
                    .map(|image| {
                        decode_record(image.clone(), usize::MAX)
                            .unwrap()
                            .roots
                            .len()
                    })
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_bulkload, bench_full_scan, bench_decode);
criterion_main!(benches);
