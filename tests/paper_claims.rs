//! The paper's headline experimental claims, asserted as tests on the
//! (scaled-down) evaluation suite. These are the *shape* claims of Sec. 6;
//! absolute numbers live in EXPERIMENTS.md.

use natix_bench::{natix_core, natix_datagen, natix_store, natix_tree, natix_xpath};
use natix_core::{Bfs, Dfs, Dhw, Ekm, Ghdw, Km, Lukes, Partitioner, Rs};
use natix_datagen::GenConfig;
use natix_store::{MemPager, StoreConfig, XmlStore};
use natix_tree::{validate, Tree};
use natix_xpath::{eval_query, xpathmark, StoreNavigator};

const K: u64 = 256;

fn cardinality_at(alg: &dyn Partitioner, tree: &Tree, k: u64) -> usize {
    let p = alg.partition(tree, k).unwrap();
    validate(tree, k, &p).unwrap().cardinality
}

fn cardinality(alg: &dyn Partitioner, tree: &Tree) -> usize {
    cardinality_at(alg, tree, K)
}

/// Claim (abstract/Sec. 6.2): "compared to partitioning that exclusively
/// considers parent-child partitions, including sibling partitioning as
/// well can decrease the total number of partitions by more than 90%" —
/// measured on the relational documents.
#[test]
fn sibling_partitioning_beats_km_by_90_percent_on_relational_data() {
    for gen in [natix_datagen::partsupp, natix_datagen::orders] {
        let doc = gen(GenConfig {
            scale: 0.05,
            seed: 1,
        });
        let tree = doc.tree();
        let km = cardinality(&Km, tree);
        let dhw = cardinality(&Dhw, tree);
        assert!(
            (dhw as f64) < 0.15 * km as f64,
            "sibling optimum {dhw} should be <15% of KM {km}"
        );
    }
}

/// Claim (Sec. 6.2): GHDW is within a few percent of the optimum; "the
/// difference between GHDW and the optimal result ... is always below 4%".
#[test]
fn ghdw_is_within_4_percent_of_optimal() {
    for (name, doc) in natix_datagen::evaluation_suite(0.02, 2) {
        let tree = doc.tree();
        let dhw = cardinality(&Dhw, tree);
        let ghdw = cardinality(&Ghdw, tree);
        assert!(
            ghdw as f64 <= dhw as f64 * 1.04 + 1.0,
            "{name}: GHDW {ghdw} vs optimal {dhw}"
        );
    }
}

/// Claim (Sec. 6.2): EKM is near-optimal — "always the third-best
/// algorithm" or better, far ahead of KM/DFS/BFS.
#[test]
fn ekm_is_near_optimal_and_beats_the_naive_heuristics() {
    for (name, doc) in natix_datagen::evaluation_suite(0.02, 3) {
        let tree = doc.tree();
        let dhw = cardinality(&Dhw, tree);
        let ekm = cardinality(&Ekm, tree);
        let km = cardinality(&Km, tree);
        let bfs = cardinality(&Bfs, tree);
        assert!(
            (ekm as f64) <= dhw as f64 * 1.10 + 2.0,
            "{name}: EKM {ekm} vs optimal {dhw}"
        );
        assert!(ekm < km, "{name}: EKM {ekm} vs KM {km}");
        assert!(ekm < bfs, "{name}: EKM {ekm} vs BFS {bfs}");
    }
}

/// Claim (Sec. 6.2, Table 1): DFS and BFS "perform sometimes even worse
/// than KM" and are "not very robust" — on the relational documents both
/// lose badly to every sibling partitioner.
#[test]
fn top_down_heuristics_are_not_robust() {
    let doc = natix_datagen::partsupp(GenConfig {
        scale: 0.05,
        seed: 4,
    });
    let tree = doc.tree();
    let rs = cardinality(&Rs, tree);
    let dfs = cardinality(&Dfs, tree);
    let bfs = cardinality(&Bfs, tree);
    assert!(dfs > rs, "DFS {dfs} should lose to RS {rs} on partsupp");
    assert!(bfs > rs, "BFS {bfs} should lose to RS {rs} on partsupp");
}

/// Claim (Sec. 6.4, Table 3): the EKM layout produces fewer records, at a
/// slightly larger disk footprint, and a navigation over it enters fewer
/// storage units. Entering one is decoding its record: on every XPathMark
/// query EKM decodes fewer than KM. Crossings (switches between records,
/// held ones included) agree query by query except on Q5, where the
/// `parent::` check runs at each item as the walk finds it and EKM's items
/// are fragment roots, so each check crosses into the parent record (98
/// against KM's 96 here); summed over the seven queries EKM crosses fewer.
#[test]
fn ekm_layout_beats_km_layout_on_navigation() {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.02,
        seed: 5,
    });
    let load = |alg: &dyn Partitioner| -> XmlStore {
        let p = alg.partition(doc.tree(), K).unwrap();
        XmlStore::bulkload(&doc, &p, Box::new(MemPager::new()), StoreConfig::default()).unwrap()
    };
    let mut km = load(&Km);
    let mut ekm = load(&Ekm);
    // Paper Table 1 at full scale: KM has ~2.8x the records of EKM; our
    // scaled-down generated documents land around 1.5x.
    assert!(ekm.record_count() < km.record_count());

    let mut crossings = (0, 0);
    for (qname, q) in xpathmark::all() {
        let run = |store: &mut XmlStore| {
            store.reset_nav_stats();
            let hits = eval_query(&mut StoreNavigator::new(store), q)
                .unwrap()
                .len();
            (hits, store.nav_stats())
        };
        let (km_hits, km_nav) = run(&mut km);
        let (ekm_hits, ekm_nav) = run(&mut ekm);
        assert_eq!(km_hits, ekm_hits, "{qname}");
        assert!(
            ekm_nav.record_decodes < km_nav.record_decodes,
            "{qname}: EKM decoded {} >= KM {}",
            ekm_nav.record_decodes,
            km_nav.record_decodes
        );
        assert!(
            qname == "Q5" || ekm_nav.record_switches <= km_nav.record_switches,
            "{qname}: EKM crossed {} > KM {}",
            ekm_nav.record_switches,
            km_nav.record_switches
        );
        crossings.0 += ekm_nav.record_switches;
        crossings.1 += km_nav.record_switches;
    }
    assert!(crossings.0 < crossings.1, "{crossings:?}");
}

/// The Fig. 1/Fig. 2 motivating example: a parent whose children cannot
/// share its storage unit. Parent-child partitioning needs one unit per
/// child; sibling partitioning packs consecutive children together.
#[test]
fn fig1_fig2_motivation() {
    let spec = "p:6(c1:2 c2:2(c21:1 c22:1 c23:1) c3:2 c4:2(c41:1 c42:1) c5:2(c51:1 c52:1))";
    let tree = natix_tree::parse_spec(spec).unwrap();
    let k = 7;
    // KM: every child subtree becomes its own partition (6 partitions: the
    // root plus five children).
    let km = cardinality_at(&Km, &tree, k);
    // Sibling partitioning merges adjacent child subtrees.
    let dhw = cardinality_at(&Dhw, &tree, k);
    assert!(dhw < km, "sibling {dhw} vs parent-child {km}");
    assert_eq!(km, 6);
    assert_eq!(dhw, 4); // root + three sibling groups (paper Fig. 2 shows 1+3)
}

/// Claim (Sec. 6.2, Table 2): DHW computes the optimum — its partition
/// count is the minimum over every algorithm on every evaluation
/// document at every K — and the two parent-child optima (KM and the
/// adapted Lukes algorithm) coincide exactly.
#[test]
fn table2_dhw_partition_counts_are_the_minimum_everywhere() {
    for k in [128u64, 256] {
        for (name, doc) in natix_datagen::evaluation_suite(0.02, 7) {
            let tree = doc.tree();
            let dhw = cardinality_at(&Dhw, tree, k);
            for alg in [
                &Ghdw as &dyn Partitioner,
                &Ekm,
                &Km,
                &Rs,
                &Dfs,
                &Bfs,
                &Lukes,
            ] {
                let c = cardinality_at(alg, tree, k);
                assert!(
                    dhw <= c,
                    "{name} K={k}: optimal DHW {dhw} beaten by {} {c}",
                    alg.name()
                );
            }
            let km = cardinality_at(&Km, tree, k);
            let lukes = cardinality_at(&Lukes, tree, k);
            assert_eq!(km, lukes, "{name} K={k}: parent-child optima disagree");
        }
    }
}

/// Claim (Sec. 6.4, Table 3): on every evaluation document the EKM
/// layout stores the tree in fewer records than the KM layout, the
/// optimal DHW layout needs at most EKM's record count, and EKM pays at
/// most a slightly larger disk footprint (the paper reports "a slightly
/// higher disk memory usage" for the sibling layouts).
#[test]
fn table3_ekm_layout_uses_fewer_records_at_similar_footprint() {
    for (name, doc) in natix_datagen::evaluation_suite(0.02, 7) {
        let load = |alg: &dyn Partitioner| -> XmlStore {
            let p = alg.partition(doc.tree(), K).unwrap();
            XmlStore::bulkload(&doc, &p, Box::new(MemPager::new()), StoreConfig::default()).unwrap()
        };
        let km = load(&Km);
        let ekm = load(&Ekm);
        let dhw = load(&Dhw);
        assert!(
            ekm.record_count() < km.record_count(),
            "{name}: EKM {} records vs KM {}",
            ekm.record_count(),
            km.record_count()
        );
        assert!(
            dhw.record_count() <= ekm.record_count(),
            "{name}: optimal {} records vs EKM {}",
            dhw.record_count(),
            ekm.record_count()
        );
        assert!(
            ekm.occupied_bytes() >= km.occupied_bytes(),
            "{name}: EKM footprint {} below KM {} — Table 3 trades bytes for records",
            ekm.occupied_bytes(),
            km.occupied_bytes()
        );
        assert!(
            ekm.occupied_bytes() as f64 <= km.occupied_bytes() as f64 * 1.25,
            "{name}: EKM footprint {} not 'slightly' larger than KM {}",
            ekm.occupied_bytes(),
            km.occupied_bytes()
        );
    }
}
