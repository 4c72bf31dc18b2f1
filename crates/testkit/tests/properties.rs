//! Property wrapper around the fuzz harness: random (workload, seed, K)
//! cells must run a crash-swept trace cleanly. On failure the proptest
//! shim prints the case inputs — workload index, fuzz seed, and K — so
//! a CI failure is reproducible locally with the same numbers.

use std::collections::HashSet;

use natix_core::Ekm;
use natix_store::{
    bulkload_with, corrupt_page_of_class, fsck, PageClass, SharedMemPager, StoreConfig, XmlStore,
};
use natix_testkit::{generate_trace, min_record_limit, run_trace, workloads, CrashMode};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_traces_with_crash_sweeps_stay_oracle_equivalent(
        workload in 0usize..6,
        fuzz_seed in 0u64..1_000_000,
        k in 8u64..200,
    ) {
        let w = &workloads(0.001, 1)[workload];
        let trace = generate_trace(fuzz_seed, 5);
        let r = run_trace(
            &w.doc,
            k,
            &trace,
            CrashMode::Sweep { max_points_per_op: 6 },
        );
        prop_assert!(
            r.is_ok(),
            "workload={} fuzz_seed={} k={}: {:?}",
            w.name,
            fuzz_seed,
            k,
            r.err()
        );
    }

    /// Degraded reads are *exact*: after rotting a random record page
    /// and repairing, the damage report must equal the repair quarantine,
    /// and the degraded document must equal a partial read of the
    /// undamaged twin excluding exactly the reported records.
    #[test]
    fn damage_reports_are_exact_after_record_rot(
        workload in 0usize..6,
        rot_seed in 0u64..1_000_000,
        k in 8u64..200,
    ) {
        let w = &workloads(0.001, 1)[workload];
        let k = k.max(min_record_limit(&w.doc));
        let config = StoreConfig {
            record_limit_slots: k,
            ..Default::default()
        };
        let disk = SharedMemPager::new();
        let store = bulkload_with(&w.doc, &Ekm, k, Box::new(disk.clone()), config).unwrap();
        drop(store);
        let snap = disk.snapshot();

        let mut branch = SharedMemPager::from_snapshot(&snap);
        let hit = corrupt_page_of_class(&mut branch, rot_seed, PageClass::Record, 3).unwrap();
        prop_assert!(hit.is_some(), "no record page in {}", w.name);
        let report = fsck(&branch, true);
        if !report.repaired {
            // Only a lost root may stop the salvage.
            prop_assert!(
                report.findings.iter().any(|f| f.code == "root-unrecoverable"),
                "repair refused without losing the root: {}",
                report
            );
            return Ok(());
        }
        prop_assert!(fsck(&branch, false).clean());

        let quarantine: HashSet<u32> = report.quarantined.iter().copied().collect();
        let mut degraded = XmlStore::open_read_only(&branch, config).unwrap();
        let (doc, damage) = degraded.to_document_degraded().unwrap();
        let missing = damage.records();
        prop_assert_eq!(&missing, &quarantine, "damage report vs repair quarantine");
        // Intervals are topmost-only, so no record repeats.
        prop_assert_eq!(damage.missing.len(), missing.len());

        let mut clean =
            XmlStore::open(Box::new(SharedMemPager::from_snapshot(&snap)), config).unwrap();
        let want = clean.to_document_partial(&missing).unwrap().to_xml();
        prop_assert_eq!(doc.to_xml(), want);
    }
}
