//! End-to-end runs of the fuzz harness: the quick campaign (the CI
//! smoke tier) must pass cleanly and deterministically, and scripts
//! must replay.

use natix_store::FaultSchedule;
use natix_testkit::{
    campaign, generate_trace, replay, run_corruption_trace, run_diskfull_trace,
    run_group_commit_trace, run_trace, workload_by_name, CrashMode, Failure, Op, Report, Tier,
};

/// The quick tier of the row called `name`.
fn quick(name: &str) -> Report {
    let plan = campaign(name)
        .unwrap()
        .plan(Tier::Quick, None, None, None)
        .unwrap();
    plan.run(&mut |_| {})
}

#[test]
fn quick_campaign_is_clean() {
    let report = quick("fuzz");
    for f in &report.failures {
        eprintln!("{f}");
    }
    assert!(report.ok(), "{}", report.summary());
    assert_eq!(
        report.count("runs"),
        7,
        "one run per workload: Table 1 and flat"
    );
    assert!(
        report.count("crash points") > 50,
        "sweep exercised too few crash points: {}",
        report.summary()
    );
}

#[test]
fn campaign_outcomes_are_reproducible() {
    assert_eq!(quick("fuzz").summary(), quick("fuzz").summary());
}

#[test]
fn handwritten_script_replays_clean() {
    let (row, report) = replay(
        "\
# exercise appends, a split-prone text run, an insert and a delete
fuzz workload SigmodRecord.xml scale 0.001 gen-seed 1 k 24
append-element 3 0
append-text 3 1
append-text 3 2
insert-before 5 3
delete 7
",
    )
    .unwrap();
    assert_eq!(row, "fuzz");
    assert_eq!(report.count("ops applied") + report.count("skipped"), 5);
    assert!(report.count("crash points") > 10);
}

#[test]
fn replay_rejects_malformed_scripts() {
    assert!(replay("").is_err());
    assert!(replay("fuzz workload nope.xml scale 0.001 gen-seed 1 k 24\n").is_err());
    assert!(replay("fuzz workload SigmodRecord.xml scale x gen-seed 1 k 24").is_err());
    assert!(
        replay("fuzz workload SigmodRecord.xml scale 0.001 gen-seed 1 k 24\nfrobnicate 1\n")
            .is_err()
    );
    // A header must name its row; a group-commit one, its batch size.
    assert!(replay("workload SigmodRecord.xml scale 0.001 gen-seed 1 k 24\n").is_err());
    assert!(replay("chaos workload SigmodRecord.xml scale 0.001 gen-seed 1 k 24\n").is_err());
    assert!(
        replay("group-commit workload SigmodRecord.xml scale 0.001 gen-seed 1 k 24\n").is_err()
    );
}

#[test]
fn uncapped_sweep_covers_every_write_of_a_splitting_run() {
    // One workload, uncapped: every write event of every step gets a
    // power cut. Small record limit forces record splits mid-trace.
    let w = workload_by_name("partsupp.xml", 0.001, 1).unwrap();
    let trace = [
        Op::AppendText { target: 2, tag: 0 },
        Op::AppendText { target: 2, tag: 1 },
        Op::AppendText { target: 2, tag: 2 },
        Op::Delete { target: 2 },
    ];
    let outcome = run_trace(
        &w.doc,
        16,
        &trace,
        CrashMode::Sweep {
            max_points_per_op: 0,
        },
    )
    .unwrap_or_else(|f| panic!("step {}: {}", f.step, f.message));
    assert_eq!(outcome.ops_applied, 4);
    // Each commit writes catalog + journal + headers: a full sweep of
    // four ops has a real write window.
    assert!(outcome.crash_points > 40, "{outcome:?}");
}

#[test]
fn failure_rendering_is_replayable_and_pasteable() {
    let f = Failure {
        row: "fuzz",
        workload: "SigmodRecord.xml".to_string(),
        scale: 0.001,
        gen_seed: 1,
        k: 24,
        batch: 0,
        fuzz_seed: 9,
        step: 1,
        fault: Some(FaultSchedule::power_cut(3, true)),
        message: "example".to_string(),
        trace: vec![
            Op::AppendElement { target: 3, tag: 0 },
            Op::Delete { target: 5 },
        ],
    };
    let script = f.script();
    assert_eq!(
        script,
        "fuzz workload SigmodRecord.xml scale 0.001 gen-seed 1 k 24\nappend-element 3 0\ndelete 5\n"
    );
    // The rendered regression test embeds the script verbatim.
    let test = f.regression_test();
    assert!(test.contains("fn regression_SigmodRecord_k24_seed9()"));
    assert!(test.contains(&script));
    assert!(test.contains("natix_testkit::replay"));
    // And the embedded script actually replays (the trace is benign).
    replay(&script).unwrap();
}

#[test]
fn quick_corruption_campaign_is_clean() {
    let report = quick("corruption");
    for f in &report.failures {
        eprintln!("{f}");
    }
    assert!(report.ok(), "{}", report.summary());
    assert_eq!(
        report.count("runs"),
        7,
        "one run per workload: Table 1 and flat"
    );
    // 12 injection slots per committed state; every run commits several
    // states, so the sweep must pile up real coverage.
    assert!(
        report.count("crash points") > 100,
        "too few corruption injections: {}",
        report.summary()
    );
}

#[test]
fn corruption_sweep_repairs_multi_record_stores() {
    // A split-prone trace on a multi-record store: the sweep must see at
    // least one detected-and-repaired injection (rotting a non-root
    // record page salvages the rest).
    let w = workload_by_name("partsupp.xml", 0.001, 1).unwrap();
    let trace = [
        Op::AppendText { target: 2, tag: 0 },
        Op::AppendText { target: 2, tag: 1 },
        Op::AppendText { target: 2, tag: 2 },
    ];
    let outcome = run_corruption_trace(&w.doc, 16, &trace)
        .unwrap_or_else(|f| panic!("step {}: {}", f.step, f.message));
    assert_eq!(outcome.ops_applied, 3);
    assert!(outcome.injections > 20, "{outcome:?}");
    assert!(outcome.repairs > 0, "{outcome:?}");
}

#[test]
fn shrink_returns_passing_traces_unchanged() {
    let w = workload_by_name("orders.xml", 0.001, 1).unwrap();
    let trace = natix_testkit::generate_trace(5, 4);
    let shrunk = natix_testkit::shrink_trace(&w.doc, 32, &trace, CrashMode::None);
    assert_eq!(shrunk, trace, "a clean trace must not be shrunk");
}

#[test]
fn every_grid_row_replays_its_own_sweep() {
    // A script replays the row that found it, at the full tier: its
    // counts are that row's driver's, not the power-cut sweep's.
    let w = workload_by_name("SigmodRecord.xml", 0.001, 1).unwrap();
    let trace = generate_trace(11, 6);
    let script = |row, batch| {
        Failure {
            row,
            workload: w.name.clone(),
            scale: w.scale,
            gen_seed: w.gen_seed,
            k: 32,
            batch,
            fuzz_seed: 11,
            step: 5,
            fault: None,
            message: String::new(),
            trace: trace.clone(),
        }
        .script()
    };
    let points = |row, batch| {
        let (replayed, report) = replay(&script(row, batch)).unwrap();
        assert_eq!(replayed, row);
        assert_eq!(report.count("runs"), 1);
        report.count("crash points")
    };
    let uncapped = CrashMode::Sweep {
        max_points_per_op: 0,
    };
    let cuts = run_trace(&w.doc, 32, &trace, uncapped).unwrap();
    assert_eq!(points("fuzz", 0), cuts.crash_points);
    let rot = run_corruption_trace(&w.doc, 32, &trace).unwrap();
    assert_eq!(points("corruption", 0), rot.injections);
    let full = run_diskfull_trace(&w.doc, 32, &trace, 4, 0).unwrap();
    assert_eq!(points("diskfull", 0), full.crash_points);
    assert_ne!(full.crash_points, cuts.crash_points);
    let batched = run_group_commit_trace(&w.doc, 32, &trace, 4, 0).unwrap();
    assert_eq!(points("group-commit", 4), batched.crash_points);
    let (_, report) = replay(&script("group-commit", 4)).unwrap();
    assert_eq!(report.count("batches"), batched.steps);
}
