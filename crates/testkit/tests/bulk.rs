//! Quick-tier power-cut campaign over the sharded streaming bulkload.

use natix_testkit::{campaign, Tier};

#[test]
fn bulkload_power_cut_quick_campaign_is_clean() {
    let plan = campaign("bulkload")
        .unwrap()
        .plan(Tier::Quick, None, None, None)
        .unwrap();
    let report = plan.run(&mut |_| {});
    assert!(report.count("horizon") > 0, "horizon was never measured");
    assert!(report.count("cuts") > 0, "no cuts swept");
    assert!(
        report.ok(),
        "bulkload crash contract violated:\n{}",
        report.failures.join("\n")
    );
}
