//! Seeded end-to-end campaign: the conformance gate that runs on every
//! `cargo test`. A larger sweep (`--cases 500`) runs in CI via the CLI.

use grover_fuzz::{run_campaign, CampaignOptions};
use grover_obs::NOOP;

#[test]
fn campaign_seed_42_is_clean() {
    let summary = run_campaign(
        &CampaignOptions {
            seed: 42,
            cases: 100,
            out_dir: None,
            ..CampaignOptions::default()
        },
        &NOOP,
    );
    assert!(summary.ok(), "{}", summary.to_text());
    assert_eq!(summary.transformed + summary.rejected, 100);
    assert_eq!(summary.rejected, 20, "every 5th case is a must-reject");
}
