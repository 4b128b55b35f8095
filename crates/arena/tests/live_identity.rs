//! Byte-identity of artifacts under the live observability plane.
//!
//! The plane's contract is "observe, never perturb": enabling `--live`
//! (worker events, the collector, the HTTP endpoints) must leave the arena
//! matrix identical to a run without it. This test pins that contract at
//! the library level; the CI smoke job pins it again end-to-end by running
//! `grinch-arena run --live ... --check` against the committed baseline.

use grinch_arena::{run_campaign, run_campaign_observed, CampaignConfig, LiveOptions, LivePlane};

/// The full preset's whole grid (4 defenses x 2 attacks x 2 noise
/// levels) at a test-sized trial budget.
fn full_grid_config() -> CampaignConfig {
    let mut cfg = CampaignConfig::full();
    cfg.trials = 1;
    cfg.max_stage_encryptions = 1_500;
    cfg
}

#[test]
fn full_grid_matrix_is_byte_identical_under_the_live_plane() {
    let cfg = full_grid_config();
    let plain = run_campaign(&cfg).to_json();

    let opts = LiveOptions::new("127.0.0.1:0", "identity full");
    let mut plane = LivePlane::start(&cfg, opts).expect("live plane");
    let sender = plane.sender();
    let live = run_campaign_observed(&cfg, Some(&sender)).to_json();
    drop(sender);
    plane.finish();

    assert_eq!(plain, live, "--live must not change a single matrix byte");
    let state = plane.state();
    let state = state.lock().unwrap();
    assert_eq!(state.progress.cells_completed, cfg.num_cells() as u64);
    assert_eq!(
        state.progress.trials_completed,
        (cfg.num_cells() * cfg.trials) as u64
    );
    assert!(
        state
            .exposition()
            .contains(&format!("\narena_cells_completed {}\n", cfg.num_cells())),
        "/metrics renders the final cell count"
    );
}
