//! The deterministic shard plan: which cells belong to which shard, and
//! where each shard's journal lives.
//!
//! Shard membership is [`CampaignConfig::shard_cells`] — the cells whose
//! `cell_seed(idx) mod num_shards` is the shard index — so the partition
//! is a pure function of the campaign identity and the shard count. Two
//! consequences the orchestrator leans on:
//!
//! * any subset of shards can run anywhere, in any order, any number of
//!   times (journals make re-runs no-ops), and the union always covers the
//!   grid exactly once;
//! * the assignment is decorrelated from the row-major grid layout, so
//!   neighbouring cells — which tend to cost similar wall time — spread
//!   across shards instead of clumping into one slow shard.

use grinch_arena::CampaignConfig;
use std::path::{Path, PathBuf};

/// The partition of a campaign's cell grid into `num_shards` shards.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Campaign identity fingerprint the plan was built for.
    pub campaign_id: String,
    /// Number of shards.
    pub num_shards: usize,
    /// Cell indices per shard, each in ascending index order. Shards may
    /// be empty when there are more shards than cells.
    pub shards: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Builds the plan for `config` split into `num_shards` shards
    /// (clamped to at least 1).
    pub fn new(config: &CampaignConfig, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        Self {
            campaign_id: config.fingerprint(),
            num_shards,
            shards: (0..num_shards)
                .map(|index| config.shard_cells(Some((index, num_shards))))
                .collect(),
        }
    }

    /// Total cells across all shards (the grid size).
    pub fn num_cells(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// The canonical journal filename of one shard:
    /// `CAMPAIGN_<id>.shard-<index>-of-<n>.journal.jsonl`.
    pub fn journal_name(&self, index: usize) -> String {
        format!(
            "CAMPAIGN_{}.shard-{index}-of-{}.journal.jsonl",
            self.campaign_id, self.num_shards
        )
    }

    /// The journal path of one shard under `dir`.
    pub fn journal_path(&self, dir: &Path, index: usize) -> PathBuf {
        dir.join(self.journal_name(index))
    }

    /// Every shard journal path under `dir`, in shard order.
    pub fn journal_paths(&self, dir: &Path) -> Vec<PathBuf> {
        (0..self.num_shards)
            .map(|i| self.journal_path(dir, i))
            .collect()
    }

    /// The canonical aggregated-matrix filename:
    /// `CAMPAIGN_<id>.json`.
    pub fn matrix_name(&self) -> String {
        format!("CAMPAIGN_{}.json", self.campaign_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_the_grid_exactly_once() {
        let cfg = CampaignConfig::full();
        for n in [1usize, 2, 3, 4, 16, 1000] {
            let plan = ShardPlan::new(&cfg, n);
            assert_eq!(plan.num_shards, n);
            assert_eq!(plan.num_cells(), cfg.num_cells());
            let mut seen = vec![false; cfg.num_cells()];
            for (index, shard) in plan.shards.iter().enumerate() {
                let mut sorted = shard.clone();
                sorted.sort_unstable();
                assert_eq!(&sorted, shard, "shard cells are in index order");
                for &idx in shard {
                    assert!(!seen[idx], "cell {idx} assigned twice");
                    assert_eq!(cfg.shard_of(idx, n), index);
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "every cell assigned");
        }
        // Shard count 0 clamps to one shard holding everything.
        let plan = ShardPlan::new(&cfg, 0);
        assert_eq!(plan.num_shards, 1);
        assert_eq!(plan.shards[0].len(), cfg.num_cells());
    }

    #[test]
    fn plan_is_a_pure_function_of_the_identity() {
        let cfg = CampaignConfig::smoke();
        let a = ShardPlan::new(&cfg, 3);
        let b = ShardPlan::new(&cfg, 3);
        assert_eq!(a.shards, b.shards);
        assert_eq!(a.campaign_id, b.campaign_id);
        // jobs is an execution knob — it must not move cells between
        // shards.
        let mut requeued = cfg.clone();
        requeued.jobs = 16;
        let c = ShardPlan::new(&requeued, 3);
        assert_eq!(a.shards, c.shards);
        assert_eq!(a.campaign_id, c.campaign_id);
    }

    #[test]
    fn journal_names_embed_identity_and_cover() {
        let plan = ShardPlan::new(&CampaignConfig::smoke(), 2);
        let name = plan.journal_name(1);
        assert!(name.starts_with(&format!("CAMPAIGN_{}", plan.campaign_id)));
        assert!(name.contains("shard-1-of-2"));
        assert!(name.ends_with(".journal.jsonl"));
        let paths = plan.journal_paths(Path::new("/tmp/x"));
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0], paths[1]);
    }
}
