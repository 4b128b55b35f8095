//! Adapter feeding `gift-cipher` table reads into a [`Cache`].

use crate::cache::{BatchTally, Cache};
use crate::mapper::Domain;
use gift_cipher::observer::{Access, MemoryObserver};

/// A [`MemoryObserver`] that forwards every table read of a table-driven
/// cipher into a cache (victim domain), modelling the victim's execution
/// warming the shared L1.
///
/// Each read goes straight into the cache, so state and [`crate::CacheStats`]
/// are exactly those of [`Cache::access`] per read; only the telemetry is
/// batched — outcomes are tallied and published under one registry borrow
/// when the observer is dropped (counter totals and histogram aggregates
/// match the per-read publishes).
///
/// ```
/// use cache_sim::{Cache, CacheConfig, CacheObserver};
/// use gift_cipher::{Key, TableGift64, TableLayout};
///
/// let mut cache = Cache::new(CacheConfig::grinch_default());
/// let cipher = TableGift64::new(Key::from_u128(1), TableLayout::new(0x400));
/// cipher.encrypt_with(0x1234, &mut CacheObserver::new(&mut cache));
/// assert!(cache.stats().accesses() > 0);
/// ```
#[derive(Debug)]
pub struct CacheObserver<'a> {
    cache: &'a mut Cache,
    tally: BatchTally,
}

impl<'a> CacheObserver<'a> {
    /// Wraps a cache so it can observe cipher table reads.
    pub fn new(cache: &'a mut Cache) -> Self {
        Self {
            cache,
            tally: BatchTally::default(),
        }
    }
}

impl MemoryObserver for CacheObserver<'_> {
    #[inline]
    fn on_read(&mut self, access: Access) {
        let (outcome, remapped) = self.cache.access_core(access.addr, Domain::Victim);
        self.tally.note(&outcome, remapped);
    }
}

impl Drop for CacheObserver<'_> {
    fn drop(&mut self) {
        self.cache.publish_tally(&self.tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::mapper::IndexMapping;
    use gift_cipher::{Key, RecordingObserver, TableGift64, TableLayout};
    use grinch_telemetry::Telemetry;

    #[test]
    fn one_encryption_leaves_sbox_lines_resident() {
        let mut cache = Cache::new(CacheConfig::grinch_default());
        let layout = TableLayout::new(0x400);
        let cipher = TableGift64::new(Key::from_u128(0xabcd), layout);
        cipher.encrypt_with(0x1111_2222_3333_4444, &mut CacheObserver::new(&mut cache));
        // 28 rounds x 16 nibble lookups: with a tiny table and 1-byte lines,
        // essentially every S-box entry ends up cached — the paper's reason
        // why probing *after* an encryption is useless.
        assert!(cache.resident_lines() >= 12);
        assert_eq!(
            cache.stats().accesses(),
            (gift_cipher::GIFT64_ROUNDS * 16) as u64
        );
    }

    #[test]
    fn flush_then_single_round_exposes_round_accesses() {
        let mut cache = Cache::new(CacheConfig::grinch_default());
        let layout = TableLayout::new(0x400);
        let cipher = TableGift64::new(Key::from_u128(7), layout);
        let mut enc = cipher.start_encryption(0xfedc_ba98_7654_3210);
        enc.step_round(&mut CacheObserver::new(&mut cache));
        cache.flush_all();
        enc.step_round(&mut CacheObserver::new(&mut cache));
        // Only the second round's (<= 16) distinct entries are resident now.
        assert!(cache.resident_lines() <= 16);
        assert!(cache.resident_lines() >= 1);
    }

    #[test]
    fn batching_observer_matches_per_read_access() {
        // One victim round through the observer and the same reads through
        // `access_from` must leave the same stats, residency and telemetry
        // export. The rekeying geometry (an epoch shorter than a round)
        // makes sure remaps are tallied too; the cold cache, misses; the
        // second round over a warm cache, hits.
        let layout = TableLayout::new(0x400);
        let cipher = TableGift64::new(Key::from_u128(0x5eed_cafe), layout);
        for mapping in [
            IndexMapping::Modulo,
            IndexMapping::KeyedRemap {
                key: 0xfeed,
                epoch_accesses: 5,
            },
        ] {
            let config = CacheConfig::grinch_default().with_mapping(mapping);
            let run = |batched: bool| {
                let tel = Telemetry::new();
                let mut cache = Cache::new(config);
                cache.set_telemetry(tel.clone(), "cache.l1");
                let mut state = 0x0123_4567_89ab_cdef;
                for round in 0..2 {
                    if batched {
                        state = cipher.run_single_round(
                            state,
                            round,
                            &mut CacheObserver::new(&mut cache),
                        );
                    } else {
                        let mut rec = RecordingObserver::new();
                        state = cipher.run_single_round(state, round, &mut rec);
                        for a in &rec.accesses {
                            cache.access_from(a.addr, Domain::Victim);
                        }
                    }
                }
                let mut resident = cache.resident_line_addrs();
                resident.sort_unstable();
                (*cache.stats(), resident, tel.to_jsonl())
            };
            let (batched, looped) = (run(true), run(false));
            assert!(batched.0.hits > 0 && batched.0.misses > 0);
            assert_eq!(batched, looped, "{mapping:?}");
        }
    }
}
