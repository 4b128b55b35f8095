//! Regression harness for the flattened cache core.
//!
//! The slab-layout `Cache` (one contiguous `sets × ways` line/meta pair of
//! vectors) must be *observationally identical* to the original
//! array-of-structs design. This test replays long access/flush traces
//! against a deliberately naive reference model written the way the seed
//! cache was — `Vec` of sets, `Vec` of ways, `Option<u64>` lines, a
//! per-eviction metadata `collect` — and demands the same outcome
//! (hit/miss, latency, evicted line) on every step, for all three
//! replacement policies, with and without partitioning and keyed
//! remapping. The batched entry point (`access_batch_from` and its
//! same-set sweep) is replayed against the same reference, in the access
//! shapes Prime+Probe produces, and each set's valid-way bound
//! (`Cache::valid_way_bound`) is held between the highest way the
//! reference has valid and the highest way filled since the set was last
//! emptied.

use cache_sim::mapper::Mapper;
use cache_sim::replacement::ReplacementState;
use cache_sim::{Cache, CacheConfig, Domain, IndexMapping, ReplacementPolicy, WayPartition};
use grinch_telemetry::Telemetry;

/// The seed implementation, preserved as an executable specification.
struct ReferenceCache {
    config: CacheConfig,
    mapper: Mapper,
    sets: Vec<RefSet>,
}

struct RefSet {
    ways: Vec<RefWay>,
    replacement: ReplacementState,
    /// One past the highest way filled since the set was last emptied by
    /// a rekey or a whole-cache flush: the loosest valid-way bound the
    /// real cache may report.
    filled_top: usize,
}

#[derive(Clone, Copy)]
struct RefWay {
    line: Option<u64>,
    meta: u64,
}

/// Mirror of the outcome triple the real cache reports.
#[derive(Debug, PartialEq, Eq)]
struct RefOutcome {
    hit: bool,
    latency: u64,
    evicted_line: Option<u64>,
}

impl ReferenceCache {
    fn new_seeded(config: CacheConfig, seed: u64) -> Self {
        let sets = (0..config.num_sets)
            .map(|s| RefSet {
                ways: vec![
                    RefWay {
                        line: None,
                        meta: 0
                    };
                    config.ways
                ],
                replacement: ReplacementState::new(
                    config.replacement,
                    cache_sim::splitmix64(seed ^ cache_sim::splitmix64(s as u64)),
                ),
                filled_top: 0,
            })
            .collect();
        Self {
            config,
            mapper: config.mapping.build(),
            sets,
        }
    }

    fn way_range(&self, domain: Domain) -> core::ops::Range<usize> {
        match self.config.partition {
            Some(p) => p.way_range(domain, self.config.ways),
            None => 0..self.config.ways,
        }
    }

    fn access_from(&mut self, addr: u64, domain: Domain) -> RefOutcome {
        if self.mapper.note_access() {
            for set in &mut self.sets {
                for way in &mut set.ways {
                    way.line = None;
                }
                set.filled_top = 0;
            }
        }
        let line = self.config.line_of(addr);
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let range = self.way_range(domain);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.ways[range.clone()]
            .iter_mut()
            .find(|w| w.line == Some(line))
        {
            way.meta = set.replacement.on_hit(way.meta);
            return RefOutcome {
                hit: true,
                latency: self.config.hit_latency,
                evicted_line: None,
            };
        }
        let fill_meta = set.replacement.on_fill();
        let (way_idx, evicted_line) = if let Some(idx) = set.ways[range.clone()]
            .iter()
            .position(|w| w.line.is_none())
        {
            (range.start + idx, None)
        } else {
            let meta: Vec<u64> = set.ways[range.clone()].iter().map(|w| w.meta).collect();
            let victim = range.start + set.replacement.choose_victim(&meta);
            let old_line = set.ways[victim].line.expect("full set has valid lines");
            (victim, Some(old_line))
        };
        set.ways[way_idx] = RefWay {
            line: Some(line),
            meta: fill_meta,
        };
        set.filled_top = set.filled_top.max(way_idx + 1);
        RefOutcome {
            hit: false,
            latency: self.config.miss_latency,
            evicted_line,
        }
    }

    fn flush_all_from(&mut self, domain: Domain) {
        let range = self.way_range(domain);
        let whole = range == (0..self.config.ways);
        for set in &mut self.sets {
            for way in &mut set.ways[range.clone()] {
                way.line = None;
            }
            if whole {
                set.filled_top = 0;
            }
        }
    }

    /// One past the highest valid way of every set: the tightest sound
    /// valid-way bound.
    fn valid_tops(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.sets.iter().map(|set| {
            let valid = set.ways.iter().rposition(|w| w.line.is_some());
            (valid.map_or(0, |w| w + 1), set.filled_top)
        })
    }

    fn flush_line_from(&mut self, addr: u64, domain: Domain) -> bool {
        let line = self.config.line_of(addr);
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let range = self.way_range(domain);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.ways[range].iter_mut().find(|w| w.line == Some(line)) {
            way.line = None;
            true
        } else {
            false
        }
    }
}

/// A deterministic mixed workload of accesses and occasional flushes from
/// both domains. `span` bounds the address range so sets fill and evict.
fn replay(config: CacheConfig, seed: u64, steps: u64, span: u64) {
    let mut real = Cache::new_seeded(config, seed);
    let mut reference = ReferenceCache::new_seeded(config, seed);
    let mut x = cache_sim::splitmix64(seed ^ 0x5eed);
    for step in 0..steps {
        x = cache_sim::splitmix64(x);
        let addr = x % span;
        let domain = if x & 0x100 == 0 {
            Domain::Victim
        } else {
            Domain::Attacker
        };
        if x & 0xff00_0000 == 0 {
            // Rare flush, exercising the invalidation paths too.
            assert_eq!(
                real.flush_line_from(addr, domain),
                reference.flush_line_from(addr, domain),
                "flush divergence at step {step} (addr {addr:#x})"
            );
            continue;
        }
        let got = real.access_from(addr, domain);
        let want = reference.access_from(addr, domain);
        assert_eq!(
            (got.hit, got.latency, got.evicted_line),
            (want.hit, want.latency, want.evicted_line),
            "outcome divergence at step {step} (addr {addr:#x}, {domain:?})"
        );
    }
}

/// Smallest same-set run `Cache::access_batch_from` hands to its sweep.
const SWEEP_MIN_RUN: u64 = 4;

/// One cache driven through `access_batch_from`, one through
/// `access_from` per address, and the reference, kept in lockstep. The
/// two real caches publish to their own telemetry registries.
struct Lockstep {
    batched: Cache,
    scalar: Cache,
    reference: ReferenceCache,
    telemetry: [Telemetry; 2],
}

impl Lockstep {
    fn new(config: CacheConfig, seed: u64) -> Self {
        let telemetry = [Telemetry::new(), Telemetry::new()];
        let mut batched = Cache::new_seeded(config, seed);
        batched.set_telemetry(telemetry[0].clone(), "l1");
        let mut scalar = Cache::new_seeded(config, seed);
        scalar.set_telemetry(telemetry[1].clone(), "l1");
        Self {
            batched,
            scalar,
            reference: ReferenceCache::new_seeded(config, seed),
            telemetry,
        }
    }

    /// One batch: the batched cache's outcomes, in order, must equal the
    /// reference's and the scalar cache's access by access.
    fn batch(&mut self, addrs: &[u64], domain: Domain, round: u64) {
        let mut got = Vec::with_capacity(addrs.len());
        self.batched.access_batch_from(addrs, domain, |a, o| {
            got.push((a, o.hit, o.latency, o.evicted_line));
        });
        let mut want = Vec::with_capacity(addrs.len());
        for &a in addrs {
            let o = self.reference.access_from(a, domain);
            let s = self.scalar.access_from(a, domain);
            assert_eq!(
                (s.hit, s.latency, s.evicted_line),
                (o.hit, o.latency, o.evicted_line),
                "scalar divergence in round {round} (addr {a:#x}, {domain:?})"
            );
            want.push((a, o.hit, o.latency, o.evicted_line));
        }
        assert_eq!(
            got, want,
            "batch divergence in round {round} ({domain:?}, {addrs:x?})"
        );
        self.assert_bounds(round);
    }

    fn flush_all_from(&mut self, domain: Domain, round: u64) {
        self.batched.flush_all_from(domain);
        self.scalar.flush_all_from(domain);
        self.reference.flush_all_from(domain);
        self.assert_bounds(round);
    }

    fn flush_line_from(&mut self, addr: u64, domain: Domain, round: u64) {
        let want = self.reference.flush_line_from(addr, domain);
        assert_eq!(self.scalar.flush_line_from(addr, domain), want);
        assert_eq!(
            self.batched.flush_line_from(addr, domain),
            want,
            "flush divergence in round {round} (addr {addr:#x})"
        );
        self.assert_bounds(round);
    }

    /// Every set's valid-way bound, in both real caches, must cover the
    /// highest way the reference holds valid (or a hit would be missed
    /// and a fill misplaced) and must not exceed the highest way filled
    /// since the set was last emptied (emptying resets it).
    fn assert_bounds(&self, round: u64) {
        for (set, (valid, filled)) in self.reference.valid_tops().enumerate() {
            for cache in [&self.batched, &self.scalar] {
                let bound = cache.valid_way_bound(set);
                assert!(
                    (valid..=filled).contains(&bound),
                    "set {set} bound {bound} outside {valid}..={filled} in round {round}"
                );
            }
        }
    }

    /// Statistics (hits, misses, evictions, remaps, flushes), published
    /// counters and latency histogram, and residency of the batched cache
    /// must match the scalar one.
    fn assert_same_state(&self) {
        assert_eq!(self.batched.stats(), self.scalar.stats());
        let published = |t: &Telemetry| {
            let counters: Vec<u64> = ["hits", "misses", "evictions", "remaps", "flushes"]
                .iter()
                .map(|c| t.counter(&format!("l1.{c}")))
                .collect();
            let cycles = t.snapshot().histogram("l1.access_cycles").cloned();
            (counters, cycles)
        };
        assert_eq!(published(&self.telemetry[0]), published(&self.telemetry[1]));
        let sorted = |c: &Cache| {
            let mut lines = c.resident_line_addrs();
            lines.sort_unstable();
            lines
        };
        assert_eq!(sorted(&self.batched), sorted(&self.scalar));
    }
}

/// Batched counterpart of [`replay`]: random batches in the shapes a
/// Prime+Probe observation produces, from both domains —
///
/// - a prime of `ways` distinct same-set lines followed by an in-order
///   re-read (every re-read hits at the sweep's queue head);
/// - the same with one foreign line filled in between, so the re-read
///   thrashes the set and each access re-reads the line just evicted;
/// - flat slices of several such groups over consecutive sets, as the
///   oracle primes and probes them;
/// - same-set runs of at least [`SWEEP_MIN_RUN`] from a small line pool
///   (hits anywhere in the queue, misses, repeats), and short mixed runs;
///
/// interleaved with line and whole-domain flushes, which leave empty
/// sets behind, and with the shapes that move a set's valid-way bound —
///
/// - a hole flushed below the bound and then filled: the first invalid
///   way, not the bound, takes the line (the evictions that follow make
///   way positions observable under Random);
/// - victim lines under an attacker prime: on a partitioned cache the
///   bound sits below the attacker's first way;
/// - a whole-domain flush with the other domain's lines resident: on a
///   partitioned cache the bound must stay conservative;
/// - a run long enough to sweep, re-read one line at a time: under a
///   short-epoch remap it crosses a rekey, whose fill must raise the
///   bound of the set it lands in.
fn replay_batched(config: CacheConfig, seed: u64, rounds: u64) {
    let mut c = Lockstep::new(config, seed);
    let sets = config.num_sets as u64;
    let lb = config.line_bytes as u64;
    // The `t`-th line of set class `s`, at byte offset `off` in the line.
    let addr = |s: u64, t: u64, off: u64| (t * sets + s % sets) * lb + off % lb;
    let ways_of = |domain: Domain| {
        config
            .partition
            .map_or(config.ways, |p| p.way_range(domain, config.ways).len()) as u64
    };
    let mut x = cache_sim::splitmix64(seed ^ 0xba7c);
    let mut batch = Vec::new();
    for round in 0..rounds {
        x = cache_sim::splitmix64(x);
        let (domain, other) = if x & 1 == 0 {
            (Domain::Victim, Domain::Attacker)
        } else {
            (Domain::Attacker, Domain::Victim)
        };
        let ways = ways_of(domain);
        let s = (x >> 8) % sets;
        let off = x >> 20;
        batch.clear();
        match (x >> 4) % 11 {
            0 | 1 => {
                batch.extend((0..ways).map(|t| addr(s, t, off)));
                c.batch(&batch, domain, round);
                if x & 0x10_0000_0000 != 0 {
                    // A foreign line lands in the set: from the other
                    // domain (which shares the ways unless partitioned)
                    // or from this one.
                    let toucher = if x & 0x20_0000_0000 != 0 {
                        other
                    } else {
                        domain
                    };
                    c.batch(&[addr(s, ways + (x >> 40) % 3, 0)], toucher, round);
                }
                c.batch(&batch, domain, round);
            }
            2 => {
                let groups = 2 + (x >> 40) % 4;
                for g in 0..groups {
                    batch.extend((0..ways).map(|t| addr(s + g, t, off)));
                }
                c.batch(&batch, domain, round);
                c.batch(&[addr(s + 1, ways + 1, 0)], other, round);
                c.batch(&batch, domain, round);
            }
            3 | 4 => {
                let len = SWEEP_MIN_RUN + (x >> 40) % (3 * ways);
                let pool = ways + 3;
                let mut y = x;
                for _ in 0..len {
                    y = cache_sim::splitmix64(y);
                    batch.push(addr(s, y % pool, y >> 32));
                }
                c.batch(&batch, domain, round);
            }
            5 => {
                let len = 1 + (x >> 40) % 12;
                let mut y = x;
                for _ in 0..len {
                    y = cache_sim::splitmix64(y);
                    batch.push(addr(s + y % 3, (y >> 8) % (ways + 2), y >> 32));
                }
                c.batch(&batch, domain, round);
            }
            6 => {
                if x & 0x10_0000_0000 != 0 {
                    c.flush_all_from(domain, round);
                } else {
                    c.flush_line_from(addr(s, (x >> 40) % ways, 0), domain, round);
                }
            }
            7 => {
                let k = 2 + (x >> 40) % (ways - 1);
                for t in 0..k {
                    c.batch(&[addr(s, t, off)], domain, round);
                }
                c.flush_line_from(addr(s, (x >> 44) % (k - 1), 0), domain, round);
                for t in k..=k + ways {
                    c.batch(&[addr(s, t, off)], domain, round);
                }
            }
            8 => {
                let k = 1 + (x >> 40) % ways_of(Domain::Victim);
                let victim: Vec<u64> = (0..k).map(|t| addr(s, t, off)).collect();
                for &a in &victim {
                    c.batch(&[a], Domain::Victim, round);
                }
                let attacker_ways = ways_of(Domain::Attacker);
                batch.extend((0..attacker_ways).map(|t| addr(s, k + t, off)));
                if x & 0x10_0000_0000 != 0 {
                    c.batch(&batch, Domain::Attacker, round);
                } else {
                    for &a in &batch {
                        c.batch(&[a], Domain::Attacker, round);
                    }
                }
                c.batch(&batch, Domain::Attacker, round);
                c.batch(&victim, Domain::Victim, round);
            }
            9 => {
                let theirs: Vec<u64> = (0..ways_of(other))
                    .map(|t| addr(s, ways + t, off))
                    .collect();
                batch.extend((0..ways).map(|t| addr(s, t, off)));
                c.batch(&theirs, other, round);
                c.batch(&batch, domain, round);
                c.flush_all_from(domain, round);
                c.batch(&theirs, other, round);
                c.batch(&batch, domain, round);
            }
            _ => {
                let len = SWEEP_MIN_RUN + (x >> 40) % ways;
                batch.extend((0..len).map(|t| addr(s, t % (ways + 1), off)));
                c.batch(&batch, domain, round);
                for &a in &batch {
                    c.batch(&[a], domain, round);
                }
            }
        }
    }
    c.assert_same_state();
}

fn base_config(replacement: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        line_bytes: 4,
        num_sets: 8,
        ways: 4,
        hit_latency: 1,
        miss_latency: 20,
        replacement,
        mapping: IndexMapping::Modulo,
        partition: None,
    }
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::Fifo,
    ReplacementPolicy::Random,
];

#[test]
fn slab_replays_reference_evictions_modulo() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        replay(base_config(policy), 0x1000 + i as u64, 20_000, 0x400);
    }
}

#[test]
fn slab_replays_reference_evictions_partitioned() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let cfg = base_config(policy).with_partition(WayPartition { victim_ways: 3 });
        replay(cfg, 0x2000 + i as u64, 20_000, 0x400);
    }
}

#[test]
fn slab_replays_reference_evictions_keyed_remap() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let cfg = base_config(policy).with_mapping(IndexMapping::KeyedRemap {
            key: 0xfeed_f00d ^ i as u64,
            epoch_accesses: 977,
        });
        replay(cfg, 0x3000 + i as u64, 20_000, 0x400);
    }
}

#[test]
fn slab_replays_reference_in_grinch_geometry() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let mut cfg = CacheConfig::grinch_default();
        cfg.replacement = policy;
        replay(cfg, 0x4000 + i as u64, 20_000, 0x1000);
    }
}

#[test]
fn batched_sweep_replays_reference_modulo() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        replay_batched(base_config(policy), 0x5000 + i as u64, 4_000);
    }
}

#[test]
fn batched_sweep_replays_reference_partitioned() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let mut cfg = base_config(policy);
        cfg.ways = 8;
        let cfg = cfg.with_partition(WayPartition { victim_ways: 3 });
        replay_batched(cfg, 0x6000 + i as u64, 4_000);
    }
}

#[test]
fn batched_sweep_replays_reference_short_epoch_keyed_remap() {
    // Epochs shorter than one prime: most sweeps hit a mid-run rekey.
    for (i, policy) in POLICIES.into_iter().enumerate() {
        for epoch in [3, 13, 97] {
            let cfg = base_config(policy).with_mapping(IndexMapping::KeyedRemap {
                key: 0xc0ff_ee00 ^ (i as u64) << 8 ^ epoch,
                epoch_accesses: epoch,
            });
            replay_batched(cfg, 0x7000 + epoch + i as u64, 2_000);
        }
    }
}

#[test]
fn batched_sweep_replays_reference_in_grinch_geometry() {
    for (i, policy) in POLICIES.into_iter().enumerate() {
        let mut cfg = CacheConfig::grinch_default();
        cfg.replacement = policy;
        replay_batched(cfg, 0x8000 + i as u64, 2_000);
        let cfg = cfg.with_partition(WayPartition { victim_ways: 8 });
        replay_batched(cfg, 0x8100 + i as u64, 2_000);
    }
}
