//! Criterion bench for the raw simulation hot path: one `Cache::access`
//! in the paper's L1 geometry, measured for the hit and the miss/evict
//! case, each with telemetry detached and attached. These four numbers are
//! the denominators of every Monte-Carlo sweep in the repo — an arena cell
//! is millions of these calls — so the bench doubles as the wall-clock
//! evidence for the hot-path overhaul (see DESIGN.md §11).
//!
//! The `cache_sweep` group times the three phases of a Prime+Probe
//! observation on one 16-way set through `Cache::access_batch_from`'s
//! same-set sweep (DESIGN.md §15): the prime of an empty set, the in-order
//! probe of a primed set nobody touched (every re-read hits at the queue
//! head), and the probe of a set one victim line has touched (the LRU
//! thrash: every re-read misses on the line just evicted).
//!
//! The `victim_round` group times one GIFT round's 16 S-box reads, from a
//! cold cache as in a Flush+Reload observation, three ways: through
//! `CacheObserver` (the oracle's victim path), replayed through
//! `access_batch_from` (the path it replaced, which lost to the plain
//! loop) and through an `access_from` loop.
//!
//! Set `GRINCH_BENCH_SMOKE=1` to shrink sampling for CI smoke runs.

use std::time::Duration;

use cache_sim::{Cache, CacheConfig, CacheObserver, Domain};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use gift_cipher::observer::{Access, AccessKind};
use gift_cipher::{Key, MemoryObserver, RecordingObserver, TableGift64, TableLayout};
use grinch_telemetry::Telemetry;

fn smoke(group: &mut criterion::BenchmarkGroup<'_>) {
    if std::env::var("GRINCH_BENCH_SMOKE").is_ok() {
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(60));
    }
}

/// Distinct-line address stream that wraps far beyond the cache capacity,
/// so every access misses and (once warm) evicts.
fn miss_stream(i: u64) -> u64 {
    (i.wrapping_mul(0x9e37_79b9) % 0x10_0000) & !0xf
}

fn bench_cache_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    smoke(&mut group);

    for (label, telemetry) in [
        ("telemetry_off", Telemetry::disabled()),
        ("telemetry_on", Telemetry::new()),
    ] {
        let mut hit_cache = Cache::new(CacheConfig::grinch_default());
        hit_cache.set_telemetry(telemetry.clone(), "cache.l1");
        hit_cache.access(0x400);
        group.bench_function(format!("hit/{label}"), |b| {
            b.iter(|| hit_cache.access(black_box(0x400)))
        });

        let mut miss_cache = Cache::new(CacheConfig::grinch_default());
        miss_cache.set_telemetry(telemetry.clone(), "cache.l1");
        let mut i = 0u64;
        group.bench_function(format!("miss_evict/{label}"), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                miss_cache.access(black_box(miss_stream(i)))
            })
        });
    }
    group.finish();
}

fn bench_sweep_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_sweep");
    smoke(&mut group);
    let config = CacheConfig::grinch_default();
    // `ways` attacker lines and one victim line, all in set 5.
    let stride = (config.line_bytes * config.num_sets) as u64;
    let set_addr = |t: u64| 5 * config.line_bytes as u64 + t * stride;
    let prime: Vec<u64> = (0..config.ways as u64).map(set_addr).collect();
    let victim = set_addr(config.ways as u64 + 1);

    // Each iteration also empties the cache: one occupied set to clear.
    let mut cache = Cache::new(config);
    group.bench_function("prime_empty_set", |b| {
        b.iter(|| {
            cache.flush_all_from(Domain::Attacker);
            cache.access_batch_from(black_box(&prime), Domain::Attacker, |_, o| {
                black_box(o);
            });
        })
    });

    // An in-order LRU re-read leaves the set as it found it, so the probe
    // repeats on an identical primed set.
    let mut cache = Cache::new(config);
    cache.access_batch_from(&prime, Domain::Attacker, |_, _| {});
    group.bench_function("probe_untouched_set", |b| {
        b.iter(|| {
            let mut misses = 0u32;
            cache.access_batch_from(black_box(&prime), Domain::Attacker, |_, o| {
                misses += o.is_miss() as u32;
            });
            misses
        })
    });

    // The thrash ends with the primes resident again and the victim line
    // evicted, so each iteration re-touches the set with one victim access.
    let mut cache = Cache::new(config);
    cache.access_batch_from(&prime, Domain::Attacker, |_, _| {});
    group.bench_function("probe_touched_set", |b| {
        b.iter(|| {
            cache.access_from(black_box(victim), Domain::Victim);
            let mut misses = 0u32;
            cache.access_batch_from(black_box(&prime), Domain::Attacker, |_, o| {
                misses += o.is_miss() as u32;
            });
            misses
        })
    });
    group.finish();
}

fn bench_victim_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("victim_round");
    smoke(&mut group);
    let cipher = TableGift64::new(Key::from_u128(0x5eed), TableLayout::default());
    let mut rec = RecordingObserver::new();
    cipher.run_single_round(0x0123_4567_89ab_cdef, 0, &mut rec);
    let addrs = rec.sbox_addrs();
    assert_eq!(addrs.len(), 16);

    // Each iteration empties the cache first, so the round's first touch
    // of every line misses and repeats hit.
    let mut cache = Cache::new(CacheConfig::grinch_default());
    group.bench_function("observer", |b| {
        b.iter(|| {
            cache.flush_all();
            let mut obs = CacheObserver::new(&mut cache);
            for &addr in black_box(&addrs) {
                obs.on_read(Access {
                    addr,
                    kind: AccessKind::SboxRead,
                });
            }
        })
    });
    let mut cache = Cache::new(CacheConfig::grinch_default());
    group.bench_function("access_batch_from", |b| {
        b.iter(|| {
            cache.flush_all();
            cache.access_batch_from(black_box(&addrs), Domain::Victim, |_, o| {
                black_box(o);
            });
        })
    });
    let mut cache = Cache::new(CacheConfig::grinch_default());
    group.bench_function("access_from_loop", |b| {
        b.iter(|| {
            cache.flush_all();
            for &addr in black_box(&addrs) {
                black_box(cache.access_from(addr, Domain::Victim));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_sweep_phases,
    bench_victim_round
);
criterion_main!(benches);
