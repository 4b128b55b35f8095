//! The set-associative cache model.

use crate::config::CacheConfig;
use crate::mapper::{splitmix64, Domain, Mapper};
use crate::replacement::ReplacementState;
use crate::stats::CacheStats;
use grinch_telemetry::{CounterHandle, HistogramHandle, Telemetry};

/// Replacement seed used by [`Cache::new`]; [`Cache::new_seeded`] lets
/// campaigns pick their own.
const DEFAULT_REPLACEMENT_SEED: u64 = 0x9e37;

/// The outcome of a single cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// Cycles the access took (hit or miss latency from the config).
    pub latency: u64,
    /// Line address (`addr / line_bytes`) of an evicted line, if the fill
    /// displaced one.
    pub evicted_line: Option<u64>,
}

impl AccessOutcome {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        self.hit
    }

    /// Whether the access missed.
    pub fn is_miss(&self) -> bool {
        !self.hit
    }
}

/// Sentinel in the line slab for "this way holds no line". Line addresses
/// are `addr / line_bytes`, so the sentinel is only ambiguous for an
/// access at the very top byte of a 1-byte-line address space — rejected
/// by a debug assertion on the access path.
const INVALID_LINE: u64 = u64::MAX;

/// Minimum same-set run length before [`Cache::access_batch_from`] switches
/// to the queued sweep; shorter runs do not amortize the queue setup.
const SWEEP_MIN_RUN: usize = 4;

/// Metric slots pre-registered at [`Cache::set_telemetry`] time so the
/// access path never formats or hashes a name — each publish is a typed
/// handle bump into the telemetry slot table.
#[derive(Clone, Copy, Debug)]
struct MetricHandles {
    hits: CounterHandle,
    misses: CounterHandle,
    evictions: CounterHandle,
    flushes: CounterHandle,
    full_flushes: CounterHandle,
    remaps: CounterHandle,
    access_cycles: HistogramHandle,
}

impl MetricHandles {
    fn register(telemetry: &Telemetry, label: &str) -> Self {
        Self {
            hits: telemetry.register_counter(&format!("{label}.hits")),
            misses: telemetry.register_counter(&format!("{label}.misses")),
            evictions: telemetry.register_counter(&format!("{label}.evictions")),
            flushes: telemetry.register_counter(&format!("{label}.flushes")),
            full_flushes: telemetry.register_counter(&format!("{label}.full_flushes")),
            remaps: telemetry.register_counter(&format!("{label}.remaps")),
            access_cycles: telemetry.register_histogram(&format!("{label}.access_cycles")),
        }
    }
}

/// A set-associative cache.
///
/// Addresses are byte addresses; the line, set and tag decomposition comes
/// from the [`CacheConfig`]. The cache is a *presence* model: it tracks which
/// lines are resident, not their data.
///
/// Set placement goes through the config's [`crate::IndexMapping`] (the
/// classical modulo by default) and operations optionally carry a security
/// [`Domain`] for way-partitioned configurations; the domain-less methods
/// ([`Cache::access`], [`Cache::flush_line`], …) are victim-domain shorthands
/// and behave exactly as before on an undefended config.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    mapper: Mapper,
    /// Resident line address per way ([`INVALID_LINE`] when empty), one
    /// contiguous `num_sets × ways` row-major slab. Storing the line
    /// address (rather than the tag) keeps eviction reporting and
    /// residency queries correct under *any* index mapping: a keyed remap
    /// places a line in a permuted set, from which the tag alone could
    /// not reconstruct the address.
    lines: Vec<u64>,
    /// Replacement metadata (LRU timestamp / FIFO counter), parallel to
    /// `lines`. Keeping it in its own slab lets the eviction path hand
    /// `choose_victim` a contiguous borrowed slice instead of collecting
    /// a scratch `Vec` per eviction.
    meta: Vec<u64>,
    /// Per-set replacement policy state (clock, RNG).
    replacement: Vec<ReplacementState>,
    /// Way-index bounds per domain, precomputed from the partition:
    /// indexed by [`Domain`] discriminant (victim 0, attacker 1).
    way_bounds: [(usize, usize); 2],
    stats: CacheStats,
    telemetry: Telemetry,
    /// `Some` iff `telemetry` is enabled, so the hot path pays one
    /// `Option` check when telemetry is off.
    metrics: Option<MetricHandles>,
    /// Reusable next-victim scratch for the batched same-set sweep fast
    /// path (see [`Cache::sweep_set_run`]); never observable state.
    sweep_queue: Vec<usize>,
    /// Per set, one past the highest way that may hold a valid line:
    /// every way at or above it is invalid. Fills raise it, emptying the
    /// set resets it to 0, a single-line flush leaves it alone — so it is
    /// conservative, changes no outcome, and lets the hit, first-invalid
    /// and flush scans stop at the occupied prefix instead of walking all
    /// ways of the one- or two-line sets Flush+Reload leaves behind.
    valid_top: Vec<usize>,
    /// One bit per set, set whenever a line is filled there — a
    /// conservative "bound may be non-zero" mask so whole-cache
    /// invalidation (frequent under epoch re-keying) only visits occupied
    /// sets. Walking the bound array instead costs a data-dependent branch
    /// per set, which measured slower. Bits are only cleared when the
    /// sets they cover are actually emptied.
    occupied: Vec<u64>,
}

impl Cache {
    /// Creates a cache with all lines invalid, using the default
    /// replacement seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        Self::new_seeded(config, DEFAULT_REPLACEMENT_SEED)
    }

    /// Creates a cache whose per-set replacement RNG state derives from
    /// `(seed, set_index)` via [`splitmix64`], so two caches built from the
    /// same `(config, seed)` replay identical eviction sequences even under
    /// `ReplacementPolicy::Random` — the determinism the arena's parallel
    /// campaigns rely on.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new_seeded(config: CacheConfig, seed: u64) -> Self {
        config.validate().expect("invalid cache configuration");
        let slots = config.num_sets * config.ways;
        let replacement = (0..config.num_sets)
            .map(|s| {
                ReplacementState::new(config.replacement, splitmix64(seed ^ splitmix64(s as u64)))
            })
            .collect();
        let way_bounds = match config.partition {
            Some(p) => [
                range_bounds(p.way_range(Domain::Victim, config.ways)),
                range_bounds(p.way_range(Domain::Attacker, config.ways)),
            ],
            None => [(0, config.ways); 2],
        };
        Self {
            config,
            mapper: config.mapping.build(),
            lines: vec![INVALID_LINE; slots],
            meta: vec![0; slots],
            replacement,
            way_bounds,
            stats: CacheStats::default(),
            telemetry: Telemetry::disabled(),
            metrics: None,
            sweep_queue: Vec::new(),
            valid_top: vec![0; config.num_sets],
            occupied: vec![0; config.num_sets.div_ceil(64)],
        }
    }

    /// Attaches a telemetry handle; subsequent accesses publish live
    /// `{label}.hits` / `.misses` / `.evictions` / `.flushes` /
    /// `.full_flushes` / `.remaps` counters and a `{label}.access_cycles`
    /// latency histogram (`label` names the level, e.g. `"cache.l1"`).
    /// Passing a disabled handle detaches.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, label: &str) {
        self.metrics = telemetry
            .is_enabled()
            .then(|| MetricHandles::register(&telemetry, label));
        self.telemetry = telemetry;
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The way-index bounds `domain` may use (the whole set when
    /// unpartitioned), precomputed at construction.
    #[inline]
    fn way_bounds(&self, domain: Domain) -> (usize, usize) {
        self.way_bounds[domain as usize]
    }

    /// Invalidates every line without touching statistics — the remap
    /// fallout path (the lines are not "flushed", they are orphaned by the
    /// new mapping).
    fn invalidate_all(&mut self) {
        let ways = self.config.ways;
        let Self {
            lines,
            valid_top,
            occupied,
            ..
        } = self;
        for (word_idx, word) in occupied.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let set = (word_idx << 6) | w.trailing_zeros() as usize;
                let base = set * ways;
                // A fixed-length fill beats one cut at the bound: the
                // varying lengths mispredict inside `fill`.
                lines[base..base + ways].fill(INVALID_LINE);
                valid_top[set] = 0;
                w &= w - 1;
            }
            *word = 0;
        }
    }

    /// One past the last way of `lo..hi` that may hold a valid line in
    /// `set_idx` (`lo` when none can): scans of the domain's ways stop
    /// there.
    #[inline]
    fn scan_end(&self, set_idx: usize, lo: usize, hi: usize) -> usize {
        hi.min(self.valid_top[set_idx]).max(lo)
    }

    /// Raises `set_idx`'s valid bound over a fill of `way` and marks the
    /// set occupied; must accompany every line fill (see
    /// [`Cache::valid_top`]).
    #[inline]
    fn note_fill(&mut self, set_idx: usize, way: usize) {
        let top = &mut self.valid_top[set_idx];
        *top = (*top).max(way + 1);
        self.occupied[set_idx >> 6] |= 1 << (set_idx & 63);
    }

    /// Performs a read access at `addr` from the victim domain, filling the
    /// line on a miss.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_from(addr, Domain::Victim)
    }

    /// The telemetry-free access core: simulator state and [`CacheStats`]
    /// are updated, metric publication is left to the caller. Returns the
    /// outcome and whether a mapper rekey fired. Kept separate so the
    /// batched entry points can run many accesses and publish **once** —
    /// a held [`grinch_telemetry::Batch`] guard must never re-enter the
    /// registry, so the core cannot publish itself.
    #[inline]
    pub(crate) fn access_core(&mut self, addr: u64, domain: Domain) -> (AccessOutcome, bool) {
        let remapped = self.mapper.note_access();
        if remapped {
            // Epoch boundary: the mapping re-keyed, so every resident line
            // now lives at an address the new permutation cannot find.
            self.invalidate_all();
            self.stats.remaps += 1;
        }
        let line = self.config.line_of(addr);
        debug_assert_ne!(
            line, INVALID_LINE,
            "line address collides with the invalid sentinel"
        );
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let (lo, hi) = self.way_bounds(domain);
        let base = set_idx * self.config.ways;
        let (start, end) = (base + lo, base + hi);
        // Ways from here on are invalid: neither a hit nor the first
        // invalid way needs a scan past it.
        let scan_end = base + self.scan_end(set_idx, lo, hi);

        // The hit path stays a tight tag-only scan: victim encryptions are
        // hit-dominated (S-box lines stay resident), so touching `meta`
        // here would slow the common case for nothing.
        if let Some(slot) = self.lines[start..scan_end].iter().position(|&l| l == line) {
            let hit_slot = start + slot;
            self.meta[hit_slot] = self.replacement[set_idx].on_hit(self.meta[hit_slot]);
            self.stats.hits += 1;
            return (
                AccessOutcome {
                    hit: true,
                    latency: self.config.hit_latency,
                    evicted_line: None,
                },
                remapped,
            );
        }

        // Miss: fill the first invalid way if any (the early-exit scan wins
        // on the mostly-empty sets epoch re-keying leaves behind), else
        // evict the policy's victim. Batched sweeps bypass this entirely
        // (see `sweep_set_run`), so the full-set miss storm never pays the
        // two scans per access.
        self.stats.misses += 1;
        let replacement = &mut self.replacement[set_idx];
        let fill_meta = replacement.on_fill();
        let (slot, evicted_line) = if let Some(inv) = self.lines[start..scan_end]
            .iter()
            .position(|&l| l == INVALID_LINE)
        {
            (start + inv, None)
        } else if scan_end < end {
            (scan_end, None)
        } else {
            let victim = start + replacement.choose_victim(&self.meta[start..end]);
            let old_line = self.lines[victim];
            self.stats.evictions += 1;
            (victim, Some(old_line))
        };
        self.lines[slot] = line;
        self.meta[slot] = fill_meta;
        self.note_fill(set_idx, slot - base);
        (
            AccessOutcome {
                hit: false,
                latency: self.config.miss_latency,
                evicted_line,
            },
            remapped,
        )
    }

    /// Performs a read access at `addr` on behalf of `domain`, filling the
    /// line on a miss. On a partitioned cache, lookup, fill and eviction
    /// are confined to the domain's ways.
    pub fn access_from(&mut self, addr: u64, domain: Domain) -> AccessOutcome {
        let (outcome, remapped) = self.access_core(addr, domain);
        if let Some(m) = &self.metrics {
            // One registry borrow for every update (Batch), not one per
            // call — this is the hottest line in the workspace.
            if let Some(mut b) = self.telemetry.batch() {
                if remapped {
                    b.inc(m.remaps);
                }
                if outcome.hit {
                    b.inc(m.hits);
                } else {
                    b.inc(m.misses);
                    if outcome.evicted_line.is_some() {
                        b.inc(m.evictions);
                    }
                }
                b.record(m.access_cycles, outcome.latency);
            }
        }
        outcome
    }

    /// Performs one read access per address on behalf of `domain`, in
    /// order, handing each outcome to `sink` and publishing the whole
    /// batch's telemetry under a single registry borrow. Simulator state,
    /// statistics and outcomes are identical to calling
    /// [`Cache::access_from`] in a loop; only the metric bookkeeping is
    /// amortized (counter totals and histogram aggregates match exactly).
    pub fn access_batch_from(
        &mut self,
        addrs: &[u64],
        domain: Domain,
        mut sink: impl FnMut(u64, AccessOutcome),
    ) {
        let mut tally = BatchTally::default();
        // Prime/probe sweeps hand us long runs of same-set addresses (both
        // mappers derive the set from the same `line mod num_sets` class, so
        // a monitored group stays one run even across re-keys); each run can
        // keep its next-victim order in a queue instead of rescanning the
        // set per access (see `sweep_set_run`).
        let mut i = 0;
        while i < addrs.len() {
            let set_idx = self
                .mapper
                .set_of(self.config.line_of(addrs[i]), self.config.num_sets);
            let mut j = i + 1;
            while j < addrs.len()
                && self
                    .mapper
                    .set_of(self.config.line_of(addrs[j]), self.config.num_sets)
                    == set_idx
            {
                j += 1;
            }
            let run = &addrs[i..j];
            let swept = run.len() >= SWEEP_MIN_RUN
                && matches!(
                    self.replacement[set_idx].policy(),
                    crate::ReplacementPolicy::Lru | crate::ReplacementPolicy::Fifo
                );
            if swept {
                // The sweep stops early if the mapper re-keys mid-run (the
                // set indices change under it); re-group from wherever it
                // got to.
                i += self.sweep_set_run(set_idx, domain, run, &mut tally, &mut sink);
            } else {
                for &addr in run {
                    let (outcome, remapped) = self.access_core(addr, domain);
                    tally.note(&outcome, remapped);
                    sink(addr, outcome);
                }
                i = j;
            }
        }
        self.publish_tally(&tally);
    }

    /// Runs a same-set run of accesses with the set's next-victim order
    /// held in a queue, so each access costs O(1) in the common cases
    /// instead of rescanning the ways. Outcomes, statistics, replacement
    /// clocks and final cache state are identical to calling
    /// [`Cache::access_core`] per address: the queue starts as [invalid
    /// ways in ascending position, then valid ways in ascending `(meta,
    /// position)`] — exactly the order the per-access first-invalid /
    /// first-minimum scans produce — and every fill takes the freshest
    /// clock value, which is precisely a ring rotation. Only an LRU hit
    /// reorders (the touched way becomes newest): at the queue head that
    /// is again a rotation, elsewhere an explicit shift. Lookups check the
    /// head's tag first (a probe re-reading its lines in prime order hits
    /// there), treat the line this run evicted last as a certain miss (the
    /// next read of an LRU/FIFO thrash), and otherwise scan only up to the
    /// set's valid-way bound. The mapper is still noted per access; if it
    /// re-keys, the access that triggered it lands in the freshly
    /// invalidated cache (a miss filling the first way of its new set) and
    /// the sweep returns early so the caller re-groups under the new
    /// mapping. Returns how many of `addrs` were consumed. Caller
    /// guarantees the set's policy is LRU or FIFO.
    fn sweep_set_run(
        &mut self,
        set_idx: usize,
        domain: Domain,
        addrs: &[u64],
        tally: &mut BatchTally,
        sink: &mut impl FnMut(u64, AccessOutcome),
    ) -> usize {
        let (lo, hi) = self.way_bounds(domain);
        let base = set_idx * self.config.ways;
        let (start, end) = (base + lo, base + hi);
        let n = end - start;
        let wrap_inc = |p: usize| if p + 1 == n { 0 } else { p + 1 };
        // One past the highest way that may be valid, relative to `start`
        // like the queue and the scan: no way at or above it can hit.
        let mut top = self.scan_end(set_idx, lo, hi) - lo;
        let stateless = self.mapper.is_access_stateless();
        let config = self.config;
        // Field-disjoint borrows of the domain's ways; the queue and the
        // scan work in way indices relative to `start`.
        let Self {
            lines,
            meta,
            replacement,
            mapper,
            sweep_queue: queue,
            ..
        } = self;
        let lines = &mut lines[start..end];
        let meta = &mut meta[start..end];
        let replacement = &mut replacement[set_idx];

        queue.clear();
        // Invalid ways in ascending order (those at or above `top` all
        // are), then the valid ones oldest first. An empty prefix needs
        // no filters or sort: the first-invalid order is the identity.
        queue.extend((0..top).filter(|&w| lines[w] == INVALID_LINE));
        queue.extend(top..n);
        let invalids = queue.len();
        queue.extend((0..top).filter(|&w| lines[w] != INVALID_LINE));
        // `(meta, way)` keying reproduces `min_by_key`'s first-minimum
        // tie-break; live metas are distinct clock draws anyway.
        queue[invalids..].sort_unstable_by_key(|&w| (meta[w], w));
        let mut head = 0usize;
        // Once a run evicts, no invalid way is left and every later miss
        // evicts too, so the line evicted last cannot have come back.
        let mut last_evicted = INVALID_LINE;
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut rekeyed_at = None;

        for (i, &addr) in addrs.iter().enumerate() {
            if !stateless && mapper.note_access() {
                rekeyed_at = Some(i);
                break;
            }
            let line = config.line_of(addr);
            debug_assert_ne!(line, INVALID_LINE);
            let h = queue[head];
            let hit_way = if lines[h] == line {
                Some(h)
            } else if line == last_evicted {
                None
            } else {
                lines[..top].iter().position(|&l| l == line)
            };
            if let Some(w) = hit_way {
                hits += 1;
                let old = meta[w];
                let new = replacement.on_hit(old);
                if new != old {
                    // LRU touch: the way becomes the newest — move it to
                    // the back of the victim queue (at the head, that is
                    // a plain rotation).
                    meta[w] = new;
                    if w == h {
                        head = wrap_inc(head);
                    } else {
                        let mut p = head;
                        while queue[p] != w {
                            p = wrap_inc(p);
                        }
                        loop {
                            let next = wrap_inc(p);
                            if next == head {
                                break;
                            }
                            queue[p] = queue[next];
                            p = next;
                        }
                        queue[p] = w;
                    }
                }
                sink(
                    addr,
                    AccessOutcome {
                        hit: true,
                        latency: config.hit_latency,
                        evicted_line: None,
                    },
                );
                continue;
            }
            misses += 1;
            let fill_meta = replacement.on_fill();
            head = wrap_inc(head);
            let evicted_line = if lines[h] == INVALID_LINE {
                None
            } else {
                evictions += 1;
                last_evicted = lines[h];
                Some(last_evicted)
            };
            lines[h] = line;
            meta[h] = fill_meta;
            top = top.max(h + 1);
            sink(
                addr,
                AccessOutcome {
                    hit: false,
                    latency: config.miss_latency,
                    evicted_line,
                },
            );
        }
        // Before any rekey invalidation below, which clears only up to
        // the bound.
        if top > 0 {
            self.note_fill(set_idx, lo + top - 1);
        }
        self.stats.hits += hits;
        self.stats.misses += misses;
        self.stats.evictions += evictions;
        tally.hits += hits;
        tally.misses += misses;
        tally.evictions += evictions;

        let Some(i) = rekeyed_at else {
            return addrs.len();
        };
        // Epoch boundary mid-run: everything resident is orphaned by the
        // new permutation, and the triggering access proceeds against the
        // empty cache — a miss that fills the first way of its (re-mapped)
        // set. Identical to `access_core`'s remap path.
        let addr = addrs[i];
        self.invalidate_all();
        self.stats.remaps += 1;
        let line = config.line_of(addr);
        let new_set = self.mapper.set_of(line, config.num_sets);
        let slot = new_set * config.ways + lo;
        self.stats.misses += 1;
        self.lines[slot] = line;
        self.meta[slot] = self.replacement[new_set].on_fill();
        self.note_fill(new_set, lo);
        let outcome = AccessOutcome {
            hit: false,
            latency: config.miss_latency,
            evicted_line: None,
        };
        tally.note(&outcome, true);
        sink(addr, outcome);
        i + 1
    }

    /// Flush+Reload's reload phase as one batched cycle: for each address,
    /// access it (timing the reload), hand `sink` the address and whether
    /// it hit, then flush the line again so the next observation starts
    /// cold. Operation order per address is exactly the looped
    /// access/flush sequence; telemetry is published once for the batch.
    pub fn reload_and_flush_from(
        &mut self,
        addrs: &[u64],
        domain: Domain,
        mut sink: impl FnMut(u64, bool),
    ) {
        let mut tally = BatchTally::default();
        for &addr in addrs {
            let (outcome, remapped) = self.access_core(addr, domain);
            tally.note(&outcome, remapped);
            sink(addr, outcome.hit);
            // The access just filled the line, so the flush normally finds
            // it; counting through flush_core keeps the tally honest in
            // edge geometries (e.g. duplicate same-line addresses).
            if self.flush_core(addr, domain) {
                tally.flushes += 1;
            }
        }
        self.publish_tally(&tally);
    }

    /// Applies the per-batch metric tally under one registry borrow.
    pub(crate) fn publish_tally(&mut self, tally: &BatchTally) {
        if tally.is_empty() {
            return;
        }
        if let Some(m) = &self.metrics {
            if let Some(mut b) = self.telemetry.batch() {
                if tally.remaps > 0 {
                    b.add(m.remaps, tally.remaps);
                }
                if tally.hits > 0 {
                    b.add(m.hits, tally.hits);
                    b.record_n(m.access_cycles, self.config.hit_latency, tally.hits);
                }
                if tally.misses > 0 {
                    b.add(m.misses, tally.misses);
                    b.record_n(m.access_cycles, self.config.miss_latency, tally.misses);
                }
                if tally.evictions > 0 {
                    b.add(m.evictions, tally.evictions);
                }
                if tally.flushes > 0 {
                    b.add(m.flushes, tally.flushes);
                }
            }
        }
    }

    /// Returns whether the line containing `addr` is resident in any way,
    /// without perturbing replacement, mapper-epoch or statistics state.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.config.line_of(addr);
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let base = set_idx * self.config.ways;
        self.lines[base..base + self.valid_top[set_idx]].contains(&line)
    }

    /// Invalidates the line containing `addr` if resident (`clflush`-style,
    /// victim domain). Returns whether a line was actually flushed.
    pub fn flush_line(&mut self, addr: u64) -> bool {
        self.flush_line_from(addr, Domain::Victim)
    }

    /// The telemetry-free flush core (see [`Cache::access_core`]): updates
    /// residency and statistics, leaves metric publication to the caller.
    #[inline]
    fn flush_core(&mut self, addr: u64, domain: Domain) -> bool {
        let line = self.config.line_of(addr);
        let set_idx = self.mapper.set_of(line, self.config.num_sets);
        let base = set_idx * self.config.ways;
        let (lo, hi) = self.way_bounds(domain);
        let end = self.scan_end(set_idx, lo, hi);
        // The bound stays put: a hole below it is left for the
        // first-invalid scan to find.
        if let Some(way) = self.lines[base + lo..base + end]
            .iter_mut()
            .find(|l| **l == line)
        {
            *way = INVALID_LINE;
            self.stats.flushes += 1;
            true
        } else {
            false
        }
    }

    /// Invalidates the line containing `addr` on behalf of `domain`. On a
    /// partitioned cache only the domain's own ways are searched, so an
    /// attacker cannot flush victim lines (DAWG-style flush confinement).
    /// Returns whether a line was actually flushed.
    pub fn flush_line_from(&mut self, addr: u64, domain: Domain) -> bool {
        let flushed = self.flush_core(addr, domain);
        if flushed {
            if let Some(m) = &self.metrics {
                self.telemetry.inc(m.flushes);
            }
        }
        flushed
    }

    /// Invalidates every listed line on behalf of `domain` (the batched
    /// `clflush` sweep that opens a Flush+Reload cycle), publishing one
    /// flush-counter update for the whole sweep. Returns how many lines
    /// were actually resident and flushed.
    pub fn flush_lines_from(&mut self, addrs: &[u64], domain: Domain) -> u64 {
        let mut flushed = 0u64;
        for &addr in addrs {
            if self.flush_core(addr, domain) {
                flushed += 1;
            }
        }
        if flushed > 0 {
            if let Some(m) = &self.metrics {
                self.telemetry.add(m.flushes, flushed);
            }
        }
        flushed
    }

    /// Invalidates the entire cache (victim domain; on a partitioned cache
    /// this still clears everything — the victim owns the platform).
    pub fn flush_all(&mut self) {
        self.invalidate_all();
        self.stats.full_flushes += 1;
        if let Some(m) = &self.metrics {
            self.telemetry.inc(m.full_flushes);
        }
    }

    /// Invalidates every line in `domain`'s ways. Unpartitioned caches
    /// treat this as [`Cache::flush_all`].
    pub fn flush_all_from(&mut self, domain: Domain) {
        let (lo, hi) = self.way_bounds(domain);
        if (lo, hi) == (0, self.config.ways) {
            // The domain owns every way: identical to a full invalidation,
            // which also resets every set's bound.
            self.invalidate_all();
        } else {
            // Partitioned: only the domain's ways of occupied sets clear.
            // Lines of the other domain may survive anywhere below `lo` or
            // from `hi` on, so a bound that reached into the domain's ways
            // drops only to `lo`, one above `hi` stays, and occupancy bits
            // stay set.
            let ways = self.config.ways;
            let Self {
                lines,
                valid_top,
                occupied,
                ..
            } = self;
            for (word_idx, word) in occupied.iter().enumerate() {
                let mut w = *word;
                while w != 0 {
                    let set = (word_idx << 6) | w.trailing_zeros() as usize;
                    let base = set * ways;
                    lines[base + lo..base + hi].fill(INVALID_LINE);
                    let top = &mut valid_top[set];
                    if *top <= hi {
                        *top = (*top).min(lo);
                    }
                    w &= w - 1;
                }
            }
        }
        self.stats.full_flushes += 1;
        if let Some(m) = &self.metrics {
            self.telemetry.inc(m.full_flushes);
        }
    }

    /// One past the highest way of set `set_idx` that may hold a valid
    /// line: every way at or above it is invalid. A conservative bound,
    /// not a count — fills raise it, emptying the whole set resets it to
    /// 0, a single-line flush leaves it where it was.
    pub fn valid_way_bound(&self, set_idx: usize) -> usize {
        self.valid_top[set_idx]
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|&&l| l != INVALID_LINE).count()
    }

    /// Line addresses of every resident line (unordered).
    pub fn resident_line_addrs(&self) -> Vec<u64> {
        self.lines
            .iter()
            .copied()
            .filter(|&l| l != INVALID_LINE)
            .collect()
    }
}

/// `(start, end)` bounds of a way range (ranges are not `Copy`, the
/// bounds pair is).
fn range_bounds(r: core::ops::Range<usize>) -> (usize, usize) {
    (r.start, r.end)
}

/// Per-batch metric accumulator for the batched entry points: outcomes are
/// tallied while the accesses run and published in one registry borrow at
/// the end, so counter totals and histogram aggregates match the looped
/// per-access publishes exactly.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchTally {
    hits: u64,
    misses: u64,
    evictions: u64,
    remaps: u64,
    flushes: u64,
}

impl BatchTally {
    #[inline]
    pub(crate) fn note(&mut self, outcome: &AccessOutcome, remapped: bool) {
        if remapped {
            self.remaps += 1;
        }
        if outcome.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            if outcome.evicted_line.is_some() {
                self.evictions += 1;
            }
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.hits == 0 && self.misses == 0 && self.flushes == 0 && self.remaps == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{IndexMapping, WayPartition};
    use crate::replacement::ReplacementPolicy;

    fn small_config() -> CacheConfig {
        CacheConfig {
            line_bytes: 4,
            num_sets: 4,
            ways: 2,
            hit_latency: 1,
            miss_latency: 10,
            replacement: ReplacementPolicy::Lru,
            mapping: IndexMapping::Modulo,
            partition: None,
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut cache = Cache::new(small_config());
        let a = cache.access(0x100);
        assert!(a.is_miss());
        assert_eq!(a.latency, 10);
        let b = cache.access(0x100);
        assert!(b.is_hit());
        assert_eq!(b.latency, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn same_line_different_byte_hits() {
        let mut cache = Cache::new(small_config());
        cache.access(0x100);
        assert!(cache.access(0x103).is_hit());
        assert!(cache.access(0x104).is_miss());
    }

    #[test]
    fn lru_eviction_in_a_full_set() {
        let mut cache = Cache::new(small_config());
        // Set 0 with 4-byte lines and 4 sets: line addresses ≡ 0 (mod 4),
        // i.e. byte addresses 0x00, 0x40, 0x80 (stride 16 lines * 4 bytes).
        let stride = 4 * 4; // num_sets * line_bytes
        cache.access(0);
        cache.access(stride);
        cache.access(0); // make line 0 most recently used
        let outcome = cache.access(2 * stride); // evicts line at `stride`
        assert!(outcome.is_miss());
        assert_eq!(outcome.evicted_line, Some(stride / 4));
        assert!(cache.contains(0));
        assert!(!cache.contains(stride));
        assert!(cache.contains(2 * stride));
    }

    #[test]
    fn flush_line_only_touches_target() {
        let mut cache = Cache::new(small_config());
        cache.access(0x10);
        cache.access(0x20);
        assert!(cache.flush_line(0x10));
        assert!(!cache.flush_line(0x10), "double flush is a no-op");
        assert!(!cache.contains(0x10));
        assert!(cache.contains(0x20));
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut cache = Cache::new(small_config());
        for a in 0..8u64 {
            cache.access(a * 4);
        }
        assert!(cache.resident_lines() > 0);
        cache.flush_all();
        assert_eq!(cache.resident_lines(), 0);
        assert!(cache.resident_line_addrs().is_empty());
    }

    #[test]
    fn contains_does_not_perturb_lru() {
        let mut cache = Cache::new(small_config());
        let stride = 16u64;
        cache.access(0);
        cache.access(stride);
        // Peeking at line 0 must NOT refresh it.
        assert!(cache.contains(0));
        cache.access(2 * stride); // line 0 is LRU and must be evicted
        assert!(!cache.contains(0));
    }

    #[test]
    fn resident_line_addrs_match_accessed_lines() {
        let mut cache = Cache::new(small_config());
        cache.access(0x100);
        cache.access(0x204);
        let mut lines = cache.resident_line_addrs();
        lines.sort_unstable();
        assert_eq!(lines, vec![0x100 / 4, 0x204 / 4]);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let tel = Telemetry::new();
        let mut cache = Cache::new(small_config());
        cache.set_telemetry(tel.clone(), "cache.l1");
        cache.access(0x100); // miss
        cache.access(0x100); // hit
        cache.access(0x200); // miss
        cache.flush_line(0x100);
        cache.flush_all();
        assert_eq!(tel.counter("cache.l1.hits"), cache.stats().hits);
        assert_eq!(tel.counter("cache.l1.misses"), cache.stats().misses);
        assert_eq!(tel.counter("cache.l1.flushes"), 1);
        assert_eq!(tel.counter("cache.l1.full_flushes"), 1);
        let snap = tel.snapshot();
        assert_eq!(snap.histogram("cache.l1.access_cycles").unwrap().count(), 3);
    }

    #[test]
    fn grinch_default_holds_entire_sbox() {
        // With 1-byte lines the 16-byte S-box occupies 16 distinct lines in
        // 16 distinct sets — the paper's observation that a completed
        // encryption leaves the whole table resident.
        let mut cache = Cache::new(CacheConfig::grinch_default());
        for i in 0..16u64 {
            cache.access(0x400 + i);
        }
        assert_eq!(cache.resident_lines(), 16);
        for i in 0..16u64 {
            assert!(cache.contains(0x400 + i));
        }
    }

    #[test]
    fn keyed_remap_still_hits_within_an_epoch() {
        let cfg = small_config().with_mapping(IndexMapping::KeyedRemap {
            key: 0xfeed,
            epoch_accesses: 0,
        });
        let mut cache = Cache::new(cfg);
        assert!(cache.access(0x100).is_miss());
        assert!(cache.access(0x100).is_hit());
        assert!(cache.contains(0x100));
        assert!(cache.flush_line(0x100));
        assert!(!cache.contains(0x100));
    }

    #[test]
    fn rekey_orphans_resident_lines_and_counts_a_remap() {
        let tel = Telemetry::new();
        let cfg = small_config().with_mapping(IndexMapping::KeyedRemap {
            key: 0xfeed,
            epoch_accesses: 3,
        });
        let mut cache = Cache::new(cfg);
        cache.set_telemetry(tel.clone(), "cache.l1");
        cache.access(0x100);
        cache.access(0x100);
        // Third access crosses the epoch: the fill below happens in a
        // freshly invalidated cache under the new permutation.
        let outcome = cache.access(0x100);
        assert!(outcome.is_miss(), "rekey must orphan the resident line");
        assert_eq!(cache.stats().remaps, 1);
        assert_eq!(tel.counter("cache.l1.remaps"), 1);
        assert_eq!(cache.resident_lines(), 1, "only the post-rekey fill");
    }

    #[test]
    fn partition_confines_fills_and_blocks_cross_domain_hits() {
        let mut cfg = small_config();
        cfg.ways = 4;
        let cfg = cfg.with_partition(WayPartition { victim_ways: 2 });
        let mut cache = Cache::new(cfg);
        cache.access_from(0x100, Domain::Victim);
        // The attacker reloading the same address must MISS (no cross-domain
        // hit) and fill its own partition instead.
        assert!(cache.access_from(0x100, Domain::Attacker).is_miss());
        assert_eq!(cache.resident_lines(), 2, "one copy per domain");
        // The attacker can flush its own copy, but the victim's copy stays
        // out of reach (the second flush finds nothing in attacker ways).
        assert!(cache.flush_line_from(0x100, Domain::Attacker));
        assert!(!cache.flush_line_from(0x100, Domain::Attacker));
        assert!(cache.contains(0x100), "victim copy survived");
        // After clearing the attacker partition the victim still hits.
        cache.flush_all_from(Domain::Attacker);
        assert!(cache.access_from(0x100, Domain::Victim).is_hit());
    }

    #[test]
    fn partition_confines_evictions_to_own_ways() {
        let mut cfg = small_config();
        cfg.ways = 4;
        cfg.num_sets = 1;
        let cfg = cfg.with_partition(WayPartition { victim_ways: 2 });
        let mut cache = Cache::new(cfg);
        cache.access_from(0x0, Domain::Victim);
        cache.access_from(0x4, Domain::Victim);
        // Attacker floods far more lines than its 2 ways: victim lines
        // must survive every eviction.
        for i in 0..32u64 {
            cache.access_from(0x100 + i * 4, Domain::Attacker);
        }
        assert!(cache.access_from(0x0, Domain::Victim).is_hit());
        assert!(cache.access_from(0x4, Domain::Victim).is_hit());
    }

    #[test]
    fn batched_entry_points_match_looped_calls_exactly() {
        // Same ops through the batched and the looped entry points must
        // leave identical residency, stats, telemetry counters and latency
        // histograms — the invariant that makes batching safe to use on
        // the oracle's probe path. Keyed remap with a short epoch makes
        // sure mid-batch rekeys are tallied identically too.
        let cfg = small_config().with_mapping(IndexMapping::KeyedRemap {
            key: 0xfeed,
            epoch_accesses: 7,
        });
        let addrs: Vec<u64> = (0..48u64).map(|i| (i.wrapping_mul(37)) % 0x80).collect();
        let run = |batched: bool| {
            let tel = Telemetry::new();
            let mut cache = Cache::new(cfg);
            cache.set_telemetry(tel.clone(), "cache.l1");
            let mut seen = Vec::new();
            if batched {
                cache.access_batch_from(&addrs, Domain::Attacker, |a, o| seen.push((a, o.hit)));
                cache.flush_lines_from(&addrs, Domain::Attacker);
                cache.reload_and_flush_from(&addrs, Domain::Attacker, |a, h| seen.push((a, h)));
            } else {
                for &a in &addrs {
                    seen.push((a, cache.access_from(a, Domain::Attacker).hit));
                }
                for &a in &addrs {
                    cache.flush_line_from(a, Domain::Attacker);
                }
                for &a in &addrs {
                    seen.push((a, cache.access_from(a, Domain::Attacker).hit));
                    cache.flush_line_from(a, Domain::Attacker);
                }
            }
            let snap = tel.snapshot();
            let hist = snap.histogram("cache.l1.access_cycles").unwrap().clone();
            let counters: Vec<u64> = [
                "hits",
                "misses",
                "evictions",
                "flushes",
                "full_flushes",
                "remaps",
            ]
            .iter()
            .map(|c| tel.counter(&format!("cache.l1.{c}")))
            .collect();
            let mut resident = cache.resident_line_addrs();
            resident.sort_unstable();
            (seen, *cache.stats(), counters, hist, resident)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn same_seed_replays_identical_random_evictions() {
        let mut cfg = small_config();
        cfg.replacement = ReplacementPolicy::Random;
        let run = |seed: u64| {
            let mut cache = Cache::new_seeded(cfg, seed);
            for i in 0..2_000u64 {
                cache.access(i.wrapping_mul(0x9e37_79b9) % 0x800);
            }
            (*cache.stats(), {
                let mut lines = cache.resident_line_addrs();
                lines.sort_unstable();
                lines
            })
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        let (stats_a, _) = run(42);
        let (stats_b, _) = run(43);
        // Different seeds should pick different eviction victims somewhere
        // in 2000 accesses (hits differ because residency differs).
        assert!(
            stats_a != stats_b || run(42).1 != run(43).1,
            "distinct seeds should diverge"
        );
    }
}
