//! The one sharded TTL map under every cache.
//!
//! The paper uses a single caching scheme: "cached data is tagged with a
//! time-to-live field for cache invalidation", inherited from BIND. Four
//! caches apply it — the HNS meta-mapping cache, the composed `FindNSM`
//! binding cache, the NSM result caches and the BIND resolver cache —
//! and each is a thin policy layer over [`TtlMap`], which owns what they
//! share:
//!
//! * [`SHARDS`] independently locked shards, so lookups on different
//!   keys rarely contend;
//! * TTL expiry that hides an entry from [`TtlMap::get`] but keeps it
//!   resident, so a caller whose authority is unreachable can still
//!   serve it stale; a re-insert overwrites it in place;
//! * one [`CacheStats`] and one [`TtlMap::export_metrics`].
//!
//! The accounting rule, for every cache: a lookup moves exactly one of
//! `hits`, `misses` or `expired` — or, where the policy has them,
//! `negative_hits` or `coalesced`. [`TtlMap::get`] applies the rule
//! itself; a policy that classifies a probe on its own (negative
//! entries, undecodable bytes, a coalesced wait) uses the uncounted
//! [`TtlMap::probe`] and then [`TtlMap::count`].

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::obs::MetricsRegistry;
use crate::time::{SimDuration, SimTime};

/// Number of lock-striped shards in every cache.
pub const SHARDS: usize = 16;

/// Statistics of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a live entry.
    pub hits: u64,
    /// Lookups that found nothing cached.
    pub misses: u64,
    /// Lookups that found an entry whose TTL had lapsed.
    pub expired: u64,
    /// Lookups answered by a live negative entry.
    pub negative_hits: u64,
    /// Lookups that waited on another thread's in-flight fetch of the
    /// same key instead of fetching.
    pub coalesced: u64,
    /// Entries inserted (negative entries not counted).
    pub inserts: u64,
    /// Entries inserted by preload (also counted in `inserts`).
    pub preloaded: u64,
    /// Expired entries served anyway because the authority was
    /// unreachable (serve-stale).
    pub stale_serves: u64,
}

/// One counter of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// [`CacheStats::hits`].
    Hits,
    /// [`CacheStats::misses`].
    Misses,
    /// [`CacheStats::expired`].
    Expired,
    /// [`CacheStats::negative_hits`].
    NegativeHits,
    /// [`CacheStats::coalesced`].
    Coalesced,
    /// [`CacheStats::inserts`].
    Inserts,
    /// [`CacheStats::preloaded`].
    Preloaded,
    /// [`CacheStats::stale_serves`].
    StaleServes,
}

/// What one uncounted probe found.
#[derive(Debug)]
pub enum Probe<V> {
    /// A live entry and the time it has left.
    Live(V, SimDuration),
    /// An entry whose TTL has lapsed, and how long ago it lapsed.
    Expired(V, SimDuration),
    /// Nothing cached.
    Absent,
}

struct Slot<V> {
    value: V,
    expires_at: SimTime,
}

type Shard<K, V> = Mutex<HashMap<K, Slot<V>>>;

/// A sharded map whose entries carry an expiry instant.
pub struct TtlMap<K, V> {
    shards: Box<[Shard<K, V>]>,
    counters: [AtomicU64; 8],
}

impl<K, V> Default for TtlMap<K, V> {
    fn default() -> Self {
        TtlMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            counters: Default::default(),
        }
    }
}

/// Shard selection hash: FxHash's rotate-xor-multiply over the words the
/// key feeds it. Keys are small `Copy` ids, so this costs a few cycles
/// where SipHash would cost tens of nanoseconds per probe; the shards'
/// maps keep the standard randomly keyed hasher for their buckets.
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

impl<K: Copy + Hash + Eq, V: Clone> TtlMap<K, V> {
    fn shard(&self, key: &K) -> &Shard<K, V> {
        let mut hasher = ShardHasher(0);
        key.hash(&mut hasher);
        // The multiply mixes upward, so take the shard from high bits.
        &self.shards[(hasher.finish() >> 32) as usize % SHARDS]
    }

    /// Looks `key` up at `now` without moving any counter.
    pub fn probe(&self, now: SimTime, key: &K) -> Probe<V> {
        match self.shard(key).lock().get(key) {
            Some(slot) if slot.expires_at > now => {
                Probe::Live(slot.value.clone(), slot.expires_at.since(now))
            }
            Some(slot) => Probe::Expired(slot.value.clone(), now.since(slot.expires_at)),
            None => Probe::Absent,
        }
    }

    /// Looks `key` up at `now`, returning a live value and counting one
    /// of `hits` / `expired` / `misses`.
    pub fn get(&self, now: SimTime, key: &K) -> Option<V> {
        let (counter, value) = match self.probe(now, key) {
            Probe::Live(value, _) => (Counter::Hits, Some(value)),
            Probe::Expired(..) => (Counter::Expired, None),
            Probe::Absent => (Counter::Misses, None),
        };
        self.count(counter);
        value
    }

    /// Returns the retained *expired* entry at `key`, with how long it
    /// has been stale; `None` when the entry is live or absent. Moves no
    /// counter: the caller counts `stale_serves` if it serves the value.
    pub fn get_stale(&self, now: SimTime, key: &K) -> Option<(V, SimDuration)> {
        match self.probe(now, key) {
            Probe::Expired(value, stale_for) => Some((value, stale_for)),
            Probe::Live(..) | Probe::Absent => None,
        }
    }

    /// Stores `value` at `key` for `ttl_secs` from `now`, replacing any
    /// live or expired entry. Moves no counter: the policy decides
    /// whether the entry counts as an insert.
    pub fn insert(&self, now: SimTime, key: K, value: V, ttl_secs: u32) {
        let expires_at = now + SimDuration::from_ms(u64::from(ttl_secs) * 1000);
        self.shard(&key)
            .lock()
            .insert(key, Slot { value, expires_at });
    }
}

impl<K, V> TtlMap<K, V> {
    /// Moves one counter.
    pub fn count(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every entry, live or expired. Statistics are kept.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Resident entries, expired ones included.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let c = |counter: Counter| self.counters[counter as usize].load(Ordering::Relaxed);
        CacheStats {
            hits: c(Counter::Hits),
            misses: c(Counter::Misses),
            expired: c(Counter::Expired),
            negative_hits: c(Counter::NegativeHits),
            coalesced: c(Counter::Coalesced),
            inserts: c(Counter::Inserts),
            preloaded: c(Counter::Preloaded),
            stale_serves: c(Counter::StaleServes),
        }
    }

    /// Publishes the statistics and the resident entry count into
    /// `metrics` under `component`. Every counter is published on every
    /// export except `stale_serves`, which appears only once nonzero so
    /// that fault-free snapshots carry no fault rows.
    pub fn export_metrics(&self, metrics: &MetricsRegistry, component: &str) {
        let s = self.stats();
        for (name, value) in [
            ("hits", s.hits),
            ("misses", s.misses),
            ("expired", s.expired),
            ("negative_hits", s.negative_hits),
            ("coalesced", s.coalesced),
            ("inserts", s.inserts),
            ("preloaded", s.preloaded),
            ("entries", self.len() as u64),
        ] {
            metrics.set_counter(component, name, value);
        }
        if s.stale_serves > 0 {
            metrics.set_counter(component, "stale_serves", s.stale_serves);
        }
    }
}

impl<K, V> std::fmt::Debug for TtlMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TtlMap")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_ms(ms)
    }

    #[test]
    fn get_counts_one_outcome_and_keeps_expired_entries() {
        let m = TtlMap::<u32, &str>::default();
        assert_eq!(m.get(at(0), &1), None);
        m.insert(at(0), 1, "a", 1);
        assert_eq!(m.get(at(999), &1), Some("a"));
        assert_eq!(
            m.get(at(1_000), &1),
            None,
            "expiry is exclusive of the instant"
        );
        let s = m.stats();
        assert_eq!((s.hits, s.misses, s.expired), (1, 1, 1));
        assert_eq!(s.inserts, 0, "insert moves no counter");
        assert_eq!(m.len(), 1, "the expired entry stays resident");
    }

    #[test]
    fn probe_reports_time_left_and_time_stale_without_counting() {
        let m = TtlMap::<u32, u8>::default();
        m.insert(at(0), 7, 9, 2);
        assert!(
            matches!(m.probe(at(500), &7), Probe::Live(9, left) if left == SimDuration::from_ms(1_500))
        );
        assert!(
            matches!(m.probe(at(3_000), &7), Probe::Expired(9, ago) if ago == SimDuration::from_ms(1_000))
        );
        assert!(matches!(m.probe(at(0), &8), Probe::Absent));
        assert_eq!(m.get_stale(at(500), &7), None, "a live entry is not stale");
        assert_eq!(
            m.get_stale(at(4_000), &7),
            Some((9, SimDuration::from_ms(2_000)))
        );
        assert_eq!(m.get_stale(at(4_000), &8), None);
        assert_eq!(m.stats(), CacheStats::default());
    }

    #[test]
    fn insert_overwrites_live_and_expired_entries_in_place() {
        let m = TtlMap::<u32, u8>::default();
        m.insert(at(0), 1, 10, 60);
        m.insert(at(0), 1, 11, 60);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(at(0), &1), Some(11));
        m.insert(at(0), 2, 20, 1);
        m.insert(at(5_000), 2, 21, 60);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(at(5_000), &2), Some(21), "a refresh revives the key");
    }

    #[test]
    fn distinct_keys_spread_over_shards_and_never_collide() {
        let m = TtlMap::<(u32, u32), u32>::default();
        for a in 0..32 {
            for b in 0..32 {
                m.insert(at(0), (a, b), a * 32 + b, 60);
            }
        }
        assert_eq!(m.len(), 32 * 32);
        for a in 0..32 {
            for b in 0..32 {
                assert_eq!(m.get(at(0), &(a, b)), Some(a * 32 + b));
            }
        }
        let sizes: Vec<usize> = m.shards.iter().map(|s| s.lock().len()).collect();
        let expected = 32 * 32 / SHARDS;
        assert!(
            sizes.iter().all(|&n| n > expected / 2 && n < expected * 2),
            "dense ids must spread evenly: {sizes:?}"
        );
    }

    #[test]
    fn clear_drops_entries_and_keeps_statistics() {
        let m = TtlMap::<u32, u8>::default();
        m.insert(at(0), 1, 1, 60);
        assert_eq!(m.get(at(0), &1), Some(1));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(at(0), &1), None);
        let s = m.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn export_publishes_every_counter_and_stale_serves_once_nonzero() {
        let registry = MetricsRegistry::new();
        let m = TtlMap::<u32, u8>::default();
        m.insert(at(0), 1, 1, 60);
        m.count(Counter::Inserts);
        m.count(Counter::Coalesced);
        let _ = m.get(at(0), &1);
        m.export_metrics(&registry, "c");
        let snap = registry.snapshot();
        for (name, value) in [
            ("hits", 1),
            ("misses", 0),
            ("expired", 0),
            ("negative_hits", 0),
            ("coalesced", 1),
            ("inserts", 1),
            ("preloaded", 0),
            ("entries", 1),
        ] {
            assert_eq!(snap.counter("c", name), Some(value), "{name}");
        }
        assert_eq!(snap.counter("c", "stale_serves"), None);
        m.count(Counter::StaleServes);
        m.export_metrics(&registry, "c");
        assert_eq!(registry.snapshot().counter("c", "stale_serves"), Some(1));
    }
}
