//! The resolver's TTL cache.
//!
//! "Cached data is tagged with a time-to-live field for cache invalidation.
//! While this simplistic mechanism can cause cache consistency problems, it
//! would not make sense to use a more sophisticated scheme because the
//! source of our cached data (BIND) also uses this mechanism."
//!
//! The cache is the shared [`TtlMap`] keyed by interned owner name and
//! record type: hits hand back an `Arc`-shared record set, so they are
//! allocation-free, and an expired set stays resident for the resolver's
//! serve-stale fallback.

use std::sync::Arc;

use intern::NameId;
use simnet::obs::MetricsRegistry;
use simnet::time::{SimDuration, SimTime};
use simnet::ttl_map::{Counter, TtlMap};

use crate::name::DomainName;
use crate::rr::{RType, ResourceRecord};

pub use simnet::ttl_map::CacheStats;

/// A TTL-invalidated record cache, lock-striped for concurrent readers.
#[derive(Debug, Default)]
pub struct TtlCache {
    map: TtlMap<(NameId, RType), Arc<[ResourceRecord]>>,
}

impl TtlCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up live records for (`name`, `rtype`) at virtual time `now`,
    /// counting one of hits / expired / misses.
    ///
    /// Hits share the stored record set (`Arc` clone, no per-record
    /// clone); an expired entry is retained, so [`TtlCache::get_stale`]
    /// can serve it if the authoritative server turns out to be
    /// unreachable.
    pub fn get(
        &self,
        now: SimTime,
        name: &DomainName,
        rtype: RType,
    ) -> Option<Arc<[ResourceRecord]>> {
        self.map.get(now, &(name.interned(), rtype))
    }

    /// Returns a retained *expired* record set for (`name`, `rtype`),
    /// with how long it has been stale, or `None` if nothing (or only a
    /// live entry) is cached. Does not touch the statistics: callers use
    /// this only after a fresh fetch failed, and count the serve via
    /// [`TtlCache::note_stale_serve`].
    pub fn get_stale(
        &self,
        now: SimTime,
        name: &DomainName,
        rtype: RType,
    ) -> Option<(Arc<[ResourceRecord]>, SimDuration)> {
        self.map.get_stale(now, &(name.interned(), rtype))
    }

    /// Counts one serve-stale fallback (an expired entry handed to a
    /// caller because the authority was unreachable).
    pub fn note_stale_serve(&self) {
        self.map.count(Counter::StaleServes);
    }

    /// Inserts records, valid for the minimum TTL among them.
    ///
    /// Empty record sets are not cached (negative caching is not modelled,
    /// as in 1987 BIND).
    pub fn insert(
        &self,
        now: SimTime,
        name: DomainName,
        rtype: RType,
        records: impl Into<Arc<[ResourceRecord]>>,
    ) {
        let records = records.into();
        let Some(min_ttl) = records.iter().map(|r| r.ttl).min() else {
            return;
        };
        self.map
            .insert(now, (name.interned(), rtype), records, min_ttl);
        self.map.count(Counter::Inserts);
    }

    /// Removes everything.
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.map.stats()
    }

    /// Publishes the cache's statistics into `metrics` under `component`
    /// (see [`TtlMap::export_metrics`]).
    pub fn export_metrics(&self, metrics: &MetricsRegistry, component: &str) {
        self.map.export_metrics(metrics, component);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::topology::{HostId, NetAddr};

    fn name(s: &str) -> DomainName {
        DomainName::parse(s).expect("valid name")
    }

    fn rr(ttl: u32) -> ResourceRecord {
        ResourceRecord::a(name("fiji.cs.washington.edu"), ttl, NetAddr::of(HostId(1)))
    }

    #[test]
    fn insert_then_hit() {
        let c = TtlCache::new();
        let t0 = SimTime::ZERO;
        c.insert(t0, name("fiji.cs.washington.edu"), RType::A, vec![rr(60)]);
        let got = c.get(t0, &name("fiji.cs.washington.edu"), RType::A);
        assert_eq!(got.expect("hit").len(), 1);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.map.len(), 1);
    }

    #[test]
    fn hits_share_one_record_set() {
        let c = TtlCache::new();
        let t0 = SimTime::ZERO;
        c.insert(t0, name("a.b"), RType::A, vec![rr(60)]);
        let first = c.get(t0, &name("a.b"), RType::A).expect("hit");
        let second = c.get(t0, &name("a.b"), RType::A).expect("hit");
        assert!(
            Arc::ptr_eq(&first, &second),
            "hits must share the stored Arc, not clone records"
        );
    }

    #[test]
    fn expiry_is_enforced() {
        let c = TtlCache::new();
        let t0 = SimTime::ZERO;
        c.insert(t0, name("a.b"), RType::A, vec![rr(1)]); // 1 second TTL
        let just_before = SimTime::from_ms(999);
        assert!(c.get(just_before, &name("a.b"), RType::A).is_some());
        let after = SimTime::from_ms(1_001);
        assert!(c.get(after, &name("a.b"), RType::A).is_none());
        let stats = c.stats();
        assert_eq!(stats.expired, 1, "an expired probe counts `expired`");
        assert_eq!(stats.misses, 0, "…and is not also a miss");
        assert_eq!(
            c.map.len(),
            1,
            "the expired entry is retained for serve-stale"
        );
    }

    #[test]
    fn each_expired_probe_counts_one_expired() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1)]);
        let late = SimTime::from_ms(5_000);
        for _ in 0..3 {
            assert!(c.get(late, &name("a.b"), RType::A).is_none());
        }
        let stats = c.stats();
        assert_eq!(stats.expired, 3, "every probe of the expired entry");
        assert_eq!(stats.misses, 0, "no probe is also a miss");
    }

    #[test]
    fn get_stale_returns_expired_entries_with_their_age() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1)]);
        // A live entry is not stale.
        assert!(c.get_stale(SimTime::ZERO, &name("a.b"), RType::A).is_none());
        let late = SimTime::from_ms(4_000);
        let (records, stale_for) = c
            .get_stale(late, &name("a.b"), RType::A)
            .expect("retained expired entry");
        assert_eq!(records.len(), 1);
        assert_eq!(stale_for, SimDuration::from_ms(3_000));
        // Nothing cached at all: no stale entry either.
        assert!(c.get_stale(late, &name("x.y"), RType::A).is_none());
        // Stale probes leave the lookup statistics alone.
        let only_the_insert = CacheStats {
            inserts: 1,
            ..CacheStats::default()
        };
        assert_eq!(c.stats(), only_the_insert);
    }

    #[test]
    fn reinsert_revives_a_stale_entry() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1)]);
        let late = SimTime::from_ms(5_000);
        assert!(c.get(late, &name("a.b"), RType::A).is_none());
        c.insert(late, name("a.b"), RType::A, vec![rr(60)]);
        assert_eq!(c.map.len(), 1, "the refresh overwrites the stale entry");
        assert!(c.get(late, &name("a.b"), RType::A).is_some());
        assert_eq!(c.stats().expired, 1);
    }

    #[test]
    fn min_ttl_governs_mixed_sets() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1), rr(100)]);
        assert!(c
            .get(SimTime::from_ms(2_000), &name("a.b"), RType::A)
            .is_none());
    }

    #[test]
    fn empty_sets_are_not_cached() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![]);
        assert!(c.map.is_empty());
    }

    #[test]
    fn miss_on_absent_key_and_type() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(60)]);
        assert!(c.get(SimTime::ZERO, &name("c.d"), RType::A).is_none());
        assert!(c.get(SimTime::ZERO, &name("a.b"), RType::Txt).is_none());
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn reinsert_replaces_entry_not_duplicates() {
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(60)]);
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(30), rr(30)]);
        assert_eq!(c.map.len(), 1);
        let got = c.get(SimTime::ZERO, &name("a.b"), RType::A).expect("hit");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn export_metrics_publishes_stats() {
        let m = MetricsRegistry::new();
        let c = TtlCache::new();
        c.insert(SimTime::ZERO, name("a.b"), RType::A, vec![rr(1)]);
        let _ = c.get(SimTime::ZERO, &name("a.b"), RType::A); // hit
        let _ = c.get(SimTime::from_ms(2_000), &name("a.b"), RType::A); // expired
        let _ = c.get(SimTime::ZERO, &name("x.y"), RType::A); // miss
        c.export_metrics(&m, "bindns_cache");
        let snap = m.snapshot();
        assert_eq!(snap.counter("bindns_cache", "hits"), Some(1));
        assert_eq!(snap.counter("bindns_cache", "misses"), Some(1));
        assert_eq!(snap.counter("bindns_cache", "expired"), Some(1));
        assert_eq!(snap.counter("bindns_cache", "entries"), Some(1));
        assert_eq!(
            snap.counter("bindns_cache", "stale_serves"),
            None,
            "stale_serves is absent until a stale entry is actually served"
        );

        c.note_stale_serve();
        c.export_metrics(&m, "bindns_cache");
        let snap = m.snapshot();
        assert_eq!(snap.counter("bindns_cache", "stale_serves"), Some(1));
    }

    /// Satellite: 8 threads × >10k ops each over the sharded cache; the
    /// atomic hit/miss/expired totals must come out exact (the
    /// scripted per-thread workload has known counts, so any lost update
    /// or double count shows up as a wrong total).
    #[test]
    fn stress_totals_are_exact_across_threads() {
        const THREADS: u64 = 8;
        const WARM_KEYS: u64 = 100;
        const HIT_GETS: u64 = 5_000;
        const MISS_GETS: u64 = 5_000;
        const EXPIRING: u64 = 1_000;

        let c = Arc::new(TtlCache::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let t0 = SimTime::ZERO;
                    // Warm keys, hit repeatedly while live.
                    for k in 0..WARM_KEYS {
                        c.insert(
                            t0,
                            name(&format!("warm{k}.t{t}.edu")),
                            RType::A,
                            vec![rr(60)],
                        );
                    }
                    for i in 0..HIT_GETS {
                        let k = i % WARM_KEYS;
                        assert!(c
                            .get(t0, &name(&format!("warm{k}.t{t}.edu")), RType::A)
                            .is_some());
                    }
                    // Absent keys miss.
                    for i in 0..MISS_GETS {
                        assert!(c
                            .get(t0, &name(&format!("ghost{i}.t{t}.edu")), RType::A)
                            .is_none());
                    }
                    // Short-TTL keys observed after expiry.
                    for k in 0..EXPIRING {
                        c.insert(
                            t0,
                            name(&format!("short{k}.t{t}.edu")),
                            RType::A,
                            vec![rr(1)],
                        );
                    }
                    let late = SimTime::from_ms(5_000);
                    for k in 0..EXPIRING {
                        assert!(c
                            .get(late, &name(&format!("short{k}.t{t}.edu")), RType::A)
                            .is_none());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("thread panicked");
        }
        let stats = c.stats();
        assert_eq!(stats.hits, THREADS * HIT_GETS);
        assert_eq!(stats.misses, THREADS * MISS_GETS);
        assert_eq!(stats.expired, THREADS * EXPIRING);
        assert_eq!(stats.inserts, THREADS * (WARM_KEYS + EXPIRING));
        // Expired entries stay resident for serve-stale.
        assert_eq!(c.map.len(), (THREADS * (WARM_KEYS + EXPIRING)) as usize);
    }
}
