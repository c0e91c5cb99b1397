//! The composed `FindNSM` binding cache.
//!
//! The per-mapping [`HnsCache`](crate::cache::HnsCache) makes a warm
//! `FindNSM` free of *remote* work, but the walk itself still runs all
//! six mappings: six meta-key constructions, six shard probes, and —
//! the dominant cost at load — re-parsing the cached payload strings
//! into `ContextInfo` / NSM-name / `NsmInfo` structures on every query.
//! At hundreds of thousands of queries per second that parse-and-alloc
//! tax *is* the hot path.
//!
//! This cache composes the whole walk: the final [`HrpcBinding`] for a
//! `(query class, context)` pair, tagged with the **minimum remaining
//! TTL across every constituent mapping entry** observed while the walk
//! ran. Until that composed TTL lapses, no constituent can have expired
//! either (meta entries only leave the cache by TTL; dynamic updates
//! re-register and bump serials before any TTL math would let a
//! composed entry outlive its parts), so serving the composed binding
//! is exactly as fresh as re-walking the per-mapping cache. A warm
//! `FindNSM` becomes one shard probe returning a `Copy` binding.
//!
//! Disabled by default: the paper's measured shape (Table 3.1) is the
//! six-mapping walk, and every golden experiment keeps that shape.
//! The load engine enables it per instance via
//! [`Hns::set_binding_cache`](crate::service::Hns::set_binding_cache).

use std::sync::atomic::{AtomicBool, Ordering};

use hrpc::HrpcBinding;
use intern::NameId;
use simnet::ttl_map::{Counter, TtlMap};
use simnet::world::World;

/// Statistics of a [`BindingCache`].
pub type BindingCacheStats = simnet::ttl_map::CacheStats;

/// A sharded cache of composed `FindNSM` results.
///
/// Keys are interned `(query class, context)` ids — the individual
/// name plays no part in the mapping walk, so all names in a context
/// share one entry per query class. Each entry expires when the
/// *earliest* constituent mapping entry does.
#[derive(Debug, Default)]
pub struct BindingCache {
    enabled: AtomicBool,
    map: TtlMap<(NameId, NameId), HrpcBinding>,
}

impl BindingCache {
    /// Enables or disables the cache. Disabling clears it, so a
    /// re-enable starts cold.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.map.clear();
        }
    }

    /// Whether the cache is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Probes for a live composed binding under interned
    /// `(query class, context)`, charging one cache-probe cost. Returns
    /// `None` (without charging) when disabled.
    pub fn lookup(&self, world: &World, key: (NameId, NameId)) -> Option<HrpcBinding> {
        if !self.enabled() {
            return None;
        }
        world.charge_ms(world.costs.cache_probe);
        self.map.get(world.now(), &key)
    }

    /// Inserts a composed result whose earliest constituent expires in
    /// `min_ttl_secs`. A zero TTL (a stale-served walk) is not cached.
    pub fn insert(
        &self,
        world: &World,
        key: (NameId, NameId),
        binding: HrpcBinding,
        min_ttl_secs: u32,
    ) {
        if !self.enabled() || min_ttl_secs == 0 {
            return;
        }
        self.map.insert(world.now(), key, binding, min_ttl_secs);
        self.map.count(Counter::Inserts);
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BindingCacheStats {
        self.map.stats()
    }

    /// Exports the current statistics into a metrics registry under
    /// `component` (see [`TtlMap::export_metrics`]).
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        self.map.export_metrics(metrics, component);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrpc::ProgramId;
    use simnet::topology::{HostId, NetAddr};

    fn binding(host: u32) -> HrpcBinding {
        HrpcBinding {
            host: HostId(host),
            addr: NetAddr::of(HostId(host)),
            program: ProgramId(17),
            port: 1234,
            components: hrpc::ComponentSet::sun(),
        }
    }

    fn key(qc: &str, context: &str) -> (NameId, NameId) {
        (intern::intern(qc), intern::intern(context))
    }

    #[test]
    fn disabled_cache_is_inert() {
        let w = World::paper();
        let c = BindingCache::default();
        c.insert(&w, key("hrpc_binding", "dept0"), binding(1), 600);
        assert_eq!(c.lookup(&w, key("hrpc_binding", "dept0")), None);
        assert_eq!(c.stats(), BindingCacheStats::default());
        // Probes of a disabled cache charge nothing.
        assert_eq!(w.now().as_us(), 0);
    }

    #[test]
    fn hit_until_composed_ttl_lapses_then_expired() {
        let w = World::paper();
        let c = BindingCache::default();
        c.set_enabled(true);
        assert_eq!(c.lookup(&w, key("qc", "ctx")), None, "cold miss");
        c.insert(&w, key("qc", "ctx"), binding(2), 2);
        assert_eq!(c.lookup(&w, key("qc", "ctx")), Some(binding(2)));
        w.charge_ms(2_000.0);
        assert_eq!(c.lookup(&w, key("qc", "ctx")), None, "composed TTL lapsed");
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expired, s.inserts), (1, 1, 1, 1));
    }

    #[test]
    fn zero_ttl_walks_are_not_cached() {
        let w = World::paper();
        let c = BindingCache::default();
        c.set_enabled(true);
        c.insert(&w, key("qc", "ctx"), binding(3), 0);
        assert_eq!(c.lookup(&w, key("qc", "ctx")), None);
        assert_eq!(c.stats().inserts, 0);
    }

    #[test]
    fn disabling_clears_entries() {
        let w = World::paper();
        let c = BindingCache::default();
        c.set_enabled(true);
        c.insert(&w, key("qc", "ctx"), binding(4), 600);
        c.set_enabled(false);
        c.set_enabled(true);
        assert_eq!(
            c.lookup(&w, key("qc", "ctx")),
            None,
            "re-enable starts cold"
        );
    }
}
