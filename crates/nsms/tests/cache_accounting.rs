//! The accounting identity, checked on every cache.
//!
//! Each of the four caches — the HNS meta-mapping cache, the NSM result
//! cache, the composed `FindNSM` binding cache and the BIND resolver
//! cache — runs the same script: cold miss, hit, TTL expiry, serve-stale
//! where the policy has it, re-insert, hit. After every probe exactly one
//! lookup counter must have moved, and `hits + misses + expired +
//! negative_hits + coalesced` must equal the number of probes so far.

use bindns::cache::TtlCache;
use bindns::name::DomainName;
use bindns::rr::{RType, ResourceRecord};
use hns_core::binding_cache::BindingCache;
use hns_core::cache::{CacheMode, HnsCache, MetaKey};
use hns_core::intern::{self, NameId};
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use simnet::topology::{HostId, NetAddr};
use simnet::ttl_map::CacheStats;
use simnet::world::World;
use wire::Value;

/// Which counter a probe is expected to move.
#[derive(Debug, Clone, Copy)]
enum Moved {
    Hit,
    Miss,
    Expired,
}

/// The script's view of one cache: probe one fixed key, insert it, serve
/// it stale (`None` when the policy has no serve-stale), read the stats.
trait Scripted {
    fn probe(&self, world: &World);
    fn insert(&self, world: &World, ttl_secs: u32);
    fn serve_stale(&self, world: &World) -> Option<bool>;
    fn stats(&self) -> CacheStats;
}

fn meta_key() -> MetaKey {
    MetaKey::host_addr("BIND", "fiji")
}

/// The HNS meta-mapping cache, probed the way `FindNSM` probes it.
impl Scripted for HnsCache<MetaKey> {
    fn probe(&self, world: &World) {
        // A miss leads the fetch; dropping the guard abandons it.
        let _ = self.lookup_or_fetch(world, &meta_key());
    }
    fn insert(&self, world: &World, ttl_secs: u32) {
        HnsCache::insert(self, world, meta_key(), &Value::U32(1), 1, ttl_secs);
    }
    fn serve_stale(&self, world: &World) -> Option<bool> {
        Some(self.lookup_stale(world, &meta_key()).is_some())
    }
    fn stats(&self) -> CacheStats {
        HnsCache::stats(self)
    }
}

/// A binding NSM's result cache: the same layer under the NSM's key.
type NsmKey = (NameId, NameId, ProgramId);

fn nsm_key() -> NsmKey {
    let local = intern::intern("fiji.cs.washington.edu");
    (local, intern::intern("desiredservice"), ProgramId(17))
}

impl Scripted for HnsCache<NsmKey> {
    fn probe(&self, world: &World) {
        let _ = self.get(world, &nsm_key());
    }
    fn insert(&self, world: &World, ttl_secs: u32) {
        HnsCache::insert(self, world, nsm_key(), &Value::U32(1), 2, ttl_secs);
    }
    fn serve_stale(&self, world: &World) -> Option<bool> {
        Some(self.lookup_stale(world, &nsm_key()).is_some())
    }
    fn stats(&self) -> CacheStats {
        HnsCache::stats(self)
    }
}

fn pair() -> (NameId, NameId) {
    (intern::intern("hrpcbinding"), intern::intern("dept0"))
}

impl Scripted for BindingCache {
    fn probe(&self, world: &World) {
        let _ = self.lookup(world, pair());
    }
    fn insert(&self, world: &World, ttl_secs: u32) {
        let binding = HrpcBinding {
            host: HostId(3),
            addr: NetAddr::of(HostId(3)),
            program: ProgramId(17),
            port: 1234,
            components: ComponentSet::sun(),
        };
        BindingCache::insert(self, world, pair(), binding, ttl_secs);
    }
    fn serve_stale(&self, _world: &World) -> Option<bool> {
        None
    }
    fn stats(&self) -> CacheStats {
        BindingCache::stats(self)
    }
}

fn owner() -> DomainName {
    DomainName::parse("fiji.cs.washington.edu").expect("name")
}

impl Scripted for TtlCache {
    fn probe(&self, world: &World) {
        let _ = self.get(world.now(), &owner(), RType::A);
    }
    fn insert(&self, world: &World, ttl_secs: u32) {
        let record = ResourceRecord::a(owner(), ttl_secs, NetAddr::of(HostId(3)));
        TtlCache::insert(self, world.now(), owner(), RType::A, vec![record]);
    }
    fn serve_stale(&self, world: &World) -> Option<bool> {
        let served = self.get_stale(world.now(), &owner(), RType::A).is_some();
        if served {
            self.note_stale_serve();
        }
        Some(served)
    }
    fn stats(&self) -> CacheStats {
        TtlCache::stats(self)
    }
}

fn cases() -> Vec<(&'static str, Box<dyn Scripted>)> {
    let composed = BindingCache::default();
    composed.set_enabled(true);
    vec![
        (
            "hns meta cache",
            Box::new(HnsCache::<MetaKey>::new(CacheMode::Demarshalled)),
        ),
        (
            "nsm result cache",
            Box::new(HnsCache::<NsmKey>::new(CacheMode::Marshalled)),
        ),
        ("composed binding cache", Box::new(composed)),
        ("bindns resolver cache", Box::new(TtlCache::new())),
    ]
}

fn lookups(s: &CacheStats) -> u64 {
    s.hits + s.misses + s.expired + s.negative_hits + s.coalesced
}

#[test]
fn every_cache_counts_each_lookup_exactly_once() {
    for (name, cache) in cases() {
        let world = World::paper();
        let mut probes = 0;
        let mut check = |moved: Moved| {
            let mut want = cache.stats();
            match moved {
                Moved::Hit => want.hits += 1,
                Moved::Miss => want.misses += 1,
                Moved::Expired => want.expired += 1,
            }
            cache.probe(&world);
            probes += 1;
            let got = cache.stats();
            assert_eq!(got, want, "{name}: probe {probes} must move only {moved:?}");
            assert_eq!(
                lookups(&got),
                probes,
                "{name}: identity after probe {probes}"
            );
        };

        check(Moved::Miss);
        cache.insert(&world, 1);
        check(Moved::Hit);
        world.charge_ms(1_500.0);
        check(Moved::Expired);
        let before = cache.stats();
        if let Some(served) = cache.serve_stale(&world) {
            assert!(served, "{name}: the expired entry is served stale");
            let want = CacheStats {
                stale_serves: before.stale_serves + 1,
                ..before
            };
            assert_eq!(cache.stats(), want, "{name}: a stale serve is not a lookup");
        }
        cache.insert(&world, 600);
        check(Moved::Hit);
        assert_eq!(cache.stats().inserts, 2, "{name}: both inserts counted");
    }
}
