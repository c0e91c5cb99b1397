//! The HNS meta-naming cache.
//!
//! "Because our approach introduces a level of indirection, we use a
//! specialized caching scheme based on locality of reference to query class
//! and name system type to provide acceptable performance."
//!
//! Two storage forms exist, the subject of Table 3.2:
//!
//! * **Marshalled** — entries are kept in wire form and demarshalled
//!   through the generated routines on every hit (the initial
//!   implementation: "we kept data in its marshalled form, and demarshalled
//!   it upon every access, expecting that marshalling was a minor expense").
//! * **Demarshalled** — entries are kept decoded; a hit is a map lookup
//!   plus a reference-count bump ("by simply changing the cache to keep
//!   demarshalled information, the times decreased dramatically").
//!
//! Entries are TTL-tagged, inheriting BIND's invalidation regime. Storage,
//! sharding, expiry and statistics are the shared [`TtlMap`]; this module
//! adds the paper's policy on top:
//!
//! * the storage form and its Table 3.2 virtual-time charges;
//! * **negative caching** — a `NotFound` can be remembered via
//!   [`HnsCache::insert_negative`] for a (short, separate) TTL, so
//!   repeated lookups of absent names do not hammer the meta server;
//! * **miss coalescing** — [`HnsCache::begin_fetch`] is a singleflight
//!   gate: of K threads missing on the same key, one becomes the
//!   [`FetchTicket::Leader`] and performs the remote fetch while the
//!   others block until it finishes, then re-probe the cache;
//! * **serve-stale** — [`HnsCache::lookup_stale`] hands out an expired
//!   entry when the authority is unreachable.
//!
//! The NSMs cache their completed results with the same layer, under
//! their own key type ("both the HNS and the NSMs were modified to cache
//! the results of remote lookups").

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use intern::NameId;
use parking_lot::Mutex;
use simnet::trace::CacheOutcome;
use simnet::ttl_map::{Counter, Probe, TtlMap};
use simnet::world::World;
use simnet::CacheForm;
use wire::Value;

/// Default TTL for negative entries, seconds. Deliberately much shorter
/// than the positive [`crate::meta::META_TTL`]: absence is the cheapest
/// fact to recompute and the most dangerous to over-remember.
pub const NEGATIVE_TTL: u32 = 30;

/// Whether and how a cache keeps what it caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CacheMode {
    /// No caching (the paper's column-A/no-cache interpretation).
    Disabled,
    /// Cache in wire form; every hit pays a generated demarshal.
    Marshalled,
    /// Cache decoded values; hits are nearly free.
    Demarshalled,
}

impl CacheMode {
    fn from_u8(v: u8) -> CacheMode {
        match v {
            1 => CacheMode::Marshalled,
            2 => CacheMode::Demarshalled,
            _ => CacheMode::Disabled,
        }
    }
}

/// Keys for the six data mappings a `FindNSM` performs.
///
/// Meta-store mappings (context, NSM-name, NSM-info records) are keyed by
/// their meta-zone domain name, so the zone-transfer preload path produces
/// exactly the same keys as the demand-fetch path.
///
/// Keys carry interned [`NameId`]s rather than owned strings: a key is
/// `Copy`, eight bytes, hashes as one or two `u32`s, and a million cached
/// mappings share one stored copy of each distinct name. `Debug` resolves
/// the ids so traces stay human-readable.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaKey {
    /// Mappings 1–5: a record set in the meta zone.
    Meta(NameId),
    /// Mapping 6: a (name service, host name) → address result obtained
    /// via the linked host-address NSM.
    HostAddr(NameId, NameId),
}

impl MetaKey {
    /// Keys a meta-zone record set by its domain name.
    pub fn meta(name: &bindns::name::DomainName) -> MetaKey {
        MetaKey::Meta(name.interned())
    }

    /// Keys a host-address result by `(name service, host name)`.
    pub fn host_addr(ns: &str, host: &str) -> MetaKey {
        MetaKey::HostAddr(intern::intern(ns), intern::intern(host))
    }
}

impl std::fmt::Debug for MetaKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaKey::Meta(id) => write!(f, "Meta({:?})", &*intern::display(*id)),
            MetaKey::HostAddr(ns, host) => write!(
                f,
                "HostAddr({:?}, {:?})",
                &*intern::display(*ns),
                &*intern::display(*host)
            ),
        }
    }
}

#[derive(Debug, Clone)]
enum Stored {
    Bytes(Arc<[u8]>),
    Decoded(Arc<Value>),
    /// The name was authoritatively absent when cached.
    Negative,
}

#[derive(Debug, Clone)]
struct Entry {
    stored: Stored,
    rrs: usize,
}

impl Entry {
    /// The entry's value, charging the Table 3.2 access cost of its form.
    /// `None` for a negative entry or undecodable bytes.
    fn read(&self, world: &World) -> Option<Arc<Value>> {
        match &self.stored {
            Stored::Bytes(bytes) => {
                // The real demarshal, plus its calibrated cost.
                world.charge_ms(world.costs.cache_hit(CacheForm::Marshalled, self.rrs));
                wire::xdr::decode(bytes).ok().map(Arc::new)
            }
            Stored::Decoded(value) => {
                world.charge_ms(world.costs.cache_hit(CacheForm::Demarshalled, self.rrs));
                Some(Arc::clone(value))
            }
            Stored::Negative => None,
        }
    }
}

/// Cache statistics.
pub type HnsCacheStats = simnet::ttl_map::CacheStats;

/// One in-flight fetch that other threads can wait on.
///
/// Built on `std::sync` primitives (not `parking_lot`) because waiters
/// must tolerate a leader that panicked mid-fetch: the guard's `Drop`
/// still completes the flight, and lock poisoning is explicitly absorbed.
#[derive(Debug)]
struct Flight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn complete(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        drop(done);
        self.cv.notify_all();
    }
}

/// Result of a cost-charged cache probe.
#[derive(Debug, Clone)]
pub enum CacheLookup {
    /// A live entry: the (shared) value and its remaining TTL in seconds,
    /// rounded up so a just-inserted entry reports its full TTL.
    Hit {
        /// The cached value; demarshalled hits share the stored allocation.
        value: Arc<Value>,
        /// Seconds of validity the entry still has.
        remaining_ttl_secs: u32,
    },
    /// A live negative entry: the name was authoritatively absent within
    /// the negative TTL.
    NegativeHit,
    /// Nothing cached (absent, expired, or undecodable).
    Miss,
}

/// Outcome of [`HnsCache::lookup_or_fetch`]: either the cache (or a
/// coalesced leader's fetch) answered, or this caller owns the fetch.
pub enum LookupOrFetch<'a, K: Hash + Eq = MetaKey> {
    /// A live entry: the (shared) value and its remaining TTL, seconds.
    Hit {
        /// The cached value; demarshalled hits share the stored allocation.
        value: Arc<Value>,
        /// Seconds of validity the entry still has.
        remaining_ttl_secs: u32,
    },
    /// A live negative entry: the name is authoritatively absent.
    NegativeHit,
    /// This caller must fetch; keep the guard alive until the insert.
    Lead(FlightGuard<'a, K>),
}

/// An expired positive entry returned by [`HnsCache::lookup_stale`].
#[derive(Debug, Clone)]
pub struct StaleEntry {
    /// The cached value; demarshalled entries share the stored `Arc`.
    pub value: Arc<Value>,
    /// Record count of the entry.
    pub rrs: usize,
    /// Whole seconds since the entry's TTL lapsed.
    pub stale_for_secs: u32,
}

/// Outcome of [`HnsCache::begin_fetch`] after a miss.
pub enum FetchTicket<'a, K: Hash + Eq = MetaKey> {
    /// This caller owns the fetch; the guard must stay alive until the
    /// fetched value has been inserted (or the fetch abandoned) — dropping
    /// it releases every coalesced waiter.
    Leader(FlightGuard<'a, K>),
    /// Another thread was already fetching this key; its fetch has now
    /// completed (successfully or not). Re-probe the cache.
    Coalesced,
}

/// RAII token held by the leader of an in-flight fetch. On drop — normal
/// return, error, or panic — the flight is deregistered and all coalesced
/// waiters are released. A disabled cache hands out an inert guard: it
/// registered no flight, so nobody waits on it.
pub struct FlightGuard<'a, K: Hash + Eq = MetaKey> {
    in_flight: &'a Mutex<HashMap<K, Arc<Flight>>>,
    key: K,
    flight: Option<Arc<Flight>>,
}

impl<K: Hash + Eq> Drop for FlightGuard<'_, K> {
    fn drop(&mut self) {
        if let Some(flight) = self.flight.take() {
            self.in_flight.lock().remove(&self.key);
            flight.complete();
        }
    }
}

/// The HNS cache: a [`TtlMap`] of form-stored values with negative
/// entries, serve-stale and miss coalescing. `K` is [`MetaKey`] for the
/// HNS; the NSMs key their result caches by their query.
#[derive(Debug)]
pub struct HnsCache<K = MetaKey> {
    mode: AtomicU8,
    negative_ttl: AtomicU32,
    map: TtlMap<K, Entry>,
    in_flight: Mutex<HashMap<K, Arc<Flight>>>,
}

impl<K: Copy + Hash + Eq + Debug> HnsCache<K> {
    /// Creates a cache in the given mode.
    pub fn new(mode: CacheMode) -> Self {
        HnsCache {
            mode: AtomicU8::new(mode as u8),
            negative_ttl: AtomicU32::new(NEGATIVE_TTL),
            map: TtlMap::default(),
            in_flight: Mutex::new(HashMap::new()),
        }
    }

    /// Current mode.
    pub fn mode(&self) -> CacheMode {
        CacheMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Switches mode, clearing the cache (entries are stored per-form).
    pub fn set_mode(&self, mode: CacheMode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
        self.clear();
    }

    /// Sets the TTL applied to subsequently inserted negative entries.
    pub fn set_negative_ttl(&self, ttl_secs: u32) {
        self.negative_ttl.store(ttl_secs, Ordering::Relaxed);
    }

    /// The shared probe: charges the probe cost and, on a live positive
    /// entry, the form-dependent access cost of Table 3.2. Moves no
    /// counter — the caller decides whether this probe is the
    /// operation's outcome or a re-probe after a coalesced wait.
    fn probe(&self, world: &World, key: &K) -> (CacheLookup, Counter, CacheOutcome) {
        world.charge_ms(world.costs.cache_probe);
        match self.map.probe(world.now(), key) {
            Probe::Live(entry, _) if matches!(entry.stored, Stored::Negative) => (
                CacheLookup::NegativeHit,
                Counter::NegativeHits,
                CacheOutcome::NegativeHit,
            ),
            Probe::Live(entry, left) => match entry.read(world) {
                Some(value) => (
                    CacheLookup::Hit {
                        value,
                        remaining_ttl_secs: left.as_us().div_ceil(1_000_000) as u32,
                    },
                    Counter::Hits,
                    CacheOutcome::Hit,
                ),
                None => (CacheLookup::Miss, Counter::Misses, CacheOutcome::Miss),
            },
            // An expired entry is dead for normal reads but deliberately
            // *retained*: it is the serve-stale fallback when the
            // authority is unreachable. A successful refetch overwrites
            // it in place.
            Probe::Expired(..) => (CacheLookup::Miss, Counter::Expired, CacheOutcome::Expired),
            Probe::Absent => (CacheLookup::Miss, Counter::Misses, CacheOutcome::Miss),
        }
    }

    /// Probes `key`, charging the probe cost and, on a hit, the
    /// form-dependent access cost of Table 3.2. Demarshalled hits share
    /// the stored `Arc` — no value clone.
    ///
    /// Counts one of hits / misses / expired / negative_hits per call and
    /// annotates the current trace span with the outcome. Callers that
    /// follow a miss through the singleflight gate should prefer
    /// [`HnsCache::lookup_or_fetch`], whose accounting counts each
    /// logical operation exactly once even when it coalesces.
    pub fn lookup(&self, world: &World, key: &K) -> CacheLookup {
        if self.mode() == CacheMode::Disabled {
            return CacheLookup::Miss;
        }
        let (lookup, counter, outcome) = self.probe(world, key);
        self.map.count(counter);
        world.cache_outcome(outcome);
        lookup
    }

    /// Probes `key` and, on a miss, enters the singleflight gate —
    /// looping through coalesced waits until the operation resolves as
    /// a hit, a negative hit, or leadership of the fetch.
    ///
    /// Accounting contract: each logical operation moves **exactly one**
    /// of `hits`, `misses`, `expired`, `negative_hits`, or `coalesced`.
    /// In particular a coalesced waiter counts only `coalesced` — its
    /// initial probe is not a `miss` or `expired` (it never fetched) and
    /// its post-wait re-probe is not a `hit` (the leader's fetch, not the
    /// cache, answered it).
    ///
    /// Also annotates the calling thread's current trace span with the
    /// operation's [`CacheOutcome`].
    ///
    /// A disabled cache does no cache work: every caller leads its own
    /// fetch without entering the gate, and no statistic moves.
    pub fn lookup_or_fetch(&self, world: &World, key: &K) -> LookupOrFetch<'_, K> {
        if self.mode() == CacheMode::Disabled {
            world.cache_outcome(CacheOutcome::Miss);
            return LookupOrFetch::Lead(FlightGuard {
                in_flight: &self.in_flight,
                key: *key,
                flight: None,
            });
        }
        let mut waited = false;
        loop {
            let (lookup, counter, outcome) = self.probe(world, key);
            let answer = match lookup {
                CacheLookup::Hit {
                    value,
                    remaining_ttl_secs,
                } => {
                    if !waited {
                        world.trace(None, simnet::trace::TraceKind::Cache, || {
                            format!("hit {key:?}")
                        });
                    }
                    LookupOrFetch::Hit {
                        value,
                        remaining_ttl_secs,
                    }
                }
                CacheLookup::NegativeHit => LookupOrFetch::NegativeHit,
                CacheLookup::Miss => match self.begin_fetch(key) {
                    FetchTicket::Leader(guard) => LookupOrFetch::Lead(guard),
                    FetchTicket::Coalesced => {
                        if !waited {
                            world.cache_outcome(CacheOutcome::Coalesced);
                        }
                        waited = true;
                        continue;
                    }
                },
            };
            if !waited {
                self.map.count(counter);
                world.cache_outcome(outcome);
            }
            return answer;
        }
    }

    /// Looks up `key`, cloning the value out on a hit. Negative hits
    /// report as `None`, like plain misses.
    pub fn get(&self, world: &World, key: &K) -> Option<Value> {
        match self.lookup(world, key) {
            CacheLookup::Hit { value, .. } => Some((*value).clone()),
            CacheLookup::NegativeHit | CacheLookup::Miss => None,
        }
    }

    /// Probes `key` for an **expired** positive entry — the serve-stale
    /// fallback used when the authoritative meta server is unreachable
    /// (paper §4: meta-naming data changes slowly, so stale data beats
    /// no data). Charges the probe plus the form-dependent hit cost and
    /// counts one `stale_serves` on success. Live entries, negatives,
    /// absent keys, and a disabled cache all return `None` — the normal
    /// lookup path is never bypassed for live data.
    pub fn lookup_stale(&self, world: &World, key: &K) -> Option<StaleEntry> {
        if self.mode() == CacheMode::Disabled {
            return None;
        }
        world.charge_ms(world.costs.cache_probe);
        let (entry, stale_for) = self.map.get_stale(world.now(), key)?;
        let value = entry.read(world)?;
        self.map.count(Counter::StaleServes);
        Some(StaleEntry {
            value,
            rrs: entry.rrs,
            stale_for_secs: (stale_for.as_us() / 1_000_000) as u32,
        })
    }

    /// False for a [`CacheMode::Disabled`] cache, which stores nothing:
    /// callers need not build (or intern) a key for it.
    pub fn enabled(&self) -> bool {
        self.mode() != CacheMode::Disabled
    }

    /// True if a live (positive) entry exists. Charges nothing and moves
    /// no statistics — this is a structural peek, used to decide whether
    /// a speculative batch fetch is worthwhile.
    pub fn contains_live(&self, world: &World, key: &K) -> bool {
        self.enabled()
            && matches!(
                self.map.probe(world.now(), key),
                Probe::Live(entry, _) if !matches!(entry.stored, Stored::Negative)
            )
    }

    /// Enters the singleflight gate for `key` after a miss.
    ///
    /// Returns [`FetchTicket::Leader`] if this caller should perform the
    /// fetch (keep the guard alive until after the insert), or
    /// [`FetchTicket::Coalesced`] once another thread's in-flight fetch
    /// for the same key has finished — in which case re-probe the cache
    /// and, if it is still a miss, call `begin_fetch` again.
    pub fn begin_fetch(&self, key: &K) -> FetchTicket<'_, K> {
        let mut flights = self.in_flight.lock();
        if let Some(flight) = flights.get(key).map(Arc::clone) {
            drop(flights);
            self.map.count(Counter::Coalesced);
            flight.wait();
            return FetchTicket::Coalesced;
        }
        let flight = Arc::new(Flight {
            done: StdMutex::new(false),
            cv: Condvar::new(),
        });
        flights.insert(*key, Arc::clone(&flight));
        FetchTicket::Leader(FlightGuard {
            in_flight: &self.in_flight,
            key: *key,
            flight: Some(flight),
        })
    }

    /// Inserts a value fetched from the meta store or an NSM. Returns
    /// whether it was stored (not when disabled or unencodable).
    pub fn insert(&self, world: &World, key: K, value: &Value, rrs: usize, ttl_secs: u32) -> bool {
        let stored = match self.mode() {
            CacheMode::Disabled => return false,
            CacheMode::Marshalled => match wire::xdr::encode(value) {
                Ok(bytes) => Stored::Bytes(bytes.into()),
                Err(_) => return false,
            },
            CacheMode::Demarshalled => Stored::Decoded(Arc::new(value.clone())),
        };
        self.map
            .insert(world.now(), key, Entry { stored, rrs }, ttl_secs);
        self.map.count(Counter::Inserts);
        true
    }

    /// Remembers that `key` was authoritatively absent, for the negative
    /// TTL. Not counted in [`HnsCacheStats::inserts`].
    pub fn insert_negative(&self, world: &World, key: K) {
        if self.mode() == CacheMode::Disabled {
            return;
        }
        let entry = Entry {
            stored: Stored::Negative,
            rrs: 0,
        };
        let ttl_secs = self.negative_ttl.load(Ordering::Relaxed);
        self.map.insert(world.now(), key, entry, ttl_secs);
    }

    /// Inserts an entry on behalf of the preload path.
    pub fn preload_insert(&self, world: &World, key: K, value: &Value, rrs: usize, ttl_secs: u32) {
        if self.insert(world, key, value, rrs, ttl_secs) {
            self.map.count(Counter::Preloaded);
        }
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Number of entries (negative and expired entries included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HnsCacheStats {
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

    fn key() -> MetaKey {
        MetaKey::meta(&bindns::name::DomainName::parse("ctx.bind-uw.hns").expect("name"))
    }

    fn value() -> Value {
        Value::str("ns=BIND;map=id")
    }

    #[test]
    fn disabled_mode_stores_nothing() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Disabled);
        cache.insert(&world, key(), &value(), 1, 600);
        assert!(cache.get(&world, &key()).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn marshalled_hits_cost_table_3_2() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let (got, took, _) = world.measure(|| cache.get(&world, &key()));
        assert_eq!(got, Some(value()));
        // probe (0.05) + marshalled hit for 1 RR (11.11).
        assert!((took.as_ms_f64() - 11.16).abs() < 0.1, "took {took}");
    }

    #[test]
    fn demarshalled_hits_are_nearly_free() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let (got, took, _) = world.measure(|| cache.get(&world, &key()));
        assert_eq!(got, Some(value()));
        // probe (0.05) + demarshalled hit (0.83).
        assert!((took.as_ms_f64() - 0.88).abs() < 0.05, "took {took}");
    }

    #[test]
    fn six_record_entries_cost_more() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 6, 600);
        let (_, took, _) = world.measure(|| cache.get(&world, &key()));
        // probe + 26.17 (Table 3.2, 6 RRs marshalled).
        assert!((took.as_ms_f64() - 26.22).abs() < 0.1, "took {took}");
    }

    #[test]
    fn ttl_expiry_hides_but_retains_the_entry() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 1); // 1 second
        world.charge_ms(1_500.0);
        assert!(cache.get(&world, &key()).is_none(), "dead for normal reads");
        assert_eq!(cache.len(), 1, "retained as the serve-stale fallback");
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.expired, 1, "expiry is its own counter");
        assert_eq!(stats.misses, 0, "an expiry is not a plain miss");
    }

    #[test]
    fn lookup_stale_serves_only_expired_positives() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 1);
        assert!(
            cache.lookup_stale(&world, &key()).is_none(),
            "live entries go through the normal path"
        );
        world.charge_ms(3_500.0);
        let stale = cache.lookup_stale(&world, &key()).expect("stale fallback");
        assert_eq!(*stale.value, value());
        assert_eq!(stale.rrs, 1);
        assert_eq!(stale.stale_for_secs, 2, "3.5 s elapsed on a 1 s TTL");
        assert_eq!(cache.stats().stale_serves, 1);
        // A refetch overwrites the stale entry in place.
        cache.insert(&world, key(), &value(), 1, 600);
        assert_eq!(cache.get(&world, &key()), Some(value()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lookup_stale_never_serves_negatives_absent_or_disabled() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(cache.lookup_stale(&world, &key()).is_none(), "absent");
        cache.set_negative_ttl(1);
        cache.insert_negative(&world, key());
        world.charge_ms(2_000.0);
        assert!(
            cache.lookup_stale(&world, &key()).is_none(),
            "an expired negative is not servable data"
        );
        let disabled = HnsCache::new(CacheMode::Disabled);
        assert!(disabled.lookup_stale(&world, &key()).is_none());
        assert_eq!(cache.stats().stale_serves, 0);
    }

    #[test]
    fn lookup_stale_decodes_marshalled_entries() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 1, 1);
        world.charge_ms(1_500.0);
        let (stale, took, _) = world.measure(|| cache.lookup_stale(&world, &key()));
        let stale = stale.expect("stale fallback");
        assert_eq!(*stale.value, value());
        // probe (0.05) + marshalled hit for 1 RR (11.11): stale hits pay
        // the same access cost a live hit would.
        assert!((took.as_ms_f64() - 11.16).abs() < 0.1, "took {took}");
    }

    #[test]
    fn cold_probe_counts_as_miss() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(cache.get(&world, &key()).is_none());
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.expired, 0);
    }

    #[test]
    fn mode_switch_clears_entries() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        cache.set_mode(CacheMode::Demarshalled);
        assert!(cache.is_empty());
        assert_eq!(cache.mode(), CacheMode::Demarshalled);
    }

    #[test]
    fn preload_counts_separately() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Marshalled);
        cache.preload_insert(&world, key(), &value(), 1, 600);
        let stats = cache.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.preloaded, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let dn = |s: &str| bindns::name::DomainName::parse(s).expect("name");
        let k1 = MetaKey::meta(&dn("map.bind--hrpcbinding.hns"));
        let k2 = MetaKey::meta(&dn("map.bind--hostaddress.hns"));
        let k3 = MetaKey::meta(&dn("info.nsm-x.hns"));
        let k4 = MetaKey::host_addr("BIND", "fiji");
        cache.insert(&world, k1, &Value::str("a"), 1, 600);
        cache.insert(&world, k2, &Value::str("b"), 1, 600);
        cache.insert(&world, k3, &Value::str("c"), 1, 600);
        cache.insert(&world, k4, &Value::str("d"), 1, 600);
        assert_eq!(cache.get(&world, &k1), Some(Value::str("a")));
        assert_eq!(cache.get(&world, &k2), Some(Value::str("b")));
        assert_eq!(cache.get(&world, &k3), Some(Value::str("c")));
        assert_eq!(cache.get(&world, &k4), Some(Value::str("d")));
    }

    #[test]
    fn lookup_reports_remaining_ttl() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        match cache.lookup(&world, &key()) {
            CacheLookup::Hit {
                remaining_ttl_secs, ..
            } => assert_eq!(remaining_ttl_secs, 600, "fresh entry reports full TTL"),
            other => panic!("expected hit, got {other:?}"),
        }
        world.charge_ms(250_000.0); // 250 s elapse.
        match cache.lookup(&world, &key()) {
            CacheLookup::Hit {
                remaining_ttl_secs, ..
            } => assert_eq!(remaining_ttl_secs, 350),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn demarshalled_hits_share_the_stored_allocation() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let a = match cache.lookup(&world, &key()) {
            CacheLookup::Hit { value, .. } => value,
            other => panic!("expected hit, got {other:?}"),
        };
        let b = match cache.lookup(&world, &key()) {
            CacheLookup::Hit { value, .. } => value,
            other => panic!("expected hit, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&a, &b), "hits must share one allocation");
    }

    #[test]
    fn negative_entries_hit_until_their_ttl_lapses() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        assert!(matches!(
            cache.lookup(&world, &key()),
            CacheLookup::NegativeHit
        ));
        let stats = cache.stats();
        assert_eq!(stats.negative_hits, 1);
        assert_eq!(stats.inserts, 0, "negatives are not inserts");
        world.charge_ms(f64::from(NEGATIVE_TTL) * 1000.0 + 500.0);
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
    }

    #[test]
    fn negative_ttl_is_configurable() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.set_negative_ttl(2);
        cache.insert_negative(&world, key());
        world.charge_ms(1_000.0);
        assert!(matches!(
            cache.lookup(&world, &key()),
            CacheLookup::NegativeHit
        ));
        world.charge_ms(1_500.0);
        assert!(matches!(cache.lookup(&world, &key()), CacheLookup::Miss));
    }

    #[test]
    fn negative_hit_charges_only_the_probe() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        let (_, took, _) = world.measure(|| cache.lookup(&world, &key()));
        assert!(
            (took.as_ms_f64() - 0.05).abs() < 0.01,
            "negative hit took {took}"
        );
    }

    #[test]
    fn positive_insert_overwrites_negative() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert_negative(&world, key());
        cache.insert(&world, key(), &value(), 1, 600);
        assert_eq!(cache.get(&world, &key()), Some(value()));
    }

    #[test]
    fn contains_live_is_structural() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        assert!(!cache.contains_live(&world, &key()));
        cache.insert(&world, key(), &value(), 1, 1);
        let before = cache.stats();
        let (found, took, _) = world.measure(|| cache.contains_live(&world, &key()));
        assert!(found);
        assert_eq!(took.as_us(), 0, "peek must be cost-free");
        world.charge_ms(1_500.0);
        assert!(!cache.contains_live(&world, &key()), "expired is not live");
        assert_eq!(cache.stats(), before, "no stats moved");
        cache.insert_negative(&world, key());
        assert!(
            !cache.contains_live(&world, &key()),
            "negative is not a live positive"
        );
    }

    #[test]
    fn singleflight_leader_then_coalesced() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let guard = match cache.begin_fetch(&key()) {
            FetchTicket::Leader(guard) => guard,
            FetchTicket::Coalesced => panic!("first caller must lead"),
        };
        // Leader inserts and releases; a later caller gets a fresh flight.
        cache.insert(&world, key(), &value(), 1, 600);
        drop(guard);
        assert!(matches!(cache.begin_fetch(&key()), FetchTicket::Leader(_)));
    }

    #[test]
    fn abandoned_flight_allows_a_new_leader() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        match cache.begin_fetch(&key()) {
            FetchTicket::Leader(guard) => drop(guard), // fetch failed; no insert
            FetchTicket::Coalesced => panic!("first caller must lead"),
        }
        assert!(matches!(cache.begin_fetch(&key()), FetchTicket::Leader(_)));
        let _ = world; // silence unused
    }

    #[test]
    fn lookup_or_fetch_counts_cold_miss_once() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        let guard = match cache.lookup_or_fetch(&world, &key()) {
            LookupOrFetch::Lead(guard) => guard,
            _ => panic!("cold probe must lead"),
        };
        cache.insert(&world, key(), &value(), 1, 600);
        drop(guard);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.coalesced, 0);
        // Warm path is a plain hit.
        assert!(matches!(
            cache.lookup_or_fetch(&world, &key()),
            LookupOrFetch::Hit { .. }
        ));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn lookup_or_fetch_expired_counts_expiry_not_miss() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 1);
        world.charge_ms(1_500.0);
        match cache.lookup_or_fetch(&world, &key()) {
            LookupOrFetch::Lead(_guard) => {}
            _ => panic!("expired entry must lead a refetch"),
        }
        let stats = cache.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.misses, 0, "an expiry is not a plain miss");
    }

    /// Regression: a coalesced waiter must count exactly one
    /// `coalesced` — not a `miss` or `expired` for its initial probe and
    /// not a `hit` for its post-wait re-probe — whether the leader
    /// fetches a cold key or refreshes an expired one.
    #[test]
    fn coalesced_waiters_are_not_double_counted() {
        const WAITERS: usize = 4;
        for refresh in [false, true] {
            let world = simnet::World::paper();
            let cache = Arc::new(HnsCache::new(CacheMode::Demarshalled));
            if refresh {
                cache.insert(&world, key(), &value(), 1, 1);
                world.charge_ms(1_500.0);
            }

            let guard = match cache.lookup_or_fetch(&world, &key()) {
                LookupOrFetch::Lead(guard) => guard,
                _ => panic!("leader expected"),
            };

            let barrier = Arc::new(std::sync::Barrier::new(WAITERS + 1));
            let handles: Vec<_> = (0..WAITERS)
                .map(|_| {
                    let world = Arc::clone(&world);
                    let cache = Arc::clone(&cache);
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        match cache.lookup_or_fetch(&world, &key()) {
                            LookupOrFetch::Hit { value, .. } => (*value).clone(),
                            _ => panic!("waiter must see the leader's insert"),
                        }
                    })
                })
                .collect();

            barrier.wait();
            // Deterministic ordering: every waiter registers in the flight
            // (bumping `coalesced`) before the fetch completes, so each one
            // resolves via its quiet post-wait re-probe.
            while cache.stats().coalesced < WAITERS as u64 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            cache.insert(&world, key(), &value(), 1, 600);
            drop(guard);
            for h in handles {
                assert_eq!(h.join().expect("join"), value());
            }

            let stats = cache.stats();
            // Exactly one stat per logical operation.
            let (misses, expired) = if refresh { (0, 1) } else { (1, 0) };
            assert_eq!(stats.misses, misses, "only the leader's fetch: {stats:?}");
            assert_eq!(stats.expired, expired, "only the leader's fetch: {stats:?}");
            assert_eq!(stats.coalesced, WAITERS as u64);
            assert_eq!(
                stats.hits, 0,
                "a coalesced waiter's re-probe must not count a hit: {stats:?}"
            );
            assert_eq!(stats.negative_hits, 0);
        }
    }

    /// A disabled cache never enters the singleflight gate: two threads
    /// holding their leads on one key at the same time both lead (were
    /// the gate entered, the second would wait on the first's flight and
    /// never reach the barrier), and no statistic moves.
    #[test]
    fn disabled_cache_leads_every_caller_without_the_gate() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Disabled);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let lead = cache.lookup_or_fetch(&world, &key());
                    assert!(matches!(lead, LookupOrFetch::Lead(_)), "every caller leads");
                    barrier.wait();
                });
            }
        });
        assert_eq!(cache.stats(), HnsCacheStats::default());
        assert!(cache.in_flight.lock().is_empty());
    }

    #[test]
    fn export_metrics_publishes_stats() {
        let world = simnet::World::paper();
        let cache = HnsCache::new(CacheMode::Demarshalled);
        cache.insert(&world, key(), &value(), 1, 600);
        let _ = cache.get(&world, &key());
        let metrics = simnet::obs::MetricsRegistry::new();
        cache.export_metrics(&metrics, "hns_cache");
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("hns_cache", "hits"), Some(1));
        assert_eq!(snap.counter("hns_cache", "inserts"), Some(1));
        assert_eq!(snap.counter("hns_cache", "entries"), Some(1));
    }
}
