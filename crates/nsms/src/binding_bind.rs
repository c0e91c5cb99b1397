//! The HRPC-binding NSM for BIND-named systems.
//!
//! This is the paper's worked example: "The NSM looks up the local name
//! ('fiji.cs.washington.edu') in the name service, and then determines the
//! needed port number for the ServiceName, using whatever binding protocol
//! is appropriate for that particular system" — here the Sun portmapper.
//!
//! Client interface for the `HRPCBinding` query class (identical across
//! NSMs): extra args `{ service: str, program: u32 }`; reply: a serialized
//! [`HrpcBinding`].

use std::sync::Arc;

use bindns::name::DomainName;
use bindns::resolver::StdResolver;
use bindns::rr::{RData, RType};
use hns_core::cache::{CacheMode, HnsCache};
use hns_core::intern::{self, NameId};
use hns_core::name::{HnsName, NameMapping};
use hns_core::nsm::Nsm;
use hns_core::query::QueryClass;
use hrpc::bindproto;
use hrpc::error::{RpcError, RpcResult};
use hrpc::net::RpcNet;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use simnet::topology::HostId;
use wire::Value;

/// Resource records' worth of marshalling a completed binding structure
/// costs through the generated routines (the multi-field binding record).
const BINDING_MARSHAL_RRS: usize = 6;
/// Records a cached completed binding occupies.
const CACHED_BINDING_RRS: usize = 2;

/// The binding NSM for BIND/Sun systems.
pub struct BindingBindNsm {
    name: String,
    net: Arc<RpcNet>,
    host: HostId,
    resolver: Arc<StdResolver>,
    mapping: NameMapping,
    /// Completed bindings, keyed by the interned local and service names
    /// and the program number of the query.
    cache: HnsCache<(NameId, NameId, ProgramId)>,
    /// The native system's emulation suite for the *target service*.
    target_suite: ComponentSet,
}

impl BindingBindNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-hrpcbinding-bind";

    /// Creates the NSM.
    ///
    /// `host` is where this NSM instance executes (its calls originate
    /// there — the colocation arrangement decides this).
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        resolver: Arc<StdResolver>,
        mapping: NameMapping,
        cache_form: CacheMode,
    ) -> Arc<Self> {
        Self::named(Self::NAME, net, host, resolver, mapping, cache_form)
    }

    /// Creates the NSM under a custom registered name — used when a second
    /// BIND-style subsystem joins the federation and needs its own NSM
    /// instance.
    pub fn named(
        name: impl Into<String>,
        net: Arc<RpcNet>,
        host: HostId,
        resolver: Arc<StdResolver>,
        mapping: NameMapping,
        cache_form: CacheMode,
    ) -> Arc<Self> {
        Arc::new(BindingBindNsm {
            name: name.into(),
            net,
            host,
            resolver,
            mapping,
            cache: HnsCache::new(cache_form),
            target_suite: ComponentSet::sun(),
        })
    }

    /// Cache statistics: (hits, misses), an expired probe counting as a
    /// miss.
    pub fn cache_stats(&self) -> (u64, u64) {
        let s = self.cache.stats();
        (s.hits, s.misses + s.expired)
    }

    /// Clears the result cache.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Publishes this NSM's cache stats into `metrics` under `component`.
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        self.cache.export_metrics(metrics, component);
    }

    fn lookup_host(&self, local: &str) -> RpcResult<(HostId, u32)> {
        let domain = DomainName::parse(local).map_err(|e| RpcError::Service(e.to_string()))?;
        let records = self.resolver.query_uncached(&domain, RType::A)?;
        let rr = records
            .iter()
            .find(|r| r.rtype == RType::A)
            .ok_or_else(|| RpcError::NotFound(local.to_string()))?;
        match &rr.rdata {
            RData::Addr(addr) => Ok((addr.host, rr.ttl)),
            other => Err(RpcError::Service(format!("bad A rdata {other:?}"))),
        }
    }
}

impl Nsm for BindingBindNsm {
    fn nsm_name(&self) -> &str {
        &self.name
    }

    fn query_class(&self) -> QueryClass {
        QueryClass::hrpc_binding()
    }

    fn handle(&self, hns_name: &HnsName, args: &Value) -> RpcResult<Value> {
        let world = self.net.world();
        let service = args.str_field("service")?;
        let program = ProgramId(args.u32_field("program")?);

        // Translate the individual name to the local name.
        let local = self
            .mapping
            .to_local(&hns_name.individual)
            .map_err(|e| RpcError::Service(e.to_string()))?;

        // A disabled cache gets no key, so nothing is interned for it.
        let cache_key = self
            .cache
            .enabled()
            .then(|| (intern::intern(&local), intern::intern(service), program));
        if let Some(cached) = cache_key.and_then(|key| self.cache.get(world, &key)) {
            world.charge_ms(world.costs.nsm_assemble);
            return Ok(cached);
        }

        // 1. Look the host up in the public BIND.
        let (host, ttl) = self.lookup_host(&local)?;

        // 2. Determine the port with the system's own binding protocol
        //    (Sun portmapper).
        let port = bindproto::resolve_port(
            &self.net,
            self.host,
            host,
            program,
            service,
            self.target_suite,
        )?;

        // 3. Assemble and marshal the completed binding through the
        //    generated routines.
        let binding = HrpcBinding {
            host,
            addr: simnet::topology::NetAddr::of(host),
            program,
            port,
            components: self.target_suite,
        };
        world.charge_ms(world.costs.generated_miss(BINDING_MARSHAL_RRS) + world.costs.nsm_assemble);
        let reply = binding.to_value();
        if let Some(key) = cache_key {
            self.cache
                .insert(world, key, &reply, CACHED_BINDING_RRS, ttl);
        }
        Ok(reply)
    }
}

impl std::fmt::Debug for BindingBindNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindingBindNsm")
            .field("host", &self.host)
            .finish()
    }
}
