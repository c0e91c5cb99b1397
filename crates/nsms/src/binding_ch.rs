//! The HRPC-binding NSM for Clearinghouse-named systems.
//!
//! Same client interface as [`crate::binding_bind::BindingBindNsm`], but
//! the work differs completely: the host address comes from an
//! authenticated Clearinghouse lookup, and port determination runs the
//! Courier exchange protocol. "The client does not need to be aware of
//! which name service it is calling."

use std::sync::Arc;

use clearinghouse::client::ChClient;
use clearinghouse::name::ThreePartName;
use clearinghouse::property::PROP_ADDRESS;
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

const BINDING_MARSHAL_RRS: usize = 6;
const CACHED_BINDING_RRS: usize = 2;
/// TTL for cached Clearinghouse-derived bindings (the Clearinghouse has no
/// per-record TTLs; this mirrors the meta TTL).
const CH_BINDING_TTL: u32 = 600;

/// The binding NSM for Clearinghouse/Courier systems.
pub struct BindingChNsm {
    name: String,
    net: Arc<RpcNet>,
    host: HostId,
    client: Arc<ChClient>,
    mapping: NameMapping,
    /// Completed bindings, keyed by the interned local and service names
    /// and the program number of the query.
    cache: HnsCache<(NameId, NameId, ProgramId)>,
    target_suite: ComponentSet,
}

impl BindingChNsm {
    /// Conventional NSM name.
    pub const NAME: &'static str = "nsm-hrpcbinding-ch";

    /// Creates the NSM.
    pub fn new(
        net: Arc<RpcNet>,
        host: HostId,
        client: Arc<ChClient>,
        mapping: NameMapping,
        cache_form: CacheMode,
    ) -> Arc<Self> {
        Arc::new(BindingChNsm {
            name: Self::NAME.to_string(),
            net,
            host,
            client,
            mapping,
            cache: HnsCache::new(cache_form),
            target_suite: ComponentSet::courier(),
        })
    }

    /// Cache statistics: (hits, misses), an expired probe counting as a
    /// miss.
    pub fn cache_stats(&self) -> (u64, u64) {
        let s = self.cache.stats();
        (s.hits, s.misses + s.expired)
    }

    /// Publishes this NSM's cache stats into `metrics` under `component`.
    pub fn export_metrics(&self, metrics: &simnet::obs::MetricsRegistry, component: &str) {
        self.cache.export_metrics(metrics, component);
    }
}

impl Nsm for BindingChNsm {
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

        // 1. Authenticated Clearinghouse lookup for the host address.
        let tpn = ThreePartName::parse(&local).map_err(|e| RpcError::Service(e.to_string()))?;
        let host = HostId(self.client.lookup_item(&tpn, PROP_ADDRESS)?.as_u32()?);

        // 2. Port determination via the Courier exchange protocol.
        let port = bindproto::resolve_port(
            &self.net,
            self.host,
            host,
            program,
            service,
            self.target_suite,
        )?;

        // 3. Assemble.
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
                .insert(world, key, &reply, CACHED_BINDING_RRS, CH_BINDING_TTL);
        }
        Ok(reply)
    }
}

impl std::fmt::Debug for BindingChNsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindingChNsm")
            .field("host", &self.host)
            .finish()
    }
}
