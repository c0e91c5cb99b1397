//! Replication of the meta store and the Clearinghouse.
//!
//! "While the HNS is logically a single, centralized facility, its
//! implementation must be distributed and replicated for the usual reasons
//! of performance, availability, and scalability. Because the
//! implementation problems associated with these properties are for the
//! most part successfully addressed in previous name services, we chose to
//! ease our implementation effort by making use of an existing name
//! service" — i.e. the meta store inherits BIND's secondary-server
//! replication, exercised here.

use std::sync::Arc;

use hns_repro::bindns::axfr::Secondary;
use hns_repro::bindns::server::{deploy as deploy_bind, BIND_PROGRAM};
use hns_repro::bindns::DomainName;
use hns_repro::clearinghouse::replication::ChCluster;
use hns_repro::clearinghouse::{ChDb, ChServer, ThreePartName};
use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::hns_core::service::Hns;
use hns_repro::nsms::harness::Testbed;
use hns_repro::wire::Value;

/// Builds an HNS instance whose meta store is a *secondary* copy of the
/// meta zone, exported on its own host.
fn hns_on_secondary(tb: &Testbed) -> (Arc<Hns>, simnet::HostId) {
    let secondary_host = tb.world.add_host("hnsbind2.cs.washington.edu");
    let secondary = Secondary::bootstrap(
        Arc::clone(&tb.net),
        secondary_host,
        tb.meta_bind.hrpc_binding,
        tb.meta_origin.clone(),
        hns_repro::hns_core::META_TTL,
    )
    .expect("bootstrap secondary");
    let dep = deploy_bind(&tb.net, secondary_host, Arc::clone(secondary.server()));
    let hns = Arc::new(Hns::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        dep.hrpc_binding,
        tb.meta_origin.clone(),
        CacheMode::Demarshalled,
    ));
    for nsm in tb.host_addr_nsms(tb.hosts.client) {
        hns.link_nsm(nsm);
    }
    (hns, secondary_host)
}

#[test]
fn secondary_meta_store_answers_findnsm() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);
    let (hns, _) = hns_on_secondary(&tb);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let binding = hns
        .find_nsm(&QueryClass::hrpc_binding(), &name)
        .expect("resolve via secondary");
    assert_eq!(binding.host, tb.hosts.nsm);
}

#[test]
fn clients_on_secondary_survive_primary_failure() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);
    let (hns, _) = hns_on_secondary(&tb);

    // The primary meta BIND goes down.
    tb.net.unexport(tb.hosts.meta, hns_repro::bindns::DNS_PORT);

    // A client whose HNS speaks to the secondary keeps working cold.
    hns.clear_cache();
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let binding = hns
        .find_nsm(&QueryClass::hrpc_binding(), &name)
        .expect("resolve after primary failure");
    assert_eq!(binding.host, tb.hosts.nsm);

    // While a primary-only HNS instance fails.
    let primary_hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    assert!(primary_hns
        .find_nsm(&QueryClass::hrpc_binding(), &name)
        .is_err());
}

#[test]
fn secondary_refresh_picks_up_new_registrations() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);

    let secondary_host = tb.world.add_host("hnsbind2.cs.washington.edu");
    let secondary = Secondary::bootstrap(
        Arc::clone(&tb.net),
        secondary_host,
        tb.meta_bind.hrpc_binding,
        tb.meta_origin.clone(),
        hns_repro::hns_core::META_TTL,
    )
    .expect("bootstrap");

    // A new registration lands on the primary.
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    registrar
        .register_nsm("BIND", &QueryClass::new("Printing"), "nsm-printing-bind")
        .expect("register");

    // Not yet on the secondary...
    let key = DomainName::parse("map.bind--printing.hns").expect("key");
    assert!(secondary
        .server()
        .lookup_direct(&key, hns_repro::bindns::RType::Unspec)
        .is_err());

    // ...until the serial check notices and re-transfers.
    assert!(secondary.refresh().expect("refresh"));
    let records = secondary
        .server()
        .lookup_direct(&key, hns_repro::bindns::RType::Unspec)
        .expect("replicated");
    assert_eq!(records.len(), 1);
}

#[test]
fn clearinghouse_replicas_serve_reads_through_the_wire() {
    // A second CH server carries a lazily propagated copy of the domain;
    // clients read from either replica.
    let tb = Testbed::build();
    let replica_host = tb.world.add_host("dlion2.cs.washington.edu");
    let replica = ChServer::new(
        "clearinghouse-2",
        ChDb::new(vec![("cs".into(), "uw".into())]),
    );
    replica.register_key(tb.creds.identity.clone(), tb.creds.key);
    let replica_dep = hns_repro::clearinghouse::deploy(&tb.net, replica_host, replica);

    let cluster = ChCluster::new(
        Arc::clone(&tb.world),
        Arc::clone(&tb.ch.server),
        tb.hosts.ch,
        vec![(Arc::clone(&replica_dep.server), replica_host)],
    );

    // A write lands on the primary through the wire.
    let primary_client = tb.ch_client(tb.hosts.client);
    let name = ThreePartName::parse("plotter:cs:uw").expect("name");
    primary_client
        .set_item(
            &name,
            hns_repro::clearinghouse::property::PROP_ADDRESS,
            Value::U32(42),
        )
        .expect("write");

    // The replica is stale until propagation.
    let replica_client = hns_repro::clearinghouse::ChClient::new(
        Arc::clone(&tb.net),
        tb.hosts.client,
        replica_dep.binding,
        tb.creds.clone(),
    );
    assert!(replica_client
        .lookup_item(&name, hns_repro::clearinghouse::property::PROP_ADDRESS)
        .is_err());
    cluster.propagate();
    let got = replica_client
        .lookup_item(&name, hns_repro::clearinghouse::property::PROP_ADDRESS)
        .expect("replicated read");
    assert_eq!(got, Value::U32(42));
}

#[test]
fn secondary_deployment_is_reachable_by_program_number() {
    let tb = Testbed::build();
    let (_, secondary_host) = {
        tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);
        hns_on_secondary(&tb)
    };
    let port = tb
        .net
        .portmap_getport(secondary_host, BIND_PROGRAM)
        .expect("registered");
    assert_eq!(port, hns_repro::bindns::DNS_PORT);
}
