//! A second application query class: mail routing across the federation.
//!
//! The HCS project's network-wide mail needs "where does this user's mail
//! go?" answered for users named in either underlying service. Adding the
//! query class required NSMs only — the HNS itself was not changed, which
//! is the point of separating name-space management from naming semantics.
//!
//! ```text
//! cargo run --example mail_routing
//! ```

use std::sync::Arc;

use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::name::HnsName;
use hns_repro::hns_core::nsm::NsmClient;
use hns_repro::hns_core::query::QueryClass;
use hns_repro::nsms::harness::Testbed;

fn main() {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);
    // The mail and file NSMs are "extension" applications: registering
    // them is the only step a new query class needs.
    tb.deploy_extension_nsms(tb.hosts.nsm);

    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let nsm_client = NsmClient::new(Arc::clone(&tb.net), tb.hosts.client);
    let qc = QueryClass::mailbox_location();

    // A mail agent's routing loop: identical code per recipient, whichever
    // name service knows them.
    let recipients = [
        HnsName::new(tb.ctx_bind(), "alice.cs.washington.edu").expect("name"),
        HnsName::new(tb.ctx_ch(), "bob:cs:uw").expect("name"),
    ];
    for recipient in &recipients {
        let nsm_binding = hns.find_nsm(&qc, recipient).expect("FindNSM");
        let reply = nsm_client
            .call(&nsm_binding, recipient, vec![])
            .expect("mailbox NSM");
        let mailbox = reply.str_field("mailbox_host").expect("standard reply");
        println!("deliver mail for {recipient:<30} at {mailbox}");
    }

    // File location, the other extension class (§5's heterogeneous filing).
    let qc = QueryClass::file_location();
    let files = [
        (
            HnsName::new(tb.ctx_bind(), "sources.cs.washington.edu").expect("name"),
            "hrpc/stubs.c",
        ),
        (
            HnsName::new(tb.ctx_ch(), "designs:cs:uw").expect("name"),
            "dlion/board.dwg",
        ),
    ];
    for (volume, path) in &files {
        let nsm_binding = hns.find_nsm(&qc, volume).expect("FindNSM");
        let reply = nsm_client
            .call(
                &nsm_binding,
                volume,
                vec![("path".into(), hns_repro::wire::Value::str(*path))],
            )
            .expect("file NSM");
        println!(
            "fetch {:<28} -> {} : {}",
            format!("{volume}!{path}"),
            reply.str_field("file_host").expect("standard reply"),
            reply.str_field("local_path").expect("standard reply"),
        );
    }

    println!(
        "\n{} remote calls total; every reply arrived in its query class's standard format",
        tb.world.counters().remote_calls
    );
}
