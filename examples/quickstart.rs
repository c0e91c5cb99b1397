//! Quickstart — Figure 2.1 brought to life.
//!
//! Builds the full simulated HCS environment (public BIND, Clearinghouse,
//! modified meta-BIND, NSMs), then runs two queries through *identical*
//! client code: one name lives in BIND, the other in the Clearinghouse.
//! The trace printed at the end is the executable version of the paper's
//! Figure 2.1: client → HNS (`FindNSM`) → designated NSM → underlying name
//! service.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use hns_repro::hns_core::cache::CacheMode;
use hns_repro::hns_core::colocation::HnsHandle;
use hns_repro::hns_core::name::HnsName;
use hns_repro::nsms::harness::{
    Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, PRINT_SERVICE, PRINT_SERVICE_PROGRAM,
};
use hns_repro::nsms::Importer;
use hns_repro::wire::Value;

fn main() {
    // 1. The heterogeneous environment: two underlying name services that
    //    never heard of each other, plus the HNS meta store.
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);

    // 2. An HNS instance linked with the client, its host-address NSMs
    //    linked in to break FindNSM recursion.
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));

    tb.world.tracer.set_enabled(true);

    // 3. Query 1: a service whose host is named in BIND.
    let bind_name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let binding = importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &bind_name)
        .expect("import via BIND");
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &Value::str("hello"))
        .expect("call DesiredService");
    println!("DesiredService (BIND name, Sun RPC)      -> {reply}");

    // 4. Query 2: identical client code, but the name lives in the
    //    Clearinghouse and the service speaks Courier.
    let ch_name = HnsName::new(tb.ctx_ch(), "printserver:cs:uw").expect("name");
    let binding = importer
        .import(PRINT_SERVICE, PRINT_SERVICE_PROGRAM, &ch_name)
        .expect("import via Clearinghouse");
    let reply = tb
        .net
        .call(tb.hosts.client, &binding, 1, &Value::Void)
        .expect("call PrintService");
    println!("PrintService (Clearinghouse name, Courier) -> {reply}");

    // 5. The Figure 2.1 trace.
    println!("\n--- query processing trace (Figure 2.1) ---");
    print!("{}", tb.world.tracer.render_tree());
    println!(
        "\nvirtual time elapsed: {:.1} ms; remote calls: {}",
        tb.world.now().as_ms_f64(),
        tb.world.counters().remote_calls
    );
}
