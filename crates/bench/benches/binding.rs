//! Criterion bench: end-to-end HRPC binding (the Table 3.1 workload) in
//! real time, against the two baseline mechanisms.

use std::sync::Arc;

use baselines::{InterimBinder, ReregisteredChBinder};
use criterion::{criterion_group, criterion_main, Criterion};
use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::HnsName;
use nsms::harness::{Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM};
use nsms::Importer;
use std::hint::black_box;

fn bench_binding(c: &mut Criterion) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.client, CacheMode::Demarshalled);
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    let importer = Importer::new(Arc::clone(&tb.net), tb.hosts.client, HnsHandle::Linked(hns));
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    importer
        .import(DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, &name)
        .expect("prime");
    c.bench_function("hns_import_warm", |b| {
        b.iter(|| {
            importer
                .import(black_box(DESIRED_SERVICE), DESIRED_SERVICE_PROGRAM, &name)
                .expect("import")
        })
    });

    let interim = InterimBinder::new(Arc::clone(&tb.net));
    interim.register(DESIRED_SERVICE, tb.hosts.fiji, DESIRED_SERVICE_PROGRAM);
    interim.push_replica(tb.hosts.client);
    c.bench_function("interim_file_bind", |b| {
        b.iter(|| {
            interim
                .bind(tb.hosts.client, black_box(DESIRED_SERVICE))
                .expect("bind")
        })
    });

    let rereg = ReregisteredChBinder::new(
        Arc::clone(&tb.net),
        tb.ch_client(tb.hosts.client),
        "cs",
        "uw",
    );
    let port = tb
        .net
        .portmap_getport(tb.hosts.fiji, DESIRED_SERVICE_PROGRAM)
        .expect("port");
    rereg
        .reregister(
            DESIRED_SERVICE,
            tb.hosts.fiji,
            DESIRED_SERVICE_PROGRAM,
            port,
        )
        .expect("reregister");
    c.bench_function("rereg_ch_bind", |b| {
        b.iter(|| rereg.bind(black_box(DESIRED_SERVICE)).expect("bind"))
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_binding
}
criterion_main!(benches);
