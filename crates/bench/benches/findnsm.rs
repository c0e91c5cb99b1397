//! Criterion bench: real-time cost of `FindNSM` cold (six remote data
//! mappings through the simulated fabric) versus warm (pure cache work).

use criterion::{criterion_group, criterion_main, Criterion};
use hns_core::cache::CacheMode;
use hns_core::name::HnsName;
use hns_core::query::QueryClass;
use nsms::harness::Testbed;
use std::hint::black_box;

fn bench_findnsm(c: &mut Criterion) {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Marshalled);
    let name = HnsName::new(tb.ctx_bind(), "fiji.cs.washington.edu").expect("name");
    let qc = QueryClass::hrpc_binding();

    let cold = tb.make_hns(tb.hosts.client, CacheMode::Disabled);
    c.bench_function("findnsm_cold_6_mappings", |b| {
        b.iter(|| {
            cold.find_nsm(black_box(&qc), black_box(&name))
                .expect("find")
        })
    });

    let warm = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    warm.find_nsm(&qc, &name).expect("prime");
    c.bench_function("findnsm_warm_demarshalled", |b| {
        b.iter(|| {
            warm.find_nsm(black_box(&qc), black_box(&name))
                .expect("find")
        })
    });

    let warm_marshalled = tb.make_hns(tb.hosts.client, CacheMode::Marshalled);
    warm_marshalled.find_nsm(&qc, &name).expect("prime");
    c.bench_function("findnsm_warm_marshalled", |b| {
        b.iter(|| {
            warm_marshalled
                .find_nsm(black_box(&qc), black_box(&name))
                .expect("find")
        })
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
    targets = bench_findnsm
}
criterion_main!(benches);
