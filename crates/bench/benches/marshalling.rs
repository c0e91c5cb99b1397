//! Criterion bench for Table 3.2's real-time shape: the stub-compiler
//! generated marshalling path versus the hand-written fast path, at 1 and
//! 6 resource records. Absolute times are 2026 hardware, not 1987 — what
//! must hold is the *ratio*: generated ≫ direct ≫ hand-written.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use wire::fast::{encode_rr_batch, WireRecord};
use wire::generated::Compiled;
use wire::{TypeDesc, Value};

fn rr_message(n: usize) -> Value {
    let records: Vec<Value> = (0..n)
        .map(|i| {
            Value::record(vec![
                ("rtype", Value::U32(1)),
                ("ttl", Value::U32(86_400)),
                ("rdata", Value::bytes(vec![i as u8; 32])),
            ])
        })
        .collect();
    Value::record(vec![
        ("name", Value::str("fiji.cs.washington.edu")),
        ("records", Value::List(records)),
    ])
}

fn wire_records(n: usize) -> Vec<WireRecord> {
    (0..n)
        .map(|i| WireRecord {
            rtype: 1,
            ttl: 86_400,
            rdata: vec![i as u8; 32],
        })
        .collect()
}

fn bench_marshalling(c: &mut Criterion) {
    let mut group = c.benchmark_group("marshalling");
    for &n in &[1usize, 6] {
        let message = rr_message(n);
        let desc = TypeDesc::describe(&message);
        let compiled = Compiled::new(desc);
        let records = wire_records(n);
        let generated_bytes = compiled.marshal(&message).expect("marshal");

        group.bench_with_input(BenchmarkId::new("generated_marshal", n), &n, |b, _| {
            b.iter(|| compiled.marshal(black_box(&message)).expect("marshal"))
        });
        group.bench_with_input(BenchmarkId::new("generated_unmarshal", n), &n, |b, _| {
            b.iter(|| {
                compiled
                    .unmarshal(black_box(&generated_bytes))
                    .expect("unmarshal")
            })
        });
        group.bench_with_input(BenchmarkId::new("direct_xdr", n), &n, |b, _| {
            b.iter(|| wire::xdr::encode(black_box(&message)).expect("encode"))
        });
        group.bench_with_input(BenchmarkId::new("fast_handwritten", n), &n, |b, _| {
            b.iter(|| {
                encode_rr_batch("fiji.cs.washington.edu", black_box(&records)).expect("encode")
            })
        });
    }
    group.finish();
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
    targets = bench_marshalling
}
criterion_main!(benches);
