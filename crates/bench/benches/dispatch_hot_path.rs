//! Criterion bench: the warm `FindNSM` dispatch hot path, sharded.
//!
//! Measures the single-operation cost of a warm lookup at 1/4/8 worker
//! threads, each worker on its own private stack (the load engine's
//! sharded dispatch), in two shapes:
//!
//! * **walk** — the composed binding cache off: every warm query runs
//!   the six-mapping walk against the demarshalled per-mapping cache,
//!   re-parsing payloads along the way (the pre-optimization path), and
//! * **composed** — the binding cache on: a warm query is one probe
//!   returning the final `Copy` binding.
//!
//! Both run with batched virtual-time charging, the engine's measured
//! configuration. Workloads are seed-pinned (`DetRng`), so run-to-run
//! numbers compare the code, not the draw.
//!
//! A third shape, **datagram_echo**, measures the simulated datagram
//! delivery path itself: a bare remote echo call through
//! `RpcNet::call` with no caches in front. Before/after for the
//! allocation-free delivery path (cost accounting via
//! `WireFormat::encoded_len` instead of materializing the datagram and
//! re-decoding it on each leg): 2000 echo calls took ~4.8 ms before
//! (~2.4 µs/op, four encode/decode passes per call) and ~1.6 ms after
//! (~0.8 µs/op), a ~3x per-datagram win. The warm walk/composed shapes
//! are unchanged — a warm `FindNSM` makes zero remote calls.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hns_core::cache::CacheMode;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::{ComponentSet, HrpcBinding, ProcServer, ProgramId, RpcNet};
use nsms::harness::{Testbed, NS_BIND, NS_CH};
use simnet::rng::DetRng;
use simnet::topology::{HostId, NetAddr};
use simnet::world::World;
use wire::Value;

const CONTEXTS: usize = 12;
const OPS_PER_THREAD: usize = 2_000;

/// One worker's private warm stack: a testbed kept alive plus a
/// pre-warmed HNS and its query universe.
struct WarmStack {
    _tb: Testbed,
    hns: Arc<Hns>,
    ops: Vec<(QueryClass, HnsName)>,
}

fn build_warm_stack(composed: bool) -> WarmStack {
    let tb = Testbed::build();
    tb.deploy_binding_nsms(tb.hosts.nsm, CacheMode::Demarshalled);
    tb.deploy_extension_nsms(tb.hosts.nsm);
    let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
    let classes = [
        QueryClass::hrpc_binding(),
        QueryClass::mailbox_location(),
        QueryClass::file_location(),
    ];
    let mut ops = Vec::new();
    for i in 0..CONTEXTS {
        let (ns, individual) = if i % 2 == 0 {
            (NS_BIND, "fiji.cs.washington.edu")
        } else {
            (NS_CH, "printserver:cs:uw")
        };
        let ctx = Context::new(format!(
            "dept{i}-{}",
            if i % 2 == 0 { "bind" } else { "ch" }
        ))
        .expect("ctx");
        registrar
            .register_context(&ctx, ns, &NameMapping::Identity)
            .expect("register");
        for qc in &classes {
            ops.push((
                qc.clone(),
                HnsName::new(ctx.clone(), individual).expect("name"),
            ));
        }
    }
    let hns = tb.make_hns(tb.hosts.client, CacheMode::Demarshalled);
    hns.set_binding_cache(composed);
    for (qc, name) in &ops {
        hns.find_nsm(qc, name).expect("pre-warm");
    }
    tb.world.clock.set_batched(true);
    WarmStack { _tb: tb, hns, ops }
}

/// Fans `stacks` out over worker threads, each doing seed-pinned warm
/// lookups on its own stack; returns wall time for `iters` repetitions.
fn sharded_run(iters: u64, stacks: &[WarmStack]) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        std::thread::scope(|scope| {
            for (t, stack) in stacks.iter().enumerate() {
                scope.spawn(move || {
                    let mut rng = DetRng::new(0xD15 + t as u64);
                    for _ in 0..OPS_PER_THREAD {
                        let (qc, name) =
                            &stack.ops[rng.next_below(stack.ops.len() as u64) as usize];
                        black_box(stack.hns.find_nsm(qc, name)).expect("warm hit");
                    }
                    stack._tb.world.clock.flush_local();
                });
            }
        });
    }
    start.elapsed()
}

/// A bare remote echo call: the simulated datagram delivery path with
/// no caches or name service in front of it.
struct DatagramStack {
    world: Arc<World>,
    net: Arc<RpcNet>,
    client: HostId,
    binding: HrpcBinding,
    msg: Value,
}

fn build_datagram_stack() -> DatagramStack {
    let world = World::paper();
    let client = world.add_host("client");
    let server = world.add_host("server");
    let net = RpcNet::new(Arc::clone(&world));
    let echo = Arc::new(ProcServer::new("echo").with_proc(1, |_ctx, args| Ok(args.clone())));
    let port = net.export(server, ProgramId(77), echo);
    let binding = HrpcBinding {
        host: server,
        addr: NetAddr::of(server),
        program: ProgramId(77),
        port,
        components: ComponentSet::sun(),
    };
    // A representative query-sized payload (~200 wire bytes).
    let msg = Value::record(vec![
        ("context", Value::str("dept4-bind")),
        ("individual", Value::str("fiji.cs.washington.edu")),
        (
            "classes",
            Value::List(vec![
                Value::str("hrpcbinding"),
                Value::str("mailboxlocation"),
                Value::str("filelocation"),
            ]),
        ),
        ("hops", Value::U32(3)),
    ]);
    world.clock.set_batched(true);
    DatagramStack {
        world,
        net,
        client,
        binding,
        msg,
    }
}

fn datagram_run(iters: u64, stack: &DatagramStack) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        for _ in 0..OPS_PER_THREAD {
            black_box(stack.net.call(stack.client, &stack.binding, 1, &stack.msg)).expect("echo");
        }
        stack.world.clock.flush_local();
    }
    start.elapsed()
}

fn bench_dispatch_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_hot_path");
    for &threads in &[1usize, 4, 8] {
        let walk: Vec<WarmStack> = (0..threads).map(|_| build_warm_stack(false)).collect();
        group.bench_with_input(BenchmarkId::new("walk", threads), &threads, |b, _| {
            b.iter_custom(|iters| sharded_run(iters, &walk))
        });
        drop(walk);

        let composed: Vec<WarmStack> = (0..threads).map(|_| build_warm_stack(true)).collect();
        group.bench_with_input(BenchmarkId::new("composed", threads), &threads, |b, _| {
            b.iter_custom(|iters| sharded_run(iters, &composed))
        });
    }

    let datagram = build_datagram_stack();
    group.bench_function("datagram_echo", |b| {
        b.iter_custom(|iters| datagram_run(iters, &datagram))
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_dispatch_hot_path
}
criterion_main!(benches);
