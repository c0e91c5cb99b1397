//! Per-layer wall-clock attribution, measured from outside the program.
//!
//! Nothing inside the workspace crates is instrumented. Instead:
//!
//! * The benchmark times its own call into each layer's public function
//!   (`Hns::find_nsm`, `Importer::import`, `Registry::{update, transfer,
//!   release, register, resolve}`) as a *frame*.
//! * Every server the benchmark deploys (meta BIND, public BIND, the
//!   Clearinghouse, the binding NSMs) is re-exported behind [`Timed`], a
//!   decorator implementing the public `RpcService` trait, at the same
//!   host and port; the host-address NSMs linked into the client's HNS
//!   are re-linked behind [`TimedNsm`]. Each dispatch is a frame too.
//! * A frame's *self time* is its duration minus the frames nested in
//!   it. What remains of a caller's self time still contains the HRPC
//!   fabric's work for the calls it made (`RpcNet::call`: length
//!   computation, fault and loss checks, reply-cache bookkeeping). The
//!   decorators capture a sample of each call's binding, procedure,
//!   arguments and reply; after the run the samples are replayed
//!   through `RpcNet::call` (the decorator answers with the captured
//!   reply) and through `WireFormat::{encoded_len, encode, decode}`,
//!   which prices one call of each class. Those prices times the live
//!   call counts move from each caller's self time to `hrpc` and
//!   `wire`.
//!
//! The attribution identity then reads: summed operation time = Σ layer
//! self times + hrpc + wire + glue − over-price. It holds by construction
//! (self times add up to the outermost frames' durations), so it checks
//! only its two leftovers: the benchmark's own glue inside the timed
//! region, and replay prices that exceeded the caller's measured self
//! time (a layer's self time is never negative). Their sum is checked
//! against [`UNATTRIBUTED_TOLERANCE`]. The prices themselves are checked
//! against a live measure, the marginal self time of one more RPC in its
//! caller, within [`PRICE_TOLERANCE`].
//!
//! Calls to the hosts' built-in portmapper and Courier exchange cannot be
//! re-exported; their cost stays in the calling NSM's self time.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use clearinghouse::server::{PROC_LIST, PROC_LOOKUP, PROC_LOOKUP_RUN, PROC_SNAPSHOT};
use hns_core::name::HnsName;
use hns_core::nsm::{Nsm, NsmService, SuiteTag};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::error::RpcResult;
use hrpc::server::{CallCtx, ProcServer, RpcService};
use hrpc::{HrpcBinding, ProgramId, RpcNet};
use nsms::harness::{
    Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NSM_EXPORT_PROGRAM, PRINT_SERVICE,
    PRINT_SERVICE_PROGRAM,
};
use simnet::topology::{HostId, NetAddr};
use wire::{Value, WireFormat};

use crate::stats::median;
use crate::workload::{Federation, Op};

/// Largest share of the summed operation time the attribution may leave
/// unexplained (glue plus over-price) before the traced run fails.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.15;

/// How far the replay price of a decorated RPC may exceed its live
/// marginal cost in the caller ([`Attribution::live_rpc_ns`]) before the
/// traced run fails.
pub const PRICE_TOLERANCE: f64 = 0.25;

/// Calls captured per (service, procedure) class for the replay.
const SAMPLES_PER_CLASS: usize = 32;

/// Timed repetitions of each replayed sample; the median is kept.
const REPLAY_REPS: usize = 15;

/// The layers a frame can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Hns::find_nsm` (hns-core).
    HnsFindNsm,
    /// `Importer::import` (nsms), including the linked FindNSM it makes.
    NsmsImport,
    /// `Registry::update` (regd).
    RegdUpdate,
    /// `Registry::transfer`, or release + register when the owner pool
    /// is exhausted (regd).
    RegdTransfer,
    /// `Registry::resolve` (regd).
    RegdResolve,
    /// Dispatch in an exported binding NSM (nsms).
    NsmsDispatch,
    /// A host-address NSM linked into the client's HNS (nsms).
    NsmsLinked,
    /// Dispatch in the meta BIND (bindns).
    BindMeta,
    /// Dispatch in the public BIND (bindns).
    BindPublic,
    /// Clearinghouse read procedures.
    ChRead,
    /// Clearinghouse write procedures.
    ChWrite,
}

/// Number of layers.
pub const N_LAYERS: usize = 11;

/// Every layer, indexed by discriminant.
pub const LAYERS: [Layer; N_LAYERS] = [
    Layer::HnsFindNsm,
    Layer::NsmsImport,
    Layer::RegdUpdate,
    Layer::RegdTransfer,
    Layer::RegdResolve,
    Layer::NsmsDispatch,
    Layer::NsmsLinked,
    Layer::BindMeta,
    Layer::BindPublic,
    Layer::ChRead,
    Layer::ChWrite,
];

impl Layer {
    /// The layer the benchmark calls to execute `op`.
    pub fn of_op(op: Op) -> Layer {
        match op {
            Op::FindNsm { .. } => Layer::HnsFindNsm,
            Op::Import { .. } => Layer::NsmsImport,
            Op::Update { .. } => Layer::RegdUpdate,
            Op::Transfer { .. } | Op::Reset { .. } => Layer::RegdTransfer,
            Op::Resolve { .. } => Layer::RegdResolve,
        }
    }

    /// Name of the layer's self-time metric.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::HnsFindNsm => "hns.find_nsm.self_ns",
            Layer::NsmsImport => "nsms.import.self_ns",
            Layer::RegdUpdate => "regd.update.self_ns",
            Layer::RegdTransfer => "regd.transfer.self_ns",
            Layer::RegdResolve => "regd.resolve.self_ns",
            Layer::NsmsDispatch => "nsms.dispatch.self_ns",
            Layer::NsmsLinked => "nsms.linked.self_ns",
            Layer::BindMeta => "bindns.meta.dispatch_ns",
            Layer::BindPublic => "bindns.public.dispatch_ns",
            Layer::ChRead => "clearinghouse.read.dispatch_ns",
            Layer::ChWrite => "clearinghouse.write.dispatch_ns",
        }
    }
}

/// The services the tracer re-exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Svc {
    MetaBind,
    PublicBind,
    Ch,
    NsmBind,
    NsmCh,
}

const N_SVCS: usize = 5;
const SVCS: [Svc; N_SVCS] = [
    Svc::MetaBind,
    Svc::PublicBind,
    Svc::Ch,
    Svc::NsmBind,
    Svc::NsmCh,
];
/// Procedure numbers are folded into this many slots per service.
const PROC_SLOTS: usize = 16;
const N_CLASSES: usize = N_SVCS * PROC_SLOTS;

impl Svc {
    fn layer(self, proc_id: u32) -> Layer {
        match self {
            Svc::MetaBind => Layer::BindMeta,
            Svc::PublicBind => Layer::BindPublic,
            Svc::Ch => match proc_id {
                PROC_LOOKUP | PROC_LIST | PROC_LOOKUP_RUN | PROC_SNAPSHOT => Layer::ChRead,
                _ => Layer::ChWrite,
            },
            Svc::NsmBind | Svc::NsmCh => Layer::NsmsDispatch,
        }
    }

    fn class(self, proc_id: u32) -> usize {
        self as usize * PROC_SLOTS + (proc_id as usize).min(PROC_SLOTS - 1)
    }
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    /// Decorated RPCs this frame made itself (not through a nested frame).
    rpcs: u32,
}

struct Sample {
    caller: HostId,
    proc_id: u32,
    args: Value,
    reply: Value,
}

/// Per-thread accumulators. The simulated fabric is synchronous, so every
/// nested dispatch of an operation runs on the thread that issued it.
struct Ledger {
    stack: Vec<Frame>,
    self_ns: [u64; N_LAYERS],
    calls: [u64; N_LAYERS],
    /// Summed duration of the frames no other frame encloses, ns.
    root_ns: u64,
    /// Per layer, the sums of a least-squares fit of a frame's self time
    /// on its own decorated RPCs: count, Σx, Σy, Σxy, Σx².
    fit: [[f64; 5]; N_LAYERS],
    /// Decorated RPCs per (calling layer, class); the extra last row
    /// counts calls made outside any frame.
    rpcs: Vec<u64>,
    samples: Vec<Vec<Sample>>,
    /// Whether decorated calls are sampled for the replay. Sampling is
    /// confined to the count window so the prices rest on the same calls
    /// for a fixed seed.
    capturing: bool,
    /// When set, the next decorated dispatch answers with this value
    /// without running the service (replay mode).
    replay: Option<Value>,
}

impl Ledger {
    fn new() -> Ledger {
        Ledger {
            stack: Vec::new(),
            self_ns: [0; N_LAYERS],
            calls: [0; N_LAYERS],
            root_ns: 0,
            fit: [[0.0; 5]; N_LAYERS],
            rpcs: vec![0; (N_LAYERS + 1) * N_CLASSES],
            samples: (0..N_CLASSES).map(|_| Vec::new()).collect(),
            capturing: false,
            replay: None,
        }
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::new());
}

/// Runs `f` as a frame of `layer`.
pub fn frame<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    LEDGER.with(|l| {
        l.borrow_mut().stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
            rpcs: 0,
        })
    });
    let result = f();
    let end = Instant::now();
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let fr = l.stack.pop().expect("frame pushed above");
        let dur = end.duration_since(fr.start).as_nanos() as u64;
        let own = dur.saturating_sub(fr.child_ns);
        l.self_ns[layer as usize] += own;
        l.calls[layer as usize] += 1;
        let (x, y) = (f64::from(fr.rpcs), own as f64);
        let fit = &mut l.fit[layer as usize];
        for (sum, v) in fit.iter_mut().zip([1.0, x, y, x * y, x * x]) {
            *sum += v;
        }
        match l.stack.last_mut() {
            Some(parent) => parent.child_ns += dur,
            None => l.root_ns += dur,
        }
    });
    result
}

/// Frames completed per layer so far on this thread.
pub fn frame_calls() -> [u64; N_LAYERS] {
    LEDGER.with(|l| l.borrow().calls)
}

/// Clears this thread's ledger.
pub fn reset() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::new());
}

/// Starts or stops sampling decorated calls for the replay.
pub fn set_capturing(on: bool) {
    LEDGER.with(|l| l.borrow_mut().capturing = on);
}

/// Decorated RPCs so far per (calling layer, class).
pub fn rpc_counts() -> Vec<u64> {
    LEDGER.with(|l| l.borrow().rpcs.clone())
}

/// Timing decorator for an exported service.
struct Timed {
    inner: Arc<dyn RpcService>,
    svc: Svc,
}

impl RpcService for Timed {
    fn service_name(&self) -> &str {
        self.inner.service_name()
    }

    fn dispatch(&self, ctx: &CallCtx<'_>, proc_id: u32, args: &Value) -> RpcResult<Value> {
        if let Some(reply) = LEDGER.with(|l| l.borrow_mut().replay.take()) {
            return Ok(reply);
        }
        let class = self.svc.class(proc_id);
        LEDGER.with(|l| {
            let mut l = l.borrow_mut();
            let row = match l.stack.last_mut() {
                Some(f) => {
                    f.rpcs += 1;
                    f.layer as usize
                }
                None => N_LAYERS,
            };
            l.rpcs[row * N_CLASSES + class] += 1;
        });
        let result = frame(self.svc.layer(proc_id), || {
            self.inner.dispatch(ctx, proc_id, args)
        });
        if let Ok(reply) = &result {
            LEDGER.with(|l| {
                let mut l = l.borrow_mut();
                let capturing = l.capturing;
                let samples = &mut l.samples[class];
                if capturing && samples.len() < SAMPLES_PER_CLASS {
                    samples.push(Sample {
                        caller: ctx.caller,
                        proc_id,
                        args: args.clone(),
                        reply: reply.clone(),
                    });
                }
            });
        }
        result
    }
}

/// Timing decorator for a linked NSM.
struct TimedNsm {
    inner: Arc<dyn Nsm>,
}

impl Nsm for TimedNsm {
    fn nsm_name(&self) -> &str {
        self.inner.nsm_name()
    }

    fn query_class(&self) -> QueryClass {
        self.inner.query_class()
    }

    fn handle(&self, hns_name: &HnsName, args: &Value) -> RpcResult<Value> {
        frame(Layer::NsmsLinked, || self.inner.handle(hns_name, args))
    }
}

/// One service export the tracer swaps.
struct Swap {
    host: HostId,
    port: u16,
    program: ProgramId,
    original: Arc<dyn RpcService>,
    traced: Arc<dyn RpcService>,
}

/// The installed decorators of one federation.
pub struct Tracer {
    net: Arc<RpcNet>,
    swaps: Vec<Swap>,
    /// The binding each decorated service is called through.
    bindings: [Option<HrpcBinding>; N_SVCS],
    /// The client HNS whose linked NSMs are wrapped.
    linked: Option<Arc<Hns>>,
}

fn timed(inner: Arc<dyn RpcService>, svc: Svc) -> Arc<dyn RpcService> {
    Arc::new(Timed { inner, svc })
}

fn nsm_binding(host: HostId, program: ProgramId, port: u16) -> HrpcBinding {
    HrpcBinding {
        host,
        addr: NetAddr::of(host),
        program,
        port,
        components: SuiteTag::Sun.components(port),
    }
}

impl Tracer {
    /// Re-exports every server of `fed` behind a timing decorator and
    /// re-links the client's host-address NSMs behind one.
    pub fn install(fed: &Federation) -> Tracer {
        let tb = fed.testbed();
        let net = Arc::clone(&tb.net);
        let mut bindings = [None; N_SVCS];
        let mut swaps = Vec::new();
        let mut add = |svc: Svc, binding: HrpcBinding, original: Arc<dyn RpcService>| {
            bindings[svc as usize] = Some(binding);
            swaps.push(Swap {
                host: binding.host,
                port: binding.port,
                program: binding.program,
                traced: timed(Arc::clone(&original), svc),
                original,
            });
        };
        add(
            Svc::MetaBind,
            tb.meta_bind.hrpc_binding,
            tb.meta_bind.server.clone(),
        );
        add(
            Svc::PublicBind,
            tb.public_bind.std_binding,
            tb.public_bind.server.clone(),
        );
        add(Svc::Ch, tb.ch.binding, tb.ch.server.clone());
        let mut linked = None;
        if let Federation::Lookup(l) = fed {
            let host = l.nsms.host;
            for (svc, program, nsm) in [
                (
                    Svc::NsmBind,
                    NSM_EXPORT_PROGRAM,
                    l.nsms.bind.clone() as Arc<dyn Nsm>,
                ),
                (
                    Svc::NsmCh,
                    ProgramId(NSM_EXPORT_PROGRAM.0 + 1),
                    l.nsms.ch.clone() as Arc<dyn Nsm>,
                ),
            ] {
                let port = net
                    .portmap_getport(host, program)
                    .expect("binding NSM exported");
                add(svc, nsm_binding(host, program, port), NsmService::new(nsm));
            }
            for nsm in tb.host_addr_nsms(l.client.host()) {
                l.client.link_nsm(Arc::new(TimedNsm { inner: nsm }));
            }
            linked = Some(Arc::clone(&l.client));
        }
        swaps.extend(target_services(tb));
        let tracer = Tracer {
            net,
            swaps,
            bindings,
            linked,
        };
        tracer.swap(true);
        tracer
    }

    /// Puts the undecorated services and linked NSMs back.
    pub fn uninstall(&self, fed: &Federation) {
        self.swap(false);
        if let Some(client) = &self.linked {
            for nsm in fed.testbed().host_addr_nsms(client.host()) {
                client.link_nsm(nsm);
            }
        }
    }

    /// `RpcNet::unexport` drops the portmapper entry of *every* host at
    /// the freed port number, so all exports sharing a port number with
    /// a swapped one are swapped together: every unexport first, then
    /// every export, then a check that each program still maps to its
    /// port.
    fn swap(&self, traced: bool) {
        for s in &self.swaps {
            self.net.unexport(s.host, s.port);
        }
        for s in &self.swaps {
            let service = if traced { &s.traced } else { &s.original };
            self.net
                .export_at(s.host, s.port, s.program, Arc::clone(service));
        }
        for s in &self.swaps {
            assert_eq!(
                self.net.portmap_getport(s.host, s.program).ok(),
                Some(s.port),
                "program {} on {} lost its port",
                s.program.0,
                s.host
            );
        }
    }

    /// Prices one call of every class that was sampled, by replaying the
    /// samples. Must run after the measured phase: replayed calls charge
    /// virtual time and counters like live ones.
    pub fn replay(&self) -> Vec<Option<ClassCost>> {
        let timer = timer_overhead_ns();
        let samples = LEDGER.with(|l| std::mem::take(&mut l.borrow_mut().samples));
        let mut costs = Vec::with_capacity(N_CLASSES);
        for (class, samples) in samples.iter().enumerate() {
            let svc = SVCS[class / PROC_SLOTS];
            let (Some(binding), false) = (self.bindings[svc as usize], samples.is_empty()) else {
                costs.push(None);
                continue;
            };
            let format = binding.components.data_rep;
            let mut per = Vec::with_capacity(samples.len());
            for s in samples {
                per.push(self.price(&binding, format, s, timer));
            }
            let n = per.len() as f64;
            let mean = |f: fn(&ClassCost) -> f64| per.iter().map(f).sum::<f64>() / n;
            costs.push(Some(ClassCost {
                format,
                hrpc_ns: mean(|c| c.hrpc_ns),
                len_ns: mean(|c| c.len_ns),
                encode_ns: mean(|c| c.encode_ns),
                decode_ns: mean(|c| c.decode_ns),
                bytes: mean(|c| c.bytes),
            }));
        }
        costs
    }

    fn price(
        &self,
        binding: &HrpcBinding,
        format: WireFormat,
        s: &Sample,
        timer: f64,
    ) -> ClassCost {
        let timed_median = |f: &mut dyn FnMut() -> u64| {
            let v: Vec<f64> = (0..REPLAY_REPS).map(|_| f() as f64).collect();
            (median(&v).expect("reps > 0") - timer).max(0.0)
        };
        let call_ns = timed_median(&mut || {
            let reply = s.reply.clone();
            LEDGER.with(|l| l.borrow_mut().replay = Some(reply));
            let t0 = Instant::now();
            let r = self.net.call(s.caller, binding, s.proc_id, &s.args);
            let ns = t0.elapsed().as_nanos() as u64;
            assert!(r.is_ok(), "replayed call failed: {r:?}");
            black_box(r).ok();
            ns
        });
        let len_ns = timed_median(&mut || {
            let t0 = Instant::now();
            let a = format.encoded_len(black_box(&s.args));
            let b = format.encoded_len(black_box(&s.reply));
            let ns = t0.elapsed().as_nanos() as u64;
            let _ = black_box((a, b));
            ns
        });
        let encode_ns = timed_median(&mut || {
            let t0 = Instant::now();
            let a = format.encode(black_box(&s.args));
            let b = format.encode(black_box(&s.reply));
            let ns = t0.elapsed().as_nanos() as u64;
            let _ = black_box((a, b));
            ns
        });
        let a = format.encode(&s.args).expect("captured args encode");
        let b = format.encode(&s.reply).expect("captured reply encodes");
        let decode_ns = timed_median(&mut || {
            let t0 = Instant::now();
            let x = format.decode(black_box(&a));
            let y = format.decode(black_box(&b));
            let ns = t0.elapsed().as_nanos() as u64;
            let _ = black_box((x, y));
            ns
        });
        ClassCost {
            format,
            hrpc_ns: (call_ns - len_ns).max(0.0),
            len_ns,
            encode_ns,
            decode_ns,
            bytes: (a.len() + b.len()) as f64,
        }
    }
}

/// The target services share port numbers with swapped exports (every
/// host's first dynamic port), so they are re-exported too, with the
/// same definitions the testbed gives them. `Import` only resolves their
/// ports; it never calls them.
fn target_services(tb: &Testbed) -> Vec<Swap> {
    let desired: Arc<dyn RpcService> = Arc::new(
        ProcServer::new(DESIRED_SERVICE)
            .with_proc(1, |_c, a| Ok(Value::record(vec![("echo", a.clone())]))),
    );
    let print: Arc<dyn RpcService> =
        Arc::new(ProcServer::new(PRINT_SERVICE).with_proc(1, |_c, _a| Ok(Value::str("queued"))));
    [
        (tb.hosts.fiji, DESIRED_SERVICE_PROGRAM, desired),
        (tb.hosts.printer, PRINT_SERVICE_PROGRAM, print),
    ]
    .into_iter()
    .map(|(host, program, service)| Swap {
        host,
        port: tb
            .net
            .portmap_getport(host, program)
            .expect("target service exported"),
        program,
        traced: Arc::clone(&service),
        original: service,
    })
    .collect()
}

/// Replay price of one call of a class.
#[derive(Debug, Clone, Copy)]
pub struct ClassCost {
    /// Data representation of the class's binding.
    pub format: WireFormat,
    /// `RpcNet::call` minus the length computation, ns.
    pub hrpc_ns: f64,
    /// `encoded_len` of arguments and reply, ns.
    pub len_ns: f64,
    /// `encode` of arguments and reply, ns.
    pub encode_ns: f64,
    /// `decode` of arguments and reply, ns.
    pub decode_ns: f64,
    /// Encoded bytes of arguments and reply.
    pub bytes: f64,
}

/// Median cost of an empty `Instant` pair, subtracted from each timed
/// replay.
fn timer_overhead_ns() -> f64 {
    let v: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            black_box(t0.elapsed().as_nanos() as f64)
        })
        .collect();
    median(&v).expect("non-empty")
}

/// Per-format wire totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireTotals {
    /// Live calls of classes with this format.
    pub calls: u64,
    /// Σ calls × encoded_len price, ns.
    pub len_ns: f64,
    /// Σ calls × encode price, ns.
    pub encode_ns: f64,
    /// Σ calls × decode price, ns.
    pub decode_ns: f64,
    /// Σ calls × bytes.
    pub bytes: f64,
}

/// The attributed traced phase.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Summed operation time, ns.
    pub op_ns: f64,
    /// Self time per layer after moving replay prices to hrpc and wire
    /// (never negative), ns.
    pub self_ns: [f64; N_LAYERS],
    /// Frames per layer.
    pub calls: [u64; N_LAYERS],
    /// Decorated RPCs.
    pub rpc_calls: u64,
    /// HRPC fabric time, ns.
    pub hrpc_ns: f64,
    /// Wire totals for XDR and Courier.
    pub wire: [WireTotals; 2],
    /// Operation time outside every frame: the benchmark's own glue
    /// between its timer and the outermost frame's, ns.
    pub glue_ns: f64,
    /// Replay prices that exceeded the calling frame's measured self time
    /// (so were clamped there), plus prices of calls made outside any
    /// frame, ns.
    pub overprice_ns: f64,
    /// Live marginal cost of one decorated RPC in its caller's self time:
    /// the slope of a least-squares fit of frame self time on the frame's
    /// own RPC count, pooled within layers, ns. `None` when no layer's
    /// frames vary in how many RPCs they make.
    pub live_rpc_ns: Option<f64>,
    /// The replay price (hrpc + `encoded_len`) of the same calls, pooled
    /// with the fit's weights, ns.
    pub replay_rpc_ns: Option<f64>,
}

impl Attribution {
    /// Operation time no layer accounts for: glue plus over-price. The
    /// two do not cancel; each is a failure of the attribution.
    pub fn unattributed_ns(&self) -> f64 {
        self.glue_ns.abs() + self.overprice_ns
    }
}

/// Index of a format in [`Attribution::wire`].
pub fn format_index(format: WireFormat) -> usize {
    match format {
        WireFormat::Xdr => 0,
        WireFormat::Courier => 1,
    }
}

/// Wire totals per format for the decorated calls counted in `rpcs`.
pub fn wire_totals(costs: &[Option<ClassCost>], rpcs: &[u64]) -> [WireTotals; 2] {
    let mut wire = [WireTotals::default(); 2];
    for row in 0..=N_LAYERS {
        for (class, cost) in costs.iter().enumerate() {
            let Some(c) = cost else {
                continue;
            };
            let n = rpcs[row * N_CLASSES + class];
            let nf = n as f64;
            let w = &mut wire[format_index(c.format)];
            w.calls += n;
            w.len_ns += nf * c.len_ns;
            w.encode_ns += nf * c.encode_ns;
            w.decode_ns += nf * c.decode_ns;
            w.bytes += nf * c.bytes;
        }
    }
    wire
}

/// Attributes `op_ns` of summed operation time over the frames of this
/// thread's ledger, moving the replay prices `costs` of the decorated
/// calls counted in `rpcs` from each caller to hrpc and wire.
///
/// Frame self times add up to the root frames' durations by
/// construction, so Σ self + hrpc + wire + glue − over-price = `op_ns`
/// always holds: the identity bounds the glue and the over-price, not the
/// prices. The prices are checked against a live measure instead:
/// [`Attribution::live_rpc_ns`].
pub fn attribute(op_ns: f64, costs: &[Option<ClassCost>], rpcs: &[u64]) -> Attribution {
    let (frame_self, calls, root_ns, fit) = LEDGER.with(|l| {
        let l = l.borrow();
        (l.self_ns, l.calls, l.root_ns, l.fit)
    });
    let mut self_ns = [0.0; N_LAYERS];
    let mut hrpc_ns = 0.0;
    let mut rpc_calls = 0;
    let mut overprice_ns = 0.0;
    // Pooled within-layer fit: Σ Sxy, Σ Sxx, Σ Sxx × replay price per call.
    let (mut sxy, mut sxx, mut price) = (0.0, 0.0, 0.0);
    for row in 0..=N_LAYERS {
        let (mut moved, mut priced) = (0.0, 0);
        for (class, cost) in costs.iter().enumerate() {
            let Some(c) = cost else {
                continue;
            };
            let n = rpcs[row * N_CLASSES + class];
            priced += n;
            hrpc_ns += n as f64 * c.hrpc_ns;
            moved += n as f64 * (c.hrpc_ns + c.len_ns);
        }
        rpc_calls += priced;
        if row == N_LAYERS {
            overprice_ns += moved;
            continue;
        }
        // A layer's self time is never negative: a replay price above the
        // caller's measured self time is over-price.
        let own = frame_self[row] as f64;
        self_ns[row] = (own - moved).max(0.0);
        overprice_ns += (moved - own).max(0.0);
        let [n, x, y, xy, xx] = fit[row];
        let var = xx - x * x / n.max(1.0);
        if var > 0.0 && priced > 0 {
            sxy += xy - x * y / n;
            sxx += var;
            price += var * moved / priced as f64;
        }
    }
    Attribution {
        op_ns,
        self_ns,
        calls,
        rpc_calls,
        hrpc_ns,
        wire: wire_totals(costs, rpcs),
        glue_ns: op_ns - root_ns as f64,
        overprice_ns,
        live_rpc_ns: (sxx > 0.0).then(|| sxy / sxx),
        replay_rpc_ns: (sxx > 0.0).then(|| price / sxx),
    }
}

/// Median price of interning each of `keys` once more (each is already
/// interned, as on every cache probe), averaged over the keys, ns.
pub fn intern_price(keys: &[String]) -> f64 {
    let timer = timer_overhead_ns();
    let per: Vec<f64> = keys
        .iter()
        .map(|k| {
            let v: Vec<f64> = (0..REPLAY_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(intern::intern(black_box(k)));
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            (median(&v).expect("reps > 0") - timer).max(0.0)
        })
        .collect();
    per.iter().sum::<f64>() / per.len().max(1) as f64
}
