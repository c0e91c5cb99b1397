//! The three workloads: the federation each one runs against, the seeded
//! operation stream, and the answer checks.
//!
//! The program under test only ever sees the generated operations. The
//! generator keeps the benchmark's own model of the expected answers
//! (reference NSM bindings from an independent cold walk, target
//! service bindings from the hosts' own portmapper and exchange tables,
//! and the current holder of every registered name), so every answer is
//! checked without asking the program what it should have said.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hns_core::cache::CacheMode;
use hns_core::colocation::HnsHandle;
use hns_core::name::{Context, HnsName, NameMapping};
use hns_core::query::QueryClass;
use hns_core::service::Hns;
use hrpc::{ComponentSet, HrpcBinding, ProgramId};
use nsms::harness::{
    DeployedBindingNsms, Testbed, DESIRED_SERVICE, DESIRED_SERVICE_PROGRAM, NS_BIND, NS_CH,
    PRINT_SERVICE, PRINT_SERVICE_PROGRAM,
};
use nsms::import::Importer;
use nsms::nsm_cache::NsmCacheForm;
use regd::harness::{owner_key, owner_name};
use regd::{Registry, Resolution};
use simnet::rng::DetRng;
use simnet::topology::NetAddr;

use crate::zipf::Zipf;

/// Contexts in the `lookup_hot` federation. With three query classes
/// that is 192 (context, class) pairs; at ~14 ms of virtual time per
/// operation even the rarest Zipf rank is re-referenced about every
/// 15 virtual seconds, far inside the 600 s meta TTL, so the client
/// caches answer over 99% of operations.
pub const HOT_CONTEXTS: usize = 64;

/// Contexts in the `lookup_cold` federation ("thousands of contexts").
pub const COLD_CONTEXTS: usize = 4096;

/// Share of lookup operations that are a full `Import` (the rest are
/// `FindNSM`).
pub const IMPORT_SHARE: f64 = 0.3;

/// Zipf exponent of the `lookup_hot` key distribution.
pub const HOT_ZIPF_S: f64 = 1.0;

/// Names the `register` workload writes and resolves.
pub const REG_NAMES: usize = 64;

/// Owner pool of the `register` workload. Transfers walk the pool in
/// order; before a name would revisit an earlier holder (which the
/// chain's cycle rule rejects) it is released and re-registered to
/// owner 0, starting a fresh chain epoch.
pub const REG_OWNERS: usize = 12;

/// Share of `register` operations that are `regd` writes, and the share
/// of those writes that are ownership transfers (the rest are re-bind
/// updates). Both are the repository's committed mixed read/write
/// baseline, `experiments loadgen --write-frac 0.3 --transfer-frac 0.25`
/// (`BENCH_throughput.json`); the reads here are `Registry::resolve` of
/// the written names.
pub const REG_WRITE_SHARE: f64 = 0.3;

/// Share of `register` writes that are ownership transfers.
pub const REG_TRANSFER_SHARE: f64 = 0.25;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pre-warmed client, Zipf FindNSM + Import over a small hot set.
    LookupHot,
    /// Cache-less client over thousands of contexts: every FindNSM walks
    /// all six mappings.
    LookupCold,
    /// `regd` re-bind updates, ownership transfers and resolves over the
    /// Clearinghouse.
    Register,
}

/// Every workload, in the order the documentation lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::LookupHot,
    Workload::LookupCold,
    Workload::Register,
];

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LookupHot => "lookup_hot",
            Workload::LookupCold => "lookup_cold",
            Workload::Register => "register",
        }
    }

    /// Operations per measurement window: 0.1-0.5 s of work on a 2-vCPU
    /// Xeon VM, each followed by a speed probe. Fixed per workload so the
    /// benchmark's own memory does not depend on the program's speed;
    /// every window has at least 100 samples beyond its p99.
    pub fn window_ops(self) -> usize {
        match self {
            Workload::LookupHot => 50_000,
            Workload::LookupCold => 10_000,
            Workload::Register => 10_000,
        }
    }

    /// The workload's two operation kinds: the major one (70% of
    /// operations) and the minor one (30%).
    pub fn kinds(self) -> (Kind, Kind) {
        match self {
            Workload::LookupHot | Workload::LookupCold => (Kind::FindNsm, Kind::Import),
            Workload::Register => (Kind::Resolve, Kind::Write),
        }
    }

    /// Operations in the count window: the fixed-length prefix of a
    /// traced run over which the count metrics are taken, so they repeat
    /// exactly for a fixed seed however fast the host is.
    pub fn count_window(self) -> u64 {
        match self {
            Workload::LookupHot => 200_000,
            Workload::LookupCold => 4_000,
            Workload::Register => 20_000,
        }
    }
}

/// Operation kinds, for the per-kind latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Hns::find_nsm`.
    FindNsm,
    /// `Importer::import`.
    Import,
    /// A `regd` write: re-bind update or ownership transfer.
    Write,
    /// `Registry::resolve`.
    Resolve,
}

/// Every kind, indexed by [`Kind::index`].
pub const KINDS: [Kind; 4] = [Kind::FindNsm, Kind::Import, Kind::Write, Kind::Resolve];

impl Kind {
    /// Dense index into per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Name of the kind's p50 metric.
    pub fn p50_metric(self) -> &'static str {
        match self {
            Kind::FindNsm => "find_nsm_p50_ns",
            Kind::Import => "import_p50_ns",
            Kind::Write => "write_p50_ns",
            Kind::Resolve => "resolve_p50_ns",
        }
    }
}

/// One generated operation. Indices refer to the federation's tables;
/// the `register` variants carry the holder the model expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `FindNSM` for pair `pair`.
    FindNsm { pair: u32 },
    /// `Import` of the target service behind importable pair `target`.
    Import { target: u32 },
    /// Re-bind `name` (held by `owner`) to BIND or the Clearinghouse.
    Update { name: u32, owner: u32, to_ch: bool },
    /// Transfer `name` from `from` to `from + 1`.
    Transfer { name: u32, from: u32 },
    /// The owner pool is exhausted: `from` releases `name` and owner 0
    /// registers it again, bound to BIND.
    Reset { name: u32, from: u32 },
    /// Resolve `name`; the model expects holder `owner` and binding
    /// `ch` (Clearinghouse) or BIND.
    Resolve { name: u32, owner: u32, ch: bool },
}

impl Op {
    /// The operation's kind.
    pub fn kind(self) -> Kind {
        match self {
            Op::FindNsm { .. } => Kind::FindNsm,
            Op::Import { .. } => Kind::Import,
            Op::Update { .. } | Op::Transfer { .. } | Op::Reset { .. } => Kind::Write,
            Op::Resolve { .. } => Kind::Resolve,
        }
    }
}

/// What an operation returned, reduced to what the checks compare.
#[derive(Debug)]
pub enum Outcome {
    /// A binding (FindNSM, Import), or `None` on error.
    Binding(Option<HrpcBinding>),
    /// A resolution (transfer, reset, resolve), or `None` on error.
    Resolution(Option<Resolution>),
    /// A write without a result (update): whether it succeeded.
    Done(bool),
}

/// One (context, query class) pair of a lookup federation.
struct Pair {
    qc: QueryClass,
    name: HnsName,
}

/// One importable pair: the `hrpc_binding` pair of a context plus the
/// target service its name service hosts.
struct Target {
    pair: usize,
    service: &'static str,
    program: ProgramId,
}

/// A lookup federation (`lookup_hot` or `lookup_cold`).
pub struct Lookup {
    /// The simulated environment.
    pub tb: Testbed,
    /// The binding NSMs the imports call.
    pub nsms: DeployedBindingNsms,
    /// The measured client's HNS instance.
    pub client: Arc<Hns>,
    importer: Importer,
    pairs: Vec<Pair>,
    targets: Vec<Target>,
    /// Reference answer per pair, from an independent cold walk.
    expect_nsm: Vec<HrpcBinding>,
    /// Expected `Import` answer per target.
    expect_target: Vec<HrpcBinding>,
}

/// The `register` federation.
pub struct Register {
    /// The simulated environment.
    pub tb: Testbed,
    /// The registration frontend every operation goes through.
    pub reg: Registry,
    names: Vec<String>,
    /// Owner names and keys by index, made at set-up so the timed region
    /// formats nothing.
    owners: Vec<(String, u64)>,
}

/// A workload's federation.
pub enum Federation {
    /// `lookup_hot` or `lookup_cold`.
    Lookup(Box<Lookup>),
    /// `register`.
    Register(Box<Register>),
}

fn context(i: usize) -> Context {
    let ns = if i.is_multiple_of(2) { "bind" } else { "ch" };
    Context::new(format!("dept{i}-{ns}")).expect("generated context names are valid")
}

impl Federation {
    /// Builds the federation for `workload`: world, servers, NSMs,
    /// context registrations, and the warm-up of a caching client, then
    /// computes the reference answers the checks compare against.
    /// Returns it with the wall-clock set-up time, which excludes the
    /// reference answers.
    pub fn build(workload: Workload) -> (Federation, Duration) {
        let (mut fed, took) = Federation::set_up(workload);
        if let Federation::Lookup(lookup) = &mut fed {
            lookup.compute_reference();
        }
        (fed, took)
    }

    /// Builds the federation without reference answers; returns it with
    /// the wall-clock set-up time.
    pub fn set_up(workload: Workload) -> (Federation, Duration) {
        let t0 = Instant::now();
        let fed = match workload {
            Workload::LookupHot => Federation::Lookup(Box::new(Lookup::build(HOT_CONTEXTS, true))),
            Workload::LookupCold => {
                Federation::Lookup(Box::new(Lookup::build(COLD_CONTEXTS, false)))
            }
            Workload::Register => Federation::Register(Box::new(Register::build())),
        };
        (fed, t0.elapsed())
    }

    /// The simulated environment.
    pub fn testbed(&self) -> &Testbed {
        match self {
            Federation::Lookup(l) => &l.tb,
            Federation::Register(r) => &r.tb,
        }
    }

    /// Executes one operation. This is exactly the region the latency
    /// metrics time: the public call into the layer, nothing else.
    #[inline]
    pub fn exec(&self, op: Op) -> Outcome {
        match (self, op) {
            (Federation::Lookup(l), Op::FindNsm { pair }) => {
                let p = &l.pairs[pair as usize];
                Outcome::Binding(l.client.find_nsm(&p.qc, &p.name).ok())
            }
            (Federation::Lookup(l), Op::Import { target }) => {
                let t = &l.targets[target as usize];
                let name = &l.pairs[t.pair].name;
                Outcome::Binding(l.importer.import(t.service, t.program, name).ok())
            }
            (Federation::Register(r), Op::Update { name, owner, to_ch }) => {
                let (owner, key) = &r.owners[owner as usize];
                let service = if to_ch { NS_CH } else { NS_BIND };
                Outcome::Done(
                    r.reg
                        .update(owner, *key, &r.names[name as usize], service)
                        .is_ok(),
                )
            }
            (Federation::Register(r), Op::Transfer { name, from }) => {
                let (owner, key) = &r.owners[from as usize];
                let (to, _) = &r.owners[from as usize + 1];
                Outcome::Resolution(
                    r.reg
                        .transfer(owner, *key, &r.names[name as usize], to, None)
                        .ok(),
                )
            }
            (Federation::Register(r), Op::Reset { name, from }) => {
                let (owner, key) = &r.owners[from as usize];
                let (first, first_key) = &r.owners[0];
                let name = &r.names[name as usize];
                Outcome::Resolution(
                    r.reg
                        .release(owner, *key, name)
                        .and_then(|()| r.reg.register(first, *first_key, name, NS_BIND))
                        .ok(),
                )
            }
            (Federation::Register(r), Op::Resolve { name, .. }) => {
                Outcome::Resolution(r.reg.resolve(&r.names[name as usize]).ok())
            }
            _ => unreachable!("operation {op:?} generated for the wrong federation"),
        }
    }

    /// Whether `outcome` is the answer the benchmark's model expects.
    pub fn check(&self, op: Op, outcome: &Outcome) -> bool {
        match (self, op, outcome) {
            (Federation::Lookup(l), Op::FindNsm { pair }, Outcome::Binding(got)) => {
                *got == Some(l.expect_nsm[pair as usize])
            }
            (Federation::Lookup(l), Op::Import { target }, Outcome::Binding(got)) => {
                *got == Some(l.expect_target[target as usize])
            }
            (Federation::Register(_), Op::Update { .. }, Outcome::Done(ok)) => *ok,
            (Federation::Register(_), Op::Transfer { from, .. }, Outcome::Resolution(got)) => got
                .as_ref()
                .is_some_and(|r| r.owner == owner_name(from as usize + 1)),
            (Federation::Register(_), Op::Reset { .. }, Outcome::Resolution(got)) => got
                .as_ref()
                .is_some_and(|r| r.owner == owner_name(0) && r.service == NS_BIND),
            (Federation::Register(_), Op::Resolve { owner, ch, .. }, Outcome::Resolution(got)) => {
                got.as_ref().is_some_and(|r| {
                    r.owner == owner_name(owner as usize)
                        && r.service == if ch { NS_CH } else { NS_BIND }
                })
            }
            _ => false,
        }
    }

    /// End-of-run check of the `register` workload: a full chain walk
    /// (bypassing the collapse cache) and a normal resolve of every name
    /// must both give the holder the generator's model predicts.
    /// Returns the number of names that disagree.
    pub fn final_check(&self, gen: &Generator) -> u64 {
        let Federation::Register(r) = self else {
            return 0;
        };
        let mut wrong = 0;
        for (i, name) in r.names.iter().enumerate() {
            let want = owner_name(gen.holders[i] as usize);
            let naive = r.reg.resolve_naive(name).map(|res| res.owner);
            let cached = r.reg.resolve(name).map(|res| res.owner);
            if naive.as_deref() != Ok(want.as_str()) || cached.as_deref() != Ok(want.as_str()) {
                wrong += 1;
            }
        }
        wrong
    }

    /// Strings the workload's client-side cache probes intern: the query
    /// class and context of every pair (`BindingCache::lookup` interns
    /// both per probe), or the registered names.
    pub fn key_strings(&self) -> Vec<String> {
        match self {
            Federation::Lookup(l) => l
                .pairs
                .iter()
                .flat_map(|p| {
                    [
                        p.qc.as_str().to_string(),
                        p.name.context.as_str().to_string(),
                    ]
                })
                .collect(),
            Federation::Register(r) => r.names.clone(),
        }
    }
}

impl Lookup {
    fn build(contexts: usize, hot: bool) -> Lookup {
        let tb = Testbed::build();
        let form = if hot {
            NsmCacheForm::Demarshalled
        } else {
            NsmCacheForm::Disabled
        };
        let nsms = tb.deploy_binding_nsms(tb.hosts.nsm, form);
        tb.deploy_extension_nsms(tb.hosts.nsm);

        let registrar = tb.make_hns(tb.hosts.meta, CacheMode::Disabled);
        let classes = [
            QueryClass::hrpc_binding(),
            QueryClass::mailbox_location(),
            QueryClass::file_location(),
        ];
        let mut pairs = Vec::with_capacity(contexts * classes.len());
        let mut targets = Vec::with_capacity(contexts);
        for i in 0..contexts {
            let ctx = context(i);
            let (ns, individual, service, program) = if i.is_multiple_of(2) {
                (
                    NS_BIND,
                    "fiji.cs.washington.edu",
                    DESIRED_SERVICE,
                    DESIRED_SERVICE_PROGRAM,
                )
            } else {
                (
                    NS_CH,
                    "printserver:cs:uw",
                    PRINT_SERVICE,
                    PRINT_SERVICE_PROGRAM,
                )
            };
            registrar
                .register_context(&ctx, ns, &NameMapping::Identity)
                .expect("register context");
            for qc in &classes {
                if *qc == QueryClass::hrpc_binding() {
                    targets.push(Target {
                        pair: pairs.len(),
                        service,
                        program,
                    });
                }
                pairs.push(Pair {
                    qc: qc.clone(),
                    name: HnsName::new(ctx.clone(), individual).expect("valid name"),
                });
            }
        }

        let mode = if hot {
            CacheMode::Demarshalled
        } else {
            CacheMode::Disabled
        };
        let client = tb.make_hns(tb.hosts.client, mode);
        client.set_binding_cache(hot);
        let importer = Importer::new(
            Arc::clone(&tb.net),
            tb.hosts.client,
            HnsHandle::Linked(Arc::clone(&client)),
        );
        if hot {
            // Warm-up: one FindNSM per pair fills the mapping and composed
            // caches; one Import per target fills the binding NSMs' caches.
            for p in &pairs {
                client.find_nsm(&p.qc, &p.name).expect("warm-up FindNSM");
            }
            for t in &targets {
                importer
                    .import(t.service, t.program, &pairs[t.pair].name)
                    .expect("warm-up Import");
            }
        }
        Lookup {
            tb,
            nsms,
            client,
            importer,
            pairs,
            targets,
            expect_nsm: Vec::new(),
            expect_target: Vec::new(),
        }
    }

    /// Reference answers: an independent cache-less HNS walks every pair
    /// cold, and each target's binding comes from its host's portmapper
    /// (Sun) or Courier exchange table rather than from any NSM.
    fn compute_reference(&mut self) {
        let reference = self.tb.make_hns(self.tb.hosts.client, CacheMode::Disabled);
        self.expect_nsm = self
            .pairs
            .iter()
            .map(|p| {
                reference
                    .find_nsm(&p.qc, &p.name)
                    .expect("reference FindNSM")
            })
            .collect();
        let net = &self.tb.net;
        let hosts = self.tb.hosts;
        let sun = HrpcBinding {
            host: hosts.fiji,
            addr: NetAddr::of(hosts.fiji),
            program: DESIRED_SERVICE_PROGRAM,
            port: net
                .portmap_getport(hosts.fiji, DESIRED_SERVICE_PROGRAM)
                .expect("target exported"),
            components: ComponentSet::sun(),
        };
        let courier = HrpcBinding {
            host: hosts.printer,
            addr: NetAddr::of(hosts.printer),
            program: PRINT_SERVICE_PROGRAM,
            port: net
                .exchange_resolve(hosts.printer, PRINT_SERVICE)
                .expect("target exported"),
            components: ComponentSet::courier(),
        };
        self.expect_target = self
            .targets
            .iter()
            .map(|t| {
                if t.service == DESIRED_SERVICE {
                    sun
                } else {
                    courier
                }
            })
            .collect();
    }
}

impl Register {
    fn build() -> Register {
        let tb = Testbed::build();
        let mut reg = Registry::new(
            Arc::clone(&tb.net),
            tb.hosts.agent,
            tb.ch.binding,
            tb.creds.clone(),
            "cs",
            "uw",
        );
        // Registrations and re-binds propagate into the meta zone, the
        // full write path of the registration frontend.
        reg.set_rebinder(Some(tb.make_hns(tb.hosts.meta, CacheMode::Disabled)));
        let owners: Vec<(String, u64)> = (0..REG_OWNERS)
            .map(|i| (owner_name(i), owner_key(i)))
            .collect();
        for (owner, key) in &owners {
            reg.register_owner(owner.clone(), *key);
        }
        let names: Vec<String> = (0..REG_NAMES).map(|i| format!("svc{i}")).collect();
        for name in &names {
            reg.register(&owners[0].0, owners[0].1, name, NS_BIND)
                .expect("register name");
        }
        Register {
            tb,
            reg,
            names,
            owners,
        }
    }
}

/// The seeded operation stream of one run, plus the model of the
/// `register` workload's expected state.
pub struct Generator {
    workload: Workload,
    rng: DetRng,
    /// Zipf sampler over context ranks (`lookup_hot`) and the
    /// seed-derived context of each rank.
    hot: Option<(Zipf, Zipf, Vec<u32>)>,
    pairs: u32,
    targets: u32,
    /// Current holder (owner index) of each registered name.
    holders: Vec<u32>,
    /// Whether each registered name is bound to the Clearinghouse.
    bound_ch: Vec<bool>,
}

/// A seed-derived permutation of `0..n` that maps even numbers to even
/// and odd to odd. Rank `r` of the hot set is a context of the same name
/// service as context `r` (even: BIND, odd: Clearinghouse), so every seed
/// heats different keys with the same mix of name services.
fn parity_permutation(n: usize, rng: &mut DetRng) -> Vec<u32> {
    let mut v: Vec<u32> = (0..n as u32).collect();
    for parity in 0..2 {
        let idx: Vec<usize> = (parity..n).step_by(2).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            v.swap(idx[i], idx[j]);
        }
    }
    v
}

impl Generator {
    /// A generator for `workload` seeded with `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut rng = DetRng::new(seed ^ 0x4c41_5945_525f_4c44);
        let (contexts, pairs_per_ctx) = match workload {
            Workload::LookupHot => (HOT_CONTEXTS, 3),
            Workload::LookupCold => (COLD_CONTEXTS, 3),
            Workload::Register => (0, 0),
        };
        let pairs = contexts * pairs_per_ctx;
        let hot = (workload == Workload::LookupHot).then(|| {
            (
                Zipf::new(pairs, HOT_ZIPF_S),
                Zipf::new(contexts, HOT_ZIPF_S),
                parity_permutation(contexts, &mut rng),
            )
        });
        Generator {
            workload,
            rng,
            hot,
            pairs: pairs as u32,
            targets: contexts as u32,
            holders: vec![0; REG_NAMES],
            bound_ch: vec![false; REG_NAMES],
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::LookupHot | Workload::LookupCold => {
                let import = self.rng.chance(IMPORT_SHARE);
                // Pair `p` is class `p % 3` of context `p / 3`; target `t`
                // is context `t`.
                match (&self.hot, import) {
                    (Some((_, zt, perm)), true) => Op::Import {
                        target: perm[zt.sample(&mut self.rng)],
                    },
                    (Some((zp, _, perm)), false) => {
                        let rank = zp.sample(&mut self.rng) as u32;
                        Op::FindNsm {
                            pair: perm[(rank / 3) as usize] * 3 + rank % 3,
                        }
                    }
                    (None, true) => Op::Import {
                        target: self.rng.next_below(u64::from(self.targets)) as u32,
                    },
                    (None, false) => Op::FindNsm {
                        pair: self.rng.next_below(u64::from(self.pairs)) as u32,
                    },
                }
            }
            Workload::Register => self.next_register(),
        }
    }

    fn next_register(&mut self) -> Op {
        let n = self.rng.next_below(REG_NAMES as u64) as usize;
        let name = n as u32;
        let owner = self.holders[n];
        if !self.rng.chance(REG_WRITE_SHARE) {
            Op::Resolve {
                name,
                owner,
                ch: self.bound_ch[n],
            }
        } else if !self.rng.chance(REG_TRANSFER_SHARE) {
            let to_ch = self.rng.chance(0.5);
            self.bound_ch[n] = to_ch;
            Op::Update { name, owner, to_ch }
        } else if (owner as usize) + 1 < REG_OWNERS {
            self.holders[n] = owner + 1;
            Op::Transfer { name, from: owner }
        } else {
            self.holders[n] = 0;
            self.bound_ch[n] = false;
            Op::Reset { name, from: owner }
        }
    }
}
